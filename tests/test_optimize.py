"""Optimal two-sided prices: first-order conditions, worked forms, baselines."""

import math
import sys

import numpy as np
import pytest

from netpricing import (CapacitySharing, ConvergenceError, CpPowerDemand,
                        CustomDemand, DegenerateBaselineError, DomainError, ExponentialGain,
                        MarketModel, MM1Queue, PricePair, ReciprocalGain,
                        UserPowerDemand, baseline_model, evaluate_objectives,
                        grid_optimize, growth_rates, optimize_one_sided,
                        optimal_price_sensitivity, optimize_profit, optimize_welfare,
                        solve_equilibrium, verify_optima)
from netpricing import optimize
from netpricing.oracle import reoptimized_price_derivatives
from netpricing.equilibrium import solve_many
from test_oracle import bounded_count


def exp_gain_example_model(capacity: float = 1.0) -> MarketModel:
    """m = 1 - p, n = (1 - q)^2, gain e^-phi (sensitivity e - 1), sharing."""
    cp = CustomDemand(lambda q: (1.0 - q) ** 2,
                      slope_fn=lambda q: -2.0 * (1.0 - q),
                      surplus_fn=lambda q: (1.0 - q) ** 3 / 3.0)
    return MarketModel(
        gain=ExponentialGain(),
        congestion=CapacitySharing(),
        user_demand=UserPowerDemand(alpha=1.0),
        cp_demand=cp,
        cost=0.7,
        capacity=capacity,
        sensitivity=math.e - 1.0,
    )


# ---------------------------------------------------------------------------
# profit optimum
# ---------------------------------------------------------------------------

def test_symmetric_baseline_equalizes_prices():
    report = optimize_profit(baseline_model())
    assert abs(report.prices.user - report.prices.cp) <= 1e-6
    assert not report.boundary
    assert report.diagnostics.kkt_residual <= 1e-5
    assert report.diagnostics.lerner_residual <= 1e-5


def test_profit_hazard_equalization_on_model_grid():
    for gain in (ReciprocalGain(), ExponentialGain()):
        for congestion, mu in ((CapacitySharing(), 1.0), (MM1Queue(), 2.0)):
            for beta in (1.0, 2.0):
                model = baseline_model(gain=gain, congestion=congestion,
                                       beta=beta, capacity=mu)
                report = optimize_profit(model)
                assert not report.boundary
                mh = report.diagnostics.user_hazard
                nh = report.diagnostics.cp_hazard
                assert abs(mh - nh) <= 1e-5 * mh
                assert report.diagnostics.kkt_residual <= 1e-5
                assert report.diagnostics.lerner_residual <= 1e-5


def test_profit_worked_example_prices():
    # p* = (phi + c + 2)/(phi + 4), q* = (phi + 2c)/(phi + 4) at the
    # equilibrium congestion of the optimum itself
    for capacity in (0.5, 1.0, 2.0):
        report = optimize_profit(exp_gain_example_model(capacity))
        phi = report.equilibrium.congestion
        want_p = (phi + 0.7 + 2.0) / (phi + 4.0)
        want_q = (phi + 1.4) / (phi + 4.0)
        assert abs(report.prices.user - want_p) <= 1e-5
        assert abs(report.prices.cp - want_q) <= 1e-5


def best_grid_profit(model: MarketModel, points: int) -> float:
    """The largest profit on a points x points grid over the clamped price box."""
    p_axis, q_axis = (np.linspace(0.0, hi, points) for hi in optimize.profit_box(model))
    stage = (p_axis, q_axis, model.cost, model.user_demand.value(p_axis),
             model.cp_demand.value(q_axis))
    return optimize.grid_argmax([(model, [stage])])[0][0][2]


def test_profit_beats_dense_grid():
    model = baseline_model()
    report = optimize_profit(model)
    assert report.objective >= best_grid_profit(model, 501) - 1e-8


def test_boundary_flagged_when_cp_side_pins_to_zero():
    # a content demand with an exploding hazard near zero drives q* to 0
    model = baseline_model(beta=0.2)
    report = optimize_profit(model)
    assert report.prices.cp == 0.0
    assert report.boundary
    # the infinite content hazard at q = 0 leaks into no residual
    welfare = optimize_welfare(model)
    for diagnostics in (report.diagnostics, welfare.diagnostics):
        for residual in (diagnostics.kkt_residual, diagnostics.lerner_residual,
                         diagnostics.ramsey_residual):
            assert residual is None or math.isfinite(residual)
    assert report.diagnostics.kkt_residual <= 1e-8
    assert report.diagnostics.lerner_residual is None
    assert welfare.diagnostics.ramsey_residual is None


def test_profit_optimum_on_random_sweep_envelope():
    # both gains and laws, criterion 10's parameter ranges; every fourth
    # model has a strongly convex content demand whose optimum sits at q = 0
    rng = np.random.default_rng(2024)
    gains = (ReciprocalGain(), ExponentialGain())
    boundary_optima = 0
    for i in range(20):
        mm1 = bool(rng.random() < 0.5)
        model = baseline_model(
            gain=gains[int(rng.random() < 0.5)],
            congestion=MM1Queue() if mm1 else CapacitySharing(),
            alpha=float(rng.uniform(0.5, 3.0)),
            beta=float(rng.uniform(0.1, 0.25) if i % 4 == 0 else rng.uniform(0.5, 3.0)),
            capacity=float(rng.uniform(2.5, 10.0) if mm1 else rng.uniform(0.5, 5.0)),
            sensitivity=float(rng.uniform(0.5, 3.0)),
        )
        report = optimize_profit(model)
        assert report.objective >= best_grid_profit(model, 401) - 1e-8
        grads = evaluate_objectives(model, report.prices.user, report.prices.cp).gradients
        box = ((report.prices.user, grads.profit_price_user, model.user_demand.support),
               (report.prices.cp, grads.profit_price_cp, model.cp_demand.support))
        for price, grad, support in box:
            if price == 0.0:
                boundary_optima += 1
                assert grad <= 0.0
            elif price >= support * (1.0 - 1e-9):
                boundary_optima += 1
                assert grad >= 0.0
            else:
                assert abs(grad) <= 1e-8
    assert boundary_optima > 0


def test_projected_newton_holds_edges_and_leaves_non_concave_regions():
    # each objective's report is its point, from which its Hessian is taken
    def bowl(x):    # maximum outside the box, beyond the corner (1, 0)
        grad = np.array([-2.0 * (x[0] - 2.0), -2.0 * (x[1] + 1.0)])
        return -(x[0] - 2.0) ** 2 - (x[1] + 1.0) ** 2, grad, x

    x, _, _, _, termination = optimize._projected_newton(
        bowl, lambda x: -2.0 * np.eye(2), [0.5, 0.5], [0.0, 0.0], [1.0, 1.0], 0.1)
    assert x == [1.0, 0.0]
    assert termination == "no_free_coordinate"

    def wave(x):    # convex at the start, concave around the maximum at 0
        return math.cos(x[0]), np.array([-math.sin(x[0])]), x

    x, _, _, _, termination = optimize._projected_newton(
        wave, lambda x: np.array([[-math.cos(x[0])]]), [2.4], [-1.0], [2.5], 0.5)
    assert abs(x[0]) <= 1e-10
    assert termination == "gradient"


def test_projected_newton_on_a_line_keeps_its_bracket_in_a_pinned_box():
    # a cusp at 1/3 under a Hessian that is never negative definite: one-cell
    # sign steps overshoot it, and only the bracket's bisections settle there
    def cusp(x):
        d = x[0] - 1.0 / 3.0
        return -abs(d) ** 1.5, np.array([-1.5 * math.copysign(math.sqrt(abs(d)), d)]), x

    x, _, _, steps, termination = optimize._projected_newton(
        cusp, lambda x: np.array([[1.0]]), [0.05], [0.0], [1.0], 0.1)
    assert abs(x[0] - 1.0 / 3.0) <= 1e-12
    for pinned in (0, 1):       # the same line inside a box with no room in one coordinate
        free = 1 - pinned

        def embedded(y):
            f, g, _ = cusp(y[free:free + 1])
            grad = np.zeros(2)
            grad[free], grad[pinned] = g[0], 1.0
            return f + y[pinned], grad, y
        start, lo, hi = np.full(2, 0.5), np.full(2, 0.5), np.full(2, 0.5)
        start[free], lo[free], hi[free] = 0.05, 0.0, 1.0
        y, _, _, y_steps, y_termination = optimize._projected_newton(
            embedded, lambda y: np.diag([1.0, 1.0]), start, lo, hi, 0.1)
        assert (y[free], y[pinned], y_steps, y_termination) == (x[0], 0.5, steps, termination)


def test_sign_steps_leave_a_coordinate_with_zero_gradient_where_it_is():
    # the Hessian is never negative definite, so every step is one cell along
    # the gradient's signs, and the sign of q's zero gradient is 0
    def ridge(x):
        return -(x[0] - 0.32) ** 2, np.array([-2.0 * (x[0] - 0.32), 0.0]), x

    x, _, _, steps, termination = optimize._projected_newton(
        ridge, lambda x: np.eye(2), [0.05, 0.6], [0.0, 0.0], [1.0, 1.0], 0.1)
    assert x[1] == 0.6 and steps > 0 and termination in ("gradient", "step")
    assert abs(x[0] - 0.32) <= 1e-9


@pytest.mark.parametrize("concave", [True, False])
@pytest.mark.parametrize("grad", [(math.nan,), (math.nan, 1e-12), (1e-12, math.nan)])
def test_a_nan_gradient_entry_raises_and_never_ends_on_the_gradient(grad, concave):
    # a NaN entry is not below GRAD_TOL in either position, and its Newton or
    # sign step is NaN, never a finite one-cell step
    def flat(x):
        return 0.0, np.array(grad), x

    n = len(grad)
    with pytest.raises(ConvergenceError, match="no finite ascent direction"):
        optimize._projected_newton(flat, lambda x: (-1.0 if concave else 1.0) * np.eye(n),
                                   [0.5] * n, [0.0] * n, [1.0] * n, 0.1)


def test_concave_step_is_numpys_solve_bit_for_bit():
    rng = np.random.default_rng(26)
    size = 20_000
    hs = -np.exp(rng.uniform(-20.0, 20.0, size))
    gs = rng.choice([-1.0, 1.0], size) * np.exp(rng.uniform(-20.0, 20.0, size))
    for h, g in [*zip(hs.tolist(), gs.tolist()), (-1.0, 0.0), (-3.0, -0.0)]:
        (step,) = optimize.concave_step(((h,),), (g,))
        assert step.hex() == float(np.linalg.solve([[h]], [-g])[0]).hex()
    for _ in range(2_000):
        m = rng.normal(size=(2, 2))
        hess, g = -(m @ m.T + 0.1 * np.eye(2)), rng.normal(size=2)
        step = optimize.concave_step(hess.tolist(), g.tolist())
        assert [v.hex() for v in step] == [v.hex() for v in np.linalg.solve(hess, -g).tolist()]
    # not finite, not negative, indefinite, singular
    for hess in (((math.inf,),), ((math.nan,),), ((1.0,),), ((0.0,),), ((-0.0,),),
                 ((-1.0, math.inf), (math.inf, -1.0)), ((-1.0, 0.0), (0.0, math.nan)),
                 ((1.0, 0.0), (0.0, -1.0)), ((-1.0, 2.0), (2.0, -1.0)),
                 ((-1.0, 1.0), (1.0, -1.0)), ((2.0, 0.0), (0.0, 2.0))):
        assert optimize.concave_step(hess, [1.0] * len(hess)) is None


def test_newton_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(optimize, "NEWTON_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError):
        optimize_profit(baseline_model())


# ---------------------------------------------------------------------------
# welfare optimum
# ---------------------------------------------------------------------------

def test_symmetric_baseline_welfare_splits_cost():
    report = optimize_welfare(baseline_model())
    assert abs(report.prices.user - 0.35) <= 1e-6
    assert abs(report.prices.cp - 0.35) <= 1e-6
    assert abs(report.prices.total - 0.7) <= 4e-16
    assert report.diagnostics.ramsey_residual <= 1e-5


def test_welfare_ramsey_residual_on_model_grid():
    for gain in (ReciprocalGain(), ExponentialGain()):
        for congestion, mu in ((CapacitySharing(), 1.0), (MM1Queue(), 2.0)):
            for beta in (1.0, 2.0):
                model = baseline_model(gain=gain, congestion=congestion,
                                       beta=beta, capacity=mu)
                report = optimize_welfare(model)
                assert not report.boundary
                assert report.diagnostics.ramsey_residual <= 1e-5
                assert abs(report.prices.total - model.cost) <= 4e-16


def test_welfare_worked_example_prices():
    # p = (3k + 2c - 2)/(3k + 2) with k the positive root of 3k^2 + phi k - 4
    for capacity in (0.5, 1.0, 2.0):
        report = optimize_welfare(exp_gain_example_model(capacity))
        phi = report.equilibrium.congestion
        k = (-phi + math.sqrt(phi * phi + 48.0)) / 6.0
        want_p = (3.0 * k + 2.0 * 0.7 - 2.0) / (3.0 * k + 2.0)
        assert abs(report.prices.user - want_p) <= 1e-5


def test_welfare_congestion_free_proportionality():
    # with vanishing congestion the hazard ratio equals the surplus ratio
    model = baseline_model(beta=2.0, capacity=1e6)
    report = optimize_welfare(model)
    d = report.diagnostics
    lhs = d.user_surplus_per_unit / d.user_hazard
    rhs = d.cp_surplus_per_unit / d.cp_hazard
    assert abs(lhs - rhs) <= 1e-3 * (d.user_surplus_per_unit + d.cp_surplus_per_unit)


def test_welfare_beats_dense_segment_scan():
    model = baseline_model(beta=2.0, capacity=0.8)
    report = optimize_welfare(model)
    [[((p_axis,), (p,), value, _)]] = optimize._starts([model], ["welfare_two_sided"],
                                                       {"welfare_two_sided": 10001})
    assert report.objective >= value - 1e-8
    assert abs(report.prices.user - p) <= p_axis[1] - p_axis[0]


def test_welfare_root_in_a_sliver_next_to_the_segment_end():
    # dW/dp - dW/dq falls from +0.17 at p = 0 to about -0.006 at p = 1e-10;
    # Newton steps overshoot that sliver, so the one-coordinate search
    # bisects the bracket where the derivative changes sign
    model = MarketModel(
        gain=ReciprocalGain(), congestion=CapacitySharing(),
        user_demand=UserPowerDemand(alpha=0.99), cp_demand=CpPowerDemand(beta=1.67),
        cost=0.225, capacity=2.44, sensitivity=0.82)
    report = optimize_welfare(model)
    assert 0.0 < report.prices.user < 1e-9 and not report.held
    slope = optimize.welfare_objective(model)
    assert slope([0.0])[1][0] > 0.0 > slope([1e-9])[1][0]
    best = grid_optimize(model, "welfare")
    assert report.objective >= best.value - 1e-12


def test_welfare_scan_takes_surpluses_only_where_both_demands_are_positive(monkeypatch):
    # no user demand above p = 0.5; a scalar-only value callable without a
    # surplus callable makes every surplus an adaptive Simpson of value calls
    calls = []

    def user_value(p):
        calls.append(p)
        return max(0.5 - p, 0.0)
    model = MarketModel(
        gain=ReciprocalGain(), congestion=CapacitySharing(),
        user_demand=CustomDemand(user_value), cp_demand=CpPowerDemand(beta=1.0), cost=0.9)
    weights = []

    def grid_argmax(searches):
        weights.append(searches[0][1][0][0])
        return argmax(searches)
    argmax = optimize.grid_argmax
    monkeypatch.setattr(optimize, "grid_argmax", grid_argmax)
    calls.clear()
    [[((p_axis,), *_)]] = optimize._starts([model], ["welfare_two_sided"],
                                          {"welfare_two_sided": 201})
    scan_calls = len(calls)
    # the scan's calls: the demand levels, then the surpluses at positive demand
    calls.clear()
    positive = model.user_demand.value(p_axis) > 0.0
    model.user_demand.per_unit_surplus(p_axis[positive])
    assert scan_calls == len(calls)
    assert 0 < positive.sum() < p_axis.size
    assert np.array_equal(weights[0] > 0.0, positive)


@pytest.mark.parametrize("gain", [ReciprocalGain(), ExponentialGain()])
@pytest.mark.parametrize("law", [CapacitySharing(), MM1Queue()])
def test_optima_report_their_grid_solves(gain, law):
    # each global stage is pruned, not solved whole: it solves its table (256
    # intervals for the 101 x 101 profit grid, 128 for the 2001-point welfare
    # and one-sided axes) and the points whose bound reaches its best floor
    model = baseline_model(gain=gain, congestion=law)
    for report, steps in ((optimize_profit(model), 256), (optimize_welfare(model), 128),
                          (optimize_one_sided(model, "profit"), 128)):
        stage = optimize._scan(model, report.kind, optimize._POINTS[report.kind])[1]
        assert report.grid_solves == steps + 1 + bounded_count(model, stage, steps) < 1000
    assert optimize_one_sided(model, "welfare").grid_solves == 0


@pytest.mark.parametrize("gain", [ReciprocalGain(), ExponentialGain()])
@pytest.mark.parametrize("law", [CapacitySharing(), MM1Queue()])
def test_newton_evaluates_the_objectives_a_few_times(gain, law, monkeypatch):
    # the Hessians are analytic: a Newton step evaluates the objectives once
    # plus any backtracking trials (a Hessian differenced from the gradient
    # would add 4 stencil points per two-price step and 2 per one-price step)
    model = baseline_model(gain=gain, congestion=law)
    calls = []
    evaluate = optimize.evaluate_objectives

    def counted(*args):
        calls.append(args)
        return evaluate(*args)
    monkeypatch.setattr(optimize, "evaluate_objectives", counted)
    for run, most in ((lambda: optimize_profit(model), 6),
                      (lambda: optimize_welfare(model), 5),
                      (lambda: optimize_one_sided(model, "profit"), 5)):
        calls.clear()
        assert run().termination == "gradient"
        assert 0 < len(calls) <= most


def test_only_optimum_runs_projected_newton(monkeypatch):
    # every searched optimum, of the optimizers, the sensitivities and the
    # oracle's re-optimizations, is refined and reported by the one routine
    callers = []
    newton = optimize._projected_newton

    def traced(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return newton(*args)
    monkeypatch.setattr(optimize, "_projected_newton", traced)
    model = baseline_model(capacity=1.3)
    growth_rates(model)
    optimal_price_sensitivity(model, "capacity")
    reoptimized_price_derivatives(model, "capacity", 1e-3)
    assert len(callers) == 3 + 2 + 4 and set(callers) == {"_optimum"}


def test_termination_of_held_and_pinned_optima():
    # beta = 0.2 holds q* at 0; Newton ends on the free user price's gradient
    model = baseline_model(beta=0.2)
    report = optimize_profit(model)
    assert report.held and report.prices.cp == 0.0
    assert report.termination == "gradient"
    # the welfare optimum is held at the segment end q = 0
    welfare = optimize_welfare(model)
    assert welfare.held and welfare.termination == "no_free_coordinate"
    # the one-sided welfare benchmark searches nothing
    assert optimize_one_sided(model, "welfare").termination == "no_free_coordinate"


# ---------------------------------------------------------------------------
# one-sided benchmarks and growth rates
# ---------------------------------------------------------------------------

def test_one_sided_profit_matches_dense_1d_grid():
    model = baseline_model()
    report = optimize_one_sided(model, "profit")
    assert report.prices.cp == 0.0
    # 10^6-point scan of the user price axis
    p_axis = np.linspace(0.0, 1.0 - 1e-9, 1_000_001)
    m_vals = model.user_demand.value(p_axis)
    lam = solve_many(model.gain, model.congestion, m_vals,
                     model.capacity, model.sensitivity)
    values = (p_axis - model.cost) * lam
    assert report.objective >= float(values.max()) - 1e-8
    assert abs(report.prices.user - float(p_axis[int(values.argmax())])) <= 2e-6


@pytest.mark.parametrize("user, cp", [(math.nan, 0.0), (0.2, math.nan), (-0.1, 0.2)])
def test_price_pair_rejects_a_price_that_is_not_a_nonnegative_number(user, cp):
    with pytest.raises(DomainError, match=f"prices must be nonnegative numbers, "
                                          f"got p = {user}, q = {cp}"):
        PricePair(user, cp)


def test_one_sided_welfare_is_cost_on_user_side():
    report = optimize_one_sided(baseline_model(), "welfare")
    assert report.prices.user == 0.7
    assert report.prices.cp == 0.0
    eq = solve_equilibrium(baseline_model(), 0.7, 0.0)
    s_m = UserPowerDemand(1.0).per_unit_surplus(0.7)
    s_n = CpPowerDemand(1.0).per_unit_surplus(0.0)
    assert report.objective == pytest.approx((s_m + s_n) * eq.throughput, rel=1e-12)


def test_two_sided_dominates_one_sided():
    for beta, mu in ((1.0, 1.0), (2.0, 0.7), (3.0, 2.0), (0.2, 1.0)):
        model = baseline_model(beta=beta, capacity=mu)
        rates = growth_rates(model)
        assert rates.profit_growth >= -1e-10
        assert rates.welfare_growth >= -1e-10


def test_baseline_growth_rate_strictly_positive():
    rates = growth_rates(baseline_model())
    assert rates.profit_growth > 0.05
    assert rates.welfare_growth > 0.0


def test_profit_growth_increases_with_market_competition():
    values = []
    for alpha in (0.5, 1.0, 2.0, 3.0):
        values.append(growth_rates(baseline_model(alpha=alpha)).profit_growth)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_degenerate_baseline_raises():
    # cost above the user support makes the one-sided welfare benchmark zero
    model = baseline_model(cost=1.2)
    with pytest.raises(DegenerateBaselineError):
        growth_rates(model)


def test_verify_optima_round_trip():
    # beta = 0.2 puts both two-sided optima on the q = 0 edge
    for beta in (1.0, 0.2):
        model = baseline_model(beta=beta)
        outcome = verify_optima(model, optimize_profit(model), optimize_welfare(model))
        assert outcome.max_value_shortfall <= 1e-8
