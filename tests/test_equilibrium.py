"""Equilibrium solver: closed forms, uniqueness, elasticity, statics."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from netpricing import (BracketError, CapacitySharing, CpPowerDemand, CustomCongestion,
                        CustomDemand, CustomGain, DomainError, ExponentialGain, MarketModel,
                        MM1Queue, ReciprocalGain, UserPowerDemand, baseline_model,
                        comparative_statics, elasticity_slope_vs_congestion, emit_csv,
                        evaluate_objectives, fixed_point_equilibrium, growth_rates,
                        optimal_price_sensitivity, parse_config, run_sweep,
                        solve_equilibrium)
from netpricing import curves, equilibrium
from netpricing.curves import DemandCurve
from netpricing.equilibrium import (PREDICTED_STATIC_SIGNS, solve_for_demands,
                                    solve_many)
from netpricing.oracle import grid_optima
from references import finite_difference, gain_elasticity


def random_model(rng):
    gain = ReciprocalGain() if rng.random() < 0.5 else ExponentialGain()
    congestion = CapacitySharing() if rng.random() < 0.5 else MM1Queue()
    return baseline_model(
        gain=gain, congestion=congestion,
        alpha=float(rng.uniform(0.5, 2.0)), beta=float(rng.uniform(0.5, 2.0)),
        capacity=float(rng.uniform(0.5, 5.0)),
        sensitivity=float(rng.uniform(0.5, 3.0)))


def random_prices(rng):
    return float(rng.uniform(0.05, 0.6)), float(rng.uniform(0.05, 0.6))


# ---------------------------------------------------------------------------
# closed forms and degenerate inputs
# ---------------------------------------------------------------------------

def test_sharing_reciprocal_closed_form():
    # m = n = 1, mu = 0.5 gives mn/mu = 2, so phi^2 + phi - 2 = 0 and phi = 1
    model = baseline_model(capacity=0.5)
    eq = solve_equilibrium(model, 0.0, 0.0)
    assert abs(eq.congestion - 1.0) <= 1e-10
    assert abs(eq.throughput - 0.5) <= 1e-10


def test_mm1_reciprocal_closed_form():
    # mu - 1/phi = 1/(phi+1) at m = n = 1, mu = 2 gives phi = 1/sqrt(2)
    model = baseline_model(congestion=MM1Queue(), capacity=2.0)
    eq = solve_equilibrium(model, 0.0, 0.0)
    assert abs(eq.congestion - 1.0 / math.sqrt(2.0)) <= 1e-10
    assert abs(eq.throughput - (2.0 - math.sqrt(2.0))) <= 1e-10


def test_a_start_probe_above_the_bracket_falls_back_to_its_midpoint():
    # at mu = 0.5 and s = 0.2 the probe T rho(Phi(hi / 2)) = 1 / 1.8 exceeds
    # hi = mu, so Newton starts from hi / 2 instead
    model = baseline_model(congestion=MM1Queue(), capacity=0.5, sensitivity=0.2)
    hi = model.congestion.throughput_limit(model.capacity)
    assert model.gain.value(model.congestion.congestion(0.5 * hi, 0.5), 0.2) > hi
    eq = solve_equilibrium(model, 0.0, 0.0)
    assert not eq.degenerate and 0.0 < eq.throughput < hi
    assert abs(fixed_point_equilibrium(model, 0.0, 0.0) - eq.congestion) <= 1e-11


def test_zero_demand_returns_degenerate_floor():
    model = baseline_model()
    eq = solve_equilibrium(model, 1.0, 0.3)
    assert eq.degenerate and eq.throughput == 0.0 and eq.congestion == 0.0
    mm1 = baseline_model(congestion=MM1Queue(), capacity=2.0)
    eq = solve_equilibrium(mm1, 0.3, 1.0)
    assert eq.degenerate and eq.congestion == pytest.approx(0.5)
    assert eq.elasticity == 1.0


def test_negative_price_rejected():
    with pytest.raises(DomainError):
        solve_equilibrium(baseline_model(), -0.1, 0.2)


def test_bracket_failure_on_bounded_custom_supply():
    # supply saturates below the demand floor, so the gap never turns positive
    bounded = CustomCongestion(lambda lam, mu: -math.log(max(1e-300, 1.0 - lam / mu)),
                               inverse_fn=lambda phi, mu: mu * (1.0 - math.exp(-phi)))
    floored_gain = CustomGain(lambda phi, s: 0.6 + 0.4 * math.exp(-s * phi))
    model = baseline_model(gain=floored_gain, congestion=bounded, capacity=0.3)
    with pytest.raises(BracketError):
        solve_equilibrium(model, 0.0, 0.0)


def test_bracket_failure_without_analytic_inverse():
    # the same saturating law with no inverse: the demanded throughput meets
    # its flat stretch above capacity on the scalar and the vectorized path
    bounded = CustomCongestion(lambda lam, mu: -math.log(max(1e-300, 1.0 - lam / mu)))
    floored_gain = CustomGain(lambda phi, s: 0.6 + 0.4 * math.exp(-s * phi))
    model = baseline_model(gain=floored_gain, congestion=bounded, capacity=0.3)
    with pytest.raises(BracketError):
        solve_equilibrium(model, 0.0, 0.0)
    with pytest.raises(BracketError):
        solve_many(model.gain, model.congestion, np.array([0.01, 1.0]),
                   model.capacity, model.sensitivity)


def test_custom_law_undefined_inside_the_bracket_raises_domain_error():
    # a naive M/M/1 clone divides by zero at lam = mu < m n
    law = CustomCongestion(lambda lam, mu: 1.0 / (mu - lam))
    with pytest.raises(DomainError):
        solve_equilibrium(baseline_model(congestion=law, capacity=0.5), 0.0, 0.0)


@pytest.mark.parametrize("law", [lambda lam, mu: lam / mu - 0.5,
                                 lambda lam, mu: lam / mu + math.nan],
                         ids=["negative", "nan"])
def test_custom_law_without_a_nonnegative_congestion_raises_domain_error(law):
    # the solver's rounds call the law's kernel, which checks the callable's
    # output; the scalar and the array path raise alike
    model = baseline_model(congestion=CustomCongestion(law))
    for entry in (solve_equilibrium, evaluate_objectives, comparative_statics):
        with pytest.raises(DomainError, match="congestion level must be nonnegative"):
            entry(model, 0.2, 0.3)
    with pytest.raises(DomainError, match="congestion level must be nonnegative"):
        growth_rates(model)


@pytest.mark.parametrize("level", [math.inf, math.nan, -0.5], ids=["inf", "nan", "negative"])
def test_custom_demand_without_a_finite_nonnegative_level_raises_domain_error(level):
    # the demand's value kernel checks its callable's output, so a solve stops
    # at the level, not at the round cap or at the throughput the level produced
    demand = CustomDemand(lambda p: level)
    model = replace(baseline_model(congestion=MM1Queue(), capacity=2.0), user_demand=demand)
    match = "demand callable returned .* not a finite nonnegative level"
    for entry in (solve_equilibrium, evaluate_objectives, comparative_statics):
        with pytest.raises(DomainError, match=match):
            entry(model, 0.3, 0.3)
    for call in (lambda: growth_rates(model), lambda: demand.value(0.3),
                 lambda: demand.value(np.array([0.2, 0.3])), lambda: demand.surplus(0.3)):
        with pytest.raises(DomainError, match=match):
            call()


def test_custom_demand_checks_no_level_from_its_support_on():
    # from the support bound on the demand is 0 whatever the callable returns there
    demand = CustomDemand(lambda p: 1.0 - p if p < 1.0 else math.nan)
    np.testing.assert_array_equal(demand.value(np.array([0.5, 1.0, 1.5])), [0.5, 0.0, 0.0])
    assert demand.value(1.0) == 0.0


def test_custom_demand_integrates_no_level_from_its_support_on():
    # the surplus quadrature reads 0 at the support too, so the callable's NaN
    # there reaches neither the surplus nor a search's welfare scan
    demand = CustomDemand(lambda p: 1.0 - p if p < 1.0 else math.nan)
    assert demand.surplus(0.3) == pytest.approx(0.245, abs=1e-10)
    builtin = baseline_model(beta=2.0)
    rates, want = growth_rates(replace(builtin, user_demand=demand)), growth_rates(builtin)
    assert rates.profit_growth == pytest.approx(want.profit_growth, abs=1e-12)
    assert rates.welfare_growth == pytest.approx(want.welfare_growth, abs=1e-12)


@pytest.mark.parametrize("surplus", [math.nan, math.inf], ids=["nan", "inf"])
def test_custom_demand_without_a_finite_surplus_raises_domain_error(surplus):
    demand = CustomDemand(lambda p: 1.0 - p, surplus_fn=lambda p: surplus)
    model = replace(baseline_model(beta=2.0), user_demand=demand)
    for call in (lambda: demand.surplus(0.3), lambda: demand.surplus(np.array([0.2, 0.3])),
                 lambda: evaluate_objectives(model, 0.3, 0.3), lambda: growth_rates(model)):
        with pytest.raises(DomainError, match="surplus callable returned .* not a finite number"):
            call()


def test_a_solve_checks_its_arguments_a_fixed_number_of_times(monkeypatch):
    # the checks run at the solver's boundary, not in its Newton rounds
    calls = []

    def counted(name, fn):
        def check(*args):
            calls.append(name)
            return fn(*args)
        return check
    for name in ("_require", "_check_gain_args", "_check_capacity"):
        monkeypatch.setattr(curves, name, counted(name, getattr(curves, name)))
    model = baseline_model(congestion=MM1Queue())
    counts, rounds = [], []
    for p, q in ((0.1, 0.1), (0.8, 0.8)):
        calls.clear()
        rounds.append(solve_equilibrium(model, p, q).iterations)
        counts.append(sorted(calls))
    assert rounds[0] != rounds[1]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("law", [CapacitySharing(), MM1Queue()], ids=["sharing", "mm1"])
def test_a_point_op_solves_once_and_takes_the_capacity_partial_once(law, monkeypatch):
    # the statics reuse the law's capacity partial that lam_mu is built from
    calls = []

    def counted(name, fn):
        def kernel(*args):
            calls.append(name)
            return fn(*args)
        return kernel
    monkeypatch.setattr(equilibrium, "solve_for_demands",
                        counted("solve", equilibrium.solve_for_demands))
    monkeypatch.setattr(type(law), "_congestion_capacity_slope",
                        counted("capacity_slope", type(law)._congestion_capacity_slope))
    model = baseline_model(congestion=law)
    for entry in (comparative_statics, evaluate_objectives):
        calls.clear()
        entry(model, 0.4, 0.3)
        assert sorted(calls) == ["capacity_slope", "solve"], entry.__name__


# ---------------------------------------------------------------------------
# solver integrity
# ---------------------------------------------------------------------------

def test_residual_and_demand_consistency_random_models():
    rng = np.random.default_rng(21)
    for _ in range(300):
        model = random_model(rng)
        p, q = random_prices(rng)
        eq = solve_equilibrium(model, p, q)
        assert eq.gap_residual <= 1e-10 * max(1.0, eq.throughput)
        m, n = model.demands(p, q)
        rho = model.gain.value(eq.congestion, model.sensitivity)
        assert eq.throughput == pytest.approx(m * n * rho, rel=1e-12)
        assert 0.0 < eq.elasticity <= 1.0


def test_gap_function_increasing_over_bracket():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        model = random_model(rng)
        p, q = random_prices(rng)
        m, n = model.demands(p, q)
        mn = m * n
        floor = model.congestion.congestion_floor(model.capacity)
        lo = floor + 1e-14
        hi = max(2 * lo, 1.0)
        gap = lambda f: (model.congestion.implied_throughput(f, model.capacity)
                         - mn * model.gain.value(f, model.sensitivity))
        for _ in range(200):
            if gap(hi) > 0:
                break
            hi *= 2
        grid = np.linspace(lo, hi, 100)
        vals = [gap(float(f)) for f in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_solver_idempotent_and_deterministic():
    model = baseline_model(capacity=1.7, sensitivity=2.3)
    eq1 = solve_equilibrium(model, 0.2, 0.4)
    eq2 = solve_equilibrium(model, 0.2, 0.4)
    assert eq1.congestion == eq2.congestion
    assert abs(eq1.congestion - eq2.congestion) <= 1e-12


def test_solve_many_matches_scalar():
    rng = np.random.default_rng(29)
    # scalar-only custom callables (math.exp and float() reject arrays), and
    # a custom law without an inverse: the curves map them elementwise
    scalar_gain = CustomGain(lambda phi, s: math.exp(-math.log1p(s) * phi))
    scalar_law = CustomCongestion(lambda lam, mu: float(lam) / mu)
    for gain, congestion, size in ((ReciprocalGain(), CapacitySharing(), 64),
                                   (ReciprocalGain(), MM1Queue(), 64),
                                   (scalar_gain, scalar_law, 16)):
        model = baseline_model(gain=gain, congestion=congestion, capacity=1.4)
        mn = rng.uniform(0.0, 1.0, size=size)
        mn[0] = 0.0
        lams = solve_many(model.gain, model.congestion, mn,
                          model.capacity, model.sensitivity)
        phis = model.congestion.congestion(lams, model.capacity)
        for v, phi, lam in zip(mn, phis, lams):
            f, l, _, _ = solve_for_demands(model.gain, model.congestion,
                                           float(v), 1.0, model.capacity,
                                           model.sensitivity)
            assert abs(phi - f) <= 1e-13 * max(1.0, f)
            assert abs(lam - l) <= 1e-13 * max(1.0, l)


@pytest.mark.parametrize("gain", [ReciprocalGain(), ExponentialGain(),
                                  CustomGain(lambda phi, s: math.exp(-math.log1p(s) * phi))])
@pytest.mark.parametrize("congestion", [CapacitySharing(), MM1Queue(),
                                        CustomCongestion(lambda lam, mu: float(lam) / mu)])
def test_solve_many_takes_one_capacity_and_sensitivity_per_point(gain, congestion):
    # several models' demand products in one call, each point with its
    # model's capacity and sensitivity, solve bit for bit as each model alone;
    # a scalar-only custom callable is mapped over the points
    rng = np.random.default_rng(31)
    models = [(float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.3, 4.0))) for _ in range(5)]
    models.append(models[0])                # a repeated model: a run split in two
    products = [rng.uniform(0.0, 1.0, size) for size in (40, 1, 17, 0, 33, 9)]
    products[2][:5] = 0.0
    sizes = [v.size for v in products]
    lam = solve_many(gain, congestion, np.concatenate(products),
                     np.repeat([mu for mu, _ in models], sizes),
                     np.repeat([s for _, s in models], sizes))
    want = [solve_many(gain, congestion, mn, mu, s) for mn, (mu, s) in zip(products, models)]
    assert np.array_equal(lam, np.concatenate(want))


def test_newton_takes_few_rounds_on_random_models():
    rng = np.random.default_rng(59)
    for _ in range(1000):
        model = random_model(rng)
        p, q = random_prices(rng)
        assert solve_equilibrium(model, p, q).iterations <= 6


@pytest.mark.parametrize("gain", [ReciprocalGain(), ExponentialGain()])
@pytest.mark.parametrize("congestion, capacity", [(CapacitySharing(), 0.2), (MM1Queue(), 1.05)])
def test_solve_many_converges_in_eight_rounds_on_price_grids(gain, congestion, capacity,
                                                             monkeypatch):
    from netpricing import equilibrium
    monkeypatch.setattr(equilibrium, "MAX_ROUNDS", 8)
    model = baseline_model(gain=gain, congestion=congestion, capacity=capacity)
    prices = np.linspace(0.0, 1.0 - 1e-9, 201)
    mn = np.outer(model.user_demand.value(prices), model.cp_demand.value(prices)).reshape(-1)
    lams = solve_many(gain, congestion, mn, capacity, model.sensitivity)
    phis = congestion.congestion(lams, capacity)
    for v, phi, lam in zip(mn, phis, lams):
        f, l, _, _ = solve_for_demands(gain, congestion, float(v), 1.0, capacity,
                                       model.sensitivity)
        assert abs(phi - f) <= 1e-13 * max(1.0, f)
        assert abs(lam - l) <= 1e-13 * max(1.0, l)


def test_solve_many_raises_when_round_cap_is_reached(monkeypatch):
    # one cap governs both solvers, and reaching it raises
    from netpricing import ConvergenceError, equilibrium
    monkeypatch.setattr(equilibrium, "MAX_ROUNDS", 1)
    model = baseline_model()
    with pytest.raises(ConvergenceError, match="1 rounds"):
        solve_many(model.gain, model.congestion, np.array([0.25, 0.5]),
                   model.capacity, model.sensitivity)
    with pytest.raises(ConvergenceError, match="1 rounds"):
        solve_for_demands(model.gain, model.congestion, 0.5, 0.5,
                          model.capacity, model.sensitivity)


# ---------------------------------------------------------------------------
# throughput elasticity
# ---------------------------------------------------------------------------

def test_sharing_reciprocal_elasticity_closed_form():
    # eps = (s phi + 1) / (2 s phi + 1); at the phi = 1 equilibrium -> 2/3
    model = baseline_model(capacity=0.5)
    eq = solve_equilibrium(model, 0.0, 0.0)
    assert eq.elasticity == pytest.approx(2.0 / 3.0, abs=1e-12)
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = baseline_model(capacity=float(rng.uniform(0.4, 3.0)),
                           sensitivity=float(rng.uniform(0.5, 3.0)))
        p, q = random_prices(rng)
        eq = solve_equilibrium(m, p, q)
        z = m.sensitivity * eq.congestion
        assert eq.elasticity == pytest.approx((z + 1.0) / (2.0 * z + 1.0), rel=1e-12)


def test_mm1_elasticity_matches_quadratic_weight_form():
    # eps = 1/(1 + m n G(phi)) with G = -phi^2 rho'(phi); exact for the
    # M/M/1 supply slope 1/phi^2
    rng = np.random.default_rng(37)
    for _ in range(200):
        model = baseline_model(congestion=MM1Queue(),
                               gain=ReciprocalGain() if rng.random() < 0.5 else ExponentialGain(),
                               capacity=float(rng.uniform(0.5, 5.0)),
                               sensitivity=float(rng.uniform(0.5, 3.0)))
        p, q = random_prices(rng)
        eq = solve_equilibrium(model, p, q)
        m, n = model.demands(p, q)
        g_weight = -eq.congestion ** 2 * model.gain.slope(eq.congestion, model.sensitivity)
        assert abs(eq.elasticity - 1.0 / (1.0 + m * n * g_weight)) <= 1e-10


def test_sharing_elasticity_matches_gain_elasticity_form():
    # eps = 1/(1 + eps_rho) under capacity sharing, at the equilibrium point
    rng = np.random.default_rng(41)
    for _ in range(200):
        model = baseline_model(gain=ReciprocalGain() if rng.random() < 0.5 else ExponentialGain(),
                               capacity=float(rng.uniform(0.4, 4.0)),
                               sensitivity=float(rng.uniform(0.5, 3.0)))
        p, q = random_prices(rng)
        eq = solve_equilibrium(model, p, q)
        eps_rho = gain_elasticity(model.gain, eq.congestion, model.sensitivity)
        assert abs(eq.elasticity - 1.0 / (1.0 + eps_rho)) <= 1e-10


def test_no_congestion_limit():
    model = baseline_model(capacity=1e9)
    eq = solve_equilibrium(model, 0.1, 0.1)
    assert abs(eq.elasticity - 1.0) <= 1e-3


def test_throughput_elasticity_recompute_matches():
    model = baseline_model(capacity=1.3)
    eq = solve_equilibrium(model, 0.25, 0.35)
    # 1 / (1 + m n |rho'(phi)| / Lambda'(phi)), with Lambda' = 1 / (dPhi/dlam)
    mn = eq.user_level * eq.cp_level
    demand_slope = mn * abs(model.gain.slope(eq.congestion, model.sensitivity))
    phi_lam = model.congestion.congestion_slope(eq.throughput, model.capacity)
    assert 1.0 / (1.0 + demand_slope * phi_lam) == pytest.approx(eq.elasticity, rel=1e-14)


# ---------------------------------------------------------------------------
# comparative statics
# ---------------------------------------------------------------------------

def _lam_phi_of_scaled(model, p, q, m_scale=1.0, n_scale=1.0, capacity=None):
    m, n = model.demands(p, q)
    cap = capacity if capacity is not None else model.capacity
    phi, lam, _, _ = solve_for_demands(model.gain, model.congestion,
                                       m * m_scale, n * n_scale, cap,
                                       model.sensitivity)
    return phi, lam


def test_statics_signs_at_baseline():
    stat = comparative_statics(baseline_model(), 0.3, 0.3)
    for name, sign in PREDICTED_STATIC_SIGNS.items():
        assert math.copysign(1.0, getattr(stat, name)) == sign, name


def test_statics_match_finite_differences():
    rng = np.random.default_rng(43)
    for _ in range(150):
        model = random_model(rng)
        p, q = random_prices(rng)
        stat = comparative_statics(model, p, q)

        # demand-level scalings
        for attr_phi, attr_lam, which in (("dphi_dm", "dlam_dm", "m"),
                                          ("dphi_dn", "dlam_dn", "n")):
            m, n = model.demands(p, q)
            base = m if which == "m" else n
            def phi_of(scale):
                kw = {"m_scale": scale} if which == "m" else {"n_scale": scale}
                return _lam_phi_of_scaled(model, p, q, **kw)
            h = 1e-5
            phi_hi, lam_hi = phi_of(1 + h)
            phi_lo, lam_lo = phi_of(1 - h)
            fd_phi = (phi_hi - phi_lo) / (2 * h * base)
            fd_lam = (lam_hi - lam_lo) / (2 * h * base)
            assert getattr(stat, attr_phi) == pytest.approx(fd_phi, rel=1e-4)
            assert getattr(stat, attr_lam) == pytest.approx(fd_lam, rel=1e-4)

        fd_phi_mu = finite_difference(
            lambda mu: _lam_phi_of_scaled(model, p, q, capacity=mu)[0], model.capacity)
        fd_lam_mu = finite_difference(
            lambda mu: _lam_phi_of_scaled(model, p, q, capacity=mu)[1], model.capacity)
        assert stat.dphi_dmu == pytest.approx(fd_phi_mu, rel=1e-4)
        assert stat.dlam_dmu == pytest.approx(fd_lam_mu, rel=1e-4, abs=1e-9)

        fd_phi_p = finite_difference(
            lambda x: solve_equilibrium(model, x, q).congestion, p, rel_step=1e-6)
        fd_lam_q = finite_difference(
            lambda x: solve_equilibrium(model, p, x).throughput, q, rel_step=1e-6)
        assert stat.dphi_dp == pytest.approx(fd_phi_p, rel=1e-4)
        assert stat.dlam_dq == pytest.approx(fd_lam_q, rel=1e-4)


def _query_custom_models(rng):
    """The custom curves of the query benchmark: a gain exp(-s (a phi + b phi^2))
    beside the sharing law, a law (lam + k lam^2) / mu with no inverse beside the
    reciprocal gain, and the two together."""
    a, b, k = rng.uniform(0.3, 0.7), rng.uniform(0.05, 0.2), rng.uniform(0.1, 0.4)
    gain = CustomGain(lambda phi, s: math.exp(-s * (a * phi + b * phi * phi)))
    law = CustomCongestion(lambda lam, mu: (lam + k * lam * lam) / mu)
    return [baseline_model(gain=g, congestion=c, capacity=float(rng.uniform(1.0, 3.0)))
            for g, c in ((gain, CapacitySharing()), (ReciprocalGain(), law), (gain, law))]


def test_custom_curve_statics_and_capacity_gradients_match_the_solver():
    # the custom slopes are central differences at relative step 1e-6, good to
    # about 1e-10; the worst relative gap to the solver's differences is 3e-10
    rng = np.random.default_rng(47)
    for _ in range(10):
        for model in _query_custom_models(rng):
            p, q = random_prices(rng)
            stat = comparative_statics(model, p, q)
            m, n = model.demands(p, q)
            h = 1e-5
            for which, base in (("m", m), ("n", n)):
                (phi_hi, lam_hi), (phi_lo, lam_lo) = (
                    _lam_phi_of_scaled(model, p, q, **{f"{which}_scale": 1 + sign * h})
                    for sign in (1, -1))
                assert getattr(stat, f"dphi_d{which}") == pytest.approx(
                    (phi_hi - phi_lo) / (2 * h * base), rel=1e-7)
                assert getattr(stat, f"dlam_d{which}") == pytest.approx(
                    (lam_hi - lam_lo) / (2 * h * base), rel=1e-7)
            fd_phi_mu, fd_lam_mu = (finite_difference(
                lambda mu: _lam_phi_of_scaled(model, p, q, capacity=mu)[i], model.capacity)
                for i in (0, 1))
            assert stat.dphi_dmu == pytest.approx(fd_phi_mu, rel=1e-7)
            assert stat.dlam_dmu == pytest.approx(fd_lam_mu, rel=1e-7)
            for name, x, at in (("p", p, lambda v: solve_equilibrium(model, v, q)),
                                ("q", q, lambda v: solve_equilibrium(model, p, v))):
                assert getattr(stat, f"dphi_d{name}") == pytest.approx(finite_difference(
                    lambda v: at(v).congestion, x, rel_step=1e-6), rel=1e-7)
                assert getattr(stat, f"dlam_d{name}") == pytest.approx(finite_difference(
                    lambda v: at(v).throughput, x, rel_step=1e-6), rel=1e-7)

            grads = evaluate_objectives(model, p, q).gradients
            surplus = model.user_demand.per_unit_surplus(p) + model.cp_demand.per_unit_surplus(q)
            assert grads.profit_capacity == pytest.approx((p + q - model.cost) * fd_lam_mu,
                                                          rel=1e-7)
            assert grads.welfare_capacity == pytest.approx(surplus * fd_lam_mu, rel=1e-7)


def test_demand_side_elasticities_equal():
    # the two demand-level elasticities of throughput coincide
    rng = np.random.default_rng(47)
    h = 1e-5
    for _ in range(200):
        model = random_model(rng)
        p, q = random_prices(rng)
        lam0 = solve_equilibrium(model, p, q).throughput
        _, lam_m_hi = _lam_phi_of_scaled(model, p, q, m_scale=1 + h)
        _, lam_m_lo = _lam_phi_of_scaled(model, p, q, m_scale=1 - h)
        _, lam_n_hi = _lam_phi_of_scaled(model, p, q, n_scale=1 + h)
        _, lam_n_lo = _lam_phi_of_scaled(model, p, q, n_scale=1 - h)
        eps_m = (lam_m_hi - lam_m_lo) / (2 * h * lam0)
        eps_n = (lam_n_hi - lam_n_lo) / (2 * h * lam0)
        assert abs(eps_m - eps_n) <= 1e-8
        assert eps_m == pytest.approx(solve_equilibrium(model, p, q).elasticity, rel=1e-6)


def test_price_elasticity_ratio_identity():
    # eps_p(lam) * eps_q(n) == eps_q(lam) * eps_p(m)
    rng = np.random.default_rng(53)
    for _ in range(200):
        model = random_model(rng)
        p, q = random_prices(rng)
        stat = comparative_statics(model, p, q)
        eq = stat.equilibrium
        lam = eq.throughput
        eps_lam_p = abs(p / lam * stat.dlam_dp)
        eps_lam_q = abs(q / lam * stat.dlam_dq)
        eps_m_p = p * model.user_demand.hazard(p)
        eps_n_q = q * model.cp_demand.hazard(q)
        left, right = eps_lam_p * eps_n_q, eps_lam_q * eps_m_p
        assert left == pytest.approx(right, rel=1e-6)


def test_solver_and_statics_never_invert_a_custom_law():
    # nor do the optimizers and the sensitivities, whose second derivatives
    # of this law are differences of its forward map
    def no_inverse(phi, mu):
        raise AssertionError("the inverse is off the solver and statics paths")

    law = CustomCongestion(lambda lam, mu: lam / mu, inverse_fn=no_inverse)
    custom, ref = baseline_model(congestion=law, capacity=1.3), baseline_model(capacity=1.3)
    stat, ref_stat = comparative_statics(custom, 0.2, 0.3), comparative_statics(ref, 0.2, 0.3)
    for name in PREDICTED_STATIC_SIGNS:
        assert getattr(stat, name) == pytest.approx(getattr(ref_stat, name), rel=1e-6)
    grads = evaluate_objectives(custom, 0.2, 0.3).gradients
    ref_grads = evaluate_objectives(ref, 0.2, 0.3).gradients
    assert grads.profit_capacity == pytest.approx(ref_grads.profit_capacity, rel=1e-6)
    assert grads.welfare_capacity == pytest.approx(ref_grads.welfare_capacity, rel=1e-6)
    rates, ref_rates = growth_rates(custom), growth_rates(ref)
    assert rates.profit_growth == pytest.approx(ref_rates.profit_growth, rel=1e-6)
    assert rates.welfare_growth == pytest.approx(ref_rates.welfare_growth, rel=1e-6)
    for parameter in ("capacity", "sensitivity"):
        report = optimal_price_sensitivity(custom, parameter)
        ref_report = optimal_price_sensitivity(ref, parameter)
        assert report.profit_price_derivs == pytest.approx(ref_report.profit_price_derivs,
                                                           rel=1e-6)
        assert report.welfare_price_derivs == pytest.approx(ref_report.welfare_price_derivs,
                                                            rel=1e-6)
        assert report.profit_context.elasticity_slope == pytest.approx(
            ref_report.profit_context.elasticity_slope, rel=1e-6)


def test_first_order_paths_take_no_second_derivatives(monkeypatch):
    def second_derivative(*args):
        raise AssertionError("a second derivative on a first-order path")

    for owner, name in ((ReciprocalGain, "curvature"), (CapacitySharing, "congestion_curvature"),
                        (CapacitySharing, "congestion_cross_slope"),
                        (DemandCurve, "curvature"), (ReciprocalGain, "_curvature"),
                        (CapacitySharing, "_congestion_curvature"),
                        (CapacitySharing, "_congestion_cross_slope"),
                        (UserPowerDemand, "_curvature"), (CpPowerDemand, "_curvature")):
        monkeypatch.setattr(owner, name, second_derivative)
    model = baseline_model(capacity=1.3)
    solve_equilibrium(model, 0.2, 0.3)
    evaluate_objectives(model, 0.2, 0.3)
    comparative_statics(model, 0.2, 0.3)


def test_one_module_owns_the_curve_partials(monkeypatch):
    # rho'', Phi_lamlam, Phi_lammu and Phi_mu are read in equilibrium (or inside
    # curves); every other module takes the derivatives built from them
    readers = set()

    def recorded(fn):
        def kernel(*args):
            readers.add(sys._getframe(1).f_globals["__name__"])
            return fn(*args)
        return kernel
    partials = [(gain, "_curvature") for gain in (ReciprocalGain, ExponentialGain)] + [
        (law, name) for law in (CapacitySharing, MM1Queue)
        for name in ("_congestion_curvature", "_congestion_cross_slope",
                     "_congestion_capacity_slope")]
    for owner, name in partials:
        monkeypatch.setattr(owner, name, recorded(getattr(owner, name)))
    for model in (baseline_model(beta=2.0),
                  baseline_model(gain=ExponentialGain(), congestion=MM1Queue(), capacity=2.0)):
        evaluate_objectives(model, 0.3, 0.3)
        comparative_statics(model, 0.3, 0.3)
        elasticity_slope_vs_congestion(model, 0.3, 0.3)
        growth_rates(model)
        grid_optima([model])
        for parameter in ("capacity", "sensitivity"):
            optimal_price_sensitivity(model, parameter)
    assert "netpricing.equilibrium" in readers
    assert readers <= {"netpricing.equilibrium", "netpricing.curves"}


def test_past_the_input_boundary_no_demand_method_is_called(monkeypatch, tmp_path):
    # the searches, the optimum diagnostics and the sensitivity contexts take
    # the demand kernels at prices they built; the fixed-point reference alone
    # takes the public methods, through MarketModel.demands
    custom = MarketModel(ExponentialGain(), MM1Queue(), CustomDemand(
        lambda p: (1.0 - p) * (1.0 - p), slope_fn=lambda p: -2.0 * (1.0 - p),
        surplus_fn=lambda p: (1.0 - p) ** 3 / 3.0), CpPowerDemand(beta=2.0), capacity=2.0)
    models = (baseline_model(beta=2.0),
              baseline_model(gain=ExponentialGain(), congestion=MM1Queue(), capacity=2.0), custom)
    golden = Path(__file__).parent / "data" / "sweep_alpha_exponential_mm1.csv"
    cfg = parse_config("gain = exponential\ncongestion = mm1\n"
                       "sweep.parameter = alpha\nsweep.range = 0.5:3:3")

    def refused(name):
        def method(*_):
            raise AssertionError(f"DemandCurve.{name} called past the input boundary")
        return method
    for name in ("value", "slope", "curvature", "surplus", "hazard", "per_unit_surplus"):
        monkeypatch.setattr(DemandCurve, name, refused(name))
    for model in models:
        growth_rates(model)
        grid_optima([model])
        for parameter in ("capacity", "sensitivity"):
            optimal_price_sensitivity(model, parameter)
    assert emit_csv(run_sweep(cfg), tmp_path / "sweep.csv").read_bytes() == golden.read_bytes()
    with pytest.raises(AssertionError, match="DemandCurve.value"):
        fixed_point_equilibrium(custom, 0.3, 0.3)


def test_statics_reject_degenerate_point():
    with pytest.raises(DomainError):
        comparative_statics(baseline_model(), 1.0, 0.2)
