"""Optimal-price sensitivities and the qualitative sign rules."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import netpricing.sensitivity as sensitivity_mod
from netpricing import (CapacitySharing, CustomCongestion, CustomGain, ExponentialGain,
                        MarketModel, MM1Queue, ReciprocalGain, UserPowerDemand,
                        CpPowerDemand, baseline_model,
                        elasticity_slope_vs_congestion,
                        optimal_price_sensitivity, optimize_profit)
from netpricing import optimize as optimize_mod
from netpricing.curves import PARAMETERS
from netpricing.errors import DomainError, NumericalError
from netpricing.oracle import reoptimization_gap
from references import finite_difference, stencil_trace_slope


def video_gain() -> CustomGain:
    """Sharp early loss that saturates: the rising-elasticity traffic profile.

    The elasticity of throughput rises with congestion under the M/M/1 law
    wherever phi^2 |d rho/d phi| is falling, while the cross-sensitivity
    premise needs s * (-ln rho) < 1; this family satisfies both near phi
    around 0.5.
    """
    def value(phi, s):
        return np.exp(-s * (0.9 * (1.0 - np.exp(-6.0 * phi)) + 0.05 * phi))
    return CustomGain(value)


def video_model() -> MarketModel:
    return MarketModel(
        gain=video_gain(),
        congestion=MM1Queue(),
        user_demand=UserPowerDemand(alpha=1.0),
        cp_demand=CpPowerDemand(beta=2.0),
        cost=0.7,
        capacity=2.1,
        sensitivity=1.0,
    )


# ---------------------------------------------------------------------------
# elasticity slope along the capacity trace
# ---------------------------------------------------------------------------

def test_trace_slope_matches_sharing_reciprocal_closed_form():
    # eps(phi) = (s phi + 1)/(2 s phi + 1) so d eps/d phi = -s/(2 s phi + 1)^2
    for mu, s in ((0.5, 1.0), (1.0, 1.0), (2.0, 2.5)):
        model = baseline_model(capacity=mu, sensitivity=s)
        from netpricing import solve_equilibrium
        phi = solve_equilibrium(model, 0.3, 0.3).congestion
        want = -s / (2.0 * s * phi + 1.0) ** 2
        got = elasticity_slope_vs_congestion(model, 0.3, 0.3)
        assert got == pytest.approx(want, rel=1e-3)


def test_trace_slope_negative_for_sharing_exponential():
    model = baseline_model(gain=ExponentialGain(), capacity=1.5, sensitivity=1.5)
    assert elasticity_slope_vs_congestion(model, 0.25, 0.4) < 0.0


def test_trace_slope_positive_for_video_profile():
    model = video_model()
    report = optimize_profit(model)
    slope = elasticity_slope_vs_congestion(
        model, report.prices.user, report.prices.cp)
    assert slope > 1e-4


def test_trace_slope_matches_five_point_stencil_fit():
    # the reference fits five equilibria at capacity steps of 1e-4: at steps
    # of 1e-3 the fit's own O(h^2) error reaches 1.2e-5 on large-capacity
    # M/M/1 models, where the closed form agrees with the fit at 1e-4 to
    # about 1e-8
    rng = np.random.default_rng(151)
    models = [video_model(), baseline_model(congestion=CustomCongestion(
        lambda lam, mu: (lam + 0.2 * lam * lam) / mu), capacity=1.5)]
    for _ in range(100):
        mm1 = bool(rng.random() < 0.5)
        models.append(baseline_model(
            gain=ReciprocalGain() if rng.random() < 0.5 else ExponentialGain(),
            congestion=MM1Queue() if mm1 else CapacitySharing(),
            alpha=float(rng.uniform(0.5, 3.0)), beta=float(rng.uniform(0.5, 3.0)),
            capacity=float(rng.uniform(2.5, 10.0) if mm1 else rng.uniform(0.5, 5.0)),
            sensitivity=float(rng.uniform(0.5, 3.0))))
    for model in models:
        p, q = float(rng.uniform(0.05, 0.8)), float(rng.uniform(0.05, 0.8))
        assert elasticity_slope_vs_congestion(model, p, q) == pytest.approx(
            stencil_trace_slope(model, p, q, rel_step=1e-4), rel=1e-5)


def test_trace_slope_rejects_zero_demand():
    with pytest.raises(DomainError):
        elasticity_slope_vs_congestion(baseline_model(), 1.0, 0.3)


def test_trace_slope_degenerate_when_capacity_has_no_effect():
    # a custom congestion law that ignores capacity leaves phi pinned
    rigid = CustomCongestion(lambda lam, mu: lam, inverse_fn=lambda phi, mu: phi)
    model = baseline_model(congestion=rigid)
    with pytest.raises(NumericalError):
        elasticity_slope_vs_congestion(model, 0.3, 0.3)


# ---------------------------------------------------------------------------
# capacity sensitivity (falling-elasticity branch: sharing + builtin gains)
# ---------------------------------------------------------------------------

def test_capacity_sensitivity_baseline_asymmetric():
    model = baseline_model(beta=2.0)
    report = optimal_price_sensitivity(model, "capacity")
    dp, dq = report.profit_price_derivs
    assert report.profit_context.elasticity_slope < 0.0
    assert dp < 0.0 and dq < 0.0
    profit_check = report.predictions[0]
    assert profit_check.conclusive and profit_check.signs_satisfied
    assert profit_check.ratio_residual <= 1e-2
    welfare_check = report.predictions[1]
    assert welfare_check.conclusive and welfare_check.signs_satisfied
    # zero-sum of the welfare derivatives under the fixed total price
    dpw, dqw = report.welfare_price_derivs
    assert abs(dpw + dqw) <= 1e-6


def test_capacity_sensitivity_video_profile():
    report = optimal_price_sensitivity(video_model(), "capacity")
    dp, dq = report.profit_price_derivs
    assert report.profit_context.elasticity_slope > 0.0
    assert dp > 0.0 and dq > 0.0
    profit_check, welfare_check = report.predictions
    assert profit_check.conclusive and profit_check.signs_satisfied
    assert welfare_check.conclusive and welfare_check.signs_satisfied


# ---------------------------------------------------------------------------
# congestion-sensitivity sensitivity (rising-elasticity branch asserted)
# ---------------------------------------------------------------------------

def test_sensitivity_parameter_video_profile():
    report = optimal_price_sensitivity(video_model(), "sensitivity")
    dp, dq = report.profit_price_derivs
    assert dp > 0.0 and dq > 0.0
    profit_check, welfare_check = report.predictions
    assert profit_check.conclusive and profit_check.signs_satisfied
    assert welfare_check.conclusive and welfare_check.signs_satisfied
    # the conclusion's direction: hazard gap decides the welfare-price signs
    gap = report.welfare_context.user_hazard - report.welfare_context.cp_hazard
    dpw, dqw = report.welfare_price_derivs
    assert math.copysign(1.0, dpw) == math.copysign(1.0, gap)
    assert abs(dpw + dqw) <= 1e-6


def test_sensitivity_parameter_negative_branch_not_asserted():
    report = optimal_price_sensitivity(baseline_model(beta=2.0), "sensitivity")
    assert report.profit_context.elasticity_slope < 0.0
    profit_check, welfare_check = report.predictions
    assert not profit_check.conclusive and profit_check.signs_satisfied is None
    assert not welfare_check.conclusive
    assert profit_check.describe() == (
        "profit_prices_vs_sensitivity: inconclusive (falling-elasticity branch)")
    assert welfare_check.inconclusive_reason == "falling-elasticity branch"
    # an inconclusive rule expects nothing; observed signs are still reported
    assert profit_check.expected == welfare_check.expected == {}
    assert set(profit_check.observed) == {"dp_star", "dq_star"}
    # the derivative proportion identity does not depend on the branch: the
    # mixed partials are equalized by the hazard-balancing first-order
    # condition, so the ratio holds on the falling-elasticity side too
    assert profit_check.ratio_residual <= 1e-2


def test_alpha_beta_derivatives_have_no_sign_rules():
    report = optimal_price_sensitivity(baseline_model(), "alpha")
    assert report.predictions == []
    dp, dq = report.profit_price_derivs
    assert dp < 0.0 and dq > 0.0      # more user-side competition shifts the burden
    # the zero-profit constraint forces the welfare derivatives to cancel
    # for every probed parameter
    for parameter in ("alpha", "beta"):
        r = optimal_price_sensitivity(baseline_model(beta=1.5), parameter)
        assert abs(r.welfare_price_derivs[0] + r.welfare_price_derivs[1]) <= 1e-6


def test_step_halving_stability(monkeypatch):
    model = baseline_model(beta=2.0)
    full = optimal_price_sensitivity(model, "capacity")
    monkeypatch.setattr(sensitivity_mod, "PARAM_REL_STEP", 0.5 * sensitivity_mod.PARAM_REL_STEP)
    half = optimal_price_sensitivity(model, "capacity")
    assert half.step == 0.5 * full.step
    for a, b in zip(full.profit_price_derivs + full.welfare_price_derivs,
                    half.profit_price_derivs + half.welfare_price_derivs):
        assert math.copysign(1.0, a) == math.copysign(1.0, b)
        assert abs(a - b) <= 0.05 * abs(a)


def test_unknown_parameter_rejected():
    with pytest.raises(DomainError):
        optimal_price_sensitivity(baseline_model(), "cost")


def test_custom_demand_model_rejects_shape_sweep():
    from netpricing import CustomDemand
    model = MarketModel(
        gain=ReciprocalGain(), congestion=CapacitySharing(),
        user_demand=CustomDemand(lambda p: (1 - p) ** 2),
        cp_demand=CpPowerDemand(beta=1.0), cost=0.5)
    with pytest.raises(DomainError):
        optimal_price_sensitivity(model, "alpha")


def test_welfare_rules_inconclusive_at_a_held_welfare_optimum():
    # the welfare optimum sits at p = 0, the segment end: the welfare sign
    # rule assumes an interior optimum, and the prices do not move at all
    report = optimal_price_sensitivity(baseline_model(beta=3.0, cost=0.3), "capacity")
    assert report.welfare_context.price_user == 0.0
    assert not report.welfare_context.interior and report.profit_context.interior
    assert report.welfare_price_derivs == (0.0, 0.0)
    profit_check, welfare_check = report.predictions
    assert profit_check.conclusive and profit_check.signs_satisfied
    assert not welfare_check.conclusive and welfare_check.signs_satisfied is None
    assert welfare_check.describe() == (
        "welfare_prices_vs_capacity: inconclusive (welfare optimum held at a segment end)")
    assert welfare_check.expected == {} and set(welfare_check.observed) == {"dp_ring", "dq_ring"}


def test_welfare_rule_below_resolution_at_a_zero_hazard_gap():
    # symmetric demands put the welfare optimum at p = q, where the hazard
    # gap that signs the welfare rule is zero
    report = optimal_price_sensitivity(baseline_model(), "capacity")
    assert report.welfare_context.user_hazard == report.welfare_context.cp_hazard
    assert report.welfare_context.interior
    profit_check, welfare_check = report.predictions
    assert profit_check.conclusive and profit_check.inconclusive_reason is None
    assert welfare_check.describe() == (
        "welfare_prices_vs_capacity: inconclusive (premise below resolution)")
    assert welfare_check.expected == {}


def test_boundary_profit_optimum_raises():
    # a convex content demand puts q* = 0 exactly, where the FOC does not hold
    with pytest.raises(NumericalError, match="not interior"):
        optimal_price_sensitivity(baseline_model(beta=0.2), "capacity")


def test_curvature_that_is_not_negative_raises(monkeypatch):
    model = baseline_model(beta=2.0)
    monkeypatch.setattr(sensitivity_mod, "concave_step", lambda hess, g: None)
    with pytest.raises(NumericalError, match="profit Hessian"):
        optimal_price_sensitivity(model, "capacity")
    monkeypatch.setattr(sensitivity_mod, "concave_step", lambda hess, g: (
        None if len(hess) == 1 else optimize_mod.concave_step(hess, g)))
    with pytest.raises(NumericalError, match="welfare Hessian"):
        optimal_price_sensitivity(model, "capacity")


def test_no_trace_solves_and_no_hessian_stencils(monkeypatch):
    # the Hessians and trace slopes are closed forms at the optima's own
    # equilibria: a call evaluates the objectives only in the two optimizers
    # and at the four points of the two dg/dx stencils
    model = baseline_model(beta=2.0)
    calls = []
    evaluate = optimize_mod.evaluate_objectives

    def counted(*args):
        calls.append(args)
        return evaluate(*args)
    monkeypatch.setattr(optimize_mod, "evaluate_objectives", counted)
    optimize_profit(model)
    optimize_mod.optimize_welfare(model)
    optimizers = len(calls)

    def no_solve(*args):
        raise AssertionError("the elasticity trace solved an equilibrium")
    monkeypatch.setattr(sensitivity_mod, "solve_equilibrium", no_solve)
    calls.clear()
    optimal_price_sensitivity(model, "capacity")
    assert len(calls) == optimizers + 4


# ---------------------------------------------------------------------------
# the implicit-function derivatives against re-optimization
# ---------------------------------------------------------------------------

def test_one_optimum_of_each_kind_per_call(monkeypatch):
    calls = []
    optimum = optimize_mod._optimum

    def counted(model, kind, *args):
        calls.append(kind)
        return optimum(model, kind, *args)
    monkeypatch.setattr(optimize_mod, "_optimum", counted)
    optimal_price_sensitivity(baseline_model(beta=2.0), "capacity")
    assert sorted(calls) == ["profit_two_sided", "welfare_two_sided"]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(gain=st.sampled_from([ReciprocalGain(), ExponentialGain()]),
       law=st.sampled_from(["sharing", "mm1"]),
       parameter=st.sampled_from(PARAMETERS),
       alpha=st.floats(0.5, 2.0), beta=st.floats(0.5, 2.5), cost=st.floats(0.2, 1.2),
       capacity_share=st.floats(0.0, 1.0), sensitivity=st.floats(0.5, 3.0))
def test_implicit_derivatives_match_reoptimization(gain, law, parameter, alpha, beta, cost,
                                                   capacity_share, sensitivity):
    congestion, (mu_lo, mu_hi) = ((CapacitySharing(), (0.5, 4.0)) if law == "sharing"
                                  else (MM1Queue(), (1.5, 8.0)))
    model = baseline_model(gain=gain, congestion=congestion, alpha=alpha, beta=beta,
                           cost=cost, capacity=mu_lo + capacity_share * (mu_hi - mu_lo),
                           sensitivity=sensitivity)
    assume(not optimize_profit(model).boundary)
    gap, agrees = reoptimization_gap(model, optimal_price_sensitivity(model, parameter))
    assert agrees, gap


# ---------------------------------------------------------------------------
# family assumptions backing the sign rules
# ---------------------------------------------------------------------------

def test_capacity_convexity_of_supply_slope():
    # d(dLambda/dphi)/dmu: zero for M/M/1, positive for sharing, with the
    # supply slope dLambda/dphi = 1 / Phi_lam(Lambda(phi, mu), mu)
    sharing, mm1 = CapacitySharing(), MM1Queue()
    rng = np.random.default_rng(83)

    def supply_slope(law, phi):
        return lambda m: 1.0 / law.congestion_slope(law.implied_throughput(phi, m), m)
    for _ in range(100):
        mu = float(rng.uniform(0.5, 4.0))
        phi = float(rng.uniform(1.0 / mu + 0.05, 3.0))
        fd_sharing = finite_difference(supply_slope(sharing, phi), mu)
        fd_mm1 = finite_difference(supply_slope(mm1, phi), mu)
        assert fd_sharing > 0.0
        assert abs(fd_mm1) <= 1e-12


def test_gain_cross_partial_negative_in_mild_congestion():
    # d^2 rho / dphi dsigma < 0 on phi < 1/s for both builtin gains
    rng = np.random.default_rng(89)
    for gain in (ReciprocalGain(), ExponentialGain()):
        for _ in range(200):
            s = float(rng.uniform(0.4, 3.0))
            phi = float(rng.uniform(1e-3, 0.95 / s))
            fd = finite_difference(lambda t: gain.slope(phi, t), s, rel_step=1e-6)
            assert fd < 0.0
