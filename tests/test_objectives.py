"""Profit/welfare evaluation and analytic-vs-finite-difference gradients."""

import math

import numpy as np
import pytest

from netpricing import (CapacitySharing, CpPowerDemand, CustomCongestion, CustomDemand,
                        CustomGain, ExponentialGain, MarketModel, MM1Queue,
                        ReciprocalGain, UserPowerDemand, baseline_model,
                        evaluate_objectives)
from netpricing.objectives import profit_hessian, welfare_segment_curvature
from netpricing.optimize import (profit_box, profit_objective, welfare_objective,
                                 welfare_segment)
from references import differenced_hessian, finite_difference

import dataclasses


def _premise_model(rng):
    """Concave demands on both sides so the surplus hazards increase."""
    gain = ReciprocalGain() if rng.random() < 0.5 else ExponentialGain()
    congestion = CapacitySharing() if rng.random() < 0.5 else MM1Queue()
    return baseline_model(
        gain=gain, congestion=congestion,
        alpha=float(rng.uniform(0.4, 1.0)), beta=float(rng.uniform(1.0, 3.0)),
        capacity=float(rng.uniform(0.5, 4.0)),
        sensitivity=float(rng.uniform(0.5, 3.0)))


def test_zero_margin_profit_is_exactly_zero():
    model = baseline_model()
    for p in (0.1, 0.35, 0.6):
        report = evaluate_objectives(model, p, model.cost - p)
        assert report.profit == 0.0
        assert report.welfare == report.surplus_welfare


def test_welfare_decomposition():
    rng = np.random.default_rng(61)
    for _ in range(100):
        model = _premise_model(rng)
        p, q = float(rng.uniform(0.05, 0.7)), float(rng.uniform(0.05, 0.7))
        report = evaluate_objectives(model, p, q)
        assert report.welfare == pytest.approx(
            report.user_welfare + report.cp_welfare + report.profit, rel=1e-12)
        eq = report.equilibrium
        s_m = model.user_demand.per_unit_surplus(p)
        s_n = model.cp_demand.per_unit_surplus(q)
        assert report.user_welfare == pytest.approx(s_m * eq.throughput, rel=1e-12)
        assert report.cp_welfare == pytest.approx(s_n * eq.throughput, rel=1e-12)


def test_degenerate_report_is_flagged_and_zero():
    model = baseline_model()
    report = evaluate_objectives(model, 1.0, 0.2)
    assert report.degenerate
    assert report.profit == 0.0 and report.welfare == 0.0
    assert report.gradients.profit_price_user == 0.0
    # so are the Hessians, as the gradients are
    assert profit_hessian(model, report.equilibrium) == ((0.0, 0.0), (0.0, 0.0))
    assert welfare_segment_curvature(model, report.equilibrium) == 0.0


def _fd_gradients(model, p, q):
    """Finite differences of U and of the surplus sum W_m + W_n."""
    def profit_at(pp=p, qq=q, mu=None):
        m = dataclasses.replace(model, capacity=mu) if mu else model
        return evaluate_objectives(m, pp, qq).profit

    def welfare_at(pp=p, qq=q, mu=None):
        m = dataclasses.replace(model, capacity=mu) if mu else model
        return evaluate_objectives(m, pp, qq).surplus_welfare

    return {
        "profit_price_user": finite_difference(lambda x: profit_at(pp=x), p),
        "profit_price_cp": finite_difference(lambda x: profit_at(qq=x), q),
        "profit_capacity": finite_difference(lambda x: profit_at(mu=x), model.capacity),
        "welfare_price_user": finite_difference(lambda x: welfare_at(pp=x), p),
        "welfare_price_cp": finite_difference(lambda x: welfare_at(qq=x), q),
        "welfare_capacity": finite_difference(lambda x: welfare_at(mu=x), model.capacity),
    }


def test_gradients_match_finite_differences_at_baseline_midpoint():
    model = baseline_model()
    report = evaluate_objectives(model, 0.45, 0.45)
    fd = _fd_gradients(model, 0.45, 0.45)
    for name, want in fd.items():
        assert getattr(report.gradients, name) == pytest.approx(
            want, rel=1e-4, abs=1e-6), name


def test_gradients_match_finite_differences_random_models():
    rng = np.random.default_rng(67)
    for _ in range(120):
        model = _premise_model(rng)
        p, q = float(rng.uniform(0.1, 0.7)), float(rng.uniform(0.1, 0.7))
        report = evaluate_objectives(model, p, q)
        fd = _fd_gradients(model, p, q)
        for name, want in fd.items():
            assert getattr(report.gradients, name) == pytest.approx(
                want, rel=1e-4, abs=1e-6), name


def test_capacity_gradient_signs():
    # profit rises with capacity whenever the margin is positive; the surplus
    # sum rises with capacity unconditionally
    rng = np.random.default_rng(71)
    for _ in range(300):
        model = _premise_model(rng)
        p = float(rng.uniform(0.05, 0.8))
        q = float(rng.uniform(max(0.0, model.cost - p) + 0.05, 0.9))
        report = evaluate_objectives(model, p, q)
        assert p + q > model.cost
        assert report.gradients.profit_capacity > 0.0
        assert report.gradients.welfare_capacity > 0.0


def test_welfare_price_gradients_negative_under_concave_demands():
    rng = np.random.default_rng(73)
    for _ in range(300):
        model = _premise_model(rng)
        p, q = float(rng.uniform(0.02, 0.9)), float(rng.uniform(0.02, 0.9))
        report = evaluate_objectives(model, p, q)
        assert report.gradients.welfare_price_user < 0.0
        assert report.gradients.welfare_price_cp < 0.0


def test_profit_monotone_in_capacity_at_fixed_prices():
    model = baseline_model()
    values = [evaluate_objectives(
        dataclasses.replace(model, capacity=float(mu)), 0.5, 0.4).profit
        for mu in np.linspace(0.5, 5.0, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_negative_margin_is_legal_and_negative():
    report = evaluate_objectives(baseline_model(), 0.1, 0.1)
    assert report.profit < 0.0
    assert not report.degenerate


# ---------------------------------------------------------------------------
# analytic second derivatives against the differenced Hessian
# ---------------------------------------------------------------------------

def _hessian_gaps(model, p):
    """Relative gaps of ``profit_hessian`` at (p, q) and of
    ``welfare_segment_curvature`` at (p, cost - p) to the differenced Hessians
    of ``profit_objective`` and ``welfare_objective``; q is p's mirror in the
    content support."""
    q = model.cp_demand.support * (1.0 - p / model.user_demand.support)
    x, box = np.array([p, q]), np.array(profit_box(model))
    want = differenced_hessian(profit_objective(model), x, np.ones(2, dtype=bool),
                               np.zeros(2), box)
    got = profit_hessian(model, evaluate_objectives(model, p, q).equilibrium)
    profit_gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
    lo, hi = welfare_segment(model)
    pw = np.array([lo + (hi - lo) * p / model.user_demand.support])
    want_w = differenced_hessian(welfare_objective(model), pw, np.ones(1, dtype=bool),
                                 np.array([lo]), np.array([hi]))[0, 0]
    got_w = welfare_segment_curvature(
        model, evaluate_objectives(model, pw[0], model.cost - pw[0]).equilibrium)
    return profit_gap, abs(got_w - want_w) / abs(want_w)


def test_analytic_hessians_match_differenced_hessians_on_random_builtin_models():
    rng = np.random.default_rng(131)
    worst = 0.0
    for _ in range(200):
        mm1 = bool(rng.random() < 0.5)
        model = baseline_model(
            gain=ReciprocalGain() if rng.random() < 0.5 else ExponentialGain(),
            congestion=MM1Queue() if mm1 else CapacitySharing(),
            alpha=float(rng.uniform(0.5, 3.0)), beta=float(rng.uniform(0.5, 3.0)),
            cost=float(rng.uniform(0.2, 1.2)),
            capacity=float(rng.uniform(2.5, 10.0) if mm1 else rng.uniform(0.5, 5.0)),
            sensitivity=float(rng.uniform(0.5, 3.0)))
        gaps = _hessian_gaps(model, float(rng.uniform(0.05, 0.9)))
        worst = max(worst, *gaps)
    assert worst <= 1e-6, worst


def _custom_curve_models():
    """The custom-curve models of the test suite: a numeric gain (the video
    profile of ``test_sensitivity.py``), a custom demand with analytic slope
    and surplus (the worked example of ``test_optimize.py``), a fully
    numeric demand and a numeric congestion law (``test_curves.py``)."""
    def video(phi, s):
        return np.exp(-s * (0.9 * (1.0 - np.exp(-6.0 * phi)) + 0.05 * phi))
    worked = CustomDemand(lambda q: (1.0 - q) ** 2, slope_fn=lambda q: -2.0 * (1.0 - q),
                          surplus_fn=lambda q: (1.0 - q) ** 3 / 3.0)
    return [
        MarketModel(gain=CustomGain(video), congestion=MM1Queue(),
                    user_demand=UserPowerDemand(alpha=1.0), cp_demand=CpPowerDemand(beta=2.0),
                    cost=0.7, capacity=2.1, sensitivity=1.0),
        MarketModel(gain=ExponentialGain(), congestion=CapacitySharing(),
                    user_demand=UserPowerDemand(alpha=1.0), cp_demand=worked,
                    cost=0.7, capacity=1.0, sensitivity=math.e - 1.0),
        MarketModel(gain=ReciprocalGain(), congestion=CapacitySharing(),
                    user_demand=UserPowerDemand(alpha=1.0),
                    cp_demand=CustomDemand(lambda q: (1.0 - q) ** 2), cost=0.5),
        baseline_model(congestion=CustomCongestion(lambda lam, mu: (lam + 0.2 * lam * lam) / mu),
                       capacity=1.5),
    ]


@pytest.mark.parametrize("index", range(4))
def test_analytic_hessians_match_differenced_hessians_on_custom_curves(index):
    # a custom second derivative is itself a difference (of the value callable
    # at relative step 1e-4, or of an analytic slope at 1e-6), good to about
    # 1e-8; the reference differences a gradient that already carries the
    # custom slopes' 1e-10 error at step 1e-6, so the gaps reach about 1e-5
    model = _custom_curve_models()[index]
    for p in (0.1, 0.3, 0.5, 0.7):
        assert max(_hessian_gaps(model, p)) <= 1e-4
