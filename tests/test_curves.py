"""Curve primitives: values, derivatives, hazards, surpluses, invariants."""

import dataclasses
import math
import pickle
from functools import partial

import numpy as np
import pytest

from netpricing import (CapacitySharing, CpPowerDemand, CustomCongestion,
                        CustomDemand, CustomGain, DomainError, ExponentialGain,
                        MarketModel, MM1Queue, ReciprocalGain, UserPowerDemand,
                        baseline_model, comparative_statics, evaluate_objectives,
                        growth_rates, optimize_profit, solve_equilibrium)
from netpricing.curves import PARAMETERS, parameter_value, with_parameter
from references import finite_difference, gain_elasticity

GAINS = [ReciprocalGain(), ExponentialGain()]
CONGESTIONS = [CapacitySharing(), MM1Queue()]


# ---------------------------------------------------------------------------
# gain curves
# ---------------------------------------------------------------------------

def test_gain_values_at_known_points():
    assert ReciprocalGain().value(0.0, 1.0) == 1.0
    assert ReciprocalGain().value(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert ExponentialGain().value(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert ExponentialGain().value(0.0, 3.7) == 1.0


def test_gain_slopes_at_known_points():
    # d/dphi 1/(s phi + 1) = -s/(s phi + 1)^2 -> -1/4 at (1, 1)
    assert ReciprocalGain().slope(1.0, 1.0) == pytest.approx(-0.25, abs=1e-15)
    # d/dphi (s+1)^-phi = -ln(s+1) (s+1)^-phi -> -ln 2 at (0, 1)
    assert ExponentialGain().slope(0.0, 1.0) == pytest.approx(-math.log(2.0), rel=1e-15)


def test_gain_elasticities_match_closed_forms():
    # reciprocal: 1 - 1/(phi s + 1);  exponential: phi ln(s + 1)
    assert gain_elasticity(ReciprocalGain(), 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert gain_elasticity(ExponentialGain(), 2.0, 1.0) == pytest.approx(
        2 * math.log(2.0), rel=1e-14)
    for gain in GAINS:
        assert gain_elasticity(gain, 0.0, 2.0) == 0.0


@pytest.mark.parametrize("gain", GAINS)
def test_gain_slope_matches_finite_difference(gain):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        phi = float(rng.uniform(0.01, 5.0))
        s = float(rng.uniform(0.2, 4.0))
        fd = finite_difference(lambda x: gain.value(x, s), phi, rel_step=1e-6)
        assert gain.slope(phi, s) == pytest.approx(fd, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("gain", GAINS)
def test_gain_shape_invariants(gain):
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = float(rng.uniform(0.2, 4.0))
        phis = np.sort(rng.uniform(0.0, 8.0, size=8))
        vals = [gain.value(float(p), s) for p in phis]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]) if a != b)
        assert gain.value(0.0, s) == 1.0
    assert gain.value(1e6, 1.0) < 1e-3


@pytest.mark.parametrize("gain", GAINS)
def test_gain_cross_sensitivity_in_mild_congestion(gain):
    # steeper decline under higher sensitivity; holds on the mild-congestion
    # region phi < 1/s where both builtin families satisfy it
    rng = np.random.default_rng(11)
    for _ in range(300):
        s1 = float(rng.uniform(0.3, 3.0))
        s2 = s1 + float(rng.uniform(0.05, 1.0))
        phi = float(rng.uniform(1e-3, 0.95)) / s2
        assert gain.slope(phi, s1) > gain.slope(phi, s2)


@pytest.mark.parametrize("gain", GAINS)
def test_gain_value_falls_with_sensitivity_everywhere(gain):
    rng = np.random.default_rng(17)
    for _ in range(300):
        s1 = float(rng.uniform(0.2, 3.0))
        s2 = s1 + float(rng.uniform(0.05, 2.0))
        phi = float(rng.uniform(1e-6, 8.0))
        assert gain.value(phi, s1) > gain.value(phi, s2)


def test_gain_domain_errors():
    with pytest.raises(DomainError):
        ReciprocalGain().value(-0.1, 1.0)
    with pytest.raises(DomainError):
        ExponentialGain().slope(1.0, 0.0)
    with pytest.raises(DomainError):
        gain_elasticity(ReciprocalGain(), 2.0, -1.0)


def _per_point_sensitivities(rng):
    """Sensitivities as a batched call passes them, runs of equal entries,
    then entries where numpy's log(s + 1) misses math.log's last bit."""
    draws = rng.uniform(0.0, 9.0, 200_000)
    misses = draws[np.log(draws + 1.0) != [math.log(s + 1.0) for s in draws.tolist()]]
    assert misses.size > 0
    s = np.concatenate([np.repeat(rng.uniform(0.1, 9.0, 6), 40), misses[:200],
                        rng.uniform(0.1, 9.0, 100)])
    return s[:s.size // 4 * 4]


@pytest.mark.parametrize("gain", GAINS)
def test_gain_takes_one_sensitivity_per_point(gain):
    # an array of sensitivities gives each point, bit for bit, what a call
    # with that point's sensitivity as a float gives
    rng = np.random.default_rng(37)
    s = _per_point_sensitivities(rng)
    phi = rng.uniform(0.0, 5.0, s.size)
    for method in (gain.value, gain.slope, gain.curvature):
        want = [method(phi[k:k + 1], float(s[k]))[0] for k in range(s.size)]
        assert np.array_equal(method(phi, s), want)
        assert np.array_equal(method(phi.reshape(4, -1), s.reshape(4, -1)),
                              np.reshape(want, (4, -1)))


@pytest.mark.parametrize("curve", CONGESTIONS)
def test_congestion_law_takes_one_capacity_per_point(curve):
    rng = np.random.default_rng(41)
    mu = np.concatenate([np.repeat([0.5, 2.5], 30), rng.uniform(0.2, 10.0, 200)])
    lam = mu * rng.uniform(0.0, 0.99, mu.size)
    for method in (curve.congestion, curve.congestion_slope, curve.congestion_curvature,
                   curve.congestion_capacity_slope, curve.congestion_cross_slope):
        want = [method(lam[k:k + 1], float(mu[k]))[0] for k in range(mu.size)]
        assert np.array_equal(method(lam, mu), want)
    assert np.array_equal(np.broadcast_to(curve.throughput_limit(mu), mu.shape),
                          [curve.throughput_limit(float(v)) for v in mu])


@pytest.mark.parametrize("law", [*CONGESTIONS, CustomCongestion(lambda lam, mu: lam / mu)],
                         ids=["sharing", "mm1", "custom"])
def test_every_public_congestion_method_checks_what_congestion_checks(law):
    # each public partial checks the law's domain before its kernel runs, so
    # an argument outside it raises the forward map's DomainError from each
    partials = (law.congestion_slope, law.congestion_curvature,
                law.congestion_capacity_slope, law.congestion_cross_slope)
    for lam, mu in ((-0.1, 1.0), (math.nan, 1.0), (0.5, 0.0), (0.5, -1.0)):
        with pytest.raises(DomainError) as info:
            law.congestion(lam, mu)
        for method in partials:
            with pytest.raises(DomainError) as other:
                method(lam, mu)
            assert str(other.value) == str(info.value)


def test_per_point_arguments_name_their_first_bad_entry():
    with pytest.raises(DomainError) as info:
        ExponentialGain().slope(np.full(4, 0.5), np.array([1.0, 2.0, -0.5, 0.0]))
    assert str(info.value) == ("sensitivity must be positive, got -0.5 "
                               "(at 2 of 4 entries, the first at index 2)")
    with pytest.raises(DomainError) as info:
        ReciprocalGain().value(np.full(3, 0.5), np.array([1.0, math.nan, 2.0]))
    assert str(info.value) == ("sensitivity must be positive, got nan "
                               "(at 1 of 3 entries, the first at index 1)")
    for law in CONGESTIONS:
        with pytest.raises(DomainError) as info:
            law.congestion(np.zeros(3), np.array([1.0, 0.0, -2.0]))
        assert str(info.value) == ("capacity must be positive, got 0.0 "
                                   "(at 2 of 3 entries, the first at index 1)")
    with pytest.raises(DomainError) as info:
        MM1Queue().throughput_limit(np.array([1.0, -1.0]))
    assert str(info.value) == ("capacity must be positive, got -1.0 "
                               "(at 1 of 2 entries, the first at index 1)")


def test_custom_gain_numeric_slope_and_vector_fallback():
    custom = CustomGain(lambda phi, s: math.exp(-s * (0.5 * phi + 0.1 * phi * phi)))
    analytic = lambda phi, s: -s * (0.5 + 0.2 * phi) * math.exp(-s * (0.5 * phi + 0.1 * phi * phi))
    for phi in (0.0, 0.3, 1.7):
        assert custom.slope(phi, 1.3) == pytest.approx(analytic(phi, 1.3), rel=1e-6, abs=1e-9)
    arr = np.array([0.1, 0.5, 2.0])
    np.testing.assert_allclose(custom.value(arr, 1.3),
                               [custom.value(float(x), 1.3) for x in arr], rtol=1e-14)


# ---------------------------------------------------------------------------
# congestion curves
# ---------------------------------------------------------------------------

def test_congestion_known_points():
    sharing, mm1 = CapacitySharing(), MM1Queue()
    assert sharing.congestion(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert sharing.implied_throughput(1.0, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert mm1.congestion(2.0 - math.sqrt(2.0), 2.0) == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert sharing.congestion_floor(4.0) == 0.0
    assert mm1.congestion_floor(4.0) == 0.25


def _custom_sharing_like():
    # strictly monotone custom law with no analytic inverse supplied
    return CustomCongestion(lambda lam, mu: (lam + 0.2 * lam * lam) / mu)


@pytest.mark.parametrize("curve", CONGESTIONS + [_custom_sharing_like()])
def test_congestion_inverse_round_trip(curve):
    rng = np.random.default_rng(5)
    for _ in range(1000):
        mu = float(rng.uniform(0.2, 6.0))
        lam = float(rng.uniform(0.0, 0.999 * mu if isinstance(curve, MM1Queue) else 3.0))
        phi = curve.congestion(lam, mu)
        back = curve.implied_throughput(phi, mu)
        assert abs(back - lam) <= 1e-12 * max(1.0, lam)


@pytest.mark.parametrize("curve", CONGESTIONS)
def test_implied_throughput_monotone(curve):
    rng = np.random.default_rng(9)
    for _ in range(300):
        mu = float(rng.uniform(0.3, 5.0))
        floor = curve.congestion_floor(mu)
        a = floor + float(rng.uniform(0.01, 1.0))
        b = a + float(rng.uniform(0.01, 1.0))
        assert curve.implied_throughput(b, mu) > curve.implied_throughput(a, mu)
        # phi above the floor at mu stays above the floor at any larger capacity
        assert curve.implied_throughput(a, mu * 1.3) > curve.implied_throughput(a, mu)


@pytest.mark.parametrize("curve", CONGESTIONS)
def test_congestion_slopes_match_finite_differences(curve):
    # Phi_lam and Phi_mu of the forward law, at throughputs up to 0.95 of an
    # M/M/1 capacity
    rng = np.random.default_rng(15)
    for _ in range(1000):
        mu = float(rng.uniform(0.3, 5.0))
        lam = float(rng.uniform(0.01, 0.95 * mu if isinstance(curve, MM1Queue) else 3.0))
        fd_lam = finite_difference(lambda x: curve.congestion(x, mu), lam, rel_step=1e-6)
        assert curve.congestion_slope(lam, mu) == pytest.approx(fd_lam, rel=1e-5)
        fd_mu = finite_difference(lambda m: curve.congestion(lam, m), mu, rel_step=1e-6)
        assert curve.congestion_capacity_slope(lam, mu) == pytest.approx(
            fd_mu, rel=1e-5, abs=1e-9)


def test_mm1_domain_errors():
    mm1 = MM1Queue()
    with pytest.raises(DomainError):
        mm1.congestion(2.0, 2.0)
    with pytest.raises(DomainError):
        mm1.congestion(3.0, 2.0)
    with pytest.raises(DomainError):
        mm1.implied_throughput(0.4, 2.0)


def test_custom_congestion_slopes_match_builtin():
    ref = CapacitySharing()
    custom = CustomCongestion(lambda lam, mu: lam / mu)
    for lam, mu in ((0.5, 1.0), (1.4, 0.7), (0.3, 3.0), (0.0, 2.0)):
        assert custom.congestion_slope(lam, mu) == pytest.approx(
            ref.congestion_slope(lam, mu), rel=1e-6)
        assert custom.congestion_capacity_slope(lam, mu) == pytest.approx(
            ref.congestion_capacity_slope(lam, mu), rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# demand curves
# ---------------------------------------------------------------------------

def test_user_demand_known_points():
    d = UserPowerDemand(alpha=1.0)
    assert d.value(0.3) == pytest.approx(0.7, abs=1e-15)
    assert d.hazard(0.3) == pytest.approx(1 / 0.7, rel=1e-15)
    assert d.surplus(0.3) == pytest.approx(0.245, abs=1e-15)       # (1-p)^2 / 2
    assert d.per_unit_surplus(0.3) == pytest.approx(0.35, abs=1e-14)
    assert d.hazard(0.0) == pytest.approx(1.0, abs=1e-15)


def test_cp_demand_known_points():
    d = CpPowerDemand(beta=2.0)
    assert d.value(0.5) == pytest.approx(0.75, abs=1e-15)
    assert d.hazard(0.5) == pytest.approx(4.0 / 3.0, rel=1e-15)    # beta q^(b-1)/(1-q^b)
    # S(q) = (1-q) - (1-q^3)/3
    assert d.surplus(0.5) == pytest.approx(0.5 - 0.875 / 3.0, rel=1e-14)


@pytest.mark.parametrize("demand", [UserPowerDemand(alpha=0.5), UserPowerDemand(alpha=1.0),
                                    UserPowerDemand(alpha=2.0), CpPowerDemand(beta=0.5),
                                    CpPowerDemand(beta=1.0), CpPowerDemand(beta=3.0)])
def test_demand_shape_and_surplus_derivative(demand):
    rng = np.random.default_rng(13)
    xs = np.sort(rng.uniform(0.0, 0.999, size=40))
    vals = [demand.value(float(x)) for x in xs]
    assert all(v >= 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert demand.value(1.0) == 0.0
    assert demand.value(1.3) == 0.0
    # dS/dx = -value(x)
    for x in rng.uniform(0.02, 0.95, size=60):
        fd = finite_difference(demand.surplus, float(x), rel_step=1e-6)
        assert fd == pytest.approx(-demand.value(float(x)), rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("demand", [UserPowerDemand(alpha=0.5), UserPowerDemand(alpha=1.0),
                                    CpPowerDemand(beta=1.0), CpPowerDemand(beta=2.0),
                                    CpPowerDemand(beta=3.0)])
def test_concave_family_hazards_increase(demand):
    # hazard monotonicity holds for the concave members (alpha <= 1, beta >= 1);
    # the convex members genuinely violate it near zero
    xs = np.linspace(1e-4, 1.0 - 1e-6, 400)
    hazards = [demand.hazard(float(x)) for x in xs]
    assert all(b > a for a, b in zip(hazards, hazards[1:]))
    surplus_hazards = [demand.value(float(x)) / demand.surplus(float(x)) for x in xs]
    assert all(b > a for a, b in zip(surplus_hazards, surplus_hazards[1:]))


def test_convex_user_demand_hazard_dips_near_zero():
    # documents the alpha > 1 exception: hazard falls on (0, (1/2)^alpha)
    d = UserPowerDemand(alpha=2.0)
    assert d.hazard(0.01) > d.hazard(0.25)
    assert d.hazard(0.25) < d.hazard(0.8)


@pytest.mark.parametrize("demand", [UserPowerDemand(alpha=0.7), UserPowerDemand(alpha=1.0),
                                    UserPowerDemand(alpha=2.0), CpPowerDemand(beta=0.7),
                                    CpPowerDemand(beta=2.5)])
def test_demand_slope_matches_finite_difference(demand):
    rng = np.random.default_rng(19)
    for _ in range(1000):
        x = float(rng.uniform(0.01, 0.95))
        fd = finite_difference(demand.value, x, rel_step=1e-6)
        assert demand.slope(x) == pytest.approx(fd, rel=1e-5)


def test_demand_domain_errors():
    d = UserPowerDemand(alpha=1.0)
    with pytest.raises(DomainError):
        d.hazard(1.0)
    with pytest.raises(DomainError):
        d.per_unit_surplus(1.2)
    with pytest.raises(DomainError):
        d.value(-0.1)
    with pytest.raises(DomainError):
        UserPowerDemand(alpha=0.0)
    with pytest.raises(DomainError):
        CpPowerDemand(beta=-2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            UserPowerDemand(alpha=bad)
        with pytest.raises(DomainError):
            CpPowerDemand(beta=bad)


def test_domain_error_on_an_array_names_its_first_bad_entry():
    # the message shows the first failing price and counts the failures,
    # however long the array
    with pytest.raises(DomainError) as info:
        UserPowerDemand().value(-np.linspace(0.001, 1.0, 300))
    assert str(info.value) == ("price must be a nonnegative number, got -0.001 "
                               "(at 300 of 300 entries, the first at index 0)")
    with pytest.raises(DomainError) as info:
        UserPowerDemand().value(np.array([0.5, math.nan, 0.1, -0.3]))
    assert str(info.value) == ("price must be a nonnegative number, got nan "
                               "(at 2 of 4 entries, the first at index 1)")
    with pytest.raises(DomainError) as info:
        MM1Queue().congestion(np.linspace(0.0, 3.0, 10_000), 1.0)
    assert len(str(info.value)) < 120


@pytest.mark.parametrize("demand, price", [
    (UserPowerDemand(alpha=1e300), 0.5),        # 1 - p**1e-300 rounds to 0 at every p > 0
    (CustomDemand(lambda p: np.maximum(0.5 - p, 0.0)), 0.7),
    (CustomDemand(lambda p: np.maximum(0.5 - p, 0.0)), np.array([0.2, 0.7])),
])
def test_hazard_and_surplus_need_positive_demand_below_the_support(demand, price):
    assert np.all(np.asarray(price) < demand.support)
    assert np.any(demand.value(price) == 0.0)
    for method in (demand.hazard, demand.per_unit_surplus):
        with pytest.raises(DomainError, match="demand must be positive"):
            method(price)


def test_custom_demand_matches_analytic_square():
    # n(q) = (1-q)^2 with everything derived numerically
    d = CustomDemand(lambda q: (1.0 - q) ** 2)
    assert d.value(0.25) == pytest.approx(0.5625, abs=1e-15)
    assert d.slope(0.25) == pytest.approx(-1.5, rel=1e-8)
    assert d.hazard(0.25) == pytest.approx(2.0 / 0.75, rel=1e-8)
    # S(q) = (1-q)^3/3 via adaptive Simpson
    assert d.surplus(0.25) == pytest.approx(0.75 ** 3 / 3.0, abs=1e-10)
    assert d.per_unit_surplus(0.25) == pytest.approx(0.25, rel=1e-8)
    assert d.value(1.5) == 0.0
    # vectorized path agrees with scalars
    arr = np.array([0.1, 0.4, 0.9])
    np.testing.assert_allclose(d.value(arr), [(1 - x) ** 2 for x in arr], rtol=1e-14)


def test_custom_demand_with_declared_support():
    d = CustomDemand(lambda x: 2.0 - x, support=2.0)
    assert d.value(1.5) == pytest.approx(0.5)
    assert d.surplus(1.0) == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(DomainError):
        d.hazard(2.0)


# ---------------------------------------------------------------------------
# market model
# ---------------------------------------------------------------------------

def test_market_model_validation():
    with pytest.raises(DomainError):
        baseline_model(capacity=0.0)
    with pytest.raises(DomainError):
        baseline_model(sensitivity=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="must be positive and finite"):
            baseline_model(capacity=bad)
        with pytest.raises(DomainError, match="must be positive and finite"):
            baseline_model(sensitivity=bad)
    with pytest.raises(DomainError):
        baseline_model(cost=2.0)    # no nonnegative-margin pair exists
    with pytest.raises(DomainError):
        baseline_model(cost=-0.1)
    model = baseline_model(cost=1.9)
    assert model.demands(0.3, 0.5) == (pytest.approx(0.7), pytest.approx(0.5))


def test_market_model_is_frozen():
    model = baseline_model()
    with pytest.raises(AttributeError):
        model.cost = 0.5


def test_parameter_table_round_trip():
    model = baseline_model(congestion=MM1Queue(), alpha=1.5, beta=2.0,
                           capacity=2.5, sensitivity=1.2)
    assert PARAMETERS == ("capacity", "sensitivity", "alpha", "beta")
    for name, value in zip(PARAMETERS, (2.5, 1.2, 1.5, 2.0)):
        assert parameter_value(model, name) == value
        assert with_parameter(model, name, parameter_value(model, name)) == model
        moved = with_parameter(model, name, 3.0)
        assert parameter_value(moved, name) == 3.0
        assert all(parameter_value(moved, other) == parameter_value(model, other)
                   for other in PARAMETERS if other != name)
    with pytest.raises(DomainError, match="unknown parameter 'cost'"):
        parameter_value(model, "cost")
    custom = MarketModel(
        gain=ReciprocalGain(), congestion=CapacitySharing(),
        user_demand=CustomDemand(lambda p: 1.0 - p), cp_demand=CpPowerDemand())
    with pytest.raises(DomainError, match="power-family user demand"):
        with_parameter(custom, "alpha", 2.0)


# ---------------------------------------------------------------------------
# floats and arrays
# ---------------------------------------------------------------------------

def _scalar_only_gain(phi, s):
    return math.exp(-s * (0.5 * phi + 0.1 * phi * phi))


def _scalar_only_law(lam, mu):
    return math.expm1(lam) / mu


def _scalar_only_demand(q):
    return math.exp(-3.0 * q) - math.exp(-3.0)


# Custom callables use only + - * / when they broadcast, and math functions
# when they do not, so both paths round alike.  numpy's power may differ from
# the C library's pow in the last ulp, which cancellation in the power-demand
# surplus magnifies near the support bound, so evaluated prices below the
# bound stay at or under 0.6 of it.
_GAINS = [ReciprocalGain(), ExponentialGain(), CustomGain(_scalar_only_gain),
          CustomGain(lambda phi, s: 1.0 / (1.0 + s * phi + 0.1 * phi * phi)),
          CustomGain(lambda phi, s: 1.0 / (1.0 + s * phi),
                     slope_fn=lambda phi, s: -s / ((1.0 + s * phi) * (1.0 + s * phi)))]
_LAWS = [CapacitySharing(), MM1Queue(), CustomCongestion(_scalar_only_law),
         CustomCongestion(lambda lam, mu: (lam + 0.2 * lam * lam) / mu),
         CustomCongestion(lambda lam, mu: lam / mu, inverse_fn=lambda phi, mu: phi * mu)]
_DEMANDS = [UserPowerDemand(alpha=0.5), UserPowerDemand(alpha=2.5), CpPowerDemand(beta=0.2),
            CpPowerDemand(beta=1.0), CpPowerDemand(beta=3.0), CustomDemand(_scalar_only_demand),
            CustomDemand(lambda q: (1.0 - q) * (1.0 - q)),
            CustomDemand(lambda x: 2.0 - x, support=2.0, slope_fn=lambda x: -1.0 + 0.0 * x,
                         surplus_fn=lambda x: 0.5 * (2.0 - x) * (2.0 - x))]


def _float_array_cases():
    """(curve, method, valid inputs, extra arguments, an out-of-domain input or None)."""
    phis = [0.0, 0.3, 1.0, 2.5, 7.0]
    for gain in _GAINS:
        for method in ("value", "slope", "elasticity", "curvature"):
            yield gain, method, phis, (1.3,), -0.5
    mu = 2.0
    for law in _LAWS:
        lams, phis = [0.0, 0.3, 1.0, 1.9], [0.5, 0.8, 2.0, 10.0]     # phi >= 1 / mu
        yield law, "congestion", lams, (mu,), -0.1
        yield law, "congestion_slope", lams, (mu,), (
            None if isinstance(law, CapacitySharing) else -0.1)
        yield law, "implied_throughput", phis, (mu,), -0.1
        yield law, "throughput_slope", phis, (mu,), None
        yield law, "capacity_slope", phis, (mu,), None
    for demand in _DEMANDS:
        b = demand.support
        for method in ("value", "slope", "surplus"):
            yield demand, method, [0.0, 0.1 * b, 0.37 * b, 0.6 * b, b, 1.4 * b], (), -0.1
        for method in ("hazard", "per_unit_surplus", "surplus_hazard"):
            yield demand, method, [0.0, 0.1 * b, 0.37 * b, 0.6 * b], (), b
    for law in _LAWS:
        lams = [0.0, 0.3, 1.0, 1.9]
        # the sharing law's Phi_mu and Phi_lamlam need no throughput check, and a
        # custom law's second difference shifts its stencil inside lam >= 0
        yield law, "congestion_capacity_slope", lams, (mu,), (
            None if isinstance(law, CapacitySharing) else -0.1)
        yield law, "congestion_curvature", lams, (mu,), (
            -0.1 if isinstance(law, MM1Queue) else None)


def _throughput_slope(law, phi, mu):
    return 1.0 / law.congestion_slope(law.implied_throughput(phi, mu), mu)


def _capacity_slope(law, phi, mu):
    lam = law.implied_throughput(phi, mu)
    return -law.congestion_capacity_slope(lam, mu) / law.congestion_slope(lam, mu)


def _surplus_hazard(demand, price):
    return 1.0 / demand.per_unit_surplus(price)


# The inverse law's slopes in phi, d Lambda / d phi = 1 / Phi_lam and
# d Lambda / d mu = -Phi_mu / Phi_lam, are no methods of the law: they are
# checked as composed from its public partials at Lambda(phi, mu).  Nor is
# the surplus hazard m / S of a demand, the reciprocal of its per-unit
# surplus, nor a gain's congestion elasticity, the tests' reference formula.
_COMPOSED = {"throughput_slope": _throughput_slope, "capacity_slope": _capacity_slope,
             "surplus_hazard": _surplus_hazard, "elasticity": gain_elasticity}


@pytest.mark.parametrize("curve, method, xs, args, bad", [
    pytest.param(*case, id=f"{type(case[0]).__name__}-{case[1]}-{i}")
    for i, case in enumerate(_float_array_cases())])
def test_array_inputs_match_float_inputs(curve, method, xs, args, bad):
    fn = (partial(_COMPOSED[method], curve) if method in _COMPOSED
          else getattr(curve, method))
    scalars = [fn(x, *args) for x in xs]
    assert all(type(v) is float for v in scalars)
    out = fn(np.array(xs), *args)
    assert isinstance(out, np.ndarray) and out.shape == (len(xs),)
    np.testing.assert_allclose(out, scalars, rtol=1e-14, atol=1e-15)
    if bad is not None:
        with pytest.raises(DomainError):
            fn(bad, *args)
        with pytest.raises(DomainError):
            fn(np.array([xs[1], bad]), *args)


def test_a_demand_array_calls_no_kernel_from_the_support_on():
    # 0 from the support bound on, for an array as for a float: an array
    # does not hand the callable its support, where this one divides by zero
    demand = CustomDemand(lambda p: 1.0 - p if p < 1.0 else 1.0 / 0.0)
    prices = [0.0, 0.5, 1.0, 1.5]
    for method in ("value", "slope", "curvature", "surplus"):
        fn = getattr(demand, method)
        assert [v.hex() for v in fn(np.array(prices))] == [fn(p).hex() for p in prices], method


def test_custom_congestion_domain_matches_builtins():
    naive = CustomCongestion(lambda lam, mu: lam / mu)
    for bad in (-0.1, math.nan, np.array([0.1, math.nan])):
        for law in (CapacitySharing(), naive):
            with pytest.raises(DomainError, match="throughput must be nonnegative"):
                law.congestion(bad, 1.0)
    # an analytic inverse is never handed a congestion below the floor Phi(0, mu)
    calls = []

    def inverse(phi, mu):
        calls.append(phi)
        return (phi - 0.5) * mu
    offset = CustomCongestion(lambda lam, mu: lam / mu + 0.5, inverse_fn=inverse)
    assert offset.implied_throughput(0.7, 2.0) == pytest.approx(0.4)
    for bad in (0.4, math.nan, np.array([0.6, 0.3])):
        with pytest.raises(DomainError, match="below zero-throughput floor 0.5"):
            offset.implied_throughput(bad, 2.0)
    assert calls == [0.7]


def test_constant_slopes_of_integer_arrays_are_floats():
    ints, sharing = np.array([1, 2]), CapacitySharing()
    for out, expected in ((sharing.congestion_slope(ints, 2.0), [0.5, 0.5]),
                          (sharing.congestion_capacity_slope(ints, 2.0), [-0.25, -0.5]),
                          (sharing.congestion_curvature(ints, 2.0), [0.0, 0.0]),
                          (sharing.congestion_cross_slope(ints, 2.0), [-0.25, -0.25])):
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, expected)


def test_custom_callable_is_probed_once():
    array_shapes = []

    def value(phi, s):
        if isinstance(phi, np.ndarray):
            array_shapes.append(phi.shape)
        return _scalar_only_gain(phi, s)

    optimize_profit(baseline_model(gain=CustomGain(value)))
    assert array_shapes == [(2,)]


_GAIN_METHODS = ("value", "slope", "curvature", "elasticity")
_LAW_METHODS = ("congestion", "congestion_slope", "congestion_curvature",
                "congestion_capacity_slope", "congestion_cross_slope")


@pytest.mark.parametrize("curve, methods", [
    *((gain, _GAIN_METHODS) for gain in _GAINS[2:]),
    *((law, _LAW_METHODS) for law in _LAWS[2:]),
    # broadcasts in the throughput alone, so it is mapped
    (CustomCongestion(lambda lam, mu: lam / math.sqrt(mu)), _LAW_METHODS),
])
def test_custom_curves_take_an_argument_per_point(curve, methods):
    # a sensitivity or capacity per point, as a search over several models
    # passes them: a scalar-only callable is mapped over every array argument
    # together with the first, and each point equals its float call bit for bit
    xs, per_point = np.array([0.0, 0.1, 0.4, 0.9]), np.array([0.7, 1.3, 2.0, 0.4])
    for method in methods:
        fn = (partial(_COMPOSED[method], curve) if method in _COMPOSED
              else getattr(curve, method))
        got = fn(xs, per_point)
        want = [fn(float(x), float(a)) for x, a in zip(xs, per_point)]
        assert [v.hex() for v in got] == [v.hex() for v in want], method


def test_an_undefined_custom_law_names_its_first_bad_entry():
    # a law that rejects throughputs at or above capacity, solved at a
    # capacity the search's demand products exceed
    def saturating(lam, mu):
        if np.any(np.asarray(lam) >= mu):
            raise ValueError("saturated")
        return 1.0 / (mu - lam)
    law = CustomCongestion(saturating)
    with pytest.raises(DomainError) as error:
        law.congestion(np.linspace(0.0, 1.0, 1001), 0.5)
    assert str(error.value) == ("congestion law undefined at throughput 0.5: saturated "
                                "(at 501 of 1001 entries, the first at index 500)")
    with pytest.raises(DomainError) as error:
        growth_rates(baseline_model(congestion=law, capacity=0.5))
    assert len(str(error.value)) < 200 and "the first at index" in str(error.value)


def test_custom_curves_pickle_by_their_callables():
    xs = np.array([0.1, 0.4])
    for curve, method, args in ((CustomGain(_scalar_only_gain), "slope", (1.3,)),
                                (CustomCongestion(_scalar_only_law), "congestion_slope", (2.0,)),
                                (CustomDemand(_scalar_only_demand, support=0.9), "surplus", ())):
        copy = pickle.loads(pickle.dumps(curve))
        assert dataclasses.astuple(copy) == dataclasses.astuple(curve)
        np.testing.assert_array_equal(getattr(copy, method)(xs, *args),
                                      getattr(curve, method)(xs, *args))


def _annotated_fields(result) -> dict:
    """Field name to annotation text of a dataclass or a named tuple, else {}
    (a named tuple keeps a postponed annotation as a ``ForwardRef``)."""
    if dataclasses.is_dataclass(result):
        return {f.name: f.type for f in dataclasses.fields(result)}
    if isinstance(result, tuple) and hasattr(result, "_fields"):
        annotations = type(result).__annotations__
        return {name: annotations[name].__forward_arg__ for name in result._fields}
    return {}


def _float_fields(result, path):
    """(path, value) of every float-annotated field, through nested dataclasses
    and named tuples."""
    for name, annotation in _annotated_fields(result).items():
        value = getattr(result, name)
        if _annotated_fields(value):
            yield from _float_fields(value, f"{path}.{name}")
        elif "float" in annotation:
            yield f"{path}.{name}", value


@pytest.mark.parametrize("gain", GAINS)
@pytest.mark.parametrize("congestion", CONGESTIONS)
@pytest.mark.parametrize("beta", [1.0, 0.2])
def test_results_hold_python_floats(gain, congestion, beta):
    model = baseline_model(gain=gain, congestion=congestion, beta=beta)
    results = {"equilibrium": solve_equilibrium(model, 0.4, 0.5),
               "objectives": evaluate_objectives(model, 0.4, 0.5),
               "degenerate_objectives": evaluate_objectives(model, 1.0, 0.5),
               "statics": comparative_statics(model, 0.4, 0.5),
               "growth_rates": growth_rates(model)}
    fields = [leaf for name, result in results.items() for leaf in _float_fields(result, name)]
    assert len(fields) > 100
    leaks = [(path, type(value)) for path, value in fields
             if value is not None and type(value) is not float]
    assert leaks == []


# ---------------------------------------------------------------------------
# second derivatives against finite differences of the first
# ---------------------------------------------------------------------------

def _tolerance(curve) -> dict:
    """Closed forms to 1e-6; a custom curve's second derivative is itself a
    difference at relative step 1e-4, good to about 1e-5 where the curve is
    steep (a custom M/M/1 law near its capacity)."""
    numeric = isinstance(curve, (CustomGain, CustomCongestion, CustomDemand))
    return {"rel": 1e-4, "abs": 1e-8} if numeric else {"rel": 1e-6, "abs": 1e-9}


def _video_value(phi, s):
    return math.exp(-s * (0.9 * (1.0 - math.exp(-6.0 * phi)) + 0.05 * phi))


def _video_slope(phi, s):
    return -s * (5.4 * math.exp(-6.0 * phi) + 0.05) * _video_value(phi, s)


# each curve with its slope in closed form, the base of the reference difference
SECOND_ORDER_GAINS = [
    (ReciprocalGain(), ReciprocalGain().slope),
    (ExponentialGain(), ExponentialGain().slope),
    (CustomGain(_video_value), _video_slope),
    (CustomGain(_video_value, slope_fn=_video_slope), _video_slope),
]


@pytest.mark.parametrize("gain, slope", SECOND_ORDER_GAINS,
                         ids=["reciprocal", "exponential", "custom", "custom_slope"])
def test_gain_curvature_matches_finite_difference(gain, slope):
    rng = np.random.default_rng(137)
    for _ in range(200):
        phi = float(rng.uniform(0.01, 5.0))
        s = float(rng.uniform(0.2, 4.0))
        fd = finite_difference(lambda x: slope(x, s), phi)
        assert gain.curvature(phi, s) == pytest.approx(fd, **_tolerance(gain))


def _quadratic_law(lam, mu):
    return (lam + 0.2 * lam * lam) / mu


def _mm1_law(lam, mu):
    return 1.0 / (mu - lam)


# each law with Phi_lam in closed form, the base of two reference differences
SECOND_ORDER_LAWS = [
    (CapacitySharing(), lambda lam, mu: 1.0 / mu),
    (MM1Queue(), lambda lam, mu: 1.0 / (mu - lam) ** 2),
    (CustomCongestion(_quadratic_law), lambda lam, mu: (1.0 + 0.4 * lam) / mu),
    (CustomCongestion(_mm1_law), lambda lam, mu: 1.0 / (mu - lam) ** 2),
]


@pytest.mark.parametrize("law, slope", SECOND_ORDER_LAWS,
                         ids=["sharing", "mm1", "custom_quadratic", "custom_mm1"])
def test_congestion_second_derivatives_match_finite_differences(law, slope):
    rng = np.random.default_rng(139)
    tol = _tolerance(law)
    for _ in range(200):
        mu = float(rng.uniform(1.0, 5.0))
        lam = float(rng.uniform(0.01, 0.9 * mu))
        assert law.congestion_curvature(lam, mu) == pytest.approx(
            finite_difference(lambda x: slope(x, mu), lam), **tol)
        assert law.congestion_capacity_slope(lam, mu) == pytest.approx(
            finite_difference(lambda m: law.congestion(lam, m), mu), **tol)
        assert law.congestion_cross_slope(lam, mu) == pytest.approx(
            finite_difference(lambda m: slope(lam, m), mu), **tol)


def _square(x):
    return (1.0 - x) ** 2


SECOND_ORDER_DEMANDS = [
    (demand, demand.slope) for demand in (
        UserPowerDemand(alpha=0.7), UserPowerDemand(alpha=1.0), UserPowerDemand(alpha=2.0),
        CpPowerDemand(beta=0.7), CpPowerDemand(beta=2.0), CpPowerDemand(beta=2.5))
] + [
    (CustomDemand(_square), lambda x: -2.0 * (1.0 - x)),
    (CustomDemand(lambda x: math.exp(-x) - math.exp(-1.0)), lambda x: -math.exp(-x)),
    (CustomDemand(_square, slope_fn=lambda x: -2.0 * (1.0 - x)), lambda x: -2.0 * (1.0 - x)),
]


@pytest.mark.parametrize("demand, slope", SECOND_ORDER_DEMANDS,
                         ids=["user_0.7", "user_1", "user_2", "cp_0.7", "cp_2", "cp_2.5",
                              "custom_square", "custom_exp", "custom_square_slope"])
def test_demand_curvature_matches_finite_difference(demand, slope):
    rng = np.random.default_rng(149)
    for _ in range(200):
        x = float(rng.uniform(0.01, 0.95))
        assert demand.curvature(x) == pytest.approx(
            finite_difference(slope, x), **_tolerance(demand))


def test_demand_curvature_limits_at_zero_price():
    # m'' = -k (k - 1) x**(k - 2) for 1 - x**k; its limit at x = 0 by k
    for k, limit in ((0.5, math.inf), (1.0, 0.0), (1.5, -math.inf), (2.0, -2.0), (3.0, 0.0)):
        assert CpPowerDemand(beta=k).curvature(0.0) == limit
        assert CpPowerDemand(beta=k).curvature(np.array([0.0, 0.5]))[0] == limit
    assert UserPowerDemand(alpha=0.5).curvature(0.0) == -2.0
    assert UserPowerDemand(alpha=1.0).curvature(1.0) == 0.0


def test_second_derivatives_of_arrays_match_floats():
    xs = np.array([0.1, 0.4, 0.8])
    for gain, _ in SECOND_ORDER_GAINS:
        np.testing.assert_allclose(gain.curvature(xs, 1.3),
                                   [gain.curvature(float(x), 1.3) for x in xs], rtol=1e-12)
    for law, _ in SECOND_ORDER_LAWS:
        for method in ("congestion_curvature", "congestion_capacity_slope",
                       "congestion_cross_slope"):
            got = getattr(law, method)(xs, 2.0)
            np.testing.assert_allclose(got, [getattr(law, method)(float(x), 2.0) for x in xs],
                                       rtol=1e-12, err_msg=method)
    for demand, _ in SECOND_ORDER_DEMANDS:
        np.testing.assert_allclose(demand.curvature(xs),
                                   [demand.curvature(float(x)) for x in xs], rtol=1e-12)
