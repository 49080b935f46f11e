"""Gain, congestion, and demand curve families plus the market model bundle.

A priced, congestible network platform is assembled from four curves:

* a throughput gain ``rho(phi, s)`` in ``(0, 1]``, decreasing in the
  congestion level ``phi`` and parameterized by the users' congestion
  sensitivity ``s``;
* a congestion map ``Phi(lam, mu)`` with inverse ``Lambda(phi, mu)`` giving
  the throughput a network of capacity ``mu`` carries at congestion ``phi``;
* two demand curves, one per market side: user demand ``m(p)`` and
  content-side demand ``n(q)``, each with hazard rate and surplus integral.

Builtin families are closed-form throughout.  The ``Custom*`` variants accept
arbitrary value callables and derive slopes, inverses, hazards, and surplus
integrals numerically (central differences at relative step 1e-6, adaptive
Simpson quadrature at absolute tolerance 1e-10).

Curve methods are polymorphic over floats and numpy arrays wherever the math
is plain arithmetic; the vectorized paths back the dense-grid optimizers.
All curve objects are immutable and every operation is pure, so instances
can be shared and evaluated concurrently without locking.

``PARAMETERS`` are the sweepable model parameters, read by
``parameter_value`` and set on a copy by ``with_parameter``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError

FD_REL_STEP = 1e-6
QUAD_ABS_TOL = 1e-10
QUAD_MAX_DEPTH = 50


def _is_array(x) -> bool:
    return isinstance(x, np.ndarray)


def _central_diff(f: Callable, x, lo: float, hi: float, rel_step: float = FD_REL_STEP):
    """Central difference of f at x (float or array), one-sided at [lo, hi] edges."""
    if _is_array(x):
        h = rel_step * np.maximum(1.0, np.abs(x))
        a, b = np.where(x - h < lo, x, x - h), np.where(x + h > hi, x, x + h)
    else:
        h = rel_step * max(1.0, abs(x))
        a, b = (x if x - h < lo else x - h), (x if x + h > hi else x + h)
    if np.any(a == b):
        raise DomainError("finite-difference interval collapsed to a point")
    return (f(b) - f(a)) / (b - a)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = QUAD_ABS_TOL, max_depth: int = QUAD_MAX_DEPTH) -> float:
    """Adaptive Simpson quadrature of f over [a, b] to absolute tolerance."""
    if b <= a:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, x1, f0, fl, f1)
        right = simpson(x1, x2, f1, fr, f2)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * eps
        return (recurse(x0, x1, f0, fl, f1, left, half, depth + 1)
                + recurse(x1, x2, f1, fr, f2, right, half, depth + 1))

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 0)


def _map_maybe_array(fn: Callable, x, *args):
    """Call fn elementwise when it rejects array input (non-vectorized customs)."""
    if not _is_array(x):
        return fn(x, *args)
    try:
        out = fn(x, *args)
    except Exception:
        return np.array([float(fn(float(v), *args)) for v in x])
    out = np.asarray(out, dtype=float)
    if out.shape != x.shape:
        return np.array([float(fn(float(v), *args)) for v in x])
    return out


# ---------------------------------------------------------------------------
# Gain curves: rho(phi, s)
# ---------------------------------------------------------------------------

def _check_gain_args(phi, sensitivity) -> None:
    if sensitivity <= 0:
        raise DomainError(f"sensitivity must be positive, got {sensitivity}")
    bad = np.any(phi < 0) if _is_array(phi) else phi < 0
    if bad:
        raise DomainError("congestion level must be nonnegative")


class GainCurve:
    """Throughput gain: fraction of desirable throughput achieved under congestion.

    Contract: value in (0, 1], equal to 1 at zero congestion, strictly
    decreasing in the congestion level, vanishing as congestion grows.
    """

    def value(self, phi, sensitivity):
        raise NotImplementedError

    def slope(self, phi, sensitivity):
        """d value / d phi (nonpositive)."""
        raise NotImplementedError

    def elasticity(self, phi, sensitivity):
        """Congestion elasticity phi * |slope| / value; 0 in the phi -> 0 limit."""
        _check_gain_args(phi, sensitivity)
        v = self.value(phi, sensitivity)
        d = self.slope(phi, sensitivity)
        if _is_array(phi):
            return np.where(phi > 0, phi * np.abs(d) / v, 0.0)
        if phi == 0:
            return 0.0
        return phi * abs(d) / v

    def hazard(self, phi, sensitivity):
        """Hazard of the gain, |slope| / value (gain is strictly positive)."""
        v = self.value(phi, sensitivity)
        d = self.slope(phi, sensitivity)
        return abs(d) / v if not _is_array(phi) else np.abs(d) / v


@dataclass(frozen=True)
class ReciprocalGain(GainCurve):
    """rho(phi, s) = 1 / (s * phi + 1)."""

    def value(self, phi, sensitivity):
        _check_gain_args(phi, sensitivity)
        return 1.0 / (sensitivity * phi + 1.0)

    def slope(self, phi, sensitivity):
        _check_gain_args(phi, sensitivity)
        return -sensitivity / (sensitivity * phi + 1.0) ** 2


@dataclass(frozen=True)
class ExponentialGain(GainCurve):
    """rho(phi, s) = (s + 1) ** (-phi)."""

    def value(self, phi, sensitivity):
        _check_gain_args(phi, sensitivity)
        return (sensitivity + 1.0) ** (-phi)

    def slope(self, phi, sensitivity):
        _check_gain_args(phi, sensitivity)
        return -math.log(sensitivity + 1.0) * (sensitivity + 1.0) ** (-phi)


@dataclass(frozen=True)
class CustomGain(GainCurve):
    """Gain from a user-supplied value callable (phi, s) -> rho.

    The slope falls back to a central finite difference when no analytic
    slope callable is supplied.  The decreasing-to-zero tail cannot be
    decided from point evaluations; it is only probed numerically (see the
    test suite), so a custom curve violating it fails late, at solve time.
    """

    value_fn: Callable = field(compare=False)
    slope_fn: Callable | None = field(default=None, compare=False)

    def value(self, phi, sensitivity):
        _check_gain_args(phi, sensitivity)
        return _map_maybe_array(self.value_fn, phi, sensitivity)

    def slope(self, phi, sensitivity):
        _check_gain_args(phi, sensitivity)
        if self.slope_fn is not None:
            return _map_maybe_array(self.slope_fn, phi, sensitivity)
        return _central_diff(lambda x: _map_maybe_array(self.value_fn, x, sensitivity),
                             phi, 0.0, math.inf)


# ---------------------------------------------------------------------------
# Congestion curves: Phi(lam, mu) and its throughput inverse Lambda(phi, mu)
# ---------------------------------------------------------------------------

def _check_capacity(capacity) -> None:
    if capacity <= 0:
        raise DomainError(f"capacity must be positive, got {capacity}")


class CongestionCurve:
    """Congestion as a function of carried throughput and capacity.

    ``congestion`` is increasing in throughput and decreasing in capacity;
    ``implied_throughput`` is its inverse in the throughput argument, hence
    strictly increasing in both the congestion level and the capacity.  The
    slopes default to central differences of the forward map ``congestion``
    (the builtin laws override them in closed form); those of the inverse
    take the throughput at ``phi`` when the caller knows it, which spares
    the numerical inversion.
    """

    def congestion(self, throughput, capacity):
        raise NotImplementedError

    def congestion_slope(self, throughput, capacity):
        """d congestion / d throughput (positive)."""
        return _central_diff(lambda x: self.congestion(x, capacity), throughput, 0.0, math.inf)

    def implied_throughput(self, phi, capacity):
        raise NotImplementedError

    def congestion_floor(self, capacity):
        """Congestion at zero throughput; lowest admissible congestion level."""
        return self.congestion(0.0, capacity)

    def throughput_limit(self, capacity):
        """Largest throughput the law admits."""
        return math.inf

    def throughput_slope(self, phi, capacity, throughput=None):
        """d implied_throughput / d phi = 1 / Phi_lam (positive)."""
        lam = self.implied_throughput(phi, capacity) if throughput is None else throughput
        return 1.0 / self.congestion_slope(lam, capacity)

    def capacity_slope(self, phi, capacity, throughput=None):
        """d implied_throughput / d capacity = -Phi_mu / Phi_lam (positive)."""
        lam = self.implied_throughput(phi, capacity) if throughput is None else throughput
        phi_mu = _central_diff(lambda mu: self.congestion(lam, mu), capacity, 0.0, math.inf)
        return -phi_mu / self.congestion_slope(lam, capacity)


@dataclass(frozen=True)
class CapacitySharing(CongestionCurve):
    """Phi = lam / mu, Lambda = phi * mu; the capacity-sharing law."""

    def congestion(self, throughput, capacity):
        _check_capacity(capacity)
        bad = np.any(throughput < 0) if _is_array(throughput) else throughput < 0
        if bad:
            raise DomainError("throughput must be nonnegative")
        return throughput / capacity

    def congestion_slope(self, throughput, capacity):
        _check_capacity(capacity)
        return (1.0 / capacity if not _is_array(throughput)
                else np.full_like(throughput, 1.0 / capacity))

    def implied_throughput(self, phi, capacity):
        _check_capacity(capacity)
        bad = np.any(phi < 0) if _is_array(phi) else phi < 0
        if bad:
            raise DomainError("congestion level must be nonnegative")
        return phi * capacity

    def throughput_slope(self, phi, capacity, throughput=None):
        _check_capacity(capacity)
        return capacity if not _is_array(phi) else np.full_like(phi, capacity)

    def capacity_slope(self, phi, capacity, throughput=None):
        _check_capacity(capacity)
        return phi


@dataclass(frozen=True)
class MM1Queue(CongestionCurve):
    """Phi = 1 / (mu - lam) on lam < mu; Lambda = mu - 1/phi on phi >= 1/mu."""

    def congestion(self, throughput, capacity):
        _check_capacity(capacity)
        if _is_array(throughput):
            if np.any(throughput < 0) or np.any(throughput >= capacity):
                raise DomainError("M/M/1 requires 0 <= throughput < capacity")
        elif throughput < 0 or throughput >= capacity:
            raise DomainError(
                f"M/M/1 requires 0 <= throughput < capacity, got lam={throughput}, mu={capacity}")
        return 1.0 / (capacity - throughput)

    def congestion_slope(self, throughput, capacity):
        phi = self.congestion(throughput, capacity)
        return phi * phi

    def implied_throughput(self, phi, capacity):
        _check_capacity(capacity)
        floor = 1.0 / capacity
        bad = np.any(phi < floor) if _is_array(phi) else phi < floor
        if bad:
            raise DomainError(f"M/M/1 congestion cannot fall below 1/capacity = {floor}")
        return capacity - 1.0 / phi

    def throughput_limit(self, capacity):
        _check_capacity(capacity)
        return math.nextafter(capacity, 0.0)

    def throughput_slope(self, phi, capacity, throughput=None):
        _check_capacity(capacity)
        return 1.0 / (phi * phi)

    def capacity_slope(self, phi, capacity, throughput=None):
        _check_capacity(capacity)
        return 1.0 if not _is_array(phi) else np.ones_like(phi)


@dataclass(frozen=True)
class CustomCongestion(CongestionCurve):
    """Congestion law from a user-supplied (throughput, capacity) callable.

    Only monotonicity is required of the callable: the slopes are the
    central differences of the forward map that ``CongestionCurve`` defines,
    and the inverse is bisected for unless an analytic ``inverse_fn`` is given.
    """

    congestion_fn: Callable = field(compare=False)
    inverse_fn: Callable | None = field(default=None, compare=False)

    def congestion(self, throughput, capacity):
        _check_capacity(capacity)
        try:
            return _map_maybe_array(self.congestion_fn, throughput, capacity)
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"congestion law undefined at throughput {throughput}: {exc}") from exc

    def implied_throughput(self, phi, capacity):
        _check_capacity(capacity)
        if self.inverse_fn is not None:
            return _map_maybe_array(self.inverse_fn, phi, capacity)
        if _is_array(phi):
            return np.array([self.implied_throughput(float(v), capacity) for v in phi])
        floor = self.congestion_fn(0.0, capacity)
        if phi < floor:
            raise DomainError(f"congestion {phi} below zero-throughput floor {floor}")
        if phi == floor:
            return 0.0

        def reaches(lam):       # a throughput outside the callable's domain is too high
            try:
                return self.congestion_fn(lam, capacity) >= phi
            except (DomainError, ValueError, ZeroDivisionError, OverflowError):
                return True

        lo, hi = 0.0, 1.0
        for _ in range(200):
            if reaches(hi):
                break
            lo, hi = hi, hi * 2.0
        else:
            raise DomainError(f"no throughput induces congestion {phi}")
        mid = 0.5 * (lo + hi)
        while lo < mid < hi and hi - lo > 1e-15 * max(1.0, hi):
            lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
            mid = 0.5 * (lo + hi)
        return mid


# ---------------------------------------------------------------------------
# Demand curves
# ---------------------------------------------------------------------------

class DemandCurve:
    """One market side's demand as a function of its per-unit price.

    ``value`` is the demand level: nonnegative, strictly decreasing on
    [0, support), zero from the support bound on.  ``hazard`` is
    -slope/value, ``surplus`` the integral of the demand from the price to
    the support bound, and ``per_unit_surplus`` their ratio surplus/value.
    """

    support: float

    def value(self, price):
        raise NotImplementedError

    def slope(self, price):
        raise NotImplementedError

    def _check_price(self, price) -> None:
        bad = np.any(price < 0) if _is_array(price) else price < 0
        if bad:
            raise DomainError("price must be nonnegative")

    def _check_interior(self, price) -> None:
        self._check_price(price)
        bad = np.any(price >= self.support) if _is_array(price) else price >= self.support
        if bad:
            raise DomainError(
                f"price must lie below the demand support bound {self.support}")

    def hazard(self, price):
        """Decay rate -slope/value; defined only where demand is positive."""
        self._check_interior(price)
        v = self.value(price)
        d = self.slope(price)
        return -d / v

    def surplus(self, price):
        raise NotImplementedError

    def per_unit_surplus(self, price):
        """Average surplus per unit of demand, surplus / value."""
        self._check_interior(price)
        return self.surplus(price) / self.value(price)

    def surplus_hazard(self, price):
        """Decay rate of the surplus integral: value / surplus."""
        self._check_interior(price)
        return self.value(price) / self.surplus(price)


@dataclass(frozen=True)
class UserPowerDemand(DemandCurve):
    """User-side demand m(p) = 1 - p**(1/alpha) on [0, 1].

    Larger alpha thins the population at every price, which models a more
    competitive user market.
    """

    alpha: float = 1.0
    support: float = field(default=1.0, init=False)

    def __post_init__(self):
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")

    def value(self, price):
        self._check_price(price)
        e = 1.0 / self.alpha
        if _is_array(price):
            return np.where(price < 1.0, 1.0 - np.power(np.minimum(price, 1.0), e), 0.0)
        return 1.0 - price ** e if price < 1.0 else 0.0

    def slope(self, price):
        self._check_price(price)
        e = 1.0 / self.alpha
        if _is_array(price):
            with np.errstate(divide="ignore"):
                return np.where(price < 1.0, -e * np.power(price, e - 1.0), 0.0)
        if price >= 1.0:
            return 0.0
        if price == 0.0:
            return -e if e == 1.0 else (0.0 if e > 1.0 else -math.inf)
        return -e * price ** (e - 1.0)

    def surplus(self, price):
        self._check_price(price)
        a = self.alpha
        k = (a + 1.0) / a
        if _is_array(price):
            p = np.minimum(price, 1.0)
            return (1.0 - p) - a / (a + 1.0) * (1.0 - np.power(p, k))
        if price >= 1.0:
            return 0.0
        return (1.0 - price) - a / (a + 1.0) * (1.0 - price ** k)


@dataclass(frozen=True)
class CpPowerDemand(DemandCurve):
    """Content-side demand n(q) = 1 - q**beta on [0, 1].

    Larger beta raises the desirable throughput at every price, which models
    heavier traffic demand per content service.
    """

    beta: float = 1.0
    support: float = field(default=1.0, init=False)

    def __post_init__(self):
        if self.beta <= 0:
            raise DomainError(f"beta must be positive, got {self.beta}")

    def value(self, price):
        self._check_price(price)
        b = self.beta
        if _is_array(price):
            return np.where(price < 1.0, 1.0 - np.power(np.minimum(price, 1.0), b), 0.0)
        return 1.0 - price ** b if price < 1.0 else 0.0

    def slope(self, price):
        self._check_price(price)
        b = self.beta
        if _is_array(price):
            with np.errstate(divide="ignore"):
                return np.where(price < 1.0, -b * np.power(price, b - 1.0), 0.0)
        if price >= 1.0:
            return 0.0
        if price == 0.0:
            return -b if b == 1.0 else (0.0 if b > 1.0 else -math.inf)
        return -b * price ** (b - 1.0)

    def surplus(self, price):
        self._check_price(price)
        b = self.beta
        if _is_array(price):
            p = np.minimum(price, 1.0)
            return (1.0 - p) - (1.0 - np.power(p, b + 1.0)) / (b + 1.0)
        if price >= 1.0:
            return 0.0
        return (1.0 - price) - (1.0 - price ** (b + 1.0)) / (b + 1.0)


@dataclass(frozen=True)
class CustomDemand(DemandCurve):
    """Demand from a user-supplied value callable on [0, support].

    The support bound must be declared explicitly; it cannot be inferred
    from point evaluations.  Slope falls back to central differences and the
    surplus integral to adaptive Simpson quadrature unless analytic
    callables are supplied.
    """

    value_fn: Callable = field(compare=False)
    support: float = 1.0
    slope_fn: Callable | None = field(default=None, compare=False)
    surplus_fn: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.support <= 0:
            raise DomainError(f"support must be positive, got {self.support}")

    def value(self, price):
        self._check_price(price)
        if _is_array(price):
            out = _map_maybe_array(self.value_fn, np.minimum(price, self.support))
            return np.where(price < self.support, out, 0.0)
        return float(self.value_fn(price)) if price < self.support else 0.0

    def slope(self, price):
        self._check_price(price)
        if self.slope_fn is not None:
            if _is_array(price):
                out = _map_maybe_array(self.slope_fn, np.minimum(price, self.support))
                return np.where(price < self.support, out, 0.0)
            return float(self.slope_fn(price)) if price < self.support else 0.0
        if _is_array(price):
            return np.array([self.slope(float(v)) for v in price])
        if price >= self.support:
            return 0.0
        return _central_diff(self.value_fn, price, 0.0, self.support)

    def surplus(self, price):
        self._check_price(price)
        if self.surplus_fn is not None:
            if _is_array(price):
                out = _map_maybe_array(self.surplus_fn, np.minimum(price, self.support))
                return np.where(price < self.support, out, 0.0)
            return float(self.surplus_fn(price)) if price < self.support else 0.0
        if _is_array(price):
            return np.array([self.surplus(float(v)) for v in price])
        if price >= self.support:
            return 0.0
        return adaptive_simpson(self.value_fn, price, self.support)


# ---------------------------------------------------------------------------
# Market model bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarketModel:
    """The full two-sided system: curves, unit cost, capacity, sensitivity."""

    gain: GainCurve
    congestion: CongestionCurve
    user_demand: DemandCurve
    cp_demand: DemandCurve
    cost: float = 0.7
    capacity: float = 1.0
    sensitivity: float = 1.0

    def __post_init__(self):
        if self.capacity <= 0:
            raise DomainError(f"capacity must be positive, got {self.capacity}")
        if self.sensitivity <= 0:
            raise DomainError(f"sensitivity must be positive, got {self.sensitivity}")
        price_ceiling = self.user_demand.support + self.cp_demand.support
        if not 0.0 <= self.cost < price_ceiling:
            raise DomainError(
                f"cost must lie in [0, {price_ceiling}) so a nonnegative-margin "
                f"price pair exists, got {self.cost}")

    def demands(self, price_user: float, price_cp: float) -> tuple[float, float]:
        return (self.user_demand.value(price_user), self.cp_demand.value(price_cp))


# Sweepable parameters.  A model field maps to None; a demand shape maps to
# (the model field holding the demand, its power family, the side's name).
_PARAMETER_HOMES = {
    "capacity": None,
    "sensitivity": None,
    "alpha": ("user_demand", UserPowerDemand, "user"),
    "beta": ("cp_demand", CpPowerDemand, "content"),
}
PARAMETERS = tuple(_PARAMETER_HOMES)


def _parameter_home(model: MarketModel, parameter: str):
    if parameter not in _PARAMETER_HOMES:
        raise DomainError(f"unknown parameter {parameter!r}; expected one of {PARAMETERS}")
    home = _PARAMETER_HOMES[parameter]
    if home is not None and not isinstance(getattr(model, home[0]), home[1]):
        raise DomainError(f"{parameter} sweeps need the power-family {home[2]} demand")
    return home


def parameter_value(model: MarketModel, parameter: str) -> float:
    """Current value of a sweepable parameter (one of ``PARAMETERS``)."""
    home = _parameter_home(model, parameter)
    owner = model if home is None else getattr(model, home[0])
    return getattr(owner, parameter)


def with_parameter(model: MarketModel, parameter: str, value: float) -> MarketModel:
    """Copy of the model with one sweepable parameter set to ``value``."""
    home = _parameter_home(model, parameter)
    if home is None:
        return replace(model, **{parameter: value})
    return replace(model, **{home[0]: home[1](**{parameter: value})})


def baseline_model(gain: GainCurve | None = None,
                   congestion: CongestionCurve | None = None,
                   alpha: float = 1.0, beta: float = 1.0, cost: float = 0.7,
                   capacity: float = 1.0, sensitivity: float = 1.0) -> MarketModel:
    """Reference configuration: power demands, unit capacity and sensitivity."""
    return MarketModel(
        gain=gain if gain is not None else ReciprocalGain(),
        congestion=congestion if congestion is not None else CapacitySharing(),
        user_demand=UserPowerDemand(alpha=alpha),
        cp_demand=CpPowerDemand(beta=beta),
        cost=cost,
        capacity=capacity,
        sensitivity=sensitivity,
    )
