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

Each curve method states its formula once, in operators that take a float
or a numpy array; a float stays in float arithmetic, far cheaper than numpy
on a float.  Whether a custom callable broadcasts is decided once, at
construction, from one call on a two-point float array; one that raises or
returns another shape there is mapped over array elements.  Curve objects
are immutable and pure, so instances can be shared and used concurrently.

``PARAMETERS`` are the sweepable model parameters, read by
``parameter_value`` and set on a copy by ``with_parameter``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .errors import DomainError

FD_REL_STEP = 1e-6
QUAD_ABS_TOL = 1e-10
QUAD_MAX_DEPTH = 50


def _where(cond, x, y):
    """``np.where(cond, x, y)``; ``x if cond else y`` for a float comparison."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def _require(ok, message: str, *args) -> None:
    """Raise ``DomainError(message.format(*args))`` unless ``ok`` holds everywhere."""
    if ok is not True and not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise DomainError(message.format(*args))


def _custom_callable(fn: Callable, probe_args: tuple | None = None) -> Callable:
    """Wrap a user callable so its first argument may be a float or an array.

    One call on ``probe_args`` decides whether ``fn`` broadcasts; without
    them arrays are always mapped over their elements.  Floats give floats.
    """
    try:
        broadcasts = probe_args is not None and np.shape(fn(*probe_args)) == probe_args[0].shape
    except (TypeError, ValueError, ArithmeticError):
        broadcasts = False

    def call(x, *args):
        if not isinstance(x, np.ndarray):
            return float(fn(x, *args))
        if broadcasts:
            return np.asarray(fn(x, *args), dtype=float)
        return np.array([float(fn(float(v), *args)) for v in x.flat]).reshape(x.shape)
    return call


def _central_diff(f: Callable, x, lo: float, hi: float, rel_step: float = FD_REL_STEP):
    """Central difference of f at x (float or array), one-sided at [lo, hi] edges."""
    h = rel_step * _where(abs(x) > 1.0, abs(x), 1.0)
    a = _where(x - h < lo, x, x - h)
    b = _where(x + h > hi, x, x + h)
    _require(a != b, "finite-difference interval collapsed to a point")
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


class _CustomCurve:
    """Pickled by its fields, so the wrappers built at construction are rebuilt."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# ---------------------------------------------------------------------------
# Gain curves: rho(phi, s)
# ---------------------------------------------------------------------------

def _check_gain_args(phi, sensitivity) -> None:
    if not sensitivity > 0:
        raise DomainError(f"sensitivity must be positive, got {sensitivity}")
    _require(phi >= 0, "congestion level must be nonnegative")


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
        v = self.value(phi, sensitivity)
        d = self.slope(phi, sensitivity)
        return _where(phi > 0, phi * abs(d) / v, 0.0)

    def hazard(self, phi, sensitivity):
        """Hazard of the gain, |slope| / value (gain is strictly positive)."""
        return abs(self.slope(phi, sensitivity)) / self.value(phi, sensitivity)


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
class CustomGain(GainCurve, _CustomCurve):
    """Gain from a user-supplied value callable (phi, s) -> rho.

    The slope falls back to a central finite difference when no analytic
    slope callable is supplied.  The decreasing-to-zero tail cannot be
    decided from point evaluations; it is only probed numerically (see the
    test suite), so a custom curve violating it fails late, at solve time.
    """

    value_fn: Callable = field(compare=False)
    slope_fn: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        probe = (np.array([0.5, 1.0]), 1.0)
        value = _custom_callable(self.value_fn, probe)
        slope = (_custom_callable(self.slope_fn, probe) if self.slope_fn is not None else
                 lambda phi, s: _central_diff(lambda x: value(x, s), phi, 0.0, math.inf))
        vars(self).update(_value=value, _slope=slope)

    def value(self, phi, sensitivity):
        _check_gain_args(phi, sensitivity)
        return self._value(phi, sensitivity)

    def slope(self, phi, sensitivity):
        _check_gain_args(phi, sensitivity)
        return self._slope(phi, sensitivity)


# ---------------------------------------------------------------------------
# Congestion curves: Phi(lam, mu) and its throughput inverse Lambda(phi, mu)
# ---------------------------------------------------------------------------

def _check_capacity(capacity) -> None:
    if not capacity > 0:
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
        _require(throughput >= 0, "throughput must be nonnegative")
        return throughput / capacity

    def congestion_slope(self, throughput, capacity):
        _check_capacity(capacity)
        return 0.0 * throughput + 1.0 / capacity     # in throughput's shape, as floats

    def implied_throughput(self, phi, capacity):
        _check_capacity(capacity)
        _require(phi >= 0, "congestion level must be nonnegative")
        return phi * capacity

    def throughput_slope(self, phi, capacity, throughput=None):
        _check_capacity(capacity)
        return 0.0 * phi + capacity

    def capacity_slope(self, phi, capacity, throughput=None):
        _check_capacity(capacity)
        return phi


@dataclass(frozen=True)
class MM1Queue(CongestionCurve):
    """Phi = 1 / (mu - lam) on lam < mu; Lambda = mu - 1/phi on phi >= 1/mu."""

    def congestion(self, throughput, capacity):
        _check_capacity(capacity)
        _require((throughput >= 0) & (throughput < capacity), "M/M/1 requires 0 <= "
                 "throughput < capacity, got lam={}, mu={}", throughput, capacity)
        return 1.0 / (capacity - throughput)

    def congestion_slope(self, throughput, capacity):
        phi = self.congestion(throughput, capacity)
        return phi * phi

    def implied_throughput(self, phi, capacity):
        _check_capacity(capacity)
        floor = 1.0 / capacity
        _require(phi >= floor, "M/M/1 congestion cannot fall below 1/capacity = {}", floor)
        return capacity - 1.0 / phi

    def throughput_limit(self, capacity):
        _check_capacity(capacity)
        return math.nextafter(capacity, 0.0)

    def throughput_slope(self, phi, capacity, throughput=None):
        _check_capacity(capacity)
        return 1.0 / (phi * phi)

    def capacity_slope(self, phi, capacity, throughput=None):
        _check_capacity(capacity)
        return 0.0 * phi + 1.0


@dataclass(frozen=True)
class CustomCongestion(CongestionCurve, _CustomCurve):
    """Congestion law from a user-supplied (throughput, capacity) callable.

    Only monotonicity is required of the callable: the slopes are the
    central differences of the forward map that ``CongestionCurve`` defines,
    and the inverse is bisected for unless an analytic ``inverse_fn`` is given
    (no solver calls the inverse, so it is not probed: arrays are mapped).
    As for the builtin laws, a negative or NaN throughput and a congestion
    below the zero-throughput floor raise ``DomainError`` before either
    callable is reached.
    """

    congestion_fn: Callable = field(compare=False)
    inverse_fn: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        inverse = self._bisect_inverse if self.inverse_fn is None else self.inverse_fn
        vars(self).update(_inverse=_custom_callable(inverse), _congestion=_custom_callable(
            self.congestion_fn, (np.array([0.25, 0.5]), 1.0)))

    def congestion(self, throughput, capacity):
        _check_capacity(capacity)
        _require(throughput >= 0, "throughput must be nonnegative")
        try:
            return self._congestion(throughput, capacity)
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"congestion law undefined at throughput {throughput}: {exc}") from exc

    def implied_throughput(self, phi, capacity):
        floor = self.congestion_floor(capacity)
        _require(phi >= floor, "congestion {} below zero-throughput floor {}", phi, floor)
        return self._inverse(phi, capacity)

    def _bisect_inverse(self, phi: float, capacity: float) -> float:
        if phi == self.congestion_fn(0.0, capacity):
            return 0.0

        def reaches(lam):       # a throughput outside the callable's domain is too high
            try:
                return self.congestion_fn(lam, capacity) >= phi
            except (ArithmeticError, ValueError):
                return True

        lo, hi = 0.0, 1.0
        while not reaches(hi):
            lo, hi = hi, hi * 2.0
            if hi > 2.0 ** 199:
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
    A family supplies ``_value``, ``_slope`` and ``_surplus`` for prices
    (float or array) in [0, support].
    """

    support: float

    def value(self, price):
        return self._below_support(self._value, price)

    def slope(self, price):
        return self._below_support(self._slope, price)

    def surplus(self, price):
        return self._below_support(self._surplus, price)

    def _check_interior(self, price) -> None:
        """Price below the support bound (value, slope and surplus check price >= 0)."""
        _require(price < self.support,
                 "price must lie below the demand support bound {}", self.support)

    def _below_support(self, fn: Callable, price):
        """fn(price) on [0, support) and 0 from the support bound on; fn sees no price above it."""
        _require(price >= 0, "price must be nonnegative")
        if isinstance(price, np.ndarray):
            return np.where(price < self.support, fn(np.minimum(price, self.support)), 0.0)
        return fn(price) if price < self.support else 0.0

    def hazard(self, price):
        """Decay rate -slope/value; defined only where demand is positive."""
        self._check_interior(price)
        return -self.slope(price) / self.value(price)

    def per_unit_surplus(self, price):
        """Average surplus per unit of demand, surplus / value."""
        self._check_interior(price)
        return self.surplus(price) / self.value(price)

    def surplus_hazard(self, price):
        """Decay rate of the surplus integral: value / surplus."""
        self._check_interior(price)
        return self.value(price) / self.surplus(price)


class _PowerDemand(DemandCurve):
    """Demand 1 - x**k on [0, 1], with surplus (1 - x) - c * (1 - x**k1) / d.

    ``_shape`` maps the parameter named ``_parameter`` to (k, k1 = k + 1, c, d
    with c / d = 1 / k1), each in the rounding order of the family's closed form.
    """

    def __post_init__(self):
        value = getattr(self, self._parameter)
        _require(value > 0, "{} must be positive, got {}", self._parameter, value)
        k, k1, c, d = self._shape(value)
        # the slope's limit at x = 0, where x**(k - 1) diverges for k < 1
        at_zero = -k if k == 1.0 else (0.0 if k > 1.0 else -math.inf)
        vars(self).update(_k=k, _k1=k1, _c=c, _d=d, _slope_at_zero=at_zero)

    def _value(self, x):
        return 1.0 - x ** self._k

    def _slope(self, x):
        k = self._k     # x + (x == 0) keeps 0 ** (k - 1) out; _where puts the limit there
        return _where(x > 0.0, -k * (x + (x == 0.0)) ** (k - 1.0), self._slope_at_zero)

    def _surplus(self, x):
        return (1.0 - x) - self._c * (1.0 - x ** self._k1) / self._d


@dataclass(frozen=True)
class UserPowerDemand(_PowerDemand):
    """User-side demand m(p) = 1 - p**(1/alpha) on [0, 1].

    Larger alpha thins the population at every price, which models a more
    competitive user market.
    """

    alpha: float = 1.0
    support: float = field(default=1.0, init=False)
    _parameter = "alpha"
    _shape = staticmethod(lambda a: (1.0 / a, (a + 1.0) / a, a / (a + 1.0), 1.0))


@dataclass(frozen=True)
class CpPowerDemand(_PowerDemand):
    """Content-side demand n(q) = 1 - q**beta on [0, 1].

    Larger beta raises the desirable throughput at every price, which models
    heavier traffic demand per content service.
    """

    beta: float = 1.0
    support: float = field(default=1.0, init=False)
    _parameter = "beta"
    _shape = staticmethod(lambda b: (b, b + 1.0, 1.0, b + 1.0))


@dataclass(frozen=True)
class CustomDemand(DemandCurve, _CustomCurve):
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
        _require(self.support > 0, "support must be positive, got {}", self.support)
        probe = (np.array([0.25, 0.5]) * self.support,)
        value = _custom_callable(self.value_fn, probe)
        slope = (_custom_callable(self.slope_fn, probe) if self.slope_fn is not None else
                 lambda x: _central_diff(value, x, 0.0, self.support))
        surplus = _custom_callable(self.surplus_fn, probe) if self.surplus_fn is not None else (
            _custom_callable(lambda x: adaptive_simpson(value, x, self.support)))
        vars(self).update(_value=value, _slope=slope, _surplus=surplus)


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
        _check_capacity(self.capacity)
        _require(self.sensitivity > 0, "sensitivity must be positive, got {}", self.sensitivity)
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
