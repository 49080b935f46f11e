"""Gain, congestion, and demand curve families plus the market model bundle.

A priced, congestible network platform is assembled from four curves:

* a throughput gain ``rho(phi, s)`` in ``(0, 1]``, decreasing in the
  congestion level ``phi`` and parameterized by the users' congestion
  sensitivity ``s``;
* a congestion map ``Phi(lam, mu)``, the congestion that throughput ``lam``
  causes on a network of capacity ``mu``, with inverse ``Lambda(phi, mu)``;
* two demand curves, one per market side: user demand ``m(p)`` and
  content-side demand ``n(q)``, each with hazard rate and surplus integral.

Every curve states its first and second derivatives: the gain's ``slope``
rho' and ``curvature`` rho'', the congestion law's ``congestion_slope``
Phi_lam, ``congestion_capacity_slope`` Phi_mu, ``congestion_curvature``
Phi_lamlam and ``congestion_cross_slope`` Phi_lammu, and each demand's
``slope`` m' and ``curvature`` m''.  ``equilibrium`` differentiates the
equilibrium from the forward law's partials alone.

Each public curve method checks its arguments (``DomainError``), then calls
its family's kernel of the same name with a leading underscore (``value``
calls ``_value``), where each builtin formula is written once.  Kernels check
nothing; code past the input boundary calls them on values it made itself
(``equilibrium`` says where each check runs).  A demand's kernels see only
prices below its support: from the support on its public methods give 0
without calling them, for an array as for a float, and no difference
stencil reaches it.  Each kernel states its formula in operators that take
a float or a numpy array; a float stays in float arithmetic, far cheaper
than numpy on a float.  Curve objects are immutable and pure, so instances
can be shared and used concurrently.

Builtin families are closed-form throughout.  The ``Custom*`` variants take
plain callables and derive what they are not given; which fallback a curve
uses is chosen once, at construction:

* a slope without ``slope_fn``, and each first partial of a custom law, is a
  central difference at relative step ``FD_REL_STEP``, one-sided at an edge
  of the domain;
* a second derivative is the central difference of ``slope_fn`` when one is
  given, and otherwise a three-point second difference of the value
  callable at relative step ``SECOND_REL_STEP`` (differencing a differenced
  slope would lose about four more digits); a law's cross partial Phi_lammu
  is a four-point difference at the same step;
* a demand's surplus without ``surplus_fn`` is the adaptive Simpson integral
  of its level, to absolute tolerance ``QUAD_ABS_TOL``.

Whether a callable broadcasts is decided once too: each value, slope or
surplus callable is called on a two-point float array (a gain's or law's
also with a two-point array of sensitivities or capacities), and used as-is
on arrays if it returns an array of that shape, or mapped elementwise if it
raises ``TypeError``, ``ValueError`` or ``ArithmeticError`` or returns
another shape.  A mapped callable is mapped over every array argument
together with the first, so a search over several models can pass a
capacity and a sensitivity per point.  Float inputs give float results.
A law's inverse is its ``inverse_fn``, which no solver calls: it is never
probed, always mapped, and not derived (without one ``implied_throughput``
raises ``NotImplementedError``).

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
SECOND_REL_STEP = 1e-4
QUAD_ABS_TOL = 1e-10
QUAD_MAX_DEPTH = 50


def _where(cond, x, y):
    """``np.where(cond, x, y)``; ``x if cond else y`` for a float comparison."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def _require(ok, message: str, *args) -> None:
    """Raise ``DomainError(message.format(*args))`` unless ``ok`` holds everywhere;
    an array ``ok`` names its first failure, in the arguments of its shape, and counts them."""
    if ok is True or (ok.all() if isinstance(ok, np.ndarray) else ok):
        return
    if isinstance(ok, np.ndarray):
        bad = np.flatnonzero(~ok)
        args = [np.reshape(arg, -1)[bad[0]] if np.shape(arg) == ok.shape else arg for arg in args]
        message += f" (at {bad.size} of {ok.size} entries, the first at index {bad[0]})"
    raise DomainError(message.format(*args))


def _custom_callable(fn: Callable, probe_args: tuple | None = None) -> Callable:
    """Wrap a user callable so its first argument may be a float or an array,
    and then each further one a float or an array of its shape.  One call on
    ``probe_args`` (arrays of one shape) decides whether ``fn`` broadcasts; if
    not, arrays are mapped, every array argument together with the first."""
    try:
        broadcasts = probe_args is not None and np.shape(fn(*probe_args)) == probe_args[0].shape
    except (TypeError, ValueError, ArithmeticError):
        broadcasts = False

    def call(x, *args):
        if not isinstance(x, np.ndarray):
            return float(fn(x, *args))
        if broadcasts:
            return np.asarray(fn(x, *args), dtype=float)
        columns = (np.broadcast_to(np.asarray(v, dtype=float), x.shape).ravel().tolist()
                   for v in (x, *args))
        return np.array([float(fn(*v)) for v in zip(*columns)]).reshape(x.shape)
    return call


def _custom_partials(value_fn: Callable, slope_fn: Callable | None, probe: tuple,
                     hi: float) -> tuple[Callable, Callable, Callable]:
    """(value, slope, curvature) of a custom curve on [0, hi] in its first
    argument, by the module docstring's fallbacks; further arguments pass
    through."""
    value = _custom_callable(value_fn, probe)
    if slope_fn is None:
        def slope(x, *args):
            return _central_diff(value, x, 0.0, hi, *args)

        def curvature(x, *args):
            return _second_diff(value, x, 0.0, hi, *args)
    else:
        slope = _custom_callable(slope_fn, probe)

        def curvature(x, *args):
            return _central_diff(slope, x, 0.0, hi, *args)
    return value, slope, curvature


def _central_diff(f: Callable, x, lo: float, hi: float, *args):
    """Central difference of f(., *args) at x (float or array), one-sided at
    [lo, hi] edges; no point reaches hi."""
    h = FD_REL_STEP * _where(abs(x) > 1.0, abs(x), 1.0)
    a = _where(x - h < lo, x, x - h)
    b = _where(x + h >= hi, x, x + h)
    _require(a != b, "finite-difference interval collapsed to a point")
    return (f(b, *args) - f(a, *args)) / (b - a)


def _second_diff(f: Callable, x, lo: float, hi: float, *args):
    """Three-point second difference of f(., *args) at x (float or array); near
    lo the stencil starts at lo, and one that would reach hi ends at x."""
    h = SECOND_REL_STEP * _where(abs(x) > 1.0, abs(x), 1.0)
    c = _where(x - h < lo, lo + h, _where(x + h >= hi, x - h, x))
    return (f(c + h, *args) - 2.0 * f(c, *args) + f(c - h, *args)) / (h * h)


def _mixed_diff(f: Callable, x, y: float):
    """Four-point difference of d^2 f(x, y) / dx dy for x >= 0 and y > 0; the x
    stencil is shifted off a negative x, the y step is relative to y."""
    hx = SECOND_REL_STEP * _where(abs(x) > 1.0, abs(x), 1.0)
    hy = SECOND_REL_STEP * y
    c = _where(x - hx < 0.0, hx, x)
    return ((f(c + hx, y + hy) - f(c + hx, y - hy) - f(c - hx, y + hy) + f(c - hx, y - hy))
            / (4.0 * hx * hy))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
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
        if depth >= QUAD_MAX_DEPTH or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * eps
        return (recurse(x0, x1, f0, fl, f1, left, half, depth + 1)
                + recurse(x1, x2, f1, fr, f2, right, half, depth + 1))

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), QUAD_ABS_TOL, 0)


class _CustomCurve:
    """Pickled by its fields, so the wrappers built at construction are rebuilt."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# ---------------------------------------------------------------------------
# Gain curves: rho(phi, s)
# ---------------------------------------------------------------------------

def _check_gain_args(phi, sensitivity) -> None:
    try:
        if not sensitivity > 0:
            raise DomainError(f"sensitivity must be positive, got {sensitivity}")
    except ValueError:
        if not isinstance(sensitivity, np.ndarray):
            raise
        # an array, one sensitivity per point: name its first bad entry
        _require(sensitivity > 0, "sensitivity must be positive, got {}", sensitivity)
    _require(phi >= 0, "congestion level must be nonnegative")


def _per_run(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` of each entry of x in float arithmetic, whose bits numpy's log
    and power do not always match; once per run of equal entries."""
    flat = x.ravel()
    runs = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
    return np.repeat([fn(v) for v in flat[runs].tolist()],
                     np.diff(np.r_[runs, flat.size])).reshape(x.shape)


class GainCurve:
    """Throughput gain: fraction of desirable throughput achieved under congestion.

    Contract: value in (0, 1], equal to 1 at zero congestion, strictly
    decreasing in the congestion level, vanishing as congestion grows.  The
    public methods check phi >= 0 and s > 0, then call the family's kernel
    ``_value``, ``_slope`` or ``_curvature``.
    """

    def value(self, phi, sensitivity):
        _check_gain_args(phi, sensitivity)
        return self._value(phi, sensitivity)

    def slope(self, phi, sensitivity):
        """d value / d phi (nonpositive)."""
        _check_gain_args(phi, sensitivity)
        return self._slope(phi, sensitivity)

    def curvature(self, phi, sensitivity):
        """d slope / d phi."""
        _check_gain_args(phi, sensitivity)
        return self._curvature(phi, sensitivity)


@dataclass(frozen=True)
class ReciprocalGain(GainCurve):
    """rho(phi, s) = 1 / (s * phi + 1)."""

    def _value(self, phi, sensitivity):
        return 1.0 / (sensitivity * phi + 1.0)

    def _slope(self, phi, sensitivity):
        return -sensitivity / (sensitivity * phi + 1.0) ** 2

    def _curvature(self, phi, sensitivity):
        return 2.0 * sensitivity * sensitivity / (sensitivity * phi + 1.0) ** 3


@dataclass(frozen=True)
class ExponentialGain(GainCurve):
    """rho(phi, s) = (s + 1) ** (-phi)."""

    def _value(self, phi, sensitivity):
        return (sensitivity + 1.0) ** (-phi)

    def _slope(self, phi, sensitivity):
        try:
            rate = math.log(sensitivity + 1.0)
        except TypeError:       # an array, one sensitivity per point
            rate = _per_run(math.log, sensitivity + 1.0)
        return -rate * (sensitivity + 1.0) ** (-phi)

    def _curvature(self, phi, sensitivity):
        try:
            rate_squared = math.log(sensitivity + 1.0) ** 2
        except TypeError:       # an array, one sensitivity per point
            rate_squared = _per_run(lambda base: math.log(base) ** 2, sensitivity + 1.0)
        return rate_squared * (sensitivity + 1.0) ** (-phi)


@dataclass(frozen=True)
class CustomGain(GainCurve, _CustomCurve):
    """Gain from a user-supplied value callable (phi, s) -> rho.

    The decreasing-to-zero tail cannot be decided from point evaluations; it
    is only probed numerically (see the test suite), so a custom curve
    violating it fails late, at solve time.
    """

    value_fn: Callable = field(compare=False)
    slope_fn: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        value, slope, curvature = _custom_partials(
            self.value_fn, self.slope_fn, (np.array([0.5, 1.0]), np.ones(2)), math.inf)
        vars(self).update(_value=value, _slope=slope, _curvature=curvature)


# ---------------------------------------------------------------------------
# Congestion curves: Phi(lam, mu) and its throughput inverse Lambda(phi, mu)
# ---------------------------------------------------------------------------

def _check_capacity(capacity) -> None:
    try:
        if capacity > 0:
            return
    except ValueError:      # an array, one capacity per point: name its first bad entry
        return _require(capacity > 0, "capacity must be positive, got {}", capacity)
    raise DomainError(f"capacity must be positive, got {capacity}")


class CongestionCurve:
    """Congestion as a function of carried throughput and capacity.

    ``congestion`` is increasing in throughput and decreasing in capacity;
    ``implied_throughput`` is its inverse in the throughput argument, hence
    strictly increasing in both the congestion level and the capacity.  The
    forward map and its partials check a positive capacity and a throughput
    in the law's domain (``_check``), then call the kernel of the same name
    with a leading underscore.  The partials' kernels default to the
    differences of ``_congestion`` that the module docstring lists; the
    builtin laws override them in closed form.  No solver, statics or
    objective path calls the inverse.
    """

    def congestion(self, throughput, capacity):
        self._check(throughput, capacity)
        return self._congestion(throughput, capacity)

    def congestion_slope(self, throughput, capacity):
        """d congestion / d throughput (positive)."""
        self._check(throughput, capacity)
        return self._congestion_slope(throughput, capacity)

    def congestion_curvature(self, throughput, capacity):
        """d^2 congestion / d throughput^2."""
        self._check(throughput, capacity)
        return self._congestion_curvature(throughput, capacity)

    def congestion_capacity_slope(self, throughput, capacity):
        """d congestion / d capacity (nonpositive)."""
        self._check(throughput, capacity)
        return self._congestion_capacity_slope(throughput, capacity)

    def congestion_cross_slope(self, throughput, capacity):
        """d^2 congestion / d throughput d capacity."""
        self._check(throughput, capacity)
        return self._congestion_cross_slope(throughput, capacity)

    def _check(self, throughput, capacity) -> None:
        _check_capacity(capacity)
        _require(throughput >= 0, "throughput must be nonnegative")

    def _congestion_slope(self, throughput, capacity):
        return _central_diff(lambda x: self._congestion(x, capacity), throughput, 0.0, math.inf)

    def _congestion_curvature(self, throughput, capacity):
        return _second_diff(lambda x: self._congestion(x, capacity), throughput, 0.0, math.inf)

    def _congestion_capacity_slope(self, throughput, capacity):
        return _central_diff(lambda mu: self._congestion(throughput, mu), capacity, 0.0, math.inf)

    def _congestion_cross_slope(self, throughput, capacity):
        return _mixed_diff(self._congestion, throughput, capacity)

    def implied_throughput(self, phi, capacity):
        raise NotImplementedError

    def congestion_floor(self, capacity):
        """Congestion at zero throughput; lowest admissible congestion level."""
        return self.congestion(0.0, capacity)

    def throughput_limit(self, capacity):
        """Largest throughput the law admits."""
        return math.inf


@dataclass(frozen=True)
class CapacitySharing(CongestionCurve):
    """Phi = lam / mu, Lambda = phi * mu; the capacity-sharing law."""

    def _congestion(self, throughput, capacity):
        return throughput / capacity

    def _congestion_slope(self, throughput, capacity):
        return 0.0 * throughput + 1.0 / capacity     # in throughput's shape, as floats

    def _congestion_curvature(self, throughput, capacity):
        return 0.0 * throughput

    def _congestion_capacity_slope(self, throughput, capacity):
        return -throughput / (capacity * capacity)

    def _congestion_cross_slope(self, throughput, capacity):
        return 0.0 * throughput - 1.0 / (capacity * capacity)

    def implied_throughput(self, phi, capacity):
        _check_capacity(capacity)
        _require(phi >= 0, "congestion level must be nonnegative")
        return phi * capacity


@dataclass(frozen=True)
class MM1Queue(CongestionCurve):
    """Phi = 1 / (mu - lam) on lam < mu; Lambda = mu - 1/phi on phi >= 1/mu."""

    def _check(self, throughput, capacity) -> None:
        _check_capacity(capacity)
        _require((throughput >= 0) & (throughput < capacity), "M/M/1 requires 0 <= "
                 "throughput < capacity, got lam={}, mu={}", throughput, capacity)

    def _congestion(self, throughput, capacity):
        return 1.0 / (capacity - throughput)

    def _congestion_slope(self, throughput, capacity):
        phi = self._congestion(throughput, capacity)
        return phi * phi

    def _congestion_curvature(self, throughput, capacity):
        phi = self._congestion(throughput, capacity)
        return 2.0 * phi * phi * phi

    def _congestion_capacity_slope(self, throughput, capacity):
        phi = self._congestion(throughput, capacity)
        return -phi * phi

    def _congestion_cross_slope(self, throughput, capacity):
        phi = self._congestion(throughput, capacity)
        return -2.0 * phi * phi * phi

    def implied_throughput(self, phi, capacity):
        _check_capacity(capacity)
        floor = 1.0 / capacity
        _require(phi >= floor, "M/M/1 congestion cannot fall below 1/capacity = {}", floor)
        return capacity - 1.0 / phi

    def throughput_limit(self, capacity):
        _check_capacity(capacity)
        try:
            return math.nextafter(capacity, 0.0)
        except TypeError:       # an array, one capacity per point
            return np.nextafter(capacity, 0.0)


@dataclass(frozen=True)
class CustomCongestion(CongestionCurve, _CustomCurve):
    """Congestion law from a user-supplied (throughput, capacity) callable.

    Only monotonicity is required of the callable.  As for the builtin laws,
    a negative or NaN throughput and a congestion below the zero-throughput
    floor raise ``DomainError`` before either callable is reached.  Its
    kernel raises ``DomainError`` where the callable raises an arithmetic or
    value error or returns a congestion that is not a nonnegative number,
    which no later check would see; on an array of throughputs it names the
    first at which the callable raises alone, and counts them.
    """

    congestion_fn: Callable = field(compare=False)
    inverse_fn: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        vars(self)["_law"] = _custom_callable(self.congestion_fn,
                                              (np.array([0.25, 0.5]), np.ones(2)))

    def _congestion(self, throughput, capacity):
        try:
            phi = self._law(throughput, capacity)
        except (ArithmeticError, ValueError) as exc:
            if isinstance(throughput, np.ndarray):      # name the first entry undefined alone
                _require(np.vectorize(self._defined, otypes=[bool])(throughput, capacity),
                         "congestion law undefined at throughput {}: {}", throughput, exc)
                throughput = f"array of {throughput.size} entries"
            raise DomainError(f"congestion law undefined at throughput {throughput}: {exc}") from exc
        _require(phi >= 0, "congestion level must be nonnegative")
        return phi

    def _defined(self, throughput: float, capacity: float) -> bool:
        try:
            self._law(throughput, capacity)
        except (ArithmeticError, ValueError):
            return False
        return True

    def implied_throughput(self, phi, capacity):
        if self.inverse_fn is None:
            raise NotImplementedError("a custom congestion law has no inverse without inverse_fn")
        floor = self.congestion_floor(capacity)
        _require(phi >= floor, "congestion {} below zero-throughput floor {}", phi, floor)
        return _custom_callable(self.inverse_fn)(phi, capacity)


# ---------------------------------------------------------------------------
# Demand curves
# ---------------------------------------------------------------------------

class DemandCurve:
    """One market side's demand as a function of its per-unit price.

    ``value`` is the demand level: nonnegative, strictly decreasing on
    [0, support), zero from the support bound on.  ``curvature`` is the
    second derivative m''.  ``hazard`` is -slope/value, ``surplus`` the
    integral of the demand from the price to the support bound, and
    ``per_unit_surplus`` their ratio surplus/value.  A family supplies the
    kernels ``_value``, ``_slope``, ``_curvature`` and ``_surplus`` for
    prices (float or array) in [0, support), and a kernel sees no other: the
    public methods check that the price is a nonnegative number and give 0
    from the support bound on, where they call no kernel.  ``_level`` is
    ``value`` at a float price checked already.
    """

    support: float

    def value(self, price):
        return self._below_support(self._value, price)

    def slope(self, price):
        return self._below_support(self._slope, price)

    def curvature(self, price):
        return self._below_support(self._curvature, price)

    def surplus(self, price):
        return self._below_support(self._surplus, price)

    def _below_support(self, fn: Callable, price):
        """fn(price) on [0, support) and 0 from the support bound on, where fn is not called."""
        _require(price >= 0, "price must be a nonnegative number, got {}", price)
        if isinstance(price, np.ndarray):
            below = price < self.support
            out = np.zeros(price.shape)
            out[below] = fn(price[below].astype(float))
            return out
        return fn(price) if price < self.support else 0.0

    def _level(self, price: float) -> float:
        return self._value(price) if price < self.support else 0.0

    def _per_unit(self, amount, level):
        """amount / level, ``level`` the demand at the price, which must be
        positive: it is 0 from the support bound on, and may reach 0 below it."""
        _require(level > 0, "demand must be positive at the price (it is 0 from the "
                 "support bound {} on, and may reach 0 below it)", self.support)
        return amount / level

    def hazard(self, price):
        """Decay rate -slope/value; defined only where demand is positive."""
        return -self._per_unit(self.slope(price), self.value(price))

    def per_unit_surplus(self, price):
        """Average surplus per unit of demand, surplus / value; defined only
        where demand is positive."""
        return self._per_unit(self.surplus(price), self.value(price))


class _PowerDemand(DemandCurve):
    """Demand 1 - x**k on [0, 1], with surplus (1 - x) - c * (1 - x**k1) / d.

    ``_shape`` maps the parameter named ``_parameter`` to (k, k1 = k + 1, c, d
    with c / d = 1 / k1), each in the rounding order of the family's closed form.
    """

    def __post_init__(self):
        value = getattr(self, self._parameter)
        _require(0 < value < math.inf, "{} must be positive and finite, got {}",
                 self._parameter, value)
        k, k1, c, d = self._shape(value)
        # the limits at x = 0 of the slope, where x**(k - 1) diverges for k < 1,
        # and of the curvature, where x**(k - 2) diverges for k < 2
        at_zero = -k if k == 1.0 else (0.0 if k > 1.0 else -math.inf)
        coefficient = -k * (k - 1.0)
        curvature_at_zero = (coefficient if k == 2.0 else 0.0 if k > 2.0 or k == 1.0
                             else math.copysign(math.inf, coefficient))
        vars(self).update(_k=k, _k1=k1, _c=c, _d=d, _slope_at_zero=at_zero,
                          _curvature_at_zero=curvature_at_zero)

    def _value(self, x):
        return 1.0 - x ** self._k

    def _slope(self, x):
        k = self._k     # x + (x == 0) keeps 0 ** (k - 1) out; _where puts the limit there
        return _where(x > 0.0, -k * (x + (x == 0.0)) ** (k - 1.0), self._slope_at_zero)

    def _curvature(self, x):
        k = self._k
        return _where(x > 0.0, -k * (k - 1.0) * (x + (x == 0.0)) ** (k - 2.0),
                      self._curvature_at_zero)

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
    from point evaluations.  Below the support a level that is not a finite
    nonnegative number, or a ``surplus_fn`` value that is not a finite
    number, raises ``DomainError`` where it is read (the level also in the
    surplus quadrature, which a NaN or infinite integrand never lets
    converge).  From the support on both are 0, and the quadrature does not
    call the value callable there.
    """

    value_fn: Callable = field(compare=False)
    support: float = 1.0
    slope_fn: Callable | None = field(default=None, compare=False)
    surplus_fn: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        _require(0 < self.support < math.inf, "support must be positive and finite, got {}",
                 self.support)
        probe = (np.array([0.25, 0.5]) * self.support,)
        value, slope, curvature = _custom_partials(self.value_fn, self.slope_fn, probe,
                                                   self.support)

        def level(x):
            m = value(x)
            _require(((m >= 0.0) & (m < math.inf)) | (x >= self.support), "demand callable "
                     "returned {} at price {}, not a finite nonnegative level", m, x)
            return m

        def integrand(x):       # 0 from the support on, where the callable is not called
            return level(x) if x < self.support else 0.0
        raw = (_custom_callable(self.surplus_fn, probe) if self.surplus_fn is not None
               else _custom_callable(lambda x: adaptive_simpson(integrand, x, self.support)))

        def surplus(x):
            s = raw(x)
            _require(((s > -math.inf) & (s < math.inf)) | (x >= self.support),
                     "surplus callable returned {} at price {}, not a finite number", s, x)
            return s
        vars(self).update(_value=level, _slope=slope, _curvature=curvature, _surplus=surplus)


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
        for name in ("capacity", "sensitivity"):
            value = getattr(self, name)
            _require(0 < value < math.inf, "{} must be positive and finite, got {}", name, value)
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
