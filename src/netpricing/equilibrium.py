"""Congestion equilibrium of the two-sided system and its derivatives.

At prices (p, q) the demand sides contribute m(p) and n(q); the carried
throughput lam settles where it equals the throughput demanded at the
congestion phi = Phi(lam, mu) that it causes:

    h(lam; T, mu) = lam - T * rho(Phi(lam, mu), s) = 0,    T = m * n.

The root lies in the bracket [0, min(T, lam_max)], lam_max the largest
throughput the congestion law admits (just below mu for M/M/1): h(0) < 0
and h'(lam) = D = 1 - T rho'(phi) Phi_lam >= 1, so the root is unique.
Newton starts from lam0 = T rho(Phi(hi / 2)) and bisects instead of any
step that would leave the sign bracket.  A root where Phi_lam is not
positive and finite (a flat stretch of a custom law) raises ``BracketError``.

``Equilibrium.elasticity`` is the throughput elasticity, the relative
congestion elasticity of demand versus supply,

    eps = 1 / D = 1 / (1 - T rho'(phi) Phi_lam(lam, mu))  in (0, 1].

This module is the one place that differentiates h, in throughput space from
the forward law's partials, and the one outside ``curves`` that reads the
curves' rho'', Phi_lamlam, Phi_lammu and Phi_mu.  lam's first-order responses
to T and to the capacity are

    lam_T = rho eps,        lam_mu = T rho' Phi_mu eps.

``comparative_statics`` builds on both, and the objectives' capacity
gradients on lam_mu, which ``capacity_response`` returns with the law's
partial Phi_mu it is made of, so no caller takes Phi_mu twice.  The
first-order path calls no second-derivative curve method.  Two functions
take the second-order terms at a solved equilibrium:

* ``throughput_curvature`` gives lam_T and, for the Newton and
  implicit-function Hessians,

      lam_TT = d(rho eps)/dT = eps (rho' Phi_lam - D_T) lam_T,
      D_T    = -rho' Phi_lam - T (rho'' Phi_lam^2 + rho' Phi_lamlam) lam_T;

* ``_trace_slope`` gives the slope of eps in phi along the capacity trace,
  for the sensitivities' sign rules: prices and sensitivity held and the
  capacity moving, d eps/d phi = (d eps/d mu) / (d phi/d mu).  At fixed T,
  h = 0 differentiated in mu gives

      phi_mu = Phi_lam lam_mu + Phi_mu,
      D_mu   = -T (rho'' phi_mu Phi_lam + rho' (Phi_lamlam lam_mu + Phi_lammu)),

  d eps/d mu = -D_mu eps^2, and the slope is -D_mu eps^2 / phi_mu.  A
  congestion that does not respond to capacity (|mu phi_mu| at most
  ``TRACE_RESOLUTION`` times phi) leaves it undefined and raises
  ``NumericalError``.  The partial at fixed capacity is a different object
  and would falsify the sign rules for capacity-dependent congestion laws.

Domain checks run where inputs enter: prices in ``solve_equilibrium``, and
capacity and sensitivity in ``MarketModel`` and once per call of
``solve_for_demands`` and ``solve_many``, whose ``throughput_limit``, start
probe lam0 and (scalar) last Phi(lam), the one throughput outside the sign
bracket, take the public curve methods.  Past
them, the Newton rounds and everything built on a solved equilibrium call the
curves' unchecked kernels (``curves``); only a custom law's kernel checks, its
callable's output.

The records built on every solve, ``Equilibrium`` and ``ComparativeStatics``
here and ``objectives.ObjectiveReport`` and ``objectives.ObjectiveGradients``,
are named tuples.  They are immutable, as frozen dataclasses are, and cost
less than half as much to build, since a frozen dataclass sets each field
through ``object.__setattr__``.  Being tuples, they also unpack, index and
compare equal to a plain tuple of the same values; ``_replace`` makes a
changed copy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .curves import CongestionCurve, GainCurve, MarketModel
from .errors import BracketError, ConvergenceError, DomainError, NumericalError

NEWTON_REL_TOL = 1e-9           # a step below this fraction of lam is the last
MAX_ROUNDS = 100                # cap on the rounds of either solver
TRACE_RESOLUTION = 1e-10        # capacity elasticity of congestion below which it does not respond


class Equilibrium(NamedTuple):
    """Solved congestion state for one (p, q) price pair."""

    congestion: float           # phi = Phi(lam, mu)
    throughput: float           # lam
    elasticity: float           # throughput elasticity, in (0, 1]
    gap_residual: float         # |lam - m * n * rho(phi)|
    iterations: int
    price_user: float
    price_cp: float
    capacity: float
    sensitivity: float
    user_level: float           # m(p)
    cp_level: float             # n(q)
    degenerate: bool            # zero demand on at least one side


def _newton_step(gain: GainCurve, congestion: CongestionCurve, mn, lam,
                 capacity: float, sensitivity: float):
    """h(lam), the Newton step h / h' and dPhi/dlam; floats or arrays."""
    phi = congestion._congestion(lam, capacity)
    phi_lam = congestion._congestion_slope(lam, capacity)
    h = lam - mn * gain._value(phi, sensitivity)
    return h, h / (1.0 - mn * gain._slope(phi, sensitivity) * phi_lam), phi_lam


def _require_rising_law(phi_lam) -> None:
    """Raise unless every slope Phi_lam (a float or an array) is positive and finite."""
    if not (0.0 < phi_lam < math.inf if isinstance(phi_lam, float)
            else np.all((phi_lam > 0.0) & (phi_lam < math.inf))):
        raise BracketError("the equilibrium falls on a flat stretch of the congestion "
                           "law; a custom law is likely not strictly increasing")


def solve_for_demands(gain: GainCurve, congestion: CongestionCurve,
                      user_level: float, cp_level: float,
                      capacity: float, sensitivity: float) -> tuple[float, float, int, bool]:
    """Equilibrium for raw demand levels; returns (phi, lam, rounds, degenerate)."""
    if user_level <= 0.0 or cp_level <= 0.0:
        return congestion.congestion_floor(capacity), 0.0, 0, True
    mn = user_level * cp_level
    lo, hi = 0.0, min(mn, congestion.throughput_limit(capacity))
    lam = mn * gain.value(congestion.congestion(0.5 * hi, capacity), sensitivity)
    if not lam <= hi:
        lam = 0.5 * hi
    for rounds in range(1, MAX_ROUNDS + 1):
        h, step, phi_lam = _newton_step(gain, congestion, mn, lam, capacity, sensitivity)
        if abs(step) <= NEWTON_REL_TOL * lam:
            break
        if h > 0.0:
            hi = lam
        else:
            lo = lam
        lam = lam - step if lo < lam - step <= hi else 0.5 * (lo + hi)
    else:
        raise ConvergenceError(f"equilibrium Newton did not converge in {MAX_ROUNDS} rounds")
    _require_rising_law(phi_lam)
    lam -= step
    return congestion.congestion(lam, capacity), lam, rounds, False


def solve_many(gain: GainCurve, congestion: CongestionCurve, mn: np.ndarray,
               capacity, sensitivity) -> np.ndarray:
    """``solve_for_demands`` over an array of demand products; returns lam.

    Backs the dense-grid oracle and the scan stages of the optimizers.  The
    capacity and the sensitivity are floats, or arrays of ``mn``'s shape that
    give each point its own (a sweep's rows in one call; the builtin curves
    take both, a custom curve arrays only if its callables broadcast in
    them).  Each round works only on the points that have not converged yet.
    """
    mn = np.asarray(mn, dtype=float)
    lam = np.zeros(mn.shape)
    todo = np.flatnonzero(mn > 0.0)
    m = mn.reshape(-1)[todo]
    capacity, sensitivity = (v.reshape(-1)[todo] if isinstance(v, np.ndarray) else v
                             for v in (capacity, sensitivity))
    lo = np.zeros_like(m)
    hi = np.minimum(m, congestion.throughput_limit(capacity))
    x = m * gain.value(congestion.congestion(0.5 * hi, capacity), sensitivity)
    x = np.where(x <= hi, x, 0.5 * hi)
    lam_flat = lam.reshape(-1)
    for _ in range(MAX_ROUNDS):
        if todo.size == 0:
            break
        h, step, phi_lam = _newton_step(gain, congestion, m, x, capacity, sensitivity)
        done = np.abs(step) <= NEWTON_REL_TOL * x
        _require_rising_law(phi_lam[done])
        lam_flat[todo[done]] = x[done] - step[done]
        left = ~done
        todo, m, x, lo, hi, h, step = (a[left] for a in (todo, m, x, lo, hi, h, step))
        capacity, sensitivity = (v[left] if isinstance(v, np.ndarray) else v
                                 for v in (capacity, sensitivity))
        rising = h > 0.0
        hi = np.where(rising, x, hi)
        lo = np.where(rising, lo, x)
        x = x - step
        x = np.where((lo < x) & (x <= hi), x, 0.5 * (lo + hi))
    if todo.size:
        raise ConvergenceError(f"equilibrium Newton did not converge in {MAX_ROUNDS} rounds")
    return lam


def solve_equilibrium(model: MarketModel, price_user: float, price_cp: float) -> Equilibrium:
    """Unique congestion equilibrium at a price pair.

    Zero demand on either side yields the degenerate equilibrium (congestion
    floor, zero throughput) rather than an error, so full price grids can be
    evaluated corner to corner.
    """
    if not (price_user >= 0 and price_cp >= 0):
        raise DomainError(f"prices must be nonnegative numbers, got p = {price_user}, "
                          f"q = {price_cp}")
    m, n = model.user_demand._level(price_user), model.cp_demand._level(price_cp)
    phi, lam, iterations, degenerate = solve_for_demands(
        model.gain, model.congestion, m, n, model.capacity, model.sensitivity)
    mn = m * n
    eps = 1.0 if mn <= 0.0 else 1.0 / (1.0 - mn * model.gain._slope(phi, model.sensitivity)
                                       * model.congestion._congestion_slope(lam, model.capacity))
    return Equilibrium(
        congestion=phi,
        throughput=lam,
        elasticity=eps,
        gap_residual=abs(lam - mn * model.gain._value(phi, model.sensitivity)),
        iterations=iterations,
        price_user=price_user,
        price_cp=price_cp,
        capacity=model.capacity,
        sensitivity=model.sensitivity,
        user_level=m,
        cp_level=n,
        degenerate=degenerate,
    )


class ComparativeStatics(NamedTuple):
    """Equilibrium responses d(phi)/dx and d(lam)/dx for x in {m, n, mu, p, q}."""

    dphi_dm: float
    dlam_dm: float
    dphi_dn: float
    dlam_dn: float
    dphi_dmu: float
    dlam_dmu: float
    dphi_dp: float
    dlam_dp: float
    dphi_dq: float
    dlam_dq: float
    equilibrium: Equilibrium


# signs implied by a rising-supply / falling-demand crossing
PREDICTED_STATIC_SIGNS = {
    "dphi_dm": 1, "dlam_dm": 1,
    "dphi_dn": 1, "dlam_dn": 1,
    "dphi_dmu": -1, "dlam_dmu": 1,
    "dphi_dp": -1, "dlam_dp": -1,
    "dphi_dq": -1, "dlam_dq": -1,
}


def capacity_response(model: MarketModel, eq: Equilibrium) -> tuple[float, float]:
    """(Phi_mu, lam_mu): the law's capacity partial and lam's response to the
    capacity at a solved, non-degenerate equilibrium."""
    phi_mu = model.congestion._congestion_capacity_slope(eq.throughput, model.capacity)
    t, rho_1 = eq.user_level * eq.cp_level, model.gain._slope(eq.congestion, model.sensitivity)
    return phi_mu, t * rho_1 * phi_mu * eq.elasticity


def throughput_curvature(model: MarketModel, eq: Equilibrium) -> tuple[float, float]:
    """(lam_T, lam_TT): lam's first two derivatives in the demand product T = m n
    at a solved, non-degenerate equilibrium."""
    t = eq.user_level * eq.cp_level
    phi, lam, mu, s = eq.congestion, eq.throughput, model.capacity, model.sensitivity
    lam_t = model.gain._value(phi, s) * eq.elasticity
    rho_1 = model.gain._slope(phi, s)
    phi_1 = model.congestion._congestion_slope(lam, mu)
    d_t = -rho_1 * phi_1 - t * (model.gain._curvature(phi, s) * phi_1 * phi_1
                                + rho_1 * model.congestion._congestion_curvature(lam, mu)) * lam_t
    return lam_t, eq.elasticity * (rho_1 * phi_1 - d_t) * lam_t


def _trace_slope(model: MarketModel, eq: Equilibrium) -> float:
    """d eps / d phi along the capacity trace at a solved, non-degenerate equilibrium."""
    t, eps = eq.user_level * eq.cp_level, eq.elasticity
    phi, lam, mu, s = eq.congestion, eq.throughput, model.capacity, model.sensitivity
    rho_1 = model.gain._slope(phi, s)
    law = model.congestion
    phi_lam = law._congestion_slope(lam, mu)
    law_mu, lam_mu = capacity_response(model, eq)
    phi_mu = phi_lam * lam_mu + law_mu
    if not abs(mu * phi_mu) > TRACE_RESOLUTION * phi:
        raise NumericalError("congestion does not respond to capacity")
    d_mu = -t * (model.gain._curvature(phi, s) * phi_mu * phi_lam
                 + rho_1 * (law._congestion_curvature(lam, mu) * lam_mu
                            + law._congestion_cross_slope(lam, mu)))
    return -d_mu * eps * eps / phi_mu

def comparative_statics(model: MarketModel, price_user: float,
                        price_cp: float) -> ComparativeStatics:
    """Closed-form equilibrium responses at interior prices: dlam/dx = lam_T dT/dx
    for x in {m, n, p, q}, dphi/dx = Phi_lam dlam/dx, and in the capacity
    dlam/dmu = lam_mu, dphi/dmu = Phi_lam lam_mu + Phi_mu."""
    eq = solve_equilibrium(model, price_user, price_cp)
    if eq.degenerate:
        raise DomainError("comparative statics need positive demand on both sides")
    m, n = eq.user_level, eq.cp_level
    phi_mu, lam_mu = capacity_response(model, eq)
    lam_t = model.gain._value(eq.congestion, model.sensitivity) * eq.elasticity
    phi_lam = model.congestion._congestion_slope(eq.throughput, model.capacity)
    dlam_dp = lam_t * model.user_demand._slope(price_user) * n
    dlam_dq = lam_t * m * model.cp_demand._slope(price_cp)
    return ComparativeStatics(
        dphi_dm=phi_lam * lam_t * n,
        dlam_dm=lam_t * n,
        dphi_dn=phi_lam * lam_t * m,
        dlam_dn=lam_t * m,
        dphi_dmu=phi_lam * lam_mu + phi_mu,
        dlam_dmu=lam_mu,
        dphi_dp=phi_lam * dlam_dp,
        dlam_dp=dlam_dp,
        dphi_dq=phi_lam * dlam_dq,
        dlam_dq=dlam_dq,
        equilibrium=eq,
    )
