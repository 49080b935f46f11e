"""Congestion equilibrium of the two-sided system and its comparative statics.

At prices (p, q) the demand sides contribute m(p) and n(q); congestion phi
settles where the throughput the network carries at phi equals the
throughput demanded at phi:

    gap(phi) = Lambda(phi, mu) - m * n * rho(phi, s) = 0.

The gap is strictly increasing (supply rises with congestion, demand falls),
so the root is unique and bracketed bisection is unconditionally safe.
The bracket starts a hair above the zero-throughput congestion floor, where
the gap is nonpositive, and expands geometrically until the gap turns
positive.

``throughput_elasticity`` is the relative congestion elasticity of demand
versus supply,

    eps = (1 + m*n*|d rho/d phi| / (d Lambda/d phi))**-1  in (0, 1],

and ``comparative_statics`` evaluates the closed-form responses of the
equilibrium congestion and throughput to the demand levels, the capacity,
and the two prices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CongestionCurve, GainCurve, MarketModel
from .errors import BracketError, ConvergenceError, DomainError

BISECT_REL_TOL = 1e-15          # interval width relative to max(1, phi)
BRACKET_EXPANSIONS = 200
FLOOR_NUDGE = 1e-14
VECTOR_MAX_ROUNDS = 130         # bisection rounds of solve_many


@dataclass(frozen=True)
class Equilibrium:
    """Solved congestion state for one (p, q) price pair."""

    congestion: float           # phi
    throughput: float           # lam = m * n * rho(phi)
    elasticity: float           # throughput elasticity, in (0, 1]
    gap_residual: float         # |Lambda(phi, mu) - lam|
    iterations: int
    price_user: float
    price_cp: float
    capacity: float
    sensitivity: float
    user_level: float           # m(p)
    cp_level: float             # n(q)
    degenerate: bool            # zero demand on at least one side


def solve_for_demands(gain: GainCurve, congestion: CongestionCurve,
                      user_level: float, cp_level: float,
                      capacity: float, sensitivity: float) -> tuple[float, float, int, bool]:
    """Root of the gap function for raw demand levels; returns (phi, lam, iters, degenerate)."""
    floor = congestion.congestion_floor(capacity)
    if user_level <= 0.0 or cp_level <= 0.0:
        return floor, 0.0, 0, True
    mn = user_level * cp_level

    def gap(phi: float) -> float:
        return (congestion.implied_throughput(phi, capacity)
                - mn * gain.value(phi, sensitivity))

    lo = floor + FLOOR_NUDGE
    hi = max(2.0 * lo, 1.0)
    iterations = 0
    while gap(hi) <= 0.0:
        hi *= 2.0
        iterations += 1
        if iterations > BRACKET_EXPANSIONS:
            raise BracketError(
                "could not bracket the equilibrium congestion; a custom curve "
                "is likely not monotone or the gain does not decay")
    if gap(lo) > 0.0:
        # root pinned at the floor (vanishing demand already at zero traffic)
        hi = lo
    while (hi - lo) > BISECT_REL_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        iterations += 1
    phi = 0.5 * (lo + hi)
    lam = mn * gain.value(phi, sensitivity)
    return phi, lam, iterations, False


def solve_many(gain: GainCurve, congestion: CongestionCurve, mn: np.ndarray,
               capacity: float, sensitivity: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized gap-function bisection over an array of demand products.

    Backs the dense-grid oracle and the scan stages of the optimizers.
    Failing to converge in ``VECTOR_MAX_ROUNDS`` raises ``ConvergenceError``.
    """
    mn = np.asarray(mn, dtype=float)
    floor = congestion.congestion_floor(capacity)
    active = mn > 0.0
    phi = np.full(mn.shape, floor, dtype=float)
    if not np.any(active):
        return phi, np.zeros_like(phi)
    mna = mn[active]
    lo = np.full(mna.shape, floor + FLOOR_NUDGE)
    hi = np.full(mna.shape, max(2.0 * (floor + FLOOR_NUDGE), 1.0))

    def gap(x: np.ndarray) -> np.ndarray:
        return (congestion.implied_throughput(x, capacity)
                - mna * gain.value(x, sensitivity))

    for _ in range(BRACKET_EXPANSIONS):
        low = gap(hi) <= 0.0
        if not np.any(low):
            break
        hi = np.where(low, hi * 2.0, hi)
    else:
        raise BracketError("vectorized bracketing failed")
    for rounds in range(VECTOR_MAX_ROUNDS + 1):
        if np.all((hi - lo) <= BISECT_REL_TOL * np.maximum(1.0, hi)):
            break
        if rounds == VECTOR_MAX_ROUNDS:
            raise ConvergenceError(
                f"vectorized bisection did not converge in {VECTOR_MAX_ROUNDS} rounds")
        mid = 0.5 * (lo + hi)
        high = gap(mid) > 0.0
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    phi_active = 0.5 * (lo + hi)
    phi[active] = phi_active
    lam = np.zeros_like(phi)
    lam[active] = mna * gain.value(phi_active, sensitivity)
    return phi, lam


def _elasticity_at(gain: GainCurve, congestion: CongestionCurve, mn: float,
                   phi: float, capacity: float, sensitivity: float) -> float:
    if mn <= 0.0:
        return 1.0
    demand_slope = mn * abs(gain.slope(phi, sensitivity))
    supply_slope = congestion.throughput_slope(phi, capacity)
    return 1.0 / (1.0 + demand_slope / supply_slope)


def solve_equilibrium(model: MarketModel, price_user: float, price_cp: float) -> Equilibrium:
    """Unique congestion equilibrium at a price pair.

    Zero demand on either side yields the degenerate equilibrium (congestion
    floor, zero throughput) rather than an error, so full price grids can be
    evaluated corner to corner.
    """
    if price_user < 0 or price_cp < 0:
        raise DomainError("prices must be nonnegative")
    m, n = model.demands(price_user, price_cp)
    phi, lam, iterations, degenerate = solve_for_demands(
        model.gain, model.congestion, m, n, model.capacity, model.sensitivity)
    supply = model.congestion.implied_throughput(phi, model.capacity)
    eps = _elasticity_at(model.gain, model.congestion, m * n, phi,
                         model.capacity, model.sensitivity)
    return Equilibrium(
        congestion=phi,
        throughput=lam,
        elasticity=eps,
        gap_residual=abs(supply - lam),
        iterations=iterations,
        price_user=price_user,
        price_cp=price_cp,
        capacity=model.capacity,
        sensitivity=model.sensitivity,
        user_level=m,
        cp_level=n,
        degenerate=degenerate,
    )


def throughput_elasticity(model: MarketModel, eq: Equilibrium) -> float:
    """Recompute the throughput elasticity at a solved equilibrium."""
    return _elasticity_at(model.gain, model.congestion,
                          eq.user_level * eq.cp_level, eq.congestion,
                          model.capacity, model.sensitivity)


@dataclass(frozen=True)
class ComparativeStatics:
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


def gap_slope(model: MarketModel, mn: float, phi: float) -> float:
    """d gap / d phi = supply slope minus (negative) demand slope; positive."""
    return (model.congestion.throughput_slope(phi, model.capacity)
            - mn * model.gain.slope(phi, model.sensitivity))


def comparative_statics(model: MarketModel, price_user: float,
                        price_cp: float) -> ComparativeStatics:
    """Closed-form equilibrium responses at interior prices."""
    eq = solve_equilibrium(model, price_user, price_cp)
    if eq.degenerate:
        raise DomainError("comparative statics need positive demand on both sides")
    m, n, phi, lam = eq.user_level, eq.cp_level, eq.congestion, eq.throughput
    dg = gap_slope(model, m * n, phi)
    supply_slope = model.congestion.throughput_slope(phi, model.capacity)
    cap_slope = model.congestion.capacity_slope(phi, model.capacity)
    gain_slope = model.gain.slope(phi, model.sensitivity)
    user_hazard = model.user_demand.hazard(price_user)
    cp_hazard = model.cp_demand.hazard(price_cp)

    dphi_dm = lam / (m * dg)
    dphi_dn = lam / (n * dg)
    dphi_dmu = -cap_slope / dg
    dphi_dp = -lam * user_hazard / dg
    dphi_dq = -lam * cp_hazard / dg
    return ComparativeStatics(
        dphi_dm=dphi_dm,
        dlam_dm=supply_slope * dphi_dm,
        dphi_dn=dphi_dn,
        dlam_dn=supply_slope * dphi_dn,
        dphi_dmu=dphi_dmu,
        dlam_dmu=m * n * gain_slope * dphi_dmu,
        dphi_dp=dphi_dp,
        dlam_dp=supply_slope * dphi_dp,
        dphi_dq=dphi_dq,
        dlam_dq=supply_slope * dphi_dq,
        equilibrium=eq,
    )
