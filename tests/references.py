"""Finite-difference references for the closed-form second derivatives.

The library takes its Newton Hessians and its elasticity trace slope in
closed form; these are the brute-force routes they replaced, kept here to
check them.
"""

import numpy as np

from netpricing import solve_equilibrium
from netpricing.curves import with_parameter
from netpricing.errors import NumericalError

HESSIAN_STEP = 1e-6         # relative step of the gradient's central difference
TRACE_REL_STEP = 1e-3       # relative capacity step of the trace stencil


def differenced_hessian(objective, x: np.ndarray, free: np.ndarray,
                        lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Symmetrized central difference of the objective's gradient on the free
    coordinates, at a relative step of ``HESSIAN_STEP`` clipped to [lo, hi]."""
    idx = np.flatnonzero(free)
    hess = np.empty((idx.size, idx.size))
    for col, j in enumerate(idx):
        h = HESSIAN_STEP * max(1.0, abs(x[j]))
        up, down = x.copy(), x.copy()
        up[j], down[j] = min(x[j] + h, hi[j]), max(x[j] - h, lo[j])
        hess[:, col] = (np.asarray(objective(up)[1])[idx]
                        - np.asarray(objective(down)[1])[idx]) / (up[j] - down[j])
    return 0.5 * (hess + hess.T)


def stencil_trace_slope(model, price_user: float, price_cp: float,
                        rel_step: float = TRACE_REL_STEP) -> float:
    """d eps / d phi along the capacity trace: a least-squares line through the
    (phi, eps) pairs of five equilibria at capacity (1 + k rel_step) mu, k = -2..2."""
    pairs = []
    for k in (-2, -1, 0, 1, 2):
        mu = model.capacity * (1.0 + rel_step * k)
        eq = solve_equilibrium(with_parameter(model, "capacity", mu), price_user, price_cp)
        pairs.append((eq.congestion, eq.elasticity))
    phis = np.array([p for p, _ in pairs])
    epss = np.array([e for _, e in pairs])
    if np.max(np.abs(phis - phis[2])) < 1e-10:
        raise NumericalError("congestion did not respond to the capacity stencil")
    dphi = phis - phis.mean()
    deps = epss - epss.mean()
    return float(np.dot(dphi, deps) / np.dot(dphi, dphi))
