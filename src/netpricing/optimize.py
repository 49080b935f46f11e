"""Profit-optimal and zero-profit welfare-optimal two-sided prices.

Each optimizer runs a deterministic global stage, then hands its best point
to ``_optimum``, which solves the first-order conditions by projected Newton
from there and builds the ``OptimumReport`` from the accepted iterate and its
equilibrium: the prices, the objective value, the ``held`` and ``boundary``
flags and the residuals.  The scan's axes set the Newton box, each from its
first point to its last (a one-point axis holds that price), and the
fallback step, the widest cell among the axes:

* profit: ``grid_argmax`` on a grid of p x q, then Newton on the analytic
  gradient (dU/dp, dU/dq) over the box the two axes span.  The two-sided
  optimum searches 101 x 101 points of the clamped price box; the one-sided
  one is the same search on 2001 points of p and the one point q = 0, a
  box with no room in q, which holds q there;
* welfare: q = cost - p on the zero-profit segment; ``grid_argmax`` on 2001
  points of p, then Newton on the derivative along the segment,
  dW/dp - dW/dq.  The one-sided welfare benchmark has no freedom left: it
  is (cost, 0).

The global search.  Both objectives are a price-dependent weight times the
throughput, so one search, ``_starts``, is the global stage of every
optimizer and of the ``--verify`` grid oracle (``oracle.grid_optima``).  It
scans each kind at its caller's points (the optimizers' ``_POINTS``, the
oracle's finer ones) and passes every searched optimum of a call (those of
``growth_rates``, a sensitivity, a re-optimization stencil, every row of a
sweep, the oracle's scans) to one ``grid_argmax`` call, each point under its
own model's capacity and sensitivity.  For each stage of each model's search
``grid_argmax`` returns the first maximum of (a_i + b_j - c) lam(m_i n_j) on
a grid in row-major order, value included, exactly as solving every point
would (the exhaustive argmaxes in ``tests/test_oracle.py`` are its
references).  A profit grid passes a = p, b = q, c = cost and m(p), n(q); a
welfare scan is one column, a = s_m + s_n, b = c = 0, m = m(p) n(cost - p),
n = 1.

It is a branch and bound on one throughput table per search.  lam depends
on the prices only through the demand product T and rises with it (at fixed
lam, h(lam) = lam - T rho(Phi(lam, mu)) falls as T rises), so one table
bounds all stages of a search, however few its points:

* table: lam at N + 1 evenly spaced T_k on [0, the largest max m * max n of
  its stages], N the smallest power of two at least 2 ceil(sqrt(P)) for the
  search's P grid points; a falling table raises ``NumericalError``;
* bound: a point's value is at most max(a_i + b_j - c, 0) lam(T_k)
  (1 + ``BOUND_SLACK``), T_k the first node at or above m_i n_j;
* floor: where its margin is nonnegative, its value is at least the same
  weight times lam(T_(k-1)) (1 - ``BOUND_SLACK``).  A stage's best floor is
  its incumbent, so no point is solved to find it.

One ``solve_many`` call solves every search's table, and one more the points
whose bound reaches their stage's incumbent, which ``_kept_points`` finds,
coarse to fine on a grid of more than ``_BLOCKS`` points.

Newton is projected onto the price box: a coordinate at an edge whose
gradient points out of the box is held exactly there, so corner optima
(q* = 0 under a strongly convex content demand) are exact.  The Hessian is
analytic (``objectives.profit_hessian`` and
``objectives.welfare_segment_curvature``, one formula from the curves' second
derivatives), taken from the equilibrium an accepted iterate already solved,
so a step costs one objective evaluation plus any backtracking trials.
Refinement runs in Python floats: the iterate, gradient, box and step are
floats, and the Newton step is ``concave_step``, -H^-1 g on the free
coordinates, which the implicit-function sensitivities share.  Where the
Hessian is not finite or not negative definite the step is one scan cell
along the gradient's signs.  Every step is backtracked on the objective.
Prices are accepted once the free gradient is below
``GRAD_TOL`` or a step moves them less than ``STEP_TOL``; reaching
``NEWTON_MAX_STEPS`` raises ``ConvergenceError``.  When only one coordinate
has room in the box (welfare, one-sided profit) Newton also keeps the
bracket in which its derivative changed sign: a step that would leave it
bisects it instead, and the price is accepted once the bracket is narrower
than ``STEP_TOL``.  This holds a root that sits in a sliver far narrower
than a Newton step's overshoot (a welfare optimum within 1e-9 of p = 0
under a user demand with alpha just below 1).  ``OptimumReport.termination``
records which of these tests ended the run.  The objectives
(``profit_objective``, ``welfare_objective``) are public: the price
sensitivities differentiate the same first-order conditions.

First-order-condition residuals: the KKT residual of hazard equalization
over the prices not held at a box edge, and, for interior optima only, the
Lerner form for profit and the cross-product hazard ratio for welfare; a
residual whose condition does not apply is None, never inf or nan.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .curves import MarketModel
# solve_for_demands is re-exported: perfbench's tracer tests patch and
# restore it in this namespace
from .equilibrium import Equilibrium, solve_for_demands, solve_many  # noqa: F401
from .errors import ConvergenceError, DegenerateBaselineError, DomainError, NumericalError
from .objectives import evaluate_objectives, profit_hessian, welfare_segment_curvature

NEWTON_MAX_STEPS = 50
GRAD_TOL = 1e-10            # free gradient entries at which prices are stationary
STEP_TOL = 1e-13            # price move below which prices are resolved
ROUNDOFF = 4.0 * sys.float_info.epsilon
BOUNDARY_EPS = 1e-6
_CLAMP = 1.0 - 1e-9
_POINTS = {"profit_two_sided": 101, "profit_one_sided": 2001, "welfare_two_sided": 2001}
BOUND_SLACK = 1e-8                  # relative slack of the profit bound: 10x NEWTON_REL_TOL
_BLOCKS = 1 << 14                   # blocks bounded at the coarsest level of a grid
_CHILD_ROWS, _CHILD_COLS = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])  # a block's quarters


def concave_step(hess, g):
    """-H^-1 g for a finite, negative definite 1 x 1 or 2 x 2 matrix H (nested
    sequences), as a tuple; None for any other H.  Definiteness is Sylvester's
    criterion: a negative first entry and a positive determinant.  The 1 x 1
    step is -g / h, which is numpy's 1 x 1 solve bit for bit; the 2 x 2 step
    stays numpy's solve, whose bits no float elimination reproduces."""
    if not all(math.isfinite(v) for row in hess for v in row):
        return None
    if len(hess) == 1:
        return (-g[0] / hess[0][0],) if hess[0][0] < 0.0 else None
    (a, b), (_, c) = hess
    if a < 0.0 and a * c - b * b > 0.0:
        return tuple(np.linalg.solve(hess, [-v for v in g]).tolist())
    return None


def _sign(v: float) -> float:
    """numpy's sign: 0 at 0 and NaN at NaN, where ``math.copysign`` gives +-1."""
    return int(v > 0.0) - int(v < 0.0) if v == v else v


def _projected_newton(objective, hessian, x0, lo, hi, width: float):
    """Maximize over the box [lo, hi] from x0; a coordinate with lo = hi is held.

    ``objective(x)`` returns the value at the point x, its gradient, and the
    report the value came from; ``hessian(report)`` returns the Hessian rows at
    a report's point and is asked only at accepted iterates.  A fallback step
    is ``width`` along the gradient's signs, which stay defined where a
    hazard, and so the gradient, diverges.  The result is (x, its value, its
    report, Newton steps, termination), the termination one of "gradient",
    "step", "bracket" and "no_free_coordinate".
    """
    x = [float(v) for v in x0]
    room = [k for k in range(len(x)) if lo[k] < hi[k]]
    line = room[0] if len(room) == 1 else None
    f, g, report = objective(x)
    a, b = -math.inf, math.inf      # on the line: where g[line] changed sign
    for steps in range(NEWTON_MAX_STEPS):
        free = [k for k in room
                if not ((x[k] <= lo[k] and g[k] <= 0.0) or (x[k] >= hi[k] and g[k] >= 0.0))]
        if not free:
            return x, f, report, steps, "no_free_coordinate"
        # not max(): Python's max keeps or drops a NaN by argument order
        if all(abs(g[k]) <= GRAD_TOL for k in free):
            return x, f, report, steps, "gradient"
        hess = hessian(report)
        step = concave_step([[hess[i][j] for j in free] for i in free], [g[k] for k in free])
        step = dict(zip(free, step or [_sign(g[k]) * width for k in free]))
        d = [step.get(k, 0.0) for k in range(len(x))]
        if not all(math.isfinite(v) for v in d):
            raise ConvergenceError(f"no finite ascent direction at {x}")
        bisect = False
        if line is not None:
            # x[line] is now an end of the bracket and d[line] points into it
            if g[line] > 0.0:
                a = x[line]
            else:
                b = x[line]
            if b - a < STEP_TOL:
                return x, f, report, steps, "bracket"
            if not a < x[line] + d[line] < b:
                d[line], bisect = 0.5 * (a + b) - x[line], True
        t = 1.0
        while True:
            # np.clip's order: on a tie (signed zeros) the bound is kept
            x_new = [min(h, max(l, v + t * dv)) for v, dv, l, h in zip(x, d, lo, hi)]
            if all(abs(v - w) <= STEP_TOL for v, w in zip(x_new, x)):
                return x, f, report, steps, "step"
            f_new, g_new, report_new = objective(x_new)
            # objective differences below round-off carry no information
            if bisect or f_new >= f - ROUNDOFF * abs(f):
                break
            t *= 0.5
        x, f, g, report = x_new, f_new, g_new, report_new
    raise ConvergenceError(
        f"projected Newton did not converge in {NEWTON_MAX_STEPS} steps "
        f"(last point {x}, gradient {list(g)})")


@dataclass(frozen=True)
class PricePair:
    user: float     # p
    cp: float       # q

    def __post_init__(self):
        if not (self.user >= 0 and self.cp >= 0):
            raise DomainError(f"prices must be nonnegative numbers, got p = {self.user}, "
                              f"q = {self.cp}")

    @property
    def total(self) -> float:
        return self.user + self.cp


@dataclass(frozen=True)
class OptimumDiagnostics:
    user_hazard: float
    cp_hazard: float
    elasticity: float
    kkt_residual: float | None = None
    lerner_residual: float | None = None
    ramsey_residual: float | None = None
    user_surplus_per_unit: float | None = None
    cp_surplus_per_unit: float | None = None


@dataclass(frozen=True)
class OptimumReport:
    kind: str                   # profit_two_sided | welfare_two_sided | profit_one_sided | welfare_one_sided
    prices: PricePair
    objective: float
    equilibrium: Equilibrium
    diagnostics: OptimumDiagnostics
    boundary: bool              # optimum pinned at the search box edge; FOC residuals not guaranteed
    held: bool                  # a price is fixed or exactly at a search-set edge; its FOC need not hold
    iterations: int             # Newton steps taken; 0 when nothing is searched
    grid_solves: int            # equilibria solved by the global stage (grid or scan)
    termination: str            # the Newton test that ended the search (``_projected_newton``)


def _hazards(model: MarketModel, eq: Equilibrium) -> tuple[float, float]:
    """Both sides' hazards -m'/m at the equilibrium's prices, m its demand levels."""
    return (-model.user_demand._per_unit(model.user_demand._slope(eq.price_user), eq.user_level),
            -model.cp_demand._per_unit(model.cp_demand._slope(eq.price_cp), eq.cp_level))


def _profit_diagnostics(model: MarketModel, eq: Equilibrium,
                        held: tuple[bool, ...]) -> OptimumDiagnostics:
    """FOC residuals.  ``held`` flags the prices (p, q) held at a box edge: the
    KKT residual skips them, and the Lerner residual is None if either is."""
    p, q = eq.price_user, eq.price_cp
    margin = p + q - model.cost
    mh, nh = _hazards(model, eq)
    eps = eq.elasticity
    focs = [abs(h * margin * eps - 1.0) for h, pinned in zip((mh, nh), held) if not pinned]
    lerner = None if any(held) else abs(margin / (p + q) - 1.0 / (eps * (p * mh + q * nh)))
    return OptimumDiagnostics(
        user_hazard=mh, cp_hazard=nh, elasticity=eps,
        kkt_residual=max(focs, default=0.0), lerner_residual=lerner,
    )


def profit_box(model: MarketModel) -> tuple[float, float]:
    """Upper corner (p_hi, q_hi) of the clamped profit price box; (0, 0) is its lower one."""
    return model.user_demand.support * _CLAMP, model.cp_demand.support * _CLAMP


def _kept_points(a, b, c, m_vals, n_vals, lam: np.ndarray,
                 scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j), row-major, of the points of the grid a x b whose bound
    reaches the grid's best floor (its incumbent), under the throughput table
    ``lam`` at the nodes T_k = k / ``scale``; bound and floor as in the module
    docstring, at k = ceil(m_i n_j scale) (lam[0] at k = 0).

    The incumbent is at most the grid maximum, or 0, which every bound
    reaches, so dropping a point whose bound is below it cannot move the
    first-occurrence argmax.  A grid of more than ``_BLOCKS`` points is
    bounded coarse to fine, in square blocks of a power-of-two side: the
    coarsest side leaves at most ``_BLOCKS`` blocks, whose first points'
    floors give a first incumbent, and each level halves the side of the
    blocks that the last one kept, down to single points, whose best floor
    raises the incumbent before the last cut.  A block is bounded by its
    largest a, b, m and n, which no point's bound exceeds (w rises in a and b,
    lam is nondecreasing and m, n >= 0), so the last cut keeps the points the
    single pass would; they are put back in row-major order.
    """
    upper = lam * (1.0 + BOUND_SLACK)
    lower = np.concatenate((lam[:1], lam[:-1])) * (1.0 - BOUND_SLACK)  # lam[k - 1] at k

    def weight_node(a_i, b_j, mn):
        return np.maximum(a_i + b_j - c, 0.0), np.ceil(mn * scale).astype(np.intp)

    def maxima(side):
        return [v if side == 1 else np.maximum.reduceat(v, np.arange(0, v.size, side))
                for v in (a, b, m_vals, n_vals)]

    side = 1
    while -(-a.size // side) * -(-b.size // side) > _BLOCKS:
        side *= 2
    w, k = weight_node(a[::side, None], b[::side], np.outer(m_vals[::side], n_vals[::side]))
    incumbent = np.max(w * lower.take(k, mode="clip"))     # the blocks' first points
    if side == 1:                   # the points themselves, in np.nonzero's row-major order
        return np.nonzero(w * upper.take(k, mode="clip") >= incumbent)
    rows, cols, m_max, n_max = maxima(side)
    w, k = weight_node(rows[:, None], cols, np.outer(m_max, n_max))
    i, j = np.nonzero(w * upper.take(k, mode="clip") >= incumbent)
    while side > 1:
        side //= 2
        rows, cols, m_max, n_max = maxima(side)
        i = (2 * i[:, None] + _CHILD_ROWS).reshape(-1)
        j = (2 * j[:, None] + _CHILD_COLS).reshape(-1)
        inside = (i < rows.size) & (j < cols.size)
        i, j = i[inside], j[inside]
        w, k = weight_node(rows[i], cols[j], m_max[i] * n_max[j])
        if side == 1:
            incumbent = max(incumbent, np.max(w * lower.take(k, mode="clip")))
        live = w * upper.take(k, mode="clip") >= incumbent
        i, j = i[live], j[live]
    return np.divmod(np.sort(i * b.size + j), b.size)


def grid_argmax(searches) -> list[list[tuple[int, int, float, int]]]:
    """For each search (model, stages) and each of its stages (a, b, c,
    m_vals, n_vals), the first-occurrence argmax (i, j) of
    (a_i + b_j - c) * lam(m_i n_j) on the grid a x b, its value, and the
    equilibria solved for it (a search's table counts in its first stage's),
    in the two ``solve_many`` calls of the module docstring.  The weight rises
    with a_i and b_j, m_vals and n_vals are nonnegative, and the models share
    one gain and one congestion law."""
    if not searches:
        return []
    stages = [stage for _, group in searches for stage in group]
    owners = [k for k, (_, group) in enumerate(searches) for _ in group]

    def solve(mn, owner):
        """lam at each array of demand products in ``mn``, each under the model
        of its search ``owner``, in one solve."""
        sizes = [v.size for v in mn]
        models = [searches[k][0] for k in owner]
        args = [v[0] if len(set(v)) == 1 else np.repeat(v, sizes)
                for v in ([m.capacity for m in models], [m.sensitivity for m in models])]
        return np.split(solve_many(models[0].gain, models[0].congestion, np.concatenate(mn),
                                   *args), np.cumsum(sizes)[:-1])

    heads, scales, counts = [], [], []
    for _, group in searches:
        total = sum(a.size * b.size for a, b, *_ in group)
        steps = 1 << (2 * math.isqrt(total - 1) + 1).bit_length()     # table intervals
        top = max(float(np.max(m) * np.max(n)) for *_, m, n in group)
        heads.append(np.linspace(0.0, top, steps + 1))
        scales.append(steps / top if top > 0.0 else 0.0)
        counts += [(steps + 1) * (g == 0) for g in range(len(group))]
    lams = solve(heads, range(len(searches)))
    if any(np.any(np.diff(lam) < 0.0) for lam in lams):
        raise NumericalError("equilibrium throughput is not monotone in the demand "
                             "product; the congestion equilibrium may not be unique")
    points = [_kept_points(*stage, lams[k], scales[k]) for stage, k in zip(stages, owners)]
    lam = solve([m_vals[i] * n_vals[j] for (i, j), (*_, m_vals, n_vals) in zip(points, stages)],
                owners)
    found = [[] for _ in searches]
    for (i, j), (a, b, c, *_), v, count, k in zip(points, stages, lam, counts, owners):
        values = (a[i] + b[j] - c) * v
        best = int(np.argmax(values))
        found[k].append((int(i[best]), int(j[best]), float(values[best]), count + i.size))
    return found


def profit_objective(model: MarketModel):
    """x = (p, q) -> (U, (dU/dp, dU/dq), report): what ``optimize_profit`` maximizes."""
    def objective(x):
        report = evaluate_objectives(model, float(x[0]), float(x[1]))
        g = report.gradients
        return report.profit, (g.profit_price_user, g.profit_price_cp), report
    return objective


def _optimum(model: MarketModel, kind: str, start) -> OptimumReport:
    """Projected Newton on the ``kind``'s objective from a ``_starts`` entry, in
    the box and with the fallback step its axes set, and the report of where
    it ends."""
    axes, point, _, solved = start
    welfare = kind == "welfare_two_sided"
    objective = (welfare_objective if welfare else profit_objective)(model)
    diagnostics = _welfare_diagnostics if welfare else _profit_diagnostics

    def hessian(r):
        return (((welfare_segment_curvature(model, r.equilibrium),),) if welfare
                else profit_hessian(model, r.equilibrium))
    lo, hi = [float(v[0]) for v in axes], [float(v[-1]) for v in axes]
    width = max((v[-1] - v[0]) / (v.size - 1) for v in axes if v.size > 1)
    x, value, report, steps, termination = _projected_newton(
        objective, hessian, point, lo, hi, width)
    eq = report.equilibrium
    held = tuple(v in (l, h) for v, l, h in zip(x, lo, hi))
    return OptimumReport(
        kind=kind,
        prices=PricePair(eq.price_user, eq.price_cp),
        objective=value,
        equilibrium=eq,
        diagnostics=diagnostics(model, eq, held),
        boundary=any(min(v - l, h - v) < BOUNDARY_EPS
                     for v, l, h in zip(x, lo, hi) if l < h),
        held=any(held),
        iterations=steps,
        grid_solves=solved,
        termination=termination,
    )


def _starts(models, kinds, points=_POINTS) -> list[list[tuple]]:
    """For each model and each of ``kinds``, the axes of its ``_scan`` at
    ``points[kind]``, the best point, its value and the equilibria solved,
    from one ``grid_argmax`` call on every model's scans."""
    scans = [[_scan(model, kind, points[kind]) for kind in kinds] for model in models]
    found = grid_argmax([(model, [stage for _, stage in group])
                         for model, group in zip(models, scans)])
    return [[(axes, tuple(v[k] for v, k in zip(axes, (i, j))), value, solved)
             for (axes, _), (i, j, value, solved) in zip(group, best)]
            for group, best in zip(scans, found)]


def _optima(models, kinds) -> list[list[OptimumReport]]:
    """For each model, the searched optima of ``kinds``: ``_optimum`` from
    each of its ``_starts``, all searched in one call."""
    return [[_optimum(model, kind, start) for kind, start in zip(kinds, starts)]
            for model, starts in zip(models, _starts(models, kinds))]


def _scan(model: MarketModel, kind: str, points: int):
    """The scan axes of a searched optimum and its ``grid_argmax`` stage:
    ``points`` prices per side of the clamped box (q = 0 one-sided), or
    ``points`` user prices on ``welfare_segment`` weighted by s_m + s_n, 0
    where a demand is 0 (no surplus is taken there)."""
    if kind == "welfare_two_sided":
        lo, hi = welfare_segment(model)
        p_axis = np.linspace(lo, hi, points)
        q_axis = model.cost - p_axis
        m_vals = model.user_demand._value(p_axis)
        n_vals = model.cp_demand._value(q_axis)
        weights = np.zeros(points)
        both = (m_vals > 0) & (n_vals > 0)
        weights[both] = (model.user_demand._surplus(p_axis[both]) / m_vals[both]
                         + model.cp_demand._surplus(q_axis[both]) / n_vals[both])
        return (p_axis,), (weights, np.zeros(1), 0.0, m_vals * n_vals, np.ones(1))
    p_hi, q_hi = profit_box(model)
    axes = (np.linspace(0.0, p_hi, points),
            np.linspace(0.0, q_hi, points) if kind == "profit_two_sided" else np.zeros(1))
    return axes, (*axes, model.cost, model.user_demand._value(axes[0]),
                  model.cp_demand._value(axes[1]))


def optimize_profit(model: MarketModel) -> OptimumReport:
    """Two-sided profit maximizer over the clamped price box."""
    return _optima([model], ("profit_two_sided",))[0][0]


def welfare_segment(model: MarketModel) -> tuple[float, float]:
    """Range [lo, hi] of the user price p on the zero-profit segment q = cost - p."""
    c = model.cost
    p_hi_cap, q_hi_cap = profit_box(model)
    if not 0.0 < c < p_hi_cap + q_hi_cap:
        raise DomainError("zero-profit pricing needs 0 < cost < combined support")
    lo, hi = max(0.0, c - q_hi_cap), min(c, p_hi_cap)
    if not lo < hi:
        raise DomainError("empty zero-profit segment")
    return lo, hi


def _welfare_diagnostics(model: MarketModel, eq: Equilibrium,
                         held: tuple[bool]) -> OptimumDiagnostics:
    """Ramsey residual; None when p is held at a segment end (``held``)."""
    mh, nh = _hazards(model, eq)
    s_m = model.user_demand._per_unit(model.user_demand._surplus(eq.price_user), eq.user_level)
    s_n = model.cp_demand._per_unit(model.cp_demand._surplus(eq.price_cp), eq.cp_level)
    eps = eq.elasticity
    share_m = s_m / (s_m + s_n)
    share_n = s_n / (s_m + s_n)
    residual = abs(mh * (eps - 1.0 + share_n) - nh * (eps - 1.0 + share_m))
    return OptimumDiagnostics(
        user_hazard=mh, cp_hazard=nh, elasticity=eps,
        ramsey_residual=None if any(held) else residual / max(mh, nh),
        user_surplus_per_unit=s_m, cp_surplus_per_unit=s_n,
    )


def welfare_objective(model: MarketModel):
    """x = (p,) -> (W_m + W_n, (dW/dp - dW/dq,), report) along q = cost - p:
    what ``optimize_welfare`` maximizes."""
    c = model.cost

    def objective(x):
        report = evaluate_objectives(model, float(x[0]), c - float(x[0]))
        g = report.gradients
        return report.surplus_welfare, (g.welfare_price_user - g.welfare_price_cp,), report
    return objective


def optimize_welfare(model: MarketModel) -> OptimumReport:
    """Welfare maximizer on the zero-profit segment p + q = cost: a scan of
    user prices on it, then ``_optimum`` along the segment from its best point."""
    return _optima([model], ("welfare_two_sided",))[0][0]


def optimize_one_sided(model: MarketModel, kind: str) -> OptimumReport:
    """Benchmarks with the content side priced at zero.

    ``kind="profit"`` searches the user price; ``kind="welfare"`` is fully
    pinned by the zero-profit constraint at (cost, 0).
    """
    if kind == "profit":
        return _optima([model], ("profit_one_sided",))[0][0]
    if kind == "welfare":
        p, user, cp = model.cost, model.user_demand, model.cp_demand
        report = evaluate_objectives(model, p, 0.0)
        eq = report.equilibrium
        mh = -user._per_unit(user._slope(p), eq.user_level) if p < user.support else math.inf
        return OptimumReport(
            kind="welfare_one_sided",
            prices=PricePair(p, 0.0),
            objective=report.surplus_welfare,
            equilibrium=eq,
            diagnostics=OptimumDiagnostics(
                user_hazard=mh,
                cp_hazard=-cp._per_unit(cp._slope(0.0), eq.cp_level),
                elasticity=eq.elasticity,
            ),
            boundary=True,      # the constraint leaves no interior freedom
            held=True,
            iterations=0,
            grid_solves=0,
            termination="no_free_coordinate",
        )
    raise DomainError(f"unknown one-sided kind {kind!r}")


@dataclass(frozen=True)
class GrowthRates:
    """Relative gains of two-sided over one-sided pricing."""

    profit_growth: float        # r* = (U_two - U_one) / U_one
    welfare_growth: float       # (W_two - W_one) / W_one
    profit_two_sided: OptimumReport
    profit_one_sided: OptimumReport
    welfare_two_sided: OptimumReport
    welfare_one_sided: OptimumReport


_GROWTH_KINDS = ("profit_two_sided", "profit_one_sided", "welfare_two_sided")


def growth_rates(model: MarketModel) -> GrowthRates:
    """All four optima plus both growth rates; errors on a degenerate baseline."""
    return _growth_rates(model, _starts([model], _GROWTH_KINDS)[0])


def _growth_rates(model: MarketModel, starts) -> GrowthRates:
    """``growth_rates`` from the model's ``_starts`` of ``_GROWTH_KINDS``."""
    profit_two, profit_one, welfare_two = (
        _optimum(model, kind, start) for kind, start in zip(_GROWTH_KINDS, starts))
    welfare_one = optimize_one_sided(model, "welfare")
    if profit_one.objective <= 0.0:
        raise DegenerateBaselineError(
            f"one-sided profit optimum is {profit_one.objective}; growth rate undefined")
    if welfare_one.objective <= 0.0:
        raise DegenerateBaselineError(
            f"one-sided welfare benchmark is {welfare_one.objective}; growth rate undefined")
    return GrowthRates(
        profit_growth=(profit_two.objective - profit_one.objective) / profit_one.objective,
        welfare_growth=(welfare_two.objective - welfare_one.objective) / welfare_one.objective,
        profit_two_sided=profit_two,
        profit_one_sided=profit_one,
        welfare_two_sided=welfare_two,
        welfare_one_sided=welfare_one,
    )
