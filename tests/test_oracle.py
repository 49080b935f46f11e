"""Brute-force reference routes: grid argmax, damped fixed point, differences."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netpricing.optimize as optimize_mod
import netpricing.oracle as oracle_mod
import netpricing.sensitivity as sensitivity_mod
from netpricing import (CapacitySharing, CpPowerDemand, CustomCongestion,
                        CustomDemand, CustomGain, ExponentialGain,
                        MarketModel, MM1Queue, ReciprocalGain, UserPowerDemand,
                        baseline_model, fixed_point_equilibrium,
                        grid_optimize, growth_rates, optimal_price_sensitivity,
                        optimize_profit, optimize_welfare, solve_equilibrium)
from netpricing.curves import parameter_value, with_parameter
from netpricing.equilibrium import solve_many
from netpricing.errors import DomainError, NumericalError
from netpricing.experiments import verify_optima
from netpricing.oracle import reoptimized_price_derivatives
from references import finite_difference

BUILTIN_LAWS = {"sharing": CapacitySharing(), "mm1": MM1Queue()}
_ROWS_PER_BLOCK = 128
BOX_HI = 1.0 - 1e-9         # the clamped price box edge of a demand with support 1


def axis(points, lo=0.0, hi=BOX_HI):
    """``points`` evenly spaced prices on [lo, hi], by default a box side."""
    return np.linspace(lo, hi, points)


def vanishing_demand_model(cost):
    """No user demand above p = 0.5, below the user support bound 1."""
    return MarketModel(
        gain=ReciprocalGain(), congestion=CapacitySharing(),
        user_demand=CustomDemand(lambda p: np.maximum(0.5 - p, 0.0)),
        cp_demand=CpPowerDemand(beta=1.0), cost=cost)


def profit_grid_argmax(model, p_axis, q_axis):
    """``optimize.grid_argmax`` of the profit on the grid p_axis x q_axis."""
    [[found]] = optimize_mod.grid_argmax([(model, [profit_stage(model, p_axis, q_axis)])])
    return found


def profit_stage(model, p_axis, q_axis):
    """The ``grid_argmax`` stage of the profit on the grid p_axis x q_axis."""
    return (p_axis, q_axis, model.cost, model.user_demand.value(p_axis),
            model.cp_demand.value(q_axis))


def test_fixed_point_closed_forms():
    model = baseline_model(capacity=0.5)
    assert abs(fixed_point_equilibrium(model, 0.0, 0.0) - 1.0) <= 1e-10
    mm1 = baseline_model(congestion=MM1Queue(), capacity=2.0)
    assert abs(fixed_point_equilibrium(mm1, 0.0, 0.0) - 1.0 / math.sqrt(2)) <= 1e-10


def test_fixed_point_agrees_with_bisection():
    rng = np.random.default_rng(79)
    for _ in range(400):
        model = baseline_model(
            gain=ReciprocalGain() if rng.random() < 0.5 else ExponentialGain(),
            congestion=CapacitySharing() if rng.random() < 0.5 else MM1Queue(),
            alpha=float(rng.uniform(0.5, 2.0)), beta=float(rng.uniform(0.5, 2.0)),
            capacity=float(rng.uniform(0.4, 5.0)),
            sensitivity=float(rng.uniform(0.5, 3.0)))
        p, q = float(rng.uniform(0.0, 0.8)), float(rng.uniform(0.0, 0.8))
        phi_fp = fixed_point_equilibrium(model, p, q)
        phi_bi = solve_equilibrium(model, p, q).congestion
        assert abs(phi_fp - phi_bi) <= 1e-10 * max(1.0, phi_bi)


def test_fixed_point_restarts_from_solution():
    model = baseline_model(capacity=1.3, sensitivity=2.0)
    phi = solve_equilibrium(model, 0.2, 0.3).congestion
    assert abs(fixed_point_equilibrium(model, 0.2, 0.3, start=phi) - phi) <= 1e-12


def test_fixed_point_zero_demand_floor():
    model = baseline_model(congestion=MM1Queue(), capacity=2.0)
    assert fixed_point_equilibrium(model, 1.0, 0.0) == 0.5


def test_finite_difference_known_values():
    assert finite_difference(lambda x: x * x, 3.0) == pytest.approx(6.0, abs=1e-8)
    gain = ReciprocalGain()
    assert finite_difference(lambda f: gain.value(f, 1.0), 1.0) == pytest.approx(
        -0.25, abs=1e-6)
    demand = UserPowerDemand(alpha=2.0)
    # d/dp (1 - sqrt(p)) at 0.25 = -(1/2) * 0.25^(-1/2) = -1
    assert finite_difference(demand.value, 0.25, rel_step=1e-6) == pytest.approx(
        -1.0, abs=1e-6)


def test_grid_profit_symmetric_baseline():
    i, j, _, _ = profit_grid_argmax(baseline_model(), axis(321), axis(321))
    assert i == j


def test_grid_welfare_symmetric_baseline():
    best = grid_optimize(baseline_model(), "welfare")
    assert abs(best.price_user - 0.35) <= best.cell_user
    assert best.price_cp == pytest.approx(0.7 - best.price_user, abs=1e-15)


def test_grid_welfare_is_zero_where_a_demand_vanishes():
    # no user demand above p = 0.5, so the segment's upper part has no
    # surplus per unit; the scan must score it 0, not nan
    model = vanishing_demand_model(cost=0.9)
    best = grid_optimize(model, "welfare")
    assert math.isfinite(best.value) and best.value > 0.0
    assert min(model.demands(best.price_user, best.price_cp)) > 0.0
    verify_optima(model, optimize_profit(model), optimize_welfare(model))


def test_grid_respects_explicit_ranges_and_validates():
    assert_exact(baseline_model(), axis(51, 0.5, 0.7), axis(51, 0.5, 0.7))
    with pytest.raises(DomainError):
        grid_optimize(baseline_model(), "nonsense")


# ---------------------------------------------------------------------------
# the pruned profit argmax against an exhaustive evaluation
# ---------------------------------------------------------------------------

def exhaustive_stage_argmax(model, a, b, c, m_vals, n_vals):
    """Solve every point of a ``grid_argmax`` stage's grid a x b and keep the
    first maximum (i, j, value) of (a_i + b_j - c) * lam(m_i n_j) in
    row-major order, as ``np.argmax`` does; rows go in blocks to bound memory."""
    best_value, best_k = -math.inf, 0
    for row0 in range(0, a.size, _ROWS_PER_BLOCK):
        rows = slice(row0, row0 + _ROWS_PER_BLOCK)
        lam = solve_many(model.gain, model.congestion,
                         np.outer(m_vals[rows], n_vals).reshape(-1),
                         model.capacity, model.sensitivity)
        values = (a[rows, None] + b[None, :] - c).reshape(-1) * lam
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value, best_k = float(values[k]), row0 * b.size + k
    i, j = divmod(best_k, b.size)
    return i, j, best_value


def exhaustive_argmax(model, p_axis, q_axis):
    """``exhaustive_stage_argmax`` of the profit on the grid p_axis x q_axis."""
    return exhaustive_stage_argmax(model, *profit_stage(model, p_axis, q_axis))


def assert_exact(model, p_axis, q_axis):
    """The profit ``grid_argmax`` equals the exhaustive argmax bit for bit
    (signed zeros included); returns its value and solve count."""
    i, j, value, solved = profit_grid_argmax(model, p_axis, q_axis)
    want_i, want_j, want_value = exhaustive_argmax(model, p_axis, q_axis)
    assert (i, j, value.hex()) == (want_i, want_j, want_value.hex())
    return value, solved


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(gain=st.sampled_from([ReciprocalGain(), ExponentialGain()]),
       law=st.sampled_from(sorted(BUILTIN_LAWS)),
       alpha=st.floats(0.3, 3.0), beta=st.floats(0.2, 3.0), cost=st.floats(0.0, 1.95),
       capacity=st.floats(0.3, 6.0), sensitivity=st.floats(0.3, 3.0),
       points=st.tuples(st.sampled_from([3, 4, 51, 201, 362, 401]),
                        st.sampled_from([3, 5, 17, 101, 257])),
       window=st.one_of(st.none(), st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 0.9))))
def test_pruned_profit_argmax_is_exhaustive(gain, law, alpha, beta, cost, capacity,
                                            sensitivity, points, window):
    model = baseline_model(gain=gain, congestion=BUILTIN_LAWS[law], alpha=alpha, beta=beta,
                           cost=cost, capacity=capacity, sensitivity=sensitivity)
    ranges = [()] * 2 if window is None else [(w, w + 0.1) for w in window]
    assert_exact(model, axis(points[0], *ranges[0]), axis(points[1], *ranges[1]))


@pytest.mark.parametrize("grid", [
    (axis(3), axis(3)),
    (axis(3), axis(401)),
    (axis(301, 0.2, 0.3), axis(3)),
    (axis(101, 0.5, 0.7), axis(101, 0.0, 0.05)),
])
def test_pruned_profit_argmax_on_sub_ranges_and_three_point_axes(grid):
    assert_exact(baseline_model(beta=2.0, capacity=0.8), *grid)


@pytest.mark.parametrize("gain", [ReciprocalGain(), ExponentialGain()])
@pytest.mark.parametrize("law", sorted(BUILTIN_LAWS))
def test_optimizers_own_grids_are_exhaustive(gain, law):
    # optimize_profit's 101 x 101 grid and optimize_one_sided's 2001 points
    # of p at q = 0, each pruned by its table (256 and 128 intervals): each
    # solves its table and the points whose bound reaches its best floor
    model = baseline_model(gain=gain, congestion=BUILTIN_LAWS[law], beta=1.6, cost=0.5)
    p_hi, q_hi = optimize_mod.profit_box(model)
    for p_axis, q_axis, steps in [
            (np.linspace(0.0, p_hi, 101), np.linspace(0.0, q_hi, 101), 256),
            (np.linspace(0.0, p_hi, 2001), np.zeros(1), 128)]:
        i, j, value, count = profit_grid_argmax(model, p_axis, q_axis)
        want_i, want_j, want_value = exhaustive_argmax(model, p_axis, q_axis)
        assert (i, j, value.hex()) == (want_i, want_j, want_value.hex())
        kept = bounded_count(model, profit_stage(model, p_axis, q_axis), steps)
        assert count == steps + 1 + kept < 1000


def scalar_custom_models():
    """A model with a gain that only takes floats, and one with a law whose
    inverse is bisected for."""
    gain = CustomGain(lambda phi, s: math.exp(-s * (0.5 * phi + 0.1 * phi * phi)))
    law = CustomCongestion(lambda lam, mu: (lam + 0.2 * lam * lam) / mu)
    return [baseline_model(gain=gain, beta=2.0), baseline_model(congestion=law, capacity=0.7)]


def test_pruned_profit_argmax_with_scalar_custom_curves():
    for model in scalar_custom_models():
        assert_exact(model, axis(101), axis(101))


def test_cost_above_every_margin_prunes_nothing():
    # every margin is negative, so every floor is 0, the incumbent too, and
    # every bound (0) reaches it: every point is solved
    value, solved = assert_exact(baseline_model(cost=1.5), axis(301, 0.0, 0.5),
                                 axis(301, 0.0, 0.5))
    assert value < 0.0
    # a table of 1024 intervals (the first power of two >= 2 * 301)
    assert solved == 1024 + 1 + 301 * 301


def test_grid_without_demand_prunes_nothing():
    # no user demand above p = 0.5: every throughput, and so the largest
    # demand product, is 0, and the first point's profit is -0.0
    model = vanishing_demand_model(cost=0.7)
    # the table is flat at 0, so every bound and floor is 0 and no point is pruned
    value, solved = assert_exact(model, axis(5, 0.6, 0.9), axis(5))
    assert value.hex() == "-0x0.0p+0"
    assert solved == 16 + 1 + 5 * 5
    value, solved = assert_exact(model, axis(401, 0.6, 0.9), axis(257))
    assert value.hex() == "-0x0.0p+0"
    assert solved == 1024 + 1 + 401 * 257


def stage_table(model, stage, steps):
    """A stage's throughput table of ``steps`` intervals on [0, max m * max n]
    (lam at its nodes), its nodes per unit demand product, and each grid
    point's node k: the first at or above m_i n_j, or the last node."""
    *_, m_vals, n_vals = stage
    top = float(np.max(m_vals) * np.max(n_vals))
    scale = steps / top if top > 0.0 else 0.0
    lam = solve_many(model.gain, model.congestion, np.linspace(0.0, top, steps + 1),
                     model.capacity, model.sensitivity)
    k = np.minimum(np.ceil(np.outer(m_vals, n_vals) * scale).astype(np.intp), steps)
    return lam, scale, k


def profit_bound(model, stage, steps):
    """The bound of every point of a stage's grid under a table of ``steps``
    intervals, worked out point by point: max(a_i + b_j - c, 0) lam(T_k),
    slack added."""
    a, b, c, *_ = stage
    lam, _, k = stage_table(model, stage, steps)
    return np.maximum(a[:, None] + b[None, :] - c, 0.0) * (
        lam * (1.0 + optimize_mod.BOUND_SLACK))[k]


def profit_floor(model, stage, steps):
    """The floor of every point of a stage's grid, worked out point by point:
    the bound's weight times lam at the node below its T_k (node 0 at node
    0), slack taken off."""
    a, b, c, *_ = stage
    lam, _, k = stage_table(model, stage, steps)
    return np.maximum(a[:, None] + b[None, :] - c, 0.0) * (
        lam * (1.0 - optimize_mod.BOUND_SLACK))[np.maximum(k - 1, 0)]


def bounded_count(model, stage, steps):
    """How many points of a stage's grid have a bound that reaches its best floor."""
    return np.count_nonzero(profit_bound(model, stage, steps)
                            >= np.max(profit_floor(model, stage, steps)))


@pytest.mark.parametrize("grid, steps", [
    ((axis(3), axis(3)), 8),                # 2 * ceil(sqrt(9)) = 6 -> 8 table intervals
    ((axis(6), axis(3)), 16),               # 2 * ceil(sqrt(18)) = 10 -> 16
    ((axis(18, 0.6, 0.95), axis(1, 0.3, 0.3)), 16),        # a line
    ((axis(19, 0.6, 0.95), axis(1, 0.3, 0.3)), 16),
])
def test_a_grid_smaller_than_its_table_is_bounded_too(grid, steps):
    # however few its points, a search solves its table and the points whose
    # bound reaches the best floor
    model = baseline_model(beta=2.0)
    kept = bounded_count(model, profit_stage(model, *grid), steps)
    assert assert_exact(model, *grid)[1] == steps + 1 + kept


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(family=st.sampled_from(["builtin", "custom_gain", "custom_law", "vanishing"]),
       builtin=st.builds(baseline_model,
                         gain=st.sampled_from([ReciprocalGain(), ExponentialGain()]),
                         congestion=st.sampled_from(list(BUILTIN_LAWS.values())),
                         alpha=st.floats(0.3, 3.0), beta=st.floats(0.2, 3.0),
                         cost=st.floats(0.05, 1.9), capacity=st.floats(0.3, 6.0),
                         sensitivity=st.floats(0.3, 3.0)),
       cost=st.floats(0.05, 1.4),
       kind=st.sampled_from(["grid", "welfare"]),
       points=st.tuples(st.sampled_from([1, 3, 18, 41, 101]), st.sampled_from([1, 3, 19, 41])),
       steps=st.sampled_from([8, 256, 4096]),
       blocks=st.sampled_from([optimize_mod._BLOCKS, 64]))
def test_the_floor_is_a_bound(family, builtin, cost, kind, points, steps, blocks):
    # every point with a nonnegative margin is worth at least its floor, and
    # a point with a negative one has a floor of 0; so the best floor (the
    # incumbent) is at most the grid maximum, or 0, which every bound reaches
    model = {"builtin": builtin, "custom_gain": scalar_custom_models()[0],
             "custom_law": scalar_custom_models()[1],
             "vanishing": vanishing_demand_model(cost)}[family]
    if kind == "grid":
        stage = profit_stage(model, axis(points[0]), axis(points[1]))
    else:
        stage = optimize_mod._scan(model, "welfare_two_sided", points[0] * points[1])[1]
    a, b, c, m_vals, n_vals = stage
    margin = a[:, None] + b[None, :] - c
    values = margin * solve_many(model.gain, model.congestion, np.outer(m_vals, n_vals),
                                 model.capacity, model.sensitivity)
    floor = profit_floor(model, stage, steps)
    assert np.all(values[margin >= 0.0] >= floor[margin >= 0.0])
    assert not floor[margin < 0.0].any()
    incumbent = np.max(floor)
    assert incumbent <= np.max(values) or incumbent == 0.0
    # and it is the incumbent that the single pass or the block pass keeps to
    lam, scale, _ = stage_table(model, stage, steps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize_mod, "_BLOCKS", blocks)
        kept = optimize_mod._kept_points(*stage, lam, scale)
    want = np.nonzero(profit_bound(model, stage, steps) >= incumbent)
    assert all(np.array_equal(k, w) for k, w in zip(kept, want))


@pytest.mark.parametrize("blocks", [optimize_mod._BLOCKS, 1])
def test_a_bound_within_the_slack_of_the_best_floor_is_kept(monkeypatch, blocks):
    # a table lam(T_k) = k at T_k = k; the last point's floor, lam(T_2) = 2
    # less the slack, is the best; the middle point's bound, at the same
    # node, is between that floor and 2, the one below it just under the floor
    slack = optimize_mod.BOUND_SLACK
    a = np.array([1.0 - 2.5 * slack, 1.0 - 1.5 * slack, 1.0])
    stage = (a, np.zeros(1), 0.0, np.array([2.0, 2.0, 3.0]), np.ones(1))
    bounds = a * (2.0 * (1.0 + slack))
    assert bounds[0] < 2.0 * (1.0 - slack) < bounds[1] < 2.0
    monkeypatch.setattr(optimize_mod, "_BLOCKS", blocks)
    i, j = optimize_mod._kept_points(*stage, np.arange(5.0), 1.0)
    assert i.tolist() == [1, 2] and j.tolist() == [0, 0]


def test_non_monotone_throughput_table_raises(monkeypatch):
    calls = []

    def dented(gain, congestion, mn, capacity, sensitivity):
        lam = solve_many(gain, congestion, mn, capacity, sensitivity)
        if not calls:            # the first solve: the table alone
            lam[lam.size // 2] = 0.0
        calls.append(lam.size)
        return lam
    monkeypatch.setattr(optimize_mod, "solve_many", dented)
    with pytest.raises(NumericalError, match="not monotone"):
        profit_grid_argmax(baseline_model(), axis(201), axis(201))
    assert calls == [512 + 1]


@pytest.mark.parametrize("gain", [ReciprocalGain(), ExponentialGain()])
@pytest.mark.parametrize("law", sorted(BUILTIN_LAWS))
def test_baseline_grids_solve_under_a_quarter_percent(gain, law):
    _, solved = assert_exact(baseline_model(gain=gain, congestion=BUILTIN_LAWS[law]),
                             axis(2001), axis(2001))
    assert solved < 0.0025 * 2001 * 2001


def mixed_stage(model, kind, points):
    """A ``grid_argmax`` stage of one of the shapes that a shared call mixes."""
    if kind == "grid":          # the profit on a 2-D grid
        return profit_stage(model, axis(points), axis(min(points, 51)))
    if kind == "line":          # the profit on one axis, at q = 0
        return profit_stage(model, axis(points), np.zeros(1))
    if kind == "vanishing":     # no user demand from its support p = 1 on
        return profit_stage(model, axis(points, 0.0, 2.0), axis(3))
    weights, zero, c, mn, one = optimize_mod._scan(model, "welfare_two_sided", points)[1]
    if kind == "welfare_column":
        return weights, zero, c, mn, one
    return zero, weights, c, one, mn            # the same welfare as one row


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(gain=st.sampled_from([ReciprocalGain(), ExponentialGain()]),
       law=st.sampled_from(sorted(BUILTIN_LAWS)),
       alpha=st.floats(0.3, 3.0), beta=st.floats(0.2, 3.0), cost=st.floats(0.05, 1.9),
       capacity=st.floats(0.3, 6.0), sensitivity=st.floats(0.3, 3.0),
       specs=st.lists(st.tuples(
           st.sampled_from(["grid", "line", "vanishing", "welfare_column", "welfare_row"]),
           st.sampled_from([3, 18, 19, 101, 401, 2001])), min_size=1, max_size=4))
def test_shared_call_argmax_is_each_stage_alone_and_exhaustive(gain, law, alpha, beta, cost,
                                                               capacity, sensitivity, specs):
    model = baseline_model(gain=gain, congestion=BUILTIN_LAWS[law], alpha=alpha, beta=beta,
                           cost=cost, capacity=capacity, sensitivity=sensitivity)
    stages = [mixed_stage(model, kind, points) for kind, points in specs]
    [shared] = optimize_mod.grid_argmax([(model, stages)])
    for stage, (i, j, value, _) in zip(stages, shared):
        [[(alone_i, alone_j, alone_value, _)]] = optimize_mod.grid_argmax([(model, [stage])])
        want_i, want_j, want_value = exhaustive_stage_argmax(model, *stage)
        assert ((i, j, value.hex()) == (alone_i, alone_j, alone_value.hex())
                == (want_i, want_j, want_value.hex()))


@pytest.mark.parametrize("points, blocks", [
    ((101, 101), optimize_mod._BLOCKS),     # within the limit: one pass, point by point
    ((2001, 1), optimize_mod._BLOCKS),      # a one-sided axis, one pass
    ((401, 401), optimize_mod._BLOCKS),     # blocks of side 4 at the coarsest level
    ((2001, 37), optimize_mod._BLOCKS),     # above the limit, with ragged edge blocks
    ((37, 2001), optimize_mod._BLOCKS),
    ((2001, 2001), optimize_mod._BLOCKS),   # the oracle's grid: blocks of side 16
    ((101, 101), 1000),                     # 26 x 26 blocks of side 4
])
def test_kept_points_are_the_points_whose_bound_reaches_the_incumbent(monkeypatch, points,
                                                                     blocks):
    # the incumbent is the best floor on the whole grid, whether the block
    # pass finds it or the single pass; tables of several sizes give several
    model = baseline_model(beta=2.0, capacity=0.8)
    stage = profit_stage(model, axis(points[0]), axis(points[1]))
    monkeypatch.setattr(optimize_mod, "_BLOCKS", blocks)
    for steps in (16, 256, 4096):
        lam, scale, _ = stage_table(model, stage, steps)
        kept = optimize_mod._kept_points(*stage, lam, scale)
        want = np.nonzero(profit_bound(model, stage, steps)
                          >= np.max(profit_floor(model, stage, steps)))
        assert all(np.array_equal(k, w) for k, w in zip(kept, want))


def test_block_pass_under_an_all_zero_table():
    # no user demand above p = 0.5: the table is 0 everywhere, so every bound
    # and every floor is 0, and the incumbent of 0 keeps every point
    model = vanishing_demand_model(cost=0.7)
    stage = profit_stage(model, axis(2001, 0.6, 0.9), axis(2001))
    table = solve_many(model.gain, model.congestion, np.zeros(4096 + 1), model.capacity,
                       model.sensitivity)
    assert not table.any()
    i, j = optimize_mod._kept_points(*stage, table, 0.0)
    assert np.array_equal(i * 2001 + j, np.arange(2001 * 2001))


def test_models_in_one_call_each_get_their_call_alone():
    # one call on several models, which differ in capacity and sensitivity,
    # gives each model's argmaxes and solve counts bit for bit as a call on
    # that model alone; a model with a small grid rides along
    searches = []
    for capacity, sensitivity, points in ((0.8, 1.0, 101), (2.5, 1.0, 101), (2.5, 3.0, 101),
                                          (1.3, 0.4, 9)):
        model = baseline_model(gain=ExponentialGain(), congestion=MM1Queue(),
                               capacity=capacity, sensitivity=sensitivity)
        searches.append((model, [profit_stage(model, axis(points), axis(points)),
                                 optimize_mod._scan(model, "welfare_two_sided", 2001)[1]]))
    shared = optimize_mod.grid_argmax(searches)
    for search, found in zip(searches, shared):
        [alone] = optimize_mod.grid_argmax([search])
        assert [(i, j, v.hex(), n) for i, j, v, n in found] == [
            (i, j, v.hex(), n) for i, j, v, n in alone]


def test_grid_block_limit_invariance(monkeypatch):
    model = baseline_model(beta=2.0, capacity=0.8)
    full = profit_grid_argmax(model, axis(201), axis(201))
    for blocks in (1, 1000, 250_000):      # one block, some blocks, every point at once
        monkeypatch.setattr(optimize_mod, "_BLOCKS", blocks)
        assert profit_grid_argmax(model, axis(201), axis(201)) == full


# ---------------------------------------------------------------------------
# the welfare segment scan against an exhaustive evaluation
# ---------------------------------------------------------------------------

def exhaustive_welfare_argmax(model, points):
    """Solve every one of ``points`` evenly spaced user prices on the
    zero-profit segment and keep the first maximum (p, value) of the welfare
    (s_m + s_n) * lam, 0 where a demand is 0."""
    lo, hi = optimize_mod.welfare_segment(model)
    p_axis = np.linspace(lo, hi, points)
    q_axis = model.cost - p_axis
    m_vals, n_vals = model.user_demand.value(p_axis), model.cp_demand.value(q_axis)
    lam = solve_many(model.gain, model.congestion, m_vals * n_vals,
                     model.capacity, model.sensitivity)
    values = np.zeros(points)
    both = (m_vals > 0) & (n_vals > 0)
    values[both] = (model.user_demand.per_unit_surplus(p_axis[both])
                    + model.cp_demand.per_unit_surplus(q_axis[both])) * lam[both]
    k = int(np.argmax(values))
    return p_axis[k], float(values[k])


@pytest.mark.parametrize("points", [2001, 4001])     # the optimizer's scan and the oracle's
@pytest.mark.parametrize("model", [
    *(baseline_model(gain=gain, congestion=law)
      for gain in (ReciprocalGain(), ExponentialGain()) for law in BUILTIN_LAWS.values()),
    vanishing_demand_model(cost=0.9),
], ids=["reciprocal-sharing", "reciprocal-mm1", "exponential-sharing", "exponential-mm1",
        "vanishing"])
def test_welfare_scan_is_exhaustive(model, points):
    # each scan through the route that runs it: the optimizers' through
    # ``_starts``, the oracle's through ``grid_optimize``
    if points == oracle_mod.SEGMENT_POINTS:
        best = grid_optimize(model, "welfare")
        p, value, solved = best.price_user, best.value, best.solved_points
    else:
        [[((p_axis,), (p,), value, solved)]] = optimize_mod._starts([model],
                                                                    ["welfare_two_sided"])
        assert p_axis.size == points
    want_p, want_value = exhaustive_welfare_argmax(model, points)
    assert (p, value.hex()) == (want_p, want_value.hex())
    # a table of 128 intervals (2 * ceil(sqrt(points)) <= 128) and the points
    # whose bound reaches the best floor
    stage = optimize_mod._scan(model, "welfare_two_sided", points)[1]
    assert 128 + 1 + bounded_count(model, stage, 128) == solved < points // 2


def test_only_grid_argmax_solves_grids(monkeypatch):
    # every global stage, of the optimizers, the sensitivities' re-optimizations
    # and the oracle, goes through the one bounded argmax
    callers = []

    def traced(*args):
        frame = sys._getframe(1)
        callers.append((frame.f_code.co_name, frame.f_back.f_code.co_name))
        return solve_many(*args)
    for module in (optimize_mod, oracle_mod):
        monkeypatch.setattr(module, "solve_many", traced, raising=False)
    model = baseline_model(capacity=1.3)
    growth_rates(model)
    optimal_price_sensitivity(model, "capacity")
    grid_optimize(model, "profit")
    grid_optimize(model, "welfare")
    reoptimized_price_derivatives(model, "capacity", 1e-3)
    # two solve_many calls each: the shared table, then the points the bound
    # keeps; the four re-optimized optima share theirs
    assert len(callers) == 5 * 2 and set(callers) == {("solve", "grid_argmax")}


@pytest.mark.parametrize("model", [
    *(baseline_model(gain=gain, congestion=law)
      for gain in (ReciprocalGain(), ExponentialGain()) for law in BUILTIN_LAWS.values()),
    vanishing_demand_model(cost=0.9),
], ids=["reciprocal-sharing", "reciprocal-mm1", "exponential-sharing", "exponential-mm1",
        "vanishing"])
def test_one_oracle_search_gives_each_objective_its_own_optimum(model):
    # the profit grid and the welfare scan share one search and its table,
    # which the profit grid counts; each optimum is its objective's alone
    [both] = oracle_mod.grid_optima([model])
    alone = [grid_optimize(model, objective) for objective in ("profit", "welfare")]
    for shared, own in zip(both, alone):
        assert ((shared.price_user, shared.price_cp, shared.value.hex(), shared.cell_user,
                 shared.cell_cp)
                == (own.price_user, own.price_cp, own.value.hex(), own.cell_user,
                    own.cell_cp))
    assert both[0].solved_points == alone[0].solved_points


def test_verify_optima_makes_two_solves_and_counts_them(monkeypatch):
    handed = []

    def counted(gain, congestion, mn, *args):
        handed.append(mn.size)
        return solve_many(gain, congestion, mn, *args)
    model = baseline_model(capacity=1.3)
    profit, welfare = optimize_profit(model), optimize_welfare(model)
    monkeypatch.setattr(optimize_mod, "solve_many", counted)
    outcome = verify_optima(model, profit, welfare)
    assert len(handed) == 2 and outcome.oracle_solves == sum(handed)
    assert str(outcome).startswith("max price gap vs oracle ")
    assert str(outcome).endswith(f", {sum(handed)} oracle equilibria solved")


@pytest.mark.parametrize("parameter", ["capacity", "sensitivity"])
def test_reoptimized_stencil_optima_are_each_model_alone(parameter):
    # the stencil's two models differ in capacity or sensitivity and share
    # one search, in which scalar-only custom curves take a value per point
    gain = CustomGain(lambda phi, s: math.exp(-s * (0.5 * phi + 0.1 * phi * phi)))
    law = CustomCongestion(lambda lam, mu: math.expm1(lam) / mu)
    model = baseline_model(gain=gain, congestion=law, capacity=1.3)
    base = parameter_value(model, parameter)
    step = 1e-3 * base
    optima = [(optimize_profit(m), optimize_welfare(m))
              for m in (with_parameter(model, parameter, base + d) for d in (-step, step))]
    want = [d for lo, hi in zip(*optima)
            for d in ((hi.prices.user - lo.prices.user) / (2 * step),
                      (hi.prices.cp - lo.prices.cp) / (2 * step))]
    assert list(reoptimized_price_derivatives(model, parameter, step)) == want


def test_a_row_and_a_sensitivity_each_make_two_solves_their_reports_count(monkeypatch):
    # growth_rates and optimal_price_sensitivity search all their optima in
    # one grid_argmax call, and the reports' grid_solves add up to its points
    handed, reports = [], []

    def counted(gain, congestion, mn, *args):
        handed.append(mn.size)
        return solve_many(gain, congestion, mn, *args)

    def recorded(models, kinds):
        found = optima(models, kinds)
        reports.extend(report for group in found for report in group)
        return found
    optima = optimize_mod._optima
    monkeypatch.setattr(optimize_mod, "solve_many", counted)
    monkeypatch.setattr(sensitivity_mod, "_optima", recorded)
    model = baseline_model(capacity=1.3)
    rates = growth_rates(model)
    assert len(handed) == 2
    assert sum(handed) == sum(report.grid_solves for report in (
        rates.profit_two_sided, rates.profit_one_sided, rates.welfare_two_sided,
        rates.welfare_one_sided))
    handed.clear()
    optimal_price_sensitivity(model, "capacity")
    assert len(handed) == 2 and len(reports) == 2
    assert sum(handed) == sum(report.grid_solves for report in reports)
