"""The traced run's counts are machine-independent: a seed gives the same counts.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from layertrace import Tracer  # noqa: E402


def traced_counts(workload: str, seed: int, ops: int, out_dir: Path) -> dict[str, float]:
    wl, _ = run.setup(workload, seed, out_dir)
    op_list = wl.trace_ops()[:ops]
    tracer = Tracer()
    tracer.install()
    try:
        records = run.run_list(wl, op_list, tracer)
    finally:
        tracer.uninstall()
    assert run.failures_of(wl, records) == {}
    return {name: value for name, value in tracer.layer_metrics(len(op_list)).items()
            if run.unit_of(name) == "count"}


@pytest.mark.parametrize("workload, ops", [("sweep", 2), ("query", 100), ("verify", 1)])
def test_counts_repeat_for_a_seed(workload, ops, tmp_path):
    first = traced_counts(workload, 5, ops, tmp_path / "first")
    second = traced_counts(workload, 5, ops, tmp_path / "second")
    assert first == second
    assert first["equilibrium.scalar_solves"] > 0
    if workload == "query":
        assert first["sensitivity.reopts_per_op"] == 6
    if workload == "verify":
        assert first["oracle.grid_calls"] == 2


def test_uninstall_restores_every_patched_name(tmp_path):
    run.setup("query", 1, tmp_path)
    import netpricing
    from netpricing import curves, equilibrium, optimize
    before = (optimize.solve_for_demands, netpricing.evaluate_objectives,
              curves.MM1Queue.implied_throughput)
    tracer = Tracer()
    tracer.install()
    assert optimize.solve_for_demands is not before[0]
    tracer.uninstall()
    assert (optimize.solve_for_demands, netpricing.evaluate_objectives,
            curves.MM1Queue.implied_throughput) == before
    assert optimize.solve_for_demands is equilibrium.solve_for_demands
