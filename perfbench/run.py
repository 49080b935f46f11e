#!/usr/bin/env python3
"""Benchmark of netpricing on three seeded workloads, run from the repository root.

    python3 perfbench/run.py --workload {sweep,verify,query} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` times the workload untraced for about ``--seconds`` seconds,
stopping at the first round boundary after that (see ``workloads.py``),
then checks every output and prints the end-to-end metrics.  ``--trace 1``
runs a fixed op list twice, untraced and then traced (``layertrace.py``), and
prints the per-layer metrics; their counts repeat exactly for a seed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` names; the lines above it
give every metric of the workload with its unit and sample count.  Full
results and the trace spans go to ``perfbench/out/``.  Only the stdlib and
numpy are used.  Without ``src/netpricing`` in the checkout the run exits
with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 4        # fresh processes timed on top of the run's own set-up


def setup(workload: str, seed: int, out_dir: Path):
    """Import netpricing from this checkout, build the inputs, warm up once.

    Returns the workload and the seconds taken, import included.
    """
    t0 = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import netpricing
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import netpricing from {src}: {exc}")
    if not Path(netpricing.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: netpricing was imported from {netpricing.__file__}, "
                         f"not from {src}")
    import workloads
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, out_dir)
    wl.warmup()
    return wl, perf_counter() - t0


@dataclass
class Record:
    index: int
    op: object
    latency: float
    failure: str | None      # raised error or failed check
    round: int = 0


def run_op(wl, index: int, op, round_: int = 0) -> Record:
    """Time one op; check its output after the clock stops, then drop it."""
    t0 = perf_counter()
    try:
        raw = wl.execute(op)
    except Exception as exc:        # a failed op is counted, the run goes on
        return Record(index, op, perf_counter() - t0, f"{type(exc).__name__}: {exc}", round_)
    latency = perf_counter() - t0
    try:
        failure = wl.check(index, op, raw)
    except Exception as exc:
        failure = f"check raised {type(exc).__name__}: {exc}"
    return Record(index, op, latency, failure, round_)


def run_timed(wl, seconds: float) -> list[Record]:
    records: list[Record] = []
    deadline = perf_counter() + seconds
    for round_, ops in enumerate(wl.rounds()):
        for op in ops:
            records.append(run_op(wl, len(records), op, round_))
        if perf_counter() >= deadline:
            return records


def run_list(wl, ops, tracer=None, first_index: int = 0) -> list[Record]:
    records = []
    for i, op in enumerate(ops, start=first_index):
        if tracer is not None:
            tracer.op_id = i
        records.append(run_op(wl, i, op))
    return records


def failures_of(wl, records: list[Record]) -> dict[int, str]:
    """Op index -> reason, for every op that raised or whose output is wrong."""
    failures = {r.index: r.failure for r in records if r.failure is not None}
    try:
        failures.update(wl.finish())
    except Exception as exc:
        failures[records[-1].index] = f"final check raised {type(exc).__name__}: {exc}"
    return failures


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end_metrics(wl, records: list[Record], setup_samples: list[float]) -> tuple[dict, list]:
    """name -> (value, unit, sample count) for every end-to-end metric, and per-round values.

    Every round has the same input mix, so each metric is computed per round
    and the run reports its median over rounds.  Work from other tenants of
    the machine slows whole rounds for seconds at a time; the median
    discards such rounds unless they are half the run, while a slowdown of
    the program shows in every round.
    """
    rounds: dict[int, list[Record]] = {}
    for r in records:
        rounds.setdefault(r.round, []).append(r)
    per_round = []
    for rr in rounds.values():
        per_round.append({
            "p50_s": percentile([r.latency for r in rr if r.op.kind in wl.median_kinds], 50),
            "p90_s": percentile([r.latency for r in rr if r.op.kind in wl.tail_kinds], 90),
            "throughput_per_s": sum(r.op.units for r in rr) / sum(r.latency for r in rr),
        })
    p50 = statistics.median(r["p50_s"] for r in per_round)
    p90 = statistics.median(r["p90_s"] for r in per_round)
    rate = statistics.median(r["throughput_per_s"] for r in per_round)
    n50 = sum(1 for r in records if r.op.kind in wl.median_kinds)
    n90 = sum(1 for r in records if r.op.kind in wl.tail_kinds)
    metrics = {
        "latency_p50_ms": (p50 * 1e3, "ms", n50),
        "latency_p90_ms": (p90 * 1e3, "ms", n90),
        "throughput_per_s": (rate, "1/s", len(records)),
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "rounds": (len(per_round), "count", len(per_round)),
    }
    # the same numbers under the names and units the workload is read in
    if wl.name == "sweep":
        metrics["sweep_rows_per_s"] = (rate, "rows/s", int(sum(r.op.units for r in records)))
    elif wl.name == "verify":
        metrics["verify_mpts_per_s"] = (rate / 1e6, "Mpoint/s", n50)
        metrics["verify_cmd_s_p50"] = (p50, "s", n50)
    else:
        sens = [r.latency for r in records if r.op.kind == "sens"]
        metrics["point_us_p50"] = (p50 * 1e6, "us", n50)
        metrics["point_us_p90"] = (p90 * 1e6, "us", n90)
        metrics["sens_ms_p50"] = (percentile(sens, 50) * 1e3, "ms", len(sens))
    return metrics, per_round


def unit_of(name: str) -> str:
    for suffix, unit in (("_ns_per_point", "ns"), ("_us_per_solve", "us"), ("_us", "us"),
                         ("_ms", "ms"), ("_s", "s"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, import included."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "verify", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.probe_setup:
        _, elapsed = setup(args.workload, args.seed, OUT_DIR / f"{args.workload}-probe")
        print(json.dumps({"setup_s": elapsed}))
        return 0
    wl, setup_main = setup(args.workload, args.seed, OUT_DIR / args.workload)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "input_shares": wl.input_shares()}
    if args.trace:
        from layertrace import Tracer
        ops = wl.trace_ops()
        plain = run_list(wl, ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_list(wl, ops, tracer, first_index=len(ops))
        finally:
            tracer.uninstall()
        records = plain + traced
        layer = tracer.layer_metrics(len(ops))
        layer["trace.overhead_frac"] = (sum(r.latency for r in traced)
                                        / sum(r.latency for r in plain) - 1.0)
        metrics = {name: (value, unit_of(name), len(ops)) for name, value in layer.items()}
        reported = spec["per_layer"]
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    else:
        records = run_timed(wl, args.seconds)
        setup_samples = [setup_main] + [probe_setup(args.workload, args.seed)
                                        for _ in range(SETUP_PROBES)]
        metrics, result["rounds"] = end_to_end_metrics(wl, records, setup_samples)
        reported = spec["end_to_end"]

    failures = failures_of(wl, records)
    metrics["failed_frac"] = (len(failures) / len(records), "ratio", len(records))
    result["metrics"] = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()}
    result["failures"] = {str(i): msg for i, msg in sorted(failures.items())}
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} ops, {len(failures)} failed")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    for name, share in result["input_shares"].items():
        print(f"  input_share {name} = {share:.4f}")
    for index, msg in sorted(failures.items())[:10]:
        print(f"  FAILED op {index}: {msg}")
    mismatched = [m["name"] for m in reported if metrics[m["name"]][1] != m["unit"]]
    if mismatched:
        raise SystemExit(f"perfbench: units differ from BENCHMARK.json for {mismatched}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
