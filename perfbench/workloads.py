"""The three seeded workloads: ``sweep``, ``verify`` and ``query``.

Each workload turns a seed into inputs (config files, models, price pairs)
and serves them as rounds of ops.  A round has the same mix of input
properties for every seed, so run-to-run spread comes from the machine and
from parameter values, not from a lucky draw of slow or fast input kinds.
Every workload is a closed loop with one caller: the next op is sent only
when the previous one has returned.

``execute`` is the timed call into netpricing.  ``check`` runs right after
it, outside the timed region, and the output is then dropped, so the
benchmark does not grow the heap the program's garbage collector scans.
All calls go through ``netpricing`` module attributes at call time, so the
tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import netpricing
import netpricing.cli
import netpricing.experiments
from netpricing.equilibrium import PREDICTED_STATIC_SIGNS

GAINS = ("reciprocal", "exponential")
LAWS = ("sharing", "mm1")
SWEEP_PARAMETERS = ("alpha", "beta", "capacity", "sensitivity")
# criterion 10's ranges; M/M/1 uses its large-capacity view
SWEEP_RANGES = {"alpha": (0.5, 3.0), "beta": (0.5, 3.0), "sensitivity": (0.5, 3.0),
                "capacity": (0.5, 5.0)}
MM1_CAPACITY_RANGE = (2.5, 10.0)
MM1_BASE_CAPACITY = 2.5
# rows span the range (ends drawn from its outer twentieths), so a command's
# cost depends little on the seed
SWEEP_ROWS = 3
# a profit gradient this small at a reported optimum means it is stationary
GRADIENT_TOL = 1e-6
BOUNDARY_EPS = 1e-6
GAP_RESIDUAL_TOL = 1e-9
GRID_POINTS = 2001 * 2001 + 2001     # profit grid plus welfare segment


@dataclass
class Op:
    """One call into netpricing, with the input properties it carries."""

    kind: str
    args: tuple
    units: float = 1.0
    props: dict[str, str] = field(default_factory=dict)


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``netpricing.cli.main`` in process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = netpricing.cli.main(argv)
    return code, out.getvalue()


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def _model_params(rng: random.Random, law: str, concave: bool = False) -> dict[str, float]:
    """Demand shapes, capacity and sensitivity; concave means alpha <= 1 <= beta."""
    return {"alpha": rng.uniform(0.6, 0.95) if concave else rng.uniform(0.6, 1.8),
            "beta": rng.uniform(1.1, 2.0) if concave else rng.uniform(0.6, 1.8),
            "capacity": rng.uniform(*((2.5, 6.0) if law == "mm1" else (1.0, 4.0))),
            "sensitivity": rng.uniform(0.5, 2.0)}


def _jitter(rng: random.Random, params: dict[str, float]) -> dict[str, float]:
    """Seeded +-5% around fixed centres, so an op's cost depends little on the
    seed: a verify run holds too few commands to average it out."""
    return {k: v * rng.uniform(0.95, 1.05) for k, v in params.items()}


class Workload:
    name = ""
    median_kinds: tuple[str, ...] = ()      # op kinds behind latency_p50_ms
    tail_kinds: tuple[str, ...] = ()        # op kinds behind latency_p90_ms

    def rounds(self):
        """Endless rounds of ops; the run stops at a round boundary."""
        raise NotImplementedError

    def trace_ops(self) -> list[Op]:
        """A fixed op list for the traced run, so its counts repeat per seed."""
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, index: int, op: Op, raw) -> str | None:
        """Why the output of op ``index`` is wrong, or None when it is right."""
        raise NotImplementedError

    def finish(self) -> dict[int, str]:
        """Checks that need the whole run; op index -> reason."""
        return {}

    def input_shares(self) -> dict[str, float]:
        """Share of the ops in a round that carry each input property."""
        ops = next(iter(self.rounds()))
        shares: dict[str, float] = {}
        for op in ops:
            for key, value in {"kind": op.kind, **op.props}.items():
                name = f"{key}={value}"
                shares[name] = shares.get(name, 0.0) + 1.0 / len(ops)
        return dict(sorted(shares.items()))


# ---------------------------------------------------------------------------
# sweep: `netpricing sweep` over both gains, both laws, all four parameters
# ---------------------------------------------------------------------------

class SweepWorkload(Workload):
    name = "sweep"
    median_kinds = tail_kinds = ("sweep",)

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.ops = []
        self.configs = []
        combos = list(itertools.product(GAINS, LAWS, SWEEP_PARAMETERS))
        rng.shuffle(combos)
        for i, (gain, law, parameter) in enumerate(combos):
            lo, hi = (MM1_CAPACITY_RANGE if (law, parameter) == ("mm1", "capacity")
                      else SWEEP_RANGES[parameter])
            edge = 0.05 * (hi - lo)
            start, stop = rng.uniform(lo, lo + edge), rng.uniform(hi - edge, hi)
            text = (f"gain = {gain}\ncongestion = {law}\n"
                    + (f"capacity = {MM1_BASE_CAPACITY}\n" if law == "mm1" else "")
                    + f"sweep.parameter = {parameter}\n"
                    + f"sweep.range = {start!r}:{stop!r}:{SWEEP_ROWS}\n")
            cfg_path = out_dir / f"sweep_{i:02d}.cfg"
            cfg_path.write_text(text, encoding="utf-8")
            self.configs.append(netpricing.parse_config(text))
            self.ops.append(Op("sweep", (i, str(cfg_path), str(out_dir / f"sweep_{i:02d}.csv")),
                               units=SWEEP_ROWS,
                               props={"gain": gain, "congestion": law, "curves": "builtin",
                                      "sweep_parameter": parameter}))
        self._first_csv: dict[int, bytes] = {}
        self._single_run: dict[int, tuple[int, Op]] = {}

    def rounds(self):
        while True:
            yield self.ops

    def trace_ops(self) -> list[Op]:
        return list(self.ops)

    def warmup(self) -> None:
        self.execute(self.ops[0])

    def execute(self, op: Op):
        _, cfg_path, csv_path = op.args
        return _quiet_cli(["sweep", "--config", cfg_path, "--out", csv_path])[0]

    def check(self, index: int, op: Op, raw) -> str | None:
        if raw != 0:
            return f"exit code {raw}"
        config = op.args[0]
        blob = Path(op.args[2]).read_bytes()
        if config in self._first_csv:
            self._single_run.pop(config, None)
            if blob != self._first_csv[config]:
                return "CSV differs from an earlier run of the same config"
            return None
        self._first_csv[config] = blob
        self._single_run[config] = (index, op)
        return self._check_csv(self.configs[config], blob)

    def finish(self) -> dict[int, str]:
        # a config the run reached only once is run again for the byte-identity check
        failures = {}
        for index, op in list(self._single_run.values()):
            problem = self.check(index, op, self.execute(op))
            if problem:
                failures[index] = problem
        return failures

    @staticmethod
    def _check_csv(cfg, blob: bytes) -> str | None:
        lines = blob.decode("utf-8").split("\n")
        if lines[-1] != "" or any(not line for line in lines[:-1]):
            return "CSV must end in exactly one LF and hold no blank line"
        header, *rows = [line.split(",") for line in lines[:-1]]
        if header != list(netpricing.experiments.ALL_COLUMNS):
            return f"unexpected header {header}"
        values = netpricing.experiments.sweep_values(cfg)
        if len(rows) != len(values):
            return f"{len(rows)} rows, expected {len(values)}"
        for value, cells in zip(values, rows):
            row = dict(zip(header, cells))
            if len(cells) != len(header) or row["error"]:
                return f"row {cells} is malformed or carries an error"
            if row["param_value"] != netpricing.experiments.format_value(value):
                return f"param_value {row['param_value']} != {value!r}"
            model = netpricing.build_model(
                dataclasses.replace(cfg, **{cfg.sweep_parameter: value}))
            p, q = float(row["p_star"]), float(row["q_star"])
            grads = netpricing.evaluate_objectives(model, p, q).gradients
            for price, support, grad in ((p, model.user_demand.support, grads.profit_price_user),
                                         (q, model.cp_demand.support, grads.profit_price_cp)):
                if price < BOUNDARY_EPS:
                    ok = grad <= GRADIENT_TOL
                elif price > support - BOUNDARY_EPS:
                    ok = grad >= -GRADIENT_TOL
                else:
                    ok = abs(grad) <= GRADIENT_TOL
                if not ok:
                    return f"profit gradient {grad:.3e} at ({p}, {q}) is not stationary"
        return None


# ---------------------------------------------------------------------------
# verify: `netpricing optimize --verify`, dominated by the 2001^2 grid oracle
# ---------------------------------------------------------------------------

class VerifyWorkload(Workload):
    name = "verify"
    median_kinds = tail_kinds = ("verify",)

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        centres = random.Random("verify")
        combos = list(itertools.product(GAINS, LAWS))
        self.ops = []
        for i, (gain, law) in enumerate(combos):
            params = _jitter(rng, _model_params(centres, law))
            text = (f"gain = {gain}\ncongestion = {law}\n"
                    f"user_demand.alpha = {params['alpha']!r}\n"
                    f"cp_demand.beta = {params['beta']!r}\n"
                    f"capacity = {params['capacity']!r}\n"
                    f"sensitivity = {params['sensitivity']!r}\n")
            cfg_path = out_dir / f"verify_{i}.cfg"
            cfg_path.write_text(text, encoding="utf-8")
            self.ops.append(Op("verify", (str(cfg_path),), units=GRID_POINTS,
                               props={"gain": gain, "congestion": law, "curves": "builtin"}))
        rng.shuffle(self.ops)

    def rounds(self):
        while True:
            yield self.ops

    def trace_ops(self) -> list[Op]:
        return self.ops[:2]

    def warmup(self) -> None:
        # the grid check alone takes seconds, so warm up on the optimizers only
        _quiet_cli(["optimize", "--config", self.ops[0].args[0]])

    def execute(self, op: Op):
        return _quiet_cli(["optimize", "--config", op.args[0], "--verify"])

    def check(self, index: int, op: Op, raw) -> str | None:
        code, stdout = raw
        if code != 0:
            return f"exit code {code}"
        if "\nverify: " not in stdout:
            return "no verification verdict printed"
        return None


# ---------------------------------------------------------------------------
# query: point evaluations beside occasional sensitivity re-optimizations
# ---------------------------------------------------------------------------

def _custom_gain(a: float, b: float):
    def value(phi, s):
        return math.exp(-s * (a * phi + b * phi * phi))
    return netpricing.CustomGain(value)


def _custom_congestion(k: float, analytic_inverse: bool):
    def congestion(lam, mu):
        return (lam + k * lam * lam) / mu

    def inverse(phi, mu):
        return (math.sqrt(1.0 + 4.0 * k * phi * mu) - 1.0) / (2.0 * k)

    return netpricing.CustomCongestion(congestion,
                                       inverse_fn=inverse if analytic_inverse else None)


def _builtin_model(gain: str, law: str, params: dict[str, float]):
    curves = {"reciprocal": netpricing.ReciprocalGain(),
              "exponential": netpricing.ExponentialGain(),
              "sharing": netpricing.CapacitySharing(), "mm1": netpricing.MM1Queue()}
    return netpricing.baseline_model(gain=curves[gain], congestion=curves[law], **params)


# Per block of 50 ops: 1 sens, 39 builtin points and 10 custom points (20%
# of points).  Sorted by latency, the points put the numeric-inverse ones,
# the slowest kind, across p88..p100, so the p90 over all points is set by
# custom curves; the median is taken over builtin points, whose latency
# tail would otherwise decide it.
QUERY_BLOCK = (("sens", 1), ("builtin", 39), ("custom_gain", 2),
               ("custom_congestion_inverse", 2), ("custom_congestion_numeric", 6))


class QueryWorkload(Workload):
    name = "query"
    median_kinds = ("point",)
    tail_kinds = ("point", "custom_point")

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        rng = random.Random(seed)
        self.builtin = [(_builtin_model(g, c, _model_params(rng, c)), g, c)
                        for g, c in itertools.product(GAINS, LAWS) for _ in range(4)]
        # three models of each custom kind, so no single draw sets the tail
        self.custom = {
            "custom_gain": [(netpricing.baseline_model(
                gain=_custom_gain(rng.uniform(0.3, 0.7), rng.uniform(0.05, 0.2)),
                capacity=rng.uniform(1.0, 3.0)), "custom", "sharing") for _ in range(3)],
            "custom_congestion_inverse": [(netpricing.baseline_model(
                congestion=_custom_congestion(rng.uniform(0.1, 0.4), True),
                capacity=rng.uniform(1.0, 3.0)), "reciprocal", "custom") for _ in range(3)],
            "custom_congestion_numeric": [(netpricing.baseline_model(
                congestion=_custom_congestion(rng.uniform(0.1, 0.4), False),
                capacity=rng.uniform(1.0, 3.0)), "reciprocal", "custom") for _ in range(3)],
        }
        # the same eight specs for every seed: a +-5% change of parameters moves
        # the optimizers' solve count by up to 70%, and a round holds one of each
        specs = random.Random("query-sens")
        self.sens = [(_builtin_model(g, c, _model_params(specs, c, concave=True)),
                      g, c, parameter)
                     for g, c, parameter in itertools.product(GAINS, LAWS,
                                                              ("capacity", "sensitivity"))]
        rng.shuffle(self.sens)

    def _point(self, rng: random.Random, kind: str) -> Op:
        model, gain, law = rng.choice(self.builtin if kind == "builtin" else self.custom[kind])
        props = {"gain": gain, "congestion": law,
                 "curves": "builtin" if kind == "builtin" else "custom"}
        if law == "custom":
            props["inverse"] = "analytic" if kind.endswith("inverse") else "numeric"
        return Op("point" if kind == "builtin" else "custom_point",
                  (model, rng.uniform(0.05, 0.8), rng.uniform(0.05, 0.8)), props=props)

    def _block(self, index: int) -> list[Op]:
        """Block ``index`` of the op stream; a pure function of (seed, index)."""
        rng = random.Random(f"{self.seed}:{index}")
        ops = []
        for kind, count in QUERY_BLOCK:
            for _ in range(count):
                if kind == "sens":
                    model, gain, law, parameter = self.sens[index % len(self.sens)]
                    ops.append(Op("sens", (model, parameter),
                                  props={"gain": gain, "congestion": law,
                                         "curves": "builtin", "sens_parameter": parameter}))
                else:
                    ops.append(self._point(rng, kind))
        rng.shuffle(ops)
        return ops

    def rounds(self):
        """Rounds of one block per sensitivity spec, so each round has every spec."""
        for first in itertools.count(0, len(self.sens)):
            yield [op for index in range(first, first + len(self.sens))
                   for op in self._block(index)]

    def trace_ops(self) -> list[Op]:
        return next(self.rounds())

    def warmup(self) -> None:
        rng = random.Random(f"{self.seed}:warmup")
        for kind in ("builtin", "custom_congestion_numeric"):
            self.execute(self._point(rng, kind))
        model, _, _, parameter = self.sens[-1]
        self.execute(Op("sens", (model, parameter)))

    def execute(self, op: Op):
        if op.kind != "sens":
            model, p, q = op.args
            return (netpricing.evaluate_objectives(model, p, q),
                    netpricing.comparative_statics(model, p, q))
        model, parameter = op.args
        return netpricing.optimal_price_sensitivity(model, parameter)

    def check(self, index: int, op: Op, raw) -> str | None:
        if op.kind == "sens":
            bad = [c.name for c in raw.predictions if c.conclusive and not c.signs_satisfied]
            return f"conclusive sign rules failed: {bad}" if bad else None
        report, statics = raw
        eq = report.equilibrium
        if eq.gap_residual > GAP_RESIDUAL_TOL * max(1.0, eq.throughput):
            return f"gap residual {eq.gap_residual:.3e}"
        if not 0.0 < eq.elasticity <= 1.0:
            return f"elasticity {eq.elasticity} outside (0, 1]"
        wrong = [k for k, s in PREDICTED_STATIC_SIGNS.items() if _sign(getattr(statics, k)) != s]
        return f"comparative statics with wrong sign: {wrong}" if wrong else None


WORKLOADS = {w.name: w for w in (SweepWorkload, VerifyWorkload, QueryWorkload)}
