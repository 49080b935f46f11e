"""Runtime tracing of netpricing's layers, installed from outside the package.

``Tracer.install()`` replaces every public module-level function of each
layer module with a timing wrapper, in every module namespace that holds a
reference to it (``from .equilibrium import solve_many`` binds a second
name, so patching only the defining module would miss calls).  The gain
and congestion methods that the equilibrium gap function calls are wrapped
on their classes.  ``uninstall()`` restores the originals.  Nothing under
``src/`` changes.

Two kinds of wrapper exist:

* span wrappers record ``(id, name, start, end, parent id, op id)`` in
  memory for every call, plus per-function call counts, inclusive times and
  the work counters that accrued inside the call;
* aggregate wrappers (the scalar solver and the curve methods, called up to
  ~10^5 times per optimization) only count and time, since a span per call
  would cost more memory than the run is worth.

Every wrapper pushes a frame on one stack, so a layer's self time is its
calls' durations minus the time of the wrapped calls they made.  Counters
come from call counts, argument sizes and the solver's returned
``iterations``; they do not depend on the machine.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("curves", "equilibrium", "objectives", "optimize", "sensitivity",
          "oracle", "experiments", "config", "cli")

# counters whose growth inside a call is attributed to that call's name
_DELTA_KEYS = ("scalar_solves", "vector_points", "reopts")


class Tracer:
    """Spans, counters and self times for one traced run; see module docstring."""

    def __init__(self) -> None:
        self.op_id = -1
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.deltas: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.layer_self: dict[str, float] = defaultdict(float)
        self._stack: list[list] = [[0.0, None]]      # [child time, span id]
        self._in_curve = False
        # scalar calls, array calls, array elements, seconds (outermost calls)
        self.curve_counts = [0, 0, 0, 0.0]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import netpricing
        modules = {layer: sys.modules[f"netpricing.{layer}"] for layer in LAYERS}
        namespaces = [netpricing, *modules.values()]
        replacements = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                qualname = f"{layer}.{name}"
                if qualname == "equilibrium.solve_for_demands":
                    replacements[fn] = self._wrap_scalar_solve(fn)
                else:
                    replacements[fn] = self._wrap_span(fn, layer, qualname)
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patch(namespace, name, replacements[value])
        curves = modules["curves"]
        for cls in vars(curves).values():
            if not inspect.isclass(cls):
                continue
            if issubclass(cls, curves.GainCurve) and "value" in vars(cls):
                self._patch(cls, "value", self._wrap_curve(vars(cls)["value"]))
            if (issubclass(cls, curves.CongestionCurve)
                    and "implied_throughput" in vars(cls)):
                self._patch(cls, "implied_throughput",
                            self._wrap_curve(vars(cls)["implied_throughput"]))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- wrappers ---------------------------------------------------------

    def _finish(self, frame: list, layer: str, t0: float) -> float:
        dt = perf_counter() - t0
        self._stack.pop()
        self._stack[-1][0] += dt
        self.layer_self[layer] += dt - frame[0]
        return dt

    def _wrap_span(self, fn, layer: str, qualname: str):
        tracer = self
        counters = self.counters
        counts_reopt = qualname in ("optimize.optimize_profit", "optimize.optimize_welfare")
        counts_points = qualname == "equilibrium.solve_many"

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][1]
            frame = [0.0, span_id]
            tracer._stack.append(frame)
            if counts_reopt:
                counters["reopts"] += 1
            before = [counters[k] for k in _DELTA_KEYS]
            if counts_points:
                counters["vector_points"] += np.size(args[2] if len(args) > 2 else kwargs["mn"])
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = tracer._finish(frame, layer, t0)
                tracer.calls[qualname] += 1
                tracer.inclusive[qualname] += dt
                delta = tracer.deltas[qualname]
                for key, start in zip(_DELTA_KEYS, before):
                    delta[key] += counters[key] - start
                tracer.spans.append((span_id, qualname, t0, t0 + dt, parent, tracer.op_id))

        traced.__wrapped__ = fn
        return traced

    def _wrap_scalar_solve(self, fn):
        tracer = self
        counters = self.counters

        def traced(*args, **kwargs):
            frame = [0.0, tracer._stack[-1][1]]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = tracer._finish(frame, "equilibrium", t0)
                tracer.inclusive["equilibrium.solve_for_demands"] += dt
            counters["scalar_solves"] += 1
            counters["scalar_iterations"] += out[2]
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_curve(self, fn):
        tracer = self
        counts = self.curve_counts
        stack = self._stack

        def traced(curve, x, *args, **kwargs):
            if isinstance(x, np.ndarray):
                counts[1] += 1
                counts[2] += x.size
            else:
                counts[0] += 1
            if tracer._in_curve:        # nested call, timed by the outer one
                return fn(curve, x, *args, **kwargs)
            tracer._in_curve = True
            t0 = perf_counter()
            try:
                return fn(curve, x, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_curve = False
                stack[-1][0] += dt
                counts[3] += dt

        traced.__wrapped__ = fn
        return traced

    # -- results ----------------------------------------------------------

    def per_call(self, qualname: str, scale: float) -> float:
        n = self.calls[qualname]
        return self.inclusive[qualname] / n * scale if n else 0.0

    def delta_per_call(self, qualname: str, key: str) -> float:
        n = self.calls[qualname]
        return self.deltas[qualname][key] / n if n else 0.0

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric; counts are per op or per call, never per second."""
        c = self.counters
        solves = c["scalar_solves"]
        points = c["vector_points"]
        grid_points = self.deltas["oracle.grid_optimize"]["vector_points"]
        return {
            "curves.scalar_calls": self.curve_counts[0] / ops,
            "curves.array_calls": self.curve_counts[1] / ops,
            "curves.array_elems": self.curve_counts[2] / ops,
            "curves.self_s": self.curve_counts[3] / ops,
            "equilibrium.scalar_solves": solves / ops,
            "equilibrium.scalar_iters_per_solve": c["scalar_iterations"] / solves if solves else 0.0,
            "equilibrium.scalar_us_per_solve":
                self.inclusive["equilibrium.solve_for_demands"] / solves * 1e6 if solves else 0.0,
            "equilibrium.vector_calls": self.calls["equilibrium.solve_many"] / ops,
            "equilibrium.vector_points": points / ops,
            "equilibrium.vector_ns_per_point":
                self.inclusive["equilibrium.solve_many"] / points * 1e9 if points else 0.0,
            "equilibrium.solve_eq_us": self.per_call("equilibrium.solve_equilibrium", 1e6),
            "equilibrium.statics_us": self.per_call("equilibrium.comparative_statics", 1e6),
            "objectives.evaluate_us": self.per_call("objectives.evaluate_objectives", 1e6),
            "optimize.growth_rates_ms": self.per_call("optimize.growth_rates", 1e3),
            "optimize.profit_ms": self.per_call("optimize.optimize_profit", 1e3),
            "optimize.profit_solves": self.delta_per_call("optimize.optimize_profit", "scalar_solves"),
            "optimize.profit_coarse_points":
                self.delta_per_call("optimize.optimize_profit", "vector_points"),
            "optimize.welfare_ms": self.per_call("optimize.optimize_welfare", 1e3),
            "optimize.one_sided_ms": self.per_call("optimize.optimize_one_sided", 1e3),
            "optimize.self_ms": self.layer_self["optimize"] / ops * 1e3,
            "sensitivity.reopts_per_op":
                self.delta_per_call("sensitivity.optimal_price_sensitivity", "reopts"),
            "sensitivity.trace_ms": self.per_call("sensitivity.elasticity_slope_vs_congestion", 1e3),
            "sensitivity.self_ms": self.layer_self["sensitivity"] / ops * 1e3,
            "oracle.grid_calls": self.calls["oracle.grid_optimize"] / ops,
            "oracle.grid_points": grid_points / ops,
            "oracle.grid_s": self.per_call("oracle.grid_optimize", 1.0),
            "oracle.self_s": self.layer_self["oracle"] / ops,
            "experiments.run_sweep_s": self.per_call("experiments.run_sweep", 1.0),
            "experiments.self_s": self.layer_self["experiments"] / ops,
            "experiments.emit_csv_ms": self.per_call("experiments.emit_csv", 1e3),
            "experiments.verify_optima_s": self.per_call("experiments.verify_optima", 1.0),
            "config.load_ms": self.per_call("config.load_config", 1e3),
            "cli.self_ms": self.layer_self["cli"] / ops * 1e3,
        }

    def write_spans(self, path) -> None:
        """Dump the spans, one JSON object, written once when the run ends."""
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "layer_self_s": {**self.layer_self, "curves": self.curve_counts[3]},
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
