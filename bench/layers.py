"""Per-layer tracing for the traced run, from the benchmark's own files.

`Tracer.install` replaces module attributes of the imported package with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Each wrapper replaces the name at the place
the caller looks it up (`virtual.solve_qp`, not `qp.solve_qp`), so nothing
under src/ changes. `exprs.eval_expr` recurses through its own module global,
which stays unwrapped, so only top-level expression evaluations are spans.
Spans stay in memory; `dump` writes them out at the end and `report` turns
them into the per-layer metrics.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span name). The same span name may sit at several
# call sites, e.g. validate is looked up by cli, simulator and randomized.
CALL_SITES = (
    ("scenario_io", "parse_scenario", "scenario_io.parse"),
    ("scenario_io", "scenario_hash", "scenario_io.hash"),
    ("cli", "scenario_hash", "scenario_io.hash"),
    ("cli", "validate", "scenario.validate"),
    ("simulator", "validate", "scenario.validate"),
    ("randomized", "validate", "scenario.validate"),
    ("randomized", "random_scenario", "randomized.generate"),
    ("cli", "run", "simulator.run"),
    ("randomized", "run", "simulator.run"),
    ("simulator", "_controls", "simulator.controls"),
    ("simulator", "virtual_control", "virtual.control"),
    ("virtual", "assemble_rows", "virtual.rows"),
    ("virtual", "QpProblem", "qp.build"),
    ("virtual", "solve_qp", "qp.solve"),
    ("qp", "_eqp", "qp.subproblem"),
    ("qp", "_feasible_start", "qp.fallback"),
    ("qp", "_exhaustive", "qp.fallback"),
    ("virtual", "eval_avoidance", "barriers.eval"),
    ("virtual", "eval_reach", "barriers.eval"),
    ("simulator", "confinement_control", "confinement.control"),
    ("simulator", "plant_derivative", "plant.deriv"),
    ("plant", "eval_expr", "exprs.eval"),
    ("scenario_io", "eval_expr", "exprs.eval"),
    ("simulator", "_rk4", "simulator.rk4"),
    ("simulator", "compute_metrics", "simulator.metrics"),
    ("cli", "write_trace", "simulator.write"),
    ("cli", "read_trace", "simulator.read"),
    ("cli", "verify_trace", "simulator.verify"),
    ("cli", "render_figure", "svgplot.render"),
)

ACTIVE_BINS = 4  # tight-row counts 0, 1, 2 and 3-or-more


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = Counter()

    def _span_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def _wrap(self, fn, span: str, after=None):
        nid = self._span_id(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(out)
            return out

        return traced

    def install(self) -> None:
        import importlib

        for module, attr, span in CALL_SITES:
            mod = importlib.import_module(f"vczsim.{module}")
            after = self._count_active if span == "qp.solve" else None
            setattr(mod, attr, self._wrap(getattr(mod, attr), span, after))
        from vczsim import simulator

        recorder = simulator._Recorder
        recorder.add = self._wrap(recorder.add, "simulator.record")

    def _count_active(self, solution) -> None:
        if solution.u_star is not None:
            self.active[min(len(solution.active_set), ACTIVE_BINS - 1)] += 1

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def report(self, runs, import_s: float, trace_bytes: int) -> dict:
        """Per-layer metrics of this process; `runs` are (start, end, steps)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        steps = sum(r[2] for r in runs) or 1
        in_run = np.zeros(len(name), dtype=bool)
        for r0, r1, _ in runs:
            in_run |= (start >= r0) & (start <= r1)

        def sel(span, during_run=False):
            mask = name == self.names.index(span) if span in self.names else np.zeros(len(name), bool)
            return mask & in_run if during_run else mask

        def mean_us(span):
            d = dur[sel(span)]
            return float(d.mean() * 1e6) if d.size else 0.0

        def total_ms(span):
            return float(dur[sel(span)].sum() * 1e3)

        def pct_us(span, q):
            d = dur[sel(span)]
            return float(np.percentile(d, q) * 1e6) if d.size else 0.0

        def per_step(span):
            return float(sel(span, True).sum() / steps)

        step_gaps = []
        controls = sel("simulator.controls")
        for r0, r1, _ in runs:
            s = start[controls & (start >= r0) & (start <= r1)]
            step_gaps.append(np.diff(s))
        gaps = np.concatenate(step_gaps) if step_gaps else np.zeros(0)
        solves = int(sel("qp.solve").sum())
        fallback_parents = np.unique(parent[sel("qp.fallback")])
        validations = int(sel("scenario.validate").sum())
        scenarios = int(sel("simulator.run").sum()) or 1
        active_total = sum(self.active.values()) or 1
        out = {
            "vczsim.import_s": (import_s, "s"),
            "scenario_io.parse_ms": (total_ms("scenario_io.parse"), "ms"),
            "scenario_io.hash_ms": (total_ms("scenario_io.hash"), "ms"),
            "scenario.validate_ms": (total_ms("scenario.validate"), "ms"),
            "scenario.validate_calls": (validations, "count"),
            "randomized.generate_ms": (total_ms("randomized.generate"), "ms"),
            "randomized.validations_per_scenario": (validations / scenarios, "ratio"),
            "virtual.control_p50_us": (pct_us("virtual.control", 50), "us"),
            "virtual.control_p99_us": (pct_us("virtual.control", 99), "us"),
            "virtual.rows_us": (mean_us("virtual.rows"), "us"),
            "qp.build_us": (mean_us("qp.build"), "us"),
            "qp.solve_p50_us": (pct_us("qp.solve", 50), "us"),
            "qp.solve_p99_us": (pct_us("qp.solve", 99), "us"),
            "qp.solves_per_step": (per_step("qp.solve"), "count"),
            "qp.subproblems_per_solve": (int(sel("qp.subproblem").sum()) / max(solves, 1), "count"),
            "qp.fallbacks_per_solve": (len(fallback_parents) / max(solves, 1), "ratio"),
            "barriers.evals_per_step": (per_step("barriers.eval"), "count"),
            "barriers.eval_us": (mean_us("barriers.eval"), "us"),
            "confinement.control_us": (mean_us("confinement.control"), "us"),
            "plant.deriv_us": (mean_us("plant.deriv"), "us"),
            "exprs.evals_per_step": (per_step("exprs.eval"), "count"),
            "exprs.eval_us": (mean_us("exprs.eval"), "us"),
            "simulator.step_p50_us": (float(np.percentile(gaps, 50) * 1e6) if gaps.size else 0.0, "us"),
            "simulator.step_p99_us": (float(np.percentile(gaps, 99) * 1e6) if gaps.size else 0.0, "us"),
            "simulator.rk4_us": (mean_us("simulator.rk4"), "us"),
            "simulator.record_us": (mean_us("simulator.record"), "us"),
            "simulator.metrics_ms": (total_ms("simulator.metrics"), "ms"),
            "simulator.write_ms": (total_ms("simulator.write"), "ms"),
            "simulator.read_ms": (total_ms("simulator.read"), "ms"),
            "simulator.verify_ms": (total_ms("simulator.verify"), "ms"),
            "simulator.trace_mb": (trace_bytes / 1e6, "MB"),
            "svgplot.render_ms": (total_ms("svgplot.render"), "ms"),
        }
        out["trace.spans_per_step"] = (len(name) / steps, "count")
        for k in range(ACTIVE_BINS):
            label = f"{k}plus" if k == ACTIVE_BINS - 1 else str(k)
            out[f"qp.active_{label}_share"] = (self.active[k] / active_total, "ratio")
        return {key: {"value": v, "unit": u} for key, (v, u) in out.items()}
