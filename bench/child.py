"""One operation of a benchmark workload, in a fresh interpreter.

Started by run.py with one BLAS thread and `src` on the path. It runs each
--cmd through `vczsim.cli.main`, exactly as the `vczsim` command would, and
writes a JSON result: timestamps on the system-wide perf_counter clock (so
run.py can take intervals from before it started this process), the steps
integrated by each `run()` call, peak RSS and the exit codes. With --trace 1
it first wraps the package's module attributes (layers.py) and adds the
per-layer figures. With --setup-only it stops at the first closed-loop step,
which gives one more sample of the set-up time.

    python3 bench/child.py --out DIR --result R.json --trace 0 --cmd "run S --out DIR"
"""

import argparse
import json
import os
import resource
import shlex
import sys
import time


def _peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ru_maxrss is not used: Linux carries the parent's peak across fork and
    exec into it, so it would report run.py's size whenever that is larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SetupDone(Exception):
    """Raised at the first closed-loop step of a --setup-only operation."""


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--cmd", action="append", required=True, help="one vczsim command line")
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    commands = [shlex.split(c) for c in args.cmd]

    t0 = time.perf_counter()
    import vczsim  # noqa: F401

    import_s = time.perf_counter() - t0
    from vczsim import cli, randomized, simulator

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    runs = []       # (start, end, steps) of each simulator.run call
    kept = []       # campaign: (scenario, trace, abort) for the output checks
    keep = commands[0][0] == "suite"
    marks = {}

    def first_step():
        marks.setdefault("first_step", time.perf_counter())
        if args.setup_only:
            raise SetupDone

    def timed_run(real):
        def run(scenario, check=True):
            first_step()
            start = time.perf_counter()
            try:
                trace, metrics = real(scenario, check)
            except simulator.SimulationAbort as abort:
                # The step whose QP was infeasible was attempted but not recorded.
                extra = abort.reason == simulator.QP_INFEASIBLE
                runs.append((start, time.perf_counter(), len(abort.trace) + int(extra)))
                if keep:
                    kept.append((scenario, abort.trace, abort))
                raise
            runs.append((start, time.perf_counter(), len(trace)))
            if keep:
                kept.append((scenario, trace, None))
            return trace, metrics

        return run

    summaries = []
    real_campaign = cli.run_campaign

    def campaign(*a, **k):
        first_step()  # campaign set-up is the imports only
        summary = real_campaign(*a, **k)
        summaries.append(summary)
        return summary

    cli.run = timed_run(cli.run)
    randomized.run = timed_run(randomized.run)
    cli.run_campaign = campaign

    try:
        codes = [cli.main(argv) for argv in commands]
    except SetupDone:
        codes = []
    sys.stdout.flush()
    t_end = time.perf_counter()

    result = {
        "t_first_step": marks.get("first_step"),
        "t_end": t_end,
        "runs": runs,
        "codes": codes,
        "peak_rss_kb": _peak_rss_kb(),
        "import_s": import_s,
    }
    if summaries:
        _dump_campaign(args.out, summaries[0], kept)
    if tracer is not None:
        trace_csv = os.path.join(args.out, "trace.csv")
        trace_bytes = os.path.getsize(trace_csv) if os.path.exists(trace_csv) else 0
        result["layers"] = tracer.report(runs, import_s, trace_bytes)
        tracer.dump(os.path.join(args.out, "spans.npz"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _dump_campaign(out, summary, kept) -> None:
    """Per-seed status plus the numbers checks.py needs, written after timing ends."""
    import numpy as np

    rows, arrays = [], {}
    for run, (scenario, trace, abort) in zip(summary.runs, kept):
        seed = run.seed
        if any(o.kind not in ("static", "linear") for o in scenario.obstacles):
            raise SystemExit(f"seed {seed}: an obstacle kind geometry.py cannot restate")
        row = {
            "seed": seed,
            "status": run.status,
            "verdict": run.verdict,
            "min_h": run.min_barrier_value,
            "detail": run.detail,
            "geometry": {
                "obstacles": [
                    {"p0": o.center(0.0).tolist(), "v": o.velocity(0.0).tolist(), "radius": o.radius}
                    for o in scenario.obstacles
                ],
                "target": scenario.target.center.tolist(),
                "target_radius": scenario.target.radius,
                "r_c": scenario.r_c,
                "t_f": scenario.t_f,
                "r_start": scenario.shrink.r_start,
                "r_end": scenario.shrink.r_end,
                "alphas": [a.slope for a in scenario.alphas],
                "invariance_tol": scenario.invariance_tol,
                "clearance_tol": scenario.clearance_tol,
            },
        }
        cause = abort.__cause__ if abort is not None else None
        if cause is not None and hasattr(cause, "conflicting"):
            row.update(abort_t=cause.t, abort_c=cause.c.tolist(), conflicting=list(cause.conflicting))
        rows.append(row)
        for key in ("t", "x", "c", "u_c"):
            arrays[f"{seed}_{key}"] = getattr(trace, key)
    with open(os.path.join(out, "campaign.json"), "w") as fh:
        json.dump(rows, fh)
    np.savez(os.path.join(out, "campaign.npz"), **arrays)


if __name__ == "__main__":
    sys.exit(main())
