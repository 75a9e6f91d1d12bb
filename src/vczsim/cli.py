"""Batch command-line entry point.

Subcommands: validate (precondition checks), run (simulate and export trace
plus metrics), plot (SVG figure from a trace), suite (randomized invariance
campaign). Exit codes are a stable contract: 0 pass, 1 verdict or
validation failure, 2 parse error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import resources
from pathlib import Path

from .randomized import run_campaign
from .scenario import Scenario, validate
from .scenario_io import ScenarioParseError, load_scenario, scenario_hash
from .simulator import SimulationAbort, read_trace, run, verify_trace, write_trace
from .svgplot import render_figure

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_ABORT = 3


def _int_at_least(low: int):
    """argparse type: an integer >= low, so a bad count fails before any work."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _finite_times(text: str) -> list[float]:
    """argparse type: comma-separated finite times."""
    try:
        times = [float(v) for v in text.split(",")]
    except ValueError:
        times = [math.nan]
    if not all(map(math.isfinite, times)):
        raise argparse.ArgumentTypeError(f"expected comma-separated finite times, got {text!r}")
    return times


def _load(path: str) -> Scenario:
    if path == "benchmark":
        text = resources.files("vczsim.data").joinpath("benchmark.scn").read_text()
        from .scenario_io import parse_scenario

        return parse_scenario(text)
    return load_scenario(path)


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    overrides = {}
    if getattr(args, "dt", None) is not None:
        overrides["dt"] = args.dt
    if getattr(args, "tf", None) is not None:
        overrides["t_f"] = args.tf
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return scenario.with_overrides(**overrides) if overrides else scenario


def cmd_validate(args) -> int:
    try:
        scenario = _apply_overrides(_load(args.scenario), args)
    except (ValueError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = validate(scenario, args.samples)
    print(report.format())
    return EXIT_PASS if report.all_passed else EXIT_FAIL


def cmd_run(args) -> int:
    try:
        scenario = _apply_overrides(_load(args.scenario), args)
    except (ValueError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    report = validate(scenario)
    (out / "validation.txt").write_text(report.format() + "\n")
    if not report.all_passed:
        print(report.format())
        return EXIT_FAIL

    try:
        trace, metrics = run(scenario, check=False)
    except SimulationAbort as abort:
        write_trace(abort.trace, out / "trace.csv", args.decimate)
        (out / "abort.txt").write_text(f"{abort.reason} at t = {abort.t}\n{abort.detail}\n")
        print(f"aborted: {abort.reason} at t = {abort.t:.4g} ({abort.detail})", file=sys.stderr)
        return EXIT_ABORT

    write_trace(trace, out / "trace.csv", args.decimate)
    lines = [f"{key} = {value}" for key, value in metrics.as_dict().items()]
    (out / "metrics.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    checks = verify_trace(trace, scenario)
    (out / "verification.txt").write_text(checks.format() + "\n")
    ok = metrics.ptra_verdict == "pass" and metrics.u_c_within_ceiling and checks.all_passed
    print(f"verdict: {'pass' if ok else 'fail'}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_plot(args) -> int:
    try:
        scenario = _load(args.scenario)
    except (ScenarioParseError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        trace = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if trace.scenario_hash != scenario_hash(scenario):
        print(
            f"scenario hash mismatch: trace {trace.scenario_hash}, "
            f"scenario {scenario_hash(scenario)}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    render_figure(trace, scenario, args.out, args.snapshots)
    print(f"wrote {args.out}")
    return EXIT_PASS


def cmd_suite(args) -> int:
    summary = run_campaign(count=args.count, base_seed=args.seed)
    print(summary.format_table())
    ok = summary.invariance_holds() and summary.breach_count == 0
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vczsim",
        description="Prescribed-time reach-avoid runs with a QP-steered confinement zone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check scenario preconditions")
    p.add_argument("scenario", help="scenario file path, or 'benchmark'")
    p.add_argument("--samples", type=_int_at_least(2), default=1001, help="time grid size")
    p.add_argument("--dt", type=float)
    p.add_argument("--tf", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="validate, simulate, export trace and metrics")
    p.add_argument("scenario", help="scenario file path, or 'benchmark'")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dt", type=float)
    p.add_argument("--tf", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--decimate", type=_int_at_least(1), default=1, help="write every k-th record")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("plot", help="render an SVG figure from a trace")
    p.add_argument("trace", help="trace csv path")
    p.add_argument("scenario", help="scenario file path, or 'benchmark'")
    p.add_argument("--out", required=True, help="output svg path")
    p.add_argument("--snapshots", type=_finite_times, help="comma-separated obstacle snapshot times")
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("suite", help="randomized invariance campaign")
    p.add_argument("--count", type=_int_at_least(1), default=20)
    p.add_argument("--seed", type=int, default=2024, help="base seed")
    p.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
