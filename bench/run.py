"""vczsim benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload benchmark_cli --seed 1 --seconds 20 --trace 0

Run from the repository root. Each operation is a fresh interpreter
(child.py) with one BLAS thread and `src` on the path; nothing of the
benchmark's own runs while it does. Operations repeat until --seconds have
passed, whole operations only; each run's figures are medians over its
operations. After each operation, outside its timing, the outputs go through
checks.py, which shares no code with vczsim.

--trace 0 reports the end-to-end metrics. --trace 1 alternates an untraced
and a traced operation and reports the per-layer metrics of the traced ones
plus the tracing overhead against the untraced ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Exit code 2, with no result, when the checkout holds no vczsim sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = BENCH / "out"
OP_TIMEOUT_S = 170
SETUP_PROBES = 3  # extra set-up-only operations per run, for the setup_s median
WORKLOADS = ("benchmark_cli", "crowded_3d", "campaign")
CAMPAIGN_BASE_SEED = 2024
CAMPAIGN_COUNT = 4  # seeds 2024..2027; 2026 aborts QP-infeasible at t = 2.8 s


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def scenario_file(workload: str, seed: int, out: Path) -> Path | None:
    """The workload's scenario file with its `[run] seed` set to --seed.

    The seed only picks the sample points of validation check V5 and enters
    the scenario hash; the dynamics, and so the cost, do not depend on it.
    """
    source = {
        "benchmark_cli": SRC / "vczsim" / "data" / "benchmark.scn",
        "crowded_3d": BENCH / "scenarios" / "crowded_3d.scn",
    }.get(workload)
    if source is None:
        return None
    text, count = re.subn(r"(?m)^seed = .*$", f"seed = {seed}", source.read_text())
    if count != 1:
        raise SystemExit(f"{source}: expected one 'seed = ' line")
    path = out / f"{workload}.scn"
    path.write_text(text)
    return path


def commands(workload: str, scenario: Path | None, d: Path) -> list[list[str]]:
    """The `vczsim` command lines of one operation."""
    if workload == "benchmark_cli":
        return [
            ["run", str(scenario), "--out", str(d)],
            ["plot", str(d / "trace.csv"), str(scenario), "--out", str(d / "fig.svg"), "--snapshots", "0,5,10"],
        ]
    if workload == "crowded_3d":
        return [["run", str(scenario), "--out", str(d)]]
    return [["suite", "--count", str(CAMPAIGN_COUNT), "--seed", str(CAMPAIGN_BASE_SEED)]]


def operation(workload: str, scenario: Path | None, op_dir: Path, trace: int, setup_only=False) -> dict:
    """Run one operation; returns the child's result plus the parent-side times."""
    op_dir.mkdir(parents=True)
    result_path = op_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--out", str(op_dir), "--result", str(result_path),
           "--trace", str(trace)]
    for argv in commands(workload, scenario, op_dir):
        cmd += ["--cmd", shlex.join(argv)]
    if setup_only:
        cmd.append("--setup-only")
    with open(op_dir / "stdout.txt", "w") as out, open(op_dir / "stderr.txt", "w") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=out, stderr=err, cwd=ROOT)
        try:
            code = proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:  # also on SIGTERM or Ctrl-C: leave no child behind
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not result_path.exists():
        return {"ok": False, "why": f"child exit {code}: {(op_dir / 'stderr.txt').read_text()[-400:]}"}
    res = json.loads(result_path.read_text())
    res["ok"] = True
    res["t_spawn"] = t_spawn
    return res


def end_to_end(res: dict) -> dict:
    """wall = setup + time in run() + post: post_s is the rest of the wall time.

    On the two file workloads that is exactly the post-run stages (trace
    write, verification, metrics file, plot). On campaign it is generating
    and validating the scenarios and printing the summary.
    """
    runs = res["runs"]
    steps = sum(r[2] for r in runs)
    run_s = sum(r[1] - r[0] for r in runs)
    wall = res["t_end"] - res["t_spawn"]
    setup = res["t_first_step"] - res["t_spawn"]
    return {
        "wall_s": wall,
        "setup_s": setup,
        "us_per_step": run_s / steps * 1e6,
        "post_s": wall - setup - run_s,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }


UNITS = {"wall_s": "s", "setup_s": "s", "us_per_step": "us", "post_s": "s", "peak_rss_mb": "MB"}


def sha256(path: Path, rows_only: bool = False) -> str:
    data = path.read_bytes()
    if rows_only:
        data = b"".join(line for line in data.splitlines(True) if not line.startswith(b"#"))
    return hashlib.sha256(data).hexdigest()


def fingerprint(workload: str, op_dir: Path) -> list[str]:
    """Behaviour fingerprint lines; for reference only, not a gate."""
    if workload == "campaign":
        rows = json.loads((op_dir / "campaign.json").read_text())
        lines = [f"{r['seed']} {r['status']} min_h={r['min_h']!r}" for r in rows]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return [f"fingerprint campaign {line}" for line in lines] + [f"fingerprint campaign sha256 {digest}"]
    return [
        f"fingerprint {workload} trace.csv sha256 {sha256(op_dir / 'trace.csv')}",
        f"fingerprint {workload} trace.csv rows sha256 {sha256(op_dir / 'trace.csv', True)}",
        f"fingerprint {workload} metrics.txt sha256 {sha256(op_dir / 'metrics.txt')}",
    ]


def check(workload: str, res: dict, op_dir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, wrong-output messages) for one operation."""
    if workload == "campaign":
        seeds, failed, wrong = checks.check_campaign(op_dir)
        return seeds, len(failed), failed + wrong
    if any(res["codes"]):
        return 1, 1, []
    problems = checks.check_file_run(workload, op_dir, dt=1e-3)
    if workload == "benchmark_cli":
        problems += checks.check_svg(op_dir / "fig.svg")
    return 1, 0, problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "vczsim" / "__init__.py").exists():
        print(f"no vczsim sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    scenario = scenario_file(args.workload, args.seed, out)
    # Untimed warm-up: byte-compile the package and fill the file cache, which
    # users pay once per install, not once per command.
    subprocess.run([sys.executable, "-c", "import vczsim.cli"], env=child_env(), check=True, cwd=ROOT)

    modes = (0,) if args.trace == 0 else (0, 1)
    samples = {0: [], 1: []}
    setups = []
    for i in range(SETUP_PROBES if args.trace == 0 else 0):
        res = operation(args.workload, scenario, out / f"setup{i}", 0, setup_only=True)
        if res["ok"]:
            setups.append(res["t_first_step"] - res["t_spawn"])
        else:
            print(f"set-up probe {i} failed: {res['why']}", file=sys.stderr)
    attempted = failed = 0
    wrong: list[str] = []
    prints: list[str] = []
    begin = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - begin < args.seconds:
        for mode in modes:
            op_dir = out / f"op{k:02d}_{'traced' if mode else 'plain'}"
            res = operation(args.workload, scenario, op_dir, mode)
            if not res["ok"]:
                lost = CAMPAIGN_COUNT if args.workload == "campaign" else 1
                attempted += lost
                failed += lost
                print(f"operation {op_dir.name} failed: {res['why']}", file=sys.stderr)
                continue
            a, f, w = check(args.workload, res, op_dir)
            attempted += a
            failed += f
            wrong += [f"{op_dir.name}: {m}" for m in w]
            if any(res["codes"]):
                continue  # a command failed: no complete outputs, no timing
            samples[mode].append(res)
            lines = fingerprint(args.workload, op_dir)
            if prints and lines != prints:
                wrong.append(f"{op_dir.name}: output differs from the first operation of this run")
            prints = prints or lines
        k += 1

    for line in prints:
        print(line)
    for m in wrong:
        print(f"check failed: {m}")
    if args.trace == 0:
        per_op = [end_to_end(r) for r in samples[0]]
        metrics = {
            name: {"value": statistics.median(op[name] for op in per_op), "unit": unit}
            for name, unit in UNITS.items()
        } if per_op else {}
        if per_op:
            setups += [op["setup_s"] for op in per_op]
            metrics["setup_s"]["value"] = statistics.median(setups)
        for i, op in enumerate(per_op):
            print("op", i, " ".join(f"{key}={val:.6g}" for key, val in op.items()))
    else:
        metrics = {}
        traced = [r["layers"] for r in samples[1]]
        for name in traced[0] if traced else ():
            metrics[name] = {
                "value": statistics.median(t[name]["value"] for t in traced),
                "unit": traced[0][name]["unit"],
            }
        if traced and samples[0]:
            plain = statistics.median(end_to_end(r)["wall_s"] for r in samples[0])
            slow = statistics.median(end_to_end(r)["wall_s"] for r in samples[1])
            metrics["trace.overhead_pct"] = {"value": 100.0 * (slow / plain - 1.0), "unit": "%"}
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
