"""Self-test of the output checks: each must reject a corrupted output.

    python3 bench/selftest.py        # from the repository root; about 20 s

Runs one benchmark_cli and one campaign operation, shows that checks.py
passes their real outputs, then corrupts copies and shows that the matching
check fails on each:
  - a trace sample moved inside an obstacle  -> true-state clearance
  - a recorded u_c pushed off the QP optimum -> QP re-solve
  - a campaign row marked as a breach        -> campaign failed operation
  - an abort's conflicting rows made feasible -> infeasibility certificate
Exit code 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import run
from geometry import BENCHMARK

OUT = run.OUT / "selftest"


def rewrite_trace(src: Path, dst: Path, k: int, edit) -> None:
    """Copy trace.csv, applying edit(fields: dict[str, str]) to data row k."""
    lines = (src / "trace.csv").read_text().splitlines(True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names = lines[head].rstrip("\n").split(",")
    row = dict(zip(names, lines[head + 1 + k].rstrip("\n").split(",")))
    edit(row)
    lines[head + 1 + k] = ",".join(row[n] for n in names) + "\n"
    shutil.copytree(src, dst)
    (dst / "trace.csv").write_text("".join(lines))


def expect(label: str, messages: list[str], needle: str) -> bool:
    hit = [m for m in messages if needle in m]
    print(f"{'ok  ' if hit else 'FAIL'} {label}: {hit[0] if hit else 'not rejected'}")
    return bool(hit)


def main() -> int:
    if not (run.SRC / "vczsim" / "__init__.py").exists():
        print("run from the repository root", file=sys.stderr)
        return 2
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    scenario = run.scenario_file("benchmark_cli", 0, OUT)
    cli_dir, camp_dir = OUT / "cli", OUT / "campaign"
    for workload, scn, d in (("benchmark_cli", scenario, cli_dir), ("campaign", None, camp_dir)):
        if not run.operation(workload, scn, d, 0)["ok"]:
            print(f"FAIL {workload} operation did not complete", file=sys.stderr)
            return 1
    good = True

    clean = checks.check_file_run("benchmark_cli", cli_dir, 1e-3) + checks.check_svg(cli_dir / "fig.svg")
    seeds, failed, wrong = checks.check_campaign(camp_dir)
    print(f"{'ok  ' if not clean else 'FAIL'} real benchmark_cli output passes: {clean or 'no messages'}")
    print(f"{'ok  ' if not (failed or wrong) else 'FAIL'} real campaign output passes ({seeds} seeds)")
    good &= not clean and not failed and not wrong

    k = 5000
    t_k = k * 1e-3
    inside = BENCHMARK.obstacles[1].center(t_k)

    def into_obstacle(row):
        for i, v in enumerate(inside):
            row[f"x{i + 1}"] = repr(float(v))

    rewrite_trace(cli_dir, OUT / "moved", k, into_obstacle)
    good &= expect("sample moved inside an obstacle",
                   checks.check_file_run("benchmark_cli", OUT / "moved", 1e-3), "inside an obstacle")

    def push_u(row):
        row["uc1"] = repr(float(row["uc1"]) + 1e-3)

    rewrite_trace(cli_dir, OUT / "pushed", 0, push_u)
    good &= expect("u_c pushed off the optimum",
                   checks.check_file_run("benchmark_cli", OUT / "pushed", 1e-3), "off the QP optimum")

    rows = json.loads((camp_dir / "campaign.json").read_text())
    breach = OUT / "breach"
    shutil.copytree(camp_dir, breach)
    rows_b = [dict(r) for r in rows]
    rows_b[0].update(status="confinement_breach", verdict="fail", detail="aborted at t = 1.000")
    (breach / "campaign.json").write_text(json.dumps(rows_b))
    good &= expect("campaign row with a breach", checks.check_campaign(breach)[1], "confinement_breach")

    feasible = OUT / "uncertified"
    shutil.copytree(camp_dir, feasible)
    rows_f = [dict(r) for r in rows]
    aborted = [r for r in rows_f if r["status"] == "qp_infeasible"]
    for r in aborted:
        r["conflicting"] = r["conflicting"][:1]
    (feasible / "campaign.json").write_text(json.dumps(rows_f))
    good &= bool(aborted) and expect("abort on a feasible row subset",
                                     checks.check_campaign(feasible)[1], "not certified")
    print("self-test", "passed" if good else "FAILED")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
