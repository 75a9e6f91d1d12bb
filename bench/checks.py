"""Output checks that share no code with vczsim.

Traces are read with this file's own CSV parser, geometry comes from
geometry.py (or, for the campaign, from the numbers the run dumped), the CBF
rows are rebuilt here, and the QP is re-solved with scipy.optimize:
min 1/2 ||u||^2 s.t. A u >= b is a least-distance program, solved exactly
through non-negative least squares (Lawson & Hanson, ch. 23). Infeasible QPs
are certified empty with scipy.optimize.linprog.

Every check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linprog, nnls

from geometry import BENCHMARK, CROWDED_3D, Geometry, from_dump

# Recorded u_c must equal the re-solved optimum to this relative accuracy.
# The solver's own KKT tolerance is 1e-9; path obstacles differ by ~1e-10
# because the program differences the path while geometry.py differentiates it.
U_TOL = 1e-8
QP_SAMPLES = 200

GEOMETRY = {"benchmark_cli": BENCHMARK, "crowded_3d": CROWDED_3D}


def read_trace_csv(path) -> dict:
    """Parse a trace.csv ('#' metadata lines, a header row, data rows) into arrays."""
    rows, header = [], None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None or not rows:
        raise ValueError(f"{path}: no data rows")
    cols = {name: i for i, name in enumerate(header)}
    n = sum(1 for name in header if name[0] == "x")
    m = sum(1 for name in header if name.startswith("uc"))

    def block(prefix, count):
        idx = [cols[f"{prefix}{i + 1}"] for i in range(count)]
        return np.array([[float(r[i]) for i in idx] for r in rows])

    return {
        "t": np.array([float(r[cols["t"]]) for r in rows]),
        "x": block("x", n),
        "c": block("c", n),
        "u_c": block("uc", m),
    }


def cbf_rows(geom: Geometry, c, t: float):
    """Stacked CBF rows a'u >= b at (c, t) for a single-integrator centre."""
    c = np.asarray(c, dtype=float)
    A, b = [], []
    for obs, alpha in zip(geom.obstacles, geom.alphas):
        delta = c - obs.center(t)
        inflated = obs.radius + geom.r_c
        h = delta @ delta - inflated**2
        A.append(2.0 * delta)
        b.append(-alpha * h + 2.0 * delta @ obs.velocity(t))
    delta = c - np.asarray(geom.target)
    r = float(geom.shrink_radius(t))
    h = r * r - delta @ delta
    A.append(-2.0 * delta)
    b.append(-geom.alphas[-1] * h - 2.0 * r * geom.shrink_rate)
    return np.array(A), np.array(b)


def least_distance(A, b):
    """argmin ||u|| s.t. A u >= b, or None if the constraints are inconsistent."""
    m = A.shape[1]
    E = np.vstack([A.T, b[None, :]])
    f = np.zeros(m + 1)
    f[-1] = 1.0
    y, _ = nnls(E, f)
    r = E @ y - f
    if abs(r[-1]) < 1e-12:
        return None
    return -r[:m] / r[-1]


def certify_empty(A, b) -> bool:
    """True when linprog proves {u : A u >= b} empty."""
    res = linprog(np.zeros(A.shape[1]), A_ub=-A, b_ub=-b, bounds=[(None, None)] * A.shape[1])
    return res.status == 2


def check_samples(geom: Geometry, t, x, c, u_c, complete: bool, label: str) -> list[str]:
    """Per-sample safety, confinement, shrinking ball, terminal, QP optimality."""
    fails = []
    clear = np.full(len(t), math.inf)
    for obs in geom.obstacles:
        clear = np.minimum(clear, np.linalg.norm(x - obs.center(t), axis=1) - obs.radius)
    k = int(np.argmin(clear)) if len(t) else 0
    if len(t) and clear[k] < -geom.clearance_tol:
        fails.append(f"{label}: true state inside an obstacle at t = {t[k]:.4f} (clearance {clear[k]:.3e})")
    gap = np.linalg.norm(x - c, axis=1)
    if np.any(gap >= geom.r_c):
        k = int(np.argmax(gap))
        fails.append(f"{label}: ||x - c|| = {gap[k]:.6g} >= r_c at t = {t[k]:.4f}")
    reach = geom.shrink_radius(t) ** 2 - np.sum((c - np.asarray(geom.target)) ** 2, axis=1)
    if np.any(reach < -geom.invariance_tol):
        k = int(np.argmin(reach))
        fails.append(f"{label}: centre outside the shrinking ball at t = {t[k]:.4f} (h = {reach[k]:.3e})")
    if complete:
        if abs(t[-1] - geom.t_f) > 1e-9:
            fails.append(f"{label}: trace ends at t = {t[-1]}, not t_f = {geom.t_f}")
        dist = float(np.linalg.norm(x[-1] - np.asarray(geom.target)))
        if dist > geom.target_radius:
            fails.append(f"{label}: terminal distance {dist:.4g} > target radius {geom.target_radius}")
    picks = set(np.linspace(0, len(t) - 1, min(QP_SAMPLES, len(t))).astype(int).tolist())
    if len(t):
        picks.add(int(np.argmin(clear)))
    for k in sorted(picks):
        A, b = cbf_rows(geom, c[k], float(t[k]))
        u = least_distance(A, b)
        if u is None:
            fails.append(f"{label}: re-solved QP infeasible at recorded step t = {t[k]:.4f}")
            continue
        err = float(np.linalg.norm(u_c[k] - u))
        if err > U_TOL * max(1.0, float(np.linalg.norm(u))):
            fails.append(f"{label}: u_c off the QP optimum at t = {t[k]:.4f} (|du| = {err:.3e})")
    return fails


def check_file_run(workload: str, out_dir, dt: float) -> list[str]:
    """Checks for a `vczsim run` output directory (benchmark_cli, crowded_3d)."""
    geom = GEOMETRY[workload]
    tr = read_trace_csv(f"{out_dir}/trace.csv")
    fails = []
    steps = int(round(geom.t_f / dt))
    if len(tr["t"]) != steps + 1 or np.max(np.abs(tr["t"] - dt * np.arange(steps + 1))) > 1e-9:
        fails.append(f"{workload}: time grid is not the {steps + 1} samples of k * dt")
    fails += check_samples(geom, tr["t"], tr["x"], tr["c"], tr["u_c"], True, workload)
    metrics = {}
    with open(f"{out_dir}/metrics.txt") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            metrics[key.strip()] = value.strip()
    if metrics.get("ptra_verdict") != "pass":
        fails.append(f"{workload}: metrics.txt verdict is {metrics.get('ptra_verdict')!r}")
    dist = float(np.linalg.norm(tr["x"][-1] - np.asarray(geom.target)))
    if abs(float(metrics.get("terminal_distance", "nan")) - dist) > 1e-9:
        fails.append(f"{workload}: metrics.txt terminal_distance disagrees with the trace")
    return fails


def check_svg(path) -> list[str]:
    with open(path) as fh:
        text = fh.read()
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>") and "<polyline" in text):
        return [f"{path}: not a complete SVG figure with a trajectory"]
    return []


def check_campaign(dump_dir) -> tuple[int, list[str], list[str]]:
    """(seeds run, failed-operation messages, wrong-output messages).

    A breach, or a QP-infeasible abort whose conflicting rows linprog does not
    prove empty, is a failed operation. A certified abort is a completed one.
    Completed runs must pass their verdict, keep min_h >= -invariance_tol and
    pass the per-sample checks.
    """
    with open(f"{dump_dir}/campaign.json") as fh:
        runs = json.load(fh)
    arrays = np.load(f"{dump_dir}/campaign.npz")
    failed, wrong = [], []
    for r in runs:
        seed, status = r["seed"], r["status"]
        geom = from_dump(r["geometry"])
        label = f"campaign seed {seed}"
        t, x, c, u_c = (arrays[f"{seed}_{k}"] for k in ("t", "x", "c", "u_c"))
        if status == "completed":
            if r["verdict"] != "pass":
                wrong.append(f"{label}: completed with verdict {r['verdict']!r} ({r['detail']})")
            if r["min_h"] < -geom.invariance_tol:
                wrong.append(f"{label}: min_h = {r['min_h']:.3e} below -invariance_tol")
            wrong += check_samples(geom, t, x, c, u_c, True, label)
        elif status == "qp_infeasible":
            wrong += check_samples(geom, t, x, c, u_c, False, label)
            rows = r.get("conflicting") or []
            A, b = cbf_rows(geom, r["abort_c"], r["abort_t"]) if rows else (None, None)
            if not rows or not certify_empty(A[rows], b[rows]):
                failed.append(f"{label}: abort on rows {rows} is not certified empty")
        else:
            failed.append(f"{label}: status {status!r} ({r['detail']})")
    return len(runs), failed, wrong
