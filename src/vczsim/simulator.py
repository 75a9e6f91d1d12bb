"""Closed-loop integration of the coupled true/virtual system.

Both controls are computed once per step and held constant (zero-order
hold) while a classical fixed-step RK4 advances true state and center
jointly. Every step is recorded; metrics and the reach-avoid verdict are
computed from the full-resolution trace, and verify_trace re-derives all
safety claims from raw states rather than trusting logged values. Both work
on whole-trace arrays: obstacle centres come from Obstacle.centers for all
recorded times at once, and verify_trace calls no controller barrier code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .confinement import confinement_control
from .plant import plant_derivative
from .scenario import (
    CheckResult,
    Scenario,
    ScenarioInvalidError,
    ValidationReport,
    validate,
)
from .virtual import QpInfeasibleError, virtual_control

BREACH = "confinement_breach"
QP_INFEASIBLE = "qp_infeasible"

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"


@dataclass(frozen=True)
class SimTrace:
    """Columnar per-step record of the closed loop."""

    t: np.ndarray          # (N,)
    x: np.ndarray          # (N, n)
    c: np.ndarray          # (N, n)
    u: np.ndarray          # (N, n)
    u_c: np.ndarray        # (N, n)
    h: np.ndarray          # (N, d)
    e_hat: np.ndarray      # (N,)
    qp_status: tuple[str, ...]
    qp_kkt: np.ndarray     # (N,)
    scenario_hash: str
    dt: float
    version: str = __version__

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class RunMetrics:
    min_true_clearance: float
    min_center_clearance: float
    terminal_distance: float
    max_e_hat: float
    max_u_c_norm: float
    max_u_norm: float
    min_barrier_value: float
    all_qp_optimal: bool
    u_c_within_ceiling: bool
    ptra_verdict: str
    failure_reason: str = ""

    def as_dict(self) -> dict:
        return {
            "min_true_clearance": self.min_true_clearance,
            "min_center_clearance": self.min_center_clearance,
            "terminal_distance": self.terminal_distance,
            "max_e_hat": self.max_e_hat,
            "max_u_c_norm": self.max_u_c_norm,
            "max_u_norm": self.max_u_norm,
            "min_barrier_value": self.min_barrier_value,
            "all_qp_optimal": self.all_qp_optimal,
            "u_c_within_ceiling": self.u_c_within_ceiling,
            "ptra_verdict": self.ptra_verdict,
            "failure_reason": self.failure_reason,
        }


class SimulationAbort(RuntimeError):
    """Run stopped early (breach or infeasible QP); carries the partial trace."""

    def __init__(self, reason: str, t: float, trace: SimTrace, detail: str):
        self.reason = reason
        self.t = t
        self.trace = trace
        self.detail = detail
        super().__init__(f"simulation aborted at t = {t:.6g}: {reason} ({detail})")


def _step_schedule(t_f: float, dt: float) -> list[tuple[float, float]]:
    """(start time, step size) pairs covering [0, t_f]; final partial step allowed."""
    n = int(round(t_f / dt))
    if n >= 1 and abs(n * dt - t_f) <= 1e-9 * max(1.0, t_f):
        return [(k * dt, dt if k < n - 1 else t_f - (n - 1) * dt) for k in range(n)]
    n_full = int(math.floor(t_f / dt))
    steps = [(k * dt, dt) for k in range(n_full)]
    rem = t_f - n_full * dt
    if rem > 1e-12 * max(1.0, t_f):
        steps.append((n_full * dt, rem))
    return steps


def _rk4(scenario: Scenario, x, c, u, u_c, t: float, dt: float):
    model = scenario.plant
    k1x = plant_derivative(model, x, u, t)
    k2x = plant_derivative(model, x + 0.5 * dt * k1x, u, t + 0.5 * dt)
    k3x = plant_derivative(model, x + 0.5 * dt * k2x, u, t + 0.5 * dt)
    k4x = plant_derivative(model, x + dt * k3x, u, t + dt)
    x_next = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
    # The centre is a single integrator: every stage derivative is the held u_c.
    c_next = c + dt / 6.0 * (u_c + 2 * u_c + 2 * u_c + u_c)
    return x_next, c_next


def _controls(t: float, x, c, scenario: Scenario, hint=()):
    u_c, solution, h = virtual_control(c, t, scenario, hint)
    u = confinement_control(x, c, scenario.confinement)
    return u, u_c, solution, h


class _Recorder:
    """Trace columns preallocated for `rows` records, filled in step order."""

    def __init__(self, scenario: Scenario, scenario_hash: str, rows: int):
        n, d = scenario.n, scenario.barrier_count
        self.scenario = scenario
        self.hash = scenario_hash
        self.k = 0
        self.t = np.zeros(rows)
        self.x = np.zeros((rows, n))
        self.c = np.zeros((rows, n))
        self.u = np.zeros((rows, n))
        self.u_c = np.zeros((rows, n))
        self.h = np.zeros((rows, d))
        self.e_hat = np.zeros(rows)
        self.status = [""] * rows
        self.kkt = np.zeros(rows)

    def add(self, t: float, x, c, u, u_c, solution, h):
        k = self.k
        self.t[k] = t
        self.x[k] = x
        self.c[k] = c
        self.u[k] = u
        self.u_c[k] = u_c
        self.h[k] = h
        self.e_hat[k] = float(np.linalg.norm(x - c)) / self.scenario.r_c
        self.status[k] = solution.status
        self.kkt[k] = solution.kkt_residual
        self.k = k + 1

    def trace(self) -> SimTrace:
        k = self.k
        return SimTrace(
            t=self.t[:k],
            x=self.x[:k],
            c=self.c[:k],
            u=self.u[:k],
            u_c=self.u_c[:k],
            h=self.h[:k],
            e_hat=self.e_hat[:k],
            qp_status=tuple(self.status[:k]),
            qp_kkt=self.kkt[:k],
            scenario_hash=self.hash,
            dt=self.scenario.dt,
        )


def run(scenario: Scenario, check: bool = True) -> tuple[SimTrace, RunMetrics]:
    """Integrate from 0 to t_f; validation runs first and gates the attempt.

    Raises ScenarioInvalidError on failed validation and SimulationAbort
    (carrying the partial trace) on confinement breach or an infeasible QP.
    """
    if check:
        report = validate(scenario)
        if not report.all_passed:
            raise ScenarioInvalidError(report)
    from .scenario_io import scenario_hash  # local import to avoid a cycle

    schedule = _step_schedule(scenario.t_f, scenario.dt)
    recorder = _Recorder(scenario, scenario_hash(scenario), len(schedule) + 1)
    x, c = scenario.x0.copy(), scenario.x0.copy()
    hint = ()  # each QP first tries the previous step's certified working set
    # The last pass records the controls at t_f and takes no step.
    for t_k, dt_k in schedule + [(scenario.t_f, None)]:
        try:
            u, u_c, solution, h = _controls(t_k, x, c, scenario, hint)
        except QpInfeasibleError as exc:
            raise SimulationAbort(QP_INFEASIBLE, t_k, recorder.trace(), str(exc)) from exc
        recorder.add(t_k, x, c, u, u_c, solution, h)
        hint = solution.support
        if dt_k is None:
            break
        x, c = _rk4(scenario, x, c, u, u_c, t_k, dt_k)
        gap = float(np.linalg.norm(x - c))
        if gap >= scenario.r_c:
            raise SimulationAbort(
                BREACH,
                t_k + dt_k,
                recorder.trace(),
                f"||x - c|| = {gap:.6g} >= r_c = {scenario.r_c:.6g}",
            )
    trace = recorder.trace()
    return trace, compute_metrics(trace, scenario)


def _obstacle_margins(trace: SimTrace, scenario: Scenario):
    """Per-sample minima over obstacles, one obstacle at a time: true-state
    clearance, centre clearance, and the avoidance barrier
    ||c - b_j(t)||^2 - (r_j + r_c)^2."""
    n_rec = len(trace)
    true_clear = np.full(n_rec, math.inf)
    center_clear = np.full(n_rec, math.inf)
    avoid = np.full(n_rec, math.inf)
    for obs in scenario.obstacles:
        centers = obs.centers(trace.t)
        inflated = obs.radius + scenario.r_c
        delta = trace.c - centers
        d_true = np.linalg.norm(trace.x - centers, axis=1) - obs.radius
        d_center = np.linalg.norm(delta, axis=1) - inflated
        true_clear = np.minimum(true_clear, d_true)
        center_clear = np.minimum(center_clear, d_center)
        avoid = np.minimum(avoid, np.einsum("ij,ij->i", delta, delta) - inflated * inflated)
    return true_clear, center_clear, avoid


def compute_metrics(trace: SimTrace, scenario: Scenario) -> RunMetrics:
    true_clear, center_clear, _ = _obstacle_margins(trace, scenario)
    terminal = float(np.linalg.norm(trace.x[-1] - scenario.target.center))
    max_u_c = float(np.max(np.linalg.norm(trace.u_c, axis=1)))
    max_u = float(np.max(np.linalg.norm(trace.u, axis=1)))
    min_true = float(np.min(true_clear))
    reasons = []
    if min_true <= -scenario.clearance_tol:
        reasons.append(f"obstacle clearance {min_true:.3e}")
    if terminal > scenario.target.radius:
        reasons.append(f"terminal distance {terminal:.4g} > {scenario.target.radius}")
    return RunMetrics(
        min_true_clearance=min_true,
        min_center_clearance=float(np.min(center_clear)),
        terminal_distance=terminal,
        max_e_hat=float(np.max(trace.e_hat)),
        max_u_c_norm=max_u_c,
        max_u_norm=max_u,
        min_barrier_value=float(np.min(trace.h)),
        all_qp_optimal=all(s == "optimal" for s in trace.qp_status),
        u_c_within_ceiling=max_u_c <= scenario.u_c_ceiling,
        ptra_verdict=VERDICT_PASS if not reasons else VERDICT_FAIL,
        failure_reason="; ".join(reasons),
    )


def verify_trace(trace: SimTrace, scenario: Scenario) -> ValidationReport:
    """Re-check every claim from raw (t, x, c); logged h values are ignored.

    T1 center outside inflated obstacles, T2 center inside the shrinking
    ball, T3 true state outside true obstacles, T4 normalized error below
    one, T5 terminal target membership (not evaluable on truncated traces).
    T1 and T2 are whole-trace geometry, ||c - b_j(t)||^2 - (r_j + r_c)^2 and
    r(t)^2 - ||c - b_R||^2 with r(t) affine in t; no controller code runs.
    """
    checks = []
    tol = scenario.invariance_tol
    true_clear, _, avoid = _obstacle_margins(trace, scenario)
    shrink = scenario.shrink
    r = (shrink.r_end - shrink.r_start) * (trace.t / shrink.t_f) + shrink.r_start
    to_target = trace.c - scenario.target.center
    reach = r * r - np.einsum("ij,ij->i", to_target, to_target)

    worst = int(np.argmin(avoid))
    checks.append(
        CheckResult(
            "T1",
            bool(avoid.min() >= -tol),
            float(avoid.min()),
            float(trace.t[worst]),
            "center avoidance barriers",
        )
    )
    worst = int(np.argmin(reach))
    checks.append(
        CheckResult(
            "T2", bool(reach.min() >= -tol), float(reach.min()), float(trace.t[worst]), "shrinking ball"
        )
    )

    worst = int(np.argmin(true_clear))
    checks.append(
        CheckResult(
            "T3",
            bool(true_clear.min() >= -scenario.clearance_tol),
            float(true_clear.min()),
            float(trace.t[worst]),
            "true-state obstacle clearance",
        )
    )

    e_hat = np.linalg.norm(trace.x - trace.c, axis=1) / scenario.r_c
    worst = int(np.argmax(e_hat))
    checks.append(
        CheckResult(
            "T4", bool(e_hat.max() < 1.0), float(1.0 - e_hat.max()), float(trace.t[worst]), "confinement"
        )
    )

    complete = abs(float(trace.t[-1]) - scenario.t_f) <= trace.dt / 2
    if complete:
        terminal = float(np.linalg.norm(trace.x[-1] - scenario.target.center))
        checks.append(
            CheckResult(
                "T5",
                terminal <= scenario.target.radius,
                scenario.target.radius - terminal,
                scenario.t_f,
                "terminal target membership",
            )
        )
    else:
        checks.append(
            CheckResult("T5", False, -math.inf, float(trace.t[-1]), "not evaluable: trace ends early")
        )
    return ValidationReport(tuple(checks))


TRACE_FLOAT_FMT = "%.17g"


def write_trace(trace: SimTrace, path, decimate: int = 1) -> None:
    """Delimited text export; decimation thins rows for output only."""
    if decimate < 1:
        raise ValueError("decimate must be >= 1")
    n, m, d = trace.x.shape[1], trace.u_c.shape[1], trace.h.shape[1]
    header = (
        ["t"]
        + [f"x{i+1}" for i in range(n)]
        + [f"c{i+1}" for i in range(n)]
        + [f"u{i+1}" for i in range(n)]
        + [f"uc{i+1}" for i in range(m)]
        + [f"h{i+1}" for i in range(d)]
        + ["e_hat", "qp_status", "qp_kkt"]
    )
    keep = list(range(0, len(trace), decimate))
    if keep and keep[-1] != len(trace) - 1:
        keep.append(len(trace) - 1)
    fmt = TRACE_FLOAT_FMT
    with open(path, "w") as fh:
        fh.write(f"# scenario_hash = {trace.scenario_hash}\n")
        fh.write(f"# dt = {fmt % trace.dt}\n")
        fh.write(f"# version = {trace.version}\n")
        fh.write(",".join(header) + "\n")
        for k in keep:
            nums = (
                [trace.t[k]]
                + list(trace.x[k])
                + list(trace.c[k])
                + list(trace.u[k])
                + list(trace.u_c[k])
                + list(trace.h[k])
                + [trace.e_hat[k]]
            )
            row = [fmt % v for v in nums] + [trace.qp_status[k], fmt % trace.qp_kkt[k]]
            fh.write(",".join(row) + "\n")


def read_trace(path) -> SimTrace:
    meta = {}
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None or not rows:
        raise ValueError(f"no trace data in {path}")
    n = sum(1 for name in header if name.startswith("x"))
    m = sum(1 for name in header if name.startswith("uc"))
    d = sum(1 for name in header if name.startswith("h") and name != "e_hat")
    data = np.array([[float(v) for v in row[: 1 + 3 * n + m + d + 1]] for row in rows])
    status = tuple(row[-2] for row in rows)
    kkt = np.array([float(row[-1]) for row in rows])
    i = 1
    x = data[:, i : i + n]; i += n
    c = data[:, i : i + n]; i += n
    u = data[:, i : i + n]; i += n
    u_c = data[:, i : i + m]; i += m
    h = data[:, i : i + d]; i += d
    return SimTrace(
        t=data[:, 0],
        x=x,
        c=c,
        u=u,
        u_c=u_c,
        h=h,
        e_hat=data[:, i],
        qp_status=status,
        qp_kkt=kkt,
        scenario_hash=meta.get("scenario_hash", ""),
        dt=float(meta.get("dt", "nan")),
        version=meta.get("version", ""),
    )
