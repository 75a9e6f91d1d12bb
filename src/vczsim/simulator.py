"""Closed-loop integration of the coupled true/virtual system.

Both controls are computed once per step and held constant (zero-order
hold) while a classical fixed-step RK4 advances true state and center
jointly. A step runs on Python floats: the scenario's compiled rows and QP
solve (virtual_control), the confinement law, the compiled RK4 step of the plant
(plant.compile_rk4, bitwise the RK4 step through plant_derivative) with the
centre's own update, and ||x - c||, on 2- and 3-vectors where a numpy call
costs more than its arithmetic. Every step is appended to growing float arrays;
metrics and the reach-avoid verdict are computed from the full-resolution
trace, and verify_trace re-derives all safety claims from raw states rather than
trusting logged values. Both work on whole-trace arrays: obstacle centres
come from Obstacle.centers for all recorded times at once, from the same
compiled paths the steps call, their margins are taken once per trace for
both, and neither calls controller barrier code or the expression
interpreter. File IO is in trace_io.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass
from operator import sub

import numpy as np

from . import __version__
from .confinement import confinement_control
from .plant import plant_derivative  # noqa: F401  (reference; bench/layers.py traces it here)
from .qp import QpCertificationError
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
QP_UNCERTIFIED = "qp_uncertified"

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
        return asdict(self)


class SimulationAbort(RuntimeError):
    """Run stopped early (breach, infeasible or uncertified QP); carries the partial trace."""

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
    """One RK4 step of plant and centre on float lists, elementwise in the
    operation order of x + dt/6 (k1 + 2 k2 + 2 k3 + k4); the plant's step is
    the scenario's compiled rk4_kernel."""
    sixth = dt / 6.0
    # The centre is a single integrator: every stage derivative is the held u_c.
    c_next = [c_i + sixth * (w + 2 * w + 2 * w + w) for c_i, w in zip(c, u_c)]
    return scenario.rk4_kernel(x, u, t, dt), c_next


def _controls(t: float, c, e, gap: float, scenario: Scenario, hint=()):
    u_c, solution, h = virtual_control(c, t, scenario, hint)
    u = confinement_control(e, gap, scenario.confinement)
    return u, u_c, solution, h


def _error(x, c) -> tuple[list[float], float]:
    """e = x - c and ||e||, taken once per step."""
    e = list(map(sub, x, c))
    return e, math.hypot(*e)


class _Recorder:
    """Trace columns as float arrays that grow by one record per step, in step
    order; a step appends Python floats without numpy. trace() views them
    without a copy, after which no record may be added."""

    def __init__(self, scenario: Scenario, scenario_hash: str):
        self.scenario = scenario
        self.r_c = scenario.r_c
        self.hash = scenario_hash
        self.t, self.x, self.c, self.u, self.u_c, self.h, self.e_hat, self.kkt = (array("d") for _ in range(8))
        self.status = []

    def add(self, t: float, x, c, gap: float, u, u_c, solution, h):
        self.t.append(t)
        self.x.extend(x)
        self.c.extend(c)
        self.u.extend(u)
        self.u_c.extend(u_c)
        self.h.extend(h)
        self.e_hat.append(gap / self.r_c)
        self.status.append(solution.status)
        self.kkt.append(solution.kkt_residual)

    def trace(self) -> SimTrace:
        n, d = self.scenario.n, self.scenario.barrier_count
        return SimTrace(
            t=np.frombuffer(self.t),
            x=np.frombuffer(self.x).reshape(-1, n),
            c=np.frombuffer(self.c).reshape(-1, n),
            u=np.frombuffer(self.u).reshape(-1, n),
            u_c=np.frombuffer(self.u_c).reshape(-1, n),
            h=np.frombuffer(self.h).reshape(-1, d),
            e_hat=np.frombuffer(self.e_hat),
            qp_status=tuple(self.status),
            qp_kkt=np.frombuffer(self.kkt),
            scenario_hash=self.hash,
            dt=self.scenario.dt,
        )


def run(scenario: Scenario, check: bool = True) -> tuple[SimTrace, RunMetrics]:
    """Integrate from 0 to t_f; validation runs first and gates the attempt.

    Raises ScenarioInvalidError on failed validation and SimulationAbort
    (carrying the partial trace) on confinement breach, an infeasible QP or a
    QP whose minimizer the solver could not certify.
    """
    if check:
        report = validate(scenario)
        if not report.all_passed:
            raise ScenarioInvalidError(report)
    from .scenario_io import scenario_hash  # local import to avoid a cycle

    r_c = scenario.r_c
    schedule = _step_schedule(scenario.t_f, scenario.dt)
    recorder = _Recorder(scenario, scenario_hash(scenario))
    x, c = scenario.x0.tolist(), scenario.x0.tolist()
    scenario.plant.check_shapes(x, 0.0)
    e, gap = _error(x, c)
    hint = ()  # each QP first tries the previous step's certified working set
    # The last pass records the controls at t_f and takes no step.
    for t_k, dt_k in schedule + [(scenario.t_f, None)]:
        try:
            u, u_c, solution, h = _controls(t_k, c, e, gap, scenario, hint)
        except QpInfeasibleError as exc:
            raise SimulationAbort(QP_INFEASIBLE, t_k, recorder.trace(), str(exc)) from exc
        except QpCertificationError as exc:
            raise SimulationAbort(QP_UNCERTIFIED, t_k, recorder.trace(), str(exc)) from exc
        recorder.add(t_k, x, c, gap, u, u_c, solution, h)
        hint = solution.support
        if dt_k is None:
            break
        x, c = _rk4(scenario, x, c, u, u_c, t_k, dt_k)
        e, gap = _error(x, c)
        if gap >= r_c:
            raise SimulationAbort(
                BREACH,
                t_k + dt_k,
                recorder.trace(),
                f"||x - c|| = {gap:.6g} >= r_c = {r_c:.6g}",
            )
    trace = recorder.trace()
    return trace, compute_metrics(trace, scenario)


_last_margins: tuple = (None, None, None)  # (trace, scenario, margins): one slot


def _obstacle_margins(trace: SimTrace, scenario: Scenario):
    """Per-sample minima over obstacles, one obstacle at a time: true-state
    clearance, centre clearance, and the avoidance barrier
    ||c - b_j(t)||^2 - (r_j + r_c)^2. A call with the very trace and scenario
    (`is`) of the previous call returns its arrays, so compute_metrics and
    verify_trace of one run share a pass. Trace arrays are never written in
    place; a changed trace is a new object (replace())."""
    global _last_margins
    if trace is _last_margins[0] and scenario is _last_margins[1]:
        return _last_margins[2]
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
    _last_margins = (trace, scenario, (true_clear, center_clear, avoid))
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

