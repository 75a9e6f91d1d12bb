"""Closed-loop integration of the coupled true/virtual system.

Both controls are computed once per step and held constant (zero-order hold)
while a classical fixed-step RK4 advances true state and center jointly. A
run's steps execute in one generated function per scenario, compile_loop's
loop_kernel, on Python floats: per step the rows (barriers.emit_rows), the
certified QP solve of the previous step's working set (qp.compile_solver's
function of its size), the confinement law, one record, the RK4 step of the
plant (plant.emit_rk4) with the centre's own update, and ||x - c||, on 2-
and 3-vectors where a numpy call costs more than its arithmetic. A step whose
hinted solve returns None passes the same rows to virtual.solve_rows.
_controls, _rk4 (RK4 stages through plant_derivative) and _Recorder.add are
the plain reference step the loop is tested against; a run calls none of
them, and they share no generated row or RK4 code with it. Every step is
appended to one growing float array; metrics and the reach-avoid verdict are
computed from the full-resolution trace, and verify_trace re-derives all
safety claims from raw states rather than trusting logged values. Both work
on whole-trace arrays: obstacle centres come from Obstacle.centers for all
recorded times at once, through the compiled path of the trees the steps
write inline, their margins are taken once per trace for both, and neither
calls controller barrier code or the expression interpreter. File IO is in
trace_io.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .barriers import emit_rows
from .confinement import confinement_control
from .exprs import Constants, straight_line, tree_emitter, unpack
from .plant import emit_rk4, plant_derivative
from .qp import QpCertificationError, QpInputError, compile_solver
from .scenario import (
    CheckResult,
    Scenario,
    ScenarioInvalidError,
    ValidationReport,
    validate,
)
from .virtual import QpInfeasibleError, solve_rows, virtual_control

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

    @classmethod
    def of_records(cls, records, n: int, d: int, qp_status, scenario_hash: str, dt: float,
                   version: str = __version__) -> "SimTrace":
        """The trace of an (N, 4n + d + 3) array of records, each t, x, c, u,
        u_c, h, e_hat and qp_kkt, as views of its columns."""
        t, x, c, u, u_c, h, e_hat, kkt = np.split(records, np.cumsum([1, n, n, n, n, d, 1]), axis=1)
        return cls(t[:, 0], x, c, u, u_c, h, e_hat[:, 0], tuple(qp_status), kkt[:, 0], scenario_hash, dt, version)


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


def _step_counts(t_f: float, dt: float) -> tuple[int, int, float]:
    """(count, uniform, last): `count` steps cover [0, t_f], step k starting at
    k dt; the first `uniform` are of size dt and the rest, at most one, of
    size `last`, a final partial step."""
    n = int(round(t_f / dt))
    if n >= 1 and abs(n * dt - t_f) <= 1e-9 * max(1.0, t_f):
        return n, n - 1, t_f - (n - 1) * dt
    n_full = int(math.floor(t_f / dt))
    rem = t_f - n_full * dt
    return n_full + (rem > 1e-12 * max(1.0, t_f)), n_full, rem


# The reference step: run() executes none of these, compile_loop's loop does
# their work inline. The tests' reference_run loops over them, and
# bench/layers.py traces them by name.


def _rk4(scenario: Scenario, x, c, u, u_c, t: float, dt: float):
    """One RK4 step of plant and centre on float lists, elementwise in the
    operation order of x + dt/6 (k1 + 2 k2 + 2 k3 + k4)."""
    model = scenario.plant
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = plant_derivative(model, x, u, t)
    k2 = plant_derivative(model, [x_i + half * k for x_i, k in zip(x, k1)], u, t + half)
    k3 = plant_derivative(model, [x_i + half * k for x_i, k in zip(x, k2)], u, t + half)
    k4 = plant_derivative(model, [x_i + dt * k for x_i, k in zip(x, k3)], u, t + dt)
    x_next = [x_i + sixth * (p + 2 * q + 2 * r + s) for x_i, p, q, r, s in zip(x, k1, k2, k3, k4)]
    # The centre is a single integrator: every stage derivative is the held u_c.
    c_next = [c_i + sixth * (w + 2 * w + 2 * w + w) for c_i, w in zip(c, u_c)]
    return x_next, c_next


def _controls(t: float, c, e, gap: float, scenario: Scenario, hint=()):
    u_c, solution, h = virtual_control(c, t, scenario, hint)
    u = confinement_control(e, gap, scenario.confinement)
    return u, u_c, solution, h


class _Recorder:
    """The trace as one float array of records in step order, each t, x, c,
    u, u_c, h, e_hat and the QP's KKT residual, plus the QP statuses; a step
    appends Python floats without numpy. trace() views the array's columns
    without a copy, after which no record may be added."""

    def __init__(self, scenario: Scenario, scenario_hash: str):
        self.scenario = scenario
        self.r_c = scenario.r_c
        self.hash = scenario_hash
        self.records = array("d")
        self.status = []

    def add(self, t: float, x, c, gap: float, u, u_c, solution, h):
        self.records.extend((t, *x, *c, *u, *u_c, *h, gap / self.r_c, solution.kkt_residual))
        self.status.append(solution.status)

    def trace(self) -> SimTrace:
        n, d = self.scenario.n, self.scenario.barrier_count
        records = np.frombuffer(self.records).reshape(-1, 4 * n + d + 3)
        return SimTrace.of_records(records, n, d, self.status, self.hash, self.scenario.dt)


def compile_loop(scenario: Scenario):
    """loop(x, extend, status, miss): run()'s whole step loop from the state x
    (c = x), as one generated function. Each pass takes the step's time,
    emit_rows' rows A, b at (c, t), the QP solve of the previous pass's
    support W (compile_solver's function of W's size, called on W, or on None
    miss(A, b, c, t)'s certified solution), confinement_control's law, then
    extend(record) and status(qp status) as _Recorder.add does; the last
    pass, at t_f, takes no step. A step is emit_rk4's plant step with the
    centre's own update (_rk4), then e = x - c and ||e||. Returns None, or (t, ||e||) when
    ||e|| >= r_c after the step that ends at t, so no pass starts at a
    breach. The times and sizes of the steps are _step_counts'."""
    n, law, k = scenario.n, scenario.confinement, Constants()
    x, c, e, u, u_c = ([f"{v}{i}" for i in range(n)] for v in ("x", "c", "e", "u", "uc"))
    count, uniform, last = _step_counts(scenario.t_f, scenario.dt)
    dt, count, r_c, clamp = k(scenario.dt), k(count), k(law.r_c), k(1.0 - law.epsilon_sat)
    body = [f"t = done * {dt} if done < {count} else {k(scenario.t_f)}"]
    emit = tree_emitter(body, k)
    A, b, h = emit_rows(body, k, emit, c, "t", scenario.obstacles, scenario.r_c, scenario.target.point,
                        scenario.shrink, scenario.slopes)
    solvers = k(compile_solver(scenario.qp_cost, scenario.barrier_count))
    body += [f"A = {A}", f"b = [{', '.join(b)}]", f"sol = {solvers}[{k(len)}(hint)](A, b, hint)",
             f"if sol is None: sol = miss(A, b, [{', '.join(c)}], t)",
             unpack(u_c, "sol[0]"),
             f"e_hat = gap / {r_c}",
             f"if gap <= {k(1e-12 * law.r_c)}: {' = '.join(u)} = 0.0",
             "else:",
             f" z = {clamp} if {clamp} < e_hat else e_hat",  # min(e_hat, clamp), NaN kept
             f" scale = -({k(law.gain)} * log((1.0 + z) / (1.0 - z))) / gap",
             *(f" {u_i} = scale * {e_i}" for u_i, e_i in zip(u, e)),
             f"extend(({', '.join(['t', *x, *c, *u, *u_c, *h, 'e_hat', 'sol[2]'])}))",
             "status(sol[3])",
             "hint = sol[5]",
             f"if done == {count}: return None",
             f"step = {dt} if done < {k(uniform)} else {k(last)}"]
    x_next = emit_rk4(body, k, emit, scenario.plant, x, u, "t", "step")
    body += [f"{x_i} = {value}" for x_i, value in zip(x, x_next)]
    body += [f"{c_i} = {c_i} + sixth * ({w} + 2 * {w} + 2 * {w} + {w})" for c_i, w in zip(c, u_c)]
    body += [f"{e_i} = {x_i} - {c_i}" for e_i, x_i, c_i in zip(e, x, c)]
    body += [f"gap = hypot({', '.join(e)})", f"if gap >= {r_c}: return t + step, gap", "done += 1"]
    head = [unpack(x, "x"), *(f"{c_i} = {x_i}" for c_i, x_i in zip(c, x)),
            *(f"{e_i} = {x_i} - {c_i}" for e_i, x_i, c_i in zip(e, x, c)),
            f"gap = hypot({', '.join(e)})", "hint = ()", "done = 0", "while True:"]
    return straight_line(("x", "extend", "status", "miss"), head + [f" {line}" for line in body], "None", k)


def run(scenario: Scenario, check: bool = True) -> tuple[SimTrace, RunMetrics]:
    """Integrate from 0 to t_f; validation runs first and gates the attempt.

    Raises ScenarioInvalidError on failed validation and SimulationAbort
    (carrying the partial trace) on confinement breach, an infeasible QP or a
    QP whose minimizer the solver could not certify. The steps run in the
    scenario's loop_kernel (compile_loop).
    """
    if check:
        report = validate(scenario)
        if not report.all_passed:
            raise ScenarioInvalidError(report)
    from .scenario_io import scenario_hash  # local import to avoid a cycle

    recorder = _Recorder(scenario, scenario_hash(scenario))
    x = scenario.x0.tolist()
    scenario.plant.check_shapes(x, 0.0)

    def miss(A, b, c, t: float):
        """solve_rows on the step's rows, without the hint that has just
        failed on them; its errors abort the run, rows that are not finite
        (QpInputError) as an uncertified QP."""
        try:
            return solve_rows(A, b, c, t, scenario)
        except QpInfeasibleError as exc:
            raise SimulationAbort(QP_INFEASIBLE, t, recorder.trace(), str(exc)) from exc
        except (QpCertificationError, QpInputError) as exc:
            raise SimulationAbort(QP_UNCERTIFIED, t, recorder.trace(), str(exc)) from exc

    breach = scenario.loop_kernel(x, recorder.records.extend, recorder.status.append, miss)
    if breach is not None:
        t, gap = breach
        raise SimulationAbort(BREACH, t, recorder.trace(), f"||x - c|| = {gap:.6g} >= r_c = {scenario.r_c:.6g}")
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
    if min_true < -scenario.clearance_tol:
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


def _floor_check(check_id: str, margins, floor: float, times, detail: str) -> CheckResult:
    """The check that the least of `margins` is >= floor, reported at its time."""
    worst = int(np.argmin(margins))
    margin = float(margins.min())
    return CheckResult(check_id, margin >= floor, margin, float(times[worst]), detail)


def verify_trace(trace: SimTrace, scenario: Scenario) -> ValidationReport:
    """Re-check every claim from raw (t, x, c); logged h values are ignored.

    T1 center outside inflated obstacles, T2 center inside the shrinking
    ball, T3 true state outside true obstacles, T4 normalized error below
    one, T5 terminal target membership (not evaluable on truncated traces).
    T1 and T2 are whole-trace geometry, ||c - b_j(t)||^2 - (r_j + r_c)^2 and
    r(t)^2 - ||c - b_R||^2 with r(t) affine in t; no controller code runs.
    On a trace with no rows (an abort at t = 0) every check fails, not evaluable.
    """
    if not len(trace):
        return ValidationReport(tuple(CheckResult(f"T{i}", False, -math.inf, None, "not evaluable: trace has no rows")
                                      for i in range(1, 6)))
    true_clear, _, avoid = _obstacle_margins(trace, scenario)
    shrink = scenario.shrink
    r = (shrink.r_end - shrink.r_start) * (trace.t / shrink.t_f) + shrink.r_start
    to_target = trace.c - scenario.target.center
    reach = r * r - np.einsum("ij,ij->i", to_target, to_target)

    checks = [
        _floor_check("T1", avoid, -scenario.invariance_tol, trace.t, "center avoidance barriers"),
        _floor_check("T2", reach, -scenario.invariance_tol, trace.t, "shrinking ball"),
        _floor_check("T3", true_clear, -scenario.clearance_tol, trace.t, "true-state obstacle clearance"),
    ]

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

