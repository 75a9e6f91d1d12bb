"""Independent numerical oracles for certifying the analytic code paths.

Central finite differences check barrier gradients and time partials;
seeded sphere sampling supports the containment checks; a grid search
checks the QP solver; numpy_check_kkt is the all-numpy form of its
certificate and fraction_check_kkt the exact rational one. Everything here is
deliberately dumb: the value of an oracle is that it shares no code with
what it certifies. barrier_values is the exception: it is the controller's
own per-sample barrier evaluation, kept as the reference that recorded h
and the whole-trace checks of verify_trace are compared against.
interpreted_scenario rebuilds a scenario's expression fields on the
reference interpreter, which the compiled fields must match bitwise.
reference_run is the step loop that the scenario's compiled loop_kernel
replaced, a Python loop over step_schedule's steps that takes each step's
controls from simulator._controls (rows from eval_avoidance and eval_reach
through virtual.assemble_rows), records through _Recorder.add, steps
through simulator._rk4 (RK4 through plant_derivative) and takes ||x - c||
through _error: it shares no generated row or RK4 code with the loop.
reference_write_trace is the row-at-a-time trace writer, one `%` per float,
whose bytes the chunked template writer must reproduce. reference_solve_qp is
the all-numpy active-set enumeration (LAPACK Cholesky test and solve per
working set, numpy_check_kkt as its certificate) that the float solver
replaced, kept as the reference it is compared with; its emptiness proof,
reference_feasible_start, is the numpy least-norm search over independent
row subsets that the solver's float emptiness proof replaced.
fraction_nonempty decides the same question exactly, by Fourier-Motzkin
elimination, which shares nothing with a least-norm search. loop_exhaustive
is the hand-looped float enumeration (loop_candidates, loop_eqp and a
hand-written Cholesky per working set, check_kkt as its certificate) that the
generated per-size functions of qp.compile_solver replaced, kept as their
bitwise reference; check_kkt is the plain-loop KKT residual that
qp.compile_certificate unrolls, its bitwise reference. None of these
imports a private name of vczsim.qp.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub
from typing import Callable

import numpy as np

from vczsim import simulator
from vczsim.barriers import Obstacle, eval_avoidance, eval_reach
from vczsim.confinement import ConfinementLaw
from vczsim.exprs import eval_expr
from vczsim.qp import (
    DEGENERATE,
    INFEASIBLE,
    KKT_TOL,
    OPTIMAL,
    QpCertificationError,
    QpInputError,
    QpProblem,
    QpSolution,
)


@dataclass(frozen=True)
class FdConfig:
    """Central-difference step; barrier fields are quadratic, so one fixed
    step is exact up to roundoff."""

    step: float = 1e-6

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")


def fd_gradient(
    field: Callable[[np.ndarray, float], float],
    c,
    t: float,
    cfg: FdConfig = FdConfig(),
) -> tuple[np.ndarray, float]:
    """Central differences of field(c, t) in each coordinate of c and in t."""
    c = np.asarray(c, dtype=float)
    h = cfg.step
    grad = np.zeros_like(c)
    for i in range(c.size):
        bump = np.zeros_like(c)
        bump[i] = h
        grad[i] = (field(c + bump, t) - field(c - bump, t)) / (2.0 * h)
    dt = (field(c, t + h) - field(c, t - h)) / (2.0 * h)
    return grad, float(dt)


def sphere_sample(c, r: float, count: int, seed: int) -> np.ndarray:
    """Seed-reproducible points on the sphere of radius r about c, (count, n)."""
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    c = np.asarray(c, dtype=float)
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((count, c.size))
    norms = np.linalg.norm(directions, axis=1)
    while np.any(norms < 1e-12):  # degenerate draws are astronomically rare
        redraws = norms < 1e-12
        directions[redraws] = rng.standard_normal((int(redraws.sum()), c.size))
        norms = np.linalg.norm(directions, axis=1)
    return c + r * directions / norms[:, None]


def difference_quotient_bound(
    fn: Callable[[np.ndarray], np.ndarray], box_lo, box_hi, pairs: int, seed: int
) -> float:
    """Largest sampled |fn(x) - fn(y)| / |x - y| over random pairs in a box."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    worst = 0.0
    for _ in range(pairs):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        gap = float(np.linalg.norm(x - y))
        if gap < 1e-9:
            continue
        quotient = float(np.linalg.norm(np.asarray(fn(x)) - np.asarray(fn(y)))) / gap
        worst = max(worst, quotient)
    return worst


def barrier_values(c, t: float, scenario) -> np.ndarray:
    """The controller's barrier values at (c, t): obstacles in declaration
    order, then the reach barrier."""
    evals = [eval_avoidance(c, t, obs, scenario.r_c) for obs in scenario.obstacles]
    evals.append(eval_reach(c, t, scenario.target.center, scenario.shrink))
    return np.array([ev.value for ev in evals])


def step_schedule(t_f: float, dt: float) -> list[tuple[float, float]]:
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


def _error(x, c) -> tuple[list[float], float]:
    """e = x - c and ||e||, taken once per step."""
    e = list(map(sub, x, c))
    return e, math.hypot(*e)


def reference_run(scenario):
    """simulator.run without validation, one Python pass per step: the
    controls of simulator._controls, the record of _Recorder.add, then
    simulator._rk4 and _error. Returns (trace, metrics) or raises run's
    SimulationAbort."""
    from vczsim.scenario_io import scenario_hash

    r_c = scenario.r_c
    recorder = simulator._Recorder(scenario, scenario_hash(scenario))
    x, c = scenario.x0.tolist(), scenario.x0.tolist()
    scenario.plant.check_shapes(x, 0.0)
    e, gap = _error(x, c)
    hint = ()
    # The last pass records the controls at t_f and takes no step.
    for t_k, dt_k in step_schedule(scenario.t_f, scenario.dt) + [(scenario.t_f, None)]:
        try:
            u, u_c, solution, h = simulator._controls(t_k, c, e, gap, scenario, hint)
        except simulator.QpInfeasibleError as exc:
            raise simulator.SimulationAbort(simulator.QP_INFEASIBLE, t_k, recorder.trace(), str(exc)) from exc
        except (QpCertificationError, QpInputError) as exc:
            raise simulator.SimulationAbort(simulator.QP_UNCERTIFIED, t_k, recorder.trace(), str(exc)) from exc
        recorder.add(t_k, x, c, gap, u, u_c, solution, h)
        hint = solution.support
        if dt_k is None:
            break
        x, c = simulator._rk4(scenario, x, c, u, u_c, t_k, dt_k)
        e, gap = _error(x, c)
        if gap >= r_c:
            detail = f"||x - c|| = {gap:.6g} >= r_c = {r_c:.6g}"
            raise simulator.SimulationAbort(simulator.BREACH, t_k + dt_k, recorder.trace(), detail)
    trace = recorder.trace()
    return trace, simulator.compute_metrics(trace, scenario)


def interpreted_scenario(scenario):
    """The scenario with its tree plant and its path obstacles built from
    eval_expr closures, without their trees, so that a run calls the
    interpreter: the reference for the compiled and inlined fields."""
    plant = scenario.plant
    if plant.trees is not None:
        f, g, omega = plant.trees
        plant = replace(
            plant,
            drift=lambda x: np.array([eval_expr(e, 0.0, x) for e in f]),
            input_map=lambda x: np.array([[eval_expr(e, 0.0, x) for e in row] for row in g]),
            disturbance=lambda t: np.array([eval_expr(e, t) for e in omega]),
            trees=None,
            catalog=None,
        )

    def interpreted(obs):
        if obs.trees is None:
            return obs

        def path(t):
            return np.array([eval_expr(e, t) for e in obs.trees])

        return Obstacle.custom(path, obs.radius)

    return replace(scenario, plant=plant, obstacles=tuple(map(interpreted, scenario.obstacles)))


class GridInfeasibleError(RuntimeError):
    """No grid point satisfies the constraints (brute-force oracle)."""


def objective(problem: QpProblem, u) -> float:
    """QP cost 1/2 u'Hu + F'u."""
    u = np.asarray(u, dtype=float)
    return float(0.5 * u @ problem.H @ u + problem.F @ u)


def numpy_check_kkt(problem, candidate, multipliers) -> float:
    """The KKT certificate with every term a numpy reduction, NaN if any term
    is: the reference solver's certificate."""
    u = np.asarray(candidate, dtype=float).ravel()
    lam = np.asarray(multipliers, dtype=float).ravel()
    if u.shape != (problem.m,):
        raise QpInputError(f"candidate must have length {problem.m}")
    if lam.shape != (problem.d,):
        raise QpInputError(f"multipliers must have length {problem.d}")
    stationarity = float(np.linalg.norm(problem.H @ u + problem.F - problem.A.T @ lam))
    if problem.d == 0:
        return stationarity
    slack = problem.A @ u - problem.b
    terms = (stationarity, float(np.max(-slack)), float(np.max(-lam)), float(np.max(np.abs(lam * slack))))
    return math.nan if any(map(math.isnan, terms)) else max(0.0, *terms)


SQRT_BITS = 1200  # fraction_check_kkt's norm is exact to 2^-1200


def fraction_check_kkt(problem, candidate, multipliers) -> Fraction:
    """The KKT residual in exact rational arithmetic, for finite data:
    max(0, ||H u + F - A' lam||, -min slack, -min lam, max |lam slack|) with
    slack = A u - b, read from the arrays H, F, A and b. The norm's square
    root is rounded down to a multiple of 2^-SQRT_BITS, far below any error
    bound a float evaluation can meet."""

    def fractions(values):
        return [Fraction(x) for x in np.asarray(values, dtype=float).ravel().tolist()]

    m, d = problem.m, problem.d
    H = [fractions(row) for row in np.asarray(problem.H, dtype=float).reshape(m, m)]
    A = [fractions(row) for row in np.asarray(problem.A, dtype=float).reshape(d, m)]
    F, b, u, lam = fractions(problem.F), fractions(problem.b), fractions(candidate), fractions(multipliers)
    r = [
        sum(h * x for h, x in zip(H[j], u)) + F[j] - sum(a[j] * y for a, y in zip(A, lam))
        for j in range(m)
    ]
    square = sum(r_j * r_j for r_j in r)
    stationarity = Fraction(math.isqrt(math.floor(square * 4**SQRT_BITS)), 2**SQRT_BITS)
    if not A:
        return stationarity
    slack = [sum(a_k * x for a_k, x in zip(a, u)) - b_i for a, b_i in zip(A, b)]
    return max(Fraction(0), stationarity, -min(slack), -min(lam), max(abs(x * s) for x, s in zip(lam, slack)))


def brute_force_qp(
    problem: QpProblem, box_half_width: float, grid_points_per_axis: int
) -> np.ndarray:
    """Grid-search oracle: best feasible point of a uniform grid on [-w, w]^m.

    Only sensible for m <= 3; the box must contain the analytic minimizer.
    """
    m = problem.m
    if m > 3:
        raise QpInputError(f"brute_force_qp supports m <= 3, got m = {m}")
    if box_half_width <= 0 or grid_points_per_axis < 2:
        raise QpInputError("need box_half_width > 0 and grid_points_per_axis >= 2")
    axis = np.linspace(-box_half_width, box_half_width, grid_points_per_axis)
    grids = np.meshgrid(*([axis] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    if problem.d:
        slack = 1e-12 * np.maximum(1.0, np.abs(problem.b))
        feasible = np.all(pts @ problem.A.T >= problem.b - slack, axis=1)
        if not np.any(feasible):
            raise GridInfeasibleError("no feasible point on the grid")
        pts = pts[feasible]
    cost = 0.5 * np.einsum("ni,ij,nj->n", pts, problem.H, pts) + pts @ problem.F
    return pts[int(np.argmin(cost))].copy()


def small_error_slope(law: ConfinementLaw) -> float:
    """Local slope 2|gain|/r_c of ||u|| in ||e|| near the origin."""
    return 2.0 * abs(law.gain) / law.r_c


def reference_write_trace(trace, path, decimate: int = 1) -> None:
    """The trace file format written one row and one float at a time."""
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
    fmt = "%.17g"
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


def _reference_eqp(H_inv, v, A, b, working):
    """Equality-constrained subproblem on the working set via Schur complement; v = H^-1 F."""
    if not working:
        return -v, np.zeros(0)
    Aw = A[working]
    Y = H_inv @ Aw.T
    S = Aw @ Y
    np.linalg.cholesky(S)  # raises LinAlgError on a rank-deficient working set
    lam = np.linalg.solve(S, b[working] + Aw @ v)
    return Y @ lam - v, lam


@np.errstate(over="ignore", invalid="ignore")  # an overflowed candidate fails its gates
def _reference_exhaustive(problem: QpProblem, kkt_tol: float, hint=()) -> QpSolution | None:
    """First certified KKT candidate: a valid hint, then independent active sets, smallest first."""
    A, b, d = problem.A, problem.b, problem.d
    v = problem.H_inv @ problem.F
    violated = (A @ -v < b).tolist()  # rows the unconstrained minimum breaks
    gate = -0.5 * kkt_tol
    max_size = min(problem.m, d)
    hint = sorted(set(hint))
    first = [hint] if 0 < len(hint) <= max_size and hint[0] >= 0 and hint[-1] < d else []
    sets = (list(w) for k in range(max_size + 1) for w in itertools.combinations(range(d), k))
    for working in itertools.chain(first, sets):
        if working and not any(violated[i] for i in working):
            continue  # not a support: it holds no row that u0 violates
        try:
            u, lam_w = _reference_eqp(problem.H_inv, v, A, b, working)
        except np.linalg.LinAlgError:
            continue
        slack = (A @ u - b).tolist()
        if not (all(x >= gate for x in lam_w.tolist()) and all(s >= gate for s in slack)):
            continue
        lam = np.zeros(d)
        lam[working] = lam_w
        residual = numpy_check_kkt(problem, u, lam)
        if not residual <= kkt_tol:  # also rejects NaN from an overflowed subproblem
            continue
        tight = [i for i, (s, bi) in enumerate(zip(slack, b.tolist())) if s <= 1e-7 * max(1.0, abs(bi))]
        dependent = len(tight) > 1 and tight != working and np.linalg.matrix_rank(A[tight]) < len(tight)
        status = DEGENERATE if dependent else OPTIMAL
        return QpSolution(u, tuple(tight), residual, status, lam, tuple(working))
    return None


def _full_rank_subsets(A, max_size):
    d = A.shape[0]
    for size in range(0, max_size + 1):
        for subset in itertools.combinations(range(d), size):
            if size == 0:
                yield subset, None
                continue
            Aw = A[list(subset)]
            G = Aw @ Aw.T
            try:
                np.linalg.cholesky(G)
            except np.linalg.LinAlgError:
                continue
            yield subset, G


@np.errstate(over="ignore", invalid="ignore")  # an overflowed candidate is compared as it is: inf meets a row, NaN does not
def reference_feasible_start(A, b, tol):
    """Least-norm candidate per independent tight subset; None iff empty polyhedron."""
    m = A.shape[1]
    for subset, G in _full_rank_subsets(A, m):
        if not subset:
            cand = np.zeros(m)
        else:
            Aw = A[list(subset)]
            try:
                mu = np.linalg.solve(G, b[list(subset)])
            except np.linalg.LinAlgError:
                continue  # dependent rows whose Gram matrix passed the Cholesky test
            cand = Aw.T @ mu
        if np.all(A @ cand >= b - tol):
            return cand
    return None


def fraction_nonempty(A, b, tol) -> bool:
    """Whether A u >= b - tol has a solution, decided exactly on the floats of
    A, b and tol by Fourier-Motzkin elimination: each variable in turn is
    eliminated by pairing every row where its coefficient is positive with
    every row where it is negative. What is left reads 0 >= c."""
    system = [([Fraction(x) for x in row], Fraction(b_i) - Fraction(tol)) for row, b_i in zip(A.tolist(), b.tolist())]
    for k in range(A.shape[1]):
        rest = [(a, c) for a, c in system if a[k] == 0]
        for (p, c_p), (n, c_n) in itertools.product(
            [(a, c) for a, c in system if a[k] > 0], [(a, c) for a, c in system if a[k] < 0]
        ):
            s_p, s_n = 1 / p[k], -1 / n[k]
            rest.append(([s_p * x + s_n * y for x, y in zip(p, n)], s_p * c_p + s_n * c_n))
        system = rest
    return all(c <= 0 for _, c in system)


def reference_solve_qp(problem: QpProblem, kkt_tol: float = KKT_TOL, hint=()) -> QpSolution:
    """solve_qp's contract on the all-numpy enumeration: optimal, degenerate,
    infeasible, or QpCertificationError for a feasible QP with no certified candidate."""
    sol = _reference_exhaustive(problem, kkt_tol, hint)
    if sol is not None:
        return sol
    if reference_feasible_start(problem.A, problem.b, 0.5 * kkt_tol) is None:
        return QpSolution(None, (), math.inf, INFEASIBLE, None)
    raise QpCertificationError(f"feasible, but no candidate certifies at {kkt_tol:.1e}")


def _dot(a, b):
    """0 + a0 b0 + a1 b1 + ..., left to right (sum() compensates float sums from Python 3.12 on)."""
    return reduce(add, map(mul, a, b), 0)


def check_kkt(problem: QpProblem, candidate, multipliers) -> float:
    """max(0, ||Hu + F - A'lam||, -min slack, -min lam, max |lam slack|), slack = A u - b, on the
    floats of problem.cost, rows and rhs; NaN if any term is, inf or NaN on overflow."""
    H, F, A, b = problem.cost.H, problem.cost.F, problem.rows, problem.rhs
    u, lam = list(map(float, candidate)), list(map(float, multipliers))
    if len(u) != len(F):
        raise QpInputError(f"candidate must have length {len(F)}")
    if len(lam) != len(A):
        raise QpInputError(f"multipliers must have length {len(A)}")
    columns = zip(*A) if A else [()] * len(F)
    # Sums from 0, left to right (sum() compensates float sums from Python 3.12 on).
    r = [reduce(add, map(mul, h, u), 0) + f - reduce(add, map(mul, column, lam), 0)
         for h, f, column in zip(H, F, columns)]
    stationarity = math.sqrt(reduce(add, map(mul, r, r), 0))
    slack = [reduce(add, map(mul, a, u), 0) - b_i for a, b_i in zip(A, b)]
    products = [abs(x * s) for x, s in zip(lam, slack)]
    # min and max skip a NaN that is not first, so every entry is tested.
    if any(map(math.isnan, [stationarity, *slack, *lam, *products])):
        return math.nan
    return max(0.0, stationarity, -min(slack, default=0.0), -min(lam, default=0.0), max(products, default=0.0))


def _cholesky_solve(S, r):
    """x with S x = r for a symmetric S = L L', given by its lower triangle
    (row i holds S[i][:i + 1]); None when a pivot is not > 0, NaN included,
    i.e. S is not numerically positive definite."""
    L, x = [], []  # rows of L; x first solves L y = r, then L' x = y in place
    for S_i, r_i in zip(S, r):
        row = []
        for j, L_j in enumerate(L):
            row.append((S_i[j] - _dot(row, L_j)) / L_j[j])
        pivot = S_i[-1] - _dot(row, row)
        if not pivot > 0.0:
            return None
        diagonal = math.sqrt(pivot)
        x.append((r_i - _dot(row, x)) / diagonal)
        row.append(diagonal)
        L.append(row)
    n = len(L)
    for i in range(n - 1, -1, -1):
        acc = x[i]
        for k in range(i + 1, n):
            acc -= L[k][i] * x[k]
        x[i] = acc / L[i][i]
    return x


def loop_eqp(H_inv, v, A, b, working):
    """Equality-constrained subproblem on the working set via Schur complement; v = H^-1 F.

    Returns (u, lam_W), or None when the working set is rank-deficient: the
    Schur complement S = A_W H^-1 A_W' (at most m x m) has a pivot that is not > 0.
    """
    if not working:
        return [-x for x in v], []
    Y, S, r = [], [], []  # columns y_i = H^-1 a_i, lower triangle of S, right-hand side
    for i in working:
        a = A[i]
        y = [_dot(h, a) for h in H_inv]
        S_i = []
        for y_j in Y:
            S_i.append(_dot(a, y_j))
        S_i.append(_dot(a, y))
        S.append(S_i)
        Y.append(y)
        r.append(b[i] + _dot(a, v))
    lam = _cholesky_solve(S, r)
    if lam is None:
        return None
    u = []
    for Y_row, v_i in zip(zip(*Y), v):
        u.append(_dot(Y_row, lam) - v_i)
    return u, lam


def loop_candidates(H_inv, v, A, b, hint=()):
    """The enumeration: a valid hint first, then independent working sets, smallest first.

    Skips a set holding no row that the unconstrained minimum u0 = -v violates,
    and one whose Schur complement loop_eqp rejects. Yields (working, u, lam_W,
    slack) per candidate, slack = A u - b over all rows, unfiltered.
    """
    d = len(A)
    max_size = min(len(v), d)
    hint = sorted(set(hint))
    first = [hint] if 0 < len(hint) <= max_size and hint[0] >= 0 and hint[-1] < d else []
    sets = (list(w) for k in range(max_size + 1) for w in itertools.combinations(range(d), k))
    for working in itertools.chain(first, sets):
        # Not a support unless it holds a row that u0 violates.
        if working and not any(-_dot(A[i], v) < b[i] for i in working):
            continue
        candidate = loop_eqp(H_inv, v, A, b, working)
        if candidate is None:
            continue
        u, lam_w = candidate
        yield working, u, lam_w, [_dot(a, u) - b_i for a, b_i in zip(A, b)]


def loop_exhaustive(problem: QpProblem, hint=()) -> QpSolution | None:
    """The first candidate of loop_candidates that passes the gates and check_kkt."""
    A, b = problem.rows, problem.rhs
    gate = -0.5 * KKT_TOL
    for working, u, lam_w, slack in loop_candidates(problem.cost.H_inv, problem.cost.v, A, b, hint):
        # A non-finite u, lam_W or slack has a non-finite or NaN residual;
        # rejecting it first keeps overflowed arithmetic out of the certificate.
        if not all(map(math.isfinite, itertools.chain(u, lam_w, slack))):
            continue
        if min(lam_w, default=gate) < gate or min(slack, default=gate) < gate:
            continue
        lam = [0.0] * len(A)
        for i, x in zip(working, lam_w):
            lam[i] = x
        residual = check_kkt(problem, u, lam)
        if not residual <= KKT_TOL:  # also rejects NaN
            continue
        tight = tuple(i for i, (s, b_i) in enumerate(zip(slack, b)) if s <= 1e-7 * max(1.0, abs(b_i)))
        working = tuple(working)
        status = DEGENERATE if tight != working and _dependent(A, tight) else OPTIMAL
        return QpSolution(tuple(u), tight, residual, status, tuple(lam), working)
    return None


def _dependent(A, tight) -> bool:
    """Whether the tight rows of A are linearly dependent. The solver asks only
    when they differ from the certified working set, which passed loop_eqp's
    Cholesky and so is independent."""
    return len(tight) > 1 and np.linalg.matrix_rank([A[i] for i in tight]) < len(tight)
