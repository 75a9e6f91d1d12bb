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
reference_rows and reference_rk4 are the generic step bodies that the
scenario's compiled kernels replaced: rows assembled one barrier at a time
from eval_avoidance and eval_reach, and RK4 through plant_derivative.
reference_write_trace is the row-at-a-time trace writer, one `%` per float,
whose bytes the chunked template writer must reproduce. reference_solve_qp is
the all-numpy active-set enumeration (LAPACK Cholesky test and solve per
working set, numpy_check_kkt as its certificate) that the float solver
replaced, kept as the reference it is compared with.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from vczsim.barriers import Obstacle, eval_avoidance, eval_reach
from vczsim.confinement import ConfinementLaw
from vczsim.exprs import eval_expr, parse_expr
from vczsim.plant import plant_derivative
from vczsim.qp import (
    DEGENERATE,
    INFEASIBLE,
    KKT_TOL,
    OPTIMAL,
    QpCertificationError,
    QpInputError,
    QpProblem,
    QpSolution,
    _feasible_start,
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


def reference_rows(c, t: float, scenario):
    """(A, b, h) as assemble_rows defines them, one barrier evaluation per row."""
    evals = [eval_avoidance(c, t, obs, scenario.r_c) for obs in scenario.obstacles]
    evals.append(eval_reach(c, t, scenario.target.point, scenario.shrink))
    h, grads, dts = zip(*evals)
    b = [-slope * h_j - dt_j for slope, h_j, dt_j in zip(scenario.slopes, h, dts)]
    return list(grads), b, list(h)


def reference_rk4(scenario, x, c, u, u_c, t: float, dt: float):
    """One RK4 step of plant and centre on float lists, elementwise in the
    operation order of x + dt/6 (k1 + 2 k2 + 2 k3 + k4)."""
    model = scenario.plant
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = plant_derivative(model, x, u, t)
    k2 = plant_derivative(model, [x_i + half * k for x_i, k in zip(x, k1)], u, t + half)
    k3 = plant_derivative(model, [x_i + half * k for x_i, k in zip(x, k2)], u, t + half)
    k4 = plant_derivative(model, [x_i + dt * k for x_i, k in zip(x, k3)], u, t + dt)
    x_next = [x_i + sixth * (a + 2 * b + 2 * c + d) for x_i, a, b, c, d in zip(x, k1, k2, k3, k4)]
    c_next = [c_i + sixth * (w + 2 * w + 2 * w + w) for c_i, w in zip(c, u_c)]
    return x_next, c_next


def interpreted_scenario(scenario):
    """The scenario with its expression plant and its path obstacles built
    from eval_expr closures: the reference for the compiled fields."""
    plant = scenario.plant
    if plant.descriptor is not None and plant.descriptor[0] == "exprs":
        _, f_src, g_src, omega_src = plant.descriptor
        f = [parse_expr(s) for s in f_src]
        g = [[parse_expr(s) for s in row] for row in g_src]
        omega = [parse_expr(s) for s in omega_src]
        plant = replace(
            plant,
            drift=lambda x: np.array([eval_expr(e, 0.0, x) for e in f]),
            input_map=lambda x: np.array([[eval_expr(e, 0.0, x) for e in row] for row in g]),
            disturbance=lambda t: np.array([eval_expr(e, t) for e in omega]),
        )

    def interpreted(obs):
        if obs.path_source is None:
            return obs
        exprs = [parse_expr(s) for s in obs.path_source]

        def path(t):
            return np.array([eval_expr(e, t) for e in exprs])

        return Obstacle.custom(path, obs.radius, path_source=obs.path_source, centers_path=obs.centers_path)

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


def reference_solve_qp(problem: QpProblem, kkt_tol: float = KKT_TOL, hint=()) -> QpSolution:
    """solve_qp's contract on the all-numpy enumeration: optimal, degenerate,
    infeasible, or QpCertificationError for a feasible QP with no certified candidate."""
    sol = _reference_exhaustive(problem, kkt_tol, hint)
    if sol is not None:
        return sol
    if _feasible_start(problem.A, problem.b, 0.5 * kkt_tol) is None:
        return QpSolution(None, (), math.inf, INFEASIBLE, None)
    raise QpCertificationError(f"feasible, but no candidate certifies at {kkt_tol:.1e}")
