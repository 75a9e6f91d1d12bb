"""Small dense strictly convex QPs with inequality constraints.

Solves  min_u 1/2 u'Hu + F'u  subject to  A u >= b  by enumerating candidate
active sets, and certifies every answer through an explicit KKT residual.

A feasible strictly convex QP has exactly one KKT point, its minimizer u*.
There H u* + F = A_W' lam_W with lam_W >= 0 on the tight rows W, and by
Caratheodory's theorem that conic combination can be carried by a linearly
independent subset of W, of size at most min(m, d). So the solver takes the
independent subsets smallest first (the empty set is the unconstrained
minimum u0), solves the equality-constrained subproblem on each, and returns
the first candidate that is primal and dual feasible and passes check_kkt.
That is at most sum_{k <= min(m, d)} C(d, k) subproblems: 7 for m = 2, d = 3
and 64 for m = 3, d = 7. Subsets holding no row that u0 violates are skipped,
since on a support with lam_W > 0, lam_W'(b_W - A_W u0) = |u* - u0|_H^2 > 0.

Only when no candidate certifies is the polyhedron checked for emptiness: if
it is nonempty, the projection of the origin onto it is the least-norm point
tied to some linearly independent subset of tight rows, so checking the
least-norm candidate of every such subset either produces a feasible point
or proves the polyhedron empty.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

KKT_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
DEGENERATE = "degenerate"


class QpInputError(ValueError):
    """Rejected problem data: non-PD Hessian or mismatched dimensions."""


class QpCertificationError(RuntimeError):
    """Solver could not certify a KKT point (should not occur for valid data)."""


class GridInfeasibleError(RuntimeError):
    """No grid point satisfies the constraints (brute-force oracle)."""


@dataclass(frozen=True)
class QpProblem:
    """min 1/2 u'Hu + F'u  s.t.  A u >= b; H symmetric PD, inverted via its Cholesky factor."""

    H: np.ndarray
    F: np.ndarray
    A: np.ndarray
    b: np.ndarray
    H_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        F = np.asarray(self.F, dtype=float).ravel()
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).ravel()
        if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
            raise QpInputError(f"H must be square, got shape {H.shape}")
        m = H.shape[0]
        if not np.allclose(H, H.T, rtol=1e-10, atol=1e-12):
            raise QpInputError("H must be symmetric")
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(H))
        except np.linalg.LinAlgError:
            raise QpInputError("H must be positive definite") from None
        if F.shape != (m,):
            raise QpInputError(f"F must have length {m}, got {F.shape}")
        if A.size == 0:
            A = np.zeros((0, m))
        A = np.atleast_2d(A)
        if A.shape[1] != m:
            raise QpInputError(f"A must have {m} columns, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise QpInputError(f"b must have length {A.shape[0]}, got {b.shape}")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "H_inv", L_inv.T @ L_inv)

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[0]

    def objective(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return float(0.5 * u @ self.H @ u + self.F @ u)


@dataclass(frozen=True)
class QpSolution:
    """Certified minimizer; u_star/multipliers are None when infeasible."""

    u_star: np.ndarray | None
    active_set: tuple[int, ...]
    kkt_residual: float
    status: str
    multipliers: np.ndarray | None


def check_kkt(problem: QpProblem, candidate, multipliers) -> float:
    """Max violation over stationarity, primal/dual feasibility, slackness."""
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
    primal = float(max(0.0, np.max(-slack)))
    dual = float(max(0.0, np.max(-lam)))
    complementarity = float(np.max(np.abs(lam * slack)))
    return max(stationarity, primal, dual, complementarity)


def _eqp(H_inv, v, A, b, working):
    """Equality-constrained subproblem on the working set via Schur complement; v = H^-1 F."""
    if not working:
        return -v, np.zeros(0)
    Aw = A[working]
    Y = H_inv @ Aw.T
    S = Aw @ Y
    np.linalg.cholesky(S)  # raises LinAlgError on a rank-deficient working set
    lam = np.linalg.solve(S, b[working] + Aw @ v)
    return Y @ lam - v, lam


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


def _feasible_start(A, b, tol):
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


def _exhaustive(problem: QpProblem, kkt_tol: float) -> QpSolution | None:
    """First certified KKT candidate over independent active sets, smallest first."""
    A, b, d = problem.A, problem.b, problem.d
    v = problem.H_inv @ problem.F
    violated = A @ -v < b  # rows the unconstrained minimum breaks
    for size in range(min(problem.m, d) + 1):
        for working in map(list, itertools.combinations(range(d), size)):
            if size and not violated[working].any():
                continue
            try:
                u, lam_w = _eqp(problem.H_inv, v, A, b, working)
            except np.linalg.LinAlgError:
                continue
            slack = A @ u - b
            if not (np.all(lam_w >= -0.5 * kkt_tol) and np.all(slack >= -0.5 * kkt_tol)):
                continue
            lam = np.zeros(d)
            lam[working] = lam_w
            residual = check_kkt(problem, u, lam)
            if not residual <= kkt_tol:  # also rejects NaN from an overflowed subproblem
                continue
            tight = np.flatnonzero(slack <= 1e-7 * np.maximum(1.0, np.abs(b)))
            dependent = len(tight) > 1 and np.linalg.matrix_rank(A[tight]) < len(tight)
            status = DEGENERATE if dependent else OPTIMAL
            return QpSolution(u, tuple(int(i) for i in tight), residual, status, lam)
    return None


def solve_qp(problem: QpProblem, kkt_tol: float = KKT_TOL) -> QpSolution:
    """Certified minimizer: the first candidate active set that passes check_kkt.

    Returns status ``optimal`` (certified minimizer), ``degenerate``
    (certified minimizer with linearly dependent tight rows), or
    ``infeasible`` (no candidate certifies and `_feasible_start` proves the
    polyhedron empty). No certified candidate for a feasible polyhedron
    raises QpCertificationError; see the module docstring for why the first
    certified candidate of the enumeration is the minimizer.
    """
    sol = _exhaustive(problem, kkt_tol)
    if sol is not None:
        return sol
    if _feasible_start(problem.A, problem.b, 0.5 * kkt_tol) is None:
        return QpSolution(None, (), math.inf, INFEASIBLE, None)
    raise QpCertificationError(f"feasible, but no candidate certifies at {kkt_tol:.1e}")


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
