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

A sequence of nearby problems passes the previous solution's `support` as
a hint, tried first. Certification is kept: there is one KKT point, and the
hint passes the same gates as any candidate or falls through to the
unchanged enumeration. H is checked and inverted once per distinct matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

KKT_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
DEGENERATE = "degenerate"


class QpInputError(ValueError):
    """Rejected problem data: non-PD Hessian, non-finite data or mismatched dimensions."""


class QpCertificationError(RuntimeError):
    """Solver could not certify a KKT point (should not occur for valid data)."""


@functools.lru_cache(maxsize=32)
def _inverse(shape: tuple[int, int], data: bytes) -> np.ndarray:
    """Read-only H^-1 of a symmetric PD H, via its Cholesky factor; memoized per matrix."""
    H = np.frombuffer(data).reshape(shape)
    if not np.isfinite(H).all():
        raise QpInputError("H must be finite")
    if not np.allclose(H, H.T, rtol=1e-10, atol=1e-12):
        raise QpInputError("H must be symmetric")
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(H))
    except np.linalg.LinAlgError:
        raise QpInputError("H must be positive definite") from None
    H_inv = L_inv.T @ L_inv
    H_inv.setflags(write=False)
    return H_inv


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
        H_inv = _inverse(H.shape, H.tobytes())
        if F.shape != (m,):
            raise QpInputError(f"F must have length {m}, got {F.shape}")
        if A.size == 0:
            A = np.zeros((0, m))
        A = np.atleast_2d(A)
        if A.shape[1] != m:
            raise QpInputError(f"A must have {m} columns, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise QpInputError(f"b must have length {A.shape[0]}, got {b.shape}")
        # Per step, on a few dozen numbers, lists beat np.isfinite(...).all() about 4x.
        if not all(map(math.isfinite, F.tolist() + A.ravel().tolist() + b.tolist())):
            raise QpInputError("F, A and b must be finite")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "H_inv", H_inv)

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class QpSolution:
    """Certified minimizer; u_star/multipliers are None when infeasible.

    active_set holds the tight rows; support is the working set whose
    candidate certified, the hint for the next, nearby problem.
    """

    u_star: np.ndarray | None
    active_set: tuple[int, ...]
    kkt_residual: float
    status: str
    multipliers: np.ndarray | None
    support: tuple[int, ...] = ()


def check_kkt(problem: QpProblem, candidate, multipliers) -> float:
    """Max violation over stationarity, primal/dual feasibility, slackness; NaN if any term is."""
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


def _exhaustive(problem: QpProblem, kkt_tol: float, hint=()) -> QpSolution | None:
    """First certified KKT candidate: a valid hint, then independent active sets, smallest first."""
    A, b, d = problem.A, problem.b, problem.d
    v = problem.H_inv @ problem.F
    violated = A @ -v < b  # rows the unconstrained minimum breaks
    max_size = min(problem.m, d)
    hint = sorted(set(hint))
    first = [hint] if 0 < len(hint) <= max_size and hint[0] >= 0 and hint[-1] < d else []
    sets = (list(w) for k in range(max_size + 1) for w in itertools.combinations(range(d), k))
    for working in itertools.chain(first, sets):
        if working and not violated[working].any():
            continue  # not a support: it holds no row that u0 violates
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
        return QpSolution(u, tuple(int(i) for i in tight), residual, status, lam, tuple(working))
    return None


def solve_qp(problem: QpProblem, kkt_tol: float = KKT_TOL, hint=()) -> QpSolution:
    """Certified minimizer: the first candidate active set that passes check_kkt.

    `hint`, typically the previous solution's `support`, is tried before the
    enumeration: the QP has one KKT point and the hint passes the same gates.

    Returns status ``optimal`` (certified minimizer), ``degenerate``
    (certified minimizer with linearly dependent tight rows), or
    ``infeasible`` (no candidate certifies and `_feasible_start` proves the
    polyhedron empty). No certified candidate for a feasible polyhedron
    raises QpCertificationError; see the module docstring for why the first
    certified candidate of the enumeration is the minimizer.
    """
    sol = _exhaustive(problem, kkt_tol, hint)
    if sol is not None:
        return sol
    if _feasible_start(problem.A, problem.b, 0.5 * kkt_tol) is None:
        return QpSolution(None, (), math.inf, INFEASIBLE, None)
    raise QpCertificationError(f"feasible, but no candidate certifies at {kkt_tol:.1e}")
