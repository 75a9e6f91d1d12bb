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

Each step solves one such QP with m <= 3 and a handful of rows, where a
numpy call costs more than its arithmetic. So the solver works on Python
floats: H^-1 comes as float rows from the memoized inverse, each working
set's Schur complement (at most m x m) is factored once with a hand-written
Cholesky, and the gates and the tight set read the solver's own slacks.
check_kkt, the certificate, recomputes its residual from the problem's numpy
arrays and shares no code with the solver. The rank test of dependent tight
rows and the emptiness search run on numpy; they are rare.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from operator import mul

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
def _inverse(shape: tuple[int, int], data: bytes) -> tuple[np.ndarray, tuple[tuple[float, ...], ...]]:
    """Read-only H^-1 of a symmetric PD H, via its Cholesky factor, and its
    rows as floats; memoized per matrix."""
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
    return H_inv, tuple(map(tuple, H_inv.tolist()))


@dataclass(frozen=True)
class QpProblem:
    """min 1/2 u'Hu + F'u  s.t.  A u >= b; H symmetric PD, inverted via its Cholesky factor.

    `floats` holds (H^-1 rows, F, A rows, b) as Python floats for the solver.
    """

    H: np.ndarray
    F: np.ndarray
    A: np.ndarray
    b: np.ndarray
    H_inv: np.ndarray = field(init=False, repr=False, compare=False)
    floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.ndim != 2:
            H = np.atleast_2d(H)
        F = np.asarray(self.F, dtype=float).ravel()
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).ravel()
        if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
            raise QpInputError(f"H must be square, got shape {H.shape}")
        m = H.shape[0]
        H_inv, H_inv_rows = _inverse(H.shape, H.tobytes())
        if F.shape != (m,):
            raise QpInputError(f"F must have length {m}, got {F.shape}")
        if A.size == 0:
            A = np.zeros((0, m))
        elif A.ndim != 2:
            A = np.atleast_2d(A)
        if A.shape[1] != m:
            raise QpInputError(f"A must have {m} columns, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise QpInputError(f"b must have length {A.shape[0]}, got {b.shape}")
        # Per step, on a few dozen numbers, lists beat np.isfinite(...).all() about 4x.
        F_list, rows, b_list = F.tolist(), A.tolist(), b.tolist()
        if not all(map(math.isfinite, itertools.chain(F_list, b_list, *rows))):
            raise QpInputError("F, A and b must be finite")
        # Frozen: one __dict__ update sets the normalized fields and the float copies.
        self.__dict__.update(H=H, F=F, A=A, b=b, H_inv=H_inv, floats=(H_inv_rows, F_list, rows, b_list))

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
    H, A = problem.H, problem.A
    u = np.asarray(candidate, dtype=float).ravel()
    lam = np.asarray(multipliers, dtype=float).ravel()
    if u.shape != (H.shape[0],):
        raise QpInputError(f"candidate must have length {H.shape[0]}")
    if lam.shape != (A.shape[0],):
        raise QpInputError(f"multipliers must have length {A.shape[0]}")
    r = H @ u + problem.F - A.T @ lam
    stationarity = math.sqrt(float(r @ r))  # bitwise np.linalg.norm(r)
    if not lam.size:
        return stationarity
    slack, lam = (A @ u - problem.b).tolist(), lam.tolist()
    products = [abs(x * s) for x, s in zip(lam, slack)]
    # min and max skip a NaN that is not first, so every entry is tested.
    if any(map(math.isnan, [stationarity, *slack, *lam, *products])):
        return math.nan
    return max(0.0, stationarity, -min(slack), -min(lam), max(products))


def _cholesky_solve(S, r):
    """x with S x = r for a symmetric S = L L', given by its lower triangle
    (row i holds S[i][:i + 1]); None when a pivot is not > 0, NaN included,
    i.e. S is not numerically positive definite."""
    L, x = [], []  # rows of L; x first solves L y = r, then L' x = y in place
    for S_i, r_i in zip(S, r):
        row = []
        for j, L_j in enumerate(L):
            row.append((S_i[j] - sum(map(mul, row, L_j))) / L_j[j])
        pivot = S_i[-1] - sum(map(mul, row, row))
        if not pivot > 0.0:
            return None
        diagonal = math.sqrt(pivot)
        x.append((r_i - sum(map(mul, row, x))) / diagonal)
        row.append(diagonal)
        L.append(row)
    n = len(L)
    for i in range(n - 1, -1, -1):
        acc = x[i]
        for k in range(i + 1, n):
            acc -= L[k][i] * x[k]
        x[i] = acc / L[i][i]
    return x


def _eqp(H_inv, v, A, b, working):
    """Equality-constrained subproblem on the working set via Schur complement; v = H^-1 F.

    Returns (u, lam_W), or None when the working set is rank-deficient: the
    Schur complement S = A_W H^-1 A_W' (at most m x m) has a pivot that is not > 0.
    Plain loops: on 1 to 3 rows they beat nested comprehensions.
    """
    if not working:
        return [-x for x in v], []
    Y, S, r = [], [], []  # columns y_i = H^-1 a_i, lower triangle of S, right-hand side
    for i in working:
        a = A[i]
        y = [sum(map(mul, h, a)) for h in H_inv]
        S_i = []
        for y_j in Y:
            S_i.append(sum(map(mul, a, y_j)))
        S_i.append(sum(map(mul, a, y)))
        S.append(S_i)
        Y.append(y)
        r.append(b[i] + sum(map(mul, a, v)))
    lam = _cholesky_solve(S, r)
    if lam is None:
        return None
    u = []
    for Y_row, v_i in zip(zip(*Y), v):
        u.append(sum(map(mul, Y_row, lam)) - v_i)
    return u, lam


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


@np.errstate(over="ignore", invalid="ignore")  # an overflowed candidate fails its gates
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
    H_inv, F, A, b = problem.floats
    d = len(A)
    v = [sum(map(mul, h, F)) for h in H_inv]
    violated = [-sum(map(mul, a, v)) < b_i for a, b_i in zip(A, b)]  # rows the unconstrained minimum breaks
    gate = -0.5 * kkt_tol
    max_size = min(len(F), d)
    hint = sorted(set(hint))
    first = [hint] if 0 < len(hint) <= max_size and hint[0] >= 0 and hint[-1] < d else []
    sets = (list(w) for k in range(max_size + 1) for w in itertools.combinations(range(d), k))
    for working in itertools.chain(first, sets):
        if working and not any(map(violated.__getitem__, working)):
            continue  # not a support: it holds no row that u0 violates
        candidate = _eqp(H_inv, v, A, b, working)
        if candidate is None:
            continue
        u, lam_w = candidate
        slack = [sum(map(mul, a, u)) - b_i for a, b_i in zip(A, b)]
        # A non-finite u, lam_W or slack has a non-finite or NaN residual;
        # rejecting it first keeps overflowed arithmetic out of the certificate.
        if not all(map(math.isfinite, itertools.chain(u, lam_w, slack))):
            continue
        if min(lam_w, default=gate) < gate or min(slack, default=gate) < gate:
            continue
        lam = [0.0] * d
        for i, x in zip(working, lam_w):
            lam[i] = x
        u_star, multipliers = np.array(u), np.array(lam)
        residual = check_kkt(problem, u_star, multipliers)
        if not residual <= kkt_tol:  # also rejects NaN
            continue
        tight = [i for i, (s, b_i) in enumerate(zip(slack, b)) if s <= 1e-7 * max(1.0, abs(b_i))]
        # Tight rows equal to the working set passed _eqp's Cholesky: independent.
        dependent = len(tight) > 1 and tight != working and np.linalg.matrix_rank(problem.A[tight]) < len(tight)
        status = DEGENERATE if dependent else OPTIMAL
        return QpSolution(u_star, tuple(tight), residual, status, multipliers, tuple(working))
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
