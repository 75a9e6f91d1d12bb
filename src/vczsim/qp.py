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

Only when no candidate certifies is the polyhedron checked for emptiness,
by the same enumeration run on the projection QP min 1/2 |u|^2 s.t. A u >= b
(H^-1 = I, v = 0): if the polyhedron is nonempty, the projection of the
origin onto it is the least-norm point A_W'(A_W A_W')^-1 b_W of some
linearly independent subset W of tight rows, and the skip rule keeps it, as
u0 = 0. So checking those candidates either produces a feasible point or
proves the polyhedron empty; a candidate within the tolerance of every row
counts as a point. The check runs in exact rational arithmetic on the float
data: with two nearly parallel rows cond(A_W A_W') nears 1/eps, and on
floats the rounding would hide a point that exists.

A sequence of nearby problems passes the previous solution's `support` as
a hint, tried first. Certification is kept: there is one KKT point, and the
hint passes the same gates as any candidate or falls through to the
unchanged enumeration.

Each step solves one such QP with m <= 3 and a handful of rows, where a
numpy call costs more than its arithmetic, so a solve runs on Python floats:
the cost (H, F) is checked once per pair and kept as floats (QpCost), each
working set's Schur complement (at most m x m) is factored with a
hand-written Cholesky, u0's violations are tested on the working sets tried
only, and the gates and the tight set read the solver's own slacks.
check_kkt, the certificate, recomputes its residual on floats and shares no
code with the solver. numpy is left to the cost check and to the rare rank
test of dependent tight rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np

KKT_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
DEGENERATE = "degenerate"


class QpInputError(ValueError):
    """Rejected problem data: non-PD Hessian, non-finite data or mismatched dimensions."""


class QpCertificationError(RuntimeError):
    """Solver could not certify a KKT point (should not occur for valid data)."""


class QpCost(NamedTuple):
    """A checked cost 1/2 u'Hu + F'u as Python floats: H and H^-1 by rows, F
    and v = H^-1 F; `arrays` holds H, F and H^-1 as read-only arrays."""

    H: tuple
    F: tuple
    H_inv: tuple
    v: tuple
    arrays: tuple


@functools.lru_cache(maxsize=32)
def _cost(shape: tuple[int, ...], H_data: bytes, F_data: bytes) -> QpCost:
    """The cost of one (H, F), H^-1 via H's Cholesky factor; memoized, as a run keeps its cost."""
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
        raise QpInputError(f"H must be square, got shape {shape}")
    H, F = np.frombuffer(H_data).reshape(shape), np.frombuffer(F_data)  # read-only, as bytes are
    if not np.isfinite(H).all():
        raise QpInputError("H must be finite")
    if not np.allclose(H, H.T, rtol=1e-10, atol=1e-12):
        raise QpInputError("H must be symmetric")
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(H))
    except np.linalg.LinAlgError:
        raise QpInputError("H must be positive definite") from None
    if F.shape != (shape[0],) or not np.isfinite(F).all():
        raise QpInputError(f"F must be {shape[0]} finite values, got {F.tolist()}")
    H_inv = L_inv.T @ L_inv
    H_inv.setflags(write=False)
    H_inv_rows, F_floats = tuple(map(tuple, H_inv.tolist())), tuple(F.tolist())
    v = tuple(sum(map(mul, h, F_floats)) for h in H_inv_rows)
    return QpCost(tuple(map(tuple, H.tolist())), F_floats, H_inv_rows, v, (H, F, H_inv))


class QpProblem:
    """min 1/2 u'Hu + F'u  s.t.  A u >= b; H symmetric PD, inverted via its Cholesky factor.

    H may also be a QpCost already checked, such as a scenario's `qp_cost`,
    with F None. The solver and the certificate read Python floats: `cost`,
    and A and b as `rows` and `rhs`. H, F and H_inv are read-only arrays; the
    arrays A and b are built on first use.
    """

    def __init__(self, H, F, A, b):
        if isinstance(H, QpCost):
            if F is not None:
                raise QpInputError("F comes with the QpCost; pass None")
            cost = H
        else:
            H = np.asarray(H, dtype=float)
            if H.ndim != 2:
                H = np.atleast_2d(H)
            F = np.asarray(F, dtype=float).ravel()
            cost = _cost(H.shape, H.tobytes(), F.tobytes())
        self.cost = cost
        self.H, self.F, self.H_inv = cost.arrays
        m = len(cost.F)
        rows, b = [list(map(float, a)) for a in A], list(map(float, b))
        if any(len(a) != m for a in rows):
            raise QpInputError(f"A must have {m} columns")
        if len(b) != len(rows):
            raise QpInputError(f"b must have length {len(rows)}, got {len(b)}")
        if not all(map(math.isfinite, itertools.chain(b, *rows))):
            raise QpInputError("A and b must be finite")
        self.rows, self.rhs, self.m, self.d = rows, b, m, len(rows)

    @functools.cached_property
    def A(self) -> np.ndarray:
        return np.array(self.rows, dtype=float).reshape(self.d, self.m)

    @functools.cached_property
    def b(self) -> np.ndarray:
        return np.array(self.rhs, dtype=float)


@dataclass(frozen=True)
class QpSolution:
    """Certified minimizer; u_star/multipliers are float tuples, None when infeasible.

    active_set holds the tight rows; support is the working set whose
    candidate certified, the hint for the next, nearby problem.
    """

    u_star: tuple[float, ...] | None
    active_set: tuple[int, ...]
    kkt_residual: float
    status: str
    multipliers: tuple[float, ...] | None
    support: tuple[int, ...] = ()


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
    r = [sum(map(mul, h, u)) + f - sum(map(mul, column, lam)) for h, f, column in zip(H, F, columns)]
    stationarity = math.sqrt(sum(map(mul, r, r)))
    slack = [sum(map(mul, a, u)) - b_i for a, b_i in zip(A, b)]
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


def _ldl_solve(S, r):
    """Exact x with S x = r for a positive semidefinite S of rationals, given as
    _cholesky_solve takes it, via S = L D L' with a unit lower L; None when a
    pivot is not > 0, i.e. S is singular."""
    L, D, y = [], [], []  # y solves L y = r
    for S_i, r_i in zip(S, r):
        row = []
        for L_j, d in zip(L, D):
            row.append((S_i[len(row)] - sum(p * q * e for p, q, e in zip(row, L_j, D))) / d)
        pivot = S_i[-1] - sum(p * p * e for p, e in zip(row, D))
        if not pivot > 0:
            return None
        y.append(r_i - sum(map(mul, row, y)))
        L.append(row + [1])
        D.append(pivot)
    x = []  # L' x = y / D, from the last row up
    for i in range(len(L) - 1, -1, -1):
        x.insert(0, y[i] / D[i] - sum(L[k][i] * x_k for k, x_k in enumerate(x, i + 1)))
    return x


def _eqp(H_inv, v, A, b, working, solve=_cholesky_solve):
    """Equality-constrained subproblem on the working set via Schur complement; v = H^-1 F.

    Returns (u, lam_W), or None when the working set is rank-deficient: the
    Schur complement S = A_W H^-1 A_W' (at most m x m) has a pivot that is not > 0.
    `solve` factors S: the float Cholesky, or _ldl_solve on rational data.
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
    lam = solve(S, r)
    if lam is None:
        return None
    u = []
    for Y_row, v_i in zip(zip(*Y), v):
        u.append(sum(map(mul, Y_row, lam)) - v_i)
    return u, lam


def _candidates(H_inv, v, A, b, hint=(), solve=_cholesky_solve):
    """The solver's one enumeration: a valid hint first, then independent working sets, smallest first.

    Skips a set holding no row that the unconstrained minimum u0 = -v violates,
    and one whose Schur complement _eqp, factoring with `solve`, rejects.
    Yields (working, u, lam_W, slack) per candidate, slack = A u - b over all
    rows, unfiltered.
    """
    d = len(A)
    max_size = min(len(v), d)
    hint = sorted(set(hint))
    first = [hint] if 0 < len(hint) <= max_size and hint[0] >= 0 and hint[-1] < d else []
    sets = (list(w) for k in range(max_size + 1) for w in itertools.combinations(range(d), k))
    for working in itertools.chain(first, sets):
        # Not a support unless it holds a row that u0 violates.
        if working and not any(-sum(map(mul, A[i], v)) < b[i] for i in working):
            continue
        candidate = _eqp(H_inv, v, A, b, working, solve)
        if candidate is None:
            continue
        u, lam_w = candidate
        yield working, u, lam_w, [sum(map(mul, a, u)) - b_i for a, b_i in zip(A, b)]


def _feasible_start(rows, rhs):
    """A point of A u >= b - KKT_TOL/2 as Fractions, or None, which proves A u >= b
    empty: the candidates of the projection QP, H^-1 = I and v = 0, are the
    least-norm points of the working sets, here computed exactly on the float
    data. The point may lie beyond the float range."""
    from fractions import Fraction  # imports decimal; only this rare path needs it

    m = len(rows[0]) if rows else 0
    A, b = [[Fraction(x) for x in row] for row in rows], [Fraction(x) for x in rhs]
    identity = [[int(i == j) for j in range(m)] for i in range(m)]  # integers keep products exact
    floor = -0.5 * KKT_TOL
    for _, u, _, slack in _candidates(identity, [0] * m, A, b, solve=_ldl_solve):
        if min(slack, default=0) >= floor:
            return u
    return None


def _exhaustive(problem: QpProblem, hint=()) -> QpSolution | None:
    """The first candidate of _candidates that passes the gates and check_kkt."""
    A, b = problem.rows, problem.rhs
    gate = -0.5 * KKT_TOL
    for working, u, lam_w, slack in _candidates(problem.cost.H_inv, problem.cost.v, A, b, hint):
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
        tight = [i for i, (s, b_i) in enumerate(zip(slack, b)) if s <= 1e-7 * max(1.0, abs(b_i))]
        # Tight rows equal to the working set passed _eqp's Cholesky: independent.
        dependent = len(tight) > 1 and tight != working and np.linalg.matrix_rank([A[i] for i in tight]) < len(tight)
        status = DEGENERATE if dependent else OPTIMAL
        return QpSolution(tuple(u), tuple(tight), residual, status, tuple(lam), tuple(working))
    return None


def solve_qp(problem: QpProblem, hint=()) -> QpSolution:
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
    sol = _exhaustive(problem, hint)
    if sol is not None:
        return sol
    if _feasible_start(problem.rows, problem.rhs) is None:
        return QpSolution(None, (), math.inf, INFEASIBLE, None)
    raise QpCertificationError(f"feasible, but no candidate certifies at {KKT_TOL:.1e}")
