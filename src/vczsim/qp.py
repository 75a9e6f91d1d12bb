"""Small dense strictly convex QPs with inequality constraints.

Solves  min_u 1/2 u'Hu + F'u  subject to  A u >= b  by enumerating candidate
active sets, and certifies every answer through an explicit KKT residual.

A feasible strictly convex QP has exactly one KKT point, its minimizer u*.
There H u* + F = A_W' lam_W with lam_W >= 0 on the tight rows W, and by
Caratheodory's theorem that conic combination can be carried by a linearly
independent subset of W, of size at most min(m, d). So the solver takes the
subsets smallest first (the empty set is the unconstrained minimum u0),
solves the equality-constrained subproblem on each, and returns the first
candidate that is primal and dual feasible and passes the certificate. That
is at most sum_{k <= min(m, d)} C(d, k) subproblems: 7 for m = 2, d = 3 and
64 for m = 3, d = 7. Subsets holding no row that u0 violates are skipped,
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
numpy call costs more than its arithmetic. So the cost (H, F) is checked
once per pair and kept as floats (QpCost), and compile_solver generates the
float solve, once per cost: per working-set size k <= min(m, d), one
straight-line function solve_k(A, b, W), compiled through
exprs.straight_line, that reads the rows of W at run time. It holds the
skip rule, the Schur complement A_W H^-1 A_W' (at most m x m) factored by an
unrolled Cholesky with H^-1 and v as closure constants, the finiteness test
of each value, the gates, the certificate, the tight set and the rank test.
These functions are the only float solve: a run's step calls the one of its
hint's size, and when that returns None, solve_qp calls them on every set in
the enumeration order. The certificate comes from a separate generator,
compile_certificate, which unrolls the KKT residual from H and F, never
H^-1: it shares no code with the solver, and the tests hold it bitwise to
the plain loop of tests/oracles.py's check_kkt. numpy is left to the cost
check and the rank test. Every float sum is a left fold from 0, as sum()
compensates float sums from Python 3.12 on: the arithmetic does not depend
on the interpreter.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .exprs import Constants, dot, fold, straight_line, tuple_of, unpack

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
    v = tuple(dot(h, F_floats) for h in H_inv_rows)
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


class QpSolution(NamedTuple):
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


def _working_sets(m: int, d: int, hint=()):
    """The enumeration order over working sets of d rows and m inputs: the
    hint first when valid (its rows, sorted and without repeats, a nonempty
    set of at most min(m, d) of range(d)), then every set of at most
    min(m, d) rows, smallest first, as sorted tuples."""
    max_size = min(m, d)
    hint = tuple(sorted(set(hint)))
    first = [hint] if 0 < len(hint) <= max_size and hint[0] >= 0 and hint[-1] < d else []
    return itertools.chain(first, (w for k in range(max_size + 1) for w in itertools.combinations(range(d), k)))


def _ldl_solve(S, r):
    """Exact x with S x = r for a positive semidefinite S of rationals, given by
    its lower triangle (row i holds S[i][:i + 1]), via S = L D L' with a unit
    lower L; None when a pivot is not > 0, i.e. S is singular."""
    L, D, y = [], [], []  # y solves L y = r
    for S_i, r_i in zip(S, r):
        row = []
        for L_j, d in zip(L, D):
            row.append((S_i[len(row)] - sum(p * q * e for p, q, e in zip(row, L_j, D))) / d)
        pivot = S_i[-1] - sum(p * p * e for p, e in zip(row, D))
        if not pivot > 0:
            return None
        y.append(r_i - dot(row, y))
        L.append(row + [1])
        D.append(pivot)
    x = []  # L' x = y / D, from the last row up
    for i in range(len(L) - 1, -1, -1):
        x.insert(0, y[i] / D[i] - sum(L[k][i] * x_k for k, x_k in enumerate(x, i + 1)))
    return x


def _eqp(A, b, working):
    """The projection QP's subproblem on a working set, exactly for rational A
    and b: the least-norm point u = A_W' lam of A_W u = b_W, with
    (A_W A_W') lam = b_W, the origin for the empty set. None when A_W is
    dependent."""
    rows = [A[i] for i in working]
    lam = _ldl_solve([[dot(a, rows[q]) for q in range(p + 1)] for p, a in enumerate(rows)], [b[i] for i in working])
    return None if lam is None else [dot([column[i] for i in working], lam) for column in zip(*A)]


def _candidates(A, b):
    """The projection QP's candidates, exactly: for each working set of
    _working_sets that _eqp solves, its point u and the slacks A u - b."""
    for working in _working_sets(len(A[0]) if A else 0, len(A)):
        if working and not any(b[i] > 0 for i in working):
            continue  # not a support: it holds no row that u0 = 0 violates
        u = _eqp(A, b, working)
        if u is not None:
            yield u, [dot(a, u) - b_i for a, b_i in zip(A, b)]


def _feasible_start(rows, rhs):
    """A point of A u >= b - KKT_TOL/2 as Fractions, or None, which proves A u >= b
    empty: the candidates of the projection QP, H^-1 = I and v = 0, are the
    least-norm points of the working sets, here computed exactly on the float
    data. The point may lie beyond the float range."""
    from fractions import Fraction  # imports decimal; only this rare path needs it

    A, b = [[Fraction(x) for x in row] for row in rows], [Fraction(x) for x in rhs]
    floor = -0.5 * KKT_TOL
    for u, slack in _candidates(A, b):
        if min(slack, default=0) >= floor:
            return u
    return None


def _exhaustive(problem: QpProblem, hint=()) -> QpSolution | None:
    """The first answer of compile_solver(problem.cost, problem.d)'s function
    of each set's size, in the order of _working_sets; None when none
    certifies. A set holding no row that u0 = -v violates is skipped, and no
    function is called on it."""
    solvers = compile_solver(problem.cost, problem.d)
    A, b, v = problem.rows, problem.rhs, problem.cost.v
    violated = [-dot(a, v) < b_i for a, b_i in zip(A, b)]
    for working in _working_sets(problem.m, problem.d, hint):
        if working and not any(violated[i] for i in working):
            continue
        solution = solvers[len(working)](A, b, working)
        if solution is not None:
            return solution
    return None


def _dependent(A, tight) -> bool:
    """Whether the tight rows of A are linearly dependent. The solver asks only
    when they differ from the certified working set, whose Cholesky factor
    has shown it independent."""
    return len(tight) > 1 and np.linalg.matrix_rank([A[i] for i in tight]) < len(tight)


def solve_qp(problem: QpProblem, hint=()) -> QpSolution:
    """Certified minimizer: the first candidate active set that passes the certificate.

    `hint`, typically the previous solution's `support`, is tried before the
    enumeration: the QP has one KKT point and the hint passes the same gates.
    The candidates are the functions of compile_solver(problem.cost,
    problem.d), so repeated calls on one cost reuse them.

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


def compile_solver(cost: QpCost, d: int) -> "_Solvers":
    """The float solver of QPs on `cost` with d rows: a tuple of functions
    solve_k(A, b, W) by working-set size k <= min(m, d), with A by rows and b
    as float lists and W a valid, sorted working set of k rows. It returns
    W's QpSolution when W certifies, and None otherwise: a skipped or failing
    set, a non-finite value, data included. `certificate` is their KKT
    residual. Memoized on the bytes of H and F (so -0.0 and 0.0 stay apart)
    and d: compiled on the first call, shared by every scenario and
    solve_qp call on the cost."""
    H, F, _ = cost.arrays
    key = (H.tobytes(), F.tobytes(), d)
    if key not in _SOLVERS:
        certificate = compile_certificate(cost.H, cost.F, d)
        solvers = _Solvers(_compile_size(cost, d, size, certificate) for size in range(min(len(cost.F), d) + 1))
        solvers.certificate = certificate
        _SOLVERS[key] = solvers
    return _SOLVERS[key]


class _Solvers(tuple):
    """solve_k by working-set size k, with their `certificate`; see compile_solver."""


_SOLVERS: dict[tuple, _Solvers] = {}  # compile_solver's memo, unbounded as exprs._code is


def _compile_size(cost: QpCost, d: int, size: int, certificate):
    """solve(A, b, W) for the working sets W of `size` rows, whose rows it
    reads as A[w] and b[w]: the skip rule (W holds a row that u0 = -v
    violates); the Schur complement S = A_W H^-1 A_W' and r = b_W + A_W v,
    with H^-1 and v as constants; S's Cholesky factor, then lam_W; u, lam_W
    and every slack finite; the -KKT_TOL/2 gates; `certificate` at KKT_TOL;
    the tight set and, when it is not W, the rank test. Any failure returns
    None.

    Each value's finiteness test is 0.0 * x == 0.0, false for inf and NaN. A
    and b need no test of their own: with u finite, a non-finite entry makes
    its row's slack non-finite, and no step before can raise. A difference
    x - 0 of an empty sum is written x, which is exact."""
    m, k = len(cost.F), Constants()
    h_inv, v = [[k(x) for x in row] for row in cost.H_inv], [k(x) for x in cost.v]
    sqrt, gate = k(math.sqrt), k(-0.5 * KKT_TOL)
    a, b = [[f"a{i}_{j}" for j in range(m)] for i in range(d)], [f"b{i}" for i in range(d)]
    w = [f"w{p}" for p in range(size)]
    a_w, b_w = [[f"aw{p}_{j}" for j in range(m)] for p in range(size)], [f"bw{p}" for p in range(size)]
    lines = [unpack(map(tuple_of, a), "A"), unpack(b, "b"), unpack(w, "W")]
    for p in range(size):
        lines += [unpack(a_w[p], f"A[{w[p]}]"), f"{b_w[p]} = b[{w[p]}]",
                  f"av{p} = {fold(f'{x} * {y}' for x, y in zip(a_w[p], v))}"]
    if size:  # not a support unless it holds a row that u0 = -v violates
        lines.append(f"if not ({' or '.join(f'-av{p} < {b_w[p]}' for p in range(size))}): return None")
    # y_p = H^-1 a_w, the lower triangle of S = A_W H^-1 A_W', r = b_W + A_W v.
    for p in range(size):
        lines += [f"y{p}_{j} = {fold(f'{h} * {x}' for h, x in zip(row, a_w[p]))}" for j, row in enumerate(h_inv)]
        lines += [f"S{p}_{q} = {fold(f'{x} * y{q}_{j}' for j, x in enumerate(a_w[p]))}" for q in range(p + 1)]
        lines.append(f"r{p} = {b_w[p]} + av{p}")

    def minus(x, terms) -> str:
        return f"({x} - {fold(terms)})" if terms else x

    # S = L L' row by row (L's diagonal g), L z = r, then L' l = z.
    for p in range(size):
        lines += [f"L{p}_{q} = {minus(f'S{p}_{q}', [f'L{p}_{e} * L{q}_{e}' for e in range(q)])} / g{q}"
                  for q in range(p)]
        lines += [f"pivot = {minus(f'S{p}_{p}', [f'L{p}_{e} * L{p}_{e}' for e in range(p)])}",
                  "if not pivot > 0.0: return None", f"g{p} = {sqrt}(pivot)",
                  f"z{p} = {minus(f'r{p}', [f'L{p}_{e} * z{e}' for e in range(p)])} / g{p}"]
    for p in reversed(range(size)):
        lines.append(f"l{p} = (z{p}{''.join(f' - L{q}_{p} * l{q}' for q in range(p + 1, size))}) / g{p}")
    u, lam_w, slack = [f"u{j}" for j in range(m)], [f"l{p}" for p in range(size)], [f"s{i}" for i in range(d)]
    if size:
        lines += [f"{u[j]} = {fold(f'y{p}_{j} * l{p}' for p in range(size))} - {v[j]}" for j in range(m)]
    else:
        lines += [f"{u[j]} = {k(-x)}" for j, x in enumerate(cost.v)]
    lines += [f"{s} = {fold(f'{x} * {y}' for x, y in zip(row, u))} - {b_i}" for s, row, b_i in zip(slack, a, b)]
    lines.append(f"if not ({' and '.join(f'0.0 * {x} == 0.0' for x in u + lam_w + slack)}): return None")
    if lam_w + slack:
        lines.append(f"if {' or '.join(f'{x} < {gate}' for x in lam_w + slack)}: return None")
    lines += [f"u = {tuple_of(u)}", f"lam = [{', '.join(['0.0'] * d)}]",
              *(f"lam[{w_p}] = {l_p}" for w_p, l_p in zip(w, lam_w)), f"lam = {k(tuple)}(lam)",
              f"residual = {k(certificate)}(A, b, u, lam)", f"if not residual <= {k(KKT_TOL)}: return None",
              "tight = ()"]
    scale = k(1e-7)  # s_i <= 1e-7 max(1, |b_i|)
    lines += [f"if s{i} <= {scale} * (b{i} if b{i} > 1.0 else -b{i} if b{i} < -1.0 else 1.0): tight += ({i},)"
              for i in range(d)]
    status = f"{k(DEGENERATE)} if tight != W and {k(_dependent)}(A, tight) else {k(OPTIMAL)}"
    return straight_line(("A", "b", "W"), lines, f"{k(QpSolution)}(u, tight, residual, {status}, lam, W)", k)


def compile_certificate(H, F, d: int):
    """certificate(A, b, u, lam) -> the KKT residual max(0, ||Hu + F - A'lam||,
    -min slack, -min lam, max |lam slack|), slack = A u - b, NaN if any term
    is, for the cost (H, F), by rows, and d rows, unrolled. Its bitwise
    reference is tests/oracles.py's check_kkt, which takes the same
    operations in the same order on any floats. It reads H and F, never
    H^-1, and recomputes its own slacks: it shares no code with the solver."""
    m, k = len(F), Constants()
    a = [[f"a{i}_{j}" for j in range(m)] for i in range(d)]
    u, lam = [f"u{j}" for j in range(m)], [f"l{i}" for i in range(d)]
    r, slack, products = [f"r{j}" for j in range(m)], [f"s{i}" for i in range(d)], [f"p{i}" for i in range(d)]
    lines = [unpack(map(tuple_of, a), "A"), unpack((f"b{i}" for i in range(d)), "b"),
             unpack(u, "u"), unpack(lam, "lam")]
    for j in range(m):
        hu = fold(f"{k(H[j][c])} * {u[c]}" for c in range(m))
        column = fold(f"{a[i][j]} * {lam[i]}" for i in range(d))
        lines.append(f"{r[j]} = {hu} + {k(F[j])} - {column}")
    lines.append(f"stationarity = {k(math.sqrt)}({fold(f'{x} * {x}' for x in r)})")
    lines += [f"{slack[i]} = {fold(f'{x} * {y}' for x, y in zip(a[i], u))} - b{i}" for i in range(d)]
    magnitude = k(abs)
    lines += [f"{products[i]} = {magnitude}({lam[i]} * {slack[i]})" for i in range(d)]
    terms = ["stationarity"] + slack + lam + products
    lines.append(f"if {' or '.join(f'{x} != {x}' for x in terms)}: return {k(math.nan)}")

    minimum, maximum = k(min), k(max)
    result = f"{maximum}(0.0, stationarity)"
    if d:  # min and max of no rows default to 0.0, which max(0.0, ...) already covers
        result = (f"{maximum}(0.0, stationarity, -{minimum}({tuple_of(slack)}), -{minimum}({tuple_of(lam)}), "
                  f"{maximum}({tuple_of(products)}))")
    return straight_line(("A", "b", "u", "lam"), lines, result, k)
