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
test of dependent tight rows. Every float sum here is a left fold from 0, as
sum() compensates float sums from Python 3.12 on: the arithmetic does not
depend on the interpreter.

A run's steps go through compile_solver first: per working set of size
<= min(m, d), one straight-line function, compiled through
exprs.straight_line on the set's first use, tries that set alone, with the
skip rule, _eqp's and _cholesky_solve's operations in their order (H^-1 and
v as closure constants), the same gates, the tight set and the rank test.
Its certificate comes from a separate generator, compile_certificate, which
unrolls check_kkt from H and F, never H^-1, and so is bitwise check_kkt.
When the hint's set certifies, the function returns solve_qp's QpSolution
bitwise; otherwise it returns None and the caller falls back to solve_qp,
which also owns the emptiness proof and QpInputError.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .exprs import straight_line, unpack

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


def _dot(a, b):
    """0 + a0 b0 + a1 b1 + ..., left to right: the solver's one dot product
    (sum() compensates float sums from Python 3.12 on)."""
    return reduce(add, map(mul, a, b), 0)


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
    v = tuple(_dot(h, F_floats) for h in H_inv_rows)
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
        y = [_dot(h, a) for h in H_inv]
        S_i = []
        for y_j in Y:
            S_i.append(_dot(a, y_j))
        S_i.append(_dot(a, y))
        S.append(S_i)
        Y.append(y)
        r.append(b[i] + _dot(a, v))
    lam = solve(S, r)
    if lam is None:
        return None
    u = []
    for Y_row, v_i in zip(zip(*Y), v):
        u.append(_dot(Y_row, lam) - v_i)
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
        if working and not any(-_dot(A[i], v) < b[i] for i in working):
            continue
        candidate = _eqp(H_inv, v, A, b, working, solve)
        if candidate is None:
            continue
        u, lam_w = candidate
        yield working, u, lam_w, [_dot(a, u) - b_i for a, b_i in zip(A, b)]


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
        tight = tuple(i for i, (s, b_i) in enumerate(zip(slack, b)) if s <= 1e-7 * max(1.0, abs(b_i)))
        working = tuple(working)
        status = DEGENERATE if tight != working and _dependent(A, tight) else OPTIMAL
        return QpSolution(tuple(u), tight, residual, status, tuple(lam), working)
    return None


def _dependent(A, tight) -> bool:
    """Whether the tight rows of A are linearly dependent. The solver asks only
    when they differ from the certified working set, which passed _eqp's
    Cholesky and so is independent."""
    return len(tight) > 1 and np.linalg.matrix_rank([A[i] for i in tight]) < len(tight)


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


def compile_solver(cost: QpCost, d: int) -> "_Solvers":
    """The compiled solver of QPs on `cost` with d >= 1 rows: a dict from a
    hint to a function solve(A, b) of A by rows and b as float lists. It
    returns what solve_qp(QpProblem(cost, None, A, b), hint) returns when
    the hint's first candidate certifies, and None otherwise: a failing or
    skipped hint, a hint's failing empty set, non-finite data or an
    overflowing sum. One function per working set of size <= min(m, d), compiled
    on the first lookup; an invalid hint, as in _candidates, gets the empty
    set's."""
    return _Solvers(cost, d)


class _Solvers(dict):
    """Working set -> its compiled solve; see compile_solver. Only valid,
    sorted working sets become keys, so the keys are the sets compiled."""

    def __init__(self, cost: QpCost, d: int):
        super().__init__()
        self.cost, self.d = cost, d
        self.certificate = compile_certificate(cost.H, cost.F, d)

    def __missing__(self, hint):
        working = tuple(sorted(set(hint)))
        if not (0 < len(working) <= min(len(self.cost.F), self.d) and working[0] >= 0 and working[-1] < self.d):
            working = ()
        if working not in self:
            self[working] = _compile_working_set(self.cost, self.d, working, self.certificate)
        return self[working]


def _fold(terms) -> str:
    """(0 + t0 + t1 + ...), a dot product's sum from 0, left to right."""
    return f"(0{''.join(f' + {t}' for t in terms)})"


def _compile_working_set(cost: QpCost, d: int, working: tuple, certificate):
    """solve(A, b) for one working set W, in _exhaustive's order on W alone:
    _candidates' skip rule; _eqp and _cholesky_solve with their operations in
    their order, H^-1 and v as constants; u, lam_W and the slacks finite; the
    -KKT_TOL/2 gates; `certificate` at KKT_TOL; the tight set and, when it
    is not W, the rank test. Any failure returns None.

    The finiteness test is 0 * (u + lam_W + slacks) == 0, which fails for a
    non-finite value and also for an overflowing sum; then the fallback
    decides. A and b need no test of their own: with u finite, a non-finite
    entry makes its row's slack non-finite, and no step before can raise.
    A difference x - 0 of an empty sum is written x, which is exact."""
    m, size = len(cost.F), len(working)
    consts = []

    def k(value) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    h_inv, v = [[k(x) for x in row] for row in cost.H_inv], [k(x) for x in cost.v]
    sqrt, gate = k(math.sqrt), k(-0.5 * KKT_TOL)
    a, b = [[f"a{i}_{j}" for j in range(m)] for i in range(d)], [f"b{i}" for i in range(d)]
    lines = [unpack((f"({', '.join(row)},)" for row in a), "A"), unpack(b, "b")]
    lines += [f"av{w} = {_fold(f'{x} * {y}' for x, y in zip(a[w], v))}" for w in working]
    if working:  # not a support unless it holds a row that u0 = -v violates
        lines.append(f"if not ({' or '.join(f'-av{w} < b{w}' for w in working)}): return None")
    # _eqp: y_p = H^-1 a_w, the lower triangle of S = A_W H^-1 A_W', r = b_W + A_W v.
    for p, w in enumerate(working):
        lines += [f"y{p}_{j} = {_fold(f'{h} * {x}' for h, x in zip(row, a[w]))}" for j, row in enumerate(h_inv)]
        lines += [f"S{p}_{q} = {_fold(f'{x} * y{q}_{j}' for j, x in enumerate(a[w]))}" for q in range(p + 1)]
        lines.append(f"r{p} = b{w} + av{w}")

    def minus(x, terms) -> str:
        return f"({x} - {_fold(terms)})" if terms else x

    # _cholesky_solve: S = L L' row by row (L's diagonal g), L z = r, then L' l = z.
    for p in range(size):
        lines += [f"L{p}_{q} = {minus(f'S{p}_{q}', [f'L{p}_{e} * L{q}_{e}' for e in range(q)])} / g{q}"
                  for q in range(p)]
        lines += [f"pivot = {minus(f'S{p}_{p}', [f'L{p}_{e} * L{p}_{e}' for e in range(p)])}",
                  "if not pivot > 0.0: return None", f"g{p} = {sqrt}(pivot)",
                  f"z{p} = {minus(f'r{p}', [f'L{p}_{e} * z{e}' for e in range(p)])} / g{p}"]
    for p in reversed(range(size)):
        lines.append(f"l{p} = (z{p}{''.join(f' - L{q}_{p} * l{q}' for q in range(p + 1, size))}) / g{p}")
    u, lam_w, slack = [f"u{j}" for j in range(m)], [f"l{p}" for p in range(size)], [f"s{i}" for i in range(d)]
    if working:
        lines += [f"{u[j]} = {_fold(f'y{p}_{j} * l{p}' for p in range(size))} - {v[j]}" for j in range(m)]
    else:
        lines += [f"{u[j]} = {k(-x)}" for j, x in enumerate(cost.v)]
    lines += [f"{s} = {_fold(f'{x} * {y}' for x, y in zip(row, u))} - {b_i}" for s, row, b_i in zip(slack, a, b)]
    lines += [f"if not 0.0 * ({' + '.join(u + lam_w + slack)}) == 0.0: return None",
              f"if {' or '.join(f'{x} < {gate}' for x in lam_w + slack)}: return None"]
    lam = ["0.0"] * d
    for p, w in enumerate(working):
        lam[w] = lam_w[p]
    lines += [f"u = ({''.join(x + ', ' for x in u)})", f"lam = ({''.join(x + ', ' for x in lam)})",
              f"residual = {k(certificate)}(A, b, u, lam)", f"if not residual <= {k(KKT_TOL)}: return None",
              "tight = ()"]
    scale = k(1e-7)  # s_i <= 1e-7 max(1, |b_i|)
    lines += [f"if s{i} <= {scale} * (b{i} if b{i} > 1.0 else -b{i} if b{i} < -1.0 else 1.0): tight += ({i},)"
              for i in range(d)]
    support = k(working)
    status = f"{k(DEGENERATE)} if tight != {support} and {k(_dependent)}(A, tight) else {k(OPTIMAL)}"
    return straight_line(("A", "b"), lines, f"{k(QpSolution)}(u, tight, residual, {status}, lam, {support})", consts)


def compile_certificate(H, F, d: int):
    """certificate(A, b, u, lam) -> check_kkt's residual for the cost (H, F),
    by rows, and d >= 1 rows: check_kkt's operations in its order, unrolled,
    so bitwise equal on any floats. It reads H and F, never H^-1, and
    recomputes its own slacks: it shares no code with the solver."""
    m = len(F)
    consts = []

    def k(value) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    def total(terms) -> str:
        return f"(0{''.join(f' + {t}' for t in terms)})"

    a = [[f"a{i}_{j}" for j in range(m)] for i in range(d)]
    u, lam = [f"u{j}" for j in range(m)], [f"l{i}" for i in range(d)]
    r, slack, products = [f"r{j}" for j in range(m)], [f"s{i}" for i in range(d)], [f"p{i}" for i in range(d)]
    lines = [unpack((f"({', '.join(row)},)" for row in a), "A"), unpack((f"b{i}" for i in range(d)), "b"),
             unpack(u, "u"), unpack(lam, "lam")]
    for j in range(m):
        hu = total(f"{k(H[j][c])} * {u[c]}" for c in range(m))
        column = total(f"{a[i][j]} * {lam[i]}" for i in range(d))
        lines.append(f"{r[j]} = {hu} + {k(F[j])} - {column}")
    lines.append(f"stationarity = {k(math.sqrt)}({total(f'{x} * {x}' for x in r)})")
    lines += [f"{slack[i]} = {total(f'{x} * {y}' for x, y in zip(a[i], u))} - b{i}" for i in range(d)]
    magnitude = k(abs)
    lines += [f"{products[i]} = {magnitude}({lam[i]} * {slack[i]})" for i in range(d)]
    terms = ["stationarity"] + slack + lam + products
    lines.append(f"if {' or '.join(f'{x} != {x}' for x in terms)}: return {k(math.nan)}")

    def tuple_of(names) -> str:
        return f"({''.join(x + ', ' for x in names)})"

    minimum, maximum = k(min), k(max)
    result = (f"{maximum}(0.0, stationarity, -{minimum}({tuple_of(slack)}), -{minimum}({tuple_of(lam)}), "
              f"{maximum}({tuple_of(products)}))")
    return straight_line(("A", "b", "u", "lam"), lines, result, consts)
