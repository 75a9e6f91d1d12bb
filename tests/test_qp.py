"""Candidate-enumeration QP solver: worked cases, certificates, and randomized properties."""

import itertools
import math
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import UNCERTIFIABLE_QP, loop_solve_qp, minimizer_box_bound, random_qp_problem, solution_bits
from oracles import (
    GridInfeasibleError,
    brute_force_qp,
    check_kkt,
    fraction_check_kkt,
    loop_candidates,
    loop_eqp,
    loop_exhaustive,
    numpy_check_kkt,
    fraction_nonempty,
    objective,
    reference_feasible_start,
    reference_solve_qp,
)
from vczsim.qp import (
    DEGENERATE,
    INFEASIBLE,
    KKT_TOL,
    OPTIMAL,
    QpCertificationError,
    QpInputError,
    QpProblem,
    solve_qp,
)
from vczsim import qp
from vczsim.scenario_io import benchmark_scenario
from vczsim.simulator import run
from vczsim.virtual import _conflicting_rows, assemble_rows


def halfspace_problem(b: float) -> QpProblem:
    return QpProblem(np.eye(2), np.zeros(2), [[1.0, 0.0]], [b])


class TestSolveQp:
    def test_unconstrained_interior(self):
        sol = solve_qp(halfspace_problem(-1.0))
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.u_star, [0.0, 0.0], atol=1e-12)
        assert sol.active_set == ()

    def test_projection_onto_halfspace(self):
        sol = solve_qp(halfspace_problem(1.0))
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.u_star, [1.0, 0.0], atol=1e-10)
        assert sol.active_set == (0,)
        assert sol.kkt_residual <= KKT_TOL

    def test_certificate_tolerance_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            solve_qp(halfspace_problem(1.0), kkt_tol=1e-3)

    def test_scaled_halfspace(self):
        problem = QpProblem(np.eye(2), np.zeros(2), [[20.0, 20.0]], [18.5])
        sol = solve_qp(problem)
        np.testing.assert_allclose(sol.u_star, [0.4625, 0.4625], atol=1e-10)

    def test_no_rows(self):
        # Zero rows generate valid code; the certificate is max(0, stationarity).
        problem = QpProblem(np.eye(2), [1.0, -1.0], np.zeros((0, 2)), [])
        sol = solve_qp(problem)
        assert (sol.status, sol.u_star, sol.active_set, sol.support, sol.multipliers) == (OPTIMAL, (-1.0, 1.0), (), (), ())
        assert solution_bits(sol) == solution_bits(loop_solve_qp(problem))

    def test_values_near_the_float_limit_certify(self):
        # u* = (1e308, 1e308) and the slack 1e8 are each finite, though their
        # sum overflows: finiteness is tested per value, not on a sum.
        problem = QpProblem(np.eye(2), [-1e308, -1e308], [[1e-300, 0.0]], [0.0])
        sol = solve_qp(problem)
        assert (sol.status, sol.u_star, sol.kkt_residual) == (OPTIMAL, (1e308, 1e308), 0.0)
        assert solution_bits(sol) == solution_bits(loop_solve_qp(problem))

    def test_infeasible_pair(self):
        problem = QpProblem([[1.0]], [0.0], [[1.0], [-1.0]], [1.0, 1.0])
        sol = solve_qp(problem)
        assert sol.status == INFEASIBLE
        assert sol.u_star is None

    def test_duplicated_tight_rows_flag_degenerate(self):
        problem = QpProblem(np.eye(2), np.zeros(2), [[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        sol = solve_qp(problem)
        assert sol.status == DEGENERATE
        np.testing.assert_allclose(sol.u_star, [1.0, 0.0], atol=1e-10)
        assert sol.kkt_residual <= KKT_TOL

    @pytest.mark.parametrize("first", [[0.0, 0.0], [1.38129483e-161, 1.38129483e-161]])
    def test_overflowing_candidates_do_not_warn(self, first):
        # Examples drawn by test_agrees_with_grid_oracle[infeasible]. Rows of
        # norm 1e-158 give a subnormal Schur complement, so a candidate's
        # multipliers overflow and its gates reject it; numpy warned about
        # that arithmetic, which failed the test under filterwarnings = error.
        a = 3.96444894e-159
        problem = QpProblem(0.1 * np.eye(2), np.zeros(2), [first, [a, a], [-a, -a]], [-1.0, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_qp(problem).status == INFEASIBLE

    def test_rejects_non_pd_hessian(self):
        with pytest.raises(QpInputError):
            QpProblem([[1.0, 0.0], [0.0, -1.0]], np.zeros(2), np.zeros((0, 2)), [])

    def test_rejects_asymmetric_hessian(self):
        with pytest.raises(QpInputError):
            QpProblem([[1.0, 0.5], [0.0, 1.0]], np.zeros(2), np.zeros((0, 2)), [])

    @pytest.mark.parametrize(
        "H, F, A, b",
        [
            (np.eye(2), [0.0, 0.0], np.eye(2), [math.nan, -1.0]),
            (np.eye(2), [math.nan, 0.0], np.eye(2), [-1.0, -1.0]),
            (np.eye(2), [0.0, 0.0], [[1.0, math.inf]], [0.0]),
            ([[math.inf, 0.0], [0.0, 1.0]], [0.0, 0.0], np.eye(2), [-1.0, -1.0]),
        ],
        ids=["nan_b", "nan_F", "inf_A", "inf_H"],
    )
    def test_rejects_non_finite_data(self, H, F, A, b):
        # Unchecked, b = [nan, -1] solved as infeasible and F = [nan, 0] raised
        # QpCertificationError.
        with pytest.raises(QpInputError, match="finite"):
            QpProblem(H, F, A, b)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(QpInputError):
            QpProblem(np.eye(2), np.zeros(3), np.zeros((0, 2)), [])
        with pytest.raises(QpInputError):
            QpProblem(np.eye(2), np.zeros(2), [[1.0, 0.0]], [1.0, 2.0])


class TestCheckKkt:
    def test_exact_kkt_point(self):
        problem = halfspace_problem(1.0)
        assert check_kkt(problem, [1.0, 0.0], [1.0]) == 0.0

    def test_primal_violation_dominates(self):
        problem = halfspace_problem(1.0)
        assert check_kkt(problem, [0.0, 0.0], [0.0]) == pytest.approx(1.0)

    def test_solver_output_satisfies_certificate(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            problem, _ = random_qp_problem(rng)
            sol = solve_qp(problem)
            assert sol.status in (OPTIMAL, DEGENERATE)
            assert check_kkt(problem, sol.u_star, sol.multipliers) <= KKT_TOL

    def test_dual_negativity_term(self):
        # stationarity ||0 - A'(-0.5)|| = 0.5, dual max(0, 0.5) = 0.5, slackness 0.5
        problem = halfspace_problem(-1.0)
        assert check_kkt(problem, [0.0, 0.0], [-0.5]) == pytest.approx(0.5)

    def test_complementary_slackness_term(self):
        # stationarity 0, slack 3 with multiplier 2 -> slackness 6 dominates
        problem = halfspace_problem(-1.0)
        assert check_kkt(problem, [2.0, 0.0], [2.0]) == pytest.approx(6.0)

    def test_nan_term_gives_nan(self):
        # The certificate must not lean on QpProblem's input checks: a NaN
        # slack once read as 0.0 and certified u = 0 for b = [nan, -1].
        problem = QpProblem(np.eye(2), np.zeros(2), np.eye(2), [-1.0, -1.0])
        problem.rhs = [math.nan, -1.0]  # the floats of b that the certificate reads
        assert math.isnan(check_kkt(problem, [0.0, 0.0], [0.0, 0.0]))
        assert math.isnan(check_kkt(halfspace_problem(1.0), [1.0, 0.0], [math.nan]))


# Finite values of every magnitude, signed zeros, infinities and values whose
# squares, sums and products overflow.
KKT_ENTRIES = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
)
# Values of one scale, where every term of the residual can be the largest.
MODERATE_ENTRIES = st.floats(-10.0, 10.0)


def raw_problem(H, F, A, b):
    """QP data without QpProblem's checks, so NaN and inf reach the certificate:
    the arrays, and the floats that check_kkt reads."""
    H, F, A, b = (np.asarray(a, dtype=float) for a in (H, F, A, b))
    A = A.reshape(len(b), len(F))
    cost = SimpleNamespace(H=H.tolist(), F=F.tolist())
    return SimpleNamespace(H=H, F=F, A=A, b=b, m=len(F), d=len(b), cost=cost, rows=A.tolist(), rhs=b.tolist())


UNIT_ROUNDOFF = Fraction(1, 2**53)
ETA = Fraction(1, 2**1074)  # the smallest subnormal
DBL_MAX = Fraction(sys.float_info.max)


def kkt_error_bound(problem, u, lam) -> tuple[Fraction, Fraction]:
    """(E, peak) for check_kkt's float evaluation of finite data: E bounds
    |check_kkt - exact residual| whenever no intermediate overflows, and no
    intermediate exceeds peak, so peak <= DBL_MAX rules overflow out.

    The standard model with gradual underflow, fl(x op y) = (x op y)(1 + delta)
    + eps with |delta| <= u = 2^-53 and |eps| <= eta = 2^-1074, gives for sums
    of at most N = m + d + 4 terms and g = N u / (1 - N u):
      |fl(r_j) - r_j| <= g M_j + N eta,  M_j = sum_k |H_jk u_k| + |F_j| + sum_i |A_ij lam_i|;
      |fl(||r||) - ||r||| <= 2 g sum_j M_j + 2 sqrt(m eta) + 2 m N eta, the
        square root turning the absolute error of the sum of squares into sqrt(m eta);
      |fl(s_i) - s_i| <= g P_i + N eta,  s_i = a_i'u - b_i,  P_i = sum_k |A_ik u_k| + |b_i|;
      |fl(|lam_i s_i|) - |lam_i s_i|| <= |lam_i| (2 g P_i + 2 N eta) + eta;
    -min lam is exact, and a max moves by at most its arguments' largest error.
    """
    m, d = problem.m, problem.d
    H, A = problem.H.reshape(m, m).tolist(), problem.A.reshape(d, m).tolist()
    F, b = problem.F.tolist(), problem.b.tolist()
    u, lam = np.ravel(u).tolist(), np.ravel(lam).tolist()
    n = m + d + 4
    g = n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)
    noise = n * ETA
    M = [
        sum(abs(Fraction(h) * Fraction(x)) for h, x in zip(H[j], u))
        + abs(Fraction(F[j]))
        + sum(abs(Fraction(a[j]) * Fraction(y)) for a, y in zip(A, lam))
        for j in range(m)
    ]
    P = [sum(abs(Fraction(a_k) * Fraction(x)) for a_k, x in zip(a, u)) + abs(Fraction(b_i)) for a, b_i in zip(A, b)]
    root = Fraction(math.isqrt(m) + 1, 2**537)  # >= sqrt(m eta)
    errors = [2 * g * sum(M) + 2 * root + 2 * m * noise]
    errors += [g * p + noise for p in P]
    errors += [abs(Fraction(y)) * (2 * g * p + 2 * noise) + ETA for y, p in zip(lam, P)]
    sizes = [sum((x + noise) ** 2 for x in M)]
    sizes += [x + noise for x in M] + [p + noise for p in P] + [abs(Fraction(y)) * (p + noise) for y, p in zip(lam, P)]
    return max(errors), (1 + g) ** 3 * max(sizes)


def draw_kkt_data(data, m, d, nan_in):
    """(problem, u, lam) of raw float data, with one NaN in the array `nan_in`."""
    shapes = {"H": (m, m), "F": (m,), "A": (d, m), "b": (d,), "u": (m,), "lam": (d,)}
    elements = data.draw(st.sampled_from([KKT_ENTRIES, MODERATE_ENTRIES]), label="elements")
    arrays = {k: data.draw(hnp.arrays(float, shape, elements=elements), label=k) for k, shape in shapes.items()}
    if nan_in is not None and arrays[nan_in].size:
        i = data.draw(st.integers(0, arrays[nan_in].size - 1), label="nan position")
        arrays[nan_in].flat[i] = math.nan
    return raw_problem(arrays["H"], arrays["F"], arrays["A"], arrays["b"]), arrays["u"], arrays["lam"]


class TestCheckKktMatchesNumpy:
    """check_kkt on Python floats against the reference certificates: the
    exact one within a forward-error bound, and numpy's NaN for NaN."""

    @staticmethod
    def assert_near_exact(problem, u, lam, certificate=check_kkt):
        """NaN data give NaN and other non-finite data never pass; on finite
        data the residual is within kkt_error_bound of the exact one, or, when
        an intermediate can overflow, inf or NaN."""
        got = certificate(problem, u, lam)
        data = np.concatenate([np.ravel(x) for x in (problem.H, problem.F, problem.A, problem.b, u, lam)])
        if np.isnan(data).any():
            assert math.isnan(got)
        elif not np.isfinite(data).all():
            assert not got <= KKT_TOL, got
        else:
            bound, peak = kkt_error_bound(problem, u, lam)
            if math.isfinite(got):
                error = abs(Fraction(got) - fraction_check_kkt(problem, u, lam))
                assert error <= bound, (got, float(error), float(bound))
            else:
                assert peak > DBL_MAX, got

    @settings(max_examples=600, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 3),
        d=st.integers(0, 7),
        nan_in=st.sampled_from([None, None, None, "H", "F", "A", "b", "u", "lam"]),
    )
    def test_within_error_bound_of_the_exact_certificate(self, data, m, d, nan_in):
        problem, u, lam = draw_kkt_data(data, m, d, nan_in)
        self.assert_near_exact(problem, u, lam)

    @settings(max_examples=600, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 3),
        d=st.integers(1, 7),
        nan_in=st.sampled_from([None, None, None, "H", "F", "A", "b", "u", "lam"]),
    )
    def test_generated_certificate_is_bitwise_check_kkt(self, data, m, d, nan_in):
        # The compiled solver's certificate, generated from H and F alone.
        problem, u, lam = draw_kkt_data(data, m, d, nan_in)
        certificate = qp.compile_certificate(problem.cost.H, problem.cost.F, d)

        def generated(problem, u, lam):
            return certificate(problem.rows, problem.rhs, tuple(u.tolist()), tuple(lam.tolist()))

        assert generated(problem, u, lam).hex() == check_kkt(problem, u, lam).hex()
        self.assert_near_exact(problem, u, lam, generated)

    @pytest.mark.parametrize("d", range(8))
    def test_nan_at_every_position(self, d):
        # Python's max keeps an earlier finite value over a later NaN; a NaN in
        # any row of b, A, u or lambda must still give NaN.
        rng = np.random.default_rng(d)
        base = {"A": rng.normal(size=(d, 2)), "b": rng.normal(size=d), "u": rng.normal(size=2),
                "lam": rng.uniform(0.0, 1.0, size=d)}
        for name, values in base.items():
            for i in range(values.size):
                data = {k: v.copy() for k, v in base.items()}
                data[name].flat[i] = math.nan
                problem = raw_problem(np.eye(2), [0.5, -0.5], data["A"], data["b"])
                assert math.isnan(numpy_check_kkt(problem, data["u"], data["lam"]))
                assert math.isnan(check_kkt(problem, data["u"], data["lam"])), (name, i)

    def test_overflow_gives_inf_not_an_exception(self):
        problem = raw_problem(np.eye(2), [0.0, 0.0], [[1e308, 1e308], [1.0, 0.0]], [-1.0, -1.0])
        with np.errstate(all="ignore"):
            assert check_kkt(problem, [1e308, 1e308], [1e308, 0.0]) == math.inf
        self.assert_near_exact(problem, [1e308, 1e308], [1e308, 0.0])


class TestCostFactor:
    """H is validated and inverted once per matrix and shared read-only."""

    @pytest.mark.parametrize("H", [[[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]])
    def test_bad_hessian_raises_on_every_construction(self, H):
        for _ in range(3):
            with pytest.raises(QpInputError):
                QpProblem(H, np.zeros(2), np.zeros((0, 2)), [])

    def test_later_edit_of_callers_matrix_is_seen(self):
        H = np.eye(2)
        first = QpProblem(H, np.zeros(2), np.zeros((0, 2)), [])
        H[0, 0] = 4.0
        second = QpProblem(H, np.zeros(2), np.zeros((0, 2)), [])
        np.testing.assert_array_equal(first.H_inv, np.eye(2))
        np.testing.assert_allclose(second.H_inv, np.diag([0.25, 1.0]), rtol=1e-15)

    def test_inverse_is_read_only(self):
        problem = halfspace_problem(1.0)
        with pytest.raises(ValueError):
            problem.H_inv[0, 0] = 2.0
        assert QpProblem(np.eye(2), np.zeros(2), np.zeros((0, 2)), []).H_inv is problem.H_inv

    def test_a_checked_cost_stands_in_for_h_and_f(self):
        by_arrays = QpProblem(np.diag([2.0, 1.0]), [1.0, -1.0], [[1.0, 0.5]], [0.3])
        by_cost = QpProblem(by_arrays.cost, None, [[1.0, 0.5]], [0.3])
        assert by_cost.cost is by_arrays.cost
        assert solve_qp(by_cost) == solve_qp(by_arrays)
        with pytest.raises(QpInputError, match="comes with the QpCost"):
            QpProblem(by_arrays.cost, [1.0, -1.0], [[1.0, 0.5]], [0.3])
        with pytest.raises(QpInputError, match="2 columns"):
            QpProblem(by_arrays.cost, None, [[1.0]], [0.3])

    def test_a_run_checks_its_cost_once_when_the_scenario_is_built(self, monkeypatch):
        scenario = benchmark_scenario(dt=0.05)
        calls = []
        real = qp._cost

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(qp, "_cost", counted)
        run(scenario, check=False)
        assert calls == []


class TestWarmStart:
    def test_empty_hint_keeps_unconstrained_answer(self):
        # An empty hint once made the size-0 candidate look already tried.
        sol = solve_qp(halfspace_problem(-1.0), hint=())
        assert sol.status == OPTIMAL and sol.support == () and sol.active_set == ()
        np.testing.assert_array_equal(sol.u_star, [0.0, 0.0])

    def test_support_differs_from_tight_rows(self):
        # Row 1 is tight at u* but carries no multiplier.
        problem = QpProblem(np.eye(2), np.zeros(2), [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        sol = solve_qp(problem)
        assert sol.support == (0,)
        assert sol.active_set == (0, 1)
        assert solve_qp(problem, hint=sol.support).support == (0,)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([2, 3]),
        d=st.integers(1, 7),
        hint=st.lists(st.integers(-2, 9), max_size=5),
    )
    def test_any_hint_gives_the_enumeration_answer(self, seed, m, d, hint):
        problem, _ = random_qp_problem(np.random.default_rng(seed), m, d)
        cold = solve_qp(problem)
        warm = solve_qp(problem, hint=tuple(hint))
        assert warm.status == cold.status
        np.testing.assert_allclose(warm.u_star, cold.u_star, rtol=0, atol=1e-12)
        own = solve_qp(problem, hint=cold.support)
        assert own.support == cold.support
        assert np.array_equal(own.u_star, cold.u_star)
        assert np.array_equal(own.multipliers, cold.multipliers)

    def test_dependent_hint_rows_fall_through(self):
        # Rows 0 and 1 are the same constraint, so the hint (0, 1) has a
        # singular Schur complement; the enumeration still certifies.
        problem = QpProblem(np.eye(2), np.zeros(2), [[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        sol = solve_qp(problem, hint=(0, 1))
        assert sol.status == DEGENERATE
        np.testing.assert_allclose(sol.u_star, [1.0, 0.0], atol=1e-10)
        assert sol.kkt_residual <= KKT_TOL


class TestCompiledSolver:
    """qp.compile_solver's per-size functions keep the enumeration's skip
    rule and gates: each case below certifies under the KKT tolerance alone,
    but solve_qp passes over the hinted working set."""

    @pytest.mark.parametrize(
        "A, b, hint, support",
        [
            # Row 0 is tight, not violated, at u0 = 0: skipped, though lam = 0 certifies.
            ([[1.0, 0.0]], [0.0], (0,), ()),
            # lam_1 = -7e-10 is below the -KKT_TOL/2 gate, within KKT_TOL.
            ([[1.0, 0.0], [0.0, 1.0]], [1.0, -7e-10], (0, 1), (0,)),
            # Row 1's slack, -7e-10, is below the gate, within KKT_TOL.
            ([[1.0, 0.0], [0.0, 1.0]], [1.0, 7e-10], (0,), (0, 1)),
        ],
        ids=["skip-rule", "multiplier-gate", "slack-gate"],
    )
    def test_hint_that_solve_qp_passes_over_falls_back(self, A, b, hint, support):
        problem = QpProblem(np.eye(2), np.zeros(2), A, b)
        assert check_kkt(problem, *self.candidate(problem, hint)) <= KKT_TOL
        kernel = qp.compile_solver(problem.cost, len(b))
        assert kernel[len(hint)](A, b, hint) is None
        solution = solve_qp(problem, hint)
        assert solution.support == support
        assert solution_bits(solution) == solution_bits(loop_exhaustive(problem, hint))
        assert solution_bits(kernel[len(support)](A, b, support)) == solution_bits(solution)

    @pytest.mark.usefixtures("fresh_solvers")
    def test_one_solver_per_cost_bytes_and_row_count(self):
        cost = QpProblem(np.eye(2), [0.0, 1.0], [[1.0, 0.0]], [0.5]).cost
        kernel = qp.compile_solver(cost, 1)
        assert len(kernel) == 2  # sizes 0 and min(m, d) = 1
        twin = cost._replace(arrays=tuple(a.copy() for a in cost.arrays))
        assert qp.compile_solver(twin, 1) is kernel
        assert qp.compile_solver(cost, 2) is not kernel and len(qp.compile_solver(cost, 2)) == 3
        signed = QpProblem(np.eye(2), [-0.0, 1.0], [[1.0, 0.0]], [0.5]).cost
        assert signed.F == cost.F and qp.compile_solver(signed, 1) is not kernel  # -0.0 == 0.0, not as bytes
        solution = solve_qp(QpProblem(cost, None, [[1.0, 0.0]], [0.5]))  # without a kernel: the memo's
        assert solution.support == (0,) and len(qp._SOLVERS) == 3

    @staticmethod
    def candidate(problem, working):
        """The loop solver's float candidate of the working set."""
        u, lam_w = loop_eqp(problem.cost.H_inv, problem.cost.v, problem.rows, problem.rhs, working)
        lam = [0.0] * problem.d
        for i, x in zip(working, lam_w):
            lam[i] = x
        return u, lam


def near_parallel(kind, k):
    """Two rows at angle about 10^-k, both violated at the origin (3-D: plus a third row)."""
    eps = 10.0 ** -k
    if kind == "sym":
        return QpProblem(np.eye(2), np.zeros(2), [[1.0, eps], [1.0, -eps]], [1.0, 1.0])
    if kind == "tilt":
        return QpProblem(np.eye(2), np.zeros(2), [[1.0, 0.0], [1.0, eps]], [1.0, 1.0])
    if kind == "wedge":
        return QpProblem(np.eye(2), np.zeros(2), [[1.0, eps], [1.0, -eps]], [1.0, 1.0 + eps])
    if kind == "rot":
        rows = [[math.cos(a), math.sin(a)] for a in (0.7, 0.7 + eps)]
        return QpProblem(np.eye(2), np.zeros(2), rows, [1.0, 1.0])
    rows = [[1.0, eps, 0.0], [1.0, -eps, 0.0], [0.0, 0.0, 1.0]]
    return QpProblem(np.diag([1.0, 2.0, 3.0]), np.zeros(3), rows, [1.0, 1.0, 0.5])


# (kind, k, active_set, support cold, support with hint (0, 1)), all optimal:
# the values solve_qp gave while it still ran matrix_rank on every tight set
# of two or more rows.
NEAR_PARALLEL = [
    (kind, k, (0, 1, 2) if kind == "3d" else (0, 1), cold, warm)
    for kind, k, cold, warm in [
        ("sym", 8, (0,), (0, 1)),
        ("tilt", 8, (0,), (0,)),
        ("wedge", 8, (1,), (1,)),
        ("wedge", 9, (1,), (1,)),
        ("rot", 8, (0,), (0,)),
        ("3d", 8, (0, 2), (0, 2)),
    ]
    + [(kind, k, (0,), (0,)) for k in range(9, 15) for kind in ("sym", "tilt", "rot")]
    + [("wedge", k, (0,), (0,)) for k in range(10, 15)]
    + [("3d", k, (0, 2), (0, 2)) for k in range(9, 15)]
]


class TestRankTest:
    """matrix_rank runs only when the tight rows differ from the certified working set."""

    @staticmethod
    def count_rank_calls(monkeypatch):
        calls = []
        real = np.linalg.matrix_rank

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counted)
        return calls

    @pytest.mark.parametrize("kind, k, active_set, cold, warm", NEAR_PARALLEL)
    def test_near_parallel_rows_keep_their_answer(self, kind, k, active_set, cold, warm):
        problem = near_parallel(kind, k)
        for hint, support in (((), cold), ((0, 1), warm)):
            sol = solve_qp(problem, hint=hint)
            assert (sol.status, sol.active_set, sol.support) == (OPTIMAL, active_set, support)

    def test_skipped_when_tight_rows_are_the_support(self, monkeypatch):
        calls = self.count_rank_calls(monkeypatch)
        sol = solve_qp(near_parallel("sym", 8), hint=(0, 1))
        assert sol.active_set == sol.support == (0, 1) and sol.status == OPTIMAL
        assert calls == []
        sol = solve_qp(QpProblem(np.eye(2), np.zeros(2), [[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0]))
        assert sol.active_set == (0, 1) and sol.support == (0,) and sol.status == DEGENERATE
        assert len(calls) == 1


class TestBruteForce:
    def test_matches_projection_within_cell(self):
        point = brute_force_qp(halfspace_problem(1.0), 5.0, 501)
        assert np.linalg.norm(point - [1.0, 0.0]) <= 0.02 + 1e-12

    def test_unconstrained_case_near_origin(self):
        point = brute_force_qp(halfspace_problem(-1.0), 5.0, 501)
        cell = 10.0 / 500
        assert np.linalg.norm(point) <= cell * np.sqrt(2) + 1e-12

    def test_benchmark_rows_at_start(self):
        # Stacked rows of the bundled benchmark at the initial center.
        A = [[-3.0, -4.0], [-10.0, -10.0], [20.0, 20.0]]
        b = [-5.25, -46.0, 18.5]
        problem = QpProblem(np.eye(2), np.zeros(2), A, b)
        grid = brute_force_qp(problem, 5.0, 501)
        sol = solve_qp(problem)
        cell = 10.0 / 500
        assert np.linalg.norm(grid - sol.u_star) <= cell * np.sqrt(2) + 1e-12

    def test_grid_infeasible_signal(self):
        problem = QpProblem([[1.0]], [0.0], [[1.0]], [100.0])
        with pytest.raises(GridInfeasibleError):
            brute_force_qp(problem, 5.0, 101)

    def test_rejects_high_dimensional_oracle(self):
        problem = QpProblem(np.eye(4), np.zeros(4), np.zeros((0, 4)), [])
        with pytest.raises(QpInputError):
            brute_force_qp(problem, 1.0, 11)


def unit_arrays(*shape):
    return hnp.arrays(float, shape, elements=st.floats(-1.0, 1.0))


@st.composite
def planar_qps(draw):
    """Strictly convex 2-input QP with 1-5 rows and a strictly feasible point."""
    d = draw(st.integers(1, 5))
    L, F, p = draw(unit_arrays(2, 2)), draw(unit_arrays(2)), draw(unit_arrays(2))
    A = draw(unit_arrays(d, 2))
    margin = draw(hnp.arrays(float, d, elements=st.floats(0.1, 2.0)))
    return QpProblem(L.T @ L + 0.1 * np.eye(2), F, A, A @ p - margin), p


class TestRandomizedProperties:
    @pytest.mark.parametrize("m", [2, 3])
    def test_thousand_random_problems_certified(self, m):
        # m = 3 with up to 7 rows is the shape of a 3-D scenario with six obstacles.
        rng = np.random.default_rng(123)
        for _ in range(1000):
            problem, _ = random_qp_problem(rng, m, int(rng.integers(1, 8)))
            sol = solve_qp(problem)
            assert sol.status in (OPTIMAL, DEGENERATE)
            assert sol.kkt_residual <= 1e-8
            slack = problem.A @ sol.u_star - problem.b
            assert np.all(slack >= -KKT_TOL)
            assert np.all(np.asarray(sol.multipliers) >= -KKT_TOL)

    def test_oracle_agreement_on_200_problems(self):
        # Grid argmins drift along the active-constraint slack band, so the
        # sound comparison is in objective value at one-cell resolution; the
        # Euclidean gap gets a measured geometric backstop.
        rng = np.random.default_rng(321)
        for _ in range(200):
            problem, feasible = random_qp_problem(rng)
            sol = solve_qp(problem)
            box = minimizer_box_bound(problem, feasible)
            points = 161
            grid = brute_force_qp(problem, box, points)
            step = 2.0 * box / (points - 1) * np.sqrt(2)
            gap = objective(problem, grid) - objective(problem, sol.u_star)
            # The certified minimizer can never cost more than a feasible grid point.
            assert gap >= -1e-9
            lam_max = float(np.linalg.eigvalsh(problem.H).max())
            cost_band = step * np.linalg.norm(problem.H @ grid + problem.F) + 0.5 * lam_max * step**2
            assert gap <= 2.0 * cost_band
            assert np.linalg.norm(grid - sol.u_star) <= 6.0 * step

    @pytest.mark.parametrize("kind", ["plain", "degenerate", "infeasible"])
    @settings(max_examples=60, deadline=None)
    @given(
        draw=planar_qps(),
        row=st.integers(0, 4),
        scale=st.floats(0.1, 10.0),
        beta=st.floats(-2.0, 2.0),
        excess=st.floats(0.1, 2.0),
        a=unit_arrays(2),
    )
    def test_agrees_with_grid_oracle(self, kind, draw, row, scale, beta, excess, a):
        problem, feasible = draw
        H, F, A, b = problem.H, problem.F, problem.A, problem.b
        if kind == "infeasible":
            # a.u >= beta and -a.u >= gamma with beta + gamma = excess > 0 admit no u.
            problem = QpProblem(H, F, np.vstack([A, a, -a]), np.append(b, [beta, excess - beta]))
            sol = solve_qp(problem)
            assert sol.status == INFEASIBLE and sol.u_star is None
            with pytest.raises(GridInfeasibleError):
                brute_force_qp(problem, 5.0, 41)
            return
        sol = solve_qp(problem)
        if kind == "degenerate":
            # A positively scaled copy of a row changes neither the feasible set nor the minimizer.
            i = row % problem.d
            problem = QpProblem(H, F, np.vstack([A, scale * A[i]]), np.append(b, scale * b[i]))
            twin = solve_qp(problem)
            np.testing.assert_allclose(twin.u_star, sol.u_star, rtol=0, atol=1e-9)
            sol = twin
        assert sol.status in (OPTIMAL, DEGENERATE)
        assert sol.kkt_residual <= KKT_TOL
        # No feasible grid point beats the certified minimizer, and by strong
        # convexity every feasible point g costs at least 1/2 |g - u*|_H^2 more.
        # A band in grid cells is not asserted: a thin wedge of feasible
        # points can hold no grid point near u_star.
        grid = brute_force_qp(problem, minimizer_box_bound(problem, feasible), 161)
        gap = objective(problem, grid) - objective(problem, sol.u_star)
        assert gap >= -1e-9
        assert 0.5 * (grid - sol.u_star) @ problem.H @ (grid - sol.u_star) <= gap + 1e-9

    def test_scaling_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            problem, _ = random_qp_problem(rng)
            scale = float(rng.uniform(0.1, 50.0))
            scaled = QpProblem(scale * problem.H, scale * problem.F, problem.A, problem.b)
            u1 = solve_qp(problem).u_star
            u2 = solve_qp(scaled).u_star
            assert np.linalg.norm(np.asarray(u1) - u2) <= 1e-7 * max(1.0, np.linalg.norm(u1))


@st.composite
def mixed_qps(draw):
    """Strictly convex QP with 1-3 variables and 0-7 rows. A row may be a near
    copy of an earlier one, at an angle down to about 1e-9, and b is A p plus
    a shift of either sign, so the polyhedron may be empty. Row entries are at
    least 1/4 in size: a row of norm 1e-6 or 1e-79 needs multipliers of 1e10
    or more, where the absolute KKT_TOL leaves either solver certifying alone."""
    m, d = draw(st.integers(1, 3)), draw(st.integers(0, 7))
    L, F, p = draw(unit_arrays(m, m)), draw(unit_arrays(m)), draw(unit_arrays(m))
    A = draw(hnp.arrays(float, (d, m), elements=st.floats(0.25, 1.0) | st.floats(-1.0, -0.25)))
    for j in range(1, d):
        tilt = draw(st.sampled_from([None, None, 1e-3, 1e-6, 1e-9]), label=f"tilt of row {j}")
        if tilt is not None:
            A[j] = A[draw(st.integers(0, j - 1))] + tilt * draw(unit_arrays(m))
    shift = draw(hnp.arrays(float, d, elements=st.floats(-2.0, 2.0)))
    return QpProblem(L.T @ L + 0.1 * np.eye(m), F, A, A @ p + shift)


def solve_or_none(solver, problem):
    """The solver's answer, or None where it raises QpCertificationError."""
    try:
        return solver(problem)
    except QpCertificationError:
        return None


def near_a_threshold(problem, sol) -> bool:
    """Whether rounding alone can move a certified answer across one of the
    solver's decisions: certification (a residual within 100x of KKT_TOL,
    where nearly parallel active rows put multipliers of 1e2 to 1e4; FOUND 24),
    the tight-row test (a slack within 1e-9 of 1e-7 max(1, |b_i|)) or the
    -KKT_TOL/2 gates (a multiplier or slack within 1e-11 of -KKT_TOL/2)."""
    if sol.kkt_residual > KKT_TOL / 100:
        return True
    size = np.maximum(1.0, np.abs(problem.b))
    slack = problem.A @ sol.u_star - problem.b
    gated = np.concatenate([slack, sol.multipliers]) + 0.5 * KKT_TOL
    return bool(np.any(np.abs(slack - 1e-7 * size) <= 1e-9 * size) or np.any(np.abs(gated) <= 1e-11))


class TestReferenceSolver:
    """The float solver gives the all-numpy enumeration's answers."""

    @settings(max_examples=500, deadline=None)
    @given(problem=mixed_qps())
    def test_agrees_with_numpy_reference(self, problem):
        ref, got = solve_or_none(reference_solve_qp, problem), solve_or_none(solve_qp, problem)
        if got is not None and got.u_star is not None:
            assert numpy_check_kkt(problem, got.u_star, got.multipliers) <= KKT_TOL
        if any(sol is not None and sol.u_star is not None and near_a_threshold(problem, sol) for sol in (ref, got)):
            return
        assert (got is None) == (ref is None)
        if ref is None:
            return
        assert got.status == ref.status
        if ref.u_star is None:
            return
        # u* = H^-1 (A'lam - F) carries rounding of the size of A'lam as well as u*:
        # u* = (-1, -1) with multipliers 15 and 19 moved 2.4e-12 between the two solvers.
        scale = max(1.0, np.linalg.norm(ref.u_star), np.linalg.norm(problem.A) * np.linalg.norm(ref.multipliers))
        assert np.linalg.norm(got.u_star - ref.u_star) <= 1e-12 * scale
        if ref.status == OPTIMAL:
            assert got.support == ref.support

    def test_agrees_on_the_benchmark_qps(self, benchmark_run):
        # The QPs the benchmark run solved, every 10th step, rebuilt from the
        # recorded (c, t): the workload's own problems, not random draws.
        scenario, trace, _, _ = benchmark_run
        for k in range(0, len(trace), 10):
            A, b, _ = assemble_rows(trace.c[k].tolist(), float(trace.t[k]), scenario)
            problem = QpProblem(scenario.qp_h, scenario.qp_f, A, b)
            got, ref = solve_qp(problem), reference_solve_qp(problem)
            assert (got.status, got.support) == (ref.status, ref.support), k
            scale = max(1.0, np.linalg.norm(ref.u_star))
            assert np.linalg.norm(np.asarray(got.u_star) - ref.u_star) <= 1e-12 * scale, k


EMPTINESS_TOL = 0.5 * KKT_TOL  # the slack that _feasible_start forgives every row


def well_separated(A) -> bool:
    """Whether every set of at most m rows, scaled to unit length, has a least
    singular value sigma with sigma^2 >= 1e-3: for a pair, 1 - |cos| >= 1e-3.
    The rows of a 1-variable problem are all parallel and pass."""
    d, m = A.shape
    unit = A / np.linalg.norm(A, axis=1, keepdims=True)
    subsets = (list(w) for k in range(2, min(m, d) + 1) for w in itertools.combinations(range(d), k))
    return all(np.linalg.svd(unit[w], compute_uv=False)[-1] ** 2 >= 1e-3 for w in subsets)


def signed_entries(shape):
    return hnp.arrays(float, shape, elements=st.floats(0.25, 1.0) | st.floats(-1.0, -0.25))


@st.composite
def polyhedra(draw):
    """A u >= b with 1-3 variables and 1-5 well separated rows; b = A p plus a
    shift of either sign, so the polyhedron may be empty."""
    m, d = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    A = draw(signed_entries((d, m)))
    assume(well_separated(A))
    return A, A @ draw(unit_arrays(m)) + draw(hnp.arrays(float, d, elements=st.floats(-2.0, 2.0)))


@st.composite
def empty_polyhedra(draw):
    """Well separated rows holding an empty core, in shuffled order: rows a_1..a_m,
    a_{m+1} = -sum_i w_i a_i and every b_i = a_i p + s_i with s_i >= 1/10, so the
    multipliers (w, 1) prove the core empty by a margin (Farkas); plus up to
    4 - m rows of a polyhedra draw."""
    m = draw(st.integers(1, 3))
    core = draw(signed_entries((m, m)))
    w = draw(hnp.arrays(float, m, elements=st.floats(0.25, 1.0)))
    core = np.vstack([core, -(w @ core)])
    b_core = core @ draw(unit_arrays(m)) + draw(hnp.arrays(float, m + 1, elements=st.floats(0.1, 1.0)))
    extra = draw(st.integers(0, 4 - m))
    A_extra = draw(signed_entries((extra, m)))
    b_extra = A_extra @ draw(unit_arrays(m)) + draw(hnp.arrays(float, extra, elements=st.floats(-2.0, 2.0)))
    order = draw(st.permutations(range(m + 1 + extra)))
    A, b = np.vstack([core, A_extra])[order], np.concatenate([b_core, b_extra])[order]
    assume(well_separated(A))
    return A, b


@st.composite
def nearly_parallel_polyhedra(draw):
    """A polyhedra draw whose second row is -s times the first plus noise of
    scale 10^-12 to 10^-1, so cond(A_W A_W') of that pair reaches 1/eps; all
    rows scaled by 1 or 1e-155."""
    m, d = draw(st.integers(2, 3)), draw(st.integers(2, 5))
    A = draw(signed_entries((d, m)))
    noise = draw(hnp.arrays(float, m, elements=st.floats(-1.0, 1.0)))
    A[1] = -draw(st.floats(0.2, 3.0)) * A[0] + 10.0 ** draw(st.floats(-12.0, -1.0)) * noise
    b = A @ draw(unit_arrays(m)) + draw(hnp.arrays(float, d, elements=st.floats(-2.0, 2.0)))
    scale = draw(st.sampled_from([1.0, 1e-155]))
    return scale * A, b


def assert_sound(point, A, b):
    """None proves A u >= b empty; a point is one of A u >= b - tol. Both are
    checked exactly; in between, a set empty by less than tol, either is right."""
    if point is None:
        assert not fraction_nonempty(A, b, 0.0)
    else:
        assert fraction_nonempty(A, b, EMPTINESS_TOL)


def feasible_start_solving(A, b):
    """_feasible_start on float lists, and the working sets that it passed to _eqp."""
    solved, real = [], qp._eqp

    def recorded(rows, rhs, working):
        solved.append(list(working))
        return real(rows, rhs, working)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qp, "_eqp", recorded)
        return qp._feasible_start(A.tolist(), b.tolist()), solved


class TestEmptinessProof:
    """_feasible_start, the solver's enumeration run on the projection QP,
    against the numpy least-norm search and the exact Fourier-Motzkin test
    of tests/oracles.py."""

    @settings(max_examples=400, deadline=None)
    @given(rows=polyhedra() | empty_polyhedra())
    def test_agrees_with_numpy_reference(self, rows):
        A, b = rows
        point, solved = feasible_start_solving(A, b)
        assert (point is None) == (reference_feasible_start(A, b, EMPTINESS_TOL) is None)
        assert_sound(point, A, b)
        if point is not None:
            assert np.all(A @ np.array(point, dtype=float) - b >= -EMPTINESS_TOL - 1e-12)
        # The skip rule on the projection QP, u0 = 0: each working set holds a row that 0 violates.
        assert all(any(b[i] > 0.0 for i in working) for working in solved if working)

    @settings(max_examples=300, deadline=None)
    @given(rows=nearly_parallel_polyhedra())
    def test_nearly_parallel_rows_are_decided_exactly(self, rows):
        # Here float candidates would call some nonempty polyhedra empty.
        A, b = rows
        assert_sound(qp._feasible_start(A.tolist(), b.tolist()), A, b)

    def test_wedge_that_rounding_hides_is_not_empty(self):
        # Two rows 2e-4 rad from antiparallel (cond(A_W A_W') = 3.9e7) bound a
        # nonempty wedge. The float candidate of {0, 1} (the loop solver's, on
        # the projection QP) misses a row by 8.8e-10, more than the tolerance;
        # the exact one finds the point, and solve_qp reports an uncertified
        # QP, not an infeasible one.
        A = np.array([[-1.2261539134436839, 1.1738885903120326], [0.5550569838852342, -0.5318534102343234]])
        b = np.array([-1.6587947019106561, 4.286096556114419])
        identity = [[1, 0], [0, 1]]
        slacks = [min(slack) for _, _, _, slack in loop_candidates(identity, [0.0, 0.0], A.tolist(), b.tolist())]
        assert max(slacks) < -EMPTINESS_TOL
        assert fraction_nonempty(A, b, 0.0)
        assert qp._feasible_start(A.tolist(), b.tolist()) is not None
        with pytest.raises(QpCertificationError):
            solve_qp(QpProblem(np.eye(2), np.zeros(2), A, b))

    @settings(max_examples=200, deadline=None)
    @given(rows=empty_polyhedra())
    def test_conflicting_rows_are_an_irreducible_empty_set(self, rows):
        A, b = rows
        assert reference_feasible_start(A, b, EMPTINESS_TOL) is None
        m = A.shape[1]
        conflicting = list(_conflicting_rows(QpProblem(np.eye(m), np.zeros(m), A, b)))
        assert reference_feasible_start(A[conflicting], b[conflicting], EMPTINESS_TOL) is None
        for i in conflicting:
            rest = [j for j in conflicting if j != i]
            assert reference_feasible_start(A[rest], b[rest], EMPTINESS_TOL) is not None
            assert fraction_nonempty(A[rest], b[rest], EMPTINESS_TOL)
        assert not fraction_nonempty(A[conflicting], b[conflicting], 0.0)

    def test_overflowed_candidate_is_a_point(self):
        # The row has norm 1e-159, so on floats the candidate of {0} overflows.
        # The polyhedron is nonempty: solve_qp must raise QpCertificationError
        # rather than call UNCERTIFIABLE_QP infeasible.
        problem = UNCERTIFIABLE_QP
        assert qp._feasible_start(problem.rows, problem.rhs) is not None
        assert reference_feasible_start(problem.A, problem.b, EMPTINESS_TOL) is not None
        with pytest.raises(QpCertificationError):
            solve_qp(problem)

    def test_subnormal_row_gives_a_point(self):
        # |a|^2 underflows to 0 on floats, and the least-norm point, 5e309,
        # lies beyond the float range; the polyhedron is still nonempty.
        problem = QpProblem(np.eye(2), np.zeros(2), [[1e-310, 1e-310]], [1.0])
        assert qp._feasible_start(problem.rows, problem.rhs) is not None
        with pytest.raises(QpCertificationError):
            solve_qp(problem)

    @pytest.mark.parametrize("a", [[1.0], [1.0, 0.0], [0.6, 0.8], [0.3, -0.7, 0.2]])
    def test_exactly_antiparallel_pair_is_empty(self, a):
        # a u >= 1 and -a u >= -0.5; the Schur complement of {0, 1} is singular.
        A, b = np.array([a, [-x for x in a]]), np.array([1.0, -0.5])
        assert qp._feasible_start(A.tolist(), b.tolist()) is None
        assert reference_feasible_start(A, b, EMPTINESS_TOL) is None
        assert not fraction_nonempty(A, b, 0.0)

    def test_rows_the_origin_meets_are_skipped(self):
        # x <= 2 and x >= 1. The foot of the origin on x = 2 is feasible too, but
        # the origin meets x <= 2, so {0} is skipped and the point is the projection.
        point, solved = feasible_start_solving(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([-2.0, 1.0]))
        assert point == [1.0, 0.0]
        assert solved == [[], [1]]
