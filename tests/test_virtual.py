"""Constraint-row assembly and the stacked CBF-QP controller."""

import math
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import loop_solve_qp, solution_bits
from oracles import barrier_values, brute_force_qp
from vczsim.barriers import ClassKappa, Obstacle, ShrinkSchedule, TargetSet, eval_avoidance, eval_reach
from vczsim.confinement import ConfinementLaw
from vczsim.exprs import dot
from vczsim.plant import catalog_plant
from vczsim import qp, simulator, virtual
from vczsim.qp import INFEASIBLE, QpCertificationError, QpInputError, QpProblem, compile_solver, solve_qp
from vczsim.simulator import run
from vczsim.scenario import Scenario, uniform_alphas
from vczsim.scenario_io import benchmark_scenario, load_scenario
from vczsim.virtual import (
    QpInfeasibleError,
    assemble_rows,
    virtual_control,
)

CROWDED_3D = Path(__file__).resolve().parents[1] / "bench" / "scenarios" / "crowded_3d.scn"


def make_scenario(obstacles, shrink, target=None, r_c=0.5, alphas=None):
    target = target or TargetSet([10.0, 10.0], 1.1)
    d = len(obstacles) + 1
    return Scenario(
        plant=catalog_plant("integrator", 2),
        obstacles=tuple(obstacles),
        target=target,
        x0=np.zeros(2),
        shrink=shrink,
        alphas=alphas or uniform_alphas(d),
        qp_h=np.eye(2),
        qp_f=np.zeros(2),
        confinement=ConfinementLaw(10.0, r_c),
        dt=1e-3,
    )


BENCH = benchmark_scenario()


REGULARITY_BAND = 0.5


def regularity_margin(c, t: float, scenario: Scenario) -> float:
    """Smallest input-coefficient norm among rows near their barrier boundary.

    Rows with |h| >= REGULARITY_BAND are ignored; +inf when no row is in the
    band.
    """
    margin = math.inf
    A, _, h = assemble_rows(c, t, scenario)
    for a_j, h_j in zip(A, h):
        if abs(h_j) < REGULARITY_BAND:
            margin = min(margin, float(np.linalg.norm(a_j)))
    return margin


class TestAssembleRows:
    def test_static_obstacle_row(self):
        scenario = make_scenario([Obstacle.static([1.5, 2.0], 0.5)], ShrinkSchedule(15.0, 0.5, 10.0))
        A, b, h = assemble_rows([0.0, 0.0], 0.0, scenario)
        np.testing.assert_allclose(A[0], [-3.0, -4.0])
        assert b[0] == pytest.approx(-5.25)
        assert h[0] == pytest.approx(5.25)

    def test_reach_row(self):
        scenario = make_scenario([], ShrinkSchedule(15.0, 0.5, 10.0))
        A, b, h = assemble_rows([0.0, 0.0], 0.0, scenario)
        assert len(A) == 1 and len(A[0]) == 2  # only row in an obstacle-free scenario
        np.testing.assert_allclose(A[0], [20.0, 20.0])
        assert b[0] == pytest.approx(18.5)

    def test_boundary_row_has_zero_rhs(self):
        scenario = make_scenario([Obstacle.static([1.5, 2.0], 0.5)], ShrinkSchedule(15.0, 0.5, 10.0))
        _, b, _ = assemble_rows([2.5, 2.0], 0.0, scenario)
        assert b[0] == pytest.approx(0.0, abs=1e-12)

    def test_row_order_obstacles_then_reach(self):
        A, b, h = assemble_rows([0.0, 0.0], 0.0, BENCH)
        assert len(A) == 3 and all(len(a) == 2 for a in A) and len(b) == 3
        np.testing.assert_allclose(h, [5.25, 46.0, 25.0])
        np.testing.assert_allclose(A[1], [-10.0, -10.0])
        assert b[1] == pytest.approx(-46.0)

    def test_row_equivalence_with_direct_substitution(self):
        # A[j]'u - b[j] must equal grad_h'u + dh/dt + gamma(h) identically for cdot = u.
        obstacle = Obstacle.linear([5.0, 5.0], [0.4, -0.4], 1.5)
        scenario = make_scenario(
            [obstacle],
            ShrinkSchedule(15.0, 0.5, 10.0),
            alphas=(ClassKappa(1.3), ClassKappa(0.7)),
        )
        rng = np.random.default_rng(12)
        for _ in range(100):
            c = rng.uniform(-2.0, 12.0, size=2)
            t = float(rng.uniform(0.0, 10.0))
            A, b, h = assemble_rows(c, t, scenario)
            evals = [
                eval_avoidance(c, t, obstacle, scenario.r_c),
                eval_reach(c, t, scenario.target.center, scenario.shrink),
            ]
            for j, (ev, alpha) in enumerate(zip(evals, scenario.alphas)):
                assert h[j] == ev.value
                for _ in range(20):
                    u = rng.normal(size=2)
                    lhs = A[j] @ u - b[j]
                    hdot = ev.grad_c @ u + ev.dt
                    assert abs(lhs - (hdot + alpha(ev.value))) <= 1e-10


class TestVirtualControl:
    def test_single_active_reach_row(self):
        scenario = make_scenario([], ShrinkSchedule(15.0, 0.5, 10.0))
        u_c, sol, _ = virtual_control([0.0, 0.0], 0.0, scenario)
        np.testing.assert_allclose(u_c, [0.4625, 0.4625], atol=1e-10)
        assert sol.status == "optimal"

    def test_inactive_rows_give_zero_input(self):
        # Deep inside a slowly shrinking ball the minimum-norm input is zero.
        scenario = make_scenario([], ShrinkSchedule(5.0, 1.0, 10.0), target=TargetSet([0.0, 0.0], 1.1), r_c=0.1)
        u_c, _, _ = virtual_control([0.0, 0.0], 0.0, scenario)
        np.testing.assert_allclose(u_c, [0.0, 0.0], atol=1e-12)

    def test_benchmark_start_matches_grid_oracle(self):
        A, b, _ = assemble_rows([0.0, 0.0], 0.0, BENCH)
        problem = QpProblem(BENCH.qp_h, BENCH.qp_f, A, b)
        grid = brute_force_qp(problem, 5.0, 501)
        u_c, _, _ = virtual_control([0.0, 0.0], 0.0, BENCH)
        assert np.linalg.norm(grid - u_c) <= (10.0 / 500) * math.sqrt(2) + 1e-12

    def test_infeasible_raises_with_conflicting_rows(self):
        # Antiparallel squeeze: tight obstacle dead ahead of a fast-shrinking ball.
        scenario = make_scenario(
            [Obstacle.static([5.0, 0.0], 0.8)],
            ShrinkSchedule(10.5, 0.8, 4.0),
            target=TargetSet([10.0, 0.0], 1.2),
            r_c=0.3,
        )
        c = np.array([5.0 - 0.8 - 0.3 - 0.05, 0.0])  # just outside the inflated obstacle
        with pytest.raises(QpInfeasibleError) as exc_info:
            virtual_control(c, 3.2, scenario)
        conflicting = exc_info.value.conflicting
        assert 0 in conflicting and 1 in conflicting


class TestRegularityMargin:
    def test_boundary_obstacle_row(self):
        scenario = make_scenario([Obstacle.static([1.5, 2.0], 0.5)], ShrinkSchedule(15.0, 0.5, 10.0))
        c = [2.5, 2.0]  # on the inflated boundary, reach row far from its boundary
        margin = regularity_margin(c, 0.0, scenario)
        expected = 2.0 * np.linalg.norm(np.array(c) - [1.5, 2.0])
        assert margin == pytest.approx(expected)

    def test_center_coincidence_degenerates_to_zero(self):
        scenario = make_scenario([Obstacle.static([1.5, 2.0], 0.2)], ShrinkSchedule(15.0, 0.5, 10.0), r_c=0.3)
        assert regularity_margin([1.5, 2.0], 0.0, scenario) == 0.0

    def test_no_rows_in_band_gives_infinity(self):
        scenario = make_scenario([Obstacle.static([1.5, 2.0], 0.5)], ShrinkSchedule(15.0, 0.5, 10.0))
        assert regularity_margin([0.0, 0.0], 0.0, scenario) == math.inf

    def test_nominal_benchmark_trace_keeps_margin(self, benchmark_run):
        scenario, trace, _, _ = benchmark_run
        margins = [
            regularity_margin(trace.c[k], trace.t[k], scenario) for k in range(0, len(trace), 20)
        ]
        # The reach row's coefficient norm approaches 2*r_r(t_f) = 1 at the
        # horizon, so the margin grazes 1.0 from above and only crosses in the
        # final milliseconds.
        assert min(margins) > 0.95


def test_barrier_values_order_and_content():
    values = barrier_values([0.0, 0.0], 0.0, BENCH)
    np.testing.assert_allclose(values, [5.25, 46.0, 25.0])


def outcome(solve):
    """solution_bits of what `solve` returns, INFEASIBLE for an infeasible QP
    however reported, or the type of the QP error it raises."""
    try:
        solution = solve()
    except (QpInfeasibleError, QpInputError, QpCertificationError) as exc:
        return INFEASIBLE if isinstance(exc, QpInfeasibleError) else type(exc)
    return INFEASIBLE if solution.status == INFEASIBLE else solution_bits(solution)


@st.composite
def cbf_qps(draw):
    """(cost, A, b): a strictly convex QP with m 1-3 inputs and d 0-7 rows, some
    of them nearly parallel, some scaled by 1e-155 or 1e152, some data
    non-finite, some polyhedra empty."""
    m, d = draw(st.integers(1, 3), label="m"), draw(st.integers(0, 7), label="d")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    L = rng.normal(size=(m, m))
    H, F = L.T @ L + 0.1 * np.eye(m), rng.normal(size=m)
    A = rng.normal(size=(d, m))
    b = A @ rng.uniform(-1.0, 1.0, size=m) - rng.uniform(-0.5, 2.0, size=d)
    for _ in range(draw(st.integers(0, 2), label="parallel pairs") if d > 1 else 0):
        i, j = rng.choice(d, size=2, replace=False)
        eps = 10.0 ** -draw(st.integers(4, 16), label="log10 angle")
        A[j], b[j] = A[i] + eps * rng.normal(size=m), b[i] + eps * rng.normal()
    for i in range(d):
        scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e-155, 1e152]), label=f"scale of row {i}")
        A[i], b[i] = scale * A[i], scale * b[i]
    if d and draw(st.integers(0, 9), label="non-finite") == 0:
        data = draw(st.sampled_from([A, b]), label="array")
        data.flat[draw(st.integers(0, data.size - 1), label="at")] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]), label="value")
    return qp._cost(H.shape, H.tobytes(), F.tobytes()), A.tolist(), b.tolist()


class TestCompiledPath:
    """virtual_control solves through solve_qp on the cost's compiled
    per-size functions, on the hint first, as the step loop's hinted call
    does: the outcome is bitwise that of the loop solver of tests/oracles.py."""

    @settings(max_examples=400, deadline=None)
    @given(problem=cbf_qps(), hint=st.lists(st.integers(-2, 8), max_size=5).map(tuple))
    def test_same_solution_as_solve_qp(self, problem, hint):
        # Hints may be empty, duplicated, out of range, larger than min(m, d),
        # skipped or failing; each gives the loop solver's answer.
        cost, A, b = problem
        kernel = compile_solver(cost, len(A))
        scenario = SimpleNamespace(qp_cost=cost)
        reference = outcome(lambda: loop_solve_qp(QpProblem(cost, None, A, b), hint))
        assert outcome(lambda: solve_qp(QpProblem(cost, None, A, b), hint)) == reference
        with mock.patch.object(virtual, "assemble_rows", lambda c, t, scenario: (A, b, [])):
            assert outcome(lambda: virtual_control(None, 0.0, scenario, hint)[1]) == reference
        working = next(qp._working_sets(len(cost.F), len(A), hint))  # the hint as solve_qp takes it
        compiled = kernel[len(working)](A, b, working)
        assert compiled is None or solution_bits(compiled) == reference
        if isinstance(reference, tuple) and reference[0] != INFEASIBLE:
            # The certified working set, as a hint, certifies in compiled code.
            support = reference[1]
            assert solution_bits(kernel[len(support)](A, b, support)) == reference

    def test_non_finite_rows_raise_through_the_fallback(self, monkeypatch):
        cost = BENCH.qp_cost
        kernel = compile_solver(cost, 2)
        scenario = SimpleNamespace(qp_cost=cost)
        for A, b in (([[1.0, math.nan], [0.0, 1.0]], [0.0, 0.0]), ([[1.0, 0.0], [0.0, 1.0]], [math.inf, 0.0])):
            assert kernel[1](A, b, (0,)) is None and kernel[0](A, b, ()) is None
            monkeypatch.setattr(virtual, "assemble_rows", lambda c, t, scenario: (A, b, []))
            with pytest.raises(QpInputError, match="finite"):
                virtual_control(None, 0.0, scenario, (0,))

    def test_invalid_hints_are_normalized_before_the_solve(self, monkeypatch):
        # The functions take only valid working sets, sorted and without
        # repeats. solve_qp, and so virtual_control, passes a hint through
        # _working_sets first: an invalid hint is dropped, and the
        # enumeration starts at the empty set.
        calls = recorded_calls(monkeypatch, qp)
        A, b, _ = assemble_rows([0.0, 0.0], 0.0, BENCH)
        for hint, first in (((), ()), ((5,), ()), ((-1,), ()), ((0, 1, 2), ()), ((2, 0, 2), (0, 2))):
            calls.clear()
            solve_qp(QpProblem(BENCH.qp_cost, None, A, b), hint)
            assert calls[0][2] == first, hint
        assert all(type(W) is tuple and list(W) == sorted(set(W)) and set(W) <= {0, 1, 2} and len(W) <= 2
                   for _, _, W in calls)
        calls.clear()
        u_c, solution, _ = virtual_control([0.0, 0.0], 0.0, BENCH, [2])  # any sequence is a hint
        assert calls == [(A, b, (2,))] and solution.support == (2,)

    def test_enumeration_calls_no_function_on_a_skipped_working_set(self, monkeypatch):
        # A working set that holds no row u0 = -v violates is skipped: no
        # size's function is called on it in a fallback's enumeration.
        scenario = load_scenario(CROWDED_3D).with_overrides(dt=1e-2)
        calls = recorded_calls(monkeypatch, qp)
        run(scenario, check=False)
        assert calls  # the run enumerates working sets on its fallbacks
        v = scenario.qp_cost.v
        for A, b, working in calls:
            assert not working or any(-dot(A[i], v) < b[i] for i in working), working

    @pytest.mark.usefixtures("fresh_solvers")
    def test_a_run_compiles_one_function_per_working_set_size(self, monkeypatch):
        # m = 2 and d = 3 allow 7 working sets, of sizes 0, 1 and 2: the first
        # run on the cost compiles min(m, d) + 1 = 3 functions, and a second
        # run on it compiles none.
        scenario = benchmark_scenario().with_overrides(dt=1e-2)
        compiled, real = [], qp._compile_size

        def counting(cost, d, size, certificate):
            compiled.append(size)
            return real(cost, d, size, certificate)

        monkeypatch.setattr(qp, "_compile_size", counting)
        hints = recorded_calls(monkeypatch, simulator)
        run(scenario, check=False)
        run(scenario.with_overrides(), check=False)
        assert compiled == [0, 1, 2]
        # The run's hints are the supports it certified, the first step's
        # empty set included: (0, 2) and (1, 2) share size 2's function.
        assert {W for _, _, W in hints} == {(), (2,), (0, 2), (1, 2)}


def recorded_calls(monkeypatch, module):
    """(A, b, W) of each call of a compile_solver function that `module`
    looks up from here on: qp for solve_qp's enumeration, simulator for the
    hinted call of the step loops compiled from here on."""
    calls = []

    def recording(solve):
        def call(A, b, W):
            calls.append((A, b, W))
            return solve(A, b, W)

        return call

    monkeypatch.setattr(module, "compile_solver", lambda cost, d: [recording(fn) for fn in compile_solver(cost, d)])
    return calls
