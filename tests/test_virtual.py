"""Constraint-row assembly and the stacked CBF-QP controller."""

import math

import numpy as np
import pytest

from oracles import barrier_values, brute_force_qp
from vczsim.barriers import ClassKappa, Obstacle, ShrinkSchedule, TargetSet, eval_avoidance, eval_reach
from vczsim.confinement import ConfinementLaw
from vczsim.plant import catalog_plant
from vczsim.qp import QpProblem
from vczsim.scenario import Scenario, uniform_alphas
from vczsim.scenario_io import benchmark_scenario
from vczsim.virtual import (
    QpInfeasibleError,
    assemble_rows,
    virtual_control,
)


def make_scenario(obstacles, shrink, target=None, r_c=0.5, alphas=None):
    target = target or TargetSet([10.0, 10.0], 1.1)
    d = len(obstacles) + 1
    return Scenario(
        plant=catalog_plant("integrator", 2),
        obstacles=tuple(obstacles),
        target=target,
        r_c=r_c,
        t_f=shrink.t_f,
        x0=np.zeros(2),
        shrink=shrink,
        alphas=alphas or uniform_alphas(d),
        qp_h=np.eye(2),
        qp_f=np.zeros(2),
        confinement=ConfinementLaw(10.0, r_c),
        dt=1e-3,
    )


BENCH = benchmark_scenario()


def regularity_margin(c, t: float, scenario: Scenario) -> float:
    """Smallest input-coefficient norm among rows near their barrier boundary.

    Rows with |h| >= the configured regularity band are ignored; +inf when no
    row is in the band.
    """
    margin = math.inf
    A, _, h = assemble_rows(c, t, scenario)
    for a_j, h_j in zip(A, h):
        if abs(h_j) < scenario.regularity_band:
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

