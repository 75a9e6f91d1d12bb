"""Constraint-row assembly and the stacked CBF-QP controller."""

import math

import numpy as np
import pytest

from oracles import barrier_values, brute_force_qp, difference_quotient_bound
from vczsim.barriers import ClassKappa, Obstacle, ShrinkSchedule, TargetSet
from vczsim.confinement import ConfinementLaw
from vczsim.plant import integrator_plant
from vczsim.qp import QpProblem
from vczsim.scenario import Scenario, benchmark_scenario, uniform_alphas
from vczsim.virtual import (
    QpInfeasibleError,
    VirtualSystem,
    assemble_rows,
    virtual_control,
)


def make_scenario(obstacles, shrink, target=None, r_c=0.5, virtual_system=None, alphas=None):
    target = target or TargetSet([10.0, 10.0], 1.1)
    d = len(obstacles) + 1
    return Scenario(
        plant=integrator_plant(2),
        obstacles=tuple(obstacles),
        target=target,
        r_c=r_c,
        t_f=shrink.t_f,
        x0=np.zeros(2),
        shrink=shrink,
        virtual_system=virtual_system or VirtualSystem.single_integrator(2),
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
    for row in assemble_rows(c, t, scenario):
        if abs(row.h) < scenario.regularity_band:
            margin = min(margin, float(np.linalg.norm(row.a)))
    return margin


class TestAssembleRows:
    def test_static_obstacle_row(self):
        scenario = make_scenario([Obstacle.static([1.5, 2.0], 0.5)], ShrinkSchedule(15.0, 0.5, 10.0))
        row = assemble_rows([0.0, 0.0], 0.0, scenario)[0]
        np.testing.assert_allclose(row.a, [-3.0, -4.0])
        assert row.rho == pytest.approx(-5.25)
        assert row.source == 0

    def test_reach_row(self):
        scenario = make_scenario([], ShrinkSchedule(15.0, 0.5, 10.0))
        row = assemble_rows([0.0, 0.0], 0.0, scenario)[-1]
        np.testing.assert_allclose(row.a, [20.0, 20.0])
        assert row.rho == pytest.approx(18.5)
        assert row.source == 0  # only row in an obstacle-free scenario

    def test_boundary_row_has_zero_rhs(self):
        scenario = make_scenario([Obstacle.static([1.5, 2.0], 0.5)], ShrinkSchedule(15.0, 0.5, 10.0))
        row = assemble_rows([2.5, 2.0], 0.0, scenario)[0]
        assert row.rho == pytest.approx(0.0, abs=1e-12)

    def test_row_order_obstacles_then_reach(self):
        rows = assemble_rows([0.0, 0.0], 0.0, BENCH)
        assert [r.source for r in rows] == [0, 1, 2]
        np.testing.assert_allclose(rows[1].a, [-10.0, -10.0])
        assert rows[1].rho == pytest.approx(-46.0)

    def test_row_equivalence_with_direct_substitution(self):
        # a'u - rho must equal grad_h'(f_c + g_c u) + dh/dt + gamma(h) identically.
        drift_map = np.array([[0.1, -0.05], [0.02, 0.08]])
        g_c = np.array([[1.0, 0.2], [0.0, 0.8]])
        vs = VirtualSystem(lambda c: drift_map @ c, lambda c: g_c, 2, 2)
        scenario = make_scenario(
            [Obstacle.linear([5.0, 5.0], [0.4, -0.4], 1.5)],
            ShrinkSchedule(15.0, 0.5, 10.0),
            virtual_system=vs,
            alphas=(ClassKappa(1.3), ClassKappa(0.7)),
        )
        from vczsim.virtual import barrier_evals

        rng = np.random.default_rng(12)
        for _ in range(100):
            c = rng.uniform(-2.0, 12.0, size=2)
            t = float(rng.uniform(0.0, 10.0))
            rows = assemble_rows(c, t, scenario)
            evals = barrier_evals(c, t, scenario)
            for row, ev, alpha in zip(rows, evals, scenario.alphas):
                for _ in range(20):
                    u = rng.normal(size=2)
                    lhs = row.a @ u - row.rho
                    hdot = ev.grad_c @ (drift_map @ c + g_c @ u) + ev.dt
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
        rows = assemble_rows([0.0, 0.0], 0.0, BENCH)
        problem = QpProblem(
            BENCH.qp_h, BENCH.qp_f, np.array([r.a for r in rows]), np.array([r.rho for r in rows])
        )
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


def test_virtual_system_lipschitz_spot_check():
    drift_map = np.array([[0.1, -0.05], [0.02, 0.08]])
    vs = VirtualSystem(lambda c: drift_map @ c, lambda c: np.eye(2), 2, 2)
    bound = difference_quotient_bound(vs.drift, [-5.0, -5.0], [25.0, 25.0], 500, 3)
    assert bound <= np.linalg.norm(drift_map, 2) + 1e-9
