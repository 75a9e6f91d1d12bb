"""Scenario validation checks and set-geometry helpers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import sphere_sample
from vczsim.barriers import Obstacle, ShrinkSchedule, TargetSet
from vczsim.confinement import ConfinementLaw
from vczsim.plant import catalog_plant
from vczsim.scenario import (
    Scenario,
    uniform_alphas,
    validate,
)
from vczsim.scenario_io import benchmark_scenario

BENCH = benchmark_scenario()


def tightened_unsafe_distance(c, t: float, scenario: Scenario) -> float:
    """Distance of the center to the nearest r_c-inflated obstacle boundary.

    Nonnegative iff c lies outside the tightened unsafe set; +inf with no
    obstacles.
    """
    c = np.asarray(c, dtype=float)
    dist = math.inf
    for obs in scenario.obstacles:
        dist = min(
            dist, float(np.linalg.norm(c - obs.center(t))) - (obs.radius + scenario.r_c)
        )
    return dist


def sphere_containment_violations(
    c, t: float, scenario: Scenario, count: int = 64, seed: int = 0, shrink_factor: float = 1e-9
) -> int:
    """Count sampled points of the confinement sphere that fall inside a true obstacle.

    Samples the sphere of radius r_c(1 - shrink_factor) about c; zero
    violations witnesses that center-level safety transfers to every point
    the true state can occupy.
    """
    pts = sphere_sample(c, scenario.r_c * (1.0 - shrink_factor), count, seed)
    violations = 0
    for obs in scenario.obstacles:
        d = np.linalg.norm(pts - obs.center(t), axis=1)
        violations += int(np.sum(d < obs.radius))
    return violations


def simple_scenario(obstacles, x0=(0.0, 0.0), r_c=0.5, target=None, shrink=None):
    target = target or TargetSet([10.0, 10.0], 1.1)
    shrink = shrink or ShrinkSchedule(max(15.0, float(np.linalg.norm(np.asarray(x0) - target.center)) + 1), 0.5, 10.0)
    return Scenario(
        plant=catalog_plant("integrator", 2),
        obstacles=tuple(obstacles),
        target=target,
        x0=np.asarray(x0, dtype=float),
        shrink=shrink,
        alphas=uniform_alphas(len(obstacles) + 1),
        qp_h=np.eye(2),
        qp_f=np.zeros(2),
        confinement=ConfinementLaw(10.0, r_c),
        dt=1e-3,
    )


class TestValidate:
    def test_benchmark_passes_with_expected_margins(self):
        report = validate(BENCH, 1001)
        assert report.all_passed
        assert report.check("V2").worst_margin == pytest.approx(math.sqrt(82.0) - 2.6)
        assert report.check("V3").worst_margin == pytest.approx(1.5)
        assert report.check("V4").worst_margin == pytest.approx(0.1)

    def test_boundary_separation_margin_zero(self):
        # distance exactly 2 r_c + r_1 + r_2 = 2.0
        obstacles = [Obstacle.static([4.0, 6.0], 0.5), Obstacle.static([6.0, 6.0], 0.5)]
        report = validate(simple_scenario(obstacles), 101)
        v1 = report.check("V1")
        assert v1.passed
        assert v1.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_initial_state_inside_obstacle_fails_v3(self):
        report = validate(simple_scenario([Obstacle.static([0.2, 0.0], 0.5)]), 101)
        v3 = report.check("V3")
        assert not v3.passed and v3.worst_margin < 0
        assert not report.all_passed

    def test_radius_ordering_fails_v4(self):
        bad = simple_scenario([], r_c=1.2)  # r_c >= r_R = 1.1
        report = validate(bad, 101)
        assert not report.check("V4").passed

    def test_moving_obstacle_separation_tracked_over_time(self):
        # converging obstacles violate separation only late in the horizon
        obstacles = [
            Obstacle.linear([3.0, 6.0], [0.3, 0.0], 0.5),
            Obstacle.linear([9.0, 6.0], [-0.3, 0.0], 0.5),
        ]
        report = validate(simple_scenario(obstacles), 201)
        v1 = report.check("V1")
        assert not v1.passed
        assert v1.worst_time == pytest.approx(10.0)

    def test_determinism(self):
        a = validate(BENCH, 501)
        b = validate(BENCH, 501)
        assert a == b

    def test_rejects_tiny_time_grid(self):
        with pytest.raises(ValueError):
            validate(BENCH, 1)


class TestTightenedUnsafeDistance:
    def test_benchmark_start(self):
        assert tightened_unsafe_distance([0.0, 0.0], 0.0, BENCH) == pytest.approx(1.5)

    def test_boundary_is_zero(self):
        assert tightened_unsafe_distance([2.5, 2.0], 0.0, BENCH) == pytest.approx(0.0, abs=1e-12)

    def test_no_obstacles_is_infinite(self):
        assert tightened_unsafe_distance([0.0, 0.0], 0.0, simple_scenario([])) == math.inf


class TestContainmentImplication:
    def test_safe_centers_contain_safe_spheres(self):
        # any center outside the tightened set keeps the whole sphere outside
        # the true obstacles (triangle inequality made concrete)
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 50:
            c = rng.uniform(-2.0, 12.0, size=2)
            t = float(rng.uniform(0.0, 10.0))
            if tightened_unsafe_distance(c, t, BENCH) < 0.0:
                continue
            assert sphere_containment_violations(c, t, BENCH, count=64, seed=checked) == 0
            checked += 1

    def test_unsafe_center_is_detected(self):
        c = BENCH.obstacles[0].center(0.0)  # dead center of the static obstacle
        assert sphere_containment_violations(c, 0.0, BENCH, count=64, seed=0) > 0


class TestScenarioConstruction:
    def test_rejects_gain_sign_mismatch(self):
        with pytest.raises(ValueError):
            replace(BENCH, confinement=ConfinementLaw(-10.0, 0.5))

    def test_rejects_wrong_alpha_count(self):
        with pytest.raises(ValueError):
            replace(BENCH, alphas=uniform_alphas(2))

    @pytest.mark.parametrize(
        "field, value",
        [("qp_h", np.eye(3)), ("qp_h", np.ones(2)), ("qp_f", np.zeros(3)), ("dt", math.inf)],
        ids=["qp_h-3x3", "qp_h-vector", "qp_f-length", "dt-inf"],
    )
    def test_rejects_cost_or_step_of_wrong_shape_or_range(self, field, value):
        with pytest.raises(ValueError):
            replace(BENCH, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("x0", [math.nan, 0.0]), ("x0", [0.0, math.inf])],
        ids=["x0-nan", "x0-inf"],
    )
    def test_rejects_non_finite_radius_or_start(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            replace(BENCH, **{field: value})

    def test_radius_and_horizon_are_stated_once(self):
        assert (BENCH.r_c, BENCH.t_f) == (BENCH.confinement.r_c, BENCH.shrink.t_f)
        for setting in ({"r_c": 0.4}, {"t_f": 9.0}, {"invariance_tol": 1e-2}, {"clearance_tol": 0.0}):
            with pytest.raises(TypeError):
                replace(BENCH, **setting)

    def test_with_overrides_keeps_shrink_consistent(self):
        shorter = BENCH.with_overrides(t_f=5.0)
        assert shorter.shrink.t_f == 5.0
        assert shorter.shrink.r_start == BENCH.shrink.r_start
