"""Barrier evaluations against hand arithmetic and finite differences."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import fd_gradient
from vczsim.barriers import (
    ClassKappa,
    Obstacle,
    ShrinkSchedule,
    TargetSet,
    TimeDomainError,
    eval_avoidance,
    eval_reach,
)
from vczsim.scenario_io import load_scenario, parse_scenario

SCHEDULE = ShrinkSchedule(15.0, 0.5, 10.0)
STATIC_OBS = Obstacle.static([1.5, 2.0], 0.5)
MOVING_OBS = Obstacle.linear([5.0, 5.0], [0.4, -0.4], 1.5)


def velocity_consistency_error(obstacle: Obstacle, times, fd_step: float = 1e-4) -> float:
    """Worst relative mismatch between velocity_path and differenced center_path."""
    worst = 0.0
    for t in times:
        fd = (obstacle.center(t + fd_step) - obstacle.center(t - fd_step)) / (2 * fd_step)
        v = obstacle.velocity(t)
        err = float(np.linalg.norm(fd - v)) / max(1.0, float(np.linalg.norm(v)))
        worst = max(worst, err)
    return worst


class TestShrinkSchedule:
    def test_endpoints(self):
        assert SCHEDULE.radius_at(0.0) == 15.0
        assert SCHEDULE.radius_at(10.0) == 0.5

    def test_midpoint_and_rate(self):
        assert SCHEDULE.radius_at(5.0) == pytest.approx(7.75)
        assert SCHEDULE.rate_of() == pytest.approx(-1.45)

    def test_rejects_time_outside_horizon(self):
        with pytest.raises(TimeDomainError):
            SCHEDULE.radius_at(-1.0)
        with pytest.raises(TimeDomainError):
            SCHEDULE.radius_at(11.0)

    def test_tolerates_endpoint_roundoff(self):
        assert SCHEDULE.radius_at(10.0 + 1e-12) == pytest.approx(0.5)

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            ShrinkSchedule(1.0, 2.0, 10.0)
        with pytest.raises(ValueError):
            ShrinkSchedule(2.0, 0.0, 10.0)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_monotone_nonincreasing(self, t1, t2):
        t1, t2 = min(t1, t2), max(t1, t2)
        assert SCHEDULE.radius_at(t1) >= SCHEDULE.radius_at(t2)


class TestAvoidance:
    def test_static_obstacle_value_and_gradient(self):
        ev = eval_avoidance([0.0, 0.0], 0.0, STATIC_OBS, 0.5)
        assert ev.value == pytest.approx(5.25)
        np.testing.assert_allclose(ev.grad_c, [-3.0, -4.0])
        assert ev.dt == 0.0

    def test_boundary_point(self):
        ev = eval_avoidance([2.5, 2.0], 0.0, STATIC_OBS, 0.5)
        assert ev.value == pytest.approx(0.0, abs=1e-12)

    def test_moving_obstacle(self):
        ev = eval_avoidance([0.0, 0.0], 0.0, MOVING_OBS, 0.5)
        assert ev.value == pytest.approx(46.0)
        np.testing.assert_allclose(ev.grad_c, [-10.0, -10.0])
        assert ev.dt == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_confinement_radius(self):
        with pytest.raises(ValueError):
            eval_avoidance([0.0, 0.0], 0.0, STATIC_OBS, 0.0)


class TestReach:
    def test_initial_point(self):
        ev = eval_reach([0.0, 0.0], 0.0, [10.0, 10.0], SCHEDULE)
        assert ev.value == pytest.approx(25.0)
        np.testing.assert_allclose(ev.grad_c, [20.0, 20.0])
        assert ev.dt == pytest.approx(-43.5)

    def test_center_symmetry(self):
        for t in (0.0, 4.0, 10.0):
            ev = eval_reach([10.0, 10.0], t, [10.0, 10.0], SCHEDULE)
            assert ev.value == pytest.approx(SCHEDULE.radius_at(t) ** 2)
            np.testing.assert_allclose(ev.grad_c, [0.0, 0.0])

    def test_boundary_point(self):
        r = SCHEDULE.radius_at(4.0)
        ev = eval_reach([10.0 + r, 10.0], 4.0, [10.0, 10.0], SCHEDULE)
        assert ev.value == pytest.approx(0.0, abs=1e-12)


class TestClassKappa:
    def test_identity_slope(self):
        assert ClassKappa(1.0)(5.25) == 5.25

    def test_linearity_and_sign(self):
        assert ClassKappa(2.0)(-1.0) == -2.0
        assert ClassKappa(1.0)(0.0) == 0.0

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError):
            ClassKappa(0.0)

    def test_rejects_nan_slope(self):
        with pytest.raises(ValueError):
            ClassKappa(float("nan"))

    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_strictly_increasing(self, h1, h2):
        kappa = ClassKappa(0.7)
        if h1 < h2:
            assert kappa(h1) < kappa(h2)


class TestGradientConsistency:
    def test_avoidance_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = rng.uniform(-2.0, 12.0, size=2)
            t = float(rng.uniform(0.0, 10.0))
            obs = MOVING_OBS if rng.random() < 0.5 else STATIC_OBS
            ev = eval_avoidance(c, t, obs, 0.5)
            grad_fd, dt_fd = fd_gradient(
                lambda p, s: eval_avoidance(p, s, obs, 0.5).value, c, t
            )
            assert np.linalg.norm(grad_fd - ev.grad_c) <= 1e-5 * max(1.0, np.linalg.norm(ev.grad_c))
            assert abs(dt_fd - ev.dt) <= 1e-5 * max(1.0, abs(ev.dt))

    def test_reach_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = rng.uniform(-2.0, 12.0, size=2)
            t = float(rng.uniform(0.1, 9.9))
            ev = eval_reach(c, t, [10.0, 10.0], SCHEDULE)
            grad_fd, dt_fd = fd_gradient(
                lambda p, s: eval_reach(p, s, [10.0, 10.0], SCHEDULE).value, c, t
            )
            assert np.linalg.norm(grad_fd - ev.grad_c) <= 1e-5 * max(1.0, np.linalg.norm(ev.grad_c))
            assert abs(dt_fd - ev.dt) <= 1e-5 * max(1.0, abs(ev.dt))


class TestSignSemantics:
    def test_avoidance_sign_encodes_membership(self):
        rng = np.random.default_rng(7)
        inflated = STATIC_OBS.radius + 0.5
        center = STATIC_OBS.center(0.0)
        for _ in range(50):
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            inside = center + direction * inflated * rng.uniform(0.05, 0.95)
            outside = center + direction * inflated * rng.uniform(1.05, 3.0)
            boundary = center + direction * inflated
            assert eval_avoidance(inside, 0.0, STATIC_OBS, 0.5).value < 0
            assert eval_avoidance(outside, 0.0, STATIC_OBS, 0.5).value > 0
            assert eval_avoidance(boundary, 0.0, STATIC_OBS, 0.5).value == pytest.approx(0.0, abs=1e-9)

    def test_reach_sign_encodes_membership(self):
        rng = np.random.default_rng(8)
        target = np.array([10.0, 10.0])
        for _ in range(50):
            t = float(rng.uniform(0.0, 10.0))
            r = SCHEDULE.radius_at(t)
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            inside = target + direction * r * rng.uniform(0.0, 0.95)
            outside = target + direction * r * rng.uniform(1.05, 2.0)
            assert eval_reach(inside, t, target, SCHEDULE).value > 0
            assert eval_reach(outside, t, target, SCHEDULE).value < 0


class TestObstaclePaths:
    def test_static_velocity_is_zero(self):
        np.testing.assert_array_equal(STATIC_OBS.velocity(3.7), [0.0, 0.0])

    def test_linear_velocity_is_constant(self):
        np.testing.assert_allclose(MOVING_OBS.velocity(8.2), [0.4, -0.4])
        np.testing.assert_allclose(MOVING_OBS.center(5.0), [7.0, 3.0])
        np.testing.assert_allclose(MOVING_OBS.center(10.0), [9.0, 1.0])

    def test_custom_velocity_matches_path_derivative(self):
        obs = Obstacle.custom(lambda t: np.array([np.sin(t), np.cos(2 * t)]), 0.4)
        np.testing.assert_allclose(obs.velocity(1.2), [np.cos(1.2), -2 * np.sin(2.4)], rtol=1e-8)

    @pytest.mark.parametrize("obs", [STATIC_OBS, MOVING_OBS])
    def test_velocity_consistency_invariant(self, obs):
        assert velocity_consistency_error(obs, np.linspace(0, 10, 21)) <= 1e-6

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Obstacle.static([0.0, 0.0], 0.0)

    def test_rejects_nan_radius(self):
        with pytest.raises(ValueError):
            Obstacle.static([0.0, 0.0], float("nan"))


CROWDED_3D = Path(__file__).resolve().parents[1] / "bench" / "scenarios" / "crowded_3d.scn"
CROWDED_PATHS = [obs for obs in load_scenario(CROWDED_3D).obstacles if obs.kind == "custom"]

# A path with a constant component: (+ 5) is a float for any t.
CONSTANT_COMPONENT_TEXT = """
[plant]
catalog = integrator

[obstacle]
path = (+ 5) (* 0.4 t)
radius = 0.4

[target]
center = 10.0 0.0
radius = 1.2

[vcz]
r_c = 0.3

[horizon]
t_f = 10.0
dt = 0.01

[shrink]
r_start = 11.0
r_end = 0.8

[controller]
gain = 10.0

[initial_state]
x0 = 0.0 0.0
"""


class TestObstacleCenters:
    """centers(ts) is bitwise the per-sample center(t), stacked by row."""

    TIMES = np.linspace(0.0, 10.0, 1001)

    @staticmethod
    def per_sample(obs, ts):
        return np.array([obs.center(t) for t in ts])

    @pytest.mark.parametrize(
        "obs",
        [STATIC_OBS, MOVING_OBS, *CROWDED_PATHS],
        ids=["static", "linear", "crowded_path_1", "crowded_path_2"],
    )
    def test_matches_per_sample_center(self, obs):
        centers = obs.centers(self.TIMES)
        assert centers.shape == (len(self.TIMES), obs.center(0.0).size)
        assert np.array_equal(centers, self.per_sample(obs, self.TIMES))

    def test_crowded_scenario_has_two_path_obstacles(self):
        assert len(CROWDED_PATHS) == 2
        assert all(obs.centers_path is not None for obs in CROWDED_PATHS)

    def test_constant_path_component_is_broadcast(self):
        (obs,) = parse_scenario(CONSTANT_COMPONENT_TEXT).obstacles
        centers = obs.centers(self.TIMES)
        assert np.array_equal(centers, self.per_sample(obs, self.TIMES))
        assert np.all(centers[:, 0] == 5.0)

    def test_plain_callable_path_is_sampled(self):
        obs = Obstacle.custom(lambda t: np.array([np.sin(t), np.cos(2 * t)]), 0.4)
        assert obs.centers_path is None
        assert np.array_equal(obs.centers(self.TIMES), self.per_sample(obs, self.TIMES))

    @pytest.mark.parametrize("obs", [STATIC_OBS, MOVING_OBS, *CROWDED_PATHS])
    def test_single_time(self, obs):
        ts = np.array([3.7])
        assert np.array_equal(obs.centers(ts), self.per_sample(obs, ts))

    def test_does_not_write_into_times(self):
        ts = self.TIMES.copy()
        for obs in CROWDED_PATHS:
            obs.centers(ts)
        assert np.array_equal(ts, self.TIMES)


def test_target_set_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        TargetSet([0.0, 0.0], -1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TargetSet([0.0, 0.0], math.nan),
        lambda: TargetSet([0.0, 0.0], math.inf),
        lambda: TargetSet([math.nan, 0.0], 1.0),
        lambda: TargetSet([0.0, -math.inf], 1.0),
        lambda: ShrinkSchedule(2.0, 1.0, math.nan),
        lambda: ShrinkSchedule(math.nan, 1.0, 10.0),
        lambda: ShrinkSchedule(math.inf, 1.0, 10.0),
        lambda: ShrinkSchedule(2.0, math.nan, 10.0),
        lambda: Obstacle.static([0.0, 0.0], math.inf),
        lambda: ClassKappa(math.inf),
    ],
    ids=["target-radius-nan", "target-radius-inf", "target-center-nan", "target-center-inf",
         "shrink-horizon-nan", "shrink-start-nan", "shrink-start-inf", "shrink-end-nan",
         "obstacle-radius-inf", "slope-inf"],
)
def test_rejects_non_finite_geometry(make):
    # The compiled rows take these numbers as constants, once per scenario.
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("kind", ["static", "linear"])
def test_static_and_linear_obstacles_need_their_floats(kind):
    with pytest.raises(ValueError, match="needs its point and rate"):
        Obstacle(lambda t: (0.0, 0.0), lambda t: (0.0, 0.0), 1.0, kind)
