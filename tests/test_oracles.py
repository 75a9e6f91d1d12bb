"""Finite-difference and sampling oracles."""

import numpy as np
import pytest

from oracles import FdConfig, fd_gradient, sphere_sample
from vczsim.barriers import Obstacle, ShrinkSchedule, eval_avoidance, eval_reach

SCHEDULE = ShrinkSchedule(15.0, 0.5, 10.0)


class TestFdGradient:
    def test_avoidance_example_point(self):
        obs = Obstacle.static([1.5, 2.0], 0.5)
        grad, dt = fd_gradient(lambda c, t: eval_avoidance(c, t, obs, 0.5).value, [0.0, 0.0], 0.0)
        np.testing.assert_allclose(grad, [-3.0, -4.0], atol=1e-6)
        assert dt == pytest.approx(0.0, abs=1e-8)

    def test_reach_symmetry_point(self):
        grad, _ = fd_gradient(
            lambda c, t: eval_reach(c, t, [10.0, 10.0], SCHEDULE).value, [10.0, 10.0], 5.0
        )
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-6)

    def test_reach_time_partial(self):
        _, dt = fd_gradient(
            lambda c, t: eval_reach(c, t, [10.0, 10.0], SCHEDULE).value, [0.0, 0.0], 0.0,
            FdConfig(step=1e-7),
        )
        assert dt == pytest.approx(-43.5, abs=1e-4)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            FdConfig(step=0.0)


class TestSphereSample:
    def test_single_point_distance(self):
        pts = sphere_sample([1.0, 2.0], 0.7, 1, seed=5)
        assert pts.shape == (1, 2)
        assert np.linalg.norm(pts[0] - [1.0, 2.0]) == pytest.approx(0.7, abs=1e-12)

    def test_distinct_points_on_circle(self):
        pts = sphere_sample([0.0, 0.0], 1.0, 64, seed=1)
        assert pts.shape == (64, 2)
        radii = np.linalg.norm(pts, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)
        assert len({tuple(p) for p in np.round(pts, 12)}) == 64

    def test_mean_concentrates_at_center(self):
        pts = sphere_sample([3.0, -1.0], 2.0, 10_000, seed=2)
        assert np.linalg.norm(pts.mean(axis=0) - [3.0, -1.0]) <= 0.05 * 2.0

    def test_seed_reproducibility(self):
        a = sphere_sample([0.0, 0.0], 1.0, 16, seed=9)
        b = sphere_sample([0.0, 0.0], 1.0, 16, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sphere_sample([0.0, 0.0], 0.0, 4, seed=0)
        with pytest.raises(ValueError):
            sphere_sample([0.0, 0.0], 1.0, 0, seed=0)
