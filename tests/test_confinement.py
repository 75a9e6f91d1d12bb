"""Logarithmic-barrier confinement law: values, direction, continuity, clamp."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import small_error_slope
from vczsim.confinement import (
    ConfinementBreachError,
    ConfinementLaw,
    confinement_control,
    zeta,
)

LAW = ConfinementLaw(gain=1.0, r_c=0.5)


def control(x, c, law):
    """The law at state x and centre c: error x - c and its norm, as the simulator passes them."""
    e = np.asarray(x, dtype=float) - np.asarray(c, dtype=float)
    return confinement_control(e, float(np.linalg.norm(e)), law)


class TestZeta:
    def test_anchored_at_zero(self):
        assert zeta(0.0) == 0.0

    def test_half_error(self):
        assert zeta(0.5) == pytest.approx(math.log(3.0))

    def test_clamp_ceiling(self):
        # e_hat -> 1 cancels catastrophically, so the ceiling is only good to
        # ~1e-7 relative; the clamping identity itself is exact.
        value = zeta(1.0 - 1e-9, epsilon_sat=1e-9)
        assert value == pytest.approx(math.log(2e9 - 1.0), rel=1e-6)
        assert zeta(1.0, epsilon_sat=1e-9) == value
        assert zeta(5.0, epsilon_sat=1e-9) == value

    def test_rejects_negative_error(self):
        with pytest.raises(ValueError):
            zeta(-0.1)

    @given(st.floats(0.0, 0.999), st.floats(0.0, 0.999))
    def test_strictly_increasing_below_clamp(self, a, b):
        if a + 1e-9 < b:  # separated enough to resolve in double precision
            assert zeta(a) < zeta(b)


class TestConfinementControl:
    def test_zero_error_branch(self):
        u = control([1.0, 2.0], [1.0, 2.0], LAW)
        np.testing.assert_array_equal(u, [0.0, 0.0])

    def test_quarter_radius_error(self):
        u = control([0.25, 0.0], [0.0, 0.0], LAW)
        np.testing.assert_allclose(u, [-math.log(3.0), 0.0], rtol=1e-12)

    def test_negative_gain_flips_direction(self):
        law = ConfinementLaw(gain=-2.0, r_c=0.5)
        u = control([0.0, -0.25], [0.0, 0.0], law)
        np.testing.assert_allclose(u, [0.0, -2.0 * math.log(3.0)], rtol=1e-12)

    def test_magnitude_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            e = rng.standard_normal(2)
            e *= rng.uniform(0.01, 0.45) / np.linalg.norm(e)
            u = control(e, [0.0, 0.0], LAW)
            assert np.linalg.norm(u) == pytest.approx(
                abs(LAW.gain) * zeta(np.linalg.norm(e) / LAW.r_c), rel=1e-12
            )

    def test_breach_raises(self):
        with pytest.raises(ConfinementBreachError):
            control([0.5, 0.0], [0.0, 0.0], LAW)
        with pytest.raises(ConfinementBreachError):
            control([0.7, 0.0], [0.0, 0.0], LAW)

    def test_direction_property(self):
        rng = np.random.default_rng(4)
        for gain in (3.0, -3.0):
            law = ConfinementLaw(gain=gain, r_c=0.5)
            for _ in range(30):
                e = rng.standard_normal(2)
                e *= rng.uniform(0.05, 0.45) / np.linalg.norm(e)
                u = control(e, np.zeros(2), law)
                inner = float(u @ e)
                expected = -gain * zeta(np.linalg.norm(e) / 0.5) * np.linalg.norm(e)
                assert inner == pytest.approx(expected, rel=1e-12)
                assert (inner < 0) == (gain > 0)


class TestSmallErrorSlope:
    def test_slope_value(self):
        assert small_error_slope(LAW) == 4.0
        assert small_error_slope(ConfinementLaw(gain=-10.0, r_c=0.5)) == 40.0

    def test_series_bound_near_origin(self):
        law = ConfinementLaw(gain=10.0, r_c=0.5)
        u = control([1e-5, 0.0], [0.0, 0.0], law)
        assert np.linalg.norm(u) == pytest.approx(4e-4, rel=1e-6)
        assert np.linalg.norm(u) <= 1.01 * small_error_slope(law) * 1e-5

    def test_bound_over_small_error_ball(self):
        rng = np.random.default_rng(9)
        law = ConfinementLaw(gain=7.0, r_c=0.8)
        for _ in range(50):
            e = rng.standard_normal(2)
            e *= rng.uniform(0.0, 1e-3 * law.r_c) / np.linalg.norm(e)
            u = control(e, np.zeros(2), law)
            assert np.linalg.norm(u) <= 1.01 * small_error_slope(law) * np.linalg.norm(e) + 1e-15

    def test_continuity_ratio_converges(self):
        law = ConfinementLaw(gain=10.0, r_c=0.5)
        slope = small_error_slope(law)
        rng = np.random.default_rng(10)
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        ratios = []
        for scale in (1e-2, 1e-4, 1e-6, 1e-8):
            e = direction * scale * law.r_c
            ratios.append(np.linalg.norm(control(e, np.zeros(2), law)) / np.linalg.norm(e))
        errors = [abs(r - slope) / slope for r in ratios]
        assert errors[0] > errors[-1]  # later samples hit the roundoff floor
        assert errors[-1] <= 0.01


class TestBarrierProperty:
    def test_norm_grows_monotonically_to_clamp(self):
        e_hats = np.linspace(0.01, 1.0 - 1e-9, 200)
        norms = [abs(LAW.gain) * zeta(e, LAW.epsilon_sat) for e in e_hats]
        assert all(a < b for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= abs(LAW.gain) * zeta(1.0 - LAW.epsilon_sat, LAW.epsilon_sat)


class TestLawValidation:
    def test_rejects_zero_gain(self):
        with pytest.raises(ValueError):
            ConfinementLaw(gain=0.0, r_c=0.5)

    @pytest.mark.parametrize(
        "gain, r_c",
        [(math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)],
        ids=["gain-nan", "gain-inf", "gain-minus-inf", "radius-nan", "radius-inf"],
    )
    def test_rejects_non_finite_gain_or_radius(self, gain, r_c):
        with pytest.raises(ValueError):
            ConfinementLaw(gain, r_c)

    def test_rejects_bad_radius_or_clamp(self):
        with pytest.raises(ValueError):
            ConfinementLaw(gain=1.0, r_c=0.0)
        with pytest.raises(ValueError):
            ConfinementLaw(gain=1.0, r_c=0.5, epsilon_sat=1.5)
