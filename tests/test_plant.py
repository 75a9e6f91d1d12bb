"""Plant models: derivative assembly, catalog instances, assumption spot checks."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import difference_quotient_bound
from vczsim.plant import (
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    PlantModel,
    catalog_plant,
    expression_plant,
    plant_derivative,
    sign_class_margin,
)
from vczsim.randomized import random_scenario
from vczsim.scenario import workspace_box


class TestPlantDerivative:
    def test_benchmark_drift_plus_disturbance(self):
        model = catalog_plant("benchmark")
        np.testing.assert_allclose(
            plant_derivative(model, [0.0, 0.0], [0.0, 0.0], 0.0), [0.4, 5.0]
        )

    def test_benchmark_with_input(self):
        model = catalog_plant("benchmark")
        np.testing.assert_allclose(
            plant_derivative(model, [0.0, 0.0], [1.0, 1.0], 0.0), [1.2, 5.5]
        )

    def test_drift_only(self):
        model = catalog_plant("integrator", 2)
        np.testing.assert_array_equal(
            plant_derivative(model, [3.0, -1.0], [0.0, 0.0], 7.0), [0.0, 0.0]
        )

    def test_rejects_dimension_mismatch(self):
        model = catalog_plant("benchmark")
        with pytest.raises(ValueError):
            plant_derivative(model, [0.0, 0.0, 0.0], [0.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            plant_derivative(model, [0.0, 0.0], [0.0], 0.0)

    @pytest.mark.parametrize(
        "drift, input_map, disturbance, shapes",
        [
            (lambda x: [0.0], lambda x: np.eye(2), lambda t: [0.0, 0.0], "[(1,), (2, 2), (2,)]"),
            (lambda x: [0.0, 0.0], lambda x: [1.0, 1.0], lambda t: [0.0, 0.0], "[(2,), (2,), (2,)]"),
            (lambda x: [0.0, 0.0], lambda x: np.eye(2), lambda t: [0.0, 0.0, 0.0], "[(2,), (2, 2), (3,)]"),
        ],
        ids=["f-short", "g-vector", "omega-long"],
    )
    def test_check_shapes_rejects_a_wrongly_shaped_callable_plant(self, drift, input_map, disturbance, shapes):
        model = PlantModel(drift, input_map, disturbance, POSITIVE_DEFINITE, 2)
        with pytest.raises(ValueError) as exc_info:
            model.check_shapes([0.0, 0.0], 0.0)
        assert str(exc_info.value) == f"plant maps f, g, omega must have shapes (2,), (2, 2), (2,); got {shapes}"


class TestBenchmarkPlant:
    def test_input_map_is_constant_diagonal(self):
        model = catalog_plant("benchmark")
        for x in ([0.0, 0.0], [3.0, -2.0], [11.0, 7.0]):
            np.testing.assert_array_equal(model.input_map(np.array(x)), np.diag([0.8, 0.5]))

    def test_disturbance_rotation(self):
        model = catalog_plant("benchmark")
        np.testing.assert_allclose(model.disturbance(math.pi / 2), [0.0, 0.4], atol=1e-15)

    def test_drift_at_origin(self):
        model = catalog_plant("benchmark")
        np.testing.assert_allclose(model.drift(np.zeros(2)), [0.0, 5.0])

    def test_sign_class_margin(self):
        model = catalog_plant("benchmark")
        margin = sign_class_margin(model, [-2.0, -2.0], [12.0, 12.0], 100, 0)
        assert margin == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", [2024, 2025, 2026, 2027])
    def test_sign_class_margin_is_the_per_sample_minimum(self, seed):
        # One batched draw and eigvalsh give the bits of a draw and an eigvalsh per sample.
        scenario = random_scenario(seed)
        lo, hi = workspace_box(scenario)
        model, rng, margins = scenario.plant, np.random.default_rng(scenario.seed), []
        for _ in range(100):
            g = np.asarray(model.input_map(rng.uniform(lo, hi)), dtype=float)
            eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
            margins.append(eigs.min() if model.sign_class == POSITIVE_DEFINITE else -eigs.max())
        assert sign_class_margin(model, lo, hi, 100, scenario.seed) == min(margins)

    def test_lipschitz_spot_check(self):
        model = catalog_plant("benchmark")
        bound = difference_quotient_bound(model.drift, [-2.0, -2.0], [12.0, 12.0], 1000, 1)
        assert math.isfinite(bound)
        # |d f / dx| <= 5 * |x| * sqrt(2) over the box, so quotients stay modest
        assert bound <= 5.0 * 12.0 * 2.0


class TestCatalogAndExpressions:
    def test_catalog_lookup(self):
        assert catalog_plant("benchmark").n == 2
        assert catalog_plant("integrator", 3).n == 3
        assert catalog_plant("integrator", 3).descriptor == ("catalog", "integrator")
        with pytest.raises(ValueError):
            catalog_plant("unknown")

    def test_expression_plant_rejects_wrong_variables(self):
        with pytest.raises(ValueError):
            expression_plant(["t"], [["1"]], ["0"], POSITIVE_DEFINITE)
        with pytest.raises(ValueError):
            expression_plant(["x1"], [["1"]], ["x1"], POSITIVE_DEFINITE)

    def test_negative_definite_margin(self):
        model = PlantModel(
            lambda x: np.zeros(2),
            lambda x: -np.eye(2),
            lambda t: np.zeros(2),
            NEGATIVE_DEFINITE,
            2,
        )
        assert sign_class_margin(model, [-1, -1], [1, 1], 50, 0) == pytest.approx(1.0)

    def test_wrong_sign_class_gives_negative_margin(self):
        model = PlantModel(
            lambda x: np.zeros(2),
            lambda x: -np.eye(2),
            lambda t: np.zeros(2),
            POSITIVE_DEFINITE,
            2,
        )
        assert sign_class_margin(model, [-1, -1], [1, 1], 50, 0) < 0


def _bits(values):
    """The IEEE bit patterns of a flat or nested float sequence."""
    if isinstance(values, float):
        return struct.pack("<d", values)
    return tuple(_bits(v) for v in values)


FINITE = st.floats(-1e6, 1e6)


@settings(max_examples=300, deadline=None)
@given(st.tuples(FINITE, FINITE), FINITE)
def test_benchmark_catalog_plant_is_bitwise_its_formulas(x, t):
    model = catalog_plant("benchmark")
    p = x[0] * x[1]
    assert _bits(model.drift(x)) == _bits((5.0 * math.sin(p), 5.0 * math.cos(p)))
    assert _bits(model.input_map(x)) == _bits(((0.8, 0.0), (0.0, 0.5)))
    assert _bits(model.disturbance(t)) == _bits((0.4 * math.cos(t), 0.4 * math.sin(t)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.lists(FINITE, min_size=n, max_size=n), FINITE)))
def test_integrator_catalog_plant_is_bitwise_zero_drift_and_identity(case):
    x, t = case
    n = len(x)
    model = catalog_plant("integrator", n)
    assert model.n == n
    assert _bits(model.drift(x)) == _bits((0.0,) * n)
    assert _bits(model.input_map(x)) == _bits(tuple(tuple(float(i == j) for j in range(n)) for i in range(n)))
    assert _bits(model.disturbance(t)) == _bits((0.0,) * n)
