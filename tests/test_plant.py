"""Plant models: derivative assembly, catalog instances, assumption spot checks."""

import math

import numpy as np
import pytest

from oracles import difference_quotient_bound
from vczsim.plant import (
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    PlantModel,
    benchmark_plant,
    catalog_plant,
    expression_plant,
    integrator_plant,
    plant_derivative,
    sign_class_margin,
)


class TestPlantDerivative:
    def test_benchmark_drift_plus_disturbance(self):
        model = benchmark_plant()
        np.testing.assert_allclose(
            plant_derivative(model, [0.0, 0.0], [0.0, 0.0], 0.0), [0.4, 5.0]
        )

    def test_benchmark_with_input(self):
        model = benchmark_plant()
        np.testing.assert_allclose(
            plant_derivative(model, [0.0, 0.0], [1.0, 1.0], 0.0), [1.2, 5.5]
        )

    def test_drift_only(self):
        model = integrator_plant(2)
        np.testing.assert_array_equal(
            plant_derivative(model, [3.0, -1.0], [0.0, 0.0], 7.0), [0.0, 0.0]
        )

    def test_rejects_dimension_mismatch(self):
        model = benchmark_plant()
        with pytest.raises(ValueError):
            plant_derivative(model, [0.0, 0.0, 0.0], [0.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            plant_derivative(model, [0.0, 0.0], [0.0], 0.0)


class TestBenchmarkPlant:
    def test_input_map_is_constant_diagonal(self):
        model = benchmark_plant()
        for x in ([0.0, 0.0], [3.0, -2.0], [11.0, 7.0]):
            np.testing.assert_array_equal(model.input_map(np.array(x)), np.diag([0.8, 0.5]))

    def test_disturbance_rotation(self):
        model = benchmark_plant()
        np.testing.assert_allclose(model.disturbance(math.pi / 2), [0.0, 0.4], atol=1e-15)

    def test_drift_at_origin(self):
        model = benchmark_plant()
        np.testing.assert_allclose(model.drift(np.zeros(2)), [0.0, 5.0])

    def test_sign_class_margin(self):
        model = benchmark_plant()
        margin = sign_class_margin(model, [-2.0, -2.0], [12.0, 12.0], 100, 0)
        assert margin == pytest.approx(0.5)

    def test_lipschitz_spot_check(self):
        model = benchmark_plant()
        bound = difference_quotient_bound(model.drift, [-2.0, -2.0], [12.0, 12.0], 1000, 1)
        assert math.isfinite(bound)
        # |d f / dx| <= 5 * |x| * sqrt(2) over the box, so quotients stay modest
        assert bound <= 5.0 * 12.0 * 2.0


class TestCatalogAndExpressions:
    def test_catalog_lookup(self):
        assert catalog_plant("benchmark").n == 2
        assert catalog_plant("integrator", 3).n == 3
        with pytest.raises(ValueError):
            catalog_plant("unknown")

    def test_expression_plant_matches_benchmark(self):
        model = expression_plant(
            ["(* 5 (sin (* x1 x2)))", "(* 5 (cos (* x1 x2)))"],
            [["0.8", "0"], ["0", "0.5"]],
            ["(* 0.4 (cos t))", "(* 0.4 (sin t))"],
            POSITIVE_DEFINITE,
        )
        reference = benchmark_plant()
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-2.0, 12.0, size=2)
            u = rng.normal(size=2)
            t = float(rng.uniform(0.0, 10.0))
            np.testing.assert_allclose(
                plant_derivative(model, x, u, t), plant_derivative(reference, x, u, t), rtol=1e-12
            )

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
