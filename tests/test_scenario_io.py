"""Scenario text format: parsing, canonical serialization, error reporting."""

import dataclasses
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import bundled_benchmark_text
from vczsim import plant
from vczsim.barriers import ClassKappa, Obstacle, ShrinkSchedule, TargetSet
from vczsim.confinement import ConfinementLaw
from vczsim.exprs import MAX_DEPTH
from vczsim.plant import POSITIVE_DEFINITE, PlantModel, catalog_plant, expression_plant
from vczsim.scenario import Scenario, validate
from vczsim.scenario_io import (
    ScenarioParseError,
    SerializationError,
    benchmark_scenario,
    load_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)

CUSTOM_TEXT = """
[plant]
f = (* 2 (sin x2)) (* 2 (cos x1))
g = 1.0 0.0 ; 0.0 1.0
omega = (* 0.1 (cos t)) 0.0
sign_class = positive_definite

[obstacle]
path = (+ 5 (* 0.4 t)) (- 5 (* 0.4 t))
radius = 1.5

[target]
center = 10 10
radius = 1.1

[vcz]
r_c = 0.5

[horizon]
t_f = 10
dt = 0.001

[shrink]
r_start = 15
r_end = 0.5

[controller]
gain = 10
alpha = 1 2

[initial_state]
x0 = 0 0
"""


class TestParse:
    def test_bundled_benchmark_hash_is_pinned(self):
        # The hash every benchmark trace header has carried; the catalog plant
        # keeps its ("catalog", "benchmark") descriptor.
        assert scenario_hash(benchmark_scenario()) == "f02f6e33f193c757"
        assert benchmark_scenario(dt=5e-3).dt == 5e-3

    @pytest.mark.parametrize(
        "source, digest",
        [("custom", "04260f1273506838"), ("crowded_3d", "039e4164cec26af4")],
    )
    def test_plant_fields_are_parsed_once(self, monkeypatch, source, digest):
        # _parse_plant hands its trees to tree_plant; only the strings-in
        # expression_plant calls plant.parse_expr. The hashes are those of
        # the files when each field was printed and parsed a second time.
        calls = []
        real = plant.parse_expr
        monkeypatch.setattr(plant, "parse_expr", lambda text: calls.append(text) or real(text))
        if source == "custom":
            scenario = parse_scenario(CUSTOM_TEXT)
        else:
            scenario = load_scenario(Path(__file__).resolve().parents[1] / "bench" / "scenarios" / "crowded_3d.scn")
        assert calls == []
        assert scenario_hash(scenario) == digest
        from_strings = expression_plant(*scenario.plant.descriptor[1:], POSITIVE_DEFINITE)
        assert from_strings.descriptor == scenario.plant.descriptor
        x = np.linspace(0.3, 1.1, scenario.n)
        for name, arg in (("drift", x), ("input_map", x), ("disturbance", 0.7)):
            assert np.array_equal(getattr(from_strings, name)(arg), getattr(scenario.plant, name)(arg)), name

    def test_round_trip_is_fixed_point(self):
        parsed = parse_scenario(bundled_benchmark_text())
        canonical = serialize_scenario(parsed)
        assert serialize_scenario(parse_scenario(canonical)) == canonical

    def test_custom_plant_and_path(self):
        scenario = parse_scenario(CUSTOM_TEXT)
        assert scenario.plant.descriptor[0] == "exprs"
        assert scenario.obstacles[0].kind == "custom"
        np.testing.assert_allclose(scenario.obstacles[0].center(5.0), [7.0, 3.0])
        np.testing.assert_allclose(scenario.obstacles[0].velocity(2.0), [0.4, -0.4], atol=1e-8)
        assert scenario.alphas[0].slope == 1.0 and scenario.alphas[1].slope == 2.0
        assert validate(scenario, 101).all_passed
        canonical = serialize_scenario(scenario)
        assert serialize_scenario(parse_scenario(canonical)) == canonical

    def test_defaults_for_optional_keys(self):
        scenario = parse_scenario(bundled_benchmark_text())
        np.testing.assert_array_equal(scenario.qp_h, np.eye(2))
        np.testing.assert_array_equal(scenario.qp_f, np.zeros(2))
        assert scenario.seed == 0


class TestParseErrors:
    def test_malformed_numeric_names_key_and_line(self):
        text = bundled_benchmark_text().replace("r_c = 0.5", "r_c = abc")
        with pytest.raises(ScenarioParseError) as exc_info:
            parse_scenario(text)
        assert "r_c" in str(exc_info.value)
        assert "line" in str(exc_info.value)

    def test_missing_section(self):
        text = bundled_benchmark_text().replace("[vcz]", "[run]").replace("r_c = 0.5", "seed = 1")
        with pytest.raises(ScenarioParseError) as exc_info:
            parse_scenario(text)
        assert "vcz" in str(exc_info.value)

    def test_unknown_section(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("[nonsense]\nkey = 1\n")

    @pytest.mark.parametrize(
        "base, old, bad",
        [
            ("bundled", "velocity = 0.4 -0.4", "velocty = 0.4 -0.4"),
            ("bundled", "alpha = 1.0", "alpah = 9.0"),
            ("bundled", "r_c = 0.5", "radius = 0.25"),
            ("bundled", "catalog = benchmark", "catalog = benchmark\nf = (* 2 x1) x2"),
            ("bundled", "catalog = benchmark", "sign_class = positive_definite\ncatalog = benchmark"),
            ("custom", "radius = 1.5", "center = 5 5\nradius = 1.5"),
            ("custom", "radius = 1.5", "velocity = 0.4 -0.4\nradius = 1.5"),
        ],
        ids=["velocity-typo", "alpha-typo", "key-of-another-section", "catalog-with-f"]
        + ["catalog-with-sign_class", "path-with-center", "path-with-velocity"],
    )
    def test_unknown_or_excluded_key_names_key_and_line(self, base, old, bad):
        # Each of these once parsed silently: the typo'd velocity made the
        # obstacle static, the typo'd alpha was dropped and f or a centre was
        # ignored next to catalog or path.
        text = (bundled_benchmark_text() if base == "bundled" else CUSTOM_TEXT).replace(old, bad, 1)
        offending = next(row for row in bad.splitlines() if row != old)
        line = text.splitlines().index(offending) + 1
        with pytest.raises(ScenarioParseError) as exc_info:
            parse_scenario(text)
        assert (exc_info.value.key, exc_info.value.line) == (offending.partition(" =")[0], line)

    def test_duplicate_key(self):
        text = bundled_benchmark_text().replace("r_c = 0.5", "r_c = 0.5\nr_c = 0.4")
        with pytest.raises(ScenarioParseError) as exc_info:
            parse_scenario(text)
        assert "duplicate" in str(exc_info.value)

    def test_obstacle_path_may_not_use_state(self):
        text = CUSTOM_TEXT.replace("(+ 5 (* 0.4 t))", "(+ 5 x1)")
        with pytest.raises(ScenarioParseError) as exc_info:
            parse_scenario(text)
        assert "path" in str(exc_info.value)

    def test_wrong_vector_length(self):
        text = bundled_benchmark_text().replace("x0 = 0.0 0.0", "x0 = 0.0 0.0 0.0")
        with pytest.raises(ScenarioParseError):
            parse_scenario(text)

    def test_non_integer_seed(self):
        text = bundled_benchmark_text().replace("seed = 0", "seed = 0.5")
        with pytest.raises(ScenarioParseError):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("seed = 0", "seed = -3", "seed"),
            ("radius = 0.5", "radius = nan", "radius"),
            ("alpha = 1.0", "alpha = nan", "alpha"),
            ("radius = 1.1", "radius = inf", "radius"),
            ("center = 10.0 10.0", "center = 10.0 inf", "center"),
            ("velocity = 0.4 -0.4", "velocity = inf -0.4", "velocity"),
            ("x0 = 0.0 0.0", "x0 = nan 0.0", "x0"),
            ("radius = 0.5", "radius = 0.0", "radius"),
            ("radius = 1.5", "radius = -2.0", "radius"),
            ("radius = 1.1", "radius = -1.0", "radius"),
            ("r_c = 0.5", "r_c = 0.0", "r_c"),
            ("gain = 10.0", "gain = -1.0", "gain"),
            ("epsilon_sat = 1e-09", "epsilon_sat = -1", "epsilon_sat"),
            ("dt = 0.001", "dt = 0", "dt"),
            ("t_f = 10.0", "t_f = -1", "t_f"),
            ("r_end = 0.5", "r_end = abc", "r_end"),
        ],
        ids=["seed-negative", "obstacle-radius-nan", "alpha-nan", "target-radius-inf", "target-center-inf"]
        + ["velocity-inf", "x0-nan", "static-radius-zero", "linear-radius-negative", "target-radius-negative"]
        + ["r_c-zero", "gain-sign", "epsilon_sat-negative", "dt-zero", "t_f-negative", "r_end-malformed"],
    )
    def test_bad_number_names_key_and_line(self, old, new, key):
        # Unchecked, the NaNs passed validation and the run died with a
        # QpInputError; inf and the x0 NaN raised OverflowError in validation;
        # a negative seed raised numpy's ValueError; a radius <= 0 raised the
        # obstacle's or target's own ValueError, without line or key. A bad
        # r_c, gain, epsilon_sat or dt once came without line or key, a bad
        # t_f under the section name, and a malformed r_end with two suffixes.
        text = bundled_benchmark_text().replace(old, new, 1)
        line = text.splitlines().index(new.partition("\n")[0]) + 1
        with pytest.raises(ScenarioParseError) as exc_info:
            parse_scenario(text)
        assert (exc_info.value.key, exc_info.value.line) == (key, line)
        assert str(exc_info.value).count("(line ") == 1

    def test_path_obstacle_radius_names_key_and_line(self):
        text = CUSTOM_TEXT.replace("radius = 1.5", "radius = 0.0")
        line = text.splitlines().index("radius = 0.0") + 1
        with pytest.raises(ScenarioParseError) as exc_info:
            parse_scenario(text)
        assert (exc_info.value.key, exc_info.value.line) == ("radius", line)
        assert "obstacle radius must be > 0" in str(exc_info.value)

    def test_bad_expression_reports_key(self):
        text = CUSTOM_TEXT.replace("(* 2 (sin x2))", "(* 2 (sin x2)")
        with pytest.raises(ScenarioParseError):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("(* 2 (sin x2))", "(* 2 (sin x2)", "f"),
            ("g = 1.0 0.0 ; 0.0 1.0", "g = (+ 1.0 0.0 ; 0.0 1.0", "g"),
            ("(* 0.1 (cos t))", "(* 0.1 (cos t)", "omega"),
            ("g = 1.0 0.0 ; 0.0 1.0", "g = 1.0 0.0 ; 0.0", "g"),
            ("g = 1.0 0.0 ; 0.0 1.0", "g = 1.0 t ; 0.0 1.0", "g"),
            ("(* 0.1 (cos t)) 0.0", "(* 0.1 (cos t))", "omega"),
            ("(* 0.1 (cos t))", "(* 0.1 (cos x1))", "omega"),
        ],
        ids=["f-paren", "g-paren", "omega-paren", "g-shape", "g-variable"]
        + ["omega-length", "omega-variable"],
    )
    def test_plant_error_names_failing_field_and_line(self, old, new, key):
        lines = CUSTOM_TEXT.splitlines()
        line = next(i for i, text in enumerate(lines, 1) if text.startswith(f"{key} ="))
        with pytest.raises(ScenarioParseError) as exc_info:
            parse_scenario(CUSTOM_TEXT.replace(old, new))
        assert (exc_info.value.key, exc_info.value.line) == (key, line)


    @pytest.mark.parametrize("key, old", [("omega", "(* 0.1 (cos t))"), ("path", "(- 5 (* 0.4 t))")])
    def test_nesting_too_deep_names_key_line_and_column(self, key, old):
        deep = "(cos " * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1)
        text = CUSTOM_TEXT.replace(old, deep)
        line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith(f"{key} ="))
        with pytest.raises(ScenarioParseError) as exc_info:
            parse_scenario(text)
        assert (exc_info.value.key, exc_info.value.line) == (key, line)
        value = text.splitlines()[line - 1].partition("=")[2].strip()
        assert f"column {value.index(deep) + 5 * MAX_DEPTH + 1}" in str(exc_info.value)

    def test_nesting_at_the_limit_is_accepted(self):
        deep = "(+ " * MAX_DEPTH + "0.0" + ")" * MAX_DEPTH
        scenario = parse_scenario(CUSTOM_TEXT.replace("(* 0.1 (cos t))", deep))
        assert scenario.plant.disturbance(1.0)[0] == 0.0

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("epsilon_sat", "qp_h = 1 0 ; 0 -1\nepsilon_sat", "positive definite"),
            ("epsilon_sat", "qp_h = 1 0.5 ; 0 1\nepsilon_sat", "symmetric"),
            ("epsilon_sat", "qp_h = 1 0 ; 0 nan\nepsilon_sat", "finite"),
            ("epsilon_sat", "qp_f = 0 inf\nepsilon_sat", "qp_f"),
            ("t_f = 10.0", "t_f = inf", "t_f and dt"),
            ("dt = 0.001", "dt = nan", "t_f and dt"),
        ],
        ids=["qp_h-indefinite", "qp_h-asymmetric", "qp_h-nan", "qp_f-inf", "t_f-inf", "dt-nan"],
    )
    def test_bad_horizon_or_cost_is_parse_error(self, old, new, message):
        with pytest.raises(ScenarioParseError, match=message):
            parse_scenario(bundled_benchmark_text().replace(old, new, 1))


class TestHash:
    def test_hash_ignores_integration_step(self):
        a = parse_scenario(bundled_benchmark_text())
        b = a.with_overrides(dt=5e-4)
        assert scenario_hash(a) == scenario_hash(b)

    def test_hash_tracks_problem_changes(self):
        a = parse_scenario(bundled_benchmark_text())
        b = a.with_overrides(t_f=8.0)
        assert scenario_hash(a) != scenario_hash(b)

    def test_every_init_field_but_dt_reaches_the_hash(self):
        # A setting that the file does not carry would share its hash with
        # every other value: each init field must change the hash.
        base = parse_scenario(bundled_benchmark_text())
        perturbed = {
            "plant": catalog_plant("integrator", 2),
            "obstacles": (Obstacle.static([1.5, 2.0], 0.6), base.obstacles[1]),
            "target": TargetSet([10.0, 10.0], 1.2),
            "x0": np.array([0.0, 0.1]),
            "shrink": ShrinkSchedule(15.0, 0.4, 10.0),
            "alphas": (ClassKappa(2.0),) + base.alphas[1:],
            "qp_h": 2.0 * np.eye(2),
            "qp_f": np.array([0.1, 0.0]),
            "confinement": ConfinementLaw(11.0, 0.5),
            "seed": 1,
        }
        init = {f.name for f in dataclasses.fields(Scenario) if f.init}
        assert init - {"dt"} == set(perturbed)
        for name, value in perturbed.items():
            assert scenario_hash(replace(base, **{name: value})) != scenario_hash(base), name

    def test_opaque_plant_falls_back_to_structural_digest(self):
        base = benchmark_scenario()
        opaque = PlantModel(
            lambda x: np.zeros(2), lambda x: np.eye(2), lambda t: np.zeros(2),
            "positive_definite", 2,
        )
        scenario = base.with_overrides(plant=opaque)
        with pytest.raises(SerializationError):
            serialize_scenario(scenario)
        assert len(scenario_hash(scenario)) == 16
        assert scenario_hash(scenario) == scenario_hash(scenario)
