"""The scenario's compiled step kernels against the generic step bodies.

Scenario.rows_kernel (through virtual.assemble_rows) must give bitwise the
rows assembled from eval_avoidance and eval_reach, and Scenario.rk4_kernel
(through simulator._rk4) bitwise the RK4 step through plant_derivative, on
any mix of obstacle kinds and plants in n = 1, 2 and 3.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_rk4, reference_rows
from vczsim.barriers import ClassKappa, Obstacle, ShrinkSchedule, TargetSet, TimeDomainError
from vczsim.confinement import ConfinementLaw
from vczsim.exprs import compile_exprs, parse_expr
from vczsim.plant import POSITIVE_DEFINITE, PlantModel, catalog_plant, expression_plant
from vczsim.scenario import Scenario, validate
from vczsim.scenario_io import benchmark_scenario, load_scenario
from vczsim.simulator import _rk4, run
from vczsim.virtual import assemble_rows

CROWDED_3D = Path(__file__).resolve().parents[1] / "bench" / "scenarios" / "crowded_3d.scn"
COORD = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0, 1.5, -2.0]))
RATE = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))
RADIUS = st.floats(0.05, 3.0)


def bits(values):
    """Every float's bit pattern, nested lists kept; -0.0 differs from 0.0."""
    if isinstance(values, (list, tuple)):
        return [bits(v) for v in values]
    return float(values).hex()


def scenario_of(plant, obstacles, t_f=10.0, slopes=None, r_c=0.5, target=None, shrink=(15.0, 0.5)):
    n = plant.n
    slopes = slopes or [1.0] * (len(obstacles) + 1)
    return Scenario(
        plant=plant,
        obstacles=tuple(obstacles),
        target=TargetSet(target or [10.0] * n, 1.1),
        x0=np.zeros(n),
        shrink=ShrinkSchedule(*shrink, t_f),
        alphas=tuple(ClassKappa(s) for s in slopes),
        qp_h=np.eye(n),
        qp_f=np.zeros(n),
        confinement=ConfinementLaw(1.0, r_c),
        dt=1e-3,
    )


@st.composite
def obstacles(draw, n):
    kind = draw(st.sampled_from(["static", "linear", "path", "callable", "array"]))
    radius = draw(RADIUS)
    p = draw(st.lists(COORD, min_size=n, max_size=n))
    w = draw(st.lists(RATE, min_size=n, max_size=n))
    if kind == "static":
        return Obstacle.static(p, radius)
    if kind == "linear":
        return Obstacle.linear(p, w, radius)
    if kind == "path":  # compiled from expression text, as scenario files give it
        trees = [parse_expr(f"(+ {p_i!r} (* {w_i!r} (sin (* 0.7 t))))") for p_i, w_i in zip(p, w)]
        return Obstacle.custom(compile_exprs(trees, ("t",)), radius)
    if kind == "callable":
        return Obstacle.custom(lambda t: [p_i + w_i * math.cos(t) for p_i, w_i in zip(p, w)], radius)
    return Obstacle.custom(lambda t: np.array(p) + np.array(w) * t * t, radius)


@st.composite
def rows_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    obs = draw(st.lists(obstacles(n), min_size=0, max_size=6))
    t_f = draw(st.floats(0.5, 20.0))
    r_end = draw(st.floats(0.1, 2.0))
    shrink = (r_end + draw(st.floats(0.0, 30.0)), r_end)
    slopes = draw(st.lists(st.floats(0.01, 10.0), min_size=len(obs) + 1, max_size=len(obs) + 1))
    target = draw(st.lists(COORD, min_size=n, max_size=n))
    r_c = draw(st.floats(0.01, 1.0))
    scenario = scenario_of(catalog_plant("integrator", n), obs, t_f, slopes, r_c, target, shrink)
    c = draw(st.lists(COORD, min_size=n, max_size=n))
    t = draw(st.one_of(st.floats(0.0, t_f), st.sampled_from([0.0, t_f])))
    return scenario, c, t


@settings(max_examples=300, deadline=None)
@given(rows_cases())
def test_rows_kernel_is_bitwise_the_barrier_evaluations(case):
    scenario, c, t = case
    assert bits(assemble_rows(c, t, scenario)) == bits(reference_rows(c, t, scenario))


def test_rows_kernel_sees_obstacles_exactly_on_the_centre():
    # c equal to an obstacle centre gives delta = 0.0 and -0.0 terms; the
    # static time partial is computed, not folded, so the zero signs match.
    obstacles = [Obstacle.static([-0.0, 1.0], 0.5), Obstacle.linear([0.0, -0.0], [-0.0, 0.0], 0.5)]
    scenario = scenario_of(catalog_plant("integrator", 2), obstacles)
    for c in ([-0.0, 1.0], [0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]):
        assert bits(assemble_rows(c, 0.0, scenario)) == bits(reference_rows(c, 0.0, scenario))


def test_reach_row_still_checks_the_horizon():
    scenario = benchmark_scenario()
    with pytest.raises(TimeDomainError):
        assemble_rows([0.0, 0.0], scenario.t_f + 1.0, scenario)


def _expression_plant(n, coeffs):
    a, b, w = coeffs
    xs = [f"x{i + 1}" for i in range(n)]
    f = [f"(* {a!r} (sin (* {xs[i]} {xs[(i + 1) % n]})))" for i in range(n)]
    g = [[f"(+ 1.5 (* 0.1 (cos {xs[j]})))" if i == j else f"(* {b!r} {xs[i]})" for j in range(n)] for i in range(n)]
    omega = [f"(* {w!r} (cos (+ t {i!r})))" for i in range(n)]
    return expression_plant(f, g, omega, POSITIVE_DEFINITE)


def _array_plant(n, coeffs):
    a, b, w = coeffs
    return PlantModel(
        lambda x: np.array([a * math.sin(x_i) for x_i in x]),
        lambda x: np.eye(n) + b * np.outer(np.ones(n), x),
        lambda t: [w * math.sin(t + i) for i in range(n)],
        POSITIVE_DEFINITE,
        n,
    )


@st.composite
def rk4_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["expressions", "arrays", "integrator"] + ["benchmark"] * (n == 2)))
    coeffs = draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-0.5, 0.5), st.floats(-1.0, 1.0)))
    plant = {
        "expressions": lambda: _expression_plant(n, coeffs),
        "arrays": lambda: _array_plant(n, coeffs),
        "integrator": lambda: catalog_plant("integrator", n),
        "benchmark": lambda: catalog_plant("benchmark"),
    }[kind]()
    vectors = st.lists(COORD, min_size=n, max_size=n)
    x, c, u, u_c = (draw(vectors) for _ in range(4))
    t = draw(st.floats(0.0, 10.0))
    dt = draw(st.one_of(st.floats(1e-6, 0.1), st.sampled_from([1e-3, 2.5e-3])))
    return scenario_of(plant, []), x, c, u, u_c, t, dt


@settings(max_examples=300, deadline=None)
@given(rk4_cases())
def test_rk4_kernel_is_bitwise_the_plant_derivative_steps(case):
    scenario, *args = case
    assert bits(_rk4(scenario, *args)) == bits(reference_rk4(scenario, *args))


def test_kernels_are_compiled_in_the_first_step_not_when_parsed():
    scenario = load_scenario(CROWDED_3D)
    assert validate(scenario).all_passed
    assert not {"rows_kernel", "qp_kernel", "rk4_kernel"} & set(vars(scenario))
    short = scenario.with_overrides(dt=0.01)
    run(short, check=False)
    assert {"rows_kernel", "qp_kernel", "rk4_kernel"} <= set(vars(short))


def test_kernels_hold_no_input_text():
    # Generated names and fixed operator text only: no global or builtin
    # name is read, and the only literals are the fixed ones of the templates.
    scenario = benchmark_scenario()
    for kernel in (scenario.rows_kernel, scenario.rk4_kernel):
        code = kernel.__code__
        assert code.co_names == ()
        assert set(code.co_consts) <= {None, 0, 2, 0.5, 2.0, -2.0, 6.0}


def test_qp_kernel_holds_no_input_text_and_shares_code_by_shape():
    # The cost's numbers are closure constants: the literals are the fixed
    # ones of the templates, and a cost of the same shape reuses the code.
    scenario = benchmark_scenario().with_overrides(qp_h=np.array([[2.0, 0.3], [0.3, 1.5]]), qp_f=np.array([0.7, -0.2]))
    other = benchmark_scenario()
    sets = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    for fn in [scenario.qp_kernel[w] for w in sets] + [scenario.qp_kernel.certificate]:
        code = fn.__code__
        assert code.co_names == ()
        for c in code.co_consts:
            assert c in (None, 0, 1.0, -1.0) or isinstance(c, tuple) and all(x in range(3) for x in c), c
    for w in sets:
        assert scenario.qp_kernel[w].__code__ is other.qp_kernel[w].__code__
