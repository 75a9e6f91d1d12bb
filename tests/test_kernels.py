"""The generated step code against the plain reference step.

The row emitter (barriers.emit_rows) must give bitwise the rows that
virtual.assemble_rows builds from eval_avoidance and eval_reach, the RK4
emitter (plant.emit_rk4) bitwise the RK4 step of simulator._rk4 through
plant_derivative, each compiled here as one function as the loop would hold
it, and a run, through Scenario.loop_kernel, bitwise oracles.reference_run,
on any mix of obstacle kinds and plants in n = 1, 2 and 3. The reference
step shares no generated row or RK4 code with the loop, and a run calls no
function of the reference step.
"""

import functools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import reference_run
from vczsim import barriers, plant as plant_module, qp, simulator, virtual
from vczsim.barriers import ClassKappa, Obstacle, ShrinkSchedule, TargetSet, TimeDomainError, emit_rows
from vczsim.confinement import ConfinementLaw
from vczsim.exprs import Constants, compile_exprs, parse_expr, straight_line, tree_emitter, unpack
from vczsim.plant import POSITIVE_DEFINITE, PlantModel, catalog_plant, emit_rk4, expression_plant
from vczsim.qp import compile_solver
from vczsim.scenario import Scenario, validate
from vczsim.scenario_io import benchmark_scenario, load_scenario
from vczsim.simulator import SimulationAbort, _rk4, run
from vczsim.virtual import assemble_rows

CROWDED_3D = Path(__file__).resolve().parents[1] / "bench" / "scenarios" / "crowded_3d.scn"
MANY_OBSTACLES = Path(__file__).resolve().parent / "data" / "many_obstacles.scn"
COORD = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0, 1.5, -2.0]))
RATE = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]))
RADIUS = st.floats(0.05, 3.0)


def bits(values):
    """Every float's bit pattern, nested lists kept; -0.0 differs from 0.0."""
    if isinstance(values, (list, tuple)):
        return [bits(v) for v in values]
    return float(values).hex()


def rows_kernel(scenario):
    """(c, t) -> (A, b, h): emit_rows' lines for the scenario as one
    straight-line function over the n coordinates."""
    k, n = Constants(), scenario.n
    c = [f"c{i}" for i in range(n)]
    lines = [unpack(c, "c")]
    A, b, h = emit_rows(lines, k, tree_emitter(lines, k), c, "t", scenario.obstacles, scenario.r_c,
                        scenario.target.point, scenario.shrink, scenario.slopes)
    return straight_line(("c", "t"), lines, f"{A}, [{', '.join(b)}], [{', '.join(h)}]", k)


def rk4_kernel(model):
    """(x, u, t, dt) -> x after one RK4 step with u held: emit_rk4's lines for
    the plant as one straight-line function over the n coordinates."""
    k = Constants()
    x, u = [f"x{i}" for i in range(model.n)], [f"u{j}" for j in range(model.n)]
    lines = [unpack(x, "x"), unpack(u, "u")]
    x_next = emit_rk4(lines, k, tree_emitter(lines, k), model, x, u, "t", "dt")
    return straight_line(("x", "u", "t", "dt"), lines, f"[{', '.join(x_next)}]", k)


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
        trees = tuple(parse_expr(f"(+ {p_i!r} (* {w_i!r} (sin (* 0.7 t))))") for p_i, w_i in zip(p, w))
        return Obstacle.custom(compile_exprs(list(trees), ("t",)), radius, trees)
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
    assert bits(rows_kernel(scenario)(c, t)) == bits(assemble_rows(c, t, scenario))


def test_rows_kernel_sees_obstacles_exactly_on_the_centre():
    # c equal to an obstacle centre gives delta = 0.0 and -0.0 terms; the
    # static time partial is computed, not folded, so the zero signs match.
    obstacles = [Obstacle.static([-0.0, 1.0], 0.5), Obstacle.linear([0.0, -0.0], [-0.0, 0.0], 0.5)]
    scenario = scenario_of(catalog_plant("integrator", 2), obstacles)
    rows = rows_kernel(scenario)
    for c in ([-0.0, 1.0], [0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]):
        assert bits(rows(c, 0.0)) == bits(assemble_rows(c, 0.0, scenario))


def test_reach_row_still_checks_the_horizon():
    scenario = benchmark_scenario()
    with pytest.raises(TimeDomainError):
        assemble_rows([0.0, 0.0], scenario.t_f + 1.0, scenario)


@settings(max_examples=500, deadline=None)
@given(st.floats(1e-12, 1e4), st.floats(1e-7, 1e2))
@example(10.0, 1e-3)
@example(1.0, 0.3)
@example(1e-13, 1.0)
def test_loop_pass_times_lie_in_the_horizon(t_f, dt):
    # emit_rows writes the reach radius without radius_at's horizon check, so
    # the loop's pass times, done * dt for done < count and then t_f, must lie
    # in [0, t_f]. done * dt grows with done: the last one is the largest.
    # The ranges allow up to 1e11 steps.
    count, _, _ = simulator._step_counts(t_f, dt)
    assert count == 0 or 0.0 <= (count - 1) * dt <= t_f


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
    scenario, x, c, u, u_c, t, dt = case
    assert bits(rk4_kernel(scenario.plant)(x, u, t, dt)) == bits(_rk4(scenario, x, c, u, u_c, t, dt)[0])


def test_kernels_are_compiled_in_the_first_step_not_when_parsed():
    scenario = load_scenario(CROWDED_3D)
    assert validate(scenario).all_passed
    kernels = {name for name, value in vars(Scenario).items() if isinstance(value, functools.cached_property)}
    assert kernels == {"loop_kernel"}
    assert not kernels & set(vars(scenario))
    short = scenario.with_overrides(dt=0.01)
    run(short, check=False)
    # A run's hint misses solve the loop's own rows, so no other kernel is
    # compiled or cached.
    assert kernels <= set(vars(short))
    assert not any(hasattr(Scenario, name) for name in ("qp_kernel", "rows_kernel", "rk4_kernel"))


def test_kernels_hold_no_input_text():
    # Generated names and fixed operator text only: the only globals read are
    # the math functions straight_line provides, and the only literals are
    # the fixed ones of the templates (the loop's 3 and 5 index QpSolution).
    scenario = benchmark_scenario()
    for kernel in (rows_kernel(scenario), rk4_kernel(scenario.plant), scenario.loop_kernel):
        code = kernel.__code__
        assert set(code.co_names) <= {"fsum", "sin", "cos", "log", "hypot"}
        assert set(code.co_consts) <= {None, 0, 1, 2, 3, 5, 0.5, 2.0, -2.0, 6.0, ()}


def test_loop_kernels_of_one_shape_share_code():
    # Every number of a scenario, step counts included, is a closure constant.
    scenario = benchmark_scenario()
    other = replace(scenario, obstacles=(Obstacle.static([1.0, 2.0], 0.3), Obstacle.linear([5.0, 5.0], [0.1, -0.2], 0.7)),
                    alphas=tuple(ClassKappa(s) for s in (2.0, 3.0, 0.5)), dt=0.037).with_overrides(t_f=3.3)
    assert other.loop_kernel is not scenario.loop_kernel
    assert other.loop_kernel.__code__ is scenario.loop_kernel.__code__


def test_qp_kernel_holds_no_input_text_and_shares_code_by_shape():
    # The cost's numbers are closure constants: the literals are the fixed
    # ones of the templates, and a cost of the same shape reuses the code.
    scenario = benchmark_scenario().with_overrides(qp_h=np.array([[2.0, 0.3], [0.3, 1.5]]), qp_f=np.array([0.7, -0.2]))
    kernel, other = (compile_solver(s.qp_cost, s.barrier_count) for s in (scenario, benchmark_scenario()))
    assert len(kernel) == 3  # working-set sizes 0, 1 and 2
    for fn in [*kernel, kernel.certificate]:
        code = fn.__code__
        assert code.co_names == ()
        for c in code.co_consts:
            assert c in (None, 0, 1.0, -1.0) or isinstance(c, tuple) and all(x in range(3) for x in c), c
    for fn, twin in zip(kernel, other, strict=True):
        assert fn.__code__ is twin.__code__


def outcome(runner, scenario):
    """What a run gives, with every float as bits (NaNs as one NaN, since a
    NaN's payload may come from either operand): each trace array, the
    statuses and the hash, then the metrics or the abort's reason, time,
    detail and cause; or the type and text of another error it raised."""

    def floats(values):
        values = np.asarray(values, dtype=float)
        return np.where(np.isnan(values), math.nan, values).tobytes()

    try:
        trace, metrics = runner(scenario)
        end = {k: floats(v) if isinstance(v, float) else v for k, v in metrics.as_dict().items()}
    except SimulationAbort as abort:
        trace, end = abort.trace, (abort.reason, floats(abort.t), abort.detail, type(abort.__cause__))
    except (ValueError, ArithmeticError, RuntimeWarning) as exc:  # a plant map meeting inf, say
        return type(exc), str(exc)
    arrays = {name: floats(getattr(trace, name)) for name in ("t", "x", "c", "u", "u_c", "h", "e_hat", "qp_kkt")}
    return arrays, trace.qp_status, trace.scenario_hash, end


@st.composite
def loop_scenarios(draw):
    """Short runs of every obstacle kind and plant kind in n = 1 to 3, with a
    step that may not divide t_f or exceed it, and gains from too weak to
    hold the plant (a breach) to overflowing (u infinite); the centre starts
    inside the shrinking ball, and an obstacle near it may leave the QP
    infeasible."""
    n = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["expressions", "arrays", "integrator"] + ["benchmark"] * (n == 2)))
    coeffs = draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-0.5, 0.5), st.floats(-1.0, 1.0)))
    plant = {
        "expressions": lambda: _expression_plant(n, coeffs),
        "arrays": lambda: _array_plant(n, coeffs),
        "integrator": lambda: catalog_plant("integrator", n),
        "benchmark": lambda: catalog_plant("benchmark"),
    }[kind]()
    obs = draw(st.lists(obstacles(n), min_size=0, max_size=3))
    t_f = draw(st.one_of(st.floats(0.001, 0.5), st.sampled_from([0.2, 0.3])))
    r_end = draw(st.floats(2.0, 4.0))
    shrink = (r_end + t_f * draw(st.floats(0.0, 3.0)), r_end)
    target = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    scenario = scenario_of(plant, obs, t_f, None, draw(st.floats(0.05, 1.0)), target, shrink)
    gain = draw(st.sampled_from([0.2, 1.0, 10.0, 10.0, 1e308]))
    dt = draw(st.one_of(st.sampled_from([0.01, 0.03, 0.1]), st.floats(0.005, 0.5)))
    return replace(scenario, confinement=ConfinementLaw(gain, scenario.r_c), dt=dt)


WEAK = replace(benchmark_scenario(dt=0.01), confinement=ConfinementLaw(0.2, 0.5))
# u overflows from the second step; a 0.0 * u product of g then gives NaN.
OVERFLOW = replace(scenario_of(catalog_plant("integrator", 2), [], 0.5, None, 1.0, [1.0, 0.0], (2.5, 2.0)),
                   confinement=ConfinementLaw(1e308, 1.0), dt=0.01)
SQUEEZE = scenario_of(catalog_plant("integrator", 2), [Obstacle.static([5.0, 0.0], 0.8)], 4.0, None, 0.3,
                      [10.0, 0.0], (10.5, 0.8)).with_overrides(dt=0.05)


@settings(max_examples=300, deadline=None)
@given(loop_scenarios())
@example(WEAK)  # breaches at t = 0.12
@example(SQUEEZE)  # QP infeasible at t = 0.25
@example(OVERFLOW)
@example(load_scenario(CROWDED_3D).with_overrides(t_f=0.5, dt=0.01))
@example(load_scenario(CROWDED_3D).with_overrides(dt=0.02))  # path obstacles over 10 s, with misses
def test_run_is_bitwise_the_reference_loop(scenario):
    assert outcome(lambda s: run(s, check=False), scenario) == outcome(reference_run, scenario)


@pytest.mark.usefixtures("fresh_solvers")
def test_many_obstacles_run_on_four_qp_functions():
    # crowded_3d with 24 far static obstacles: d = 31 rows, so a miss may
    # enumerate up to C(31, <= 3) = 4 992 working sets, all on the
    # min(m, d) + 1 = 4 functions of one compile_solver. A count, not a timing.
    scenario = load_scenario(MANY_OBSTACLES).with_overrides(dt=0.02)
    assert scenario.barrier_count == 31 and validate(scenario).all_passed
    got = outcome(lambda s: run(s, check=False), scenario)
    assert got == outcome(reference_run, scenario)
    assert isinstance(got[-1], dict)  # finished, no abort
    assert sum(map(len, qp._SOLVERS.values())) <= 4
    # No far row is ever tight: the centre and the plant move as in crowded_3d.
    crowded, _ = run(load_scenario(CROWDED_3D).with_overrides(dt=0.02), check=False)
    for name in ("x", "c", "u_c"):
        assert got[0][name] == getattr(crowded, name).tobytes(), name


def test_reference_step_shares_no_generated_code_with_the_loop(monkeypatch):
    # With the row and RK4 emitters and the loop compiler all raising, the
    # reference loop still runs to the end, and gives what run gives on a
    # fresh copy of the scenario.
    fresh = (lambda: benchmark_scenario(dt=0.01), lambda: load_scenario(CROWDED_3D).with_overrides(dt=0.02))

    def unavailable(*args):
        raise AssertionError("the reference step called generated row, RK4 or loop code")

    with monkeypatch.context() as patch:
        for module, name in ((barriers, "emit_rows"), (plant_module, "emit_rk4"), (simulator, "compile_loop")):
            patch.setattr(module, name, unavailable)
        references = [outcome(reference_run, make()) for make in fresh]
    assert all(isinstance(end, dict) for *_, end in references)  # finished, no abort
    assert references == [outcome(lambda s: run(s, check=False), make()) for make in fresh]


def test_run_calls_no_reference_step_function(monkeypatch):
    # The mirror of the test above: with every function of the plain
    # reference step raising, run still gives its usual outcome, hint misses
    # and an infeasible QP's abort with its conflicting rows included.
    fresh = (lambda: benchmark_scenario(dt=0.01), lambda: load_scenario(CROWDED_3D).with_overrides(dt=0.02),
             lambda: replace(SQUEEZE))
    expected = [outcome(lambda s: run(s, check=False), make()) for make in fresh]

    def unavailable(*args):
        raise AssertionError("run called the reference step")

    reference = ((virtual, "assemble_rows"), (virtual, "eval_avoidance"), (virtual, "eval_reach"),
                 (barriers, "eval_avoidance"), (barriers, "eval_reach"), (virtual, "virtual_control"),
                 (simulator, "virtual_control"), (simulator, "_controls"), (simulator, "_rk4"),
                 (plant_module, "plant_derivative"), (simulator, "plant_derivative"), (simulator._Recorder, "add"))
    misses = []
    real_solve = simulator.solve_rows

    def solve(*args):
        misses.append(None)
        return real_solve(*args)

    with monkeypatch.context() as patch:
        for owner, name in reference:
            patch.setattr(owner, name, unavailable)
        patch.setattr(simulator, "solve_rows", solve)
        assert [outcome(lambda s: run(s, check=False), make()) for make in fresh] == expected
    # Each run's first step misses its empty hint; more misses come later.
    assert [type(end) for *_, end in expected] == [dict, dict, tuple] and len(misses) > 3
    assert "conflicting rows (by barrier index): [0, 1]" in expected[2][3][2]


def test_array_and_list_paths_give_bitwise_equal_runs():
    # A plain-callable path reaches the rows as Python floats, whatever
    # numbers the callable returns. The obstacle bends the centre's path.
    p, w = [6.0, 6.1], [1e-3, -1e-3]
    paths = (lambda t: np.array(p) + np.array(w) * t * t, lambda t: [p_i + w_i * t * t for p_i, w_i in zip(p, w)])
    outcomes = []
    for path in paths:
        scenario = scenario_of(catalog_plant("integrator", 2), [Obstacle.custom(path, 0.5)]).with_overrides(dt=0.01)
        A, b, h = assemble_rows([0.0, 0.0], 0.5, scenario)
        assert {type(v) for v in (*A[0], *A[1], *b, *h)} == {float}
        outcomes.append(outcome(lambda s: run(s, check=False), scenario))
    assert outcomes[0] == outcomes[1] and isinstance(outcomes[0][3], dict)
