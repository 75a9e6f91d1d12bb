"""Closed-loop stepping, trace recording, metrics, and independent re-verification."""

import gc
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import make_steps_cold, uncertified_from
from oracles import barrier_values
from vczsim import exprs, plant, qp, scenario_io, simulator, virtual
from vczsim.barriers import Obstacle, ShrinkSchedule, TargetSet
from vczsim.confinement import ConfinementLaw
from vczsim.plant import catalog_plant
from vczsim.randomized import random_scenario
from vczsim.scenario import (
    Scenario,
    ScenarioInvalidError,
    uniform_alphas,
    validate,
)
from vczsim.scenario_io import benchmark_scenario, load_scenario, parse_scenario
from vczsim.simulator import (
    BREACH,
    QP_INFEASIBLE,
    QP_UNCERTIFIED,
    RunMetrics,
    SimulationAbort,
    run,
    verify_trace,
)
from vczsim.trace_io import read_trace, write_trace
from vczsim.virtual import virtual_control

# Integrator reach task past an obstacle whose centre follows a path expression.
PATH_OBSTACLE_TEXT = """
[plant]
catalog = integrator

[obstacle]
path = (+ 1.5 (* 0.2 (sin t))) (+ 1.0 (* 0.1 t))
radius = 0.4

[target]
center = 3.0 0.0
radius = 1.2

[vcz]
r_c = 0.3

[horizon]
t_f = 2.0
dt = 0.01

[shrink]
r_start = 3.5
r_end = 0.8

[controller]
gain = 10.0

[initial_state]
x0 = 0.0 0.0
"""


def head(trace, k):
    """The first k records of a trace."""
    return replace(
        trace,
        t=trace.t[:k], x=trace.x[:k], c=trace.c[:k], u=trace.u[:k],
        u_c=trace.u_c[:k], h=trace.h[:k], e_hat=trace.e_hat[:k],
        qp_status=trace.qp_status[:k], qp_kkt=trace.qp_kkt[:k],
    )


def quiet_scenario(**overrides):
    """Obstacle-free integrator scenario whose reach row stays inactive."""
    base = Scenario(
        plant=catalog_plant("integrator", 2),
        obstacles=(),
        target=TargetSet([0.0, 0.0], 1.1),
        x0=np.zeros(2),
        shrink=ShrinkSchedule(5.0, 1.0, 10.0),
        alphas=uniform_alphas(1),
        qp_h=np.eye(2),
        qp_f=np.zeros(2),
        confinement=ConfinementLaw(10.0, 0.1),
        dt=1e-3,
    )
    return replace(base, **overrides) if overrides else base


@pytest.fixture(scope="module")
def path_run():
    scenario = parse_scenario(PATH_OBSTACLE_TEXT)
    trace, _ = run(scenario)
    return scenario, trace


@pytest.fixture(scope="module")
def quiet_run():
    scenario = quiet_scenario()
    trace, metrics = run(scenario)
    return scenario, trace, metrics


class TestStep:
    """The first step of a run: records 0 and 1 of its trace."""

    def test_zero_error_state_splits_dynamics(self, benchmark_run):
        scenario, trace, _, _ = benchmark_run
        # c is a single integrator under constant u_c: exact displacement
        u_c, _, _ = virtual_control([0.0, 0.0], 0.0, scenario)
        np.testing.assert_allclose(trace.c[1], 1e-3 * np.asarray(u_c), rtol=1e-12)
        # x evolves under drift + disturbance only (u = 0 at zero error)
        np.testing.assert_allclose(trace.x[1], [0.4e-3, 5e-3], atol=1e-6)
        assert trace.t[1] == pytest.approx(1e-3)

    def test_inactive_rows_keep_center_still(self, quiet_run):
        _, trace, _ = quiet_run
        np.testing.assert_array_equal(trace.c[1], [0.0, 0.0])

    def test_benchmark_first_step_direction(self, benchmark_run):
        _, trace, _, _ = benchmark_run
        np.testing.assert_allclose(trace.c[1], [0.4625e-3, 0.4625e-3], rtol=1e-12)


def short_scenario(t_f: float):
    """One-second reach task with the start offset from the target center.

    The initial shrink slack is kept small so the riding barrier h(0)e^-t
    stays well below r(t)^2; otherwise the boundary overtakes the center and
    drives it through the target center where the reach gradient vanishes.
    """
    return quiet_scenario(
        x0=np.array([2.0, 0.0]),
        shrink=ShrinkSchedule(2.1, 0.9, t_f),
    )


class TestRun:
    def test_short_run_trace_invariants(self):
        scenario = short_scenario(1.0)
        trace, metrics = run(scenario)
        assert trace.t[0] == 0.0
        np.testing.assert_array_equal(trace.x[0], scenario.x0)
        np.testing.assert_array_equal(trace.c[0], scenario.x0)
        assert np.all(np.diff(trace.t) > 0)
        assert abs(trace.t[-1] - scenario.t_f) <= scenario.dt / 2
        assert len(trace) == 1001
        assert metrics.ptra_verdict == "pass"

    def test_partial_final_step(self):
        scenario = short_scenario(1.0005)
        trace, _ = run(scenario)
        assert trace.t[-1] == pytest.approx(1.0005, abs=1e-12)
        assert trace.t[-1] - trace.t[-2] == pytest.approx(5e-4, abs=1e-9)

    def test_validation_gate(self):
        bad = quiet_scenario(obstacles=(Obstacle.static([0.0, 0.0], 0.5),), alphas=uniform_alphas(2))
        with pytest.raises(ScenarioInvalidError):
            run(bad)

    def test_bitwise_determinism(self):
        scenario = benchmark_scenario(dt=5e-3)
        t1, _ = run(scenario)
        t2, _ = run(scenario)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.c, t2.c)
        assert np.array_equal(t1.u_c, t2.u_c)
        assert np.array_equal(t1.qp_kkt, t2.qp_kkt)

    def test_halved_horizon_still_passes(self):
        # double shrink rate stays feasible for the benchmark geometry; the
        # virtual input grows ~5x but the verdict holds (observed artifact
        # behavior, frozen here)
        scenario = benchmark_scenario(dt=2e-3).with_overrides(t_f=5.0)
        trace, metrics = run(scenario)
        assert metrics.ptra_verdict == "pass"
        assert metrics.all_qp_optimal
        assert metrics.min_barrier_value >= -scenario.invariance_tol

    def test_obstacle_free_start_inside_target(self, quiet_run):
        # start at the target center: confinement keeps x near c and the
        # reach row keeps c inside the shrinking ball
        scenario, _, metrics = quiet_run
        assert metrics.ptra_verdict == "pass"
        assert metrics.terminal_distance <= scenario.target.radius
        assert metrics.max_e_hat < 1.0

    def test_all_optimal_run_keeps_barriers_above_tolerance(self, benchmark_run):
        scenario, _, metrics, _ = benchmark_run
        assert metrics.all_qp_optimal
        assert metrics.min_barrier_value >= -scenario.invariance_tol

    def test_breach_aborts_with_partial_trace(self):
        # a gain this small cannot hold the plant against its drift
        weak = benchmark_scenario(dt=1e-3)
        weak = replace(weak, confinement=ConfinementLaw(0.2, 0.5))
        with pytest.raises(SimulationAbort) as exc_info:
            run(weak)
        abort = exc_info.value
        assert abort.reason == BREACH
        assert len(abort.trace) >= 1
        assert abort.trace.t[-1] < weak.t_f

    @pytest.mark.parametrize(
        "dt, t, detail, rows",
        [
            (1e-2, 0.12, "||x - c|| = 0.52728 >= r_c = 0.5", 12),
            (1e-3, 0.114, "||x - c|| = 0.500624 >= r_c = 0.5", 114),
        ],
    )
    def test_breach_time_and_detail(self, dt, t, detail, rows):
        # Pinned before the step took ||x - c|| once for the breach check,
        # the confinement law and e_hat.
        weak = replace(benchmark_scenario(dt=dt), confinement=ConfinementLaw(0.2, 0.5))
        with pytest.raises(SimulationAbort) as exc_info:
            run(weak)
        abort = exc_info.value
        assert (abort.reason, abort.t, abort.detail, len(abort.trace)) == (BREACH, t, detail, rows)

    def test_e_hat_is_the_recomputed_gap(self, benchmark_run):
        scenario, trace, _, _ = benchmark_run
        for k in range(len(trace)):
            expected = math.hypot(*(trace.x[k] - trace.c[k])) / scenario.r_c
            assert abs(trace.e_hat[k] - expected) <= 2 * math.ulp(expected)

    @pytest.mark.usefixtures("cold_steps")
    def test_uncertified_qp_aborts_with_partial_trace(self, monkeypatch):
        monkeypatch.setattr(simulator, "solve_rows", uncertified_from(25, simulator.solve_rows))
        with pytest.raises(SimulationAbort) as exc_info:
            run(benchmark_scenario(dt=0.01))
        abort = exc_info.value
        assert (abort.reason, abort.t, len(abort.trace)) == (QP_UNCERTIFIED, 0.25, 25)
        assert isinstance(abort.__cause__, qp.QpCertificationError)
        assert "no candidate certifies" in abort.detail
        assert abort.trace.t[-1] == 0.24 and set(abort.trace.qp_status) == {"optimal"}

    def test_non_finite_rows_abort_as_uncertified(self):
        # A path that leaves the floats at t = 0.05 makes that step's rows
        # non-finite; the run and its reference abort with the trace so far.
        far = Obstacle.custom(lambda t: [math.inf if t >= 0.05 else 50.0, 50.0], 0.5)
        scenario = quiet_scenario(obstacles=(far,), alphas=uniform_alphas(2), dt=0.01)
        for runner in (lambda s: run(s, check=False), oracles.reference_run):
            with pytest.raises(SimulationAbort) as exc_info:
                runner(scenario)
            abort = exc_info.value
            assert (abort.reason, abort.t, len(abort.trace)) == (QP_UNCERTIFIED, 0.05, 5)
            assert isinstance(abort.__cause__, qp.QpInputError)
            assert "must be finite" in abort.detail

    def test_qp_infeasible_aborts_with_partial_trace(self):
        # an obstacle dead ahead of a fast-shrinking ball pinches the center
        squeeze = Scenario(
            plant=catalog_plant("integrator", 2),
            obstacles=(Obstacle.static([5.0, 0.0], 0.8),),
            target=TargetSet([10.0, 0.0], 1.2),
            x0=np.zeros(2),
            shrink=ShrinkSchedule(10.5, 0.8, 4.0),
            alphas=uniform_alphas(2),
            qp_h=np.eye(2),
            qp_f=np.zeros(2),
            confinement=ConfinementLaw(10.0, 0.3),
            dt=2e-3,
        )
        with pytest.raises(SimulationAbort) as exc_info:
            run(squeeze)
        abort = exc_info.value
        assert abort.reason == QP_INFEASIBLE
        assert "conflicting rows" in abort.detail
        assert len(abort.trace) >= 1


CROWDED_3D = Path(__file__).resolve().parents[1] / "bench" / "scenarios" / "crowded_3d.scn"


# RunMetrics of the all-numpy step loop that the float step loop replaced,
# on the bundled benchmark and bench/scenarios/crowded_3d.scn at dt = 1e-3.
PINNED_METRICS = {
    "benchmark": RunMetrics(
        min_true_clearance=0.810990615356987,
        min_center_clearance=0.28238603148185404,
        terminal_distance=0.6967066256231773,
        max_e_hat=0.570055775686149,
        max_u_c_norm=1.4798050832881349,
        max_u_norm=12.95210934249667,
        min_barrier_value=0.0011298098158768755,
        all_qp_optimal=True,
        u_c_within_ceiling=True,
        ptra_verdict="pass",
    ),
    "crowded_3d": RunMetrics(
        min_true_clearance=0.4701398538515855,
        min_center_clearance=0.012520580265498626,
        terminal_distance=0.5816355165957502,
        max_e_hat=0.273065987419337,
        max_u_c_norm=2.017328709375725,
        max_u_norm=5.603477266894098,
        min_barrier_value=0.0009570536246025774,
        all_qp_optimal=True,
        u_c_within_ceiling=True,
        ptra_verdict="pass",
    ),
}


class TestBehaviourGuard:
    """Float arithmetic moves the metrics by rounding only: at most 1e-12 per
    float field, with booleans, verdict and every QP status unchanged."""

    @staticmethod
    def assert_pinned(name, trace, metrics):
        for key, pinned in PINNED_METRICS[name].as_dict().items():
            value = metrics.as_dict()[key]
            if isinstance(pinned, float):
                assert abs(value - pinned) <= 1e-12, (key, value, pinned)
            else:
                assert value == pinned, key
        assert trace.qp_status == ("optimal",) * 10001

    def test_benchmark(self, benchmark_run):
        _, trace, metrics, _ = benchmark_run
        self.assert_pinned("benchmark", trace, metrics)

    def test_crowded_3d(self):
        trace, metrics = run(load_scenario(CROWDED_3D))
        self.assert_pinned("crowded_3d", trace, metrics)


class TestBarrierPass:
    """The h a run records are the values its CBF rows were built from."""

    def test_each_barrier_evaluated_once_per_step(self, monkeypatch):
        parsed = parse_scenario(PATH_OBSTACLE_TEXT)
        assert parsed.obstacles[0].kind == "custom"
        # The step loop evaluates every barrier once a step, and a step whose
        # hint misses solves those same rows. An obstacle of plain callables
        # shows the count, as its velocity is a call that only the rows make.
        calls, misses = [], []
        parsed_obstacle, real_solve = parsed.obstacles[0], simulator.solve_rows

        def velocity(t):
            calls.append(t)
            return parsed_obstacle.velocity_path(t)

        def solve(*args):
            misses.append(None)
            return real_solve(*args)

        obstacle = Obstacle(parsed_obstacle.center_path, velocity, parsed_obstacle.radius, "custom")
        scenario = replace(parsed, obstacles=(obstacle,))
        monkeypatch.setattr(simulator, "solve_rows", solve)
        trace, _ = run(scenario, check=False)
        assert len(calls) == len(trace) and 0 < len(misses) < 0.05 * len(trace)
        monkeypatch.undo()
        for k in range(len(trace)):
            assert np.array_equal(trace.h[k], barrier_values(trace.c[k], trace.t[k], scenario))

    def test_recorded_h_is_bitwise_fresh_evaluation(self, benchmark_run):
        scenario, trace, _, _ = benchmark_run
        for k in range(len(trace)):
            assert np.array_equal(trace.h[k], barrier_values(trace.c[k], trace.t[k], scenario))


class TestWarmStart:
    """run() hands each QP the previous step's support, which the compiled
    solver tries alone; that changes no output."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.usefixtures("fresh_solvers")
    def test_working_set_calls_per_solve(self, monkeypatch):
        # A count, not a timing: the calls of the generated per-size
        # functions per solve. Warm, each step calls the one of its hint's
        # size and, when that does not certify, solve_qp calls one per set it
        # enumerates; cold, the benchmark needs about 2.4.
        calls, real = [], qp._compile_size

        def counting(*args):
            solve = real(*args)

            def counted(A, b, W):
                calls.append(None)
                return solve(A, b, W)

            return counted

        monkeypatch.setattr(qp, "_compile_size", counting)
        scenario = benchmark_scenario().with_overrides(dt=1e-2)
        trace, _ = run(scenario)
        assert len(trace) <= len(calls) <= 1.1 * len(trace)
        calls.clear()
        make_steps_cold(monkeypatch)
        trace, _ = run(scenario.with_overrides())
        assert len(calls) >= 2 * len(trace)

    def test_no_rank_test_on_the_benchmark(self, monkeypatch):
        # A count, not a timing: every tight set here is the certified
        # support, whose independence its Cholesky factor has shown.
        calls = self.count_calls(monkeypatch, np.linalg, "matrix_rank")
        trace, _ = run(benchmark_scenario().with_overrides(dt=1e-2))
        assert len(trace) == 1001 and calls == []

    def test_trace_is_bitwise_the_cold_start_trace(self, monkeypatch):
        scenario = benchmark_scenario().with_overrides(dt=1e-2)
        fallbacks = self.count_calls(monkeypatch, virtual, "solve_qp")
        warm, _ = run(scenario)
        assert len(fallbacks) <= 0.01 * len(warm)  # the warm run took the compiled path
        make_steps_cold(monkeypatch)
        cold, _ = run(scenario.with_overrides())
        for name in ("x", "c", "u", "u_c", "h", "qp_kkt"):
            assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name
        assert warm.qp_status == cold.qp_status


class TestCompiledExpressions:
    """The step loop runs compiled plant and path fields, never the interpreter."""

    @pytest.fixture(scope="class")
    def crowded(self):
        scenario = load_scenario(CROWDED_3D).with_overrides(dt=1e-2)
        assert scenario.plant.descriptor[0] == "exprs"
        assert sum(obs.path_source is not None for obs in scenario.obstacles) == 2
        return scenario

    def test_step_loop_calls_no_interpreter(self, crowded, monkeypatch):
        # A count, not a timing: neither the steps nor validate, the metrics
        # and verify_trace over the whole trace reach the interpreter.
        times = []
        real = exprs.eval_expr

        def counted(expr, t, x=None):
            times.append(t)
            return real(expr, t, x)

        for module in (exprs, plant, scenario_io):
            monkeypatch.setattr(module, "eval_expr", counted)
        trace, _ = run(crowded)
        assert len(trace) == 1001
        # A new trace object, so verify_trace takes its own margins rather
        # than those that run's metrics left for the same trace.
        assert verify_trace(replace(trace), crowded).all_passed
        assert times == []

    def test_trace_is_bitwise_the_interpreted_trace(self, crowded):
        compiled, _ = run(crowded)
        interpreted, _ = run(oracles.interpreted_scenario(crowded))
        for name in ("x", "c", "u", "u_c", "h", "qp_kkt"):
            assert np.array_equal(getattr(compiled, name), getattr(interpreted, name)), name
        assert compiled.qp_status == interpreted.qp_status


class TestVerifyTrace:
    def test_passing_run_verifies(self, benchmark_run):
        scenario, trace, _, _ = benchmark_run
        report = verify_trace(trace, scenario)
        assert report.all_passed
        assert {c.check_id for c in report.checks} == {"T1", "T2", "T3", "T4", "T5"}

    def test_injected_obstacle_hit_fails_t3(self, benchmark_run):
        scenario, trace, _, _ = benchmark_run
        k = len(trace) // 2
        x = trace.x.copy()
        x[k] = scenario.obstacles[0].center(trace.t[k])
        report = verify_trace(replace(trace, x=x), scenario)
        t3 = report.check("T3")
        assert not t3.passed
        assert t3.worst_time == pytest.approx(trace.t[k])

    def test_runs_no_controller_barrier_code(self, path_run, monkeypatch):
        scenario, trace = path_run
        calls = []
        for owner, name in (
            (virtual, "assemble_rows"), (virtual, "eval_avoidance"), (virtual, "eval_reach"), (oracles, "barrier_values")
        ):
            monkeypatch.setattr(owner, name, lambda *args, _name=name: calls.append(_name))
        assert verify_trace(trace, scenario).all_passed
        assert calls == []

    def test_t1_t2_match_per_sample_barriers(self, path_run):
        scenario, trace = path_run
        fresh = np.array([barrier_values(trace.c[k], trace.t[k], scenario) for k in range(len(trace))])
        report = verify_trace(trace, scenario)
        for check_id, per_sample in (("T1", fresh[:, :-1].min(axis=1)), ("T2", fresh[:, -1])):
            check = report.check(check_id)
            assert abs(check.worst_margin - per_sample.min()) <= 1e-12
            assert check.worst_time == trace.t[int(np.argmin(per_sample))]

    def test_injected_center_on_path_obstacle_fails_t1(self, path_run):
        scenario, trace = path_run
        k = len(trace) // 2
        c = trace.c.copy()
        c[k] = scenario.obstacles[0].center(trace.t[k])
        report = verify_trace(replace(trace, c=c), scenario)
        t1 = report.check("T1")
        assert not t1.passed
        assert t1.worst_time == trace.t[k]

    def test_margins_are_taken_once_per_run(self, monkeypatch):
        scenario = benchmark_scenario(dt=0.01)
        assert validate(scenario).all_passed  # validation samples centres too
        calls = []
        real = Obstacle.centers

        def counting(obs, ts):
            calls.append(obs)
            return real(obs, ts)

        monkeypatch.setattr(Obstacle, "centers", counting)
        trace, _ = run(scenario, check=False)
        assert verify_trace(trace, scenario).all_passed
        assert calls == list(scenario.obstacles)
        # A new trace object is re-checked from its own arrays.
        verify_trace(replace(trace, c=trace.c.copy()), scenario)
        assert calls == 2 * list(scenario.obstacles)

    def test_margin_memo_keeps_at_most_one_trace(self):
        scenario = benchmark_scenario(dt=0.01)
        first, _ = run(scenario, check=False)
        gone = weakref.ref(first)
        del first
        run(scenario, check=False)
        gc.collect()
        assert gone() is None

    def test_truncated_trace_fails_t5(self, benchmark_run):
        scenario, trace, _, _ = benchmark_run
        report = verify_trace(head(trace, len(trace) // 2), scenario)
        t5 = report.check("T5")
        assert not t5.passed
        assert "not evaluable" in t5.detail

    def test_trace_without_rows_is_not_evaluable(self):
        # Seed 3316's QP is infeasible at t = 0, so its abort's trace holds
        # no row: every check reports that, at margin -inf, and none raises.
        scenario = random_scenario(3316)
        with pytest.raises(SimulationAbort) as abort:
            run(scenario)
        assert abort.value.reason == simulator.QP_INFEASIBLE and len(abort.value.trace) == 0
        report = verify_trace(abort.value.trace, scenario)
        assert [c.check_id for c in report.checks] == ["T1", "T2", "T3", "T4", "T5"]
        assert all(not c.passed and c.worst_margin == -math.inf and c.detail.startswith("not evaluable")
                   for c in report.checks)
        assert report.format().splitlines()[0] == "T1: FAIL  worst margin -inf (not evaluable: trace has no rows)"

    @pytest.mark.parametrize("below", [False, True], ids=["at-the-bound", "one-ulp-below"])
    def test_verdict_and_t3_agree_at_the_clearance_bound(self, benchmark_run, below):
        # True clearance may dip to -clearance_tol. The verdict once failed a
        # run at exactly that bound, which T3 passed. An obstacle of radius
        # 2e-6 at (0, 10) and one state 1e-6 (or an ulp less) from its centre
        # make the clearance exactly -1e-6 (or just below it).
        scenario, trace, _, _ = benchmark_run
        probe = scenario.with_overrides(obstacles=(Obstacle.static([0.0, 10.0], 2e-6),), alphas=uniform_alphas(2))
        x = trace.x.copy()
        x[len(trace) // 2] = [np.nextafter(1e-6, 0.0) if below else 1e-6, 10.0]
        probe_trace = replace(trace, x=x)
        metrics = simulator.compute_metrics(probe_trace, probe)
        t3 = verify_trace(probe_trace, probe).check("T3")
        assert metrics.min_true_clearance == t3.worst_margin
        assert (t3.worst_margin == -scenario.clearance_tol) == (not below)
        assert (metrics.ptra_verdict == simulator.VERDICT_PASS) == t3.passed == (not below)

    def test_chain_consistency_center_safety_implies_state_safety(self, benchmark_run):
        scenario, trace, _, _ = benchmark_run
        avoid_h = trace.h[:, :-1].min(axis=1)
        e_hat = np.linalg.norm(trace.x - trace.c, axis=1) / scenario.r_c
        clearance = np.full(len(trace), np.inf)
        for obs in scenario.obstacles:
            centers = np.array([obs.center(t) for t in trace.t])
            clearance = np.minimum(
                clearance, np.linalg.norm(trace.x - centers, axis=1) - obs.radius
            )
        implied = (avoid_h >= 0.0) & (e_hat < 1.0)
        assert np.all(clearance[implied] >= -scenario.clearance_tol)


class TestTraceIo:
    def test_round_trip_exact(self, tmp_path, benchmark_run):
        _, trace, _, _ = benchmark_run
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        loaded = read_trace(path)
        np.testing.assert_array_equal(loaded.t, trace.t)
        np.testing.assert_array_equal(loaded.x, trace.x)
        np.testing.assert_array_equal(loaded.c, trace.c)
        np.testing.assert_array_equal(loaded.u, trace.u)
        np.testing.assert_array_equal(loaded.u_c, trace.u_c)
        np.testing.assert_array_equal(loaded.h, trace.h)
        np.testing.assert_array_equal(loaded.e_hat, trace.e_hat)
        np.testing.assert_array_equal(loaded.qp_kkt, trace.qp_kkt)
        assert loaded.qp_status == trace.qp_status
        assert loaded.scenario_hash == trace.scenario_hash
        assert loaded.dt == trace.dt

    def test_decimation_keeps_last_record(self, tmp_path, benchmark_run):
        _, trace, _, _ = benchmark_run
        path = tmp_path / "thin.csv"
        write_trace(trace, path, decimate=100)
        loaded = read_trace(path)
        expected = len(set(range(0, len(trace), 100)) | {len(trace) - 1})
        assert len(loaded) == expected
        assert loaded.t[-1] == trace.t[-1]

    def test_empty_trace_writes_header_only(self, tmp_path, benchmark_run):
        _, trace, _, _ = benchmark_run
        path = tmp_path / "empty.csv"
        write_trace(head(trace, 0), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("# ") for line in lines[:3])
        assert lines[3].startswith("t,x1,x2,c1,c2,")

    def test_rejects_bad_decimation(self, tmp_path, benchmark_run):
        _, trace, _, _ = benchmark_run
        with pytest.raises(ValueError):
            write_trace(trace, tmp_path / "x.csv", decimate=0)


def test_recorder_trace_views_its_columns():
    # The columns are appended to as floats and viewed, not copied, by trace().
    scenario = benchmark_scenario()
    recorder = simulator._Recorder(scenario, "hash")
    assert recorder.trace().x.shape == (0, 2) and recorder.trace().h.shape == (0, 3)
    recorder = simulator._Recorder(scenario, "hash")
    solution = qp.QpSolution((1.0, 2.0), (), 0.0, qp.OPTIMAL, (0.0, 0.0, 0.0))
    for k in range(3):
        recorder.add(0.1 * k, [k, 2.0], [0.5, -0.0], 0.25, [0.0, k], (1.0, 2.0), solution, [1.0, 2.0, k])
    first, second = recorder.trace(), recorder.trace()
    assert first.x.tolist() == [[0.0, 2.0], [1.0, 2.0], [2.0, 2.0]]
    assert first.h[:, 2].tolist() == [0.0, 1.0, 2.0] and first.e_hat.tolist() == [0.5] * 3
    assert first.qp_status == (qp.OPTIMAL,) * 3 and math.copysign(1.0, first.c[2, 1]) == -1.0
    for name in ("t", "x", "c", "u", "u_c", "h", "e_hat", "qp_kkt"):
        assert np.shares_memory(getattr(first, name), getattr(second, name)), name
