"""Randomized scenario generator: reproducibility and validity."""

import numpy as np
import pytest

from vczsim import simulator
from vczsim.randomized import WORKSPACE, random_scenario, run_campaign
from vczsim.simulator import QP_INFEASIBLE, SimulationAbort, run
from vczsim.virtual import QpInfeasibleError
from vczsim.scenario import validate
from vczsim.scenario_io import scenario_hash


def test_same_seed_same_scenario():
    a = random_scenario(4242)
    b = random_scenario(4242)
    assert scenario_hash(a) == scenario_hash(b)
    np.testing.assert_array_equal(a.x0, b.x0)
    assert a.t_f == b.t_f
    assert len(a.obstacles) == len(b.obstacles)
    for oa, ob in zip(a.obstacles, b.obstacles):
        assert oa.kind == ob.kind and oa.radius == ob.radius
        np.testing.assert_array_equal(oa.center(1.0), ob.center(1.0))


def test_generated_scenarios_validate_and_fit_workspace():
    lo, hi = WORKSPACE
    for seed in range(100, 110):
        scenario = random_scenario(seed)
        assert validate(scenario, 101).all_passed
        assert np.all(scenario.x0 >= lo) and np.all(scenario.x0 <= hi)
        assert np.all(scenario.target.center >= lo) and np.all(scenario.target.center <= hi)


def test_small_campaign_is_reproducible():
    a = run_campaign(count=3, base_seed=77)
    b = run_campaign(count=3, base_seed=77)
    assert a.runs == b.runs
    assert a.infeasible_count == b.infeasible_count


def test_campaign_validates_only_inside_random_scenario(monkeypatch):
    # random_scenario validates what it returns; the run must not do it again
    calls = []
    real = simulator.validate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "validate", counted)
    summary = run_campaign(count=2, base_seed=2024, dt=1e-2)
    assert len(summary.runs) == 2
    assert calls == []


def test_seed_2026_aborts_on_the_same_rows():
    # Regression fixture: the one campaign seed of 2024-2043 whose CBF-QP
    # becomes infeasible. Any controller or solver change that moves the abort
    # time or the conflicting barrier rows shows up here.
    with pytest.raises(SimulationAbort) as exc_info:
        run(random_scenario(2026), check=False)
    abort = exc_info.value
    assert abort.reason == QP_INFEASIBLE
    assert abort.t == pytest.approx(2.8, abs=1e-9)
    assert len(abort.trace) == 1120
    assert isinstance(abort.__cause__, QpInfeasibleError)
    assert abort.__cause__.conflicting == (0, 2, 3)
