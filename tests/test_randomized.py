"""Randomized scenario generator: reproducibility and validity."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import uncertified_from
from vczsim import simulator
from vczsim.randomized import WORKSPACE, CampaignRun, CampaignSummary, random_scenario, run_campaign
from vczsim.simulator import QP_INFEASIBLE, QP_UNCERTIFIED, SimulationAbort, run
from vczsim.virtual import QpInfeasibleError
from vczsim.scenario import validate
from vczsim.scenario_io import parse_scenario, scenario_hash, serialize_scenario


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


def _run_to_end(scenario):
    """(trace, abort or None) of a run."""
    try:
        return run(scenario, check=False)[0], None
    except SimulationAbort as abort:
        return abort.trace, abort


@pytest.mark.parametrize(
    "seed, digest",
    [(2024, "5a5305e8777e0f83"), (2025, "685eb982244442bc"), (2026, "02a834932c137243"), (2027, "a412ca74985ac196")],
)
def test_campaign_scenario_round_trips_through_its_file(seed, digest):
    # A random plant is expression trees with its drawn numbers as exact
    # literals, so its scenario serializes, and the file reproduces the run.
    scenario = random_scenario(seed)
    text = serialize_scenario(scenario)
    reparsed = parse_scenario(text)
    assert serialize_scenario(reparsed) == text
    assert scenario_hash(scenario) == scenario_hash(reparsed) == digest
    (trace, abort), (again, abort_again) = _run_to_end(scenario), _run_to_end(reparsed)
    for name in ("t", "x", "c", "u", "u_c", "h", "e_hat", "qp_kkt"):
        assert getattr(trace, name).tobytes() == getattr(again, name).tobytes(), name
    assert trace.qp_status == again.qp_status and trace.scenario_hash == again.scenario_hash
    if seed == 2026:
        for stop in (abort, abort_again):
            assert stop.reason == QP_INFEASIBLE
            assert stop.t == pytest.approx(2.8, abs=1e-9)
            assert stop.__cause__.conflicting == (0, 2, 3)
    else:
        assert abort is None and abort_again is None


@pytest.mark.usefixtures("cold_steps")
def test_uncertified_seed_is_counted_and_the_others_kept(monkeypatch):
    real = simulator.solve_rows
    uncertified = uncertified_from(100, real)

    def solve(A, b, c, t, scenario, hint=()):
        return (uncertified if scenario.seed == 2025 else real)(A, b, c, t, scenario, hint)

    monkeypatch.setattr(simulator, "solve_rows", solve)
    summary = run_campaign(count=3, base_seed=2024, dt=1e-2)
    assert [r.status for r in summary.runs] == ["completed", QP_UNCERTIFIED, QP_INFEASIBLE]
    assert summary.runs[1].detail == "aborted at t = 1.000"
    assert (summary.uncertified_count, summary.infeasible_count) == (1, 1)
    assert "3 scenarios: 1 completed, 1 qp-infeasible (33.3%), 1 qp-uncertified, 0 breached" in summary.format_table()


def test_invariance_excludes_only_infeasible_runs():
    low = CampaignRun(1, 1, QP_UNCERTIFIED, True, -1.0, 0.0, "fail")
    assert not CampaignSummary((low,)).invariance_holds()
    assert CampaignSummary((replace(low, status=QP_INFEASIBLE),)).invariance_holds()


def test_campaign_row_of_an_abort_at_t_zero():
    # Seed 3316's first QP is infeasible, so its partial trace has no rows.
    summary = run_campaign(count=1, base_seed=3316)
    assert summary.runs == (CampaignRun(3316, 2, QP_INFEASIBLE, True, np.inf, 0.0, "fail", "aborted at t = 0.000"),)
    row = summary.format_table().splitlines()[2]
    assert row.split() == ["3316", "2", QP_INFEASIBLE, "inf", "0.000", "fail"]
