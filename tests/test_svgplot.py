"""SVG figure emitter: structure, determinism, snapshot content."""

import hashlib
import xml.dom.minidom

import numpy as np
import pytest

from vczsim.scenario_io import benchmark_scenario
from vczsim.simulator import SimTrace, run
from vczsim.svgplot import render_figure


def small_run():
    scenario = benchmark_scenario(dt=0.01)
    trace, _ = run(scenario)
    return scenario, trace


def test_figure_is_well_formed_and_deterministic(tmp_path):
    scenario, trace = small_run()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_figure(trace, scenario, a, snapshot_times=[0.0, 5.0, 10.0])
    render_figure(trace, scenario, b, snapshot_times=[0.0, 5.0, 10.0])
    xml.dom.minidom.parse(str(a))
    assert a.read_bytes() == b.read_bytes()


def test_obstacle_snapshots_and_families(tmp_path):
    scenario, trace = small_run()
    out = tmp_path / "fig.svg"
    render_figure(trace, scenario, out, snapshot_times=[0.0, 5.0, 10.0])
    svg = out.read_text()
    # two obstacle families at three snapshot times, plus target, two shrink
    # circles, and the start marker
    assert svg.count("<circle") == 2 * 3 + 1 + 2 + 1
    for label in ("t=0", "t=5", "t=10"):
        assert svg.count(f">{label}<") == 2
    assert ">target<" in svg


def test_obstacle_free_scenario_has_no_obstacle_circles(tmp_path):
    import numpy as np
    from dataclasses import replace

    from vczsim.scenario import uniform_alphas

    scenario = benchmark_scenario(dt=0.01)
    scenario = replace(scenario, obstacles=(), alphas=uniform_alphas(1))
    trace, _ = run(scenario)
    out = tmp_path / "fig.svg"
    render_figure(trace, scenario, out)
    assert out.read_text().count("<circle") == 1 + 2 + 1  # target + shrink pair + start


def hand_built_trace(scenario, samples=2501):
    """Polynomial state and centre paths: only + and *, so the pixels do not
    depend on any solver or math library."""
    t = np.linspace(0.0, scenario.t_f, samples)
    s = t / scenario.t_f
    x = np.column_stack([8.0 * s * s, 8.0 * s - 6.0 * s * s * s])
    c = x + np.column_stack([0.1 * (1.0 - s), -0.05 * s * s])
    zeros = np.zeros_like(x)
    return SimTrace(
        t=t,
        x=x,
        c=c,
        u=zeros,
        u_c=zeros,
        h=np.zeros((samples, len(scenario.obstacles) + 1)),
        e_hat=np.zeros(samples),
        qp_status=("optimal",) * samples,
        qp_kkt=np.zeros(samples),
        scenario_hash="",
        dt=scenario.t_f / (samples - 1),
    )


@pytest.mark.parametrize(
    "snapshots, digest",
    [
        (None, "5e5bc1256c322c27bd22d77c25574f4a5420580f4b57776805dfc340dbbf771c"),
        ([0.0, 2.5, 7.5], "eacb9cea002c46c32798245771a6fef9c85809e254f42073e34c2046fd863c3d"),
    ],
)
def test_figure_bytes_are_pinned(tmp_path, snapshots, digest):
    """The digests are those of the point-at-a-time polyline mapping."""
    scenario = benchmark_scenario()
    out = tmp_path / "fig.svg"
    render_figure(hand_built_trace(scenario), scenario, out, snapshots)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
