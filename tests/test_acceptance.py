"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The bundled benchmark runs once per step size through session
fixtures and is shared across criteria.
"""

import math
import time

import numpy as np

from conftest import minimizer_box_bound, random_qp_problem
from oracles import brute_force_qp, fd_gradient, objective, small_error_slope, sphere_sample
from vczsim.barriers import eval_avoidance, eval_reach
from vczsim.confinement import ConfinementLaw, confinement_control
from vczsim.qp import solve_qp
from vczsim.randomized import run_campaign
from vczsim.scenario import benchmark_scenario


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_benchmark_reproduction(benchmark_run):
    scenario, trace, metrics, elapsed = benchmark_run
    terminal_ok = metrics.terminal_distance <= 1.1
    clearance_ok = metrics.min_true_clearance >= -1e-6
    center_ok = metrics.min_center_clearance >= -1e-3
    confinement_ok = metrics.max_e_hat < 1.0
    ok = (
        elapsed < 10.0
        and metrics.ptra_verdict == "pass"
        and terminal_ok
        and clearance_ok
        and center_ok
        and confinement_ok
    )
    report(
        "benchmark reproduction",
        ok,
        f"{elapsed:.2f}s, verdict={metrics.ptra_verdict}, "
        f"terminal={metrics.terminal_distance:.4f}, "
        f"min_true_clearance={metrics.min_true_clearance:.4f}, "
        f"min_center_clearance={metrics.min_center_clearance:.4f}, "
        f"max_e_hat={metrics.max_e_hat:.4f}",
    )


def test_forward_invariance_campaign():
    summary = run_campaign(count=20, base_seed=2024)
    candidates = [r for r in summary.runs if r.status != "qp_infeasible" and r.all_qp_optimal]
    min_h = min((r.min_barrier_value for r in candidates), default=math.inf)
    ok = summary.invariance_holds() and len(candidates) > 0
    report(
        "forward invariance campaign",
        ok,
        f"{len(summary.runs)} scenarios, {len(summary.completed)} completed, "
        f"{summary.infeasible_count} qp-infeasible ({100 * summary.infeasible_count / 20:.0f}%, "
        f"excluded and counted), worst min_h={min_h:.2e} >= -1e-3",
    )


def test_qp_certification():
    rng = np.random.default_rng(2718)
    points = 161
    worst_kkt = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        problem, feasible = random_qp_problem(rng)
        sol = solve_qp(problem)
        worst_kkt = max(worst_kkt, sol.kkt_residual)
        assert sol.kkt_residual <= 1e-8
        box = minimizer_box_bound(problem, feasible)
        grid = brute_force_qp(problem, box, points)
        step = 2.0 * box / (points - 1) * math.sqrt(2)
        gap = objective(problem, grid) - objective(problem, sol.u_star)
        assert gap >= -1e-9  # the solver never loses to a feasible grid point
        # objective agreement at the cost resolution of one grid cell; the
        # Euclidean argmin drifts along the active-constraint slack band, so
        # distance gets a measured geometric envelope instead of one cell
        lam_max = float(np.linalg.eigvalsh(problem.H).max())
        band = step * np.linalg.norm(problem.H @ grid + problem.F) + 0.5 * lam_max * step**2
        assert gap <= 2.0 * band
        assert np.linalg.norm(grid - sol.u_star) <= 6.0 * step
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    report(
        "qp certification",
        ok,
        f"1000 problems, worst kkt={worst_kkt:.2e} <= 1e-8, oracle agreement at "
        f"one-cell cost resolution, {elapsed:.2f}s < 5s",
    )


def test_derivative_certification(benchmark_run):
    scenario, _, _, _ = benchmark_run
    rng = np.random.default_rng(31415)
    worst = 0.0
    for obs in scenario.obstacles:
        for _ in range(100):
            c = rng.uniform(-2.0, 12.0, size=2)
            t = float(rng.uniform(0.0, scenario.t_f))
            ev = eval_avoidance(c, t, obs, scenario.r_c)
            grad_fd, dt_fd = fd_gradient(
                lambda p, s: eval_avoidance(p, s, obs, scenario.r_c).value, c, t
            )
            rel_g = np.linalg.norm(grad_fd - ev.grad_c) / max(1.0, np.linalg.norm(ev.grad_c))
            rel_t = abs(dt_fd - ev.dt) / max(1.0, abs(ev.dt))
            worst = max(worst, rel_g, rel_t)
    for _ in range(100):
        c = rng.uniform(-2.0, 12.0, size=2)
        t = float(rng.uniform(0.0, scenario.t_f))
        ev = eval_reach(c, t, scenario.target.center, scenario.shrink)
        grad_fd, dt_fd = fd_gradient(
            lambda p, s: eval_reach(p, s, scenario.target.center, scenario.shrink).value, c, t
        )
        rel_g = np.linalg.norm(grad_fd - ev.grad_c) / max(1.0, np.linalg.norm(ev.grad_c))
        rel_t = abs(dt_fd - ev.dt) / max(1.0, abs(ev.dt))
        worst = max(worst, rel_g, rel_t)
    ok = worst <= 1e-5
    report("derivative certification", ok, f"worst relative error {worst:.2e} <= 1e-5")


def test_confinement_continuity():
    law = ConfinementLaw(gain=10.0, r_c=0.5)
    slope = small_error_slope(law)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(16):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        for scale in (1e-2, 1e-4, 1e-6, 1e-8):
            e = direction * scale * law.r_c
            ratio = np.linalg.norm(confinement_control(e, float(np.linalg.norm(e)), law)) / np.linalg.norm(e)
            if scale == 1e-8:
                worst = max(worst, abs(ratio - slope) / slope)
    zero = confinement_control(np.zeros(2), 0.0, law)
    ok = worst <= 0.01 and np.array_equal(zero, np.zeros(2))
    report(
        "confinement continuity",
        ok,
        f"worst slope error {worst:.2e} <= 1% at |e| = 1e-8 r_c over 16 directions, u(0) = 0",
    )


def test_virtual_input_boundedness(benchmark_run):
    scenario, _, metrics, _ = benchmark_run
    ok = metrics.max_u_c_norm <= scenario.u_c_ceiling and metrics.u_c_within_ceiling
    report(
        "virtual input boundedness",
        ok,
        f"max |u_c| = {metrics.max_u_c_norm:.3f} <= {scenario.u_c_ceiling} (reported in metrics)",
    )


def test_implication_chain(benchmark_run):
    scenario, trace, _, _ = benchmark_run
    directions = sphere_sample(np.zeros(2), 1.0, 64, seed=0)
    radius = scenario.r_c * (1.0 - 1e-9)
    violations = 0
    for k in range(len(trace)):
        pts = trace.c[k] + radius * directions
        for obs in scenario.obstacles:
            d = np.linalg.norm(pts - obs.center(trace.t[k]), axis=1)
            violations += int(np.sum(d < obs.radius))
    ok = violations == 0
    report(
        "implication chain",
        ok,
        f"{len(trace)} records x 64 sphere samples x {len(scenario.obstacles)} obstacles, "
        f"{violations} violations",
    )


def test_discretization_robustness(benchmark_run, benchmark_run_fine):
    _, _, coarse, _ = benchmark_run
    _, _, fine = benchmark_run_fine[0], benchmark_run_fine[1], benchmark_run_fine[2]
    d_terminal = abs(coarse.terminal_distance - fine.terminal_distance)
    d_clearance = abs(coarse.min_true_clearance - fine.min_true_clearance)
    ok = d_terminal < 1e-3 and d_clearance < 1e-3
    report(
        "discretization robustness",
        ok,
        f"dt 1e-3 vs 5e-4: |d terminal| = {d_terminal:.2e}, "
        f"|d min_true_clearance| = {d_clearance:.2e}, both < 1e-3",
    )
