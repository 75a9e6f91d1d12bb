"""Independent numerical oracles for certifying the analytic code paths.

Central finite differences check barrier gradients and time partials;
seeded sphere sampling supports the containment checks; a grid search
checks the QP solver, and numpy_check_kkt is the all-numpy form of its
certificate. Everything here is
deliberately dumb: the value of an oracle is that it shares no code with
what it certifies. barrier_values is the exception: it is the controller's
own per-sample barrier evaluation, kept as the reference that recorded h
and the whole-trace checks of verify_trace are compared against.
interpreted_scenario rebuilds a scenario's expression fields on the
reference interpreter, which the compiled fields must match bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from vczsim.barriers import Obstacle, eval_avoidance, eval_reach
from vczsim.confinement import ConfinementLaw
from vczsim.exprs import eval_expr, parse_expr
from vczsim.qp import QpInputError, QpProblem


@dataclass(frozen=True)
class FdConfig:
    """Central-difference step; barrier fields are quadratic, so one fixed
    step is exact up to roundoff."""

    step: float = 1e-6

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")


def fd_gradient(
    field: Callable[[np.ndarray, float], float],
    c,
    t: float,
    cfg: FdConfig = FdConfig(),
) -> tuple[np.ndarray, float]:
    """Central differences of field(c, t) in each coordinate of c and in t."""
    c = np.asarray(c, dtype=float)
    h = cfg.step
    grad = np.zeros_like(c)
    for i in range(c.size):
        bump = np.zeros_like(c)
        bump[i] = h
        grad[i] = (field(c + bump, t) - field(c - bump, t)) / (2.0 * h)
    dt = (field(c, t + h) - field(c, t - h)) / (2.0 * h)
    return grad, float(dt)


def sphere_sample(c, r: float, count: int, seed: int) -> np.ndarray:
    """Seed-reproducible points on the sphere of radius r about c, (count, n)."""
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    c = np.asarray(c, dtype=float)
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((count, c.size))
    norms = np.linalg.norm(directions, axis=1)
    while np.any(norms < 1e-12):  # degenerate draws are astronomically rare
        redraws = norms < 1e-12
        directions[redraws] = rng.standard_normal((int(redraws.sum()), c.size))
        norms = np.linalg.norm(directions, axis=1)
    return c + r * directions / norms[:, None]


def difference_quotient_bound(
    fn: Callable[[np.ndarray], np.ndarray], box_lo, box_hi, pairs: int, seed: int
) -> float:
    """Largest sampled |fn(x) - fn(y)| / |x - y| over random pairs in a box."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    worst = 0.0
    for _ in range(pairs):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        gap = float(np.linalg.norm(x - y))
        if gap < 1e-9:
            continue
        quotient = float(np.linalg.norm(np.asarray(fn(x)) - np.asarray(fn(y)))) / gap
        worst = max(worst, quotient)
    return worst


def barrier_values(c, t: float, scenario) -> np.ndarray:
    """The controller's barrier values at (c, t): obstacles in declaration
    order, then the reach barrier."""
    evals = [eval_avoidance(c, t, obs, scenario.r_c) for obs in scenario.obstacles]
    evals.append(eval_reach(c, t, scenario.target.center, scenario.shrink))
    return np.array([ev.value for ev in evals])


def interpreted_scenario(scenario):
    """The scenario with its expression plant and its path obstacles built
    from eval_expr closures: the reference for the compiled fields."""
    plant = scenario.plant
    if plant.descriptor is not None and plant.descriptor[0] == "exprs":
        _, f_src, g_src, omega_src = plant.descriptor
        f = [parse_expr(s) for s in f_src]
        g = [[parse_expr(s) for s in row] for row in g_src]
        omega = [parse_expr(s) for s in omega_src]
        plant = replace(
            plant,
            drift=lambda x: np.array([eval_expr(e, 0.0, x) for e in f]),
            input_map=lambda x: np.array([[eval_expr(e, 0.0, x) for e in row] for row in g]),
            disturbance=lambda t: np.array([eval_expr(e, t) for e in omega]),
        )

    def interpreted(obs):
        if obs.path_source is None:
            return obs
        exprs = [parse_expr(s) for s in obs.path_source]

        def path(t):
            return np.array([eval_expr(e, t) for e in exprs])

        return Obstacle.custom(path, obs.radius, path_source=obs.path_source, centers_path=obs.centers_path)

    return replace(scenario, plant=plant, obstacles=tuple(map(interpreted, scenario.obstacles)))


class GridInfeasibleError(RuntimeError):
    """No grid point satisfies the constraints (brute-force oracle)."""


def objective(problem: QpProblem, u) -> float:
    """QP cost 1/2 u'Hu + F'u."""
    u = np.asarray(u, dtype=float)
    return float(0.5 * u @ problem.H @ u + problem.F @ u)


def numpy_check_kkt(problem, candidate, multipliers) -> float:
    """The KKT certificate with every term a numpy reduction: the reference
    that qp.check_kkt, which takes its terms on Python floats, must match
    bitwise, NaN for NaN."""
    u = np.asarray(candidate, dtype=float).ravel()
    lam = np.asarray(multipliers, dtype=float).ravel()
    if u.shape != (problem.m,):
        raise QpInputError(f"candidate must have length {problem.m}")
    if lam.shape != (problem.d,):
        raise QpInputError(f"multipliers must have length {problem.d}")
    stationarity = float(np.linalg.norm(problem.H @ u + problem.F - problem.A.T @ lam))
    if problem.d == 0:
        return stationarity
    slack = problem.A @ u - problem.b
    terms = (stationarity, float(np.max(-slack)), float(np.max(-lam)), float(np.max(np.abs(lam * slack))))
    return math.nan if any(map(math.isnan, terms)) else max(0.0, *terms)


def brute_force_qp(
    problem: QpProblem, box_half_width: float, grid_points_per_axis: int
) -> np.ndarray:
    """Grid-search oracle: best feasible point of a uniform grid on [-w, w]^m.

    Only sensible for m <= 3; the box must contain the analytic minimizer.
    """
    m = problem.m
    if m > 3:
        raise QpInputError(f"brute_force_qp supports m <= 3, got m = {m}")
    if box_half_width <= 0 or grid_points_per_axis < 2:
        raise QpInputError("need box_half_width > 0 and grid_points_per_axis >= 2")
    axis = np.linspace(-box_half_width, box_half_width, grid_points_per_axis)
    grids = np.meshgrid(*([axis] * m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    if problem.d:
        slack = 1e-12 * np.maximum(1.0, np.abs(problem.b))
        feasible = np.all(pts @ problem.A.T >= problem.b - slack, axis=1)
        if not np.any(feasible):
            raise GridInfeasibleError("no feasible point on the grid")
        pts = pts[feasible]
    cost = 0.5 * np.einsum("ni,ij,nj->n", pts, problem.H, pts) + pts @ problem.F
    return pts[int(np.argmin(cost))].copy()


def small_error_slope(law: ConfinementLaw) -> float:
    """Local slope 2|gain|/r_c of ||u|| in ||e|| near the origin."""
    return 2.0 * abs(law.gain) / law.r_c
