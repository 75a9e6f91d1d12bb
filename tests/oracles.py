"""Independent numerical oracles for certifying the analytic code paths.

Central finite differences check barrier gradients and time partials;
seeded sphere sampling supports the containment checks; a grid search
checks the QP solver. Everything here is
deliberately dumb: the value of an oracle is that it shares no code with
what it certifies. barrier_values is the exception: it is the controller's
own per-sample barrier evaluation, kept as the reference that recorded h
and the whole-trace checks of verify_trace are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from vczsim.barriers import eval_avoidance, eval_reach
from vczsim.confinement import ConfinementLaw
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


class GridInfeasibleError(RuntimeError):
    """No grid point satisfies the constraints (brute-force oracle)."""


def objective(problem: QpProblem, u) -> float:
    """QP cost 1/2 u'Hu + F'u."""
    u = np.asarray(u, dtype=float)
    return float(0.5 * u @ problem.H @ u + problem.F @ u)


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
