"""Barrier functions for moving-obstacle avoidance and prescribed-time reach.

Avoidance barriers measure squared distance of the guided center to an
obstacle center against the obstacle radius inflated by the confinement
radius; the reach barrier measures containment in a ball whose radius
shrinks affinely to force arrival at the horizon. Both report value,
spatial gradient, and time partial so a QP row can be assembled from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

STATIC = "static"
LINEAR = "linear"
CUSTOM = "custom"

CUSTOM_VELOCITY_FD_STEP = 1e-5


class TimeDomainError(ValueError):
    """Time outside the schedule horizon [0, t_f]."""


@dataclass(frozen=True)
class Obstacle:
    """Open-ball obstacle with a known center path and velocity.

    centers_path, when given, maps a 1-D array of times to the (len, n)
    array of centres, row k bitwise equal to center_path(ts[k]).
    """

    center_path: Callable[[float], np.ndarray]
    velocity_path: Callable[[float], np.ndarray]
    radius: float
    kind: str
    path_source: tuple[str, ...] | None = None
    centers_path: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"obstacle radius must be > 0, got {self.radius}")
        if self.kind not in (STATIC, LINEAR, CUSTOM):
            raise ValueError(f"unknown obstacle kind '{self.kind}'")

    @staticmethod
    def static(center, radius: float) -> "Obstacle":
        p0 = np.array(center, dtype=float)
        zero = np.zeros_like(p0)
        return Obstacle(
            lambda t: p0,
            lambda t: zero,
            float(radius),
            STATIC,
            centers_path=lambda ts: np.broadcast_to(p0, (len(ts),) + p0.shape),
        )

    @staticmethod
    def linear(p0, velocity, radius: float) -> "Obstacle":
        p0 = np.array(p0, dtype=float)
        v = np.array(velocity, dtype=float)
        if p0.shape != v.shape:
            raise ValueError("center and velocity dimensions disagree")
        return Obstacle(
            lambda t: p0 + v * t,
            lambda t: v,
            float(radius),
            LINEAR,
            centers_path=lambda ts: p0 + v * ts[:, None],
        )

    @staticmethod
    def custom(
        path: Callable[[float], np.ndarray],
        radius: float,
        fd_step: float = CUSTOM_VELOCITY_FD_STEP,
        path_source: tuple[str, ...] | None = None,
        centers_path: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> "Obstacle":
        def velocity(t: float) -> np.ndarray:
            lo = np.asarray(path(t - fd_step), dtype=float)
            hi = np.asarray(path(t + fd_step), dtype=float)
            return (hi - lo) / (2.0 * fd_step)

        return Obstacle(path, velocity, float(radius), CUSTOM, path_source, centers_path)

    def center(self, t: float) -> np.ndarray:
        return np.asarray(self.center_path(t), dtype=float)

    def centers(self, ts) -> np.ndarray:
        """Centres at every time in ts as a (len(ts), n) array; row k equals
        center(ts[k]) bitwise. A path without centers_path is sampled one
        time at a time."""
        ts = np.asarray(ts, dtype=float)
        if self.centers_path is None:
            return np.array([self.center(t_k) for t_k in ts])
        return np.asarray(self.centers_path(ts), dtype=float)

    def velocity(self, t: float) -> np.ndarray:
        return np.asarray(self.velocity_path(t), dtype=float)


@dataclass(frozen=True)
class TargetSet:
    """Closed-ball target region."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError(f"target radius must be > 0, got {self.radius}")


@dataclass(frozen=True)
class ShrinkSchedule:
    """Affine nonincreasing radius from r_start at t=0 to r_end at t_f."""

    r_start: float
    r_end: float
    t_f: float

    def __post_init__(self):
        if not (self.r_start >= self.r_end > 0):
            raise ValueError(
                f"need r_start >= r_end > 0, got ({self.r_start}, {self.r_end})"
            )
        if self.t_f <= 0:
            raise ValueError(f"horizon must be > 0, got {self.t_f}")

    def radius_at(self, t: float) -> float:
        # Integrator endpoints and finite-difference probes graze the horizon;
        # the affine formula extrapolates exactly, so allow a small band.
        tol = 1e-5 * max(1.0, self.t_f)
        if t < -tol or t > self.t_f + tol:
            raise TimeDomainError(f"t = {t} outside [0, {self.t_f}]")
        return (self.r_end - self.r_start) * (t / self.t_f) + self.r_start

    def rate_of(self) -> float:
        return (self.r_end - self.r_start) / self.t_f


@dataclass(frozen=True)
class BarrierEval:
    """Barrier value with its spatial gradient and time partial."""

    value: float
    grad_c: np.ndarray
    dt: float


@dataclass(frozen=True)
class ClassKappa:
    """Linear class-K relaxation gamma(h) = slope * h."""

    slope: float = 1.0

    def __post_init__(self):
        if self.slope <= 0:
            raise ValueError(f"class-K slope must be > 0, got {self.slope}")

    def __call__(self, h: float) -> float:
        return self.slope * h


def eval_avoidance(c, t: float, obstacle: Obstacle, r_c: float) -> BarrierEval:
    """h = ||c - b_u(t)||^2 - (r_u + r_c)^2 for the r_c-inflated obstacle."""
    if r_c <= 0:
        raise ValueError(f"confinement radius must be > 0, got {r_c}")
    c = np.asarray(c, dtype=float)
    delta = c - obstacle.center(t)
    inflated = obstacle.radius + r_c
    value = float(delta @ delta) - inflated * inflated
    return BarrierEval(value, 2.0 * delta, float(-2.0 * (delta @ obstacle.velocity(t))))


def eval_reach(c, t: float, target_center, schedule: ShrinkSchedule) -> BarrierEval:
    """h = r_r(t)^2 - ||c - b_R||^2 for the shrinking containment ball."""
    c = np.asarray(c, dtype=float)
    delta = c - np.asarray(target_center, dtype=float)
    r = schedule.radius_at(t)
    value = r * r - float(delta @ delta)
    return BarrierEval(value, -2.0 * delta, 2.0 * r * schedule.rate_of())
