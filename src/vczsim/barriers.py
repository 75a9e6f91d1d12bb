"""Barrier functions for moving-obstacle avoidance and prescribed-time reach.

Avoidance barriers measure squared distance of the guided center to an
obstacle center against the obstacle radius inflated by the confinement
radius; the reach barrier measures containment in a ball whose radius
shrinks affinely to force arrival at the horizon. Both report value,
spatial gradient, and time partial so a QP row can be assembled from them.

A step evaluates them on Python floats: obstacle paths return float
sequences and the barriers take 2- and 3-vectors as sequences, where a numpy
call costs more than its arithmetic. Obstacle.center, Obstacle.velocity and
Obstacle.centers give numpy arrays for whole-trace work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul, sub
from typing import Callable, NamedTuple, Sequence

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

    center_path and velocity_path map a time to n floats. centers_path, when
    given, maps a 1-D array of times to the (len, n) array of centres, row k
    bitwise equal to center_path(ts[k]).
    """

    center_path: Callable[[float], Sequence[float]]
    velocity_path: Callable[[float], Sequence[float]]
    radius: float
    kind: str
    path_source: tuple[str, ...] | None = None
    centers_path: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not self.radius > 0:  # also rejects NaN
            raise ValueError(f"obstacle radius must be > 0, got {self.radius}")
        if self.kind not in (STATIC, LINEAR, CUSTOM):
            raise ValueError(f"unknown obstacle kind '{self.kind}'")

    @staticmethod
    def static(center, radius: float) -> "Obstacle":
        p0 = np.array(center, dtype=float)
        point, zero = tuple(p0.tolist()), (0.0,) * p0.size
        return Obstacle(
            lambda t: point,
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
        start, rate = tuple(p0.tolist()), tuple(v.tolist())
        return Obstacle(
            lambda t: [p + w * t for p, w in zip(start, rate)],  # bitwise p0 + v * t
            lambda t: rate,
            float(radius),
            LINEAR,
            centers_path=lambda ts: p0 + v * ts[:, None],
        )

    @staticmethod
    def custom(
        path: Callable[[float], Sequence[float]],
        radius: float,
        fd_step: float = CUSTOM_VELOCITY_FD_STEP,
        path_source: tuple[str, ...] | None = None,
        centers_path: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> "Obstacle":
        width = 2.0 * fd_step

        def velocity(t: float) -> list[float]:
            # Central difference, elementwise (hi - lo) / (2 fd_step).
            return [d / width for d in map(sub, path(t + fd_step), path(t - fd_step))]

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
    """Closed-ball target region; `point` is the center as floats."""

    center: np.ndarray
    radius: float
    point: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "point", tuple(self.center.tolist()))
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


class BarrierEval(NamedTuple):
    """Barrier value with its spatial gradient and time partial."""

    value: float
    grad_c: list[float]
    dt: float


@dataclass(frozen=True)
class ClassKappa:
    """Linear class-K relaxation gamma(h) = slope * h."""

    slope: float = 1.0

    def __post_init__(self):
        if not self.slope > 0:  # also rejects NaN
            raise ValueError(f"class-K slope must be > 0, got {self.slope}")

    def __call__(self, h: float) -> float:
        return self.slope * h


def eval_avoidance(c, t: float, obstacle: Obstacle, r_c: float) -> BarrierEval:
    """h = ||c - b_u(t)||^2 - (r_u + r_c)^2 for the r_c-inflated obstacle."""
    if r_c <= 0:
        raise ValueError(f"confinement radius must be > 0, got {r_c}")
    delta = list(map(sub, c, obstacle.center_path(t)))
    inflated = obstacle.radius + r_c
    value = sum(map(mul, delta, delta)) - inflated * inflated
    return BarrierEval(value, [2.0 * d for d in delta], -2.0 * sum(map(mul, delta, obstacle.velocity_path(t))))


def eval_reach(c, t: float, target_center, schedule: ShrinkSchedule) -> BarrierEval:
    """h = r_r(t)^2 - ||c - b_R||^2 for the shrinking containment ball."""
    delta = list(map(sub, c, target_center))
    r = schedule.radius_at(t)
    return BarrierEval(r * r - sum(map(mul, delta, delta)), [-2.0 * d for d in delta], 2.0 * r * schedule.rate_of())
