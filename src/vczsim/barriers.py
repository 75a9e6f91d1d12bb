"""Barrier functions for moving-obstacle avoidance and prescribed-time reach.

Avoidance barriers measure squared distance of the guided center to an
obstacle center against the obstacle radius inflated by the confinement
radius; the reach barrier measures containment in a ball whose radius
shrinks affinely to force arrival at the horizon. Both report value,
spatial gradient, and time partial so a QP row can be assembled from them.

eval_avoidance and eval_reach define the barriers on Python floats, one at a
time. A step does not call them: compile_rows turns a scenario's barriers and
class-K slopes into one straight-line function of (c, t) that performs the
same operations in the same order, sums included (from 0, left to right),
so its rows are bitwise theirs; the tests compare the two. A static or
linear obstacle's path enters it as the float constants point and rate,
a custom obstacle's as calls of its center_path and velocity_path.
Obstacle.center, Obstacle.velocity and Obstacle.centers give numpy arrays
for whole-trace work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul, sub
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exprs import straight_line, unpack

STATIC = "static"
LINEAR = "linear"
CUSTOM = "custom"

CUSTOM_VELOCITY_FD_STEP = 1e-5  # the step h of a custom path's velocity (p(t + h) - p(t - h)) / 2h


class SettingError(ValueError):
    """A setting outside its domain; `key` names it as a scenario file does."""

    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


class TimeDomainError(ValueError):
    """Time outside the schedule horizon [0, t_f]."""


@dataclass(frozen=True)
class Obstacle:
    """Open-ball obstacle with a known center path and velocity.

    center_path and velocity_path map a time to n floats. centers_path, when
    given, maps a 1-D array of times to the (len, n) array of centres, row k
    bitwise equal to center_path(ts[k]). A static or linear obstacle also
    holds its path as floats: centre point + rate * t.
    """

    center_path: Callable[[float], Sequence[float]]
    velocity_path: Callable[[float], Sequence[float]]
    radius: float
    kind: str
    path_source: tuple[str, ...] | None = None
    centers_path: Callable[[np.ndarray], np.ndarray] | None = None
    point: tuple[float, ...] = ()
    rate: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.radius > 0:  # also rejects NaN
            raise ValueError(f"obstacle radius must be > 0, got {self.radius}")
        if not math.isfinite(self.radius):
            raise ValueError(f"obstacle radius must be finite, got {self.radius}")
        if self.kind not in (STATIC, LINEAR, CUSTOM):
            raise ValueError(f"unknown obstacle kind '{self.kind}'")
        if self.kind != CUSTOM and not len(self.point) == len(self.rate) > 0:
            raise ValueError(f"a {self.kind} obstacle needs its point and rate")

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
            point=point,
            rate=zero,
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
            point=start,
            rate=rate,
        )

    @staticmethod
    def custom(
        path: Callable[[float], Sequence[float]],
        radius: float,
        path_source: tuple[str, ...] | None = None,
        centers_path: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> "Obstacle":
        step = CUSTOM_VELOCITY_FD_STEP
        width = 2.0 * step

        def velocity(t: float) -> list[float]:
            # Central difference, elementwise (hi - lo) / (2 step).
            return [d / width for d in map(sub, path(t + step), path(t - step))]

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
        if not self.radius > 0:  # also rejects NaN
            raise ValueError(f"target radius must be > 0, got {self.radius}")
        if not all(map(math.isfinite, (*self.point, self.radius))):
            raise ValueError(f"target center and radius must be finite, got {list(self.point)} and {self.radius}")


@dataclass(frozen=True)
class ShrinkSchedule:
    """Affine nonincreasing radius from r_start at t=0 to r_end at t_f."""

    r_start: float
    r_end: float
    t_f: float

    def __post_init__(self):
        if not (self.r_start >= self.r_end > 0):
            raise SettingError(
                f"need r_start >= r_end > 0, got ({self.r_start}, {self.r_end})",
                "r_start" if self.r_end > 0 else "r_end",
            )
        if not self.t_f > 0:  # also rejects NaN
            raise SettingError(f"horizon must be > 0, got {self.t_f}", "t_f")
        if not math.isfinite(self.r_start):
            raise SettingError(f"r_start must be finite, got {self.r_start}", "r_start")

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
        if not math.isfinite(self.slope):
            raise ValueError(f"class-K slope must be finite, got {self.slope}")

    def __call__(self, h: float) -> float:
        return self.slope * h


def _dot(a, b):
    """0 + a0 b0 + a1 b1 + ..., left to right, the order the compiled rows use
    (sum() compensates float sums from Python 3.12 on)."""
    return reduce(add, map(mul, a, b), 0)


def eval_avoidance(c, t: float, obstacle: Obstacle, r_c: float) -> BarrierEval:
    """h = ||c - b_u(t)||^2 - (r_u + r_c)^2 for the r_c-inflated obstacle."""
    if r_c <= 0:
        raise ValueError(f"confinement radius must be > 0, got {r_c}")
    delta = list(map(sub, c, obstacle.center_path(t)))
    inflated = obstacle.radius + r_c
    value = _dot(delta, delta) - inflated * inflated
    return BarrierEval(value, [2.0 * d for d in delta], -2.0 * _dot(delta, obstacle.velocity_path(t)))


def eval_reach(c, t: float, target_center, schedule: ShrinkSchedule) -> BarrierEval:
    """h = r_r(t)^2 - ||c - b_R||^2 for the shrinking containment ball."""
    delta = list(map(sub, c, target_center))
    r = schedule.radius_at(t)
    return BarrierEval(r * r - _dot(delta, delta), [-2.0 * d for d in delta], 2.0 * r * schedule.rate_of())


def compile_rows(obstacles, r_c: float, target_point, schedule: ShrinkSchedule, slopes):
    """rows(c, t) -> (A, b, h): the CBF rows of eval_avoidance per obstacle,
    then eval_reach, with b_j = -slope_j h_j - dh_j/dt, as one straight-line
    function over the n coordinates. Each value takes the operations of
    those functions in their order; only products of scenario constants,
    (r + r_c)^2 and -slope, are taken here, once. A static or linear
    obstacle's centre is point + rate * t from its fields, a custom one calls
    center_path and velocity_path once each."""
    consts = []

    def k(value) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    n = len(target_point)
    lines = [unpack((f"c{i}" for i in range(n)), "c")]
    grads = []
    for j, (obs, slope) in enumerate(zip(obstacles, slopes)):
        if obs.kind == CUSTOM:
            center, velocity = [f"p{i}" for i in range(n)], [f"w{i}" for i in range(n)]
            lines += [unpack(center, f"{k(obs.center_path)}(t)"), unpack(velocity, f"{k(obs.velocity_path)}(t)")]
        else:
            if obs.kind == LINEAR:
                center = [f"({k(p)} + {k(w)} * t)" for p, w in zip(obs.point, obs.rate)]
            else:
                center = [k(p) for p in obs.point]
            velocity = [k(w) for w in obs.rate]
        delta = [f"d{j}_{i}" for i in range(n)]
        lines += [f"{d} = c{i} - {q}" for i, (d, q) in enumerate(zip(delta, center))]
        inflated = obs.radius + r_c
        lines.append(f"h{j} = 0{''.join(f' + {d} * {d}' for d in delta)} - {k(inflated * inflated)}")
        lines.append(f"dt{j} = -2.0 * (0{''.join(f' + {d} * {w}' for d, w in zip(delta, velocity))})")
        lines.append(f"b{j} = {k(-slope)} * h{j} - dt{j}")
        grads.append(f"[{', '.join(f'2.0 * {d}' for d in delta)}]")
    j = len(obstacles)
    delta = [f"d{j}_{i}" for i in range(n)]
    lines += [f"{d} = c{i} - {k(p)}" for i, (d, p) in enumerate(zip(delta, target_point))]
    lines.append(f"r = {k(schedule.radius_at)}(t)")
    lines.append(f"h{j} = r * r - (0{''.join(f' + {d} * {d}' for d in delta)})")
    lines.append(f"dt{j} = 2.0 * r * {k(schedule.rate_of())}")
    lines.append(f"b{j} = {k(-slopes[j])} * h{j} - dt{j}")
    grads.append(f"[{', '.join(f'-2.0 * {d}' for d in delta)}]")
    result = ", ".join(f"[{', '.join(f'{x}{i}' for i in range(j + 1))}]" for x in "bh")
    return straight_line(("c", "t"), lines, f"[{', '.join(grads)}], {result}", consts)
