"""Barrier functions for moving-obstacle avoidance and prescribed-time reach.

Avoidance barriers measure squared distance of the guided center to an
obstacle center against the obstacle radius inflated by the confinement
radius; the reach barrier measures containment in a ball whose radius
shrinks affinely to force arrival at the horizon. Both report value,
spatial gradient, and time partial so a QP row can be assembled from them.

eval_avoidance and eval_reach define the barriers on Python floats, one at a
time; virtual.assemble_rows builds the reference rows from them, which a
step takes only when its hinted QP solve misses. emit_rows writes a
scenario's barriers and class-K slopes as straight-line code at (c, t) that
performs the same operations in the same order, sums included (from 0, left
to right), so its rows are bitwise theirs; the step loop holds that code. A
static or linear obstacle's path enters it as the float constants point and
rate, a path obstacle's as its expression trees written inline, and another
custom obstacle's as calls of its center_path and velocity_path.
Obstacle.center, Obstacle.velocity and Obstacle.centers give numpy arrays
for whole-trace work, from the same path: centers is point and rate as
array formulas, or a custom obstacle's center_path called at every time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import sub
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exprs import dot, expr_to_str, fold, unpack

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


class SampleError(RuntimeError):
    """A map raised ValueError or ArithmeticError at a point validation
    sampled; the message names the map."""


def sampled(name: str, fn, *args):
    """fn(*args), where a ValueError or ArithmeticError becomes a SampleError
    naming the map `name`."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        raise SampleError(f"{name} raised {type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True)
class Obstacle:
    """Open-ball obstacle with a known center path and velocity.

    center_path and velocity_path map a time to n floats. A static or linear
    obstacle also holds its path as floats: centre point + rate * t. A custom
    obstacle parsed from a scenario file holds its path's expression trees
    in t, `trees`, which center_path is compiled from. A step reads the
    paths as Python floats: Obstacle.custom converts a path without trees,
    and a custom obstacle built directly must give floats itself.
    """

    center_path: Callable[[float], Sequence[float]]
    velocity_path: Callable[[float], Sequence[float]]
    radius: float
    kind: str
    trees: tuple | None = None
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
        if not all(map(math.isfinite, (*self.point, *self.rate))):
            raise ValueError(f"obstacle point and rate must be finite, got {list(self.point)} and {list(self.rate)}")

    @staticmethod
    def static(center, radius: float) -> "Obstacle":
        point = tuple(np.array(center, dtype=float).tolist())
        zero = (0.0,) * len(point)
        return Obstacle(lambda t: point, lambda t: zero, float(radius), STATIC, point=point, rate=zero)

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
            point=start,
            rate=rate,
        )

    @staticmethod
    def custom(path: Callable[[float], Sequence[float]], radius: float, trees: tuple | None = None) -> "Obstacle":
        step = CUSTOM_VELOCITY_FD_STEP
        width = 2.0 * step
        center = path
        if trees is None:  # a step carries Python floats only
            def center(t: float) -> list[float]:
                return list(map(float, path(t)))

        def velocity(t: float) -> list[float]:
            # Central difference, elementwise (hi - lo) / (2 step).
            return [d / width for d in map(sub, center(t + step), center(t - step))]

        return Obstacle(center, velocity, float(radius), CUSTOM, trees)

    @property
    def path_source(self) -> tuple[str, ...] | None:
        """The path's expression text, one entry per coordinate, or None without trees."""
        return None if self.trees is None else tuple(map(expr_to_str, self.trees))

    def center(self, t: float) -> np.ndarray:
        return np.asarray(self.center_path(t), dtype=float)

    def centers(self, ts) -> np.ndarray:
        """Centres at every time in ts as a (len(ts), n) array; row k equals
        center(ts[k]) bitwise. A static obstacle's point is broadcast and a
        linear one's is point + rate * t; a custom path is called at each
        time, its values streamed into one array; a row whose length differs
        from the first's raises ValueError. n is the first row's length, or
        for no times the path's tree count (0 for a plain callable)."""
        ts = np.asarray(ts, dtype=float)
        if self.kind == STATIC:
            return np.broadcast_to(self.point, (len(ts), len(self.point)))
        if self.kind == LINEAR:
            return np.array(self.point) + np.array(self.rate) * ts[:, None]
        rows = map(self.center_path, ts.tolist())
        first = next(rows, None)
        if first is None:
            return np.empty((0, len(self.trees or ())))
        n = len(first)

        def checked(row):
            if len(row) != n:
                raise ValueError(f"custom path rows have {n} and {len(row)} values")
            return row

        values = chain.from_iterable(map(checked, chain((first,), rows)))
        return np.fromiter(values, float, count=len(ts) * n).reshape(len(ts), n)

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
        """The radius at t; raises TimeDomainError outside [0, t_f] widened by
        1e-5 max(1, t_f), where integrator endpoints and finite-difference
        probes graze the horizon and the affine formula extrapolates exactly."""
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


def eval_avoidance(c, t: float, obstacle: Obstacle, r_c: float) -> BarrierEval:
    """h = ||c - b_u(t)||^2 - (r_u + r_c)^2 for the r_c-inflated obstacle."""
    if r_c <= 0:
        raise ValueError(f"confinement radius must be > 0, got {r_c}")
    delta = list(map(sub, c, obstacle.center_path(t)))
    inflated = obstacle.radius + r_c
    value = dot(delta, delta) - inflated * inflated
    return BarrierEval(value, [2.0 * d for d in delta], -2.0 * dot(delta, obstacle.velocity_path(t)))


def eval_reach(c, t: float, target_center, schedule: ShrinkSchedule) -> BarrierEval:
    """h = r_r(t)^2 - ||c - b_R||^2 for the shrinking containment ball."""
    delta = list(map(sub, c, target_center))
    r = schedule.radius_at(t)
    return BarrierEval(r * r - dot(delta, delta), [-2.0 * d for d in delta], 2.0 * r * schedule.rate_of())


def emit_rows(lines, k, emit, c, t: str, obstacles, r_c: float, target_point, schedule: ShrinkSchedule, slopes):
    """Append to `lines` the CBF rows at the centre names `c` and the time
    name `t`: those of eval_avoidance per obstacle, then eval_reach, with
    b_j = -slope_j h_j - dh_j/dt. Returns (A, b, h): A as a display of
    lists by rows, b and h as lists of names. Each value takes the
    operations of those functions in their order; only products of scenario
    constants, (r + r_c)^2 and -slope, are taken here, once. A static or linear
    obstacle's centre is point + rate * t from its fields. A custom one with
    trees emits them (`emit`, a tree_emitter on `lines` and `k`) at t, t + h
    and t - h, its velocity the central difference (hi - lo) / (2h) of
    Obstacle.custom; one without calls center_path and velocity_path once
    each. The reach radius is ShrinkSchedule.radius_at's formula without its
    horizon check: the caller's `t` must lie in [0, t_f], as the step loop's
    pass times do (simulator._step_counts)."""
    n = len(target_point)
    ahead, behind = f"{t}_ahead", f"{t}_behind"
    if any(obs.trees is not None for obs in obstacles):
        step = k(CUSTOM_VELOCITY_FD_STEP)
        lines += [f"{ahead} = {t} + {step}", f"{behind} = {t} - {step}"]
    A = []
    for j, (obs, slope) in enumerate(zip(obstacles, slopes)):
        if obs.trees is not None:
            center = [emit(e, {"t": t}) for e in obs.trees]
            hi, lo = ([emit(e, {"t": s}) for e in obs.trees] for s in (ahead, behind))
            velocity = [f"q{j}_{i}" for i in range(n)]
            width = k(2.0 * CUSTOM_VELOCITY_FD_STEP)
            lines += [f"{q} = ({p} - {m}) / {width}" for q, p, m in zip(velocity, hi, lo)]
        elif obs.kind == CUSTOM:
            center, velocity = [f"p{j}_{i}" for i in range(n)], [f"q{j}_{i}" for i in range(n)]
            lines += [unpack(center, f"{k(obs.center_path)}({t})"), unpack(velocity, f"{k(obs.velocity_path)}({t})")]
        else:
            if obs.kind == LINEAR:
                center = [f"({k(p)} + {k(w)} * {t})" for p, w in zip(obs.point, obs.rate)]
            else:
                center = [k(p) for p in obs.point]
            velocity = [k(w) for w in obs.rate]
        delta = [f"d{j}_{i}" for i in range(n)]
        lines += [f"{d} = {c_i} - {q}" for d, c_i, q in zip(delta, c, center)]
        inflated = obs.radius + r_c
        lines.append(f"h{j} = {fold(f'{d} * {d}' for d in delta)} - {k(inflated * inflated)}")
        lines.append(f"dh{j} = -2.0 * {fold(f'{d} * {w}' for d, w in zip(delta, velocity))}")
        lines.append(f"b{j} = {k(-slope)} * h{j} - dh{j}")
        A.append(f"[{', '.join(f'2.0 * {d}' for d in delta)}]")
    j = len(obstacles)
    delta = [f"d{j}_{i}" for i in range(n)]
    lines += [f"{d} = {c_i} - {k(p)}" for d, c_i, p in zip(delta, c, target_point)]
    span, t_f, r_start = k(schedule.r_end - schedule.r_start), k(schedule.t_f), k(schedule.r_start)
    lines.append(f"r = {span} * ({t} / {t_f}) + {r_start}")
    lines.append(f"h{j} = r * r - {fold(f'{d} * {d}' for d in delta)}")
    lines.append(f"dh{j} = 2.0 * r * {k(schedule.rate_of())}")
    lines.append(f"b{j} = {k(-slopes[j])} * h{j} - dh{j}")
    A.append(f"[{', '.join(f'-2.0 * {d}' for d in delta)}]")
    return f"[{', '.join(A)}]", [f"b{i}" for i in range(j + 1)], [f"h{i}" for i in range(j + 1)]
