"""The benchmark's own copy of each scenario's geometry.

The output checks must not trust the program's parser or barrier code, so the
two fixed scenarios are restated here as plain numbers: the bundled paper
scenario (src/vczsim/data/benchmark.scn) and scenarios/crowded_3d.scn. The
campaign's scenarios are generated by the program; their numbers arrive in
the run's dump and are turned into the same form by `from_dump`.

Every obstacle exposes vectorised `center(t)` and `velocity(t)` over an array
of times; path obstacles use the analytic derivative of their circle, not a
finite difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Linear:
    """p(t) = p0 + v t; a static obstacle has v = 0."""

    p0: tuple
    v: tuple
    radius: float

    def center(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        return np.asarray(self.p0) + np.asarray(self.v) * t

    def velocity(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        return np.zeros_like(t) + np.asarray(self.v)


@dataclass(frozen=True)
class Circle:
    """p(t) = c0 + a cos(w (t - t0)) + b sin(w (t - t0))."""

    c0: tuple
    a: tuple
    b: tuple
    w: float
    t0: float
    radius: float

    def center(self, t):
        s = self.w * (np.asarray(t, dtype=float)[..., None] - self.t0)
        return np.asarray(self.c0) + np.asarray(self.a) * np.cos(s) + np.asarray(self.b) * np.sin(s)

    def velocity(self, t):
        s = self.w * (np.asarray(t, dtype=float)[..., None] - self.t0)
        return self.w * (np.asarray(self.b) * np.cos(s) - np.asarray(self.a) * np.sin(s))


@dataclass(frozen=True)
class Geometry:
    obstacles: tuple
    target: tuple
    target_radius: float
    r_c: float
    t_f: float
    r_start: float
    r_end: float
    alphas: tuple          # one slope per row: obstacles in order, reach row last
    invariance_tol: float = 1e-3
    clearance_tol: float = 1e-6

    def shrink_radius(self, t):
        return self.r_start + (self.r_end - self.r_start) * np.asarray(t, dtype=float) / self.t_f

    @property
    def shrink_rate(self) -> float:
        return (self.r_end - self.r_start) / self.t_f


def _static(center, radius):
    return Linear(tuple(center), tuple(0.0 for _ in center), radius)


BENCHMARK = Geometry(
    obstacles=(
        _static((1.5, 2.0), 0.5),
        Linear((5.0, 5.0), (0.4, -0.4), 1.5),
    ),
    target=(10.0, 10.0),
    target_radius=1.1,
    r_c=0.5,
    t_f=10.0,
    r_start=15.0,
    r_end=0.5,
    alphas=(1.0, 1.0, 1.0),
)

CROWDED_3D = Geometry(
    obstacles=(
        _static((2.063, 0.982, 1.233), 0.55),
        Linear((1.932, 4.199, 2.198), (0.25, -0.2, 0.1), 0.65),
        Circle((3.797, 4.379, 5.195), (0.0849, -0.0849, 0.0), (0.049, 0.049, -0.098), 0.7, 4.8, 0.45),
        _static((5.385, 4.975, 4.072), 0.45),
        Linear((6.41, 8.385, 7.279), (0.06, -0.05, 0.04), 0.55),
        Circle((8.454, 8.471, 9.176), (0.2828, -0.2828, 0.0), (0.1633, 0.1633, -0.3266), 0.9, 9.0, 0.5),
    ),
    target=(10.0, 10.0, 10.0),
    target_radius=1.1,
    r_c=0.5,
    t_f=10.0,
    r_start=18.0,
    r_end=0.5,
    alphas=(4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 1.0),
)


def from_dump(d: dict) -> Geometry:
    """Geometry of one generated campaign scenario, from the run's JSON dump."""
    return Geometry(
        obstacles=tuple(Linear(tuple(o["p0"]), tuple(o["v"]), o["radius"]) for o in d["obstacles"]),
        target=tuple(d["target"]),
        target_radius=d["target_radius"],
        r_c=d["r_c"],
        t_f=d["t_f"],
        r_start=d["r_start"],
        r_end=d["r_end"],
        alphas=tuple(d["alphas"]),
        invariance_tol=d["invariance_tol"],
        clearance_tol=d["clearance_tol"],
    )
