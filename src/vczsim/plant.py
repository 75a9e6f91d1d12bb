"""True-plant models for simulation.

The controllers never see these maps; only the simulator evaluates them.
Every plant the package builds is compiled expression trees (tree_plant):
CATALOG plants are expression text, and random plants carry their drawn
numbers as literals. f and g take the state sequence, omega the time; each
returns Python floats (g as rows), which is what a step integrates on;
whole-sample checks wrap them with numpy. plant_derivative defines
f(x) + g(x) u + omega(t); a step does not call it but the plant's compiled
RK4 step (compile_rk4), which forms each stage's derivative with the same
operations in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add, mul
from typing import Callable, Sequence

import numpy as np

from .barriers import SettingError
from .exprs import (
    ExprError,
    compile_exprs,
    expr_to_str,
    parse_expr,
    parse_expr_rows,
    parse_expr_sequence,
    straight_line,
    unpack,
)
from .exprs import eval_expr  # noqa: F401  (bench/layers.py traces plant.eval_expr)

POSITIVE_DEFINITE = "positive_definite"
NEGATIVE_DEFINITE = "negative_definite"


def _integrator_text(n: int) -> tuple[str, str, str]:
    """Single integrator xdot = u in n dimensions: zero f and omega, identity g."""
    zeros = " ".join(["0.0"] * n)
    g = " ; ".join(" ".join("1.0" if i == j else "0.0" for j in range(n)) for i in range(n))
    return zeros, g, zeros


# Catalog plants as (f, g, omega) expression text, rows of g separated by ';',
# or a function of the state dimension n that gives it.
CATALOG = {
    "benchmark": ("(* 5.0 (sin (* x1 x2))) (* 5.0 (cos (* x1 x2)))", "0.8 0.0 ; 0.0 0.5",
                  "(* 0.4 (cos t)) (* 0.4 (sin t))"),
    "integrator": _integrator_text,
}


@dataclass(frozen=True)
class PlantModel:
    """Control-affine plant xdot = f(x) + g(x) u + omega(t); f and omega give
    n floats, g gives n rows of n floats."""

    drift: Callable[[Sequence[float]], Sequence[float]]
    input_map: Callable[[Sequence[float]], Sequence[Sequence[float]]]
    disturbance: Callable[[float], Sequence[float]]
    sign_class: str
    n: int
    descriptor: tuple | None = None

    def __post_init__(self):
        if self.sign_class not in (POSITIVE_DEFINITE, NEGATIVE_DEFINITE):
            raise ValueError(f"unknown sign class '{self.sign_class}'")
        if self.n < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.n}")

    def check_shapes(self, x, t: float) -> None:
        """ValueError unless f(x) and omega(t) have n entries and g(x) is n x n.

        plant_derivative's zips would truncate a wrong shape, so a run checks
        the maps once, at its initial state.
        """
        n = self.n
        shapes = [np.shape(self.drift(x)), np.shape(self.input_map(x)), np.shape(self.disturbance(t))]
        if shapes != [(n,), (n, n), (n,)]:
            raise ValueError(f"plant maps f, g, omega must have shapes ({n},), ({n}, {n}), ({n},); got {shapes}")


def plant_derivative(model: PlantModel, x, u, t: float) -> list[float]:
    """f(x) + g(x) u + omega(t) for float sequences x and u of length n; g(x) u
    is summed from 0 left to right."""
    if len(x) != model.n or len(u) != model.n:
        raise ValueError(f"expected state and input of length {model.n}, got {len(x)} and {len(u)}")
    return [
        f_i + reduce(add, map(mul, g_i, u), 0) + w_i
        for f_i, g_i, w_i in zip(model.drift(x), model.input_map(x), model.disturbance(t))
    ]


def compile_rk4(model: PlantModel):
    """rk4(x, u, t, dt) -> x after one classical RK4 step with u held, as one
    straight-line function over the n coordinates: four stages, each calling
    drift, input_map and disturbance once and forming plant_derivative's
    f_i + (0 + g_i1 u_1 + ... + g_in u_n) + omega_i, combined as
    x + dt/6 (k1 + 2 k2 + 2 k3 + k4) elementwise."""
    n = model.n
    xs, us = [f"x{i}" for i in range(n)], [f"u{j}" for j in range(n)]
    g_rows = [f"({', '.join(f'g{i}_{j}' for j in range(n))},)" for i in range(n)]
    lines = [unpack(xs, "x"), unpack(us, "u"), "half = 0.5 * dt", "mid = t + half", "end = t + dt"]
    stages = (("x", "t", "half"), ("y", "mid", "half"), ("y", "mid", "dt"), ("y", "end", None))
    for s, (state, time, step) in enumerate(stages):
        lines += [unpack((f"f{i}" for i in range(n)), f"k0({state})"), unpack(g_rows, f"k1({state})"),
                  unpack((f"w{i}" for i in range(n)), f"k2({time})")]
        for i in range(n):
            gu = "".join(f" + g{i}_{j} * {u}" for j, u in enumerate(us))
            lines.append(f"s{s}_{i} = f{i} + (0{gu}) + w{i}")
        if step is not None:
            lines.append(f"y = [{', '.join(f'{x} + {step} * s{s}_{i}' for i, x in enumerate(xs))}]")
    lines.append("sixth = dt / 6.0")
    x_next = ", ".join(f"{x} + sixth * (s0_{i} + 2 * s1_{i} + 2 * s2_{i} + s3_{i})" for i, x in enumerate(xs))
    return straight_line(("x", "u", "t", "dt"), lines, f"[{x_next}]", (model.drift, model.input_map, model.disturbance))


def catalog_plant(name: str, n: int = 2) -> PlantModel:
    """The tree plant of CATALOG's text for `name` (n: the integrator's
    dimension), described as ("catalog", name)."""
    if name not in CATALOG:
        raise ValueError(f"unknown catalog plant '{name}' (have {tuple(CATALOG)})")
    text = CATALOG[name]
    f, g, omega = text(n) if callable(text) else text
    plant = tree_plant(parse_expr_sequence(f), parse_expr_rows(g), parse_expr_sequence(omega), POSITIVE_DEFINITE)
    return replace(plant, descriptor=("catalog", name))


def expression_plant(f_sources, g_sources, omega_sources, sign_class: str) -> PlantModel:
    """Plant from prefix-expression strings, parsed and passed to tree_plant."""
    f, omega = [parse_expr(s) for s in f_sources], [parse_expr(s) for s in omega_sources]
    return tree_plant(f, [[parse_expr(s) for s in row] for row in g_sources], omega, sign_class)


def tree_plant(f_exprs, g_exprs, omega_exprs, sign_class: str) -> PlantModel:
    """Plant from parsed trees: n in x1..xn (f), n rows of n in x1..xn (g), n in
    t (omega). f and g are compiled to take the state sequence itself."""
    n = len(f_exprs)
    if len(g_exprs) != n or any(len(row) != n for row in g_exprs):
        raise SettingError(f"input map must be {n}x{n}", "g")
    if len(omega_exprs) != n:
        raise SettingError(f"disturbance must have {n} components", "omega")
    xs = tuple(f"x{i + 1}" for i in range(n))
    fns = []
    for field, exprs, params in (("f", f_exprs, xs), ("g", g_exprs, xs), ("omega", omega_exprs, ("t",))):
        try:
            fns.append(compile_exprs(exprs, params, packed=field != "omega"))
        except ExprError as exc:
            raise SettingError(f"plant {field} {exc}", field) from None
    descriptor = (
        "exprs",
        tuple(expr_to_str(e) for e in f_exprs),
        tuple(tuple(expr_to_str(e) for e in row) for row in g_exprs),
        tuple(expr_to_str(e) for e in omega_exprs),
    )
    return PlantModel(*fns, sign_class, n, descriptor)


def sign_class_margin(model: PlantModel, box_lo, box_hi, samples: int, seed: int) -> float:
    """Worst-case eigenvalue margin of (g+g')/2 toward the declared sign.

    Positive margin means every sampled symmetric part has eigenvalues of the
    declared sign; NaN/inf anywhere in f, g, omega forces -inf.
    """
    rng = np.random.default_rng(seed)
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    gs = []
    for x in rng.uniform(lo, hi, size=(samples, lo.size)):  # the draws of one rng.uniform(lo, hi) per sample
        g = np.asarray(model.input_map(x), dtype=float)
        f = np.asarray(model.drift(x), dtype=float)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(f))):
            return -math.inf
        gs.append(g)
    g = np.array(gs)
    eigs = np.linalg.eigvalsh(0.5 * (g + g.transpose(0, 2, 1)))
    return float(eigs.min()) if model.sign_class == POSITIVE_DEFINITE else float(-eigs.max())
