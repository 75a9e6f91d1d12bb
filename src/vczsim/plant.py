"""True-plant models for simulation.

The controllers never see these maps; only the simulator evaluates them.
Plants come from a small catalog or from expression trees in a scenario
file, so custom instances run without code changes. The maps take and
return Python floats (g as rows), which is what a step integrates on;
whole-sample checks wrap them with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .exprs import ExprError, compile_exprs, expr_to_str, parse_expr
from .exprs import eval_expr  # noqa: F401  (bench/layers.py traces plant.eval_expr)

POSITIVE_DEFINITE = "positive_definite"
NEGATIVE_DEFINITE = "negative_definite"

CATALOG = ("benchmark", "integrator")


class PlantSpecError(ValueError):
    """Malformed expression plant; `field` names the part at fault: f, g or omega."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


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
    """f(x) + g(x) u + omega(t) for float sequences x and u of length n."""
    if len(x) != model.n or len(u) != model.n:
        raise ValueError(f"expected state and input of length {model.n}, got {len(x)} and {len(u)}")
    return [
        f_i + sum(map(mul, g_i, u)) + w_i
        for f_i, g_i, w_i in zip(model.drift(x), model.input_map(x), model.disturbance(t))
    ]


def benchmark_plant() -> PlantModel:
    """2-D plant with trigonometric drift, diagonal input map, rotating disturbance."""

    def drift(x):
        p = x[0] * x[1]
        return (5.0 * math.sin(p), 5.0 * math.cos(p))

    g = ((0.8, 0.0), (0.0, 0.5))

    def disturbance(t):
        return (0.4 * math.cos(t), 0.4 * math.sin(t))

    return PlantModel(
        drift, lambda x: g, disturbance, POSITIVE_DEFINITE, 2, ("catalog", "benchmark")
    )


def integrator_plant(n: int = 2) -> PlantModel:
    """Single integrator xdot = u."""
    zero = (0.0,) * n
    ident = tuple(map(tuple, np.eye(n).tolist()))
    return PlantModel(
        lambda x: zero,
        lambda x: ident,
        lambda t: zero,
        POSITIVE_DEFINITE,
        n,
        ("catalog", "integrator"),
    )


def catalog_plant(name: str, n: int = 2) -> PlantModel:
    if name == "benchmark":
        return benchmark_plant()
    if name == "integrator":
        return integrator_plant(n)
    raise ValueError(f"unknown catalog plant '{name}' (have {CATALOG})")


def expression_plant(f_sources, g_sources, omega_sources, sign_class: str) -> PlantModel:
    """Plant from prefix-expression strings, parsed and passed to tree_plant."""
    f, omega = [parse_expr(s) for s in f_sources], [parse_expr(s) for s in omega_sources]
    return tree_plant(f, [[parse_expr(s) for s in row] for row in g_sources], omega, sign_class)


def tree_plant(f_exprs, g_exprs, omega_exprs, sign_class: str) -> PlantModel:
    """Plant from parsed trees: n in x1..xn (f), n rows of n in x1..xn (g), n in t (omega)."""
    n = len(f_exprs)
    if len(g_exprs) != n or any(len(row) != n for row in g_exprs):
        raise PlantSpecError(f"input map must be {n}x{n}", "g")
    if len(omega_exprs) != n:
        raise PlantSpecError(f"disturbance must have {n} components", "omega")
    xs = tuple(f"x{i + 1}" for i in range(n))
    fns = []
    for field, exprs, params in (("f", f_exprs, xs), ("g", g_exprs, xs), ("omega", omega_exprs, ("t",))):
        try:
            fns.append(compile_exprs(exprs, params))
        except ExprError as exc:
            raise PlantSpecError(f"plant {field} {exc}", field) from None
    f_fn, g_fn, omega_fn = fns
    descriptor = (
        "exprs",
        tuple(expr_to_str(e) for e in f_exprs),
        tuple(tuple(expr_to_str(e) for e in row) for row in g_exprs),
        tuple(expr_to_str(e) for e in omega_exprs),
    )
    return PlantModel(lambda x: f_fn(*x), lambda x: g_fn(*x), omega_fn, sign_class, n, descriptor)


def sign_class_margin(model: PlantModel, box_lo, box_hi, samples: int, seed: int) -> float:
    """Worst-case eigenvalue margin of (g+g')/2 toward the declared sign.

    Positive margin means every sampled symmetric part has eigenvalues of the
    declared sign; NaN/inf anywhere in f, g, omega forces -inf.
    """
    rng = np.random.default_rng(seed)
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    margin = math.inf
    for _ in range(samples):
        x = rng.uniform(lo, hi)
        g = np.asarray(model.input_map(x), dtype=float)
        f = np.asarray(model.drift(x), dtype=float)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(f))):
            return -math.inf
        eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
        if model.sign_class == POSITIVE_DEFINITE:
            margin = min(margin, float(eigs.min()))
        else:
            margin = min(margin, float(-eigs.max()))
    return margin
