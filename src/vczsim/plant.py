"""True-plant models for simulation.

The controllers never see these maps; only the simulator evaluates them.
Plants come from a small catalog or from expression trees in a scenario
file, so custom instances run without code changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exprs import eval_expr, expr_to_str, expr_variables, parse_expr

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
    """Control-affine plant xdot = f(x) + g(x) u + omega(t)."""

    drift: Callable[[np.ndarray], np.ndarray]
    input_map: Callable[[np.ndarray], np.ndarray]
    disturbance: Callable[[float], np.ndarray]
    sign_class: str
    n: int
    descriptor: tuple | None = None

    def __post_init__(self):
        if self.sign_class not in (POSITIVE_DEFINITE, NEGATIVE_DEFINITE):
            raise ValueError(f"unknown sign class '{self.sign_class}'")
        if self.n < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.n}")


def plant_derivative(model: PlantModel, x, u, t: float) -> np.ndarray:
    """f(x) + g(x) u + omega(t)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (model.n,) or u.shape != (model.n,):
        raise ValueError(
            f"expected state and input of length {model.n}, got {x.shape} and {u.shape}"
        )
    return model.drift(x) + model.input_map(x) @ u + model.disturbance(t)


def benchmark_plant() -> PlantModel:
    """2-D plant with trigonometric drift, diagonal input map, rotating disturbance."""

    def drift(x):
        p = x[0] * x[1]
        return np.array([5.0 * math.sin(p), 5.0 * math.cos(p)])

    g = np.diag([0.8, 0.5])

    def disturbance(t):
        return np.array([0.4 * math.cos(t), 0.4 * math.sin(t)])

    return PlantModel(
        drift, lambda x: g, disturbance, POSITIVE_DEFINITE, 2, ("catalog", "benchmark")
    )


def integrator_plant(n: int = 2) -> PlantModel:
    """Single integrator xdot = u."""
    zero = np.zeros(n)
    ident = np.eye(n)
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
    """Plant from prefix-expression strings.

    f_sources: n expressions in x1..xn; g_sources: n rows of n expressions in
    x1..xn; omega_sources: n expressions in t.
    """
    n = len(f_sources)
    f_exprs = [parse_expr(s) for s in f_sources]
    omega_exprs = [parse_expr(s) for s in omega_sources]
    if len(g_sources) != n or any(len(row) != n for row in g_sources):
        raise PlantSpecError(f"input map must be {n}x{n}", "g")
    if len(omega_exprs) != n:
        raise PlantSpecError(f"disturbance must have {n} components", "omega")
    g_exprs = [[parse_expr(s) for s in row] for row in g_sources]
    state_vars = {f"x{i + 1}" for i in range(n)}
    for field, exprs in (("f", f_exprs), ("g", [e for row in g_exprs for e in row])):
        for e in exprs:
            bad = expr_variables(e) - state_vars
            if bad:
                message = f"plant {field} may only use x1..x{n}, found {sorted(bad)}"
                raise PlantSpecError(message, field)
    for e in omega_exprs:
        bad = expr_variables(e) - {"t"}
        if bad:
            raise PlantSpecError(f"disturbance may only use t, found {sorted(bad)}", "omega")

    def drift(x):
        return np.array([eval_expr(e, 0.0, x) for e in f_exprs])

    def input_map(x):
        return np.array([[eval_expr(e, 0.0, x) for e in row] for row in g_exprs])

    def disturbance(t):
        return np.array([eval_expr(e, t) for e in omega_exprs])

    descriptor = (
        "exprs",
        tuple(expr_to_str(e) for e in f_exprs),
        tuple(tuple(expr_to_str(e) for e in row) for row in g_exprs),
        tuple(expr_to_str(e) for e in omega_exprs),
    )
    return PlantModel(drift, input_map, disturbance, sign_class, n, descriptor)


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
