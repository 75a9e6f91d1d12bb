"""True-plant models for simulation.

The controllers never see these maps; only the simulator evaluates them.
Every plant the package builds is compiled expression trees (tree_plant):
CATALOG plants are expression text, and random plants carry their drawn
numbers as literals. f and g take the state sequence, omega the time; each
returns Python floats (g as rows), which is what a step integrates on;
whole-sample checks wrap them with numpy. A tree plant keeps its trees.
plant_derivative defines f(x) + g(x) u + omega(t), and simulator._rk4, the
reference step, takes its RK4 stages through it. A run does not call it but
runs emit_rk4's RK4 step, which forms each stage's derivative with the same
operations in the same order, a tree plant's maps written inline and a
plain-callable plant's called.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .barriers import SampleError, SettingError, sampled
from .exprs import (
    ExprError,
    compile_exprs,
    dot,
    expr_to_str,
    fold,
    parse_expr,
    parse_expr_rows,
    parse_expr_sequence,
    tuple_of,
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
    n floats, g gives n rows of n floats. A tree plant holds the expression
    trees (f, g by rows, omega) its maps are compiled from, `trees`, and a
    CATALOG plant also its name, `catalog`."""

    drift: Callable[[Sequence[float]], Sequence[float]]
    input_map: Callable[[Sequence[float]], Sequence[Sequence[float]]]
    disturbance: Callable[[float], Sequence[float]]
    sign_class: str
    n: int
    trees: tuple | None = None
    catalog: str | None = None

    def __post_init__(self):
        if self.sign_class not in (POSITIVE_DEFINITE, NEGATIVE_DEFINITE):
            raise ValueError(f"unknown sign class '{self.sign_class}'")
        if self.n < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.n}")

    @property
    def descriptor(self) -> tuple | None:
        """("catalog", name), ("exprs", f, g, omega) with the trees as text, or
        None for a plant of plain callables."""
        if self.catalog is not None:
            return ("catalog", self.catalog)
        if self.trees is None:
            return None
        f, g, omega = self.trees
        return ("exprs", tuple(map(expr_to_str, f)), tuple(tuple(map(expr_to_str, row)) for row in g),
                tuple(map(expr_to_str, omega)))

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
        f_i + dot(g_i, u) + w_i
        for f_i, g_i, w_i in zip(model.drift(x), model.input_map(x), model.disturbance(t))
    ]


def emit_rk4(lines, k, emit, model: PlantModel, x, u, t: str, dt: str) -> list[str]:
    """Append to `lines` one classical RK4 step of the plant from the state
    names `x` with the input names `u` held, at the time and step names `t`
    and `dt`; returns the next state as expressions x_i + sixth * (k1_i +
    2 k2_i + 2 k3_i + k4_i), with `sixth` = dt / 6.0 defined in the lines.
    Each stage forms plant_derivative's f_i + (0 + g_i1 u_1 + ... + g_in
    u_n) + omega_i. A tree plant's f, g and omega are emitted inline through
    `emit`, a tree_emitter on `lines` and `k`, so omega at the midpoint is
    computed once; a plant of plain callables calls each map once a stage."""
    n, state = model.n, x
    lines += [f"half = 0.5 * {dt}", f"mid = {t} + half", f"end = {t} + {dt}"]
    if model.trees is None:
        drift, input_map, disturbance = k(model.drift), k(model.input_map), k(model.disturbance)
    else:
        f_trees, g_trees, omega_trees = model.trees
    stages = ((t, "half"), ("mid", "half"), ("mid", dt), ("end", None))
    for s, (time, step) in enumerate(stages):
        if model.trees is not None:
            args = {f"x{i + 1}": y for i, y in enumerate(state)}
            f = [emit(e, args) for e in f_trees]
            g = [[emit(e, args) for e in row] for row in g_trees]
            w = [emit(e, {"t": time}) for e in omega_trees]
        else:
            f, w = [f"f{s}_{i}" for i in range(n)], [f"w{s}_{i}" for i in range(n)]
            g = [[f"g{s}_{i}_{j}" for j in range(n)] for i in range(n)]
            point = f"[{', '.join(state)}]"
            lines += [unpack(f, f"{drift}({point})"), unpack(map(tuple_of, g), f"{input_map}({point})"),
                      unpack(w, f"{disturbance}({time})")]
        lines += [f"s{s}_{i} = {f[i]} + {fold(f'{g[i][j]} * {u_j}' for j, u_j in enumerate(u))} + {w[i]}"
                  for i in range(n)]
        if step is not None:
            state = [f"y{s + 1}_{i}" for i in range(n)]
            lines += [f"{y} = {x_i} + {step} * s{s}_{i}" for i, (y, x_i) in enumerate(zip(state, x))]
    lines.append(f"sixth = {dt} / 6.0")
    return [f"{x_i} + sixth * (s0_{i} + 2 * s1_{i} + 2 * s2_{i} + s3_{i})" for i, x_i in enumerate(x)]


def catalog_plant(name: str, n: int = 2) -> PlantModel:
    """The tree plant of CATALOG's text for `name` (n: the integrator's
    dimension), with `catalog` set to name."""
    if name not in CATALOG:
        raise ValueError(f"unknown catalog plant '{name}' (have {tuple(CATALOG)})")
    text = CATALOG[name]
    f, g, omega = text(n) if callable(text) else text
    plant = tree_plant(parse_expr_sequence(f), parse_expr_rows(g), parse_expr_sequence(omega), POSITIVE_DEFINITE)
    return replace(plant, catalog=name)


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
    trees = (tuple(f_exprs), tuple(map(tuple, g_exprs)), tuple(omega_exprs))
    return PlantModel(*fns, sign_class, n, trees)


def sign_class_margin(model: PlantModel, box_lo, box_hi, samples: int, seed: int) -> float:
    """Worst-case eigenvalue margin of (g+g')/2 toward the declared sign.

    Positive margin means every sampled symmetric part has eigenvalues of the
    declared sign. A value of f or g that is not finite (NaN or inf), a
    ValueError or ArithmeticError that f or g raises, and a box too wide to
    draw from become a SampleError naming the map or the workspace box.
    """
    rng = np.random.default_rng(seed)
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    with np.errstate(over="ignore"):  # a width hi - lo that overflows: rng.uniform raises, before any draw
        draws = sampled("workspace box", rng.uniform, lo, hi, (samples, lo.size))
    gs = []
    # The draws of one rng.uniform(lo, hi) per sample, as Python floats, the maps' input in a step.
    for x in draws.tolist():
        g = np.asarray(sampled("plant g", model.input_map, x), dtype=float)
        f = np.asarray(sampled("plant f", model.drift, x), dtype=float)
        for name, value in (("plant g", g), ("plant f", f)):
            if not np.all(np.isfinite(value)):
                raise SampleError(f"{name} is not finite at x = ({', '.join(f'{v:.6g}' for v in x)})")
        gs.append(g)
    g = np.array(gs)
    eigs = np.linalg.eigvalsh(0.5 * (g + g.transpose(0, 2, 1)))
    return float(eigs.min()) if model.sign_class == POSITIVE_DEFINITE else float(-eigs.max())
