"""Line-oriented scenario file format.

Sections are bracketed headers; entries are ``key = value`` lines, and a key
the section does not read is an error. Only the ``[obstacle]`` section may
repeat, once per obstacle, in order. Vector values are whitespace-separated;
matrix values separate rows with ``;``. Plant maps and obstacle paths may be
prefix expressions (see exprs).

One section list, built by _text, is both the file and the hash: parsing a
file and serializing the result is a fixed point, and scenario_hash is that
text without its ``dt`` line. A plant map or obstacle path without
expression trees is written as ``<callable>``, which no file can hold, so
such a scenario hashes but does not serialize.
"""

from __future__ import annotations

import functools
import hashlib
from importlib import resources
from typing import NamedTuple

import numpy as np

from .barriers import CUSTOM, LINEAR, ClassKappa, Obstacle, SettingError, ShrinkSchedule, TargetSet
from .confinement import DEFAULT_EPSILON_SAT, ConfinementLaw
from .exprs import ExprError, compile_exprs, parse_expr_rows, parse_expr_sequence
from .exprs import eval_expr  # noqa: F401  (bench/layers.py traces scenario_io.eval_expr)
from .plant import NEGATIVE_DEFINITE, POSITIVE_DEFINITE, catalog_plant, tree_plant
from .scenario import Scenario

# Each section with the keys the parser reads from it.
_SECTIONS = {
    "plant": ("catalog", "f", "g", "omega", "sign_class"),
    "obstacle": ("center", "velocity", "path", "radius"),
    "target": ("center", "radius"),
    "vcz": ("r_c",),
    "horizon": ("t_f", "dt"),
    "shrink": ("r_start", "r_end"),
    "controller": ("gain", "alpha", "epsilon_sat", "qp_h", "qp_f"),
    "initial_state": ("x0",),
    "run": ("seed",),
}
# Keys that replace others in their section: a catalog plant has no maps of
# its own, and an obstacle on a path has no fixed centre or velocity.
_EXCLUSIVE = {
    "plant": ("catalog", ("f", "g", "omega", "sign_class")),
    "obstacle": ("path", ("center", "velocity")),
}
# The text of a plant map or obstacle path that has no expression trees.
_CALLABLE = "<callable>"


class ScenarioParseError(ValueError):
    """Malformed scenario file; names the offending line and key."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.line = line
        self.key = key
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key '{key}'")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class _Entry(NamedTuple):
    """One ``key = value`` line: the value text, its line number and key."""

    value: str
    line: int | None
    key: str


def _split_sections(text: str):
    """Ordered (section, {key: _Entry}) pairs."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioParseError(f"unknown section '[{name}]'", lineno)
            current = (name, {})
            sections.append(current)
            continue
        if current is None:
            raise ScenarioParseError("entry before any section header", lineno)
        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioParseError("expected 'key = value'", lineno)
        key = key.strip()
        if key not in _SECTIONS[current[0]]:
            raise ScenarioParseError(f"unknown key in section [{current[0]}]", lineno, key)
        if key in current[1]:
            raise ScenarioParseError("duplicate key", lineno, key)
        current[1][key] = _Entry(value.strip(), lineno, key)
    for name, body in sections:
        lead, others = _EXCLUSIVE.get(name, ("", ()))
        for key in others:
            if lead in body and key in body:
                raise ScenarioParseError(f"'{lead}' excludes '{key}' in section [{name}]", body[key].line, key)
    return sections


def _floats(entry: _Entry, count: int | None = None, finite: bool = True) -> np.ndarray:
    """The entry's numbers, finite unless `finite` is False (keys Scenario checks itself)."""
    try:
        values = np.array([float(v) for v in entry.value.split()])
    except ValueError:
        raise ScenarioParseError("malformed numeric value", entry.line, entry.key) from None
    if values.size == 0:
        raise ScenarioParseError("empty numeric value", entry.line, entry.key)
    if count is not None and values.size != count:
        raise ScenarioParseError(f"expected {count} values, got {values.size}", entry.line, entry.key)
    if finite and not np.isfinite(values).all():
        raise ScenarioParseError("numeric value must be finite", entry.line, entry.key)
    return values


def _require(body: dict, key: str, section: str) -> _Entry:
    if key not in body:
        raise ScenarioParseError(f"missing key '{key}' in section [{section}]", None, key)
    return body[key]


def _one(body: dict, key: str, section: str, finite: bool = True) -> float:
    return float(_floats(_require(body, key, section), 1, finite)[0])


def _float_matrix(entry: _Entry, shape: tuple[int, int]) -> np.ndarray:
    rows = [r.strip() for r in entry.value.split(";")]
    try:
        mat = np.array([[float(v) for v in row.split()] for row in rows])
    except ValueError:
        raise ScenarioParseError("malformed matrix value", entry.line, entry.key) from None
    if mat.shape != shape:
        raise ScenarioParseError(f"expected a {shape[0]}x{shape[1]} matrix", entry.line, entry.key)
    return mat


def _parsed(entry: _Entry, parse):
    """parse(entry.value), with a ValueError that it raises reported at the
    entry's line and key: an ExprError, or a constructor's rejection of the
    numbers already read from the entry."""
    try:
        return parse(entry.value)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), entry.line, entry.key) from None


def _parse_plant(body: dict, n_state: int):
    if "catalog" in body:
        return _parsed(body["catalog"], lambda name: catalog_plant(name, n_state))
    f, g, omega, sign = (_require(body, key, "plant") for key in ("f", "g", "omega", "sign_class"))
    if sign.value not in (POSITIVE_DEFINITE, NEGATIVE_DEFINITE):
        raise ScenarioParseError(
            f"sign_class must be {POSITIVE_DEFINITE} or {NEGATIVE_DEFINITE}", sign.line, "sign_class"
        )
    trees = (_parsed(f, parse_expr_sequence), _parsed(g, parse_expr_rows), _parsed(omega, parse_expr_sequence))
    if len(trees[0]) != n_state:
        raise ScenarioParseError(f"f must have {n_state} components", f.line, "f")
    try:
        return tree_plant(*trees, sign.value)
    except SettingError as exc:
        raise ScenarioParseError(str(exc), body[exc.key].line, exc.key) from None


def _parse_obstacle(body: dict, n_state: int) -> Obstacle:
    radius = _one(body, "radius", "obstacle")
    if "path" in body:
        entry = body["path"]
        exprs = _parsed(entry, parse_expr_sequence)
        if len(exprs) != n_state:
            raise ScenarioParseError(f"path must have {n_state} components", entry.line, "path")
        try:
            path_fn = compile_exprs(exprs, ("t",))
        except ExprError as exc:
            raise ScenarioParseError(f"obstacle path {exc}", entry.line, "path") from None
        build = functools.partial(Obstacle.custom, path_fn, trees=tuple(exprs))
    else:
        center = _floats(_require(body, "center", "obstacle"), n_state)
        if "velocity" in body:
            build = functools.partial(Obstacle.linear, center, _floats(body["velocity"], n_state))
        else:
            build = functools.partial(Obstacle.static, center)
    return _parsed(body["radius"], lambda _: build(radius))


def parse_scenario(text: str) -> Scenario:
    grouped: dict[str, list[dict]] = {name: [] for name in _SECTIONS}
    for name, body in _split_sections(text):
        grouped[name].append(body)
    for name, bodies in grouped.items():
        if not bodies and name not in ("obstacle", "run"):
            raise ScenarioParseError(f"missing section [{name}]")
        if len(bodies) > 1 and name != "obstacle":
            raise ScenarioParseError(f"section [{name}] appears more than once")
    init, tgt, vcz, hor, shr, ctl, run = (
        (grouped[name] or [{}])[0]
        for name in ("initial_state", "target", "vcz", "horizon", "shrink", "controller", "run")
    )

    x0 = _floats(_require(init, "x0", "initial_state"))
    n = x0.size
    plant = _parse_plant(grouped["plant"][0], n)
    if plant.n != n:
        raise ScenarioParseError(f"plant dimension {plant.n} disagrees with x0 length {n}")
    obstacles = tuple(_parse_obstacle(body, n) for body in grouped["obstacle"])

    target_center = _floats(_require(tgt, "center", "target"), n)
    target_radius = _one(tgt, "radius", "target")
    target = _parsed(tgt["radius"], lambda _: TargetSet(target_center, target_radius))
    r_c = _one(vcz, "r_c", "vcz")
    t_f = _one(hor, "t_f", "horizon", finite=False)
    dt = _one(hor, "dt", "horizon", finite=False)
    r_start = _one(shr, "r_start", "shrink")
    r_end = _one(shr, "r_end", "shrink")

    gain = _one(ctl, "gain", "controller")
    d = len(obstacles) + 1
    alpha_entry = ctl.get("alpha", _Entry("1.0", None, "alpha"))
    alpha = _floats(alpha_entry)
    if alpha.size not in (1, d):
        raise ScenarioParseError(f"alpha needs 1 or {d} values, got {alpha.size}", alpha_entry.line, "alpha")
    alphas = _parsed(alpha_entry, lambda _: tuple(ClassKappa(float(v)) for v in np.broadcast_to(alpha, d)))
    epsilon_sat = _one(ctl, "epsilon_sat", "controller") if "epsilon_sat" in ctl else DEFAULT_EPSILON_SAT
    qp_h = _float_matrix(ctl["qp_h"], (n, n)) if "qp_h" in ctl else np.eye(n)
    qp_f = _floats(ctl["qp_f"], n, finite=False) if "qp_f" in ctl else np.zeros(n)

    seed = _one(run, "seed", "run") if "seed" in run else 0.0
    if seed != int(seed) or seed < 0:
        raise ScenarioParseError("seed must be a non-negative integer", run["seed"].line, "seed")

    # The constructors check these settings. No key repeats across their
    # sections, so the key that a SettingError names has one line.
    settings = {**vcz, **hor, **shr, **ctl}
    try:
        return Scenario(
            plant=plant,
            obstacles=obstacles,
            target=target,
            x0=x0,
            shrink=ShrinkSchedule(r_start, r_end, t_f),
            alphas=alphas,
            qp_h=qp_h,
            qp_f=qp_f,
            confinement=ConfinementLaw(gain, r_c, epsilon_sat),
            dt=dt,
            seed=int(seed),
        )
    except SettingError as exc:
        raise ScenarioParseError(str(exc), settings[exc.key].line, exc.key) from None
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from None


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return parse_scenario(fh.read())


def benchmark_scenario(dt: float = 1e-3) -> Scenario:
    """The bundled benchmark, data/benchmark.scn, at step dt: unknown-drift 2-D
    plant, one static and one moving obstacle, target ball of radius 1.1 at
    [10, 10], horizon 10 s."""
    text = resources.files("vczsim.data").joinpath("benchmark.scn").read_text()
    return parse_scenario(text).with_overrides(dt=dt)


class SerializationError(ValueError):
    """Scenario holds callables with no file representation."""


def _fmt(value) -> str:
    """A number, a vector (space-separated) or a matrix (rows joined by ';'),
    each float written so that it parses back to itself."""
    if isinstance(value, (int, float)):
        return repr(float(value))
    values = np.asarray(value, dtype=float)
    if values.ndim == 2:
        return " ; ".join(map(_fmt, values))
    return " ".join(map(repr, values.ravel().tolist()))


def _text(scenario: Scenario) -> str:
    """The scenario file: its (section, [(key, value text), ...]) list in file
    order, joined."""
    desc = scenario.plant.descriptor or ("exprs", (_CALLABLE,), ((_CALLABLE,),), (_CALLABLE,))
    if desc[0] == "catalog":
        plant = [("catalog", desc[1])]
    else:
        _, f, g, omega = desc
        plant = [("f", " ".join(f)), ("g", " ; ".join(map(" ".join, g))), ("omega", " ".join(omega))]
        plant.append(("sign_class", scenario.plant.sign_class))
    sections = [("plant", plant)]
    for obs in scenario.obstacles:
        if obs.kind == CUSTOM:
            body = [("path", " ".join(obs.path_source or (_CALLABLE,)))]
        else:
            # center(0.0), not the point: a linear obstacle's p + w * 0.0
            # writes a -0.0 coordinate of rate w >= 0 as 0.0, and the hashes
            # that traces record depend on it.
            body = [("center", _fmt(obs.center(0.0)))]
            if obs.kind == LINEAR:
                body.append(("velocity", _fmt(obs.velocity(0.0))))
        sections.append(("obstacle", body + [("radius", _fmt(obs.radius))]))
    law, shrink = scenario.confinement, scenario.shrink
    sections += [
        ("target", [("center", _fmt(scenario.target.center)), ("radius", _fmt(scenario.target.radius))]),
        ("vcz", [("r_c", _fmt(scenario.r_c))]),
        ("horizon", [("t_f", _fmt(scenario.t_f)), ("dt", _fmt(scenario.dt))]),
        ("shrink", [("r_start", _fmt(shrink.r_start)), ("r_end", _fmt(shrink.r_end))]),
        ("controller", [
            ("gain", _fmt(law.gain)),
            ("alpha", _fmt([a.slope for a in scenario.alphas])),
            ("epsilon_sat", _fmt(law.epsilon_sat)),
            ("qp_h", _fmt(scenario.qp_h)),
            ("qp_f", _fmt(scenario.qp_f)),
        ]),
        ("initial_state", [("x0", _fmt(scenario.x0))]),
        ("run", [("seed", str(scenario.seed))]),
    ]
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body) for name, body in sections
    )


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text form; raises SerializationError for callables without
    expression trees."""
    text = _text(scenario)
    if _CALLABLE in text:
        raise SerializationError("plant map or obstacle path has no file representation")
    return text


def scenario_hash(scenario: Scenario) -> str:
    """Stable identifier of the problem definition: the serialized text,
    callables without trees written as a marker, less its dt line.

    The integration step is excluded (trace metadata records it separately),
    so traces from step-size overrides still match their scenario file.
    Scenarios that differ only in callables without trees share a hash.
    """
    lines = _text(scenario).splitlines()
    text = "\n".join(line for line in lines if not line.startswith("dt = "))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
