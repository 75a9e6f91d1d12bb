"""Line-oriented scenario file format.

Sections are bracketed headers; entries are ``key = value`` lines, and a key
the section does not read is an error. Repeating the ``[obstacle]`` section
declares the obstacle list in order. Vector values are whitespace-separated;
matrix values separate rows with ``;``. Plant maps and obstacle paths may be
prefix expressions (see exprs).

Serialization is canonical: parsing a file and serializing the result is a
fixed point, which is what the scenario hash is computed from.
"""

from __future__ import annotations

import functools
import hashlib
import io
from importlib import resources

import numpy as np

from .barriers import CUSTOM, LINEAR, STATIC, ClassKappa, Obstacle, SettingError, ShrinkSchedule, TargetSet
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


class _Entry:
    __slots__ = ("value", "line")

    def __init__(self, value: str, line: int):
        self.value = value
        self.line = line


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
        current[1][key] = _Entry(value.strip(), lineno)
    for name, body in sections:
        lead, others = _EXCLUSIVE.get(name, ("", ()))
        for key in others:
            if lead in body and key in body:
                raise ScenarioParseError(f"'{lead}' excludes '{key}' in section [{name}]", body[key].line, key)
    return sections


def _floats(entry: _Entry, key: str, count: int | None = None, finite: bool = True) -> np.ndarray:
    """The entry's numbers, finite unless `finite` is False (keys Scenario checks itself)."""
    try:
        values = np.array([float(v) for v in entry.value.split()])
    except ValueError:
        raise ScenarioParseError("malformed numeric value", entry.line, key) from None
    if values.size == 0:
        raise ScenarioParseError("empty numeric value", entry.line, key)
    if count is not None and values.size != count:
        raise ScenarioParseError(f"expected {count} values, got {values.size}", entry.line, key)
    if finite and not np.isfinite(values).all():
        raise ScenarioParseError("numeric value must be finite", entry.line, key)
    return values


def _one_float(entry: _Entry, key: str, finite: bool = True) -> float:
    return float(_floats(entry, key, 1, finite)[0])


def _require(body: dict, key: str, section: str) -> _Entry:
    if key not in body:
        raise ScenarioParseError(f"missing key '{key}' in section [{section}]", None, key)
    return body[key]


def _float_matrix(entry: _Entry, key: str, shape: tuple[int, int]) -> np.ndarray:
    rows = [r.strip() for r in entry.value.split(";")]
    try:
        mat = np.array([[float(v) for v in row.split()] for row in rows])
    except ValueError:
        raise ScenarioParseError("malformed matrix value", entry.line, key) from None
    if mat.shape != shape:
        raise ScenarioParseError(f"expected a {shape[0]}x{shape[1]} matrix", entry.line, key)
    return mat


def _parse_plant(body: dict, n_state: int):
    if "catalog" in body:
        name = body["catalog"].value
        try:
            return catalog_plant(name, n_state)
        except ValueError as exc:
            raise ScenarioParseError(str(exc), body["catalog"].line, "catalog") from None
    for key in ("f", "g", "omega", "sign_class"):
        _require(body, key, "plant")
    sign = body["sign_class"].value
    if sign not in (POSITIVE_DEFINITE, NEGATIVE_DEFINITE):
        raise ScenarioParseError(
            f"sign_class must be {POSITIVE_DEFINITE} or {NEGATIVE_DEFINITE}",
            body["sign_class"].line,
            "sign_class",
        )
    parsed = {}
    parsers = (("f", parse_expr_sequence), ("g", parse_expr_rows), ("omega", parse_expr_sequence))
    for key, parse in parsers:
        try:
            parsed[key] = parse(body[key].value)
        except ExprError as exc:
            raise ScenarioParseError(str(exc), body[key].line, key) from None
    if len(parsed["f"]) != n_state:
        raise ScenarioParseError(f"f must have {n_state} components", body["f"].line, "f")
    try:
        return tree_plant(parsed["f"], parsed["g"], parsed["omega"], sign)
    except SettingError as exc:
        raise ScenarioParseError(str(exc), body[exc.key].line, exc.key) from None


def _parse_obstacle(body: dict, n_state: int) -> Obstacle:
    radius_entry = _require(body, "radius", "obstacle")
    radius = _one_float(radius_entry, "radius")
    if "path" in body:
        entry = body["path"]
        try:
            exprs = parse_expr_sequence(entry.value)
        except ExprError as exc:
            raise ScenarioParseError(str(exc), entry.line, "path") from None
        if len(exprs) != n_state:
            raise ScenarioParseError(f"path must have {n_state} components", entry.line, "path")
        try:
            path_fn = compile_exprs(exprs, ("t",))
        except ExprError as exc:
            raise ScenarioParseError(f"obstacle path {exc}", entry.line, "path") from None
        build = functools.partial(Obstacle.custom, path_fn, trees=tuple(exprs))
    else:
        center = _floats(_require(body, "center", "obstacle"), "center", n_state)
        if "velocity" in body:
            build = functools.partial(Obstacle.linear, center, _floats(body["velocity"], "velocity", n_state))
        else:
            build = functools.partial(Obstacle.static, center)
    try:
        return build(radius)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), radius_entry.line, "radius") from None


def parse_scenario(text: str) -> Scenario:
    sections = _split_sections(text)
    grouped: dict[str, list[dict]] = {}
    for name, body in sections:
        grouped.setdefault(name, []).append(body)
    for name in _SECTIONS:
        if name in ("obstacle", "run"):
            continue
        if name not in grouped:
            raise ScenarioParseError(f"missing section [{name}]")
        if len(grouped[name]) > 1:
            raise ScenarioParseError(f"section [{name}] appears more than once")

    init = grouped["initial_state"][0]
    x0 = _floats(_require(init, "x0", "initial_state"), "x0")
    n = x0.size

    plant = _parse_plant(grouped["plant"][0], n)
    if plant.n != n:
        raise ScenarioParseError(f"plant dimension {plant.n} disagrees with x0 length {n}")
    obstacles = tuple(_parse_obstacle(body, n) for body in grouped.get("obstacle", []))

    tgt = grouped["target"][0]
    target_center = _floats(_require(tgt, "center", "target"), "center", n)
    radius_entry = _require(tgt, "radius", "target")
    target_radius = _one_float(radius_entry, "radius")
    try:
        target = TargetSet(target_center, target_radius)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), radius_entry.line, "radius") from None
    r_c = _one_float(_require(grouped["vcz"][0], "r_c", "vcz"), "r_c")
    hor = grouped["horizon"][0]
    t_f = _one_float(_require(hor, "t_f", "horizon"), "t_f", finite=False)
    dt = _one_float(_require(hor, "dt", "horizon"), "dt", finite=False)
    shr = grouped["shrink"][0]
    r_start = _one_float(_require(shr, "r_start", "shrink"), "r_start")
    r_end = _one_float(_require(shr, "r_end", "shrink"), "r_end")

    ctl = grouped["controller"][0]
    gain = _one_float(_require(ctl, "gain", "controller"), "gain")
    d = len(obstacles) + 1
    if "alpha" in ctl:
        alpha_vals = _floats(ctl["alpha"], "alpha")
        if alpha_vals.size == 1:
            alpha_vals = np.full(d, alpha_vals[0])
        elif alpha_vals.size != d:
            raise ScenarioParseError(
                f"alpha needs 1 or {d} values, got {alpha_vals.size}", ctl["alpha"].line, "alpha"
            )
    else:
        alpha_vals = np.ones(d)
    try:
        alphas = tuple(ClassKappa(float(v)) for v in alpha_vals)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), ctl["alpha"].line, "alpha") from None
    epsilon_sat = (
        _one_float(ctl["epsilon_sat"], "epsilon_sat") if "epsilon_sat" in ctl else DEFAULT_EPSILON_SAT
    )
    qp_h = _float_matrix(ctl["qp_h"], "qp_h", (n, n)) if "qp_h" in ctl else np.eye(n)
    qp_f = _floats(ctl["qp_f"], "qp_f", n, finite=False) if "qp_f" in ctl else np.zeros(n)

    seed = 0
    if "run" in grouped and "seed" in grouped["run"][0]:
        entry = grouped["run"][0]["seed"]
        seed_f = _one_float(entry, "seed")
        if seed_f != int(seed_f) or seed_f < 0:
            raise ScenarioParseError("seed must be a non-negative integer", entry.line, "seed")
        seed = int(seed_f)

    # The constructors check these settings. No key repeats across their
    # sections, so the key that a SettingError names has one line.
    settings = {**grouped["vcz"][0], **hor, **shr, **ctl}
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
            seed=seed,
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


def _fmt_vec(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values).ravel())


def _fmt_mat(mat) -> str:
    return " ; ".join(_fmt_vec(row) for row in np.asarray(mat))


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text form; raises SerializationError for opaque callables."""
    out = io.StringIO()

    out.write("[plant]\n")
    desc = scenario.plant.descriptor
    if desc is None:
        raise SerializationError("plant has no file representation")
    if desc[0] == "catalog":
        out.write(f"catalog = {desc[1]}\n")
    else:
        _, f_srcs, g_srcs, omega_srcs = desc
        out.write(f"f = {' '.join(f_srcs)}\n")
        out.write(f"g = {' ; '.join(' '.join(row) for row in g_srcs)}\n")
        out.write(f"omega = {' '.join(omega_srcs)}\n")
        out.write(f"sign_class = {scenario.plant.sign_class}\n")

    for obs in scenario.obstacles:
        out.write("\n[obstacle]\n")
        if obs.kind == STATIC:
            out.write(f"center = {_fmt_vec(obs.center(0.0))}\n")
        elif obs.kind == LINEAR:
            out.write(f"center = {_fmt_vec(obs.center(0.0))}\n")
            out.write(f"velocity = {_fmt_vec(obs.velocity(0.0))}\n")
        elif obs.path_source is not None:
            out.write(f"path = {' '.join(obs.path_source)}\n")
        else:
            raise SerializationError("custom obstacle path has no file representation")
        out.write(f"radius = {repr(float(obs.radius))}\n")

    out.write("\n[target]\n")
    out.write(f"center = {_fmt_vec(scenario.target.center)}\n")
    out.write(f"radius = {repr(float(scenario.target.radius))}\n")
    out.write("\n[vcz]\n")
    out.write(f"r_c = {repr(float(scenario.r_c))}\n")
    out.write("\n[horizon]\n")
    out.write(f"t_f = {repr(float(scenario.t_f))}\n")
    out.write(f"dt = {repr(float(scenario.dt))}\n")
    out.write("\n[shrink]\n")
    out.write(f"r_start = {repr(float(scenario.shrink.r_start))}\n")
    out.write(f"r_end = {repr(float(scenario.shrink.r_end))}\n")
    out.write("\n[controller]\n")
    out.write(f"gain = {repr(float(scenario.confinement.gain))}\n")
    out.write(f"alpha = {_fmt_vec([a.slope for a in scenario.alphas])}\n")
    out.write(f"epsilon_sat = {repr(float(scenario.confinement.epsilon_sat))}\n")
    out.write(f"qp_h = {_fmt_mat(scenario.qp_h)}\n")
    out.write(f"qp_f = {_fmt_vec(scenario.qp_f)}\n")
    out.write("\n[initial_state]\n")
    out.write(f"x0 = {_fmt_vec(scenario.x0)}\n")
    out.write("\n[run]\n")
    out.write(f"seed = {scenario.seed}\n")
    return out.getvalue()


def scenario_hash(scenario: Scenario) -> str:
    """Stable identifier of the problem definition.

    The integration step is excluded (trace metadata records it separately),
    so traces from step-size overrides still match their scenario file.
    Falls back to a structural digest for plants with opaque callables.
    """
    try:
        text = "\n".join(
            line for line in serialize_scenario(scenario).splitlines()
            if not line.startswith("dt = ")
        )
    except SerializationError:
        text = "|".join(
            [
                f"n={scenario.n}",
                f"x0={scenario.x0.tolist()}",
                f"target={scenario.target.center.tolist()}:{scenario.target.radius}",
                f"r_c={scenario.r_c}",
                f"t_f={scenario.t_f}",
                f"shrink={scenario.shrink.r_start}:{scenario.shrink.r_end}",
                f"gain={scenario.confinement.gain}",
                f"obstacles={[(o.kind, o.radius) for o in scenario.obstacles]}",
                f"seed={scenario.seed}",
            ]
        )
    return hashlib.sha256(text.encode()).hexdigest()[:16]
