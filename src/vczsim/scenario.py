"""Problem instances and the precondition checks that gate every run.

A scenario bundles the plant, the obstacle field, the target, the
confinement geometry, and all controller settings. validate() machine-checks
the assumptions the guarantees rest on; a run is refused if any mandatory
check fails, because the verdict would be meaningless. The bundled
benchmark is defined only by data/benchmark.scn (scenario_io.benchmark_scenario).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .barriers import ClassKappa, Obstacle, SampleError, SettingError, ShrinkSchedule, TargetSet, sampled
from .confinement import ConfinementLaw
from .plant import NEGATIVE_DEFINITE, POSITIVE_DEFINITE, PlantModel, sign_class_margin
from .qp import QpCost, QpInputError, _cost


class ScenarioInvalidError(RuntimeError):
    """A mandatory precondition check failed; the run was refused."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        failed = [c.check_id for c in report.checks if not c.passed]
        super().__init__(f"scenario failed validation checks: {failed}")


@dataclass(frozen=True)
class Scenario:
    """Complete problem instance; `slopes` are the class-K slopes of `alphas`
    as floats and `qp_cost` the checked QP cost of (qp_h, qp_f). r_c is the
    confinement law's radius and t_f the shrink schedule's horizon. The
    verdict tolerances are constants of the class. A run's step loop,
    `loop_kernel`, is compiled on first use, so a scenario that is never run
    builds none."""

    # min_h and the T1/T2 margins may dip to -invariance_tol, true clearance
    # to -clearance_tol; |u_c| above u_c_ceiling is reported in the metrics.
    invariance_tol: ClassVar[float] = 1e-3
    clearance_tol: ClassVar[float] = 1e-6
    u_c_ceiling: ClassVar[float] = 100.0

    plant: PlantModel
    obstacles: tuple[Obstacle, ...]
    target: TargetSet
    x0: np.ndarray
    shrink: ShrinkSchedule
    alphas: tuple[ClassKappa, ...]
    qp_h: np.ndarray
    qp_f: np.ndarray
    confinement: ConfinementLaw
    dt: float
    seed: int = 0
    slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    qp_cost: QpCost = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "slopes", tuple(float(a.slope) for a in self.alphas))
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "qp_h", np.asarray(self.qp_h, dtype=float))
        object.__setattr__(self, "qp_f", np.asarray(self.qp_f, dtype=float))
        if not (0 < self.t_f < math.inf and 0 < self.dt < math.inf):
            key = "dt" if 0 < self.t_f < math.inf else "t_f"
            raise SettingError(f"t_f and dt must be finite and > 0, got {self.t_f} and {self.dt}", key)
        n = self.plant.n
        if self.x0.shape != (n,):
            raise ValueError("initial state dimension disagrees with the plant")
        if not np.isfinite(self.x0).all():
            raise ValueError(f"x0 must be finite, got {self.x0.tolist()}")
        if self.qp_h.shape != (n, n):
            raise ValueError(f"qp_h must be {n}x{n}, got shape {self.qp_h.shape}")
        if self.qp_f.shape != (n,) or not np.isfinite(self.qp_f).all():
            raise SettingError(f"qp_f must be {n} finite values, got {self.qp_f.tolist()}", "qp_f")
        try:
            cost = _cost(self.qp_h.shape, self.qp_h.tobytes(), self.qp_f.tobytes())
        except QpInputError as exc:  # H not finite, symmetric and positive definite
            raise SettingError(str(exc), "qp_h") from None
        object.__setattr__(self, "qp_cost", cost)
        if len(self.alphas) != self.barrier_count:
            raise ValueError(
                f"need {self.barrier_count} class-K slopes, got {len(self.alphas)}"
            )
        expected_sign = POSITIVE_DEFINITE if self.confinement.gain > 0 else NEGATIVE_DEFINITE
        if self.plant.sign_class != expected_sign:
            raise SettingError("confinement gain sign disagrees with plant sign class", "gain")

    @property
    def n(self) -> int:
        return self.plant.n

    @property
    def r_c(self) -> float:
        return self.confinement.r_c

    @property
    def t_f(self) -> float:
        return self.shrink.t_f

    @functools.cached_property
    def loop_kernel(self):
        """(x, extend, status, miss) -> None or a breach: the run's step loop;
        see simulator.compile_loop."""
        from .simulator import compile_loop  # local import to avoid a cycle

        return compile_loop(self)

    @property
    def barrier_count(self) -> int:
        return len(self.obstacles) + 1

    def with_overrides(self, **kwargs) -> "Scenario":
        """replace(), where t_f sets the shrink schedule's horizon."""
        if "t_f" in kwargs:
            kwargs["shrink"] = replace(kwargs.get("shrink", self.shrink), t_f=kwargs.pop("t_f"))
        return replace(self, **kwargs)


def uniform_alphas(count: int) -> tuple[ClassKappa, ...]:
    return tuple(ClassKappa(1.0) for _ in range(count))


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    worst_margin: float
    worst_time: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            at = "" if c.worst_time is None else f" at t = {c.worst_time:.4g}"
            note = f" ({c.detail})" if c.detail else ""
            lines.append(
                f"{c.check_id}: {'pass' if c.passed else 'FAIL'}"
                f"  worst margin {c.worst_margin:.6g}{at}{note}"
            )
        verdict = "all checks passed" if self.all_passed else "VALIDATION FAILED"
        return "\n".join(lines + [verdict])


def _centers(index: int, obs: Obstacle, ts) -> np.ndarray:
    """obs.centers(ts) of obstacle `index`, where a path that raises where it
    is sampled or gives a non-finite centre raises SampleError naming it."""
    name = f"obstacle {index + 1} path"
    centers = sampled(name, obs.centers, ts)
    finite = np.isfinite(centers)
    if not finite.all():
        raise SampleError(f"{name} is not finite at t = {ts[int(np.argmin(finite.all(axis=1)))]:.6g}")
    return centers


def workspace_box(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box covering everything the run can touch, padded by at least 2."""
    pts = [scenario.x0, scenario.target.center]
    for i, obs in enumerate(scenario.obstacles):
        pts.extend(_centers(i, obs, np.linspace(0.0, scenario.t_f, 16)))
    pts = np.array(pts)
    spread = max(
        2.0,
        scenario.r_c,
        scenario.target.radius,
        max((o.radius for o in scenario.obstacles), default=0.0),
    )
    return pts.min(axis=0) - spread, pts.max(axis=0) + spread


def _checked(check_id: str, detail: str, body) -> CheckResult:
    """The check of body() -> (passed, worst margin, worst time). A map that
    raises where the check samples it (SampleError) fails the check, at
    margin -inf, and the detail names the map."""
    try:
        passed, margin, time = body()
    except SampleError as exc:
        return CheckResult(check_id, False, -math.inf, None, f"{detail}: {exc}")
    return CheckResult(check_id, passed, margin, time, detail)


def validate(scenario: Scenario, time_samples: int = 1001) -> ValidationReport:
    """Machine-check the assumptions behind the reach-avoid guarantee.

    V1 pairwise obstacle separation over the horizon, V2 target clear of
    obstacles at t_f, V3 initial state clear of inflated obstacles, V4 radius
    orderings between target, confinement, and shrink schedule, V5 sampled
    sign-definiteness and finiteness of the plant maps. An obstacle path or
    plant map that raises ValueError or ArithmeticError where a check samples
    it, or gives a value that is not finite there, fails that check, as does
    a workspace box too wide to sample (V5).
    """
    if time_samples < 2:
        raise ValueError("time_samples must be >= 2")
    grid = np.linspace(0.0, scenario.t_f, time_samples)
    obstacles = scenario.obstacles

    @np.errstate(over="ignore")  # a distance beyond the float range is +inf, its true order
    def separation():
        # V1: ||b_i(t) - b_j(t)|| >= 2 r_c + r_i + r_j for every pair, all t.
        centers = [_centers(i, obs, grid) for i, obs in enumerate(obstacles)]
        margin, time = math.inf, None
        for i in range(len(obstacles)):
            for j in range(i + 1, len(obstacles)):
                need = 2 * scenario.r_c + obstacles[i].radius + obstacles[j].radius
                dist = np.linalg.norm(centers[i] - centers[j], axis=1) - need
                k = int(np.argmin(dist))
                if dist[k] < margin:
                    margin, time = float(dist[k]), float(grid[k])
        return margin >= 0, margin, time

    @np.errstate(over="ignore")
    def clearance(point, pad: float, t: float):
        # V2, V3: the ball of radius pad about point at time t meets no obstacle.
        margin = math.inf
        for i, obs in enumerate(obstacles):
            gap = np.linalg.norm(_centers(i, obs, [t])[0] - point) - (obs.radius + pad)
            margin = min(margin, float(gap))
        return margin >= 0, margin, t

    def sign_class():
        # V5: sampled sign-definiteness of (g+g')/2 and finiteness of f, g, omega.
        lo, hi = workspace_box(scenario)
        margin = sign_class_margin(scenario.plant, lo, hi, 100, scenario.seed)
        for t in grid[:: max(1, time_samples // 50)].tolist():
            if not np.all(np.isfinite(sampled("plant omega", scenario.plant.disturbance, t))):
                raise SampleError(f"plant omega is not finite at t = {t:.6g}")
        return margin > 0, margin, None

    # V4: r_c < r_R, r_end <= r_R - r_c, r_start >= ||x0 - b_R||.
    gap_rc = scenario.target.radius - scenario.r_c
    gap_end = (scenario.target.radius - scenario.r_c) - scenario.shrink.r_end
    gap_start = scenario.shrink.r_start - float(
        np.linalg.norm(scenario.x0 - scenario.target.center)
    )
    v4_margin = min(gap_rc, gap_end, gap_start)
    v4_pass = gap_rc > 0 and gap_end >= 0 and gap_start >= 0
    return ValidationReport((
        _checked("V1", "obstacle separation", separation),
        _checked("V2", "target obstacle-free at t_f",
                 lambda: clearance(scenario.target.center, scenario.target.radius, scenario.t_f)),
        _checked("V3", "initial clearance", lambda: clearance(scenario.x0, scenario.r_c, 0.0)),
        CheckResult("V4", v4_pass, v4_margin, None, "radius orderings"),
        _checked("V5", "plant sign class", sign_class),
    ))
