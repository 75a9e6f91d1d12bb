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

from .barriers import ClassKappa, Obstacle, SettingError, ShrinkSchedule, TargetSet, compile_rows
from .confinement import ConfinementLaw
from .plant import NEGATIVE_DEFINITE, POSITIVE_DEFINITE, PlantModel, compile_rk4, sign_class_margin
from .qp import QpCost, _cost

MANDATORY_CHECKS = ("V1", "V2", "V3", "V4", "V5")


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
    verdict tolerances are constants of the class. The step kernels
    `rows_kernel` and `rk4_kernel` are compiled on first use, so a scenario
    that is never run builds none."""

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
        # QpInputError unless H is PD
        object.__setattr__(self, "qp_cost", _cost(self.qp_h.shape, self.qp_h.tobytes(), self.qp_f.tobytes()))
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
    def rows_kernel(self):
        """(c, t) -> (A, b, h), the CBF rows; see barriers.compile_rows."""
        return compile_rows(self.obstacles, self.r_c, self.target.point, self.shrink, self.slopes)

    @functools.cached_property
    def rk4_kernel(self):
        """(x, u, t, dt) -> x after one RK4 step of the plant; see plant.compile_rk4."""
        return compile_rk4(self.plant)

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


def workspace_box(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box covering everything the run can touch, padded by at least 2."""
    pts = [scenario.x0, scenario.target.center]
    for obs in scenario.obstacles:
        pts.extend(obs.centers(np.linspace(0.0, scenario.t_f, 16)))
    pts = np.array(pts)
    spread = max(
        2.0,
        scenario.r_c,
        scenario.target.radius,
        max((o.radius for o in scenario.obstacles), default=0.0),
    )
    return pts.min(axis=0) - spread, pts.max(axis=0) + spread


def validate(scenario: Scenario, time_samples: int = 1001) -> ValidationReport:
    """Machine-check the assumptions behind the reach-avoid guarantee.

    V1 pairwise obstacle separation over the horizon, V2 target clear of
    obstacles at t_f, V3 initial state clear of inflated obstacles, V4 radius
    orderings between target, confinement, and shrink schedule, V5 sampled
    sign-definiteness and finiteness of the plant maps.
    """
    if time_samples < 2:
        raise ValueError("time_samples must be >= 2")
    grid = np.linspace(0.0, scenario.t_f, time_samples)
    obstacles = scenario.obstacles
    centers = [obs.centers(grid) for obs in obstacles]
    checks = []

    # V1: ||b_i(t) - b_j(t)|| >= 2 r_c + r_i + r_j for every pair, all t.
    v1_margin, v1_time = math.inf, None
    for i in range(len(obstacles)):
        for j in range(i + 1, len(obstacles)):
            need = 2 * scenario.r_c + obstacles[i].radius + obstacles[j].radius
            dist = np.linalg.norm(centers[i] - centers[j], axis=1) - need
            k = int(np.argmin(dist))
            if dist[k] < v1_margin:
                v1_margin, v1_time = float(dist[k]), float(grid[k])
    checks.append(CheckResult("V1", v1_margin >= 0, v1_margin, v1_time, "obstacle separation"))

    # V2: at t_f the target ball is obstacle-free.
    v2_margin, v2_detail = math.inf, "target obstacle-free at t_f"
    for obs in obstacles:
        need = obs.radius + scenario.target.radius
        v2_margin = min(
            v2_margin,
            float(np.linalg.norm(obs.center(scenario.t_f) - scenario.target.center) - need),
        )
    checks.append(CheckResult("V2", v2_margin >= 0, v2_margin, scenario.t_f, v2_detail))

    # V3: initial state outside every inflated obstacle.
    v3_margin = math.inf
    for obs in obstacles:
        need = obs.radius + scenario.r_c
        v3_margin = min(v3_margin, float(np.linalg.norm(scenario.x0 - obs.center(0.0)) - need))
    checks.append(CheckResult("V3", v3_margin >= 0, v3_margin, 0.0, "initial clearance"))

    # V4: r_c < r_R, r_end <= r_R - r_c, r_start >= ||x0 - b_R||.
    gap_rc = scenario.target.radius - scenario.r_c
    gap_end = (scenario.target.radius - scenario.r_c) - scenario.shrink.r_end
    gap_start = scenario.shrink.r_start - float(
        np.linalg.norm(scenario.x0 - scenario.target.center)
    )
    v4_margin = min(gap_rc, gap_end, gap_start)
    v4_pass = gap_rc > 0 and gap_end >= 0 and gap_start >= 0
    checks.append(CheckResult("V4", v4_pass, v4_margin, None, "radius orderings"))

    # V5: sampled sign-definiteness of (g+g')/2 and finiteness of f, g, omega.
    lo, hi = workspace_box(scenario)
    v5_margin = sign_class_margin(scenario.plant, lo, hi, 100, scenario.seed)
    omega_ok = all(
        np.all(np.isfinite(scenario.plant.disturbance(t))) for t in grid[:: max(1, time_samples // 50)]
    )
    v5_pass = v5_margin > 0 and omega_ok
    checks.append(CheckResult("V5", v5_pass, v5_margin, None, "plant sign class"))

    return ValidationReport(tuple(checks))

