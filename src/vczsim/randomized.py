"""Seed-reproducible randomized scenarios for the invariance campaign.

Scenarios are rejection-sampled in a [0, 12]^2 workspace until validation
passes, then run end to end. A random plant is an expression plant with its
drawn numbers as exact literals, so every campaign scenario serializes and
its file reproduces the run. Runs that abort on an infeasible CBF-QP are
excluded from the invariance statistic and counted instead; feasibility
mid-run is an assumption, not something the generator can guarantee. Runs
that abort on a QP the solver could not certify are counted too, and stay in
the invariance statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy loads its random submodule on first use; import it here so that a
# campaign's first draw does not also pay for the import.
import numpy.random

from .barriers import Obstacle, ShrinkSchedule, TargetSet
from .confinement import ConfinementLaw
from .plant import NEGATIVE_DEFINITE, POSITIVE_DEFINITE, PlantModel, expression_plant
from .scenario import Scenario, uniform_alphas, validate
from .simulator import BREACH, QP_INFEASIBLE, QP_UNCERTIFIED, SimulationAbort, run

WORKSPACE = (0.0, 12.0)


def _random_plant(rng: np.random.Generator) -> PlantModel:
    """A 2-D expression plant whose drawn numbers appear as exact literals."""
    amp = float(rng.uniform(0.0, 3.0))
    w1, w2 = rng.uniform(0.3, 1.5, size=2).tolist()
    g_diag = rng.uniform(0.5, 1.0, size=2)
    negative = bool(rng.random() < 0.25)
    g1, g2 = (-g_diag if negative else g_diag).tolist()
    omega_amp = float(rng.uniform(0.0, 0.4))
    nu = float(rng.uniform(0.5, 2.0))
    a, w1, w2, g1, g2, oa, nu = map(repr, (amp, w1, w2, g1, g2, omega_amp, nu))
    return expression_plant(
        [f"(* {a} (sin (* {w1} x1 x2)))", f"(* {a} (cos (* {w2} (+ x1 x2))))"],
        [[g1, "0.0"], ["0.0", g2]],
        [f"(* {oa} (cos (* {nu} t)))", f"(* {oa} (sin (* {nu} t)))"],
        NEGATIVE_DEFINITE if negative else POSITIVE_DEFINITE,
    )


def _target_clear_throughout(obstacles, b_target, r_target, r_c, t_f, samples: int = 64) -> bool:
    need = r_target + r_c
    ts = np.linspace(0.0, t_f, samples)
    for obs in obstacles:
        if np.any(np.linalg.norm(obs.centers(ts) - b_target, axis=1) < obs.radius + need):
            return False
    return True


MAX_ATTEMPTS = 500


def random_scenario(seed: int, dt: float = 2.5e-3) -> Scenario:
    """One validated random scenario; identical seed gives an identical scenario.

    t_f scales with the start-to-target span so the shrinking set contracts
    at roughly 1.4 units/s; much faster contraction demands approach speeds
    the avoidance rows cannot concede.
    """
    rng = np.random.default_rng(seed)
    lo, hi = WORKSPACE
    for _ in range(MAX_ATTEMPTS):
        r_c = float(rng.uniform(0.3, 0.5))
        r_target = float(rng.uniform(1.0, 1.4))
        x0 = rng.uniform(lo + 0.5, lo + 3.5, size=2)
        b_target = rng.uniform(hi - 3.5, hi - 0.5, size=2)
        span = float(np.linalg.norm(x0 - b_target))
        if span < 5.0:
            continue
        horizon = round(min(9.0, max(5.0, span / 1.4)), 3)
        n_obs = int(rng.integers(1, 4))
        obstacles = []
        for _ in range(n_obs):
            center = rng.uniform(lo + 2.0, hi - 2.0, size=2)
            radius = float(rng.uniform(0.5, 1.1))
            if rng.random() < 0.5:
                obstacles.append(Obstacle.static(center, radius))
            else:
                velocity = rng.uniform(-0.3, 0.3, size=2)
                obstacles.append(Obstacle.linear(center, velocity, radius))
        # Keep the target ball unobstructed over the whole horizon, not just at
        # t_f: an obstacle parked against the shrinking set late in the run
        # tends to pinch the center into an infeasible QP.
        if not _target_clear_throughout(obstacles, b_target, r_target, r_c, horizon):
            continue
        plant = _random_plant(rng)
        gain = 14.0 if plant.sign_class == POSITIVE_DEFINITE else -14.0
        candidate = Scenario(
            plant=plant,
            obstacles=tuple(obstacles),
            target=TargetSet(b_target, r_target),
            x0=x0,
            shrink=ShrinkSchedule(span + float(rng.uniform(0.3, 1.0)), 0.9 * (r_target - r_c), horizon),
            alphas=uniform_alphas(len(obstacles) + 1),
            qp_h=np.eye(2),
            qp_f=np.zeros(2),
            confinement=ConfinementLaw(gain, r_c),
            dt=dt,
            seed=seed,
        )
        if validate(candidate).all_passed:
            return candidate
    raise RuntimeError(f"no valid scenario after {MAX_ATTEMPTS} attempts (seed {seed})")


COMPLETED = "completed"


@dataclass(frozen=True)
class CampaignRun:
    seed: int
    n_obstacles: int
    status: str            # completed | qp_infeasible | qp_uncertified | confinement_breach
    all_qp_optimal: bool
    min_barrier_value: float
    max_u_c_norm: float
    verdict: str
    detail: str = ""


@dataclass(frozen=True)
class CampaignSummary:
    runs: tuple[CampaignRun, ...]

    @property
    def completed(self) -> tuple[CampaignRun, ...]:
        return tuple(r for r in self.runs if r.status == COMPLETED)

    @property
    def infeasible_count(self) -> int:
        return sum(1 for r in self.runs if r.status == QP_INFEASIBLE)

    @property
    def uncertified_count(self) -> int:
        return sum(1 for r in self.runs if r.status == QP_UNCERTIFIED)

    @property
    def breach_count(self) -> int:
        return sum(1 for r in self.runs if r.status == BREACH)

    def invariance_holds(self) -> bool:
        """Every run with all-optimal QP statuses kept all barriers above -tol."""
        candidates = [r for r in self.runs if r.status != QP_INFEASIBLE and r.all_qp_optimal]
        return all(r.min_barrier_value >= -Scenario.invariance_tol for r in candidates)

    def format_table(self) -> str:
        head = f"{'seed':>6} {'obs':>4} {'status':<20} {'min_h':>12} {'max|u_c|':>10} {'verdict':>8}"
        lines = [head, "-" * len(head)]
        for r in self.runs:
            lines.append(
                f"{r.seed:>6} {r.n_obstacles:>4} {r.status:<20} "
                f"{r.min_barrier_value:>12.4e} {r.max_u_c_norm:>10.3f} {r.verdict:>8}"
            )
        n = len(self.runs)
        uncertified = f"{self.uncertified_count} qp-uncertified, " if self.uncertified_count else ""
        lines.append(
            f"{n} scenarios: {len(self.completed)} completed, "
            f"{self.infeasible_count} qp-infeasible ({100.0 * self.infeasible_count / n:.1f}%), "
            f"{uncertified}{self.breach_count} breached"
        )
        lines.append(
            f"forward invariance (min_h >= -{Scenario.invariance_tol:g} on all-optimal runs): "
            f"{'OK' if self.invariance_holds() else 'VIOLATED'}"
        )
        return "\n".join(lines)


def _partial_stats(trace) -> tuple[float, float, bool]:
    if len(trace) == 0:
        return math.inf, 0.0, True
    min_h = float(np.min(trace.h))
    max_u_c = float(np.max(np.linalg.norm(trace.u_c, axis=1)))
    all_opt = all(s == "optimal" for s in trace.qp_status)
    return min_h, max_u_c, all_opt


def run_campaign(count: int = 20, base_seed: int = 2024, dt: float = 2.5e-3) -> CampaignSummary:
    """Generate, run, and summarize `count` random scenarios."""
    runs = []
    for k in range(count):
        seed = base_seed + k
        scenario = random_scenario(seed, dt=dt)
        try:
            # random_scenario returns only scenarios that passed validate.
            trace, metrics = run(scenario, check=False)
            runs.append(
                CampaignRun(
                    seed,
                    len(scenario.obstacles),
                    COMPLETED,
                    metrics.all_qp_optimal,
                    metrics.min_barrier_value,
                    metrics.max_u_c_norm,
                    metrics.ptra_verdict,
                    metrics.failure_reason,
                )
            )
        except SimulationAbort as abort:
            min_h, max_u_c, all_opt = _partial_stats(abort.trace)
            runs.append(
                CampaignRun(
                    seed,
                    len(scenario.obstacles),
                    abort.reason,
                    all_opt,
                    min_h,
                    max_u_c,
                    "fail",
                    f"aborted at t = {abort.t:.3f}",
                )
            )
    return CampaignSummary(tuple(runs))
