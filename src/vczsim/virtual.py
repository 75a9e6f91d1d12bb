"""CBF-QP controller for the confinement-zone center.

Each barrier contributes one linear row a'u >= rho on the virtual input:
a is the input map pulled back through the barrier gradient, rho collects
the class-K relaxation, the drift term, and the barrier's time partial.
Stacking all rows under a strictly convex cost yields the QP whose
minimizer steers the center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .barriers import BarrierEval, eval_avoidance, eval_reach
from .qp import INFEASIBLE, KKT_TOL, QpProblem, QpSolution, _feasible_start, solve_qp

if TYPE_CHECKING:
    from .scenario import Scenario


@dataclass(frozen=True)
class VirtualSystem:
    """Center dynamics cdot = drift(c) + input_map(c) u_c, relative degree one."""

    drift: Callable[[np.ndarray], np.ndarray]
    input_map: Callable[[np.ndarray], np.ndarray]
    n: int
    m: int
    descriptor: str = "custom"

    @staticmethod
    def single_integrator(n: int) -> "VirtualSystem":
        zero = np.zeros(n)
        ident = np.eye(n)
        return VirtualSystem(lambda c: zero, lambda c: ident, n, n, "integrator")


@dataclass(frozen=True)
class ConstraintRow:
    """One stacked CBF condition, a' u_c >= rho, tagged with its barrier index
    and the barrier value h it was built from."""

    a: np.ndarray
    rho: float
    source: int
    h: float


class QpInfeasibleError(RuntimeError):
    """The stacked CBF-QP has an empty feasible set at (c, t)."""

    def __init__(self, c, t: float, rows, conflicting: tuple[int, ...]):
        self.c = np.asarray(c, dtype=float)
        self.t = t
        self.rows = rows
        self.conflicting = conflicting
        super().__init__(
            f"CBF-QP infeasible at t = {t:.6g}, c = {self.c.tolist()}; "
            f"conflicting rows (by barrier index): {list(conflicting)}"
        )


def barrier_evals(c, t: float, scenario: "Scenario") -> list[BarrierEval]:
    """Avoidance barriers in declaration order, then the reach barrier."""
    evals = [eval_avoidance(c, t, obs, scenario.r_c) for obs in scenario.obstacles]
    evals.append(eval_reach(c, t, scenario.target.center, scenario.shrink))
    return evals


def assemble_rows(c, t: float, scenario: "Scenario") -> list[ConstraintRow]:
    """Stacked rows: obstacles in declaration order, reach row last."""
    c = np.asarray(c, dtype=float)
    vs = scenario.virtual_system
    f_c = np.asarray(vs.drift(c), dtype=float)
    g_c = np.asarray(vs.input_map(c), dtype=float)
    rows = []
    for j, ev in enumerate(barrier_evals(c, t, scenario)):
        alpha = scenario.alphas[j]
        a = g_c.T @ ev.grad_c
        rho = -alpha(ev.value) - float(ev.grad_c @ f_c) - ev.dt
        rows.append(ConstraintRow(a, rho, j, ev.value))
    return rows


def _stack(scenario: "Scenario", rows) -> QpProblem:
    A = np.array([row.a for row in rows])
    b = np.array([row.rho for row in rows])
    return QpProblem(scenario.qp_h, scenario.qp_f, A, b)


def _conflicting_rows(problem: QpProblem, rows) -> tuple[int, ...]:
    # Greedy deletion: drop rows whose removal keeps the set empty, leaving an
    # irreducible infeasible subset. _feasible_start is the emptiness test.
    keep = list(range(len(rows)))
    for i in list(keep):
        trial = [j for j in keep if j != i]
        if not trial:
            break
        if _feasible_start(problem.A[trial], problem.b[trial], 0.5 * KKT_TOL) is None:
            keep.remove(i)
    return tuple(rows[j].source for j in keep)


def virtual_control(
    c, t: float, scenario: "Scenario", hint=()
) -> tuple[np.ndarray, QpSolution, np.ndarray]:
    """Solve the stacked CBF-QP at (c, t); raises QpInfeasibleError if empty.

    `hint` is passed to solve_qp: the previous step's `solution.support`.
    Returns u_c, the QP solution and the barrier values of the solved rows,
    in row order, so callers need not evaluate the barriers again.
    """
    rows = assemble_rows(c, t, scenario)
    problem = _stack(scenario, rows)
    solution = solve_qp(problem, hint=hint)
    if solution.status == INFEASIBLE:
        raise QpInfeasibleError(c, t, rows, _conflicting_rows(problem, rows))
    return solution.u_star, solution, np.array([row.h for row in rows])
