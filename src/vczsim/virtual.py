"""CBF-QP controller for the confinement-zone center.

The center is a single integrator, cdot = u_c, so each barrier h_j gives one
linear row grad h_j' u_c >= -alpha_j(h_j) - dh_j/dt on the virtual input.
Stacking all rows under a strictly convex cost yields the QP whose
minimizer steers the center. The rows come from the scenario's compiled
rows_kernel (barriers.compile_rows) and the QP is built on the scenario's
checked cost, qp_cost, so a step neither re-evaluates barriers one call at a
time nor re-checks the cost. Rows, the QP and its answer stay Python floats
through a step: A by rows, b and h as float lists, u_c as a float tuple.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .barriers import eval_avoidance, eval_reach  # noqa: F401  (references; bench/layers.py traces them here)
from .qp import INFEASIBLE, QpProblem, QpSolution, _feasible_start, solve_qp

if TYPE_CHECKING:
    from .scenario import Scenario


class QpInfeasibleError(RuntimeError):
    """The stacked CBF-QP has an empty feasible set at (c, t)."""

    def __init__(self, c, t: float, conflicting: tuple[int, ...]):
        self.c = np.asarray(c, dtype=float)
        self.t = t
        self.conflicting = conflicting
        super().__init__(
            f"CBF-QP infeasible at t = {t:.6g}, c = {self.c.tolist()}; "
            f"conflicting rows (by barrier index): {list(conflicting)}"
        )


def assemble_rows(c, t: float, scenario: "Scenario") -> tuple[list[list[float]], list[float], list[float]]:
    """CBF rows A u_c >= b at (c, t) and the barrier values h they came from.

    Row j is barrier j: obstacles in declaration order, the reach barrier
    last. A[j] = grad h_j and b[j] = -alpha_j(h_j) - dh_j/dt, with the
    class-K slopes of scenario.slopes. A comes by rows. The scenario's
    compiled rows_kernel computes them, bitwise as eval_avoidance and
    eval_reach would.
    """
    return scenario.rows_kernel(c, t)


def _conflicting_rows(problem: QpProblem) -> tuple[int, ...]:
    # Greedy deletion: drop rows whose removal keeps the set empty, leaving an
    # irreducible infeasible subset. _feasible_start is the emptiness test.
    rows, rhs = problem.rows, problem.rhs
    keep = list(range(problem.d))
    for i in list(keep):
        trial = [j for j in keep if j != i]
        if not trial:
            break
        if _feasible_start([rows[j] for j in trial], [rhs[j] for j in trial]) is None:
            keep.remove(i)
    return tuple(keep)


def virtual_control(
    c, t: float, scenario: "Scenario", hint=()
) -> tuple[tuple[float, ...], QpSolution, list[float]]:
    """Solve the stacked CBF-QP at (c, t); raises QpInfeasibleError if empty.

    `hint` is passed to solve_qp: the previous step's `solution.support`.
    Returns u_c, the QP solution and the barrier values of the solved rows,
    in row order, so callers need not evaluate the barriers again.
    """
    A, b, h = assemble_rows(c, t, scenario)
    problem = QpProblem(scenario.qp_cost, None, A, b)
    solution = solve_qp(problem, hint=hint)
    if solution.status == INFEASIBLE:
        raise QpInfeasibleError(c, t, _conflicting_rows(problem))
    return solution.u_star, solution, h
