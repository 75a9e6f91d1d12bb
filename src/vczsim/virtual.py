"""CBF-QP controller for the confinement-zone center.

The center is a single integrator, cdot = u_c, so each barrier h_j gives one
linear row grad h_j' u_c >= -alpha_j(h_j) - dh_j/dt on the virtual input.
Stacking all rows under a strictly convex cost yields the QP whose
minimizer steers the center. A run's step loop (simulator.compile_loop)
writes the rows inline and calls the QP function of its hint's size, and
passes its rows to solve_rows only when that returns None. solve_rows builds
a QpProblem on the scenario's checked cost, qp_cost, and calls solve_qp,
which tries the hint, then the working sets, on qp.compile_solver's
generated, certified per-size functions, proves the polyhedron empty or
raises QpCertificationError. virtual_control is the plain float reference
step: the rows one barrier at a time from eval_avoidance and eval_reach
(assemble_rows), then solve_rows. Rows, the QP and its answer stay Python
floats through a step: A by rows, b and h as float lists, u_c as a tuple.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .barriers import eval_avoidance, eval_reach
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
    class-K slopes of scenario.slopes. A comes by rows.
    """
    evals = [eval_avoidance(c, t, obs, scenario.r_c) for obs in scenario.obstacles]
    evals.append(eval_reach(c, t, scenario.target.point, scenario.shrink))
    h, grads, dts = zip(*evals)
    b = [-slope * h_j - dt_j for slope, h_j, dt_j in zip(scenario.slopes, h, dts)]
    return list(grads), b, list(h)


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


def solve_rows(A, b, c, t: float, scenario: "Scenario", hint=()) -> QpSolution:
    """The certified minimizer of the CBF-QP A u_c >= b at (c, t) on
    scenario.qp_cost by solve_qp, `hint` tried first; raises
    QpInfeasibleError, with the conflicting rows, if the rows admit no u_c."""
    problem = QpProblem(scenario.qp_cost, None, A, b)
    solution = solve_qp(problem, hint)
    if solution.status == INFEASIBLE:
        raise QpInfeasibleError(c, t, _conflicting_rows(problem))
    return solution


def virtual_control(
    c, t: float, scenario: "Scenario", hint=()
) -> tuple[tuple[float, ...], QpSolution, list[float]]:
    """Solve the stacked CBF-QP at (c, t); raises QpInfeasibleError if empty.

    `hint` is the previous step's `solution.support`, which solve_qp tries
    first. Returns u_c, the QP solution and the barrier values of the solved
    rows, in row order, so callers need not evaluate the barriers again.
    """
    A, b, h = assemble_rows(c, t, scenario)
    solution = solve_rows(A, b, c, t, scenario, hint)
    return solution.u_star, solution, h
