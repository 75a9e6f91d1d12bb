"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import collections
import math
import time

import numpy as np
import pytest

from oracles import loop_exhaustive, objective
from vczsim import qp, run, simulator
from vczsim.qp import INFEASIBLE, QpCertificationError, QpProblem, QpSolution, solve_qp
from vczsim.scenario_io import parse_scenario

# Feasible and strictly convex, but its multiplier (about 5e316) overflows, so
# solve_qp raises QpCertificationError.
UNCERTIFIABLE_QP = QpProblem(0.1 * np.eye(2), np.zeros(2), [[1e-159, 1e-159]], [1.0])


def uncertified_from(step: int, real_solve):
    """A solve_rows that from its call number `step` (counting from 0)
    solves UNCERTIFIABLE_QP instead, and so raises QpCertificationError."""
    calls = []

    def solve(A, b, c, t, scenario, hint=()):
        calls.append(t)
        if len(calls) > step:
            solve_qp(UNCERTIFIABLE_QP)
        return real_solve(A, b, c, t, scenario, hint)

    return solve


def make_steps_cold(monkeypatch):
    """Make every step of a run whose loop is compiled from here on miss its
    hint, so the step loop takes each QP from simulator.solve_rows, the full
    enumeration of solve_qp. A test may patch simulator.solve_rows to inject
    a fault at any step."""
    never = collections.defaultdict(lambda: lambda A, b, W: None)
    monkeypatch.setattr(simulator, "compile_solver", lambda cost, d: never)


@pytest.fixture
def cold_steps(monkeypatch):
    """make_steps_cold for the whole test."""
    make_steps_cold(monkeypatch)


def loop_solve_qp(problem: QpProblem, hint=()) -> QpSolution:
    """solve_qp on tests/oracles.py's loop solver: its answer, else the verdict
    of the solver's own exact emptiness proof."""
    solution = loop_exhaustive(problem, hint)
    if solution is not None:
        return solution
    if qp._feasible_start(problem.rows, problem.rhs) is None:
        return QpSolution(None, (), math.inf, INFEASIBLE, None)
    raise QpCertificationError("feasible, but no candidate certifies")


def solution_bits(solution):
    """A QpSolution with every float as its hex text, so -0.0 and 0.0 differ."""
    def floats(values):
        return None if values is None else tuple(x.hex() for x in values)

    return (solution.status, solution.support, solution.active_set, floats(solution.u_star),
            floats(solution.multipliers), solution.kkt_residual.hex())


def random_qp_problem(rng: np.random.Generator, m: int = 2, d: int | None = None):
    """Strictly convex random QP with a known strictly feasible point."""
    if d is None:
        d = int(rng.integers(1, 6))
    L = rng.normal(size=(m, m))
    H = L.T @ L + 0.1 * np.eye(m)
    F = rng.normal(size=m)
    A = rng.normal(size=(d, m))
    p = rng.uniform(-1.0, 1.0, size=m)
    b = A @ p - rng.uniform(0.1, 2.0, size=d)
    return QpProblem(H, F, A, b), p


def minimizer_box_bound(problem: QpProblem, feasible_point: np.ndarray) -> float:
    """Box half-width guaranteed to contain the minimizer.

    cost(u) - cost(u_free) = 0.5 ||u - u_free||_H^2, and the constrained
    minimizer costs no more than the feasible point, which bounds its
    H-distance from the unconstrained minimum.
    """
    u_free = np.linalg.solve(problem.H, -problem.F)
    gap = objective(problem, feasible_point) - objective(problem, u_free)
    lam_min = float(np.linalg.eigvalsh(problem.H).min())
    radius = np.linalg.norm(u_free) + np.sqrt(2.0 * max(0.0, gap) / lam_min)
    return float(radius) + 0.5


def bundled_benchmark_text() -> str:
    from importlib import resources

    return resources.files("vczsim.data").joinpath("benchmark.scn").read_text()


@pytest.fixture
def fresh_solvers():
    """An empty compile_solver memo before and after the test: a test that
    counts compiled solve functions sees only its own, and keeps none of its
    patched functions for later tests."""
    qp._SOLVERS.clear()
    yield
    qp._SOLVERS.clear()


@pytest.fixture(scope="session")
def benchmark_run():
    """Full bundled-benchmark run at dt = 1e-3: (scenario, trace, metrics, seconds)."""
    scenario = parse_scenario(bundled_benchmark_text())
    start = time.perf_counter()
    trace, metrics = run(scenario)
    elapsed = time.perf_counter() - start
    return scenario, trace, metrics, elapsed


@pytest.fixture(scope="session")
def benchmark_run_fine():
    """Same benchmark at dt = 5e-4 for the step-size robustness check."""
    scenario = parse_scenario(bundled_benchmark_text()).with_overrides(dt=5e-4)
    trace, metrics = run(scenario)
    return scenario, trace, metrics
