"""Prescribed-time reach-avoid control via a QP-steered virtual confinement zone.

A CBF-QP steers the center of a fixed-radius ball through moving obstacles
into a shrinking target set while an approximation-free logarithmic-barrier
law confines the (unknown) true plant inside the ball, so the ball's
reach-avoid guarantee transfers to the plant.
"""

__version__ = "0.1.0"

from .barriers import (
    ClassKappa,
    Obstacle,
    ShrinkSchedule,
    TargetSet,
)
from .confinement import (
    ConfinementBreachError,
    ConfinementLaw,
    confinement_control,
    zeta,
)
from .plant import PlantModel
from .qp import (
    QpInputError,
    QpProblem,
    QpSolution,
    solve_qp,
)
from .scenario import (
    CheckResult,
    Scenario,
    ScenarioInvalidError,
    ValidationReport,
    uniform_alphas,
    validate,
)
from .scenario_io import (
    ScenarioParseError,
    benchmark_scenario,
    load_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)
from .simulator import (
    RunMetrics,
    SimTrace,
    SimulationAbort,
    compute_metrics,
    run,
    verify_trace,
)
from .trace_io import read_trace, write_trace
from .virtual import QpInfeasibleError
