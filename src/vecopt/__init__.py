"""Energy-optimal workload placement across vehicles, edge nodes, and cloud.

Build a scenario, derive affine power coefficients, formulate the
placement problem as a mixed-integer linear program, and solve it
exactly with the bundled simplex and branch-and-bound engine.
"""

from .bnb import BnbOptions, MilpSolution, SolveStats, branch_and_bound, solve_scenario
from .check import CheckReport, CheckResult, cross_check
from .milp import MilpProblem, build_milp, check_assignment, extract_placement
from .oracle import OracleSizeError, exhaustive_oracle
from .power import (
    DerivationError,
    PowerParams,
    PowerReport,
    cloud_only_baseline,
    cloud_only_placement,
    derive_power_params,
    evaluate_placement,
    node_power,
    traffic_for_workload,
)
from .randgen import random_scenario
from .scenario import (
    CLASS_ORDER,
    DEMAND_CLASSES,
    build_reference_scenario,
    build_routes,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
    validate_scenario,
)
from .simplex import LpWorkspace, SolverError
from .sweep import SweepReport, SweepRow, compute_saving, emit_report, run_sweep, write_plot_files
from .types import (
    VERSION,
    DemandSpec,
    InterfaceSpec,
    Link,
    ModelOptions,
    NodeSpec,
    Placement,
    PlacementError,
    Scenario,
    ScenarioError,
)

__version__ = VERSION

__all__ = [
    "BnbOptions",
    "CheckReport",
    "CheckResult",
    "CLASS_ORDER",
    "DEMAND_CLASSES",
    "DemandSpec",
    "DerivationError",
    "InterfaceSpec",
    "Link",
    "LpWorkspace",
    "MilpProblem",
    "MilpSolution",
    "ModelOptions",
    "NodeSpec",
    "OracleSizeError",
    "Placement",
    "PlacementError",
    "PowerParams",
    "PowerReport",
    "Scenario",
    "ScenarioError",
    "SolveStats",
    "SolverError",
    "SweepReport",
    "SweepRow",
    "branch_and_bound",
    "build_milp",
    "build_reference_scenario",
    "build_routes",
    "check_assignment",
    "cloud_only_baseline",
    "cloud_only_placement",
    "compute_saving",
    "cross_check",
    "derive_power_params",
    "emit_report",
    "evaluate_placement",
    "exhaustive_oracle",
    "extract_placement",
    "load_scenario",
    "node_power",
    "random_scenario",
    "run_sweep",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "serialize_scenario",
    "solve_scenario",
    "traffic_for_workload",
    "validate_scenario",
    "write_plot_files",
]
