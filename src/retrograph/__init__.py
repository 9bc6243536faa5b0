"""Retrosynthetic planning on a deduplicated AND-OR search graph.

The package splits into a molecule/reaction domain layer (molspace), the
shared search graph with success and cost bookkeeping (searchgraph), the
planning loop and batching (planner), pluggable node-selection cost models
(costmodel), parameter tensors with MLP blocks and Adam (numerics), the
graph policy network (policygnn), training-data generation (traindata),
evaluation metrics (metrics), and a command-line front end (cli).
"""

from .costmodel import GnnCost, ValueNetCost, ZeroCost, make_cost_model
from .molspace import (
    AdditiveSplitDomain,
    ExpansionOracle,
    FactorSplitDomain,
    Inventory,
    Reaction,
    TableDomain,
    features,
    make_domain,
)
from .planner import (
    PlanConfig,
    PlanResult,
    PlanningError,
    RouteTree,
    batch_plan,
    extract_route,
    plan,
    validate_route,
)
from .policygnn import GnnHyper, GnnParameters
from .searchgraph import ContractViolation, SearchGraph

__version__ = "0.1.0"

__all__ = [
    "AdditiveSplitDomain",
    "ContractViolation",
    "ExpansionOracle",
    "FactorSplitDomain",
    "GnnCost",
    "GnnHyper",
    "GnnParameters",
    "Inventory",
    "PlanConfig",
    "PlanResult",
    "PlanningError",
    "Reaction",
    "RouteTree",
    "SearchGraph",
    "TableDomain",
    "ValueNetCost",
    "ZeroCost",
    "batch_plan",
    "extract_route",
    "features",
    "make_cost_model",
    "make_domain",
    "plan",
    "validate_route",
    "__version__",
]
