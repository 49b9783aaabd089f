"""Iteration/data distribution: Table-2 constraints, Eq. 7 ILP, schedules."""

from .constraints import (
    AffinityConstraint,
    ConstraintSystem,
    LoadBalanceConstraint,
    LocalityConstraint,
    StorageConstraint,
    constraint_system,
    extract_constraints,
)
from .costs import (
    MachineCosts,
    T3D,
    communication_cost,
    edge_volume,
    imbalance_cost,
    pareto_front,
)
from .ilp import (
    DistributionPlan,
    TermMemo,
    VariableComponent,
    objective_breakdown,
    reduce_system,
    solve_enumerative,
    solve_milp,
)
from .chainregion import ChainRegion, chain_region
from .schedule import (
    BlockCyclicLayout,
    BlockLayout,
    CyclicSchedule,
    ReplicatedLayout,
)

__all__ = [
    "AffinityConstraint",
    "ChainRegion",
    "chain_region",
    "BlockCyclicLayout",
    "BlockLayout",
    "ConstraintSystem",
    "CyclicSchedule",
    "DistributionPlan",
    "LoadBalanceConstraint",
    "LocalityConstraint",
    "MachineCosts",
    "ReplicatedLayout",
    "StorageConstraint",
    "T3D",
    "TermMemo",
    "VariableComponent",
    "communication_cost",
    "constraint_system",
    "edge_volume",
    "extract_constraints",
    "imbalance_cost",
    "objective_breakdown",
    "pareto_front",
    "reduce_system",
    "solve_enumerative",
    "solve_milp",
]
