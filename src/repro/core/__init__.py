"""The paper's contribution: primitives, oracles, the FDP/FSP protocols,
the potential-function machinery, the universality planner, and the
Section 4 embedding framework."""

from repro.core.fdp import FDPProcess, normalize_belief
from repro.core.fsp import FSPProcess
from repro.core.oracles import (
    ORACLES,
    AlwaysOracle,
    AuditedOracle,
    NeverOracle,
    SingleOracle,
    TimeoutSingleOracle,
)
from repro.core.potential import (
    all_leaving_gone,
    all_leaving_hibernating,
    fdp_legitimate,
    fsp_legitimate,
    invalid_edges,
    is_valid_state,
    potential,
    relevant_connected_per_component,
    staying_connected_per_component,
)
from repro.core.primitives import (
    Primitive,
    PrimitiveGraph,
    PrimitiveOp,
    apply_schedule,
)
from repro.core.framework import FrameworkProcess, PendingMessage
from repro.core.oracles import NoIncomingOracle
from repro.core.potential import staying_connected_induced
from repro.core.scenarios import (
    CLEAN,
    HEAVY_CORRUPTION,
    LIGHT_CORRUPTION,
    Corruption,
    build_fdp_engine,
    build_framework_engine,
    build_fsp_engine,
    choose_leaving,
)
from repro.core.universality import (
    NECESSITY_WITNESSES,
    NecessityWitness,
    TransformationPlan,
    bidirected_extension,
    plan_transformation,
    plan_weak_transformation,
    restricted_reachable,
    rounds_to_clique,
)

__all__ = [
    "ORACLES",
    "AlwaysOracle",
    "AuditedOracle",
    "CLEAN",
    "Corruption",
    "FDPProcess",
    "FSPProcess",
    "HEAVY_CORRUPTION",
    "LIGHT_CORRUPTION",
    "NECESSITY_WITNESSES",
    "NecessityWitness",
    "NeverOracle",
    "Primitive",
    "PrimitiveGraph",
    "PrimitiveOp",
    "SingleOracle",
    "TimeoutSingleOracle",
    "TransformationPlan",
    "all_leaving_gone",
    "all_leaving_hibernating",
    "apply_schedule",
    "bidirected_extension",
    "FrameworkProcess",
    "NoIncomingOracle",
    "PendingMessage",
    "build_fdp_engine",
    "build_framework_engine",
    "build_fsp_engine",
    "staying_connected_induced",
    "choose_leaving",
    "fdp_legitimate",
    "fsp_legitimate",
    "invalid_edges",
    "is_valid_state",
    "normalize_belief",
    "plan_transformation",
    "plan_weak_transformation",
    "potential",
    "relevant_connected_per_component",
    "restricted_reachable",
    "rounds_to_clique",
    "staying_connected_per_component",
]
