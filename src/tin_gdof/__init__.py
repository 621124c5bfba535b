"""Achievable GDoF regions, sufficient conditions and outer bounds for
uplink cellular networks that treat inter-cell interference as noise."""

from .model import (
    DecodingOrder,
    FiniteSnrSpec,
    NetworkSpec,
    Subnetwork,
    User,
    enumerate_orders,
    load_network,
    strength_levels,
)
from .regions import (
    BoundIndex,
    GdofTuple,
    LinearInequality,
    PolyRegion,
    bound_indices,
    enumerate_cyclic_sequences,
    membership,
    polyhedral_region,
)
from .potential import (
    PotentialGraph,
    PowerAllocation,
    all_circuits_region_oracle,
    build_potential_graph,
    feasible_by_negative_cycle,
)
from .conditions import (
    ConditionReport,
    classify_pimac,
    evaluate_conditions,
)
from .analysis import (
    achievable_gdof,
    achievable_rates,
    gap_report,
    gdof_outer_bound,
    general_membership,
    max_weighted_gdof,
    outer_bound_rates,
    region_includes,
    vertices,
)

__all__ = [
    "DecodingOrder",
    "FiniteSnrSpec",
    "NetworkSpec",
    "Subnetwork",
    "User",
    "enumerate_orders",
    "load_network",
    "strength_levels",
    "BoundIndex",
    "GdofTuple",
    "LinearInequality",
    "PolyRegion",
    "bound_indices",
    "enumerate_cyclic_sequences",
    "membership",
    "polyhedral_region",
    "PotentialGraph",
    "PowerAllocation",
    "all_circuits_region_oracle",
    "build_potential_graph",
    "feasible_by_negative_cycle",
    "ConditionReport",
    "classify_pimac",
    "evaluate_conditions",
    "achievable_gdof",
    "achievable_rates",
    "gap_report",
    "gdof_outer_bound",
    "general_membership",
    "max_weighted_gdof",
    "outer_bound_rates",
    "region_includes",
    "vertices",
]
__version__ = "0.1.0"
