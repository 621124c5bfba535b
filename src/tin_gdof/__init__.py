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
    CyclicSequence,
    GdofTuple,
    LinearInequality,
    PolyRegion,
    bound_indices,
    bound_rhs,
    enumerate_cyclic_sequences,
    membership,
    polyhedral_region,
    set_function_f,
)
from .potential import (
    PotentialGraph,
    PowerAllocation,
    all_circuits_region_oracle,
    build_potential_graph,
    feasible_by_negative_cycle,
    recover_power_allocation,
)
from .conditions import (
    ConditionReport,
    classify_pimac,
    evaluate_conditions,
    outer_bound_user_partition,
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
