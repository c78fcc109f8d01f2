"""Measurement tooling: flows, connectivity, defects, delay, spectral gap.

This package answers the quantitative questions the paper's theorems pose
about a concrete overlay snapshot: what is each node's edge-connectivity
from the server?  what fraction of hanging-thread d-tuples are defective?
how deep is the pipeline?  how well does the overlay expand?
"""

from .cuts import cut_mentions_failed_parents, min_cut
from .connectivity import (
    TupleConnectivitySolver,
    all_node_connectivities,
    graph_to_flow_network,
    node_connectivity,
)
from .defects import (
    DefectSummary,
    defect_of_columns,
    exact_defect,
    sampled_defect,
    tuple_space_size,
)
from .delay import DelayProfile, delay_profile, pipeline_depth_profile
from .flows import FlowNetwork
from .spectral import spectral_gap, symmetric_adjacency
from .trajectory import (
    DefectTrajectory,
    TrajectoryPoint,
    measure_defect_trajectory,
)
from .stats import chi_square_same_distribution, ks_same_distribution

__all__ = [
    "DefectSummary",
    "DefectTrajectory",
    "DelayProfile",
    "FlowNetwork",
    "TupleConnectivitySolver",
    "all_node_connectivities",
    "chi_square_same_distribution",
    "cut_mentions_failed_parents",
    "defect_of_columns",
    "min_cut",
    "delay_profile",
    "exact_defect",
    "graph_to_flow_network",
    "ks_same_distribution",
    "measure_defect_trajectory",
    "TrajectoryPoint",
    "node_connectivity",
    "pipeline_depth_profile",
    "sampled_defect",
    "spectral_gap",
    "symmetric_adjacency",
    "tuple_space_size",
]
