"""Hybrid quantum-classical ant colony optimizer for the TSP.

Large instances are decomposed by recursive K-means into leaves of at most
4 cities, each leaf is solved by a quantum-sampled ant colony (simulated
statevector circuits with optional gate noise), the sub-tours are stitched
along a centroid tour and refined globally.
"""

__version__ = "0.1.0"

from .aco import AcoParams, aco_solve
from .circuit_error import estimate_circuit_error, qaco_circuit_layers
from .cluster import ClusterTree, build_cluster_tree, centroid_of, kmeans
from .hybrid import HybridConfig, LeafSolver, Refinement, solve_hybrid, two_opt
from .qaco import QacoParams, QacoResult, qaco_solve
from .qsim import NO_NOISE, NoiseKind, NoiseSpec
from .tsplib import (
    Distances,
    Instance,
    MetricMode,
    Tour,
    distance,
    distance_matrix,
    gen_random_instance,
    load_instance,
    parse_instance,
    save_instance,
    tour_length,
    validate_tour,
)

__all__ = [
    "AcoParams",
    "ClusterTree",
    "Distances",
    "HybridConfig",
    "Instance",
    "LeafSolver",
    "MetricMode",
    "NO_NOISE",
    "NoiseKind",
    "NoiseSpec",
    "QacoParams",
    "QacoResult",
    "Refinement",
    "Tour",
    "aco_solve",
    "build_cluster_tree",
    "centroid_of",
    "distance",
    "distance_matrix",
    "estimate_circuit_error",
    "gen_random_instance",
    "kmeans",
    "load_instance",
    "parse_instance",
    "qaco_circuit_layers",
    "qaco_solve",
    "save_instance",
    "solve_hybrid",
    "tour_length",
    "two_opt",
    "validate_tour",
]
