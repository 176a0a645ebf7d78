"""Reaction network parsing, structure, steady states, and dynamics."""

from .network import (
    NetworkAnalysis,
    analyze,
    build_rate_matrix,
    cayley_matrix,
    deficiency,
    is_weakly_reversible,
    linkage_classes,
    resolve_rate,
    stoichiometric_matrix,
    stoichiometric_rank,
    strong_components,
)
from .parser import Network, Reaction, parse_network
from .simulate import Trajectory, conservation_laws, simulate
from .toric import SteadyState, ToricBinomial, birch_point, psi_vector, toric_binomials
from .trees import matrix_tree_cofactor, tree_constant_texts, tree_constants

__all__ = [
    "Network",
    "NetworkAnalysis",
    "Reaction",
    "SteadyState",
    "ToricBinomial",
    "Trajectory",
    "analyze",
    "birch_point",
    "build_rate_matrix",
    "cayley_matrix",
    "conservation_laws",
    "deficiency",
    "is_weakly_reversible",
    "linkage_classes",
    "matrix_tree_cofactor",
    "parse_network",
    "psi_vector",
    "resolve_rate",
    "simulate",
    "stoichiometric_matrix",
    "stoichiometric_rank",
    "strong_components",
    "toric_binomials",
    "tree_constant_texts",
    "tree_constants",
]
