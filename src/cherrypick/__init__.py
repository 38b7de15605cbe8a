"""Exact hybrid numbers for pairs of unrooted binary forests via cherry
picking sequences, with network reconstruction and brute-force oracles."""

from .builder import build_network
from .errors import CherryPickError
from .networks import (
    Blob,
    PseudoNetwork,
    blobs,
    network_from_tree,
    remove_blob_edge,
    remove_network_leaf,
    remove_pendant_blob,
    reticulation_number,
    simplify,
)
from .newick import (
    parse_forest,
    parse_network,
    parse_trace,
    parse_tree,
    serialize_forest,
    serialize_network,
    serialize_trace,
)
from .oracles import displays, tbr_distance_bfs, tbr_neighbors
from .reductions import (
    ReductionStep,
    ReductionTrace,
    applicable_steps,
    apply_step,
    labels_of,
    validate_trace,
)
from .search import greedy_cps, hybrid_number, min_weight_cps, tbr_distance
from .trees import (
    EdgeRef,
    Forest,
    PhyloTree,
    canonical_form,
    pendant_of,
    pendant_shapes,
    remove_edge,
    remove_leaf,
    restrict,
    subtree_edge,
)

__version__ = "0.3.0"

__all__ = [
    "Blob",
    "CherryPickError",
    "EdgeRef",
    "Forest",
    "PhyloTree",
    "PseudoNetwork",
    "ReductionStep",
    "ReductionTrace",
    "applicable_steps",
    "apply_step",
    "blobs",
    "build_network",
    "canonical_form",
    "displays",
    "greedy_cps",
    "hybrid_number",
    "labels_of",
    "min_weight_cps",
    "network_from_tree",
    "parse_forest",
    "parse_network",
    "parse_trace",
    "parse_tree",
    "pendant_of",
    "pendant_shapes",
    "remove_blob_edge",
    "remove_edge",
    "remove_leaf",
    "remove_network_leaf",
    "remove_pendant_blob",
    "restrict",
    "reticulation_number",
    "serialize_forest",
    "serialize_network",
    "serialize_trace",
    "simplify",
    "subtree_edge",
    "tbr_distance",
    "tbr_distance_bfs",
    "tbr_neighbors",
    "validate_trace",
]
