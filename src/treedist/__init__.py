"""Topological tree indices, scalar distance measures, and counterexample search."""

from .graph_core import (
    CaterpillarSpec,
    DisconnectedGraphError,
    DuplicateEdgeError,
    Graph,
    GraphError,
    LoopEdgeError,
    NotATreeError,
    Tree,
    VertexRangeError,
    attach_tree,
    bfs_distances,
    build_caterpillar,
    centroids,
    count_trees,
    enumerate_trees,
    format_edge_list,
    from_edge_list,
    is_connected,
    parse_edge_list,
)
from .indices import (
    avg_distance,
    energy,
    ifk_entropy,
    ig_entropy,
    randic,
    shannon_entropy,
    wiener,
)
from .measures import (
    BridgeEdgeError,
    DistanceResult,
    WIENER_GAP_COEFF,
    avg_distance_increase,
    d_index,
    dominates,
    theorem1_a,
    theorem1_bound,
    theorem1_degeneracy,
    theorem3_bound,
    wiener_deletion_gap,
)
from .search import (
    CollisionPair,
    ViolationRecord,
    caterpillar_r_core,
    caterpillar_r_core_exact,
    caterpillar_scan,
    check_wiener_preserving_attachment,
    equienergetic_scan,
    fig1_randic_gap,
    find_equal_wiener_pairs,
    smallest_equal_wiener_order,
    verify_conjecture,
    verify_conjecture_detail,
)
from .spectral import Spectrum, TAU_ZERO, char_poly, eigenvalues, spectra

__version__ = "0.1.0"
