"""Exact tools for normal edge-colorings of cubic graphs.

Classify edges of proper 5-edge-colorings as poor, rich, or abnormal;
minimize the number of abnormal edges exactly; translate normal colorings
to Petersen-colorings and back; and build and check the composite-graph
constructions with their coloring extensions.
"""

from .coloring import (
    EdgeClass,
    EdgeColoring,
    abnormal_set,
    classify_all,
    classify_edge,
    is_normal,
    is_proper,
    palette,
    read_coloring,
    write_coloring,
)
from .constructions import (
    DemoReport,
    cyclic_join_one_edge,
    cyclic_join_two_edges,
    disjoint_copies,
    extend_one_edge,
    extend_two_edges,
    extend_vertex_star,
    k4_gadget_extend,
    k_abnormal_example,
    pigeonhole_demo,
    two_cut_connection,
    vertex_replacement,
)
from .formats import parse_graph, write_graph
from .generate import enumerate_cubic
from .graphs import (
    ConnectivityReport,
    CubicGraph,
    catalog,
    connectivity_report,
)
from .petersen import (
    PetersenModel,
    build_p_coloring,
    canonical_petersen,
    model_cycles,
    preimage_degrees,
    pullback,
    verify_h_coloring,
)
from .solver import (
    SearchConfig,
    SolveResult,
    SolveStatus,
    has_normal_k,
    min_abnormal,
    normal_chromatic_index,
    scan_no_single_abnormal,
)

__version__ = "0.1.0"
