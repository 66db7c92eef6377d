"""chordal-lab: exact counting and uniform sampling of labeled chordal graphs.

Exact path: a dynamic program over evaporation behavior counts w-colorable
labeled (connected) chordal graphs on [n] with arbitrary-precision integers;
inverting its recurrences yields an exactly uniform sampler.  Approximate
path: split-graph window sums give fast (1 +- eps)-approximate counts and an
approximately uniform sampler for large n.
"""

from .counting import CountingContext, count_all, count_connected
from .decimal_text import decimal_string
from .graphs import (
    EvaporationSequence,
    LabeledGraph,
    NotChordalError,
    SplitPartition,
    complement,
    complete_graph,
    connected_components,
    evaporation_sequence,
    from_edge_list_text,
    from_json_dict,
    glue,
    is_chordal,
    is_clique,
    is_connected,
    is_independent_set,
    is_simplicial,
    max_clique_size,
    phi_map,
    relabel,
    split_partition,
    to_edge_list_text,
    to_json_dict,
)
from .sampling import (
    ChordalSampler,
    RandomStream,
    categorical,
    sample_chordal,
    sample_connected_chordal,
    sample_subset,
)
from .splits import (
    SplitDraw,
    approx_count_chordal,
    approx_count_split,
    approx_sample_chordal,
    approx_sampler,
    as_epsilon,
    sample_split_approx,
    sample_split_draw,
    threshold_f,
    threshold_g,
)

__version__ = "0.1.0"

__all__ = [
    "CountingContext",
    "ChordalSampler",
    "EvaporationSequence",
    "LabeledGraph",
    "NotChordalError",
    "RandomStream",
    "SplitDraw",
    "SplitPartition",
    "approx_count_chordal",
    "approx_count_split",
    "approx_sample_chordal",
    "approx_sampler",
    "as_epsilon",
    "categorical",
    "complement",
    "complete_graph",
    "connected_components",
    "count_all",
    "count_connected",
    "decimal_string",
    "evaporation_sequence",
    "from_edge_list_text",
    "from_json_dict",
    "glue",
    "is_chordal",
    "is_clique",
    "is_connected",
    "is_independent_set",
    "is_simplicial",
    "max_clique_size",
    "phi_map",
    "relabel",
    "sample_chordal",
    "sample_connected_chordal",
    "sample_split_approx",
    "sample_split_draw",
    "sample_subset",
    "split_partition",
    "threshold_f",
    "threshold_g",
    "to_edge_list_text",
    "to_json_dict",
]
