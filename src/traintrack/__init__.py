"""Train track maps on graphs: certification, Stallings fold decompositions,
Whitehead structures, the rank-3 principal stratum automaton, and exhaustive
single-fold searches."""

from .graphs import (
    GraphMap,
    GraphStructureError,
    OrientedGraph,
    compose,
    direction_map,
    gates,
    iterate_map,
)
from .spectral import (
    IntegerMatrix,
    IntPolynomial,
    SpectralReport,
    char_poly,
    classify_matrix,
    is_perron_number,
    minimal_perron_table,
    trace_obstruction,
    transition_matrix,
)
from .certify import (
    FicReport,
    MapAnalysis,
    PnpSearchResult,
    TtCertificate,
    fic_check,
    illegal_turns,
    is_expanding,
    is_train_track,
    pnp_bounded_search,
    taken_turn_closure,
)
from .whitehead import (
    IdealWhiteheadGraph,
    WhiteheadGraph,
    ideal_whitehead,
    is_principal,
    ltt_structure,
)
from .folds import (
    FoldMove,
    FoldSequence,
    apply_fold,
    rotate,
    stallings_decompose,
)
from .automaton import (
    Automaton,
    DirectedLoop,
    build_automaton,
    decomposition_to_loop,
    enumerate_loops,
    loop_to_map,
    node_one_analysis,
)
from .search import (
    SearchSummary,
    build_universe,
    single_fold_search,
    verify_minimal_stretch_argument,
)
from .mapdoc import ParseError, parse_map_document

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
