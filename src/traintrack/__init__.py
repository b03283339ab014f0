"""Train track maps on graphs: certification, Stallings fold decompositions,
Whitehead structures, the rank-3 principal stratum automaton, and exhaustive
single-fold searches."""

import importlib

# the public names by defining module; ``import traintrack`` loads no module,
# and each name is read from its module when it is used (PEP 562)
_EXPORTS = {
    "graphs": "GraphMap GraphStructureError OrientedGraph compose direction_map gates iterate_map",
    "spectral": "IntegerMatrix IntPolynomial SpectralReport char_poly classify_matrix "
                "is_perron_number minimal_perron_table trace_obstruction transition_matrix",
    "certify": "FicReport MapAnalysis PnpSearchResult TtCertificate fic_check illegal_turns "
               "is_expanding is_train_track pnp_bounded_search taken_turn_closure",
    "whitehead": "IdealWhiteheadGraph WhiteheadGraph ideal_whitehead is_principal ltt_structure",
    "folds": "FoldMove FoldSequence apply_fold rotate stallings_decompose",
    "automaton": "Automaton DirectedLoop build_automaton decomposition_to_loop enumerate_loops "
                 "loop_to_map node_one_analysis",
    "search": "SearchSummary build_universe single_fold_search verify_minimal_stretch_argument",
    "mapdoc": "ParseError parse_map_document",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """The public ``name``, read from its module at each access."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
