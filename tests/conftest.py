from __future__ import annotations

import pytest

from oracles import block_reducible_map, doubling_control_map, identity_map, rose_map_xyz
from traintrack.automaton import build_automaton
from traintrack.catalog import single_fold_map
from traintrack.folds import FoldSequence, apply_fold


@pytest.fixture(scope="session")
def gmap():
    return single_fold_map()


@pytest.fixture(scope="session")
def psi():
    return rose_map_xyz()


@pytest.fixture(scope="session")
def doubling_control():
    return doubling_control_map()


@pytest.fixture(scope="session")
def block_map():
    return block_reducible_map()


@pytest.fixture(scope="session")
def automaton():
    return build_automaton()


@pytest.fixture(scope="session")
def unpullable_sequences(gmap):
    """A partial fold and a complete fold of the reference graph, each
    closed by the identity relabeling of its target: no relabeling can be
    pulled back past either."""
    graph = gmap.source
    d, c, b = (graph.direction_of(x) for x in ("d", "~c", "b"))
    moves = (apply_fold(graph, d, c, "partial"), apply_fold(graph, b, d, "complete"))
    return [FoldSequence((m,), identity_map(m.target)) for m in moves]
