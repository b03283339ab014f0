from __future__ import annotations

import pytest

from oracles import block_reducible_map, doubling_control_map, rose_map_xyz
from traintrack.automaton import build_automaton
from traintrack.catalog import single_fold_map


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
