from __future__ import annotations

import itertools
import math
import random
import sys
from collections import Counter

import pytest

import traintrack.automaton as automaton_module
import traintrack.graphs as graphs_module
from oracles import (
    _conjugate_by_relabeling,
    compose_power,
    loop_map_by_composition,
    rotate_loop,
    signed_permutations,
)
from traintrack.automaton import (
    RANK3_EDGE_NAMES,
    DirectedLoop,
    _walk_decomposition,
    _walk_orbits,
    closing_matrix,
    decomposition_to_loop,
    enumerate_loops,
    enumerate_nodes,
    fold_candidates,
    graph_from_groups,
    is_node,
    loop_to_map,
    node_one_analysis,
    relabel_key,
    transport,
)
from traintrack.catalog import single_fold_map
from traintrack.certify import MapAnalysis, taken_turn_closure
from traintrack.cli import main
from traintrack.digraph import connected_components, strongly_connected_components
from traintrack.folds import rotate, stallings_decompose
from traintrack.graphs import (
    GraphStructureError,
    apply_signed,
    compose_signed,
    direction_table,
    invert_signed,
    isomorphism_vertex_map,
    signed_images,
)
from traintrack.search import SearchUniverse, build_universe, graph_isomorphisms
from traintrack.spectral import (
    edge_counts,
    invariant_edge_set,
    is_irreducible,
    transition_matrix,
)
from traintrack.whitehead import canonical_groups, is_principal, ltt_structure

# frozen counts from the enumeration, cross-checked by the orbit sums below
GOLDEN_LABELED_GRAPHS = 2000
GOLDEN_NODES = 24000
GOLDEN_FOLD_EDGES = 86400
GOLDEN_CLASSES = 17

IDENTITY = tuple(range(1, len(RANK3_EDGE_NAMES) + 1))


def _assert_recomposes(automaton, loop, g):
    """The loop composes to the decomposed map, up to relabeling conjugacy."""
    assert loop is not None
    assert _conjugate_by_relabeling(loop_to_map(automaton, loop), g)


def _universe_keys():
    return [key for graph in build_universe(3).graphs for key in enumerate_nodes(graph)]


def test_enumeration_counts(automaton, walked_graphs, oracle_nodes):
    assert len(walked_graphs) == GOLDEN_LABELED_GRAPHS
    assert len(set(walked_graphs)) == len(walked_graphs)
    assert len(oracle_nodes) == GOLDEN_NODES
    # 12 keys over each of the 5 universe graphs, all of them labelled nodes
    keys = _universe_keys()
    assert len(keys) == len(set(keys)) == 60
    assert set(keys) <= set(oracle_nodes)
    assert automaton.n_nodes == GOLDEN_NODES
    assert automaton.n_fold_edges == GOLDEN_FOLD_EDGES
    assert automaton.n_classes == GOLDEN_CLASSES


def test_every_node_passes_the_profile(automaton, oracle_nodes):
    assert all(map(is_node, oracle_nodes))
    assert all(map(is_node, _universe_keys()))
    assert all(map(is_node, automaton.classes.rep_keys))


REFERENCE_KEY = (
    ((-5, -4, 1), (-3, 2, 4, 5), (-2, -1, 3)),
    -3,
    ((-5, -4), (-5, 1), (-4, 1), (-3, 5), (-2, -1), (-2, 3), (-1, 3), (2, 4), (2, 5), (4, 5)),
)


def _profile_violations():
    """The reference key changed to violate one condition of the profile each."""
    groups, red, turns = REFERENCE_KEY
    without_24 = tuple(t for t in turns if t != (2, 4))
    return {
        "valences 2, 3, 5": (((-5, -4), (-3, 1, 2, 4, 5), (-2, -1, 3)), red, turns),
        "red at a valence-3 vertex": (groups, 1, turns),
        "red in two turns": (groups, red, tuple(sorted(turns + ((-3, 2),)))),
        "a triangle turn missing": (groups, red, tuple(sorted(without_24 + ((-5, -2),)))),
        "an extra turn": (groups, red, tuple(sorted(turns + ((-5, -2),)))),
    }


def test_the_profile_rejects_each_violated_condition(automaton):
    assert automaton.classes.key(automaton.node_one) == REFERENCE_KEY
    assert is_node(REFERENCE_KEY)
    assert [name for name, key in _profile_violations().items() if is_node(key)] == []


def test_node_ids_round_trip(automaton, oracle_nodes):
    # every labelled node is located as one (class, relabeling) pair whose
    # key it is, distinct nodes as distinct pairs, and each class holds its
    # orbit-stabiliser count of them
    classes = automaton.classes
    located = [classes.locate(key) for key in oracle_nodes]
    assert [classes.key(node) for node in located] == oracle_nodes
    assert len(set(located)) == GOLDEN_NODES
    sizes = Counter(c for c, _sigma in located)
    assert sizes == {c: classes.size(c) for c in range(automaton.n_classes)}
    assert all(classes.locate(classes.key(node)) == node for node in located[::97])


def test_node_index_rejects_keys_off_the_node_set(automaton):
    # the node profile over a (4,3,3) partition that is no connected graph:
    # loops a and b at the valence-4 vertex, d joining the other two vertices
    disconnected = (
        ((-5, -4, 5), (-3, 3, 4), (-2, -1, 1, 2)),
        1,
        ((-5, -4), (-5, 5), (-4, 5), (-3, 3), (-3, 4), (-2, -1), (-2, 2), (-1, 2), (1, 2), (3, 4)),
    )
    assert is_node(disconnected)
    rejected = dict(_profile_violations(), disconnected=disconnected)
    for name, key in rejected.items():
        assert automaton.classes.locate(key) is None, name


def test_class_sizes_partition_nodes(automaton):
    sizes = [automaton.classes.size(c) for c in range(automaton.n_classes)]
    assert sum(sizes) == GOLDEN_NODES
    # orbit-stabilizer: orbit size times stabilizer order is the group order
    for size, stabilizer in zip(sizes, automaton.classes.stabilizers):
        assert size * len(stabilizer) == 3840


def test_reference_structure_is_a_node(automaton, gmap):
    key = ltt_structure(MapAnalysis(gmap))
    assert automaton.classes.locate(key) == automaton.node_one


def test_fold_candidates_involve_the_red_direction(oracle_nodes):
    rng = random.Random(21)
    for key in rng.sample(oracle_nodes, 200):
        groups, red, _turns = key
        candidates = fold_candidates(key)
        for e1, e0 in candidates:
            assert red in (e1, e0)
        # four ordered candidates generically; two when the valence-4 vertex
        # carries a loop through the red direction (the same-edge pair drops)
        assert len(candidates) in (2, 4)
        if len(candidates) == 2:
            big = next(g for g in groups if len(g) == 4)
            assert -red in big


def test_transport_matches_direct_computation_on_reference(automaton, gmap):
    # one fold around the reference loop equals the structure of the rotated map
    seq = stallings_decompose(gmap)
    loop = decomposition_to_loop(automaton, seq)
    _assert_recomposes(automaton, loop, gmap)
    key0 = automaton.classes.key(loop.nodes[0])
    out = transport(key0, *loop.folds[0])
    assert out == automaton.classes.key(loop.nodes[1])


def test_node_set_closed_under_relabeling(automaton, oracle_nodes):
    rng = random.Random(5)
    sigmas = rng.sample(list(signed_permutations(5)), 6)
    locate = automaton.classes.locate
    for key in rng.sample(oracle_nodes, 60):
        for sigma in sigmas:
            image = locate(relabel_key(key, sigma))
            # classes are unions of orbits, so membership is stable
            assert image is not None
            assert image[0] == locate(key)[0]


def test_single_loop_component(automaton):
    loops = automaton.loop_sccs()
    assert len(loops) == 1
    component = automaton.sccs[loops[0]]
    assert len(component) == 14
    assert automaton.node_one[0] in component


def test_reference_loop_roundtrip(automaton, gmap):
    seq = stallings_decompose(gmap)
    loop = decomposition_to_loop(automaton, seq)
    _assert_recomposes(automaton, loop, gmap)
    assert len(loop.folds) == 1
    rebuilt = loop_to_map(automaton, loop)
    assert rebuilt.edge_images == gmap.edge_images
    assert rebuilt.source.edge_names == gmap.source.edge_names


def test_power_decompositions_locate_recomposing_loops(automaton, gmap):
    seq = stallings_decompose(gmap)
    for power in (1, 2, 3):
        powered = compose_power(seq, power)
        for j in range(len(powered) + 1):
            rotated = rotate(powered, j)
            loop = decomposition_to_loop(automaton, rotated)
            _assert_recomposes(automaton, loop, rotated.composed_map())
            assert len(loop.folds) == power


def test_decomposition_to_loop_needs_proper_full_folds(
    automaton, unpullable_sequences, monkeypatch
):
    """A sequence with a complete or partial fold is no automaton loop, and
    its folds are checked before any rotation would pull one back."""

    def no_rotation(*args):
        raise AssertionError("a sequence with a complete or partial fold was rotated")

    monkeypatch.setattr(automaton_module, "rotate", no_rotation)
    for seq in unpullable_sequences:
        assert decomposition_to_loop(automaton, seq) is None


def test_loop_rotation_is_sound(automaton, gmap):
    seq = stallings_decompose(gmap)
    loop = decomposition_to_loop(automaton, seq)
    _assert_recomposes(automaton, loop, gmap)
    rotated = rotate_loop(automaton, loop)
    m = loop_to_map(automaton, rotated)
    assert is_irreducible(transition_matrix(m))
    # rotating a length-1 loop lands on a node in the same class
    assert rotated.nodes[0][0] == loop.nodes[0][0]


def test_transport_soundness_short_loops(automaton):
    """Master invariant: along every short loop the composed map has exactly
    the node's red direction nonperiodic and takes only node turns, with
    equality whenever the composition is irreducible."""
    loops = enumerate_loops(automaton, 2)
    assert loops
    equal = 0
    for loop in loops:
        m = loop_to_map(automaton, loop)
        key = automaton.classes.key(loop.nodes[0])
        a = MapAnalysis(m)
        red = {d for d in m.source.directions()} - a.periodic
        assert red == {key[1]}
        closure = taken_turn_closure(a)
        node_turns = frozenset(tuple(t) for t in key[2])
        assert closure <= node_turns
        if is_irreducible(a.matrix):
            assert closure == node_turns
            equal += 1
    assert equal > 0


def test_node_one_analysis(automaton):
    analysis = node_one_analysis(automaton, loop_bound=3)
    assert analysis.obstruction_holds
    assert analysis.loops_checked > 0
    assert analysis.entering_folds == 4
    assert len(analysis.residual_loop_classes) == 11
    assert len(analysis.also_disconnected) == 2
    # the reference node's graph and the fold sources' graphs: one class
    assert len(analysis.underlying_graph_classes) == 1


def test_node_one_analysis_is_bounded(automaton):
    # "all reducible" holds up to length 4 only: at length 5, 260 of the
    # residual loops compose to irreducible transition matrices
    analysis = node_one_analysis(automaton, loop_bound=5)
    assert analysis.loop_bound == 5
    assert analysis.loops_checked == 2352
    assert analysis.loops_reducible == 2092
    assert not analysis.obstruction_holds


def _generators(n: int) -> tuple[tuple[int, ...], ...]:
    """Generators of the signed permutations of n labels, for the oracle's
    class walk: a transposition (the identity for one label), an n-cycle and
    one orientation flip."""
    labels = list(range(1, n + 1))
    swap = tuple(labels[1::-1] + labels[2:])
    cycle = tuple(labels[1:] + labels[:1])
    flip = (-1,) + tuple(labels[1:])
    return (swap, cycle, flip)


def test_group_generators_follow_their_argument():
    # asked for 5 labels and then 4: each answer generates the signed
    # permutations of its own labels
    for n in (5, 4):
        gens = _generators(n)
        reached = {tuple(range(1, n + 1))}
        frontier = list(reached)
        while frontier:
            sigma = frontier.pop()
            for gen in gens:
                nxt = compose_signed(gen, sigma)
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        assert reached == set(signed_permutations(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_group_tables_match_compose_signed(n):
    # the direction table of a composite is the composite of the tables, so
    # a node's folds move along with its relabeling; every pair for up to
    # three labels, a sample of pairs beyond
    sigmas = list(signed_permutations(n))
    assert len(sigmas) == 2**n * math.factorial(n)
    assert direction_table(sigmas[0]) == direction_table(tuple(range(1, n + 1)))
    if len(sigmas) <= 48:
        pairs = list(itertools.product(sigmas, repeat=2))
    else:
        rng = random.Random(n)
        pairs = [(rng.choice(sigmas), rng.choice(sigmas)) for _ in range(5000)]
    directions = [s * d for d in range(1, n + 1) for s in (1, -1)]
    for s, t in pairs:
        table = direction_table(compose_signed(s, t))
        st, tt = direction_table(s), direction_table(t)
        assert all(table[d] == st[tt[d]] == apply_signed(s, apply_signed(t, d)) for d in directions)


def test_disconnected_partitions_are_the_reversal_closed_ones(walked_graphs):
    # over all 2,100 partitions of the ten directions into groups of sizes
    # 4, 3 and 3, the graph is connected exactly when its valence-4 group is
    # not closed under reversal; the walked labelled graphs are the connected
    # ones
    directions = sorted(s * i for i in range(1, len(RANK3_EDGE_NAMES) + 1) for s in (1, -1))
    partitions = set()
    for big in itertools.combinations(directions, 4):
        rest = [d for d in directions if d not in big]
        for group in itertools.combinations(rest, 3):
            other = tuple(d for d in rest if d not in group)
            partitions.add(tuple(sorted((big, group, other))))
    assert len(partitions) == 2100
    connected = []
    for groups in partitions:
        at = {d: gi for gi, group in enumerate(groups) for d in group}
        ends = [(at[i], at[-i]) for i in range(1, len(RANK3_EDGE_NAMES) + 1)]
        big = next(g for g in groups if len(g) == 4)
        closed = {-d for d in big} == set(big)
        assert (len(connected_components(range(3), ends)) == 1) != closed, groups
        if not closed:
            connected.append(groups)
    assert len(connected) == 2000
    assert sorted(walked_graphs) == sorted(connected)


def test_build_enumerates_no_signed_permutation(monkeypatch):
    # one build relabels within the automorphism groups only: the package
    # has no enumeration of the signed permutations to call, each class's
    # first key is relabeled by the automorphisms of its universe graph (at
    # most 12 |Aut(G)| per graph), and each transported representative fold
    # is located by one more relabeling and one isomorphism
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "traintrack"]
    assert graphs_module in package and automaton_module in package
    assert not [m.__name__ for m in package if hasattr(m, "signed_permutations")]
    calls = Counter()
    for name in ("relabel_key", "transport", "graph_isomorphisms"):
        def counted(*args, _name=name, _fn=getattr(automaton_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(automaton_module, name, counted)
    automaton = automaton_module.build_automaton(3)
    graphs = build_universe(3).graphs
    bound = sum(12 * len(graph_isomorphisms(g, g)) for g in graphs)
    rep_folds = sum(map(len, automaton.rep_folds))
    assert bound == 624 and rep_folds == calls["transport"] == 62
    assert calls["relabel_key"] <= bound + rep_folds
    # one automorphism group per graph, one isomorphism per located key: the
    # representative folds' targets and the reference structure
    assert calls["graph_isomorphisms"] == len(graphs) + rep_folds + 1


def test_negative_loop_bound_rejected(automaton):
    with pytest.raises(GraphStructureError):
        enumerate_loops(automaton, -1)
    assert enumerate_loops(automaton, 0) == []


def test_signed_permutation_algebra():
    rng = random.Random(0)
    sigmas = rng.sample(list(signed_permutations(5)), 10)
    for s in sigmas:
        assert compose_signed(s, invert_signed(s)) == (1, 2, 3, 4, 5)
        for d in range(1, 6):
            assert apply_signed(s, -d) == -apply_signed(s, d)


def _residual_loops(automaton, loop_bound):
    """The loops ``node_one_analysis`` composes: those within the residual
    component, started at its class representatives."""
    analysis = node_one_analysis(automaton, loop_bound=loop_bound)
    residual = set(analysis.residual_loop_classes)
    reps = [automaton.classes.node(c, IDENTITY) for c in sorted(residual)]
    loops = enumerate_loops(automaton, loop_bound, start_nodes=reps, classes=residual)
    assert len(loops) == analysis.loops_checked
    return loops


def test_residual_loop_reducibility_has_witnesses(automaton):
    # node_one_analysis counts a loop reducible on is_irreducible alone; each
    # such matrix has an invariant proper edge set, and no other one does
    loops = _residual_loops(automaton, 4)
    assert len(loops) == 732
    for loop in loops:
        matrix = transition_matrix(loop_to_map(automaton, loop))
        assert (invariant_edge_set(matrix) is None) == is_irreducible(matrix)
        assert not is_irreducible(matrix)


def test_loops_to_junk_maps_fail_fic(automaton):
    # loops inside the residual component never certify as fully irreducible
    from traintrack.certify import fic_check

    loops = _residual_loops(automaton, 2)
    assert loops
    for loop in loops[:40]:
        m = loop_to_map(automaton, loop)
        assert not fic_check(MapAnalysis(m)).passed


def _least_nodes(automaton, oracle, classes):
    """The least labelled node of each class, located: the walks from these
    starts are the labelled walks that the pinned counts below were first
    taken on."""
    to_oracle = _class_map(automaton, oracle)
    return [
        automaton.classes.locate(oracle["nodes"][oracle["class_members"][to_oracle[c]][0]])
        for c in classes
    ]


def _least_residual_nodes(automaton, oracle):
    residual = node_one_analysis(automaton, loop_bound=0).residual_loop_classes
    return _least_nodes(automaton, oracle, residual)


def _counting_out_folds(monkeypatch) -> Counter:
    read = Counter()
    out_folds = automaton_module.Automaton.out_folds

    def counted(self, node):
        read[node] += 1
        return out_folds(self, node)

    monkeypatch.setattr(automaton_module.Automaton, "out_folds", counted)
    return read


@pytest.mark.parametrize("bound, folds_read", [(4, 264), (5, 641)])
def test_enumerate_loops_reads_each_node_once(automaton, oracle, monkeypatch, bound, folds_read):
    starts = _least_residual_nodes(automaton, oracle)
    read = _counting_out_folds(monkeypatch)
    loops = enumerate_loops(automaton, bound, start_nodes=starts)
    assert len(loops) == {4: 748, 5: 2432}[bound]
    assert len(read) == folds_read
    assert set(read.values()) == {1}


@pytest.mark.parametrize("bound, folds_read, loops_kept", [(4, 194, 732), (5, 395, 2352)])
def test_enumerate_loops_within_classes_prunes_walks(automaton, oracle, monkeypatch, bound,
                                                    folds_read, loops_kept):
    # walks that leave the residual classes are never entered: fewer nodes
    # read, and the loops are those of the unpruned list that stay inside,
    # in the same order
    starts = _least_residual_nodes(automaton, oracle)
    residual = {c for c, _sigma in starts}
    unpruned = enumerate_loops(automaton, bound, start_nodes=starts)
    read = _counting_out_folds(monkeypatch)
    loops = enumerate_loops(automaton, bound, start_nodes=starts, classes=residual)
    assert loops == [lp for lp in unpruned if all(c in residual for c, _sigma in lp.nodes)]
    assert len(loops) == loops_kept
    assert len(read) == folds_read
    assert set(read.values()) == {1}
    assert all(c in residual for c, _sigma in read)


def _assert_shared_walks_compose_like_fresh_loops(automaton, loops):
    walks: dict = {}
    for loop in loops:
        assert loop_to_map(automaton, loop, walks) == loop_to_map(automaton, loop)


@pytest.mark.parametrize("bound", [4, 5])
def test_shared_walks_compose_like_fresh_loops(automaton, bound):
    residual = node_one_analysis(automaton, loop_bound=0).residual_loop_classes
    reps = [automaton.classes.node(c, IDENTITY) for c in residual]
    loops = enumerate_loops(automaton, bound, start_nodes=reps)
    assert len(loops) == {4: 748, 5: 2432}[bound]
    _assert_shared_walks_compose_like_fresh_loops(automaton, loops)


def test_shared_walks_keep_start_nodes_apart(automaton, oracle):
    # from the least labelled node of every class, two fold prefixes start
    # on different graphs, so a memo keyed by the folds alone would mix
    # their walks
    starts = _least_nodes(automaton, oracle, range(automaton.n_classes))
    loops = enumerate_loops(automaton, 3, start_nodes=starts)
    graphs = {}
    for loop in loops:
        for k in range(1, len(loop.folds) + 1):
            graphs.setdefault(loop.folds[:k], set()).add(automaton.classes.key(loop.nodes[0])[0])
    assert sum(len(groups) > 1 for groups in graphs.values()) == 2
    _assert_shared_walks_compose_like_fresh_loops(automaton, loops)


def test_node_one_analysis_folds_each_prefix_once(automaton, monkeypatch):
    # 732 loops along 180 fold walks in 103 walk orbits: one loop_to_map per
    # orbit's first walk, whose 171 distinct prefixes are folded once each
    # and composed beyond the first fold (153); isomorphism tests for the 32
    # stabiliser elements at the 9 starts, the 103 first closings and the
    # 732 closings of every member walk; one irreducibility test per closing
    # of a first walk (368), and no relabeling map built
    calls = Counter()
    names = (
        "loop_to_map", "apply_fold", "compose", "isomorphism_vertex_map", "relabeling",
        "is_irreducible",
    )
    for name in names:
        fn = getattr(automaton_module, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(automaton_module, name, counted)
    analysis = node_one_analysis(automaton, loop_bound=4)
    assert analysis.loops_checked == analysis.loops_reducible == 732
    assert [calls[name] for name in names] == [103, 171, 153, 867, 0, 368]
    # a second analysis folds its walks again
    node_one_analysis(automaton, loop_bound=4)
    assert [calls[name] for name in names] == [206, 342, 306, 1734, 0, 736]


# residual loops checked and reducible, per loop bound
RESIDUAL_COUNTS = {
    1: (16, 16), 2: (96, 96), 3: (252, 252), 4: (732, 732), 5: (2352, 2092), 6: (7560, 6356),
}


@pytest.mark.parametrize("bound", sorted(RESIDUAL_COUNTS))
def test_orbit_weighted_counts_match_every_loop(automaton, bound):
    # classifying one walk per stabiliser orbit, weighted by the orbit's
    # size, counts what classifying every residual loop on its own map does
    analysis = node_one_analysis(automaton, loop_bound=bound)
    residual = analysis.residual_loop_classes
    reps = [automaton.classes.node(c, IDENTITY) for c in residual]
    loops = enumerate_loops(automaton, bound, start_nodes=reps, classes=set(residual))
    walks: dict = {}
    reducible = sum(
        not is_irreducible(transition_matrix(loop_to_map(automaton, lp, walks))) for lp in loops
    )
    assert (len(loops), reducible) == RESIDUAL_COUNTS[bound]
    assert (analysis.loops_checked, analysis.loops_reducible) == RESIDUAL_COUNTS[bound]


@pytest.mark.parametrize("bound", [4, 5])
def test_closing_matrices_are_the_loop_transition_matrices(automaton, bound):
    # a walk's edge counts with the columns moved by a closing are the
    # transition matrix of the loop it closes
    walks: dict = {}
    for loop in _residual_loops(automaton, bound):
        loop_to_map(automaton, loop, walks)
        composed = walks[loop.nodes[0]][loop.folds][1]
        matrix = transition_matrix(loop_to_map(automaton, loop))
        assert closing_matrix(edge_counts(composed), loop.closing) == matrix


@pytest.mark.parametrize("dropped", [0, -1])
def test_stabiliser_missing_an_element_is_a_structure_error(automaton, monkeypatch, dropped):
    # with the identity, or the last element, left out of every stabiliser,
    # the orbits no longer partition the walks
    walk_orbits = automaton_module._walk_orbits
    monkeypatch.setattr(
        automaton_module,
        "_walk_orbits",
        lambda stabilizer, walks: walk_orbits(
            [s for i, s in enumerate(stabilizer) if i != dropped % len(stabilizer)], walks
        ),
    )
    with pytest.raises(GraphStructureError, match="walk orbit weights do not sum"):
        node_one_analysis(automaton, loop_bound=4)


def test_wrong_walk_orbit_weight_is_a_structure_error(automaton, monkeypatch):
    # one orbit a member short weighs one walk too little
    walk_orbits = automaton_module._walk_orbits
    dropped = []

    def one_member_short(stabilizer, walks):
        orbits = walk_orbits(stabilizer, walks)
        for folds, members in orbits:
            if not dropped and len(members) > 1:
                image = next(m for m in members if m != folds)
                dropped.append(members.pop(image))
        return orbits

    monkeypatch.setattr(automaton_module, "_walk_orbits", one_member_short)
    with pytest.raises(GraphStructureError, match="walk orbit weights do not sum"):
        node_one_analysis(automaton, loop_bound=4)
    assert dropped


def test_member_closing_that_is_no_isomorphism_is_rejected(automaton, monkeypatch):
    # a closing that is no isomorphism on a walk that is not the first of
    # its orbit: only the member check sees it, since that walk is never
    # composed
    loops = _residual_loops(automaton, 4)
    closings = {}
    for loop in loops:
        closings.setdefault(loop.nodes[0], {}).setdefault(loop.folds, []).append(loop)
    start, member = next(
        (start, image)
        for start, of_walk in closings.items()
        for folds, members in _walk_orbits(automaton.classes.stabilizers[start[0]], of_walk)
        for image in members
        if image != folds
    )
    loop = closings[start][member][0]
    end = graph_from_groups(automaton.classes.key(loop.nodes[-1])[0])
    base = graph_from_groups(automaton.classes.key(start)[0])
    flips = [tuple(-x if i == k else x for i, x in enumerate(loop.closing)) for k in range(5)]
    bad = []
    for closing in flips:
        try:
            isomorphism_vertex_map(end, base, closing)
        except GraphStructureError:
            bad.append(closing)
    assert bad
    i = loops.index(loop)
    mutated = loops[:i] + [DirectedLoop(loop.nodes, loop.folds, bad[0])] + loops[i + 1:]
    monkeypatch.setattr(automaton_module, "enumerate_loops", lambda *args: mutated)
    with pytest.raises(GraphStructureError, match="not a graph isomorphism"):
        node_one_analysis(automaton, loop_bound=4)


def test_loop_maps_equal_their_composed_closings(automaton, gmap):
    # relabeling a tight composed walk is composing the closing relabeling
    walks: dict = {}
    loops = _residual_loops(automaton, 4)
    assert len(loops) == 732
    for loop in loops:
        assert loop_to_map(automaton, loop, walks) == loop_map_by_composition(automaton, loop)
    reference = decomposition_to_loop(automaton, stallings_decompose(gmap))
    assert loop_to_map(automaton, reference) == loop_map_by_composition(automaton, reference)


def test_loop_closing_that_is_no_isomorphism_is_rejected(automaton, gmap):
    reference = decomposition_to_loop(automaton, stallings_decompose(gmap))
    assert reference.closing == (-2, -4, 5, -3, 1)
    bad_closings = (
        # c goes onto the reversal of b's image, which fits its ends: only
        # the edge bijection fails, and relabeling the walk alone would pass
        (-2, -4, 4, -3, 1),
        # d and e swapped: a bijection on edges and vertices sending both
        # edges between the wrong vertices
        (-2, -4, 5, 1, -3),
    )
    for closing in bad_closings:
        loop = DirectedLoop(reference.nodes, reference.folds, closing)
        with pytest.raises(GraphStructureError, match="not a graph isomorphism"):
            loop_to_map(automaton, loop)


def test_rank_four_rejected():
    from traintrack.automaton import build_automaton
    from traintrack.graphs import GraphStructureError

    with pytest.raises(GraphStructureError):
        build_automaton(rank=4)


def test_graph_from_groups_reconstruction(oracle_nodes):
    rng = random.Random(31)
    for key in rng.sample(oracle_nodes, 50):
        graph = graph_from_groups(key[0])
        assert graph.valence_profile() == (3, 3, 4)
        assert graph.rank() == 3
        assert graph.is_connected()


def test_relabeling_off_the_node_set_is_a_structure_error(monkeypatch, capsys):
    # with one key of an orbit of several left out over the first universe
    # graph, an automorphism moves its class's first key onto it
    enumerate_nodes_ = automaton_module.enumerate_nodes

    def one_key_short(graph):
        return enumerate_nodes_(graph)[:-1]

    monkeypatch.setattr(automaton_module, "enumerate_nodes", one_key_short)
    with pytest.raises(GraphStructureError, match="relabeling left the node set"):
        automaton_module.build_automaton(3)
    assert main(["automaton", "build", "--loop-bound", "1"]) == 3
    assert "relabeling left the node set" in capsys.readouterr().err


def test_fold_transport_off_the_node_set_is_a_structure_error(automaton, monkeypatch, capsys):
    # with one universe graph missing, the keys over the others stay closed
    # under their automorphisms, but a fold from another graph lands on it
    graph_of = automaton.classes.class_graph
    dropped = next(
        graph_of[t]
        for c, folds in enumerate(automaton.rep_folds)
        for _e1, _e0, t, _coset in folds
        if graph_of[t] != graph_of[c]
    )
    graphs = tuple(g for i, g in enumerate(build_universe(3).graphs) if i != dropped)
    monkeypatch.setattr(automaton_module, "build_universe", lambda rank: SearchUniverse(graphs))
    with pytest.raises(GraphStructureError, match="fold transport left the node set"):
        automaton_module.build_automaton(3)
    assert main(["automaton", "build", "--loop-bound", "1"]) == 3
    assert "fold transport left the node set" in capsys.readouterr().err


def test_generator_tables_disagreeing_with_relabel_key_is_a_structure_error(monkeypatch):
    # a relabel_key that flips edge a after every relabeling moves a class's
    # first key off its graph wherever a is no loop, so the automorphisms
    # and the relabelings disagree
    flip = (-1, 2, 3, 4, 5)
    monkeypatch.setattr(
        automaton_module, "relabel_key", lambda key, sigma: relabel_key(key, compose_signed(flip, sigma))
    )
    with pytest.raises(GraphStructureError, match="relabeling left the node set"):
        automaton_module.build_automaton(3)


def test_reference_structure_off_the_node_set_is_a_structure_error(monkeypatch, capsys):
    without_24 = REFERENCE_KEY[:2] + (tuple(t for t in REFERENCE_KEY[2] if t != (2, 4)),)
    monkeypatch.setattr(automaton_module, "ltt_structure", lambda analysis: without_24)
    with pytest.raises(GraphStructureError, match="reference structure is not an automaton node"):
        automaton_module.build_automaton(3)
    assert main(["automaton", "build", "--loop-bound", "1"]) == 3
    assert "reference structure is not an automaton node" in capsys.readouterr().err


def test_orbit_rows_are_the_relabeled_representatives(automaton):
    # over each universe graph, every key is placed as (c, tau) with tau an
    # automorphism sending class c's first key onto it; the classes over a
    # graph follow their first keys, which lie over it
    classes = automaton.classes
    graphs = classes.universe.graphs
    assert graphs == build_universe(3).graphs
    for gi, graph in enumerate(graphs):
        keys = enumerate_nodes(graph)
        automorphisms = set(graph_isomorphisms(graph, graph))
        assert sorted(classes.placed[gi]) == keys
        for key, (c, tau) in classes.placed[gi].items():
            assert classes.class_graph[c] == gi and tau in automorphisms
            assert relabel_key(classes.rep_keys[c], tau) == key
        order = list(dict.fromkeys(classes.placed[gi][k][0] for k in keys))
        assert order == [c for c, g in enumerate(classes.class_graph) if g == gi]
        for c in order:
            assert classes.rep_keys[c] == next(k for k in keys if classes.placed[gi][k][0] == c)
    assert classes.class_graph == sorted(classes.class_graph)


# -- the labelled brute-force build, kept as the oracle for the quotient ------


@pytest.fixture(scope="module")
def walked_graphs():
    """The direction partitions of connected (4,3,3)-graphs, found by
    walking all 9^5 = 59,049 assignments of ends to three vertices; each
    partition once, in order of discovery."""
    seen = set()
    out = []
    for ends in itertools.product(
        itertools.product(range(3), repeat=2), repeat=len(RANK3_EDGE_NAMES)
    ):
        counts = [0, 0, 0]
        for u, v in ends:
            counts[u] += 1
            counts[v] += 1
        if sorted(counts) != [3, 3, 4]:
            continue
        if len(connected_components(range(3), ends)) != 1:
            continue
        groups_raw = {0: [], 1: [], 2: []}
        for i, (u, v) in enumerate(ends):
            groups_raw[u].append(i + 1)
            groups_raw[v].append(-(i + 1))
        key = tuple(sorted(tuple(sorted(g)) for g in groups_raw.values()))
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


@pytest.fixture(scope="module")
def oracle_nodes(walked_graphs):
    """Every node key built directly from the walked partitions: each red
    direction at the valence-4 vertex, the purple triangles, and each
    purple direction there for the red turn to attach to."""
    nodes = []
    for groups in walked_graphs:
        big = next(g for g in groups if len(g) == 4)
        for red in big:
            base_turns = []
            for group in groups:
                purple = [d for d in group if d != red]
                base_turns.extend(
                    (min(p), max(p)) for p in itertools.combinations(purple, 2)
                )
            for attach in big:
                if attach != red:
                    turns = base_turns + [(min(red, attach), max(red, attach))]
                    nodes.append((groups, red, tuple(sorted(turns))))
    return sorted(nodes)


def _direct_relabel_key(key, sigma):
    groups, red, turns = key
    new_groups = tuple(
        sorted(tuple(sorted(apply_signed(sigma, d) for d in g)) for g in groups)
    )
    new_turns = tuple(
        sorted(
            (min(x, y), max(x, y))
            for x, y in ((apply_signed(sigma, a), apply_signed(sigma, b)) for a, b in turns)
        )
    )
    return (new_groups, apply_signed(sigma, red), new_turns)


def _scan_graph_class_key(groups):
    """The least relabeled copy of a direction partition, over all 3,840
    signed permutations."""
    return min(
        tuple(sorted(tuple(sorted(apply_signed(sigma, d) for d in g)) for g in groups))
        for sigma in signed_permutations(len(RANK3_EDGE_NAMES))
    )


def _brute_force_build(nodes):
    """Every labelled node, fold edge and class the direct way, over the
    oracle's own node list: transport at every node, classes by a generator
    walk over keys, and words and stabilisers by a scan of all signed
    permutations from each class's least node."""
    node_index = {key: i for i, key in enumerate(nodes)}
    fold_edges = []
    for i, key in enumerate(nodes):
        for e1, e0 in fold_candidates(key):
            out = transport(key, e1, e0)
            if out is not None:
                fold_edges.append((i, node_index[out], e1, e0))

    n_labels = len(RANK3_EDGE_NAMES)
    class_of = [-1] * len(nodes)
    class_members = []
    for i, key in enumerate(nodes):
        if class_of[i] != -1:
            continue
        cid = len(class_members)
        members = [i]
        class_of[i] = cid
        frontier = [key]
        while frontier:
            cur = frontier.pop()
            for gen in _generators(n_labels):
                nxt = _direct_relabel_key(cur, gen)
                j = node_index[nxt]
                if class_of[j] == -1:
                    class_of[j] = cid
                    members.append(j)
                    frontier.append(nxt)
        class_members.append(sorted(members))
    rep_word = [None] * len(nodes)
    rep_stabilizer = []
    for members in class_members:
        rep = members[0]
        stabilizer = []
        reached = set()
        for sigma in signed_permutations(n_labels):
            j = node_index[_direct_relabel_key(nodes[rep], sigma)]
            if j == rep:
                stabilizer.append(sigma)
            if j not in reached:
                reached.add(j)
                rep_word[j] = sigma
        assert reached == set(members)
        rep_stabilizer.append(stabilizer)

    quotient_edges = {}
    for source, target, _e1, _e0 in fold_edges:
        pair = (class_of[source], class_of[target])
        quotient_edges[pair] = quotient_edges.get(pair, 0) + 1
    adjacency = {}
    for c1, c2 in quotient_edges:
        adjacency.setdefault(c1, []).append(c2)
    sccs = strongly_connected_components(len(class_members), adjacency)
    node_one = node_index[ltt_structure(MapAnalysis(single_fold_map()))]
    return {
        "nodes": nodes,
        "node_index": node_index,
        "fold_edges": fold_edges,
        "class_of": class_of,
        "class_members": class_members,
        "rep_word": rep_word,
        "rep_stabilizer": rep_stabilizer,
        "quotient_edges": quotient_edges,
        "sccs": sccs,
        "node_one": node_one,
    }


@pytest.fixture(scope="module")
def oracle(oracle_nodes):
    return _brute_force_build(oracle_nodes)


def _class_map(automaton, oracle) -> list[int]:
    """Each quotient class's oracle class: that of its representative's key."""
    return [
        oracle["class_of"][oracle["node_index"][key]] for key in automaton.classes.rep_keys
    ]


def _oracle_closings(oracle, end: int, start: int) -> list[tuple[int, ...]]:
    """Every sigma with sigma . end == start, from the oracle's least words
    and stabilisers."""
    c = oracle["class_of"][start]
    if oracle["class_of"][end] != c:
        return []
    w_start, inv_end = oracle["rep_word"][start], invert_signed(oracle["rep_word"][end])
    return [
        compose_signed(w_start, compose_signed(s, inv_end)) for s in oracle["rep_stabilizer"][c]
    ]


def test_equivariant_build_matches_brute_force(automaton, oracle):
    classes = automaton.classes
    to_oracle = _class_map(automaton, oracle)
    assert sorted(to_oracle) == list(range(GOLDEN_CLASSES))
    # class sizes and stabilisers: the automorphisms fixing a representative
    # are every signed permutation fixing it
    for c, oc in enumerate(to_oracle):
        assert classes.size(c) == len(oracle["class_members"][oc])
        assert len(classes.stabilizers[c]) == len(oracle["rep_stabilizer"][oc])
        rep = classes.rep_keys[c]
        fixing = [s for s in signed_permutations(5) if _direct_relabel_key(rep, s) == rep]
        assert sorted(classes.stabilizers[c]) == sorted(fixing)
    # quotient edges with their multiplicities, and the SCCs
    assert {
        (to_oracle[c1], to_oracle[c2]): n for (c1, c2), n in automaton.quotient_edges.items()
    } == oracle["quotient_edges"]
    assert sorted(sorted(to_oracle[c] for c in comp) for comp in automaton.sccs) == sorted(
        sorted(comp) for comp in oracle["sccs"]
    )
    # the reference node and the folds entering it
    node_one = oracle["node_one"]
    assert classes.key(automaton.node_one) == oracle["nodes"][node_one]
    assert to_oracle[automaton.node_one[0]] == oracle["class_of"][node_one]
    entering = sorted(
        (oracle["nodes"][source], e1, e0)
        for source, target, e1, e0 in oracle["fold_edges"]
        if target == node_one
    )
    assert len(entering) == 4
    assert sorted(
        (classes.key(source), e1, e0) for source, e1, e0 in automaton.folds_into(automaton.node_one)
    ) == entering
    # the folds moved from the representatives are the transported ones, at
    # every representative and at a sample of nodes
    by_source = {}
    for source, target, e1, e0 in oracle["fold_edges"]:
        by_source.setdefault(source, []).append((e1, e0, oracle["nodes"][target]))
    rng = random.Random(3)
    sample = list(classes.rep_keys) + rng.sample(oracle["nodes"], 300)
    for key in sample:
        moved = [
            (e1, e0, classes.key(target))
            for e1, e0, target in automaton.out_folds(classes.locate(key))
        ]
        assert moved == sorted(by_source.get(oracle["node_index"][key], []))
    assert automaton.n_fold_edges == len(oracle["fold_edges"])


def _labelled_loops(oracle, starts, allowed, bound):
    """Every fold loop of length <= bound from the start nodes over the
    oracle's fold edges, its nodes within the allowed classes, with every
    closing relabeling: ``(node keys, folds, closing)``."""
    successors = {}
    for source, target, e1, e0 in oracle["fold_edges"]:
        successors.setdefault(source, []).append((target, (e1, e0)))
    nodes = oracle["nodes"]
    out = []

    def walk(path, folds):
        if folds:
            for closing in _oracle_closings(oracle, path[-1], path[0]):
                out.append((tuple(nodes[i] for i in path), tuple(folds), closing))
        if len(folds) == bound:
            return
        for target, fold in successors.get(path[-1], []):
            if oracle["class_of"][target] in allowed:
                walk(path + [target], folds + [fold])

    for start in starts:
        walk([start], [])
    return out


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_residual_loops_match_labelled_walks(automaton, oracle, bound):
    # the residual loops node_one_analysis composes, as node keys, folds and
    # closings, are the labelled walks over the oracle's fold edges
    loops = _residual_loops(automaton, bound)
    to_oracle = _class_map(automaton, oracle)
    residual = node_one_analysis(automaton, loop_bound=0).residual_loop_classes
    starts = [oracle["node_index"][automaton.classes.rep_keys[c]] for c in residual]
    labelled = _labelled_loops(oracle, starts, {to_oracle[c] for c in residual}, bound)
    quotient = [
        (tuple(map(automaton.classes.key, loop.nodes)), loop.folds, loop.closing) for loop in loops
    ]
    assert Counter(quotient) == Counter(labelled)
    if bound == 4:
        assert len(loops) == 732


def test_folds_into_matches_edge_scan(automaton, oracle):
    entering = {}
    for source, target, e1, e0 in oracle["fold_edges"]:
        entering.setdefault(target, []).append((oracle["nodes"][source], e1, e0))
    classes = automaton.classes
    # at nodes of every class, fixed by nontrivial stabilisers or not
    rng = random.Random(17)
    sample = [automaton.classes.node(c, IDENTITY) for c in range(automaton.n_classes)]
    sample += [classes.locate(key) for key in rng.sample(oracle["nodes"], 40)]
    sample.append(automaton.node_one)
    for node in sample:
        folds = [(classes.key(source), e1, e0) for source, e1, e0 in automaton.folds_into(node)]
        assert sorted(folds) == sorted(entering.get(oracle["node_index"][classes.key(node)], []))


def test_graph_class_key_matches_permutation_scan(automaton):
    # the universe graph of a class stands for every relabeled copy of its
    # nodes' graphs: the least relabeled partitions agree
    classes = automaton.classes
    entering = {source for source, _e1, _e0 in automaton.folds_into(automaton.node_one)}
    assert len(entering) == 4
    for node in sorted(entering | {automaton.node_one}):
        graph = classes.universe.graphs[classes.class_graph[node[0]]]
        groups = canonical_groups(graph.directions_at(v) for v in range(graph.n_vertices))
        assert _scan_graph_class_key(classes.key(node)[0]) == _scan_graph_class_key(groups)
    analysis = node_one_analysis(automaton, loop_bound=0)
    assert analysis.underlying_graph_classes == (classes.class_graph[automaton.node_one[0]],)


def test_relabel_key_matches_direct_action(oracle_nodes):
    rng = random.Random(13)
    sigmas = rng.sample(list(signed_permutations(5)), 20)
    for key in rng.sample(oracle_nodes, 50):
        for sigma in sigmas:
            assert relabel_key(key, sigma) == _direct_relabel_key(key, sigma)


def test_length_one_loops_match_single_fold_search(automaton):
    """At rank 3 the single-fold search finds one principal class; so do the
    length-1 loops of the automaton, counted over whole relabeling orbits."""
    loops = enumerate_loops(automaton, 1)
    assert len(loops) == 18
    principal = []
    for loop in loops:
        m = loop_to_map(automaton, loop)
        if is_irreducible(transition_matrix(m)) and is_principal(MapAnalysis(m)).is_principal:
            principal.append(loop)
    assert len(principal) == 1
    assert principal[0].nodes[0][0] == automaton.node_one[0]

    def orbit(loop):
        return automaton.classes.size(loop.nodes[0][0])

    # one loop per (exact node, fold, closing relabeling)
    assert sum(orbit(lp) for lp in loops) == 26880
    # one relabeling orbit of principal maps
    assert sum(orbit(lp) for lp in principal) == 3840


def _scanned_walk_decomposition(automaton, node_keys, seq):
    """The walk as first written: scan the signed permutations for one that
    maps the sequence's start structure onto a labelled node, then walk and
    close with the sequence's labels pushed through it."""
    base = seq.base_graph
    if sorted(base.valence_profile()) != [3, 3, 4] or base.n_edges != 5:
        return None
    try:
        start_key = ltt_structure(MapAnalysis(seq.composed_map()))
    except GraphStructureError:
        return None
    match = next(
        (s for s in signed_permutations(5) if relabel_key(start_key, s) in node_keys),
        None,
    )
    if match is None:
        return None
    key = relabel_key(start_key, match)
    keys = [key]
    folds = []
    for move in seq.moves:
        e1, e0 = apply_signed(match, move.e1), apply_signed(match, move.e0)
        key = transport(key, e1, e0)
        if key is None or key not in node_keys:
            return None
        folds.append((e1, e0))
        keys.append(key)
    closing = compose_signed(match, compose_signed(signed_images(seq.final), invert_signed(match)))
    if relabel_key(key, closing) != keys[0]:
        return None
    nodes = tuple(map(automaton.classes.locate, keys))
    return DirectedLoop(nodes, tuple(folds), closing)


def test_walk_decomposition_matches_alphabet_scan(automaton, oracle_nodes, gmap):
    """Looking the start up directly gives the scan's loop: the node set is
    closed under relabeling and the scan meets the identity first."""
    node_keys = set(oracle_nodes)
    seq = stallings_decompose(gmap)
    cases = [
        rotate(compose_power(seq, p), j) for p in (1, 2, 3) for j in range(p * len(seq) + 1)
    ]
    # every sixth re-decomposed loop map of fold length <= 2; most of them
    # miss the node set, where the scan costs all 3,840 permutations
    for loop in enumerate_loops(automaton, 2)[::6]:
        loop_seq = stallings_decompose(loop_to_map(automaton, loop))
        cases.extend(rotate(loop_seq, j) for j in range(len(loop_seq) + 1))
    found = 0
    for case in cases:
        walk = _walk_decomposition(automaton, case)
        assert walk == _scanned_walk_decomposition(automaton, node_keys, case)
        found += walk is not None
    assert 0 < found < len(cases)
