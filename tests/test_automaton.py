from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter

import pytest

import traintrack.automaton as automaton_module
import traintrack.digraph as digraph_module
import traintrack.graphs as graphs_module
import traintrack.whitehead as whitehead_module
from oracles import (
    _conjugate_by_relabeling,
    compose_power,
    loop_map_by_composition,
    rotate_loop,
)
from traintrack.automaton import (
    RANK3_EDGE_NAMES,
    DirectedLoop,
    NodeSet,
    _graph_class_key,
    _group_generators,
    _group_tree,
    _walk_decomposition,
    decomposition_to_loop,
    enumerate_labeled_graphs,
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
    invert_signed,
    signed_images,
    signed_permutations,
)
from traintrack.spectral import invariant_edge_set, is_irreducible, transition_matrix
from traintrack.whitehead import is_principal, ltt_structure

# frozen counts from the enumeration, cross-checked by the orbit sums below
GOLDEN_LABELED_GRAPHS = 2000
GOLDEN_NODES = 24000
GOLDEN_FOLD_EDGES = 86400
GOLDEN_CLASSES = 17


def _assert_recomposes(automaton, loop, g):
    """The loop composes to the decomposed map, up to relabeling conjugacy."""
    assert loop is not None
    assert _conjugate_by_relabeling(loop_to_map(automaton, loop), g)


def test_enumeration_counts(automaton, walked_graphs, oracle_nodes):
    graphs = enumerate_labeled_graphs()
    assert len(graphs) == GOLDEN_LABELED_GRAPHS
    assert len(set(graphs)) == len(graphs)
    assert sorted(graphs) == sorted(walked_graphs)
    assert list(enumerate_nodes()) == oracle_nodes
    assert len(automaton.nodes) == GOLDEN_NODES
    assert automaton.n_fold_edges == GOLDEN_FOLD_EDGES
    assert automaton.n_classes == GOLDEN_CLASSES


def test_every_node_passes_the_profile(automaton):
    assert all(map(is_node, automaton.nodes))


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
    assert automaton.nodes[automaton.node_one] == REFERENCE_KEY
    assert is_node(REFERENCE_KEY)
    assert [name for name, key in _profile_violations().items() if is_node(key)] == []


def test_node_ids_round_trip(automaton):
    nodes = automaton.nodes
    assert len(nodes) == GOLDEN_NODES
    assert all(nodes.index(nodes[i]) == i for i in range(len(nodes)))
    with pytest.raises(IndexError):
        nodes[len(nodes)]


def test_node_index_rejects_keys_off_the_node_set(automaton):
    # the node profile over a (4,3,3) partition that is no connected graph:
    # loops a and b at the valence-4 vertex, d joining the other two vertices
    disconnected = (
        ((-5, -4, 5), (-3, 3, 4), (-2, -1, 1, 2)),
        1,
        ((-5, -4), (-5, 5), (-4, 5), (-3, 3), (-3, 4), (-2, -1), (-2, 2), (-1, 2), (1, 2), (3, 4)),
    )
    assert is_node(disconnected)
    rejected = dict(_profile_violations(), disconnected=disconnected, none=None)
    rejected["turns as lists"] = REFERENCE_KEY[:2] + (tuple(map(list, REFERENCE_KEY[2])),)
    for name, key in rejected.items():
        assert key not in automaton.nodes, name
        with pytest.raises(ValueError):
            automaton.nodes.index(key)


def test_class_sizes_partition_nodes(automaton):
    assert sum(len(m) for m in automaton.class_members) == GOLDEN_NODES
    # orbit-stabilizer: orbit size times stabilizer order is the group order
    for cid, members in enumerate(automaton.class_members):
        assert len(members) * len(automaton.rep_stabilizer[cid]) == 3840


def test_reference_structure_is_a_node(automaton, gmap):
    key = ltt_structure(MapAnalysis(gmap))
    assert key in automaton.nodes
    assert automaton.nodes.index(key) == automaton.node_one


def test_fold_candidates_involve_the_red_direction(automaton):
    rng = random.Random(21)
    for key in rng.sample(automaton.nodes, 200):
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
    key0 = automaton.nodes[loop.node_ids[0]]
    out = transport(key0, *loop.folds[0])
    assert out == automaton.nodes[loop.node_ids[1]]


def test_node_set_closed_under_relabeling(automaton):
    rng = random.Random(5)
    sigmas = rng.sample(list(signed_permutations(5)), 6)
    for key in rng.sample(automaton.nodes, 60):
        for sigma in sigmas:
            image = relabel_key(key, sigma)
            assert image in automaton.nodes
            # classes are unions of orbits, so membership is stable
            assert (
                automaton.class_of[automaton.nodes.index(image)]
                == automaton.class_of[automaton.nodes.index(key)]
            )


def test_single_loop_component(automaton):
    loops = automaton.loop_sccs()
    assert len(loops) == 1
    component = automaton.sccs[loops[0]]
    assert len(component) == 14
    assert automaton.class_of[automaton.node_one] in component


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
    assert automaton.class_of[rotated.node_ids[0]] == automaton.class_of[loop.node_ids[0]]


def test_transport_soundness_short_loops(automaton):
    """Master invariant: along every short loop the composed map has exactly
    the node's red direction nonperiodic and takes only node turns, with
    equality whenever the composition is irreducible."""
    loops = enumerate_loops(automaton, 2)
    assert loops
    equal = 0
    for loop in loops:
        m = loop_to_map(automaton, loop)
        key = automaton.nodes[loop.node_ids[0]]
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


def test_group_generators_follow_their_argument():
    # asked for 5 labels and then 4: each answer generates the signed
    # permutations of its own labels
    for n in (5, 4):
        gens = _group_generators(n)
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
    # every edge of the spanning tree is the index of its generator composed
    # with its parent, and the tree reaches each of the 2^n n! elements
    # once, from a parent reached before it
    sigmas = list(signed_permutations(n))
    gens = _group_generators(n)
    assert sigmas[0] == tuple(range(1, n + 1))
    reached = {0}
    for k, g, parent in _group_tree(n):
        assert parent in reached and k not in reached
        assert sigmas[k] == compose_signed(gens[g], sigmas[parent])
        reached.add(k)
    assert len(reached) == len(sigmas) == 2**n * math.factorial(n)


def test_disconnected_partitions_are_the_reversal_closed_ones():
    # over all 2,100 partitions of the ten directions into groups of sizes
    # 4, 3 and 3, the graph is connected exactly when its valence-4 group is
    # not closed under reversal; the labeled graphs are the connected ones
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
    assert enumerate_labeled_graphs() == sorted(connected)


def test_build_composes_no_signed_permutation(monkeypatch):
    # one build: the group tables compose no signed permutation, the labeled
    # graphs are neither canonicalised nor walked for connectivity, and
    # canonical groups are formed only by the 62 fold transports at the
    # representatives and by ltt_structure at the reference map, whose
    # document parse makes the one connectivity check
    calls = Counter()
    names = ("compose_signed", "connected_components", "canonical_groups", "transport")
    for name in names:
        for module in (automaton_module, graphs_module, digraph_module, whitehead_module):
            if hasattr(module, name):

                def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    automaton_module.build_automaton(3)
    assert calls == {"transport": 62, "canonical_groups": 63, "connected_components": 1}


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
    reps = [automaton.class_members[c][0] for c in sorted(residual)]
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


# (loop count, sha256 of the repr of the loop list) from the residual class
# representatives; the closing relabelings of a loop come in the order that
# the least words of its end nodes give them
RESIDUAL_LOOP_LISTS = {
    4: (748, "d998ce3973a994e6e9609afa6e85a63ee7c9adaf33dd77996573e2e10dbb1d2f"),
    5: (2432, "ea0fd3f92cea4f19f0a8787d6f12aeecb8d45159a080aa7b366301bba85bdf95"),
}

# sha256 of the repr of the same loops sorted by (node ids, folds, closing):
# the loop sets, whatever order the closing relabelings come in
RESIDUAL_LOOP_SETS = {
    4: "3ca761264a504377027ed34acf6ce96fa5949ebe226fd8d3438e31ce70165b7b",
    5: "7597d6fc5087fd87e7735d3577e23e7f303bc42732db847f269cb5e3c9d5c861",
}


def _residual_reps(automaton):
    residual = node_one_analysis(automaton, loop_bound=0).residual_loop_classes
    return [automaton.class_members[c][0] for c in residual]


@pytest.mark.parametrize("bound, folds_read", [(4, 264), (5, 641)])
def test_enumerate_loops_reads_each_node_once(automaton, monkeypatch, bound, folds_read):
    reps = _residual_reps(automaton)
    read = Counter()
    out_folds = automaton_module.Automaton.out_folds

    def counted(self, node_id):
        read[node_id] += 1
        return out_folds(self, node_id)

    monkeypatch.setattr(automaton_module.Automaton, "out_folds", counted)
    loops = enumerate_loops(automaton, bound, start_nodes=reps)
    count, digest = RESIDUAL_LOOP_LISTS[bound]
    assert len(loops) == count
    assert hashlib.sha256(repr(loops).encode()).hexdigest() == digest
    ordered = sorted(loops, key=lambda lp: (lp.node_ids, lp.folds, lp.closing))
    assert hashlib.sha256(repr(ordered).encode()).hexdigest() == RESIDUAL_LOOP_SETS[bound]
    assert len(read) == folds_read
    assert set(read.values()) == {1}


@pytest.mark.parametrize("bound, folds_read, loops_kept", [(4, 194, 732), (5, 395, 2352)])
def test_enumerate_loops_within_classes_prunes_walks(automaton, monkeypatch, bound, folds_read,
                                                    loops_kept):
    # walks that leave the residual classes are never entered: fewer nodes
    # read, and the loops are those of the unpruned list that stay inside,
    # in the same order
    reps = _residual_reps(automaton)
    residual = {automaton.class_of[n] for n in reps}
    unpruned = enumerate_loops(automaton, bound, start_nodes=reps)
    read = Counter()
    out_folds = automaton_module.Automaton.out_folds

    def counted(self, node_id):
        read[node_id] += 1
        return out_folds(self, node_id)

    monkeypatch.setattr(automaton_module.Automaton, "out_folds", counted)
    loops = enumerate_loops(automaton, bound, start_nodes=reps, classes=residual)
    assert loops == [
        lp for lp in unpruned if all(automaton.class_of[n] in residual for n in lp.node_ids)
    ]
    assert len(loops) == loops_kept
    assert len(read) == folds_read
    assert set(read.values()) == {1}
    assert all(automaton.class_of[n] in residual for n in read)


def _assert_shared_walks_compose_like_fresh_loops(automaton, loops):
    walks: dict = {}
    for loop in loops:
        assert loop_to_map(automaton, loop, walks) == loop_to_map(automaton, loop)


@pytest.mark.parametrize("bound", [4, 5])
def test_shared_walks_compose_like_fresh_loops(automaton, bound):
    loops = enumerate_loops(automaton, bound, start_nodes=_residual_reps(automaton))
    assert len(loops) == RESIDUAL_LOOP_LISTS[bound][0]
    _assert_shared_walks_compose_like_fresh_loops(automaton, loops)


def test_shared_walks_keep_start_nodes_apart(automaton):
    # from all class representatives, two fold prefixes start on different
    # graphs, so a memo keyed by the folds alone would mix their walks
    loops = enumerate_loops(automaton, 3)
    starts = {}
    for loop in loops:
        for k in range(1, len(loop.folds) + 1):
            starts.setdefault(loop.folds[:k], set()).add(automaton.nodes[loop.node_ids[0]][0])
    assert sum(len(graphs) > 1 for graphs in starts.values()) == 2
    _assert_shared_walks_compose_like_fresh_loops(automaton, loops)


def test_node_one_analysis_folds_each_prefix_once(automaton, monkeypatch):
    # 732 loops along 180 fold walks with 275 distinct prefixes: one fold per
    # prefix, one composition per prefix beyond the first fold, and one
    # closing relabeling per loop, no composition
    calls = Counter()
    names = ("loop_to_map", "apply_fold", "compose", "isomorphism_vertex_map", "relabeling")
    for name in names:
        fn = getattr(automaton_module, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(automaton_module, name, counted)
    analysis = node_one_analysis(automaton, loop_bound=4)
    assert analysis.loops_checked == analysis.loops_reducible == 732
    assert [calls[name] for name in names] == [732, 275, 254, 732, 0]
    # a second analysis folds its walks again
    node_one_analysis(automaton, loop_bound=4)
    assert [calls[name] for name in names] == [1464, 550, 508, 1464, 0]


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
        loop = DirectedLoop(reference.node_ids, reference.folds, closing)
        with pytest.raises(GraphStructureError, match="not a graph isomorphism"):
            loop_to_map(automaton, loop)


def test_rank_four_rejected():
    from traintrack.automaton import build_automaton
    from traintrack.graphs import GraphStructureError

    with pytest.raises(GraphStructureError):
        build_automaton(rank=4)


def test_graph_from_groups_reconstruction(automaton):
    rng = random.Random(31)
    for key in rng.sample(automaton.nodes, 50):
        graph = graph_from_groups(key[0])
        assert graph.valence_profile() == (3, 3, 4)
        assert graph.rank() == 3
        assert graph.is_connected()


def test_relabeling_off_the_node_set_is_a_structure_error(monkeypatch, capsys):
    # with one labeled graph (12 nodes) missing, some generator step leaves
    # the node set
    graphs = enumerate_labeled_graphs()[1:]
    monkeypatch.setattr(automaton_module, "enumerate_nodes", lambda: NodeSet(graphs))
    with pytest.raises(GraphStructureError, match="relabeling left the node set"):
        automaton_module.build_automaton(3)
    assert main(["automaton", "build", "--loop-bound", "1"]) == 3
    assert "relabeling left the node set" in capsys.readouterr().err


def _orbit_of_graphs(automaton, node_id):
    """The labeled graphs under a node's relabeling class."""
    members = automaton.class_members[automaton.class_of[node_id]]
    return {automaton.nodes.groups_of(j) for j in members}


def test_fold_transport_off_the_node_set_is_a_structure_error(automaton, monkeypatch):
    # with one relabeling orbit of labeled graphs missing, the node set stays
    # closed under relabeling, but a fold from another orbit lands on it
    dropped = next(
        _orbit_of_graphs(automaton, t)
        for members, folds in zip(automaton.class_members, automaton.rep_folds)
        for _e1, _e0, t in folds
        if _orbit_of_graphs(automaton, t) != _orbit_of_graphs(automaton, members[0])
    )
    graphs = [g for g in enumerate_labeled_graphs() if g not in dropped]
    monkeypatch.setattr(automaton_module, "enumerate_nodes", lambda: NodeSet(graphs))
    with pytest.raises(GraphStructureError, match="fold transport left the node set"):
        automaton_module.build_automaton(3)


def test_generator_tables_disagreeing_with_relabel_key_is_a_structure_error(monkeypatch):
    # a relabel_key that flips edge a after every relabeling moves the first
    # representative off itself under its stabiliser
    flip = (-1, 2, 3, 4, 5)
    monkeypatch.setattr(
        automaton_module, "relabel_key", lambda key, sigma: relabel_key(key, compose_signed(flip, sigma))
    )
    with pytest.raises(GraphStructureError, match="generator tables disagree with relabel_key"):
        automaton_module.build_automaton(3)


def test_reference_structure_off_the_node_set_is_a_structure_error(monkeypatch, capsys):
    without_24 = REFERENCE_KEY[:2] + (tuple(t for t in REFERENCE_KEY[2] if t != (2, 4)),)
    monkeypatch.setattr(automaton_module, "ltt_structure", lambda analysis: without_24)
    with pytest.raises(GraphStructureError, match="reference structure is not an automaton node"):
        automaton_module.build_automaton(3)
    assert main(["automaton", "build", "--loop-bound", "1"]) == 3
    assert "reference structure is not an automaton node" in capsys.readouterr().err


def test_orbit_rows_are_the_relabeled_representatives(automaton):
    # row[k] of each class is sigma_k . rep for the sigma_k that sigma_index
    # numbers k, sigma_index numbers every signed permutation once, and the
    # representative, the identity's entry, is the class's least node
    sigmas = list(signed_permutations(5))
    assert sorted(automaton.sigma_index) == sorted(sigmas)
    assert sorted(automaton.sigma_index.values()) == list(range(len(sigmas)))
    for cid, members in enumerate(automaton.class_members):
        assert automaton.orbit_rows[cid][0] == members[0]
        key = automaton.nodes[members[0]]
        row = [-1] * len(sigmas)
        for sigma, k in automaton.sigma_index.items():
            row[k] = automaton.nodes.index(relabel_key(key, sigma))
        assert automaton.orbit_rows[cid] == row, cid


# -- the brute-force build, kept as an oracle for the equivariant one ---------


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
    """Every field of the automaton the direct way, over the oracle's own
    node list: transport at every node, classes by a generator walk over
    keys, and words and stabilisers by a scan of all signed permutations
    from each class's least node."""
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
            for gen in _group_generators(n_labels):
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


def test_equivariant_build_matches_brute_force(automaton, oracle):
    for name, want in oracle.items():
        if name not in ("nodes", "node_index", "fold_edges"):
            assert getattr(automaton, name) == want, name
    # the node ids are the oracle's positions of its sorted keys
    assert list(automaton.nodes) == oracle["nodes"]
    assert [automaton.nodes.index(key) for key in oracle["node_index"]] == list(
        oracle["node_index"].values()
    )
    # the class-level adjacency (and so the SCC order) follows edge order
    assert list(automaton.quotient_edges) == list(oracle["quotient_edges"])
    # the folds moved from the representatives are the transported ones,
    # node by node in fold_candidates order
    moved = [
        (i, target, e1, e0)
        for i in range(len(automaton.nodes))
        for e1, e0, target in automaton.out_folds(i)
    ]
    assert moved == oracle["fold_edges"]
    assert automaton.n_fold_edges == len(oracle["fold_edges"])


def test_folds_into_matches_edge_scan(automaton, oracle):
    entering = {}
    for source, target, e1, e0 in oracle["fold_edges"]:
        entering.setdefault(target, []).append((source, e1, e0))
    assert automaton.folds_into(automaton.node_one) == entering[automaton.node_one]
    assert len(entering[automaton.node_one]) == 4
    # and at nodes of every class, fixed by nontrivial stabilisers or not
    rng = random.Random(17)
    sample = [members[0] for members in automaton.class_members]
    sample += rng.sample(range(len(automaton.nodes)), 40)
    for node_id in sample:
        assert automaton.folds_into(node_id) == entering.get(node_id, [])


def test_graph_class_key_matches_permutation_scan(automaton):
    entering = {source for source, _e1, _e0 in automaton.folds_into(automaton.node_one)}
    assert len(entering) == 4
    for node_id in sorted(entering | {automaton.node_one}):
        assert _graph_class_key(automaton, node_id) == _scan_graph_class_key(
            automaton.nodes[node_id][0]
        )


def test_relabel_key_matches_direct_action(automaton):
    rng = random.Random(13)
    sigmas = rng.sample(list(signed_permutations(5)), 20)
    for key in rng.sample(automaton.nodes, 50):
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
    node_one_class = automaton.class_of[automaton.node_one]
    assert automaton.class_of[principal[0].node_ids[0]] == node_one_class

    def orbit(loop):
        return len(automaton.class_members[automaton.class_of[loop.node_ids[0]]])

    # one loop per (exact node, fold, closing relabeling)
    assert sum(orbit(lp) for lp in loops) == 26880
    # one relabeling orbit of principal maps
    assert sum(orbit(lp) for lp in principal) == 3840


def _scanned_walk_decomposition(automaton, seq):
    """The walk as first written: scan the signed permutations for one that
    maps the sequence's start structure onto a node, then walk and close
    with the sequence's labels pushed through it."""
    base = seq.base_graph
    if sorted(base.valence_profile()) != [3, 3, 4] or base.n_edges != 5:
        return None
    try:
        start_key = ltt_structure(MapAnalysis(seq.composed_map()))
    except GraphStructureError:
        return None
    match = next(
        (s for s in signed_permutations(5) if relabel_key(start_key, s) in automaton.nodes),
        None,
    )
    if match is None:
        return None
    key = relabel_key(start_key, match)
    node_ids = [automaton.nodes.index(key)]
    folds = []
    for move in seq.moves:
        e1, e0 = apply_signed(match, move.e1), apply_signed(match, move.e0)
        key = transport(key, e1, e0)
        if key is None or key not in automaton.nodes:
            return None
        folds.append((e1, e0))
        node_ids.append(automaton.nodes.index(key))
    closing = compose_signed(match, compose_signed(signed_images(seq.final), invert_signed(match)))
    if relabel_key(key, closing) != automaton.nodes[node_ids[0]]:
        return None
    return DirectedLoop(tuple(node_ids), tuple(folds), closing)


def test_walk_decomposition_matches_alphabet_scan(automaton, gmap):
    """Looking the start up directly gives the scan's loop: the node set is
    closed under relabeling and the scan meets the identity first."""
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
        assert walk == _scanned_walk_decomposition(automaton, case)
        found += walk is not None
    assert 0 < found < len(cases)
