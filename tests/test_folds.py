from __future__ import annotations

import random

import pytest

from oracles import (
    compose_power,
    identity_map,
    power,
    push_permutations,
    relabeling_map,
    rose_graph,
    sequence_steps,
    swap_relabeling_fold,
)
from traintrack.catalog import single_fold_map
from traintrack.folds import (
    FoldMove,
    FoldSequence,
    NotHomotopyEquivalence,
    apply_fold,
    rotate,
    stallings_decompose,
)
from traintrack.graphs import (
    GraphMap,
    GraphStructureError,
    compose,
    iterate_map,
    signed_images,
)
from traintrack.spectral import char_poly, transition_matrix


def test_apply_fold_reference(gmap):
    graph = gmap.source
    move = apply_fold(graph, graph.direction_of("d"), graph.direction_of("~c"))
    assert move.kind == "proper_full"
    # the fold map sends d over ~c then the shortened d
    d = graph.direction_of("d")
    assert move.map.image_of_direction(d) == (graph.direction_of("~c"), d)
    # edge counts and rank are preserved
    assert move.target.n_edges == graph.n_edges
    assert move.target.rank() == graph.rank()
    assert move.target.valence_profile() == (3, 3, 4)


def test_apply_fold_is_the_decomposition_move(gmap):
    seq = stallings_decompose(gmap)
    graph = gmap.source
    move = seq.moves[0]
    assert (move.e1, move.e0) == (graph.direction_of("d"), graph.direction_of("~c"))


def test_complete_fold_of_parallel_edges():
    # two parallel edges with distinct terminal vertices do not exist; use
    # two edges sharing only their initial vertex
    graph = single_fold_map().source
    b, d = graph.direction_of("b"), graph.direction_of("d")
    move = apply_fold(graph, b, d, "complete")
    assert move.target.n_edges == graph.n_edges - 1
    merged = move.map.vertex_map[graph.terminal_vertex(b)]
    assert move.target.valence(merged) == graph.valence(
        graph.terminal_vertex(b)
    ) + graph.valence(graph.terminal_vertex(d)) - 1


def test_complete_fold_of_bigon_rejected():
    graph = single_fold_map().source
    d, e = graph.direction_of("d"), graph.direction_of("e")
    with pytest.raises(NotHomotopyEquivalence):
        apply_fold(graph, d, e, "complete")


def test_fold_rejects_same_edge():
    graph = rose_graph(("a", "b"))
    with pytest.raises(GraphStructureError):
        apply_fold(graph, 1, -1)


def test_partial_fold_subdivides(gmap):
    graph = gmap.source
    move = apply_fold(graph, graph.direction_of("d"), graph.direction_of("~c"), "partial")
    assert move.target.n_edges == graph.n_edges + 1
    assert move.target.n_vertices == graph.n_vertices + 1


def test_proper_full_fold_at_trivalent_vertex():
    from traintrack.search import trivalent_universe

    graph = trivalent_universe()[0]
    for v in range(graph.n_vertices):
        ds = graph.directions_at(v)
        for e1 in ds:
            for e0 in ds:
                if abs(e1) == abs(e0):
                    continue
                if graph.initial_vertex(e0) == graph.terminal_vertex(e0):
                    continue
                move = apply_fold(graph, e1, e0)
                assert 4 in move.target.valence_profile()
                return


def test_stallings_reference(gmap):
    seq = stallings_decompose(gmap)
    assert len(seq) == 1
    assert seq.moves[0].kind == "proper_full"
    assert seq.composed_map() == gmap
    graph = gmap.source
    expected = {"a": "~b", "b": "~d", "c": "e", "d": "~c", "e": "a"}
    for i, name in enumerate(graph.edge_names):
        image = signed_images(seq.final)[i]
        assert graph.direction_name(image) == expected[name]


@pytest.mark.parametrize("power", [2, 3])
def test_stallings_powers_roundtrip(gmap, power):
    gk = iterate_map(gmap, power)
    seq = stallings_decompose(gk)
    assert len(seq) == power
    assert seq.composed_map() == gk


def test_stallings_relabeling_only(gmap):
    swap = relabeling_map(gmap.source, (1, 2, 3, 5, 4))
    seq = stallings_decompose(swap)
    assert len(seq) == 0
    assert seq.composed_map() == swap


def test_stallings_rejects_non_homotopy_equivalence():
    rose = rose_graph(("a", "b"))
    collapse = GraphMap(rose, rose, (0,), ((1,), (1,)))
    with pytest.raises(NotHomotopyEquivalence) as err:
        stallings_decompose(collapse)
    assert err.value.residual is not None


def test_fold_sequence_rejects_unchained_steps(gmap):
    graph = gmap.source
    move = apply_fold(graph, graph.direction_of("d"), graph.direction_of("~c"))
    assert move.target != move.source
    with pytest.raises(GraphStructureError, match="fold sequence graphs do not chain"):
        FoldSequence((move, move), identity_map(move.target))
    with pytest.raises(GraphStructureError, match="final relabeling does not chain"):
        FoldSequence((move,), identity_map(graph))


def test_fold_sequence_rejects_non_isomorphic_final(gmap):
    graph = gmap.source
    move = apply_fold(graph, graph.direction_of("d"), graph.direction_of("~c"))
    with pytest.raises(GraphStructureError, match="final map is not a graph isomorphism"):
        FoldSequence((), gmap)
    with pytest.raises(GraphStructureError, match="final map is not a graph isomorphism"):
        FoldSequence((move,), compose(gmap, stallings_decompose(gmap).final))


def test_push_permutations_single_pair(gmap):
    seq = stallings_decompose(gmap)
    normalized = push_permutations(sequence_steps(seq))
    assert normalized == seq
    assert normalized.composed_map() == gmap


def test_push_permutations_random_interleavings(gmap):
    # alternate relabelings and the reference fold in random patterns; the
    # composed map must be preserved exactly
    from oracles import signed_permutations

    rng = random.Random(42)
    sigmas = list(signed_permutations(5))
    seq = stallings_decompose(gmap)
    for _ in range(10):
        steps = []
        graph = gmap.source
        current = graph
        for _k in range(rng.randrange(1, 4)):
            sigma = rng.choice(sigmas)
            rel = relabeling_map(current, sigma)
            steps.append(rel)
            current = rel.target
            v4 = max(range(current.n_vertices), key=current.valence)
            ds = sorted(current.directions_at(v4), key=lambda d: (abs(d), d < 0))
            pairs = [
                (x, y) for x in ds for y in ds if abs(x) != abs(y)
            ]
            e1, e0 = rng.choice(pairs)
            move = apply_fold(current, e1, e0)
            steps.append(move)
            current = move.target
        direct = None
        for step in steps:
            m = step if isinstance(step, GraphMap) else step.map
            direct = m if direct is None else compose(m, direct)
        normalized = push_permutations(steps)
        assert normalized.composed_map() == direct
        assert normalized == _bubble_push_permutations(steps)


def _bubble_push_permutations(steps):
    """The former ``push_permutations``: swap the leftmost (relabeling, fold)
    pair until none is left, then compose the relabelings in a second pass."""
    work = list(steps)
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            if isinstance(work[i], GraphMap) and isinstance(work[i + 1], FoldMove):
                work[i : i + 2] = swap_relabeling_fold(work[i], work[i + 1])
                changed = True
                break
    moves = [item for item in work if isinstance(item, FoldMove)]
    rel = None
    for item in work:
        if isinstance(item, GraphMap):
            rel = item if rel is None else compose(item, rel)
    if rel is None:
        rel = identity_map(moves[-1].target)
    return FoldSequence(tuple(moves), rel)


def test_push_permutations_matches_bubble_oracle(gmap):
    # every rotation of the first three powers of the decompositions of the
    # rank-3 survivors and of the reference map's 2nd and 3rd powers.  The
    # step list is periodic, so its rotation by j is the p-th power of the
    # sequence rotated by j modulo its period, which fold conjugation builds.
    from traintrack.search import single_fold_search

    seqs = [stallings_decompose(r.map) for r in single_fold_search(3).survivors]
    seqs += [stallings_decompose(iterate_map(gmap, p)) for p in (2, 3)]
    count = 0
    for seq in seqs:
        for power in (1, 2, 3):
            steps = sequence_steps(seq) * power
            for j in range(len(steps)):
                rotated = steps[j:] + steps[:j]
                pushed = push_permutations(rotated)
                assert pushed == _bubble_push_permutations(rotated)
                assert compose_power(rotate(seq, j % (len(seq) + 1)), power) == pushed
                count += 1
    assert count == 138


def test_compose_power_identity_and_matrix_oracle(gmap):
    seq = stallings_decompose(gmap)
    assert compose_power(seq, 1).composed_map() == gmap
    m = transition_matrix(gmap)
    for p in (2, 3, 5):
        powered = compose_power(seq, p)
        assert powered == push_permutations(sequence_steps(seq) * p)
        assert powered.composed_map() == iterate_map(gmap, p)
        assert transition_matrix(powered.composed_map()) == power(m, p)


def test_compose_power_order_of_relabeling(gmap):
    # the final relabeling's signed order is 10, so the 10th power closes up
    # with the identity relabeling
    seq = stallings_decompose(gmap)
    sigma = signed_images(seq.final)
    from traintrack.graphs import compose_signed

    acc = sigma
    order = 1
    while acc != (1, 2, 3, 4, 5):
        acc = compose_signed(sigma, acc)
        order += 1
    assert order == 10
    powered = compose_power(seq, order)
    assert signed_images(powered.final) == (1, 2, 3, 4, 5)
    assert len(powered) == 10


def test_rotate_zero_is_identity(gmap):
    seq = stallings_decompose(gmap)
    assert rotate(seq, 0) == seq


def test_rotate_preserves_char_poly(gmap):
    g2 = iterate_map(gmap, 2)
    seq = stallings_decompose(g2)
    base = char_poly(transition_matrix(g2))
    for j in range(len(seq) + 1):
        rotated = rotate(seq, j)
        m = rotated.composed_map()
        assert m.is_self_map
        assert char_poly(transition_matrix(m)) == base


def test_fold_counts_by_kind(gmap):
    graph = gmap.source
    proper = apply_fold(graph, graph.direction_of("d"), graph.direction_of("~c"))
    assert proper.target.n_edges == graph.n_edges
    complete = apply_fold(graph, graph.direction_of("b"), graph.direction_of("d"), "complete")
    assert complete.target.n_edges == graph.n_edges - 1


def test_rotate_and_power_reject_unpullable_folds(unpullable_sequences):
    for seq in unpullable_sequences:
        message = f"cannot pull a {seq.moves[0].kind} fold back"
        with pytest.raises(GraphStructureError, match=message):
            rotate(seq, 1)
        with pytest.raises(GraphStructureError, match=message):
            compose_power(seq, 2)
        assert rotate(seq, 0) == seq
        assert compose_power(seq, 1) == seq
