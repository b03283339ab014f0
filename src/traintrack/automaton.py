"""The rank-3 principal stratum automaton.

Nodes are colored turn structures over rank-3 graphs with a single valence-4
vertex, a stable triangle at every vertex, exactly one nonperiodic (red)
direction at the valence-4 vertex, and exactly one red turn.  Directed edges
are proper full folds at the valence-4 vertex compatible with the structures
at both ends, plus signed relabelings of the five edge labels; relabelings
make each orbit strongly connected, so the strongly connected structure lives
on the quotient by relabeling classes.

A node is read as a plain key ``(groups, red, turns)``: the partition of
the ten directions into initial-vertex groups (vertex names are forgotten),
the red direction, and the sorted turn tuple.  This is the colored structure
``whitehead.ltt_structure`` computes for a map, so a map's structure is
located among the nodes directly.  The fold transport is edge-local: the
folded direction is renamed onto the target direction inside every turn,
the fresh turn crossed by the folded edge-path is added as the new red edge,
and the moved direction becomes the new red vertex.

The classes are built from the five graphs of ``search.build_universe(3)``,
with no labelled node set, by the class lemma.  A signed permutation sigma
of the edge labels acts on labelled graphs (direction partitions) and on
node keys, and the node profile is invariant under it.

  Lemma.  (i) Two labelled graphs are relabelings of each other exactly
  when their graphs are isomorphic.  (ii) The relabelings fixing a labelled
  graph G form Aut(G), as signed edge images.  (iii) The relabeling classes
  of nodes are, for each universe graph G, the Aut(G)-orbits on the 12 node
  keys over G, and a class with representative r has ``2**n n! / |Stab(r)|``
  nodes, n = 5, where Stab(r) lies in Aut(G).

  Proof.  (i) sigma sends directions to directions and commutes with
  reversal.  If sigma maps the groups of P onto those of Q, the vertex map
  that follows the groups sends the initial and terminal vertex of every
  edge d (the groups of d and -d) to those of sigma(d): it is an
  isomorphism.  Conversely an isomorphism sends the directions at a vertex
  onto the directions at the image vertex, so its signed edge images map
  groups onto groups.  (ii) is (i) with P = Q.  (iii) By (i), each labelled
  graph is a relabeling of exactly one universe graph, which holds one graph
  per isomorphism class, so every class meets the keys over some G.  A
  relabeling between two keys over G fixes G's groups, so by (ii) it lies in
  Aut(G); keys over G are in one class exactly when they are in one
  Aut(G)-orbit, and the keys over different universe graphs are never
  related.  The stabiliser of r in the whole group fixes r's groups, so it
  lies in Aut(G), and orbit-stabiliser in the group of ``2**n n!`` signed
  permutations gives the class size.

A labelled node is the pair ``(c, sigma)``, the relabeling ``sigma . r_c``
of class c's representative.  Two pairs of one class are the same node
exactly when they differ by ``Stab(r_c)`` on the right, so sigma is kept
as the least tuple of its coset ``sigma Stab(r_c)``: equal nodes are equal
pairs, and the representative is ``(c, min Stab(r_c))``.  Fold transport
commutes with relabelings, so the folds are transported at the
representatives only: node ``(c, sigma)`` has the folds of ``r_c`` moved by
sigma.  A representative fold keeps its target as the coset of every
relabeling carrying ``r_t`` onto it, so a node's fold targets are read by
moving the cosets through sigma's direction table, with no composition.  A
key is located in one step (``NodeClasses.locate``): the canonical form of
its graph finds its universe graph G, one isomorphism alpha from G carries
it back to a key over G, stored as ``tau . r_c`` with tau in Aut(G), and the
node is ``(c, alpha tau)``.

Residual loops are classified once per walk orbit.  A residual loop is a
fold walk W from a class representative ``r_c`` to a node n of class c,
closed by a relabeling sigma with ``sigma . n == r_c``; W's closings are the
coset ``Stab(r_c) sigma``, so every walk from ``r_c`` has ``|Stab(r_c)|``.
For alpha in ``Stab(r_c)``, ``alpha . W`` is the walk with nodes
``alpha . n_i`` and folds ``(alpha e1, alpha e0)``.

  Lemma.  (i) ``alpha . W`` is a fold walk from ``r_c``, and
  ``sigma -> alpha sigma alpha^-1`` is a bijection from W's closings onto
  those of ``alpha . W``.  (ii) The loops ``(W, sigma)`` and
  ``(alpha . W, alpha sigma alpha^-1)`` compose to maps conjugate by the
  automorphism alpha of the base graph, so their transition matrices are
  ``M`` and ``P M P^-1`` for a permutation matrix P, and one is reducible
  exactly when the other is.  (iii) The reducible residual loops from
  ``r_c`` number the sum, over the ``Stab(r_c)``-orbits O of the walks, of
  ``|O|`` times the reducible closings of O's first walk.

  Proof.  (i) Fold transport commutes with relabelings and alpha fixes
  ``r_c``, so ``alpha . W`` is a walk from ``r_c`` through the nodes
  ``alpha . n_i``.  If ``sigma . n == r_c`` then ``alpha sigma alpha^-1``
  sends ``alpha . n`` to ``alpha . r_c == r_c``, and conjugating by
  ``alpha^-1`` undoes it.  (ii) Folding ``alpha e1`` over ``alpha e0`` in
  ``alpha . G`` is folding e1 over e0 in G with every letter renamed by
  alpha, so the composed walk of ``alpha . W`` is ``alpha f alpha^-1`` for
  f that of W, and closing it by ``alpha sigma alpha^-1`` gives
  ``alpha (sigma f) alpha^-1``.  Renaming letters by alpha permutes the
  rows and columns of the edge counts alike.  (iii) The orbits partition
  the walks from ``r_c``; by (i) each member of O has as many closings as
  O's first walk, and by (ii) as many reducible ones.

``node_one_analysis`` composes each orbit's first walk through a memo of
fold prefixes that it owns for the length of one call (the memo is never
module-level: two analyses of one automaton fold the same walks again), and
decides each of the walk's closings on the composed walk's edge counts with
the columns moved by the closing, which is exact because ``relabel_after``
only renames letters.  Every premise the count uses is checked, raising
``GraphStructureError``: each alpha is an automorphism of the base graph;
every closing ``sigma'`` of every member ``alpha . W`` gives an isomorphism
``sigma' alpha`` from W's end graph to the base; every member is a walk
with as many closings as W; and the orbit sizes times the closings sum to
the loops enumerated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .catalog import single_fold_map
from .certify import MapAnalysis
from .digraph import carries_cycle, strongly_connected_components
from .folds import FoldSequence, apply_fold, rotate
from .graphs import (
    GraphMap,
    GraphStructureError,
    OrientedGraph,
    apply_signed,
    compose,
    compose_signed,
    direction_table,
    invert_signed,
    isomorphism_vertex_map,
    make_turn,
    relabel_after,
    relabeling,
    signed_images,
)
from .search import SearchUniverse, build_universe, graph_isomorphisms
from .spectral import IntegerMatrix, edge_counts, is_irreducible
from .whitehead import canonical_groups, ltt_structure

RANK3_EDGE_NAMES = ("a", "b", "c", "d", "e")

NodeKey = tuple  # (groups, red, turns), all plain nested tuples
Node = tuple  # (class, signed relabeling of its representative)

_IDENTITY = tuple(range(1, len(RANK3_EDGE_NAMES) + 1))
_GROUP_ORDER = 2 ** len(RANK3_EDGE_NAMES) * math.factorial(len(RANK3_EDGE_NAMES))


# -- node keys and the signed permutation action ---------------------------------


def relabel_key(key: NodeKey, sigma: tuple[int, ...]) -> NodeKey:
    groups, red, turns = key
    image = direction_table(sigma)
    new_groups = tuple(sorted(tuple(sorted([image[d] for d in g])) for g in groups))
    new_turns = []
    for a, b in turns:
        x, y = image[a], image[b]
        new_turns.append((x, y) if x < y else (y, x))
    new_turns.sort()
    return (new_groups, image[red], tuple(new_turns))


def graph_from_groups(groups: tuple[tuple[int, ...], ...]) -> OrientedGraph:
    at = {d: gi for gi, group in enumerate(groups) for d in group}
    return OrientedGraph(
        vertex_names=tuple(f"u{gi}" for gi in range(len(groups))),
        edge_names=RANK3_EDGE_NAMES,
        ends=tuple((at[i + 1], at[-(i + 1)]) for i in range(len(RANK3_EDGE_NAMES))),
    )


# -- the node profile ----------------------------------------------------------


def _valence_four(groups: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    return next(g for g in groups if len(g) == 4)


def is_node(key: NodeKey) -> bool:
    """Whether a key has the node profile: valences 3, 3 and 4; the red
    direction at the valence-4 vertex and in exactly one turn; a triangle of
    turns on the other directions at each vertex; and 10 turns in all."""
    groups, red, turns = key
    if sorted(len(g) for g in groups) != [3, 3, 4] or len(turns) != 10:
        return False
    if red not in _valence_four(groups):
        return False
    if sum(red in t for t in turns) != 1:
        return False
    for group in groups:
        purple = [d for d in group if d != red]
        want = {make_turn(*p) for p in itertools.combinations(purple, 2)}
        if len(purple) != 3 or want != {t for t in turns if t[0] in purple and t[1] in purple}:
            return False
    return True


def enumerate_nodes(graph: OrientedGraph) -> list[NodeKey]:
    """The 12 node keys over a (4,3,3) graph, sorted: each choice of red
    direction at the valence-4 vertex and of the direction there that its
    single red turn attaches to, with a triangle on the other directions at
    each vertex."""
    groups = canonical_groups(graph.directions_at(v) for v in range(graph.n_vertices))
    big = _valence_four(groups)
    keys = []
    for red in big:
        triangles = [
            t for group in groups for t in itertools.combinations([d for d in group if d != red], 2)
        ]
        keys.extend(
            (groups, red, tuple(sorted(triangles + [make_turn(red, attach)])))
            for attach in big
            if attach != red
        )
    return sorted(keys)


# -- fold transport -------------------------------------------------------------


def fold_candidates(key: NodeKey) -> list[tuple[int, int]]:
    """Ordered pairs (e1, e0) of distinct-edge directions at the valence-4
    vertex whose pair is not a turn of the structure.  The triangle structure
    forces every such pair to involve the red direction."""
    groups, red, turns = key
    big = _valence_four(groups)
    turn_set = set(turns)
    out = []
    for e1, e0 in itertools.permutations(big, 2):
        if abs(e1) == abs(e0):
            continue
        if make_turn(e1, e0) in turn_set:
            continue
        out.append((e1, e0))
    return out


def transport(key: NodeKey, e1: int, e0: int) -> NodeKey | None:
    """Edge-local image of a node under the fold of e1 over e0.

    Replaces e1 by e0 inside every turn, adds the turn crossed by the folded
    image path as the new red edge, and moves e1 to the terminal vertex of
    e0 as the new red direction.  Returns None when the result violates the
    node profile.
    """
    groups, red, turns = key
    new_turns = set()
    for t in turns:
        a = e0 if t[0] == e1 else t[0]
        b = e0 if t[1] == e1 else t[1]
        if a == b:
            return None
        new_turns.add(make_turn(a, b))
    new_turns.add(make_turn(e1, -e0))
    moved = []
    for g in groups:
        g2 = [d for d in g if d != e1]
        if -e0 in g2:
            g2.append(e1)
        moved.append(tuple(sorted(g2)))
    out = (canonical_groups(moved), e1, tuple(sorted(new_turns)))
    return out if is_node(out) else None


# -- the relabeling classes -------------------------------------------------------


@dataclass(frozen=True)
class NodeClasses:
    """The relabeling classes of nodes over the universe graphs, in universe
    order and, over one graph, in the order of their first keys; each
    class's representative is its first key."""

    universe: SearchUniverse
    rep_keys: list[NodeKey]
    class_graph: list[int]  # per class, the universe position of its graph
    stabilizers: list[list[tuple[int, ...]]]  # per class, the Aut(G) elements fixing it
    placed: list[dict[NodeKey, Node]]  # per universe graph, key -> (c, tau), tau . r_c == key

    def size(self, c: int) -> int:
        """The nodes in class c, by orbit-stabiliser."""
        return _GROUP_ORDER // len(self.stabilizers[c])

    def coset(self, c: int, sigma: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Every relabeling carrying ``r_c`` onto ``sigma . r_c``, sorted."""
        image = direction_table(sigma)
        return sorted(tuple(map(image.__getitem__, s)) for s in self.stabilizers[c])

    def node(self, c: int, sigma: tuple[int, ...]) -> Node:
        """The node ``sigma . r_c``, with sigma the least of its coset."""
        return (c, self.coset(c, sigma)[0])

    def key(self, node: Node) -> NodeKey:
        c, sigma = node
        return relabel_key(self.rep_keys[c], sigma)

    def locate(self, key: NodeKey) -> Node | None:
        """The node with this key, or None when the key is no node."""
        graph = graph_from_groups(key[0])
        gi = self.universe.locate(graph)
        if gi is None:
            return None
        alpha = graph_isomorphisms(self.universe.graphs[gi], graph)[0]
        found = self.placed[gi].get(relabel_key(key, invert_signed(alpha)))
        if found is None:
            return None
        c, tau = found
        return self.node(c, compose_signed(alpha, tau))


def _relabeling_classes(universe: SearchUniverse) -> NodeClasses:
    """The Aut(G)-orbits on the node keys over each universe graph G, by
    relabeling each class's first key under every automorphism: the images
    are the class's keys over G, and the automorphisms fixing it its
    stabiliser.  An image that is not a key over G raises
    ``GraphStructureError``: the class sizes count on every image."""
    rep_keys, class_graph, stabilizers, placed = [], [], [], []
    for gi, graph in enumerate(universe.graphs):
        automorphisms = graph_isomorphisms(graph, graph)
        keys = enumerate_nodes(graph)
        here: dict[NodeKey, Node] = {}
        for key in keys:
            if key in here:
                continue
            c = len(rep_keys)
            stabilizer = []
            for alpha in automorphisms:
                image = relabel_key(key, alpha)
                if image not in keys:
                    raise GraphStructureError("relabeling left the node set")
                here.setdefault(image, (c, alpha))
                if image == key:
                    stabilizer.append(alpha)
            rep_keys.append(key)
            class_graph.append(gi)
            stabilizers.append(stabilizer)
        placed.append(here)
    return NodeClasses(universe, rep_keys, class_graph, stabilizers, placed)


# -- the automaton ---------------------------------------------------------------


def _class_adjacency(quotient_edges, removed: int = -1) -> dict[int, list[int]]:
    """Successor lists of the class quotient, less the class ``removed``."""
    adjacency: dict[int, list[int]] = {}
    for c1, c2 in quotient_edges:
        if removed not in (c1, c2):
            adjacency.setdefault(c1, []).append(c2)
    return adjacency


@dataclass
class Automaton:
    """The relabeling classes, the quotient SCCs, and the folds of the class
    representatives, the only stored copy of the fold graph: for each
    representative fold (e1, e0) into class t, whose target is ``tau . r_t``
    for every tau of its coset, the node ``(c, sigma)`` has the fold
    (sigma e1, sigma e0) into ``(t, min sigma coset)``."""

    classes: NodeClasses
    rep_folds: list[list[tuple[int, int, int, list]]]  # per class, (e1, e0, t, coset) at the rep
    quotient_edges: dict[tuple[int, int], int]  # class pair -> exact fold edges
    sccs: list[list[int]]  # class-level strongly connected components
    node_one: Node  # the node of the reference single-fold map

    @property
    def n_classes(self) -> int:
        return len(self.rep_folds)

    @property
    def n_nodes(self) -> int:
        return sum(map(self.classes.size, range(self.n_classes)))

    @property
    def n_fold_edges(self) -> int:
        """Exact fold edges, by orbit-stabiliser: every node of a class has
        as many folds as its representative."""
        return sum(self.classes.size(c) * len(f) for c, f in enumerate(self.rep_folds))

    def out_folds(self, node: Node) -> list[tuple[int, int, Node]]:
        """The folds ``(e1, e0, target)`` at a node, sorted: its
        representative's folds moved by its relabeling, each target's
        relabeling the least of its moved coset."""
        c, sigma = node
        move = direction_table(sigma).__getitem__
        folds = [
            (move(e1), move(e0), (t, min([tuple(map(move, u)) for u in coset])))
            for e1, e0, t, coset in self.rep_folds[c]
        ]
        folds.sort()
        return folds

    def folds_into(self, node: Node) -> list[tuple[Node, int, int]]:
        """The folds ``(source, e1, e0)`` into the node, sorted: each sigma
        with ``sigma . t == node`` moves a representative's fold (e1, e0)
        into t to ``sigma . rep``; sigmas in one coset of the
        representative's stabiliser give the same fold."""
        return sorted({
            (self.classes.node(c, s), apply_signed(s, e1), apply_signed(s, e0))
            for c, folds in enumerate(self.rep_folds)
            for e1, e0, t, coset in folds
            for s in self.permutations_between((t, coset[0]), node)
        })

    def loop_sccs(self) -> list[int]:
        """Indices of class-level components containing a directed fold loop."""
        adjacency = _class_adjacency(self.quotient_edges)
        return [ci for ci, comp in enumerate(self.sccs) if carries_cycle(comp, adjacency)]

    def permutations_between(self, n1: Node, n2: Node) -> list[tuple[int, ...]]:
        """All sigma with sigma . n1 == n2: ``w2 s w1^-1`` for s in the
        class's stabiliser."""
        (c1, w1), (c2, w2) = n1, n2
        if c1 != c2:
            return []
        inv1 = invert_signed(w1)
        return [compose_signed(w2, compose_signed(s, inv1)) for s in self.classes.stabilizers[c1]]


def build_automaton(rank: int = 3) -> Automaton:
    """Group the node keys over the universe graphs into relabeling classes,
    transport the folds at the class representatives, and compute the
    class-level strongly connected components.  The reference node is the
    structure of ``single_fold_map``.

    Each fold target is located through its graph's canonical form and one
    isomorphism, and each class contributes its size once per
    representative fold to the quotient edge counts.  A fold target or the
    reference structure that is no node raises ``GraphStructureError``.
    """
    if rank != 3:
        raise GraphStructureError("the automaton is implemented for rank 3")
    classes = _relabeling_classes(build_universe(rank))
    rep_folds: list[list[tuple[int, int, int, list]]] = []
    quotient_edges: dict[tuple[int, int], int] = {}
    for c, key in enumerate(classes.rep_keys):
        folds = []
        for e1, e0 in fold_candidates(key):
            out = transport(key, e1, e0)
            if out is None:
                continue
            target = classes.locate(out)
            if target is None:
                raise GraphStructureError("fold transport left the node set")
            t, tau = target
            folds.append((e1, e0, t, classes.coset(t, tau)))
            quotient_edges[c, t] = quotient_edges.get((c, t), 0) + classes.size(c)
        rep_folds.append(folds)
    sccs = strongly_connected_components(len(rep_folds), _class_adjacency(quotient_edges))

    node_one = classes.locate(ltt_structure(MapAnalysis(single_fold_map())))
    if node_one is None:
        raise GraphStructureError("reference structure is not an automaton node")

    return Automaton(classes, rep_folds, quotient_edges, sccs, node_one)


# -- loops and maps ----------------------------------------------------------------


@dataclass(frozen=True)
class DirectedLoop:
    """A closed fold walk: its nodes, the folds between them, and the
    relabeling closing the walk back to its start."""

    nodes: tuple[Node, ...]
    folds: tuple[tuple[int, int], ...]
    closing: tuple[int, ...]


def enumerate_loops(
    automaton: Automaton,
    max_length: int,
    start_nodes: list[Node] | None = None,
    classes: set[int] | None = None,
) -> list[DirectedLoop]:
    """All fold loops of length <= max_length based at the given nodes
    (class representatives by default), with every closing relabeling.
    Each node's folds are read once per call.  With ``classes``, a walk
    never enters a node outside those classes: the result is the loops whose
    nodes all lie in them, in the order of the unrestricted enumeration."""
    if max_length < 0:
        raise GraphStructureError("loop length bound must be nonnegative")
    if start_nodes is None:
        start_nodes = [automaton.classes.node(c, _IDENTITY) for c in range(automaton.n_classes)]
    out: list[DirectedLoop] = []
    out_folds: dict[Node, list[tuple[int, int, Node]]] = {}

    def extend(path_nodes: list[Node], path_folds: list[tuple[int, int]]):
        current = path_nodes[-1]
        if path_folds and current[0] == path_nodes[0][0]:
            for sigma in automaton.permutations_between(current, path_nodes[0]):
                out.append(DirectedLoop(tuple(path_nodes), tuple(path_folds), sigma))
        if len(path_folds) == max_length:
            return
        folds = out_folds.get(current)
        if folds is None:
            folds = out_folds[current] = automaton.out_folds(current)
        for e1, e0, target in folds:
            if classes is None or target[0] in classes:
                extend(path_nodes + [target], path_folds + [(e1, e0)])

    for start in start_nodes:
        extend([start], [])
    return out


def loop_to_map(
    automaton: Automaton, loop: DirectedLoop, walks: dict | None = None
) -> GraphMap:
    """Compose a directed loop into a graph self-map, folds first and the
    closing relabeling last, in the order of ``FoldSequence.composed_map``.

    ``walks`` is a memo owned by the caller, mapping a start node to a
    dict from fold prefixes to ``(base graph, composed fold map, current
    graph)``, so a loop hashes its start node once.  The
    longest stored prefix of the loop is extended one fold and one
    composition at a time, and every new prefix is stored.  The closing is
    checked to be an isomorphism from the walk's end graph to its base,
    raising ``GraphStructureError`` otherwise, and applied by
    ``relabel_after``: the composed walk is tight, so relabeling its images
    is the composition, and no relabeling map is built.  The map is the
    same with or without the memo.  The caller decides how long the memo
    lives; ``node_one_analysis`` keeps one per call.
    """
    start, folds = loop.nodes[0], loop.folds
    prefixes = {} if walks is None else walks.setdefault(start, {})
    k = len(folds)
    while k and folds[:k] not in prefixes:
        k -= 1
    if k:
        base, composed, current = prefixes[folds[:k]]
    else:
        base = current = graph_from_groups(automaton.classes.key(start)[0])
        composed = None
    for j in range(k, len(folds)):
        move = apply_fold(current, *folds[j], "proper_full")
        composed = move.map if composed is None else compose(move.map, composed)
        current = move.target
        prefixes[folds[: j + 1]] = (base, composed, current)
    if composed is None:
        return relabeling(current, base, loop.closing)
    isomorphism_vertex_map(current, base, loop.closing)
    return relabel_after(composed, base, loop.closing)


def decomposition_to_loop(
    automaton: Automaton, seq: FoldSequence
) -> DirectedLoop | None:
    """Locate a fold decomposition (or a fold conjugate of it) as a directed
    loop in the automaton.

    Tries every rotation of the sequence and returns None when no rotation
    lands on the nodes, or when a fold is not proper full: automaton edges
    are proper full folds.
    """
    if any(move.kind != "proper_full" for move in seq.moves):
        return None
    for j in range(len(seq) + 1):
        found = _walk_decomposition(automaton, rotate(seq, j))
        if found is not None:
            return found
    return None


def _walk_decomposition(automaton: Automaton, seq: FoldSequence) -> DirectedLoop | None:
    """Match a sequence of proper full folds on a (4,3,3) graph against the
    automaton."""
    base = seq.base_graph
    if sorted(base.valence_profile()) != [3, 3, 4] or base.n_edges != 5:
        return None
    try:
        start_key = ltt_structure(MapAnalysis(seq.composed_map()))
    except GraphStructureError:
        return None
    # the nodes are closed under relabeling, so a key that is no node has no
    # relabeling that is one; a transport off the profile returns None
    keys = [start_key]
    for move in seq.moves:
        keys.append(transport(keys[-1], move.e1, move.e0))
        if keys[-1] is None:
            return None
    nodes = [automaton.classes.locate(key) for key in keys]
    if None in nodes:
        return None
    # The decomposition's own relabeling must close the walk: it is the one
    # known to recompose to the input, so no other closing relabeling is tried.
    closing = signed_images(seq.final)
    if relabel_key(keys[-1], closing) != start_key:
        return None
    return DirectedLoop(tuple(nodes), tuple((m.e1, m.e0) for m in seq.moves), closing)


# -- analysis of the loop component -------------------------------------------------


@dataclass(frozen=True)
class NodeOneAnalysis:
    node_one_class: int
    loop_bound: int  # the longest residual loop composed
    removed_scc_classes: tuple[int, ...]  # the loop component before removal
    residual_loop_classes: tuple[int, ...]  # loop-carrying classes after removal
    also_disconnected: tuple[int, ...]  # classes that leave the loop part with it
    loops_checked: int
    loops_reducible: int
    entering_folds: int
    underlying_graph_classes: tuple[int, ...]  # universe positions

    @property
    def obstruction_holds(self) -> bool:
        return self.loops_checked == self.loops_reducible


def _loop_classes(automaton: Automaton, removed: int) -> tuple[int, ...]:
    """The classes on loop-carrying components of the class quotient less
    the class ``removed``, sorted."""
    adjacency = _class_adjacency(automaton.quotient_edges, removed)
    return tuple(
        sorted(
            c
            for comp in strongly_connected_components(automaton.n_classes, adjacency)
            if carries_cycle(comp, adjacency)
            for c in comp
        )
    )


def closing_matrix(counts: tuple[tuple[int, ...], ...], closing: tuple[int, ...]) -> IntegerMatrix:
    """The transition matrix of a fold walk closed by ``closing``, from the
    ``edge_counts`` of its composed walk.  ``relabel_after`` renames each
    letter of the walk's images through the closing and changes nothing
    else, so the counts of end-graph edge i, 0-based, move to the column
    of edge ``|closing[i]|``."""
    inverse = invert_signed(closing)
    return IntegerMatrix(tuple(tuple(row[abs(x) - 1] for x in inverse) for row in counts))


def _walk_orbits(stabilizer: list[tuple[int, ...]], walks) -> list[tuple[tuple, dict]]:
    """The orbits of ``stabilizer`` on fold walks from one start, each walk
    given by its folds, in the order of their first walks: per orbit, its
    first walk and a dict from each member to the first element carrying
    the first walk onto it.  The members are not checked to be walks."""
    tables = [(alpha, direction_table(alpha)) for alpha in stabilizer]
    seen: set[tuple] = set()
    orbits = []
    for folds in walks:
        if folds in seen:
            continue
        members: dict[tuple, tuple[int, ...]] = {}
        for alpha, move in tables:
            members.setdefault(tuple((move[e1], move[e0]) for e1, e0 in folds), alpha)
        seen.update(members)
        orbits.append((folds, members))
    return orbits


def node_one_analysis(automaton: Automaton, loop_bound: int) -> NodeOneAnalysis:
    """Remove the reference node's relabeling class and study what remains.

    Counts the directed loops of fold-length up to the bound confined to
    the residual loop component and those with a reducible transition
    matrix; ``obstruction_holds`` says only that all of them are reducible
    up to ``loop_bound``, which the result records (at bound 5 some are
    not).  Also counts the folds entering the reference node and reports
    the universe graphs underlying it and their sources: a class lies over
    one universe graph, which stands for every relabeled copy.

    The loops are classified by the walk-orbit lemma of the module
    docstring: one ``loop_to_map`` per ``Stab(r_c)``-orbit of fold walks,
    through one memo of fold prefixes that this call creates and drops, so
    a repeated analysis does its work again, and each closing of the
    orbit's first walk decided by ``closing_matrix``, weighted by the
    orbit's size.  A premise of the lemma that fails raises
    ``GraphStructureError``.
    """
    node_one_class = automaton.node_one[0]
    removed_scc = tuple(sorted(c for ci in automaton.loop_sccs() for c in automaton.sccs[ci]))
    # with the reference class cut off, it is a component of its own
    # without a loop
    residual_classes = _loop_classes(automaton, removed=node_one_class)
    also_disconnected = tuple(
        sorted(set(removed_scc) - set(residual_classes) - {node_one_class})
    )

    reps = [automaton.classes.node(c, _IDENTITY) for c in residual_classes]
    loops = enumerate_loops(automaton, loop_bound, reps, set(residual_classes))
    closings: dict[Node, dict[tuple, list[DirectedLoop]]] = {}
    for lp in loops:
        closings.setdefault(lp.nodes[0], {}).setdefault(lp.folds, []).append(lp)
    walks: dict = {}
    reducible = weight = 0
    for start, of_walk in closings.items():
        stabilizer = automaton.classes.stabilizers[start[0]]
        base = graph_from_groups(automaton.classes.key(start)[0])
        for alpha in stabilizer:
            isomorphism_vertex_map(base, base, alpha)
        for folds, members in _walk_orbits(stabilizer, of_walk):
            first = of_walk[folds]
            # composes the walk into the memo and checks its first closing
            loop_to_map(automaton, first[0], walks)
            _base, composed, end = walks[start][folds]
            for image, alpha in members.items():
                member = of_walk.get(image, ())
                if len(member) != len(first):
                    raise GraphStructureError("a walk orbit member has other closings")
                for lp in member:
                    isomorphism_vertex_map(end, base, compose_signed(lp.closing, alpha))
            counts = edge_counts(composed)
            reducible += len(members) * sum(
                not is_irreducible(closing_matrix(counts, lp.closing)) for lp in first
            )
            weight += len(members) * len(first)
    if weight != len(loops):
        raise GraphStructureError("walk orbit weights do not sum to the loops")

    entering = automaton.folds_into(automaton.node_one)
    graph_of = automaton.classes.class_graph
    graph_keys = {graph_of[node_one_class]} | {graph_of[source[0]] for source, _, _ in entering}

    return NodeOneAnalysis(
        node_one_class=node_one_class,
        loop_bound=loop_bound,
        removed_scc_classes=removed_scc,
        residual_loop_classes=residual_classes,
        also_disconnected=also_disconnected,
        loops_checked=len(loops),
        loops_reducible=reducible,
        entering_folds=len(entering),
        underlying_graph_classes=tuple(sorted(graph_keys)),
    )


# -- exports ---------------------------------------------------------------------


def automaton_to_dot(automaton: Automaton) -> str:
    """Class-level DOT rendering: one node per relabeling class (the
    reference node's class double-circled), black fold arrows labeled with
    exact-edge multiplicities, and one dashed green self-arrow on each class
    whose representative has a nontrivial stabiliser, labeled with the
    stabiliser's order."""
    lines = ["digraph principal_stratum {"]
    node_one_class = automaton.node_one[0]
    for cid in range(automaton.n_classes):
        shape = "doublecircle" if cid == node_one_class else "circle"
        lines.append(
            f'  C{cid} [shape={shape}, label="class {cid}\\n{automaton.classes.size(cid)} nodes"];'
        )
    for (c1, c2), count in sorted(automaton.quotient_edges.items()):
        lines.append(f'  C{c1} -> C{c2} [color=black, label="{count}"];')
    # one green identification arrow per class with a nontrivial stabilizer
    for cid, stab in enumerate(automaton.classes.stabilizers):
        if len(stab) > 1:
            lines.append(
                f'  C{cid} -> C{cid} [color=green, style=dashed, '
                f'label="{len(stab)} relabelings"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def automaton_json(automaton: Automaton, analysis: "NodeOneAnalysis | None" = None) -> dict:
    out = {
        "schema": "3",
        "kind": "automaton",
        "nodes": automaton.n_nodes,
        "fold_edges": automaton.n_fold_edges,
        "classes": automaton.n_classes,
        "class_sizes": sorted(map(automaton.classes.size, range(automaton.n_classes))),
        "scc_sizes": sorted(len(s) for s in automaton.sccs),
        "loop_scc_count": len(automaton.loop_sccs()),
        "reference_class": automaton.node_one[0],
    }
    if analysis is not None:
        out["reference_analysis"] = {
            "loop_bound": analysis.loop_bound,
            "loop_component_classes": len(analysis.removed_scc_classes),
            "residual_loop_classes": len(analysis.residual_loop_classes),
            "also_disconnected": len(analysis.also_disconnected),
            "loops_checked": analysis.loops_checked,
            "loops_reducible": analysis.loops_reducible,
            "entering_folds": analysis.entering_folds,
            "underlying_graph_classes": len(analysis.underlying_graph_classes),
            "obstruction_holds": analysis.obstruction_holds,
        }
    return out
