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
looked up among the nodes directly.  The fold transport is edge-local: the
folded direction is renamed onto the target direction inside every turn,
the fresh turn crossed by the folded edge-path is added as the new red edge,
and the moved direction becomes the new red vertex.

A node is fixed by its labeled graph, its red direction and the direction
its red turn attaches to, so it is stored as an integer id ``12 g + 3 r +
a`` over the sorted labeled graphs, in the order of the sorted keys
(``NodeSet``); a key is built only where one is read.  Fold transport
commutes with signed relabelings, so the build works per relabeling class on
node ids, on integer tables.  Each of the three group generators acts on
node ids through one table of images of 10-bit direction masks and one pass
over the labeled graphs, so no partition is canonicalised.  A class's orbit
row, the node ``sigma_k . rep`` for each signed permutation sigma_k in
``signed_permutations`` order, is filled along a spanning tree of the group
found by index arithmetic, so no signed permutation is composed; one pass
over the row reads off the orbit, each node's least sigma, and the
stabiliser.  Folds are transported and stored at the class representatives
only: a node ``sigma . rep`` has the folds of its representative moved by
sigma, and the fold-edge and quotient-edge counts follow by
orbit-stabiliser.

Residual loops share their fold walks: the loops of one walk differ only in
the closing relabeling, and walks share prefixes.  ``node_one_analysis``
owns a memo of composed fold prefixes for the length of one call and hands
it to ``loop_to_map`` for each loop, so each prefix is folded and composed
once per analysis, and each loop's closing is checked to be an isomorphism
and applied as a relabeling of the composed walk's images, with no
composition.  The memo is never module-level: two analyses of one
automaton fold the same walks again.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .catalog import single_fold_map
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
    signed_permutations,
)
from .spectral import is_irreducible, transition_matrix
from .certify import MapAnalysis
from .whitehead import canonical_groups, ltt_structure

RANK3_EDGE_NAMES = ("a", "b", "c", "d", "e")

NodeKey = tuple  # (groups, red, turns), all plain nested tuples

_DIRECTIONS = tuple(sorted(s * i for i in range(1, len(RANK3_EDGE_NAMES) + 1) for s in (1, -1)))


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


# -- enumeration -----------------------------------------------------------------


def enumerate_labeled_graphs():
    """All connected (4,3,3)-graphs on five labeled, oriented edges, up to
    vertex renaming, encoded as direction partitions, sorted: the 2,100
    partitions of the ten directions into groups of sizes 4, 3 and 3, less
    the 100 disconnected ones.

    A partition is disconnected exactly when its valence-4 group is closed
    under reversal.  The valences of a component sum to twice its edge
    count, so a component is never one valence-3 vertex alone: a
    disconnected graph is the valence-4 vertex with two loops beside the
    two valence-3 vertices, and its four directions are the two ends of
    each loop.  The groups come out of the combinations sorted, so a
    partition is sorted as three tuples."""
    out = []
    for big in itertools.combinations(_DIRECTIONS, 4):
        if all(-d in big for d in big):
            continue
        rest = [d for d in _DIRECTIONS if d not in big]
        for pair in itertools.combinations(rest[1:], 2):
            third = tuple(d for d in rest[1:] if d not in pair)
            out.append(tuple(sorted((big, (rest[0],) + pair, third))))
    return sorted(out)


def _local_id(r: int, p: int) -> int:
    """A node's id within its labeled graph, from the positions of its red
    direction and of the direction its red turn attaches to in the
    valence-4 group."""
    return 3 * r + p - (p > r)


class NodeSet(Sequence):
    """The node keys over a list of labeled graphs, each built where it is
    read.  Node ``12 g + 3 r + a`` lies over ``graphs[g]``; its red
    direction is the r-th of the graph's valence-4 group, and its red turn
    attaches to the a-th of the other three.  Over sorted graphs, ids follow
    the order of the sorted keys."""

    def __init__(self, graphs: list[tuple[tuple[int, ...], ...]]) -> None:
        self.graphs = graphs
        self.graph_id = {groups: g for g, groups in enumerate(graphs)}

    def __len__(self) -> int:
        return 12 * len(self.graphs)

    def __getitem__(self, node_id: int) -> NodeKey:
        if not 0 <= node_id < len(self):
            raise IndexError("node id out of range")
        g, local = divmod(node_id, 12)
        groups = self.graphs[g]
        big = _valence_four(groups)
        r, a = divmod(local, 3)
        red = big[r]
        turns = [make_turn(red, big[a + (a >= r)])]
        for group in groups:
            turns.extend(itertools.combinations([d for d in group if d != red], 2))
        turns.sort()
        return (groups, red, tuple(turns))

    def groups_of(self, node_id: int) -> tuple[tuple[int, ...], ...]:
        """The direction partition of a node's labeled graph."""
        return self.graphs[node_id // 12]

    def index(self, key) -> int:
        """The id of a node key, by arithmetic on its labeled graph's id;
        the key at that id is rebuilt and compared, so ``ValueError`` is
        raised for every key that is not a node."""
        try:
            groups, red, turns = key
            big = _valence_four(groups)
            r = big.index(red)
            p = big.index(next(a + b - red for a, b in turns if red in (a, b)))
            node_id = 12 * self.graph_id[groups] + _local_id(r, p)
        except (TypeError, ValueError, KeyError, StopIteration):
            raise ValueError("not an automaton node") from None
        if self[node_id] != key:
            raise ValueError("not an automaton node")
        return node_id

    def __contains__(self, key) -> bool:
        try:
            self.index(key)
        except ValueError:
            return False
        return True


def enumerate_nodes() -> NodeSet:
    """All node structures over all (4,3,3) rank-3 graphs, sorted: for each
    labeled graph, each choice of red direction at the valence-4 vertex and
    of the purple direction its single red turn attaches to.  Only the
    labeled graphs are enumerated; a key is built when it is read."""
    return NodeSet(enumerate_labeled_graphs())


# -- the automaton ---------------------------------------------------------------


def _group_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """Generators of the signed permutations of n labels: a transposition
    (the identity for one label), an n-cycle and one orientation flip."""
    labels = list(range(1, n + 1))
    swap = tuple(labels[1::-1] + labels[2:])
    cycle = tuple(labels[1:] + labels[:1])
    flip = (-1,) + tuple(labels[1:])
    return (swap, cycle, flip)


def _group_tree(n: int) -> list[tuple[int, int, int]]:
    """A spanning tree of the group of signed permutations of n labels, on
    indices in the order of ``signed_permutations(n)``: ``(element,
    generator, parent)`` in breadth-first order from the identity, index 0,
    with element the index of generator g after parent.

    Index ``2**n p + b`` is the permutation of lexicographic rank p with
    sign bits b, bit ``n - 1 - i`` set when label i + 1 goes to a negative
    label.  ``gen o sigma`` permutes by ``|gen| o |sigma|`` and flips the
    signs of the labels that sigma sends to one that gen negates, so
    generator g steps ``2**n p + b`` to ``2**n ranks[p] + (b ^ flips[p])``,
    with one table of the ranks of ``|gen| o`` each permutation and one of
    sign flips per generator."""
    perms = list(itertools.permutations(range(1, n + 1)))
    rank = {p: r for r, p in enumerate(perms)}
    size = 1 << n
    steps = []
    for gen in _group_generators(n):
        ranks = [rank[tuple(abs(gen[x - 1]) for x in p)] for p in perms]
        flips = [sum(1 << (n - 1 - i) for i, x in enumerate(p) if gen[x - 1] < 0) for p in perms]
        steps.append([size * r + (b ^ f) for r, f in zip(ranks, flips) for b in range(size)])
    tree = []
    seen = {0}
    queue = [0]
    for k in queue:
        for g, step in enumerate(steps):
            if step[k] not in seen:
                seen.add(step[k])
                queue.append(step[k])
                tree.append((step[k], g, k))
    return tree


def _class_adjacency(quotient_edges, removed: int = -1) -> dict[int, list[int]]:
    """Successor lists of the class quotient, less the class ``removed``."""
    adjacency: dict[int, list[int]] = {}
    for c1, c2 in quotient_edges:
        if removed not in (c1, c2):
            adjacency.setdefault(c1, []).append(c2)
    return adjacency


@dataclass
class Automaton:
    """Exact nodes, relabeling classes, the quotient SCCs, and the folds of
    the class representatives, the only stored copy of the fold graph: for
    each representative fold (e1, e0) into t, the node ``sigma . rep`` has
    the fold (sigma e1, sigma e0) into ``sigma . t``.  A class's
    representative is its least node, ``class_members[c][0]``, which is also
    ``orbit_rows[c][0]``, its image under the identity."""

    nodes: NodeSet
    class_of: list[int]
    class_members: list[list[int]]  # per class, sorted; the representative first
    rep_word: list[tuple[int, ...]]  # node -> the least sigma with sigma . rep == node
    rep_stabilizer: list[list[tuple[int, ...]]]  # per class, fixing the rep, in sigma order
    rep_folds: list[list[tuple[int, int, int]]]  # per class, (e1, e0, target) at the rep
    orbit_rows: list[list[int]]  # per class, row[k] == sigma_k . rep
    sigma_index: dict[tuple[int, ...], int]  # sigma_k -> k
    quotient_edges: dict[tuple[int, int], int]  # class pair -> exact fold edges
    sccs: list[list[int]]  # class-level strongly connected components
    node_one: int  # exact node of the reference single-fold map

    @property
    def n_classes(self) -> int:
        return len(self.class_members)

    @property
    def n_fold_edges(self) -> int:
        """Exact fold edges, by orbit-stabiliser: every node of a class has
        as many folds as its representative."""
        return sum(len(m) * len(f) for m, f in zip(self.class_members, self.rep_folds))

    def out_folds(self, node_id: int) -> list[tuple[int, int, int]]:
        """The folds ``(e1, e0, target)`` at a node, sorted: its
        representative's folds moved by ``sigma = rep_word[node_id]``, a
        target t going to the entry ``sigma o rep_word[t]`` of its class row."""
        sigma = self.rep_word[node_id]
        image = direction_table(sigma)
        moved = []
        for e1, e0, t in self.rep_folds[self.class_of[node_id]]:
            k = self.sigma_index[compose_signed(sigma, self.rep_word[t])]
            moved.append((image[e1], image[e0], self.orbit_rows[self.class_of[t]][k]))
        moved.sort()
        return moved

    def folds_into(self, node_id: int) -> list[tuple[int, int, int]]:
        """The folds ``(source, e1, e0)`` into the node, sorted: each sigma
        with ``sigma . t == node`` moves a representative's fold (e1, e0)
        into t to ``sigma . rep``; sigmas in one coset of the
        representative's stabiliser give the same fold."""
        return sorted({
            (self.orbit_rows[c][self.sigma_index[s]], apply_signed(s, e1), apply_signed(s, e0))
            for c, folds in enumerate(self.rep_folds)
            for e1, e0, t in folds
            for s in self.permutations_between(t, node_id)
        })

    def loop_sccs(self) -> list[int]:
        """Indices of class-level components containing a directed fold loop."""
        adjacency = _class_adjacency(self.quotient_edges)
        return [ci for ci, comp in enumerate(self.sccs) if carries_cycle(comp, adjacency)]

    def permutations_between(self, n1: int, n2: int) -> list[tuple[int, ...]]:
        """All sigma with sigma . node(n1) == node(n2)."""
        if self.class_of[n1] != self.class_of[n2]:
            return []
        w1 = self.rep_word[n1]
        w2 = self.rep_word[n2]
        inv1 = invert_signed(w1)
        return [
            compose_signed(w2, compose_signed(s, inv1))
            for s in self.rep_stabilizer[self.class_of[n1]]
        ]


def build_automaton(rank: int = 3) -> Automaton:
    """Enumerate nodes, group them into relabeling classes, transport the
    folds at the class representatives, and compute the class-level
    strongly connected components.  The reference node is the structure of
    ``single_fold_map``.

    Nodes are ids of the ``NodeSet``, whose order lets each group generator
    act on them through one pass over the labeled graphs: a graph goes to
    its image graph, and its 12 nodes to the image graph's by the positions
    of the images in its valence-4 group.  A graph is read as its three
    direction masks and found by an integer key, its valence-4 mask above
    its smaller 3-mask; a generator moves masks through one table of their
    1,024 images, and an image direction's position in the image group is
    the number of the group's bits below it.  Each class's representative
    is the least node not yet classified, and its row ``row[k]``, the node
    ``sigma_k . rep``, is filled along the spanning tree of ``_group_tree``
    by ``row[gen sigma] = gen . row[sigma]``.  One pass over the row, in
    ``signed_permutations`` order, gives each orbit node its class and its
    ``rep_word``, the least sigma reaching it, and collects the sigmas
    fixing the representative, its stabiliser.  Keys are built at the
    representatives only: their folds are transported there and each
    target looked up by ``NodeSet.index``, and each class contributes its
    orbit size once per representative fold to the quotient edge counts.
    """
    if rank != 3:
        raise GraphStructureError("the automaton is implemented for rank 3")
    nodes = enumerate_nodes()

    # the generator action on node ids, one labeled graph at a time; bit i
    # of a mask is the i-th of the sorted directions
    n_labels = len(RANK3_EDGE_NAMES)
    bit = {d: 1 << i for i, d in enumerate(_DIRECTIONS)}
    mask_of = {
        grp: sum(bit[d] for d in grp)
        for size in (3, 4)
        for grp in itertools.combinations(_DIRECTIONS, size)
    }
    # each graph's masks, the valence-4 one last, and the graphs by key
    graph_masks = [
        sorted(map(mask_of.__getitem__, groups), key=int.bit_count) for groups in nodes.graphs
    ]
    graph_of = {(m4 << 10) | min(m3, n3): g for g, (m3, n3, m4) in enumerate(graph_masks)}
    local = {
        q: [_local_id(q[r], q[p]) for r in range(4) for p in range(4) if p != r]
        for q in itertools.permutations(range(4))
    }
    act: list[list[int]] = []
    try:
        for image in map(direction_table, _group_generators(n_labels)):
            moved = [0]
            for d in _DIRECTIONS:
                b = bit[image[d]]
                moved += [m | b for m in moved]
            offsets = {}
            for m4 in {m4 for _m3, _n3, m4 in graph_masks}:
                i4 = moved[m4]
                q = tuple((i4 & (moved[1 << i] - 1)).bit_count() for i in range(10) if m4 >> i & 1)
                offsets[m4] = local[q]
            bases = [
                12 * graph_of[(moved[m4] << 10) | min(moved[m3], moved[n3])]
                for m3, n3, m4 in graph_masks
            ]
            act.append([
                base + x for base, (_m3, _n3, m4) in zip(bases, graph_masks) for x in offsets[m4]
            ])
    except KeyError:
        raise GraphStructureError("relabeling left the node set") from None

    # the group on indices of signed permutations; the identity is index 0
    sigmas = list(signed_permutations(n_labels))
    sigma_index = {sigma: k for k, sigma in enumerate(sigmas)}
    tree = _group_tree(n_labels)

    class_of = [-1] * len(nodes)
    class_members: list[list[int]] = []
    rep_word: list[tuple[int, ...]] = [sigmas[0]] * len(nodes)
    rep_stabilizer: list[list[tuple[int, ...]]] = []
    rep_folds: list[list[tuple[int, int, int]]] = []
    orbit_rows: list[list[int]] = []
    for i in range(len(nodes)):
        if class_of[i] != -1:
            continue
        key = nodes[i]
        cid = len(class_members)
        row = [i] * len(sigmas)
        for k, g, parent in tree:
            row[k] = act[g][row[parent]]
        # one pass over the row: each orbit node's class and least sigma, and
        # the sigmas fixing the representative; the representative is
        # classified first, so the identity's entry joins the stabiliser
        class_of[i] = cid
        members = [i]
        stabilizer = []
        for sigma, j in zip(sigmas, row):
            if class_of[j] != cid:
                class_of[j] = cid
                members.append(j)
                rep_word[j] = sigma
            elif j == i:
                stabilizer.append(sigma)
        folds = []
        for e1, e0 in fold_candidates(key):
            out = transport(key, e1, e0)
            if out is None:
                continue
            try:
                folds.append((e1, e0, nodes.index(out)))
            except ValueError:
                raise GraphStructureError("fold transport left the node set") from None
        class_members.append(sorted(members))
        rep_folds.append(folds)
        orbit_rows.append(row)
        if any(relabel_key(key, s) != key for s in stabilizer):
            raise GraphStructureError("generator tables disagree with relabel_key")
        rep_stabilizer.append(stabilizer)

    # each representative is its class's first node, so class order is the
    # order in which a scan of the exact edges by source meets each pair
    quotient_edges: dict[tuple[int, int], int] = {}
    for cid, folds in enumerate(rep_folds):
        for _e1, _e0, t in folds:
            pair = (cid, class_of[t])
            quotient_edges[pair] = quotient_edges.get(pair, 0) + len(class_members[cid])
    sccs = strongly_connected_components(len(class_members), _class_adjacency(quotient_edges))

    try:
        node_one = nodes.index(ltt_structure(MapAnalysis(single_fold_map())))
    except ValueError:
        raise GraphStructureError("reference structure is not an automaton node") from None

    return Automaton(
        nodes=nodes,
        class_of=class_of,
        class_members=class_members,
        rep_word=rep_word,
        rep_stabilizer=rep_stabilizer,
        rep_folds=rep_folds,
        orbit_rows=orbit_rows,
        sigma_index=sigma_index,
        quotient_edges=quotient_edges,
        sccs=sccs,
        node_one=node_one,
    )


# -- loops and maps ----------------------------------------------------------------


@dataclass(frozen=True)
class DirectedLoop:
    """A closed fold walk: exact node ids, the folds between them, and the
    relabeling closing the walk back to its start."""

    node_ids: tuple[int, ...]
    folds: tuple[tuple[int, int], ...]
    closing: tuple[int, ...]


def enumerate_loops(
    automaton: Automaton,
    max_length: int,
    start_nodes: list[int] | None = None,
    classes: set[int] | None = None,
) -> list[DirectedLoop]:
    """All fold loops of length <= max_length based at the given exact nodes
    (class representatives by default), with every closing relabeling.
    Each node's folds are read once per call.  With ``classes``, a walk
    never enters a node outside those classes: the result is the loops whose
    nodes all lie in them, in the order of the unrestricted enumeration."""
    if max_length < 0:
        raise GraphStructureError("loop length bound must be nonnegative")
    if start_nodes is None:
        start_nodes = [members[0] for members in automaton.class_members]
    out: list[DirectedLoop] = []
    out_folds: dict[int, list[tuple[int, int, int]]] = {}

    def extend(path_nodes: list[int], path_folds: list[tuple[int, int]]):
        current = path_nodes[-1]
        if len(path_folds) >= 1 and automaton.class_of[current] == automaton.class_of[path_nodes[0]]:
            for sigma in automaton.permutations_between(current, path_nodes[0]):
                out.append(
                    DirectedLoop(tuple(path_nodes), tuple(path_folds), sigma)
                )
        if len(path_folds) == max_length:
            return
        folds = out_folds.get(current)
        if folds is None:
            folds = out_folds[current] = automaton.out_folds(current)
        for e1, e0, target in folds:
            if classes is None or automaton.class_of[target] in classes:
                extend(path_nodes + [target], path_folds + [(e1, e0)])

    for start in start_nodes:
        extend([start], [])
    return out


def loop_to_map(
    automaton: Automaton, loop: DirectedLoop, walks: dict | None = None
) -> GraphMap:
    """Compose a directed loop into a graph self-map, folds first and the
    closing relabeling last, in the order of ``FoldSequence.composed_map``.

    ``walks`` is a memo owned by the caller, mapping ``(start node, fold
    prefix)`` to ``(base graph, composed fold map, current graph)``.  The
    longest stored prefix of the loop is extended one fold and one
    composition at a time, and every new prefix is stored.  The closing is
    checked to be an isomorphism from the walk's end graph to its base,
    raising ``GraphStructureError`` otherwise, and applied by
    ``relabel_after``: the composed walk is tight, so relabeling its images
    is the composition, and no relabeling map is built.  The map is the
    same with or without the memo.  The caller decides how long the memo
    lives; ``node_one_analysis`` keeps one per call.
    """
    if walks is None:
        walks = {}
    start, folds = loop.node_ids[0], loop.folds
    k = len(folds)
    while k and (start, folds[:k]) not in walks:
        k -= 1
    if k:
        base, composed, current = walks[start, folds[:k]]
    else:
        base = current = graph_from_groups(automaton.nodes.groups_of(start))
        composed = None
    for j in range(k, len(folds)):
        move = apply_fold(current, *folds[j], "proper_full")
        composed = move.map if composed is None else compose(move.map, composed)
        current = move.target
        walks[start, folds[: j + 1]] = (base, composed, current)
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
    lands in the node set, or when a fold is not proper full: automaton
    edges are proper full folds.
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
    # The node set is closed under relabeling, so when no node carries the
    # sequence's own labels, no relabeling of them is a node either.  A
    # transport off the profile returns None, which is no node.
    try:
        node_ids = [automaton.nodes.index(start_key)]
        key = start_key
        for move in seq.moves:
            key = transport(key, move.e1, move.e0)
            node_ids.append(automaton.nodes.index(key))
    except ValueError:
        return None
    # The decomposition's own relabeling must close the walk: it is the one
    # known to recompose to the input, so no other closing relabeling is tried.
    closing = signed_images(seq.final)
    if relabel_key(key, closing) != start_key:
        return None
    return DirectedLoop(tuple(node_ids), tuple((m.e1, m.e0) for m in seq.moves), closing)


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
    underlying_graph_classes: tuple[tuple, ...]

    @property
    def obstruction_holds(self) -> bool:
        return self.loops_checked == self.loops_reducible


def _graph_class_key(automaton: Automaton, node_id: int) -> tuple:
    """Canonical form of a node's underlying labeled graph modulo
    relabelings: the least graph over its relabeling class, which is the
    node's orbit and so projects onto every relabeled copy of the graph.
    Node ids follow the order of their labeled graphs and each class's
    members are sorted, so the least graph is its representative's."""
    return automaton.nodes.groups_of(automaton.class_members[automaton.class_of[node_id]][0])


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


def node_one_analysis(automaton: Automaton, loop_bound: int) -> NodeOneAnalysis:
    """Remove the reference node's relabeling class and study what remains.

    Composes every directed loop of fold-length up to the bound confined to
    the residual loop component and counts those with a reducible
    transition matrix; ``obstruction_holds`` says only that all of them are
    reducible up to ``loop_bound``, which the result records (at bound 5
    some are not).  Also counts the folds entering the reference node and
    reports the underlying graphs involved.

    The loops are composed through one memo of fold prefixes that this call
    creates and drops, so each shared prefix is folded once per call and a
    repeated analysis does its work again.  Each loop's closing is applied
    as a relabeling of its composed walk, not composed with it.
    """
    node_one_class = automaton.class_of[automaton.node_one]
    removed_scc = tuple(sorted(c for ci in automaton.loop_sccs() for c in automaton.sccs[ci]))
    # with the reference class cut off, it is a component of its own
    # without a loop
    residual_classes = _loop_classes(automaton, removed=node_one_class)
    also_disconnected = tuple(
        sorted(set(removed_scc) - set(residual_classes) - {node_one_class})
    )

    # direct composition of all short loops within the residual component
    reps = [automaton.class_members[c][0] for c in residual_classes]
    loops = enumerate_loops(automaton, loop_bound, reps, set(residual_classes))
    walks: dict = {}
    reducible = sum(
        not is_irreducible(transition_matrix(loop_to_map(automaton, lp, walks))) for lp in loops
    )

    entering = automaton.folds_into(automaton.node_one)
    graph_keys = {_graph_class_key(automaton, automaton.node_one)}
    for source, _e1, _e0 in entering:
        graph_keys.add(_graph_class_key(automaton, source))

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
    node_one_class = automaton.class_of[automaton.node_one]
    for cid in range(automaton.n_classes):
        shape = "doublecircle" if cid == node_one_class else "circle"
        size = len(automaton.class_members[cid])
        lines.append(
            f'  C{cid} [shape={shape}, label="class {cid}\\n{size} nodes"];'
        )
    for (c1, c2), count in sorted(automaton.quotient_edges.items()):
        lines.append(f'  C{c1} -> C{c2} [color=black, label="{count}"];')
    # one green identification arrow per class with a nontrivial stabilizer
    for cid, stab in enumerate(automaton.rep_stabilizer):
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
        "nodes": len(automaton.nodes),
        "fold_edges": automaton.n_fold_edges,
        "classes": automaton.n_classes,
        "class_sizes": sorted(len(m) for m in automaton.class_members),
        "scc_sizes": sorted(len(s) for s in automaton.sccs),
        "loop_scc_count": len(automaton.loop_sccs()),
        "reference_class": automaton.class_of[automaton.node_one],
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
