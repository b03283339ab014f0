"""Connectivity, strongly connected components and reachability.

This module is the package's one home for these graph searches: the
undirected components of oriented graphs, Whitehead graphs and edge lists;
the strongly connected components of transition-matrix digraphs and of the
automaton's class quotient; and reachability between those components.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable


def connected_components(
    vertices: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> list[set]:
    """Components of the undirected graph on ``vertices`` with the given
    edge pairs (loops and parallel edges allowed), as vertex sets ordered by
    their first vertex in ``vertices``."""
    adjacency: dict = {v: [] for v in vertices}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen: set = set()
    components = []
    for start in adjacency:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            for w in adjacency[frontier.pop()]:
                if w not in component:
                    component.add(w)
                    frontier.append(w)
        seen |= component
        components.append(component)
    return components


def strongly_connected_components(n: int, edges: dict[int, list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(edges.get(w, ()))))
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:  # every successor of v is done, so v is finished
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)
    return components


def carries_cycle(component: list[int], edges: dict[int, list[int]]) -> bool:
    """Whether a strongly connected component contains a directed cycle:
    it has more than one vertex, or its one vertex has a self-loop."""
    return len(component) > 1 or component[0] in edges.get(component[0], ())


def condensation_reachability(
    n: int, edges: dict[int, list[int]], components: list[list[int]]
) -> tuple[list[int], list[set[int]]]:
    """Per-vertex component index and, per component, the set of reachable
    components (including itself)."""
    comp_of = [0] * n
    for ci, comp in enumerate(components):
        for v in comp:
            comp_of[v] = ci
    reach: list[set[int]] = []
    # Tarjan emits components in reverse topological order, so successors of
    # component i have smaller indices and their closures are already final.
    # A component already in ``acc`` brought its whole closure with it.
    for ci, comp in enumerate(components):
        acc = {ci}
        for v in comp:
            for w in edges.get(v, ()):
                if comp_of[w] not in acc:
                    acc |= reach[comp_of[w]]
        reach.append(acc)
    return comp_of, reach
