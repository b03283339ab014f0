"""Plain-text documents describing a graph self-map.

Format::

    vertices v0 v1 v2
    edge a = v1 -> v2
    edge b = v0 -> v2

    map
    a -> ~b
    b -> a a

Path tokens are edge names, prefixed with ``~`` for reversal and separated by
whitespace.  Lines starting with ``#`` and blank lines are ignored.
"""

from __future__ import annotations

import re

from .graphs import GraphMap, GraphStructureError, OrientedGraph, check_path


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _column(raw: str, k: int) -> int:
    """The 1-based column of the k-th whitespace-separated token of ``raw``."""
    return [m.start() + 1 for m in re.finditer(r"\S+", raw)][k]


def _check_name(kind: str, parts: list[str], k: int, raw: str, lineno: int) -> None:
    if parts[k] in ("->", "="):
        raise ParseError(f"{kind} name {parts[k]!r} is document syntax", lineno, _column(raw, k))


def parse_map_document(text: str) -> GraphMap:
    """Parse a self-map document; errors carry line and column."""
    vertices: list[str] = []
    vertices_line = 1
    edges: list[tuple[str, str, str, int]] = []
    images: dict[str, tuple[str, ...]] = {}
    image_lines: dict[str, int] = {}
    image_raw: dict[str, str] = {}
    in_map = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not in_map:
            if parts[0] == "vertices":
                if vertices:
                    raise ParseError("duplicate vertices line", lineno)
                if len(parts) < 2:
                    raise ParseError("vertices line needs at least one name", lineno)
                vertices = parts[1:]
                vertices_line = lineno
                for k, name in enumerate(vertices):
                    _check_name("vertex", parts, k + 1, raw, lineno)
                    if name in vertices[:k]:
                        raise ParseError(f"duplicate vertex {name!r}", lineno)
            elif parts[0] == "edge":
                if len(parts) != 6 or parts[2] != "=" or parts[4] != "->":
                    raise ParseError("expected: edge NAME = V -> W", lineno)
                _check_name("edge", parts, 1, raw, lineno)
                if parts[1].startswith("~"):
                    raise ParseError(
                        f"edge name {parts[1]!r} begins with '~'", lineno, _column(raw, 1)
                    )
                if any(parts[1] == name for name, _, _, _ in edges):
                    raise ParseError(f"duplicate edge {parts[1]!r}", lineno)
                edges.append((parts[1], parts[3], parts[5], lineno))
            elif parts[0] == "map":
                if len(parts) > 1:
                    raise ParseError(
                        f"unexpected {parts[1]!r} after 'map'", lineno, _column(raw, 1)
                    )
                in_map = True
            else:
                raise ParseError(f"unexpected directive {parts[0]!r}", lineno, _column(raw, 0))
        else:
            if len(parts) < 3 or parts[1] != "->":
                raise ParseError("expected: EDGE -> PATH", lineno)
            name = parts[0]
            if name in images:
                raise ParseError(f"duplicate image for edge {name!r}", lineno)
            images[name] = tuple(parts[2:])
            image_lines[name] = lineno
            image_raw[name] = raw

    if not vertices:
        raise ParseError("missing vertices line", 1)
    if not in_map:
        raise ParseError("missing map section", len(text.splitlines()) or 1)

    vindex = {name: i for i, name in enumerate(vertices)}
    for name, u, w, lineno in edges:
        for v in (u, w):
            if v not in vindex:
                raise ParseError(f"undeclared vertex {v!r} on edge {name!r}", lineno)
    graph = OrientedGraph(
        vertex_names=tuple(vertices),
        edge_names=tuple(name for name, _, _, _ in edges),
        ends=tuple((vindex[u], vindex[w]) for _, u, w, _ in edges),
    )

    edge_names = set(graph.edge_names)
    missing = [(name, lineno) for name, _, _, lineno in edges if name not in images]
    if missing:
        raise ParseError(f"missing image for edge {missing[0][0]!r}", missing[0][1])
    extra = [n for n in images if n not in edge_names]
    if extra:
        raise ParseError(f"image for undeclared edge {extra[0]!r}", image_lines[extra[0]])

    dir_images = []
    for name in graph.edge_names:
        dirs = []
        for k, token in enumerate(images[name], start=2):
            stem = token[1:] if token.startswith("~") else token
            if stem not in edge_names:
                raise ParseError(
                    f"undeclared edge {stem or token!r} in image of {name!r}",
                    image_lines[name],
                    _column(image_raw[name], k),
                )
            dirs.append(graph.direction_of(token))
        try:
            check_path(graph, tuple(dirs))
        except GraphStructureError as exc:
            raise ParseError(f"{exc} in image of {name!r}", image_lines[name]) from exc
        dir_images.append(tuple(dirs))

    # The vertex map is forced by the images: each vertex must go where the
    # images of its outgoing directions start.
    vmap: dict[int, int] = {}
    for i, dirs in enumerate(dir_images):
        u, w = graph.ends[i]
        constraints = ((u, graph.initial_vertex(dirs[0])), (w, graph.terminal_vertex(dirs[-1])))
        for vertex, image in constraints:
            if vmap.setdefault(vertex, image) != image:
                raise ParseError(
                    f"endpoint mismatch in image of {graph.edge_names[i]!r}",
                    image_lines[graph.edge_names[i]],
                )
    for v in range(graph.n_vertices):
        if v not in vmap:
            raise ParseError(f"vertex {vertices[v]!r} is isolated", vertices_line)
    if not graph.is_connected():
        raise ParseError("graph is not connected", vertices_line)

    try:
        return GraphMap(
            source=graph,
            target=graph,
            vertex_map=tuple(vmap[v] for v in range(graph.n_vertices)),
            edge_images=tuple(dir_images),
        )
    except GraphStructureError as exc:
        raise ParseError(str(exc), 1) from exc
