"""Map documents for the certify_batch workload, built without the package.

Maps live on the rank-3 single-fold graph (three vertices, five edges).  A
map is a pair ``(vertex_map, images)`` where ``images[i]`` is the tight
image path of edge ``i + 1`` as signed 1-based directions.  The benchmark
composes and relabels maps with its own code, so the inputs do not depend on
the program under test.

The batch is a fixed pool of words in the reference map ``g`` and the
graph's automorphisms; the seed picks an isomorphic presentation of every
word (edge order, edge orientations, vertex order) and the document order.
Verdicts are invariant under isomorphism, so each document's expected
verdict is the pool word's recorded verdict, whatever the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random

EDGE_NAMES = ("a", "b", "c", "d", "e")
VERTEX_NAMES = ("v0", "v1", "v2")
ENDS = ((1, 2), (0, 2), (2, 0), (0, 1), (0, 1))

# a -> ~b, b -> ~d, c -> e, d -> ~e ~c, e -> a
REFERENCE = ((1, 2, 0), ((-2,), (-4,), (5,), (-5, -3), (1,)))

POOL_SEED = 20240506
POOL_SIZE = 120
WORD_LENGTHS = (1, 2, 3, 4)


def _image(m, d: int) -> tuple[int, ...]:
    img = m[1][abs(d) - 1]
    return img if d > 0 else tuple(-x for x in reversed(img))


def _reduce(path) -> tuple[int, ...]:
    out: list[int] = []
    for d in path:
        if out and out[-1] == -d:
            out.pop()
        else:
            out.append(d)
    return tuple(out)


def compose(outer, inner):
    """``outer`` after ``inner``, images freely reduced."""
    images = tuple(
        _reduce(itertools.chain.from_iterable(_image(outer, d) for d in img))
        for img in inner[1]
    )
    if not all(images):
        raise ValueError("composite collapses an edge")
    return tuple(outer[0][v] for v in inner[0]), images


def automorphisms(ends=ENDS) -> list[tuple[int, ...]]:
    """Signed edge permutations of the graph that some vertex bijection
    carries along, found by trying all 2^n n! of them; sorted."""
    n = len(ends)
    found = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            sigma = tuple(s * p for s, p in zip(signs, perm))
            phi: dict[int, int] = {}
            ok = True
            for i, s in enumerate(sigma):
                tu, tv = ends[abs(s) - 1]
                if s < 0:
                    tu, tv = tv, tu
                u, v = ends[i]
                if phi.setdefault(u, tu) != tu or phi.setdefault(v, tv) != tv:
                    ok = False
                    break
            if ok and len(set(phi.values())) == len(phi):
                found.append(sigma)
    return sorted(found)


def automorphism_map(sigma, ends=ENDS):
    phi = {}
    for i, s in enumerate(sigma):
        tu, tv = ends[abs(s) - 1]
        if s < 0:
            tu, tv = tv, tu
        phi[ends[i][0]] = tu
        phi[ends[i][1]] = tv
    return tuple(phi[v] for v in range(len(phi))), tuple((s,) for s in sigma)


def pool_words() -> list[tuple[int, ...]]:
    """The fixed word pool: letter 0 is ``g``, letter k > 0 the k-th
    automorphism in sorted order.  Every word holds ``g`` at least once."""
    rng = random.Random(POOL_SEED)
    words = []
    while len(words) < POOL_SIZE:
        word = tuple(rng.randrange(9) for _ in range(rng.choice(WORD_LENGTHS)))
        if 0 in word:
            words.append(word)
    return words


def word_map(word, autos):
    m = None
    for letter in word:
        f = REFERENCE if letter == 0 else automorphism_map(autos[letter - 1])
        m = f if m is None else compose(m, f)
    return m


def present(m, rng: random.Random):
    """A random isomorphic copy of a map: ``(ends, images)`` after
    reordering edges, flipping orientations and permuting vertices (the
    vertex map follows from the images)."""
    n = len(ENDS)
    order = list(range(n))
    rng.shuffle(order)  # new edge k is old edge order[k]
    flips = [rng.choice((1, -1)) for _ in range(n)]
    vperm = list(range(len(VERTEX_NAMES)))
    rng.shuffle(vperm)  # old vertex v becomes vperm[v]
    new_dir = {}
    for k, old in enumerate(order):
        new_dir[old + 1] = flips[k] * (k + 1)
        new_dir[-(old + 1)] = -flips[k] * (k + 1)
    ends = []
    images = []
    for k, old in enumerate(order):
        u, v = ENDS[old]
        ends.append((vperm[u], vperm[v]) if flips[k] > 0 else (vperm[v], vperm[u]))
        images.append(tuple(new_dir[d] for d in _image(m, flips[k] * (old + 1))))
    return tuple(ends), tuple(images)


def _name(d: int) -> str:
    return EDGE_NAMES[abs(d) - 1] if d > 0 else "~" + EDGE_NAMES[abs(d) - 1]


def document(ends, images) -> str:
    lines = ["vertices " + " ".join(VERTEX_NAMES)]
    for name, (u, v) in zip(EDGE_NAMES, ends):
        lines.append(f"edge {name} = {VERTEX_NAMES[u]} -> {VERTEX_NAMES[v]}")
    lines += ["", "map"]
    for name, img in zip(EDGE_NAMES, images):
        lines.append(f"{name} -> " + " ".join(_name(d) for d in img))
    return "\n".join(lines) + "\n"


def pool_documents() -> list[str]:
    autos = automorphisms()
    return [document(ENDS, word_map(w, autos)[1]) for w in pool_words()]


def batch(seed: int) -> list[tuple[int, str]]:
    """``(pool index, document)`` pairs in seeded order, each word in a seeded
    presentation."""
    autos = automorphisms()
    rng = random.Random(seed)
    docs = []
    for i, word in enumerate(pool_words()):
        ends, images = present(word_map(word, autos), rng)
        docs.append((i, document(ends, images)))
    rng.shuffle(docs)
    return docs


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
