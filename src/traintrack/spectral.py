"""Exact transition-matrix arithmetic and Perron-number certification.

Matrices hold arbitrary-precision Python integers; characteristic polynomials
are computed exactly over Z by sympy's division-free algorithm.  Every root
verdict is exact: sympy isolates the real roots, and the largest one is
narrowed, once per polynomial, by sign-change bisection, where the sign at
n/d is that of the integer sum of c_k n^k d^(deg-k).  Perron dominance is
read off the real roots of the polynomial whose roots are the pairwise
products of the roots.
No floating-point number decides anything here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

import sympy
from sympy.polys.matrices import DomainMatrix

from .digraph import condensation_reachability, strongly_connected_components
from .graphs import GraphMap, GraphStructureError


# -- polynomials (coefficient tuples, lowest degree first) -----------------


@dataclass(frozen=True)
class IntPolynomial:
    """An integer polynomial; ``coefficients[k]`` multiplies x**k."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients or self.coefficients[-1] == 0:
            raise GraphStructureError("polynomial needs a nonzero leading coefficient")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_monic(self) -> bool:
        return self.coefficients[-1] == 1

    def sign(self, x: Fraction) -> int:
        """The sign of the value at x = n/d (d > 0): the sign of the integer
        sum of c_k n^k d^(deg-k), evaluated by Horner's rule."""
        n, d = x.numerator, x.denominator
        acc, d_power = self.coefficients[-1], 1
        for c in self.coefficients[-2::-1]:
            d_power *= d
            acc = acc * n + c * d_power
        return (acc > 0) - (acc < 0)

    def pretty(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if abs(c) == 1 else f"{abs(c)}{xs}"
            terms.append(("- " if c < 0 else "+ ") + body)
        if not terms:
            return "0"
        head = terms[0].replace("+ ", "").replace("- ", "-")
        return " ".join([head] + terms[1:])


# -- integer matrices ------------------------------------------------------


@dataclass(frozen=True)
class IntegerMatrix:
    """A square matrix of arbitrary-precision integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise GraphStructureError("matrix is not square")

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.rows for x in row)

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.dimension))

    def adjacency(self) -> dict[int, list[int]]:
        """The digraph of positive entries: i -> j when entry (i, j) > 0."""
        return {i: [j for j, x in enumerate(row) if x > 0] for i, row in enumerate(self.rows)}


def transition_matrix(g: GraphMap) -> IntegerMatrix:
    """Unsigned edge-occurrence counts: entry (i, j) counts edge j in the
    image of edge i.  (Rows index source edges; some displays elsewhere use
    the transposed convention, which has the same characteristic polynomial.)
    """
    if not g.is_self_map:
        raise GraphStructureError("transition matrix requires a self-map")
    n = g.source.n_edges
    rows = []
    for i in range(n):
        counts = [0] * n
        for d in g.edge_images[i]:
            counts[abs(d) - 1] += 1
        rows.append(tuple(counts))
    return IntegerMatrix(tuple(rows))


# -- characteristic polynomial ---------------------------------------------


def char_poly(matrix: IntegerMatrix) -> IntPolynomial:
    """det(xI - M), exactly: sympy's division-free characteristic polynomial
    over ZZ."""
    n = matrix.dimension
    coefficients = DomainMatrix([list(row) for row in matrix.rows], (n, n), sympy.ZZ).charpoly()
    return IntPolynomial(tuple(int(c) for c in reversed(coefficients)))


# -- root isolation ---------------------------------------------------------


_X = sympy.Symbol("x")


def _to_sympy(p: IntPolynomial) -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coefficients)), _X)


_NARROW = Fraction(1, 10**12)
Interval = tuple[Fraction, Fraction]


@lru_cache(maxsize=1024)
def _root_bracket(coefficients: tuple[int, ...]) -> tuple[IntPolynomial, Interval, Interval]:
    """The square-free part q of the polynomial (repeated roots would not
    change sign), sympy's isolating interval of its largest real root, and
    that interval bisected to at most 1e-12 wide.  The isolating interval is
    open, or a single point at a rational root; an open interval may end at
    a smaller rational root."""
    f = _to_sympy(IntPolynomial(coefficients)).sqf_part()
    intervals = f.intervals()
    if not intervals:
        raise GraphStructureError("polynomial has no real root")
    (lo, hi), _ = intervals[-1]
    q = IntPolynomial(tuple(int(c) for c in reversed(f.all_coeffs())))
    isolating = (Fraction(lo), Fraction(hi))
    return q, isolating, _bisect(q, *isolating, _NARROW)


def _bisect(q: IntPolynomial, lo: Fraction, hi: Fraction, width: Fraction) -> Interval:
    """Halve an isolating interval of a simple root of ``q`` by exact sign
    evaluation until it is at most ``width`` wide and ``lo`` is not a root.
    A rational root hit exactly comes back as the point interval (r, r)."""
    sign_hi = q.sign(hi) > 0
    lo_is_root = q.sign(lo) == 0
    while lo_is_root or hi - lo > width:
        mid = (lo + hi) / 2
        sign = q.sign(mid)
        if sign == 0:
            return mid, mid
        if (sign > 0) == sign_hi:
            hi = mid
        else:
            lo, lo_is_root = mid, False
    return lo, hi


def largest_real_root_interval(p: IntPolynomial, width: Fraction = _NARROW) -> Interval:
    """An interval [lo, hi], at most ``width`` wide, holding the largest real
    root of ``p`` and no other root; no root lies above it.  Either
    p(lo)·p(hi) < 0 on the square-free part, or lo == hi is the root."""
    q, isolating, narrow = _root_bracket(p.coefficients)
    # bisection from the isolating interval passes through the narrowed
    # bracket, so a narrower width resumes from it with the same result
    return _bisect(q, *(narrow if width <= _NARROW else isolating), width)


def _symmetric_square(q: IntPolynomial) -> IntPolynomial:
    """The monic polynomial whose roots are z_i·z_j (i <= j) over the roots
    z of the monic ``q``.  Newton's identities give the power sums s_k of q;
    the products have power sums (s_k² + s_2k)/2, and Newton's identities
    run backwards turn those into coefficients."""
    d = q.degree
    a = [q.coefficients[d - i] for i in range(d + 1)]  # a[i] multiplies x^(d-i)
    m = d * (d + 1) // 2
    s = [d]
    for k in range(1, 2 * m + 1):
        acc = k * a[k] if k <= d else 0
        for i in range(1, min(k - 1, d) + 1):
            acc += a[i] * s[k - i]
        s.append(-acc)
    sums = [0] + [(s[k] * s[k] + s[2 * k]) // 2 for k in range(1, m + 1)]
    b = [1]
    for k in range(1, m + 1):
        acc = sums[k] + sum(b[i] * sums[k - i] for i in range(1, k))
        assert acc % k == 0, "symmetric square must have integer coefficients"
        b.append(-acc // k)
    return IntPolynomial(tuple(reversed(b)))


def is_perron_number(p: IntPolynomial) -> bool:
    """Whether the largest real root λ > 0 of ``p`` strictly dominates the
    modulus of every other root, decided in exact arithmetic.

    Let q be the square-free part of ``p`` (it must be monic) and S its
    symmetric square, whose roots are z_i·z_j for i <= j.  Then λ dominates
    strictly iff λ² is a simple root of S and no real root of S exceeds λ².
    If some root z ≠ λ has |z| >= λ, then z̄ is a root too, and z·z̄ = |z|²
    >= λ² comes from a pair other than (λ, λ); conversely every other pair
    has a product of modulus below λ².

    The real roots of each square-free factor of S are isolated exactly.
    From λ's narrowed bracket [lo, hi], it and every interval meeting
    [lo², hi²] are refined until one interval meets it, which then holds λ²;
    an interval wholly above hi² holds a larger root.  This ends, as the
    roots of coprime factors are distinct.
    """
    q, _, (lo, hi) = _root_bracket(p.coefficients)
    if not q.is_monic():
        raise GraphStructureError("a Perron number is an algebraic integer; p must be monic")
    while lo <= 0 < hi:
        lo, hi = _bisect(q, lo, hi, (hi - lo) / 2)
    if hi <= 0:
        raise GraphStructureError("no positive real root; not a Perron candidate")
    roots = [
        [factor, multiplicity, Fraction(a), Fraction(b)]
        for factor, multiplicity in _to_sympy(_symmetric_square(q)).sqf_list()[1]
        for (a, b), _ in factor.intervals()
    ]
    while True:
        low, high = lo * lo, hi * hi
        meeting = []
        for root in roots:
            if root[2] > high:
                return False
            if root[3] >= low:
                meeting.append(root)
        assert meeting, "the symmetric square vanishes at λ²"
        if len(meeting) == 1:
            return meeting[0][1] == 1
        lo, hi = _bisect(q, lo, hi, (hi - lo) / 2)
        for root in meeting:
            factor, _, a, b = root
            if a < b:
                root[2:] = map(Fraction, factor.refine_root(a, b, steps=1))


def minimal_polynomial_degree(p: IntPolynomial, root_interval: Interval) -> int:
    """Degree of the irreducible factor of ``p`` vanishing on the interval."""
    lo, hi = root_interval
    for factor, _mult in _to_sympy(_root_bracket(p.coefficients)[0]).factor_list()[1]:
        f = IntPolynomial(tuple(int(c) for c in reversed(factor.all_coeffs())))
        flo, fhi = f.sign(lo), f.sign(hi)
        if flo == 0 or fhi == 0 or flo != fhi:
            return f.degree
    raise GraphStructureError("no factor changes sign on the root interval")


# -- matrix classification ---------------------------------------------------


def is_irreducible(matrix: IntegerMatrix) -> bool:
    """Strong connectivity of the positive-entry digraph: every index reaches
    every index, itself included, by a nonempty path.  So a 1x1 matrix is
    irreducible only when its entry is positive."""
    edges = matrix.adjacency()
    components = strongly_connected_components(matrix.dimension, edges)
    return len(components) <= 1 and all(edges.values())


def invariant_edge_set(matrix: IntegerMatrix) -> tuple[int, ...] | None:
    """A nonempty proper index set closed under the digraph, if one exists.

    Witnesses reducibility: rows in the set only reach the set.  The set
    returned is everything reachable from the first index that does not
    reach all indices.
    """
    n = matrix.dimension
    edges = matrix.adjacency()
    components = strongly_connected_components(n, edges)
    comp_of, reach = condensation_reachability(n, edges, components)
    for i in range(n):
        closed = tuple(v for v in range(n) if comp_of[v] in reach[comp_of[i]])
        if len(closed) < n:
            return closed
    return None


def first_positive_power(matrix: IntegerMatrix) -> int | None:
    """Least k with M**k strictly positive, or None up to the primitivity
    bound (n-1)**2 + 1.  Exact for a nonnegative M: each row of M**k is the
    bitmask of its positive entries, and row i of M**(k+1) is the union of
    the rows of M that row i of M**k selects."""
    n = matrix.dimension
    rows = [sum(1 << j for j, x in enumerate(row) if x > 0) for row in matrix.rows]
    full = (1 << n) - 1
    acc = rows
    for k in range(1, (n - 1) ** 2 + 2):
        if all(r == full for r in acc):
            return k
        acc = [reduce(or_, (rows[j] for j in range(n) if r >> j & 1), 0) for r in acc]
    return None


@dataclass(frozen=True)
class SpectralReport:
    matrix: IntegerMatrix
    characteristic_polynomial: IntPolynomial
    dominant_root: tuple[Fraction, Fraction]
    irreducible: bool
    primitive: bool
    perron_number: bool | None
    trace: int
    positive_power: int | None


def classify_matrix(matrix: IntegerMatrix) -> SpectralReport:
    """Irreducibility, primitivity, and the dominant root.

    Primitivity is read off the zero patterns of M**k, k <= (n-1)**2 + 1;
    for nonnegative integer matrices the PF property (all powers beyond some
    N positive) is equivalent to primitivity, so ``primitive`` reports both.
    """
    if not matrix.is_nonnegative():
        raise GraphStructureError("classification requires nonnegative entries")
    p = char_poly(matrix)
    root = largest_real_root_interval(p)
    irred = is_irreducible(matrix)
    k = first_positive_power(matrix)
    return SpectralReport(
        matrix=matrix,
        characteristic_polynomial=p,
        dominant_root=root,
        irreducible=irred,
        primitive=k is not None,
        perron_number=is_perron_number(p) if root[0] > 0 else None,
        trace=matrix.trace(),
        positive_power=k,
    )


def trace_obstruction(p: IntPolynomial, n: int) -> bool:
    """True iff no n-by-n nonnegative matrix has ``p`` as its characteristic
    polynomial because the implied trace is negative."""
    if p.degree != n:
        raise GraphStructureError("degree must match the matrix dimension")
    trace = -p.coefficients[n - 1]
    return trace < 0


# -- the small-Perron-number table -------------------------------------------


@dataclass(frozen=True)
class PerronTableEntry:
    degree: int
    polynomial: IntPolynomial
    approximate_root: float
    rank_within_degree: int


def minimal_perron_table() -> tuple[PerronTableEntry, ...]:
    """Smallest known Perron numbers of degrees 2..5 (plus the degree-5
    runner-up), re-verified on every call.

    These are cited values; the table checks each entry is a Perron number
    whose root matches the recorded approximation, but does not re-derive
    minimality.
    """
    raw = [
        (2, IntPolynomial((-1, -1, 1)), 1.618, 1),
        (3, IntPolynomial((-1, -1, 0, 1)), 1.325, 1),
        (4, IntPolynomial((-1, -1, 0, 0, 1)), 1.221, 1),
        (5, IntPolynomial((-1, -1, -1, 0, 1, 1)), 1.124, 1),
        (5, IntPolynomial((-1, -1, 0, 0, 0, 1)), 1.167, 2),
    ]
    entries = []
    for degree, poly, approx, rank in raw:
        if not is_perron_number(poly):
            raise GraphStructureError(f"table entry of degree {degree} failed verification")
        lo, hi = largest_real_root_interval(poly, Fraction(1, 10**9))
        if abs(float((lo + hi) / 2) - approx) > 1e-3:
            raise GraphStructureError(f"table entry of degree {degree} drifted from {approx}")
        entries.append(PerronTableEntry(degree, poly, approx, rank))
    return tuple(entries)
