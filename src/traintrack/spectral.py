"""Exact transition-matrix arithmetic and Perron-number certification.

Matrices and polynomials hold arbitrary-precision Python integers, and no
floating-point number decides anything here.  Characteristic polynomials
come from the power sums tr(M^k) through Newton's identities.  Square-free
parts and Yun's square-free decomposition rest on an integer gcd: the
heuristic gcd of Char, Geddes and Gonnet, whose result is checked by exact
division, with the primitive remainder sequence behind it.  Real roots are
isolated by Descartes-rule bisection (Collins and Akritas, 1976), and the
largest one is narrowed, once per polynomial, by sign-change bisection,
where the sign at n/d is that of the integer sum of c_k n^k d^(deg-k).
Perron dominance is read off the polynomial S whose roots are the pairwise
products of the roots: at a top root 1 from the square-free part alone (the
constant-term step of Kronecker's theorem), else from one sign variation of
S shifted to just below the top root squared (Descartes' rule of signs),
else from the real roots of S.  Primitivity is read off the zero patterns of
the powers, up to the first all-positive or repeated one.  sympy is imported
only to factor over Z, for the minimal-polynomial degree that ``certify
--json`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm

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


# -- integer polynomial arithmetic (coefficient lists, lowest degree first) -


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _derivative(f: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(f)][1:]


def _evaluate(f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _primitive(f: list[int]) -> list[int]:
    """f over the gcd of its coefficients, with a positive leading one."""
    content = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [c // content for c in f]


def _divide(f: list[int], g: list[int]) -> tuple[list[int], list[int]] | None:
    """Long division of f by g in Z[x]: (quotient, remainder), or None when
    a step leaves Z."""
    rest = list(f)
    quotient = [0] * max(len(f) - len(g) + 1, 0)
    for k in reversed(range(len(quotient))):
        c, r = divmod(rest[k + len(g) - 1], g[-1])
        if r:
            return None
        quotient[k] = c
        for i, b in enumerate(g):
            rest[k + i] -= c * b
    return quotient, _trim(rest)


def _divide_exact(f: list[int], g: list[int]) -> list[int] | None:
    """The quotient f / g when g divides f in Z[x], else None."""
    division = _divide(f, g)
    return division[0] if division and not division[1] else None


def _heuristic_gcd(f: list[int], g: list[int]) -> list[int] | None:
    """GCDHEU (Char, Geddes and Gonnet, 1989) on primitive f and g: the
    integer gcd of f(ξ) and g(ξ), read back in balanced base ξ.  Since
    ξ > 2·min(|f|, |g|) + 1, a reading that divides both is their gcd;
    None when six choices of ξ give no such reading."""
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for _ in range(6):
        h = gcd(_evaluate(f, xi), _evaluate(g, xi))
        digits = []
        while h:
            digit = h % xi
            if digit > xi // 2:
                digit -= xi
            digits.append(digit)
            h = (h - digit) // xi
        candidate = _primitive(digits)
        if len(candidate) == 1 or (
            _divide_exact(f, candidate) is not None and _divide_exact(g, candidate) is not None
        ):
            return candidate
        xi = xi * 73794 // 27011
    return None


def _remainder_gcd(f: list[int], g: list[int]) -> list[int]:
    """The primitive remainder sequence of primitive f and g, deg f >= deg g:
    each pseudo-remainder lc(g)^(deg f - deg g + 1)·f mod g, made primitive."""
    while len(g) > 1:
        _, rest = _divide([c * g[-1] ** (len(f) - len(g) + 1) for c in f], g)
        if not rest:
            return g
        f, g = g, _primitive(rest)
    return [1]


def _gcd(f: list[int], g: list[int]) -> list[int]:
    """The primitive gcd, with a positive leading coefficient, of nonzero
    f and g."""
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    if len(g) == 1:
        return [1]
    return _heuristic_gcd(f, g) or _remainder_gcd(f, g)


def _square_free_factors(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's square-free decomposition: pairwise coprime square-free
    nonconstant f_k with f = c·∏ f_k^k, as (f_k, k)."""
    factors = []
    df = _derivative(f)
    g = _gcd(f, df)
    b, c = _divide_exact(f, g), _divide_exact(df, g)
    k = 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        a = _gcd(b, d) if d else _primitive(b)
        if len(a) > 1:
            factors.append((a, k))
        b, c = _divide_exact(b, a), _divide_exact(d, a) if d else []
        k += 1
    return factors


# -- characteristic polynomial ---------------------------------------------


def _from_power_sums(sums: list[int]) -> IntPolynomial:
    """The monic polynomial of degree m = len(sums) - 1 whose roots have
    power sums sums[1..m], by Newton's identities."""
    b = [1]  # b[i] multiplies x^(m-i)
    for k in range(1, len(sums)):
        acc = sums[k] + sum(b[i] * sums[k - i] for i in range(1, k))
        assert acc % k == 0, "power sums must give integer coefficients"
        b.append(-acc // k)
    return IntPolynomial(tuple(reversed(b)))


def char_poly(matrix: IntegerMatrix) -> IntPolynomial:
    """det(xI - M), exactly: Newton's identities on the power sums tr(M^k),
    k <= n.  Row i of M^k is the combination of the rows of M^(k-1) that
    the nonzero entries of row i of M select."""
    n = matrix.dimension
    terms = [[(j, x) for j, x in enumerate(row) if x] for row in matrix.rows]
    power = [list(row) for row in matrix.rows]
    sums = [n]
    for k in range(1, n + 1):
        sums.append(sum(power[i][i] for i in range(n)))
        if k < n:
            rows = []
            for row_terms in terms:
                acc = [0] * n
                for j, x in row_terms:
                    acc = [a + x * b for a, b in zip(acc, power[j])]
                rows.append(acc)
            power = rows
    return _from_power_sums(sums)


# -- root isolation ---------------------------------------------------------


_NARROW = Fraction(1, 10**12)
Interval = tuple[Fraction, Fraction]


def _taylor_shift(f: list[int], t: int = 1) -> list[int]:
    """The coefficients of f(x + t)."""
    f = list(f)
    for i in range(len(f) - 1):
        for j in range(len(f) - 2, i - 1, -1):
            f[j] += t * f[j + 1]
    return f


def _shift(f: list[int], a: Fraction, scale: int) -> list[int]:
    """The coefficients of scale^deg·f(a + x / scale), for an integer
    scale·a: a positive multiple of f(x + a) with x scaled by a positive
    factor, so its positive roots are those of f above a, scaled."""
    d = len(f) - 1
    return _taylor_shift([c * scale ** (d - k) for k, c in enumerate(f)], int(a * scale))


def _sign_variations(f: list[int]) -> int:
    """The sign changes along the nonzero coefficients of f.  By Descartes'
    rule of signs it exceeds the number of positive roots of f, counted
    with multiplicity, by an even number."""
    signs = [c > 0 for c in f if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations(f: list[int]) -> int:
    """Descartes' bound on the roots of f in (0, 1): the sign variations of
    (x + 1)^deg f(1 / (x + 1)).  It exceeds the number of roots by an even
    number, and does not grow when the interval is split."""
    return _sign_variations(_taylor_shift(f[::-1]))


def _halves(f: list[int]) -> tuple[list[int], list[int]]:
    """Multiples of f(x / 2) and f((x + 1) / 2): f on the halves of (0, 1)."""
    d = len(f) - 1
    left = [c << (d - k) for k, c in enumerate(f)]
    return left, _taylor_shift(left)


def _real_roots(f: list[int], a: Fraction, w: Fraction):
    """Isolate the real roots of the square-free f in (a, a + w), largest
    first, by Descartes-rule bisection (Collins and Akritas, 1976).  Each
    is yielded as (r, r, None) at a rational root r met as a midpoint, or
    as (lo, hi, u) where u(x) is a multiple of f(lo + (hi - lo)·x) with
    exactly one root in (0, 1).  An endpoint may be a root of f."""
    scale = lcm(a.denominator, w.denominator)
    shifted = _shift(f, a, scale)
    w_scaled = int(w * scale)
    stack = [(a, w, [c * w_scaled**k for k, c in enumerate(shifted)])]
    while stack:
        lo, width, u = stack.pop()
        if u is None:
            yield lo, lo, None
            continue
        v = _variations(u)
        if v == 1:
            yield lo, lo + width, u
        elif v > 1:
            left, right = _halves(u)
            mid, width = lo + width / 2, width / 2
            stack.append((lo, width, left))
            if right[0] == 0:
                stack.append((mid, width, None))
            stack.append((mid, width, right))


def _refine(lo: Fraction, hi: Fraction, u: list[int] | None):
    """Halve an interval from ``_real_roots`` around its root."""
    if u is None:
        return lo, hi, u
    left, right = _halves(u)
    mid = (lo + hi) / 2
    if right[0] == 0:
        return mid, mid, None
    return (lo, mid, left) if _variations(left) else (mid, hi, right)


def _root_bound(f: list[int]) -> int:
    """A power of two above the modulus of every root (Cauchy's bound)."""
    bound = 1 - max(map(abs, f[:-1]), default=0) // -abs(f[-1])
    return 1 << (bound - 1).bit_length()


@lru_cache(maxsize=1024)
def _root_bracket(coefficients: tuple[int, ...]) -> tuple[IntPolynomial, Interval, Interval]:
    """The square-free part q of the polynomial (repeated roots would not
    change sign), the dyadic isolating interval of its largest real root,
    and that interval bisected to at most 1e-12 wide.  The isolating
    interval is open, or a single point at a rational root; an open interval
    may end at a smaller rational root."""
    f = list(coefficients)
    df = _derivative(f)
    q = _primitive(_divide_exact(f, _gcd(f, df)) if df else f)
    bound = _root_bound(q)
    for lo, hi, _ in _real_roots(q, Fraction(-bound), Fraction(2 * bound)):
        q_poly = IntPolynomial(tuple(q))
        return q_poly, (lo, hi), _bisect(q_poly, lo, hi, _NARROW)
    raise GraphStructureError("polynomial has no real root")


def _bisect(q: IntPolynomial, lo: Fraction, hi: Fraction, width: Fraction) -> Interval:
    """Halve an isolating interval of a simple root of ``q`` by exact sign
    evaluation until it is at most ``width`` wide and ``lo`` is not a root.
    A rational root hit exactly comes back as the point interval (r, r).

    The ends are dyadic, as ``_real_roots`` makes them, so they are held as
    integers a, b over one denominator 2^k, and the sign of q at m / 2^k is
    that of the integer sum of c_j m^j 2^(k(deg - j)), by Horner's rule."""
    k = max(lo.denominator, hi.denominator).bit_length() - 1
    a, b = lo * (1 << k), hi * (1 << k)
    if a.denominator != 1 or b.denominator != 1:
        raise GraphStructureError("bisection needs dyadic interval ends")
    a, b = a.numerator, b.numerator
    width_num, width_den = width.as_integer_ratio()
    top, rest = q.coefficients[-1], q.coefficients[-2::-1]

    def sign(m: int) -> int:
        acc = top
        for j, c in enumerate(rest, 1):
            acc = acc * m + (c << (k * j))
        return (acc > 0) - (acc < 0)

    sign_hi = sign(b) > 0
    lo_is_root = sign(a) == 0
    while lo_is_root or (b - a) * width_den > width_num << k:
        mid, a, b, k = a + b, a << 1, b << 1, k + 1
        s = sign(mid)
        if s == 0:
            return Fraction(mid, 1 << k), Fraction(mid, 1 << k)
        if (s > 0) == sign_hi:
            b = mid
        else:
            a, lo_is_root = mid, False
    return Fraction(a, 1 << k), Fraction(b, 1 << k)


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
    return _from_power_sums([m] + [(s[k] * s[k] + s[2 * k]) // 2 for k in range(1, m + 1)])


def is_perron_number(p: IntPolynomial) -> bool:
    """Whether the largest real root λ > 0 of ``p`` strictly dominates the
    modulus of every other root, decided in exact arithmetic.

    Let q be the square-free part of ``p`` (it must be monic) and S its
    symmetric square, whose roots are z_i·z_j for i <= j.  Then λ dominates
    strictly iff λ² is a simple root of S and no real root of S exceeds λ².
    If some root z ≠ λ has |z| >= λ, then z̄ is a root too, and z·z̄ = |z|²
    >= λ² comes from a pair other than (λ, λ); conversely every other pair
    has a product of modulus below λ².

    Two certificates decide before any root of S is isolated.

    - λ = 1, when λ's bracket is the point 1: λ dominates iff q is x - 1 or
      x² - x.  If it dominates, r = q / (x - 1) is monic over Z with its
      roots in the open unit disk, so |r(0)|, the product of their moduli,
      is an integer below 1: r(0) = 0.  As q is square-free, s = r / x is
      monic over Z with its roots in the open unit disk but not at 0, so
      s(0) is a nonzero integer, of modulus below 1 if s has a root: s = 1.
      This is the constant-term step of Kronecker's 1857 theorem on monic
      integer polynomials with roots in the unit disk.  Conversely the only
      other root of x² - x is 0.
    - The Descartes count, once λ's bracket [lo, hi] is open with lo > 0:
      if S(x + lo²) has one sign variation, then S has exactly one root
      above lo², counted with multiplicity (Descartes' rule of signs, as
      Collins and Akritas, 1976, use it).  λ² > lo² is that root, so it is
      simple and no real root exceeds it: λ dominates.

    Otherwise the real roots above lo² of each factor of S's square-free
    decomposition are isolated.  It and every interval meeting [lo², hi²]
    are refined until one interval meets it, which then holds λ²; an
    interval wholly above hi² holds a larger root.  This ends, as the roots
    of coprime factors are distinct.
    """
    q, _, (lo, hi) = _root_bracket(p.coefficients)
    if not q.is_monic():
        raise GraphStructureError("a Perron number is an algebraic integer; p must be monic")
    while lo <= 0 < hi:
        lo, hi = _bisect(q, lo, hi, (hi - lo) / 2)
    if hi <= 0:
        raise GraphStructureError("no positive real root; not a Perron candidate")
    if lo == hi == 1:
        return q.coefficients in ((-1, 1), (0, -1, 1))
    square = list(_symmetric_square(q).coefficients)
    if lo < hi and _sign_variations(_shift(square, lo * lo, (lo * lo).denominator)) == 1:
        return True
    # a start below λ²: lo² when lo < λ, half of λ² when the bracket is the point λ
    start = lo * lo if lo < hi else lo * lo / 2
    roots = [
        [multiplicity, *interval]
        for factor, multiplicity in _square_free_factors(square)
        for interval in _real_roots(factor, start, Fraction(_root_bound(factor)))
    ]
    while True:
        low, high = lo * lo, hi * hi
        meeting = []
        for root in roots:
            _, a, b, u = root
            if a > high or (a == high and u is not None):
                return False
            if b > low or (b == low and u is None):
                meeting.append(root)
        assert meeting, "the symmetric square vanishes at λ²"
        if len(meeting) == 1:
            return meeting[0][0] == 1
        lo, hi = _bisect(q, lo, hi, (hi - lo) / 2)
        for root in meeting:
            root[1:] = _refine(*root[1:])


def minimal_polynomial_degree(p: IntPolynomial, root_interval: Interval) -> int:
    """Degree of the irreducible factor of ``p`` vanishing on the interval.
    sympy factors over Z; only ``certify --json`` asks, so sympy is
    imported here rather than with the package."""
    import sympy

    lo, hi = root_interval
    q = sympy.Poly(list(reversed(_root_bracket(p.coefficients)[0].coefficients)), sympy.Symbol("x"))
    for factor, _mult in q.factor_list()[1]:
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
    """Least k with M**k strictly positive, or None.  Exact for a
    nonnegative M: each row of M**k is the bitmask of its positive entries,
    and row i of M**(k+1) is the union of the rows of M that row i of M**k
    selects; each distinct mask's union is formed once.

    The pattern of M**(k+1) is a function of the pattern of M**k alone, so
    once a pattern repeats the sequence cycles through patterns already
    seen: a repeat before the all-positive pattern proves that no power is
    positive.  Wielandt's 1950 bound (n-1)**2 + 1 on the exponent of a
    primitive matrix limits the loop."""
    n = matrix.dimension
    rows = [sum(1 << j for j, x in enumerate(row) if x > 0) for row in matrix.rows]
    full = (1 << n) - 1
    unions: dict[int, int] = {}
    pattern = tuple(rows)
    seen = set()
    for k in range(1, (n - 1) ** 2 + 2):
        if all(r == full for r in pattern):
            return k
        if pattern in seen:
            return None
        seen.add(pattern)
        for r in pattern:
            if r not in unions:
                union, bits = 0, r
                while bits:
                    low = bits & -bits
                    union |= rows[low.bit_length() - 1]
                    bits ^= low
                unions[r] = union
        pattern = tuple(unions[r] for r in pattern)
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

    Primitivity is read off the zero patterns of M**k by
    ``first_positive_power``, up to the first all-positive pattern, the
    first repeated one (which proves that no power is positive) or
    Wielandt's bound (n-1)**2 + 1; for nonnegative integer matrices the PF
    property (all powers beyond some N positive) is equivalent to
    primitivity, so ``primitive`` reports both.  ``perron_number`` is
    ``is_perron_number``'s exact verdict, by its certificates (a top root
    1, or one Descartes sign variation) or by root isolation, whenever the
    dominant root is positive.
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
