"""Exact transition-matrix arithmetic and Perron-number certification.

Matrices hold arbitrary-precision Python integers; characteristic polynomials
are computed exactly by cofactor expansion over Z[x].  The dominant real root
is isolated by sign-change bisection with exact rational evaluation, while the
full complex root set (needed for Perron checks) comes from a floating-point
global solver, re-polished at high precision when the modulus gap is tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import sympy
from mpmath.libmp import NoConvergence

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

    def __call__(self, x: Fraction | int) -> Fraction | int:
        acc: Fraction | int = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

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

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(tuple(zip(*self.rows)))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        n = self.dimension
        cols = other.transpose().rows
        return IntegerMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def power(self, k: int) -> "IntegerMatrix":
        if k < 1:
            raise GraphStructureError("matrix power must be >= 1")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result @ base
            base = base @ base
            k >>= 1
        assert result is not None
        return result

    def is_positive(self) -> bool:
        return all(x > 0 for row in self.rows for x in row)

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.dimension))

    def adjacency(self) -> dict[int, list[int]]:
        """The digraph of positive entries: i -> j when entry (i, j) > 0."""
        return {i: [j for j, x in enumerate(row) if x > 0] for i, row in enumerate(self.rows)}


def identity_matrix(n: int) -> IntegerMatrix:
    return IntegerMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def companion_matrix(p: IntPolynomial) -> IntegerMatrix:
    """Companion matrix whose characteristic polynomial is the monic ``p``."""
    if not p.is_monic():
        raise GraphStructureError("companion matrix needs a monic polynomial")
    n = p.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p.coefficients[i]
    return IntegerMatrix(tuple(tuple(r) for r in rows))


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


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_add(a: tuple[int, ...], b: tuple[int, ...], sign: int) -> tuple[int, ...]:
    m = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0) for i in range(m)
    )


def char_poly(matrix: IntegerMatrix) -> IntPolynomial:
    """det(xI - M), exactly, by cofactor expansion with memoized minors."""
    n = matrix.dimension
    if n == 0:
        return IntPolynomial((1,))
    entries = [
        [
            ((-matrix.rows[i][j], 1) if i == j else (-matrix.rows[i][j],))
            for j in range(n)
        ]
        for i in range(n)
    ]

    @lru_cache(maxsize=None)
    def minor(cols: frozenset[int]) -> tuple[int, ...]:
        row = n - len(cols)
        if not cols:
            return (1,)
        total: tuple[int, ...] = (0,)
        for k, j in enumerate(sorted(cols)):
            term = _poly_mul(entries[row][j], minor(cols - {j}))
            total = _poly_add(total, term, 1 if k % 2 == 0 else -1)
        return total

    coeffs = minor(frozenset(range(n)))
    coeffs = coeffs[: n + 1] + (0,) * (n + 1 - len(coeffs))
    return IntPolynomial(tuple(coeffs))


# -- root isolation ---------------------------------------------------------


def largest_real_root_interval(
    p: IntPolynomial, width: Fraction = Fraction(1, 10**12)
) -> tuple[Fraction, Fraction]:
    """Bisect the largest real root down to an interval of the given width.

    The polynomial is reduced to its square-free part (repeated roots would
    not change sign), the root is localized in floating point strictly above
    every other real root, and the bracket is then refined by exact rational
    sign evaluations.
    """
    p = _square_free_part(p)
    if p.degree == 0:
        raise GraphStructureError("polynomial has no real root")
    for dps in (30, 60, 120):
        roots = _all_roots(p, dps=dps)
        real = sorted(r.real for r in roots if abs(r.imag) < 10 ** -(dps // 2))
        if not real:
            raise GraphStructureError("polynomial has no real root")
        approx = real[-1]
        below = real[-2] if len(real) > 1 else approx - 1
        gap = max(approx - below, 10 ** -(dps // 3)) / 2
        lo = Fraction(approx - gap).limit_denominator(10**15)
        hi = Fraction(approx + gap).limit_denominator(10**15)
        sign_hi = 1 if p(hi) > 0 else -1
        val_lo = p(lo)
        if val_lo == 0:
            lo -= Fraction(1, 10**12)
            val_lo = p(lo)
        if val_lo * sign_hi < 0:
            break
    else:
        raise GraphStructureError("failed to bracket the largest real root")
    while hi - lo > width:
        mid = (lo + hi) / 2
        val = p(mid)
        if val == 0:
            eps = width / 4
            return (mid - eps, mid + eps)
        if (1 if val > 0 else -1) == sign_hi:
            hi = mid
        else:
            lo = mid
    return (lo, hi)


def _square_free_part(p: IntPolynomial) -> IntPolynomial:
    x = sympy.Symbol("x")
    sqf = sympy.Poly(sympy.sqf_part(sympy.Poly(list(reversed(p.coefficients)), x)), x)
    coeffs = [int(c) for c in reversed(sqf.all_coeffs())]
    return IntPolynomial(tuple(coeffs))


class RootIsolationError(ArithmeticError):
    """The numerical root finder did not converge, so no spectral verdict
    could be reached.  Deliberately not a ``GraphStructureError``: callers
    that treat those as a negative answer must not swallow it."""


def _all_roots(p: IntPolynomial, dps: int = 30) -> list[complex]:
    """Distinct roots of ``p`` (square-free reduced first, so repeated roots
    do not stall the solver).  Raises ``RootIsolationError`` when the solver
    does not converge."""
    p = _square_free_part(p)
    with mpmath.workdps(dps):
        try:
            roots = mpmath.polyroots(
                [mpmath.mpf(c) for c in reversed(p.coefficients)], maxsteps=200, extraprec=120
            )
        except NoConvergence as exc:
            raise RootIsolationError(
                f"root finder did not converge on {p.pretty()} at {dps} digits"
            ) from exc
        return [complex(r) for r in roots]


@dataclass(frozen=True)
class PerronCheck:
    is_perron: bool
    dominant_root: float
    modulus_gap: float
    exact_tie: bool


def is_perron_number(p: IntPolynomial) -> PerronCheck:
    """Whether the largest real root strictly dominates all other root moduli.

    Roots are located to ~1e-9; a modulus gap under 1e-6 triggers an exact
    factor-based tie check plus a high-precision re-solve, so conjugate ties
    (as for x**2 - 2) are never misread as strict dominance.
    """
    roots = _all_roots(p)
    real = [r.real for r in roots if abs(r.imag) < 1e-9]
    if not real or max(real) <= 0:
        raise GraphStructureError("no positive real root; not a Perron candidate")
    lam = max(real)
    others = sorted((abs(r) for r in roots), reverse=True)
    others.remove(max(others))  # drop one copy of the dominant modulus
    gap = lam - others[0] if others else float("inf")
    if gap > 1e-6:
        return PerronCheck(True, lam, gap, exact_tie=False)
    # Exact symmetric-tie detection: a common factor of p(x) and +/-p(-x)
    # pairs the dominant root with a conjugate of equal modulus.
    x = sympy.Symbol("x")
    px = sympy.Poly(list(reversed(p.coefficients)), x)
    pneg = sympy.Poly(px.as_expr().subs(x, -x), x)
    tie = sympy.gcd(px, pneg).degree() > 0
    if tie:
        return PerronCheck(False, lam, gap, exact_tie=True)
    refined = _all_roots(p, dps=60)
    lam2 = max(r.real for r in refined if abs(r.imag) < 1e-30)
    moduli = sorted((abs(r) for r in refined), reverse=True)
    moduli.remove(max(moduli))
    gap2 = lam2 - moduli[0] if moduli else float("inf")
    return PerronCheck(gap2 > 1e-30, lam2, gap2, exact_tie=False)


def minimal_polynomial_degree(p: IntPolynomial, root_interval: tuple[Fraction, Fraction]) -> int:
    """Degree of the irreducible factor of ``p`` vanishing on the interval."""
    x = sympy.Symbol("x")
    px = sympy.Poly(list(reversed(p.coefficients)), x)
    lo, hi = root_interval
    for factor, _mult in px.factor_list()[1]:
        flo = factor.eval(sympy.Rational(lo.numerator, lo.denominator))
        fhi = factor.eval(sympy.Rational(hi.numerator, hi.denominator))
        if flo == 0 or fhi == 0 or (flo > 0) != (fhi > 0):
            return factor.degree()
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


def first_positive_power(matrix: IntegerMatrix, bound: int | None = None) -> int | None:
    """Least k with M**k strictly positive, or None up to the primitivity
    bound (n-1)**2 + 1."""
    n = matrix.dimension
    if bound is None:
        bound = (n - 1) ** 2 + 1
    acc = matrix
    for k in range(1, bound + 1):
        if acc.is_positive():
            return k
        if k < bound:
            acc = acc @ matrix
    return None


@dataclass(frozen=True)
class SpectralReport:
    matrix: IntegerMatrix
    characteristic_polynomial: IntPolynomial
    dominant_root: tuple[Fraction, Fraction]
    irreducible: bool
    primitive: bool
    perron_frobenius: bool
    perron_number: PerronCheck | None
    minimal_polynomial_degree: int
    trace: int
    positive_power: int | None

    @property
    def dominant_root_float(self) -> float:
        lo, hi = self.dominant_root
        return float((lo + hi) / 2)


def classify_matrix(matrix: IntegerMatrix) -> SpectralReport:
    """Irreducibility, primitivity, PF property, and the dominant root.

    Primitivity is decided by powering up to (n-1)**2 + 1; for nonnegative
    integer matrices the PF property (all powers beyond some N positive) is
    equivalent to primitivity, and both flags are reported.
    """
    if not matrix.is_nonnegative():
        raise GraphStructureError("classification requires nonnegative entries")
    p = char_poly(matrix)
    root = largest_real_root_interval(p)
    irred = is_irreducible(matrix)
    k = first_positive_power(matrix)
    primitive = k is not None
    perron = None
    lo, _hi = root
    if lo > 0:
        try:
            perron = is_perron_number(p)
        except GraphStructureError:
            perron = None
    return SpectralReport(
        matrix=matrix,
        characteristic_polynomial=p,
        dominant_root=root,
        irreducible=irred,
        primitive=primitive,
        perron_frobenius=primitive,
        perron_number=perron,
        minimal_polynomial_degree=minimal_polynomial_degree(p, root),
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
        check = is_perron_number(poly)
        if not check.is_perron:
            raise GraphStructureError(f"table entry of degree {degree} failed verification")
        lo, hi = largest_real_root_interval(poly, Fraction(1, 10**9))
        if abs(float((lo + hi) / 2) - approx) > 1e-3:
            raise GraphStructureError(f"table entry of degree {degree} drifted from {approx}")
        entries.append(PerronTableEntry(degree, poly, approx, rank))
    return tuple(entries)
