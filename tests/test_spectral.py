from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    companion_matrix,
    fraction_bisect,
    identity_map,
    identity_matrix,
    is_positive,
    matmul,
    pool_maps,
    power,
    sympy_char_poly,
    sympy_is_perron_number,
    sympy_poly,
    sympy_root_bracket,
    transpose,
)
from traintrack import spectral
from traintrack.folds import apply_fold
from traintrack.graphs import compose, relabeling
from traintrack.search import build_universe, graph_isomorphisms
from traintrack.spectral import (
    GraphStructureError,
    IntegerMatrix,
    IntPolynomial,
    _bisect,
    _root_bracket,
    char_poly,
    classify_matrix,
    first_positive_power,
    invariant_edge_set,
    is_irreducible,
    is_perron_number,
    largest_real_root_interval,
    minimal_polynomial_degree,
    transition_matrix,
)

Q_POLY = IntPolynomial((-1, -1, 0, 0, 0, 1))  # x^5 - x - 1
RIVAL_POLY = IntPolynomial((-1, -1, -1, 0, 1, 1))  # x^5 + x^4 - x^2 - x - 1

# the reference matrix as displayed columnwise elsewhere; rows index source edges
REFERENCE_MATRIX = (
    (0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 0, 1, 0, 1),
    (1, 0, 0, 0, 0),
)
DISPLAYED_TRANSPOSE = (
    (0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 1, 0),
)


def test_transition_matrix_reference(gmap):
    m = transition_matrix(gmap)
    assert m.rows == REFERENCE_MATRIX
    assert transpose(m).rows == DISPLAYED_TRANSPOSE


def test_transition_matrix_identity(gmap):
    assert transition_matrix(identity_map(gmap.source)) == identity_matrix(5)


def test_transition_matrix_rose(psi):
    assert transition_matrix(psi).rows == ((0, 1, 0), (0, 0, 1), (1, 0, 1))


def test_char_poly_reference(gmap):
    assert char_poly(transition_matrix(gmap)) == Q_POLY


def test_char_poly_identity():
    p = char_poly(identity_matrix(4))
    # (x - 1)^4
    assert p.coefficients == (1, -4, 6, -4, 1)


def test_char_poly_companion():
    assert char_poly(companion_matrix(RIVAL_POLY)) == RIVAL_POLY
    assert char_poly(companion_matrix(Q_POLY)) == Q_POLY


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _poly_add(a, b, sign):
    m = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0) for i in range(m)
    )


def _cofactor_char_poly(matrix):
    """The former ``char_poly``: det(xI - M) by cofactor expansion along the
    rows, with memoized minors."""
    n = matrix.dimension
    entries = [
        [((-matrix.rows[i][j], 1) if i == j else (-matrix.rows[i][j],)) for j in range(n)]
        for i in range(n)
    ]

    @functools.lru_cache(maxsize=None)
    def minor(cols):
        if not cols:
            return (1,)
        row = n - len(cols)
        total = (0,)
        for k, j in enumerate(sorted(cols)):
            term = _poly_mul(entries[row][j], minor(cols - {j}))
            total = _poly_add(total, term, 1 if k % 2 == 0 else -1)
        return total

    coeffs = minor(frozenset(range(n)))
    return IntPolynomial(coeffs[: n + 1] + (0,) * (n + 1 - len(coeffs)))


@st.composite
def _integer_matrices(draw, max_n=7):
    # negative entries too: companion matrices have them
    n = draw(st.integers(0, max_n))
    entry = st.integers(-3, 3)
    return IntegerMatrix(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)))


@settings(max_examples=200, deadline=None)
@given(_integer_matrices())
def test_char_poly_matches_cofactor_expansion(matrix):
    assert char_poly(matrix) == _cofactor_char_poly(matrix)


@settings(max_examples=200, deadline=None)
@given(_integer_matrices(8))
def test_char_poly_matches_sympy(matrix):
    assert char_poly(matrix) == sympy_char_poly(matrix)


def test_char_poly_small_dimensions():
    empty = IntegerMatrix(())
    assert char_poly(empty) == _cofactor_char_poly(empty) == IntPolynomial((1,))
    for x in (-2, 0, 3):
        one = IntegerMatrix(((x,),))
        assert char_poly(one) == _cofactor_char_poly(one) == IntPolynomial((-x, 1))


def test_char_poly_transpose_invariant():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(2, 6)
        m = IntegerMatrix(
            tuple(tuple(rng.randrange(0, 3) for _ in range(n)) for _ in range(n))
        )
        assert char_poly(m) == char_poly(transpose(m))


def test_classify_reference(gmap):
    report = classify_matrix(transition_matrix(gmap))
    assert report.irreducible
    assert report.primitive
    lo, hi = report.dominant_root
    assert Fraction("1.1673039") < lo < hi < Fraction("1.1673040")
    assert hi - lo <= Fraction(1, 10**12)
    assert minimal_polynomial_degree(report.characteristic_polynomial, (lo, hi)) == 5
    assert report.trace == 0
    assert report.positive_power == 17
    assert is_positive(power(transition_matrix(gmap), 17))


def test_classify_permutation_matrix():
    perm = IntegerMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    report = classify_matrix(perm)
    assert report.irreducible
    assert not report.primitive
    lo, hi = report.dominant_root
    assert lo <= 1 <= hi


def test_classify_rejects_negative_entries():
    with pytest.raises(GraphStructureError):
        classify_matrix(IntegerMatrix(((0, -1), (1, 0))))


def test_primitivity_bound_property():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 5)
        m = IntegerMatrix(
            tuple(
                tuple(1 if rng.random() < 0.5 else 0 for _ in range(n))
                for _ in range(n)
            )
        )
        if all(any(row) for row in m.rows):
            k = first_positive_power(m)
            if k is not None:
                bound = (n - 1) ** 2 + 1
                assert is_positive(power(m, bound))


def test_root_matches_power_iteration(gmap):
    m = transition_matrix(gmap)
    report = classify_matrix(m)
    vec = [1.0] * m.dimension
    lam = 1.0
    for _ in range(6000):
        new = [sum(m.rows[i][j] * vec[j] for j in range(m.dimension)) for i in range(m.dimension)]
        lam = max(new)
        vec = [x / lam for x in new]
    lo, hi = report.dominant_root
    assert abs(float((lo + hi) / 2) - lam) < 1e-9


def test_perron_checks():
    assert is_perron_number(Q_POLY) is True
    assert is_perron_number(RIVAL_POLY) is True
    # a root of equal modulus: the other cube roots of 2, and -sqrt(2)
    assert is_perron_number(IntPolynomial((-2, 0, 0, 1))) is False
    assert is_perron_number(IntPolynomial((-2, 0, 1))) is False
    # (x - 1)(x^2 + 4): the largest real root 1 is beaten by |2i|
    assert is_perron_number(IntPolynomial((-4, 4, -1, 1))) is False
    # (x^2 - x - 1)^2: a repeated root does not spoil dominance
    assert is_perron_number(IntPolynomial((1, 2, -1, -2, 1))) is True


def test_perron_requires_positive_real_root():
    with pytest.raises(GraphStructureError):
        is_perron_number(IntPolynomial((1, 0, 1)))  # x^2 + 1
    with pytest.raises(GraphStructureError):
        is_perron_number(IntPolynomial((1, 1)))  # x + 1
    with pytest.raises(GraphStructureError):
        is_perron_number(IntPolynomial((-1, 2)))  # 2x - 1, not monic


# -- the exact Perron test against the floating-point solver it replaced -------


def _has_real_root(p):
    return sympy_poly(p).count_roots() > 0


def _float_all_roots(p, dps=30):
    """Distinct complex roots of ``p`` from mpmath's global solver."""
    sqf = sympy_poly(p).sqf_part()
    with mpmath.workdps(dps):
        roots = mpmath.polyroots(
            [mpmath.mpf(int(c)) for c in sqf.all_coeffs()], maxsteps=200, extraprec=120
        )
        return [complex(r) for r in roots]


def _float_is_perron_number(p):
    """Floating-point oracle: roots to about 1e-9, a modulus gap under 1e-6
    settled by a factor test for symmetric ties and a 60-digit re-solve."""
    roots = _float_all_roots(p)
    real = [r.real for r in roots if abs(r.imag) < 1e-9]
    if not real or max(real) <= 0:
        raise GraphStructureError("no positive real root; not a Perron candidate")
    lam = max(real)
    others = sorted((abs(r) for r in roots), reverse=True)
    others.remove(max(others))
    if not others or lam - others[0] > 1e-6:
        return True
    px = sympy_poly(p)
    x = px.gen
    if sympy.gcd(px, sympy.Poly(px.as_expr().subs(x, -x), x)).degree() > 0:
        return False
    refined = _float_all_roots(p, dps=60)
    lam2 = max(r.real for r in refined if abs(r.imag) < 1e-30)
    moduli = sorted((abs(r) for r in refined), reverse=True)
    moduli.remove(max(moduli))
    return not moduli or lam2 - moduli[0] > 1e-30


def _pool_char_polys():
    return {char_poly(transition_matrix(g)) for g in pool_maps() if g.is_self_map}


def _candidate_char_polys(rank):
    """Characteristic polynomials of the single-fold search's candidates:
    a proper full fold at the valence-4 vertex, then an isomorphism back."""
    matrices = set()
    for graph in build_universe(rank).graphs:
        v4 = max(range(graph.n_vertices), key=graph.valence)
        for e1, e0 in itertools.permutations(graph.directions_at(v4), 2):
            if abs(e1) == abs(e0):
                continue
            move = apply_fold(graph, e1, e0, "proper_full")
            for s in graph_isomorphisms(move.target, graph):
                sigma = relabeling(move.target, graph, s)
                matrices.add(transition_matrix(compose(sigma, move.map)))
    return {char_poly(m) for m in matrices}


def _random_char_polys_and_monic_polys(seed=2405, count=250):
    rng = random.Random(seed)
    polys = set()
    for _ in range(count):
        n = rng.randrange(1, 7)
        entries = (0, 0, 0, 1, 1, 2)
        rows = tuple(tuple(rng.choice(entries) for _ in range(n)) for _ in range(n))
        polys.add(char_poly(IntegerMatrix(rows)))
        degree = rng.randrange(1, 7)
        polys.add(IntPolynomial(tuple(rng.randrange(-3, 4) for _ in range(degree)) + (1,)))
    return polys


def test_exact_perron_test_matches_float_oracle():
    polys = (
        _pool_char_polys()
        | _candidate_char_polys(3)
        | _candidate_char_polys(4)
        | _random_char_polys_and_monic_polys()
    )
    checked = 0
    for p in polys:
        if not _has_real_root(p) or largest_real_root_interval(p)[0] <= 0:
            continue
        assert is_perron_number(p) == _float_is_perron_number(p), p.pretty()
        checked += 1
    assert checked > 300


def _assert_bracket(p, width):
    lo, hi = largest_real_root_interval(p, width)
    q = sympy_poly(p).sqf_part()
    assert 0 <= hi - lo <= width
    # count_roots counts the closed interval [hi, oo): no root lies above hi
    if lo == hi:
        assert q.eval(lo) == 0
        assert q.count_roots(hi, None) == 1
    else:
        assert q.eval(lo) * q.eval(hi) < 0
        assert q.count_roots(hi, None) == 0


def test_largest_root_bracket():
    cases = [Q_POLY, RIVAL_POLY, IntPolynomial((-2, 0, 1)), IntPolynomial((-4, 4, -1, 1))]
    # (x - 1)(x^2 - 2), (x - 1)(2x - 1)(x^2 - 2) and (x - 1)(100x^2 - 101):
    # the isolating interval (1, 2) of the largest root starts at the
    # rational root 1, which is within 1/3 of the largest root in the last
    # case; and 2x^4 - 3x^3 - x^2 + 6x - 2, whose largest root is near 0.377
    cases += [IntPolynomial((2, -2, -1, 1)), IntPolynomial((-2, 6, -3, -3, 2))]
    cases += [IntPolynomial((101, -101, -100, 100)), IntPolynomial((-2, 6, -1, -3, 2))]
    # 2x - 1: isolated in (-2, 2), and the bisection meets 1/2 at a midpoint
    cases += [IntPolynomial((-1, 2))]
    cases += sorted(_random_char_polys_and_monic_polys(count=60), key=lambda p: p.coefficients)
    for p in filter(_has_real_root, cases):
        for width in (Fraction(1, 10**12), Fraction(1, 3)):
            _assert_bracket(p, width)


@st.composite
def _irreducible_matrices(draw, period):
    """Irreducible nonnegative matrices whose index classes form a cycle of
    ``period`` classes (period 1: no constraint); entries only go from one
    class to the next, so the period is a multiple of ``period``."""
    sizes = draw(st.lists(st.integers(1, 6 // period), min_size=period, max_size=period))
    cls = [c for c, size in enumerate(sizes) for _ in range(size)]
    n = len(cls)
    entry = st.sampled_from((0, 1, 1, 2))
    rows = tuple(
        tuple(draw(entry) if cls[j] == (cls[i] + 1) % period else 0 for j in range(n))
        for i in range(n)
    )
    matrix = IntegerMatrix(rows)
    assume(is_irreducible(matrix))
    return matrix


@settings(max_examples=60, deadline=None)
@given(_irreducible_matrices(1))
def test_primitive_matrix_has_perron_root(matrix):
    # Perron-Frobenius: a primitive matrix's spectral radius dominates
    assume(first_positive_power(matrix) is not None)
    assert is_perron_number(char_poly(matrix)) is True


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(_irreducible_matrices))
def test_periodic_matrix_has_no_perron_root(matrix):
    # period h >= 2: the spectral radius times each h-th root of unity is a root
    assert first_positive_power(matrix) is None
    assert is_perron_number(char_poly(matrix)) is False


def test_invariant_edge_set(block_map):
    matrix = transition_matrix(block_map)
    assert not is_irreducible(matrix)
    witness = invariant_edge_set(matrix)
    assert witness is not None
    closed = set(witness)
    assert 0 < len(closed) < matrix.dimension
    for i in closed:
        for j in range(matrix.dimension):
            if matrix.rows[i][j] > 0:
                assert j in closed


def test_stretch_factors_in_search_are_perron(gmap):
    # every primitive matrix arising from the rank-3 survivors has a Perron
    # dominant root
    from traintrack.search import single_fold_search

    summary = single_fold_search(3)
    for report in summary.survivors:
        spectral = classify_matrix(transition_matrix(report.map))
        assert spectral.perron_number is True


# -- reachability against the per-index search it replaced ---------------------


def _per_index_reach(matrix):
    """Indices reachable from each index by a nonempty path, one search per
    index."""
    n = matrix.dimension
    adj = [{j for j in range(n) if matrix.rows[i][j] > 0} for i in range(n)]
    reach = []
    for i in range(n):
        seen = set(adj[i])
        frontier = list(seen)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        reach.append(seen)
    return reach


def _reach_is_irreducible(matrix):
    reach = _per_index_reach(matrix)
    n = matrix.dimension
    return all(j in reach[i] for i in range(n) for j in range(n))


def _reach_invariant_edge_set(matrix):
    reach = _per_index_reach(matrix)
    n = matrix.dimension
    for i in range(n):
        closed = reach[i] | {i}
        if len(closed) < n:
            return tuple(sorted(closed))
    return None


def _assert_reachability_matches(matrix):
    assert is_irreducible(matrix) == _reach_is_irreducible(matrix)
    assert invariant_edge_set(matrix) == _reach_invariant_edge_set(matrix)


@st.composite
def _nonnegative_matrices(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    # sparse entries, so reducible and irreducible patterns both occur
    entry = st.sampled_from((0, 0, 0, 1, 2))
    return IntegerMatrix(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)))


@settings(max_examples=400, deadline=None)
@given(_nonnegative_matrices())
def test_reachability_matches_per_index_search(matrix):
    _assert_reachability_matches(matrix)


def test_reachability_edge_cases(gmap, psi, block_map):
    # a single strongly connected component without a cycle is reducible
    zero = IntegerMatrix(((0,),))
    assert not is_irreducible(zero)
    assert invariant_edge_set(zero) is None
    assert is_irreducible(IntegerMatrix(((3,),)))
    for matrix in (
        zero,
        IntegerMatrix(((0, 1), (0, 0))),
        IntegerMatrix(((0, 1), (1, 0))),
        identity_matrix(4),
        transition_matrix(gmap),
        transition_matrix(psi),
        transition_matrix(block_map),
    ):
        _assert_reachability_matches(matrix)


# -- the integer-arithmetic routines against the ones they replaced ------------


def _fraction_value(p, x):
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc


def _rational_minimal_polynomial_degree(p, root_interval):
    lo, hi = (sympy.Rational(x.numerator, x.denominator) for x in root_interval)
    for factor, _ in sympy_poly(p).factor_list()[1]:
        flo, fhi = factor.eval(lo), factor.eval(hi)
        if flo == 0 or fhi == 0 or (flo > 0) != (fhi > 0):
            return factor.degree()
    raise AssertionError("no factor changes sign on the root interval")


def _powered_first_positive_power(matrix):
    """Least k with M**k positive, by integer matrix powering."""
    bound = (matrix.dimension - 1) ** 2 + 1
    acc = matrix
    for k in range(1, bound + 1):
        if is_positive(acc):
            return k
        acc = matmul(acc, matrix)
    return None


WIDTHS = (Fraction(1, 3), Fraction(1, 10**9), Fraction(1, 10**12), Fraction(1, 10**15))


def _on_dyadic_grid(interval, width):
    """Whether ``interval`` is at least ``width`` wide, 2^k wide for some
    integer k, and has ends that are multiples of 2^k.  Bisection from two
    such intervals around the same root passes through the same grid
    intervals, so it ends in the same bracket."""
    lo, hi = interval
    size = hi - lo
    n, d = size.numerator, size.denominator
    return size >= width and not (n & (n - 1) or d & (d - 1)) and (lo / size).denominator == 1


def _assert_root_facts_match_oracles(p):
    """The bracket, the minimal polynomial degree and the Perron verdict
    against the sympy engine.  sympy's isolating interval need not be
    dyadic: the brackets are compared for equality where both engines'
    isolating intervals are points or lie on the dyadic grid, and checked to
    isolate the largest root elsewhere.  The integer bisection on dyadic
    ends gives the brackets that bisection in ``Fraction`` arithmetic gives
    from the same isolating interval."""
    q, isolating, _ = sympy_root_bracket(p)
    q_ours, ours, narrow = _root_bracket(p.coefficients)
    assert narrow == fraction_bisect(q_ours, *ours, Fraction(1, 10**12))
    for width in WIDTHS:
        assert _bisect(q_ours, *ours, width) == fraction_bisect(q_ours, *ours, width)
        if (isolating[0] == isolating[1] and ours[0] == ours[1]) or (
            _on_dyadic_grid(isolating, width) and _on_dyadic_grid(ours, width)
        ):
            assert largest_real_root_interval(p, width) == fraction_bisect(q, *isolating, width)
        else:
            _assert_bracket(p, width)
    root = largest_real_root_interval(p)
    assert minimal_polynomial_degree(p, root) == _rational_minimal_polynomial_degree(p, root)
    if root[0] > 0:
        assert is_perron_number(p) == sympy_is_perron_number(p)


@st.composite
def _monic_polynomials(draw):
    degree = draw(st.integers(1, 6))
    coefficients = tuple(draw(st.integers(-4, 4)) for _ in range(degree)) + (1,)
    return IntPolynomial(coefficients)


@settings(max_examples=150, deadline=None)
@given(_monic_polynomials(), st.fractions(max_denominator=10**6))
def test_root_facts_match_fraction_oracles_on_monic_polynomials(p, x):
    assert p.sign(x) == (_fraction_value(p, x) > 0) - (_fraction_value(p, x) < 0)
    assume(_has_real_root(p))
    _assert_root_facts_match_oracles(p)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_nonnegative_matrices(7), _irreducible_matrices(1)))
def test_spectral_pass_matches_oracles_on_matrices(matrix):
    assert first_positive_power(matrix) == _powered_first_positive_power(matrix)
    # a nonnegative matrix has a real eigenvalue of largest modulus
    _assert_root_facts_match_oracles(char_poly(matrix))


def test_root_facts_named_cases():
    # a rational top root comes back as a point interval
    for p, root, perron in [
        (IntPolynomial((-4, 0, 1)), 2, False),  # x^2 - 4: a modulus tie with -2
        (IntPolynomial((-8, 0, 0, 1)), 2, False),  # x^3 - 8: ties with 2ω, 2ω²
        (IntPolynomial((-2, -1, 1)), 2, True),  # (x - 2)(x + 1)
    ]:
        assert largest_real_root_interval(p) == (root, root)
        assert minimal_polynomial_degree(p, (root, root)) == 1
        assert is_perron_number(p) is perron
        _assert_root_facts_match_oracles(p)
    # x^5 - x^4 - 1 = (x^2 - x + 1)(x^3 - x - 1): λ is the root of the cubic
    p = IntPolynomial((-1, 0, 0, 0, -1, 1))
    lo, hi = largest_real_root_interval(p)
    assert Fraction("1.3247179") < lo < hi < Fraction("1.3247180")
    assert minimal_polynomial_degree(p, (lo, hi)) == 3
    assert is_perron_number(p) is True
    _assert_root_facts_match_oracles(p)


def test_bisection_needs_dyadic_ends():
    q = IntPolynomial((-2, 0, 1))  # x^2 - 2
    assert _bisect(q, Fraction(1), Fraction(3, 2), Fraction(1, 8)) == (
        Fraction(11, 8), Fraction(3, 2)
    )
    # a width of another number type compares as its exact value
    assert _bisect(q, Fraction(1), Fraction(3, 2), 0.125) == (Fraction(11, 8), Fraction(3, 2))
    with pytest.raises(GraphStructureError):
        _bisect(q, Fraction(4, 3), Fraction(3, 2), Fraction(1, 8))


def _random_nonnegative_matrices(seed, count, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        density = rng.random()
        yield IntegerMatrix(
            tuple(
                tuple(rng.choice((1, 1, 2)) if rng.random() < density else 0 for _ in range(n))
                for _ in range(n)
            )
        )


def test_root_facts_match_sympy_on_random_matrices():
    for matrix in _random_nonnegative_matrices(2405, 120, 11):
        p = char_poly(matrix)
        assert p == sympy_char_poly(matrix)
        _assert_root_facts_match_oracles(p)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(_irreducible_matrices))
def test_root_facts_match_sympy_on_periodic_matrices(matrix):
    _assert_root_facts_match_oracles(char_poly(matrix))


# factors with a positive real root, and factors without one
REAL_FACTORS = ((-1, 1), (-1, -1, 1), (-2, 0, 1), (-1, -1, 0, 1), (-1, -1, 0, 0, 0, 1))
OTHER_FACTORS = ((0, 1), (1, 1), (1, 0, 1), (1, 1, 1), (1, 0, 0, 0, 1))


def _poly_product(factors):
    return IntPolynomial(functools.reduce(_poly_mul, factors, (1,)))


def _products_with_repeated_and_cyclotomic_factors(seed=7, count=40):
    """x - 1, x^2 - x - 1, x^2 - 2, x^3 - x - 1 or x^5 - x - 1, times x,
    x + 1, x^2 + 1, x^2 + x + 1 or x^4 + 1, some of them repeated."""
    rng = random.Random(seed)
    polys = [
        _poly_product([(-1, -1, 1), (-1, -1, 1), (1, 0, 1)]),  # (x^2 - x - 1)^2 (x^2 + 1)
        _poly_product([(-1, 1), (1, 0, 1), (1, 0, 1)]),  # (x - 1)(x^2 + 1)^2
        _poly_product([(-1, -1, 0, 0, 0, 1), (1, 0, 0, 0, 1), (0, 1), (0, 1)]),
    ]
    for _ in range(count):
        factors = [rng.choice(REAL_FACTORS)] + rng.sample(OTHER_FACTORS, rng.randrange(1, 4))
        polys.append(_poly_product([f for f in factors for _ in range(rng.randrange(1, 4))]))
    return polys


def test_root_facts_match_sympy_on_repeated_and_cyclotomic_factors():
    for p in _products_with_repeated_and_cyclotomic_factors():
        _assert_root_facts_match_oracles(p)


def test_gcd_fallback_gives_the_same_root_facts(monkeypatch):
    calls = []

    def remainder_gcd(f, g):
        calls.append(len(f))
        return fallback(f, g)

    fallback = spectral._remainder_gcd
    monkeypatch.setattr(spectral, "_heuristic_gcd", lambda f, g: None)
    monkeypatch.setattr(spectral, "_remainder_gcd", remainder_gcd)
    spectral._root_bracket.cache_clear()
    try:
        for p in _products_with_repeated_and_cyclotomic_factors(count=15):
            _assert_root_facts_match_oracles(p)
    finally:
        spectral._root_bracket.cache_clear()
    assert calls


def test_root_facts_match_sympy_on_random_monic_polynomials():
    rng = random.Random(13)
    for _ in range(60):
        degree = rng.randrange(1, 14)
        p = IntPolynomial(tuple(rng.randrange(-3, 4) for _ in range(degree)) + (1,))
        if _has_real_root(p):
            _assert_root_facts_match_oracles(p)


def test_first_positive_power_reaches_the_wielandt_bound():
    for n in range(2, 7):
        matrix = _wielandt_matrix(n)
        assert first_positive_power(matrix) == (n - 1) ** 2 + 1
        assert _powered_first_positive_power(matrix) == (n - 1) ** 2 + 1


# -- the certificates of is_perron_number ------------------------------------

# top root exactly 1: the point bracket decides, True only for x - 1 and x^2 - x
POINT_BRACKET_AT_ONE = (
    (-1, 1),  # x - 1
    (0, -1, 1),  # x^2 - x
    (-1, 0, 1),  # x^2 - 1
    (-1, 0, 0, 1),  # x^3 - 1
    (-1, -1, 0, 1, 1),  # x^4 + x^3 - x - 1
    # the pool's polynomials with top root 1, square-free parts x^4 + x^3 - x - 1,
    # x^3 - 1, x^2 - 1, x^2 - 1 and x^4 - 1
    (1, 0, -1, -1, 0, 1),
    (-1, 2, -1, 1, -2, 1),
    (1, -3, 2, 2, -3, 1),
    (-1, 1, 2, -2, -1, 1),
    (1, -1, 0, 0, -1, 1),
)
# the pool's Perron polynomials: one sign variation of S(x + lo²) decides each
DESCARTES_COUNT_ONE = (
    (-1, -1, 0, 0, 0, 1),  # x^5 - x - 1
    (-1, 0, 0, 0, -1, 1),  # x^5 - x^4 - 1
    (1, 1, -1, -1, -1, 1),
    (-1, -1, -3, 0, 0, 1),
    (-1, 0, 3, -1, -2, 1),
    (-1, 1, 0, -2, 0, 1),
    (1, -2, 0, 0, -1, 1),
    (-1, -1, -1, 0, 0, 1),
    (1, -1, 1, 0, -2, 1),
)
# decided by isolating the roots of S: the pool's polynomial whose Descartes
# count is 2, and point brackets at 2, where no certificate applies
ISOLATION_LOOP = (
    (1, -1, 1, -1, -1, 1),  # x^5 - x^4 - x^3 + x^2 - x + 1
    (-4, 0, 1),  # x^2 - 4
    (-2, -1, 1),  # (x - 2)(x + 1)
)


def _perron_verdicts(monkeypatch, polynomials):
    """``is_perron_number`` and its sympy oracle on each polynomial, with the
    number of calls that reached the isolation loop."""
    expected = [sympy_is_perron_number(IntPolynomial(c)) for c in polynomials]
    loop = spectral._square_free_factors
    calls = []

    def counted(f):
        calls.append(f)
        return loop(f)

    monkeypatch.setattr(spectral, "_square_free_factors", counted)
    verdicts = [is_perron_number(IntPolynomial(c)) for c in polynomials]
    return verdicts, expected, len(calls)


def test_perron_point_bracket_at_one_decides_without_the_loop(monkeypatch):
    for c in POINT_BRACKET_AT_ONE:
        assert largest_real_root_interval(IntPolynomial(c)) == (1, 1)
    verdicts, expected, loop_calls = _perron_verdicts(monkeypatch, POINT_BRACKET_AT_ONE)
    assert verdicts == expected == [True, True] + [False] * 8
    assert loop_calls == 0


def test_perron_descartes_count_decides_without_the_loop(monkeypatch):
    verdicts, expected, loop_calls = _perron_verdicts(monkeypatch, DESCARTES_COUNT_ONE)
    assert verdicts == expected == [True] * len(DESCARTES_COUNT_ONE)
    assert loop_calls == 0


def test_perron_falls_back_to_the_isolation_loop(monkeypatch):
    verdicts, expected, loop_calls = _perron_verdicts(monkeypatch, ISOLATION_LOOP)
    assert verdicts == expected == [False, False, True]
    assert loop_calls == len(ISOLATION_LOOP)


def test_perron_certificates_cover_the_pool():
    pool = {p.coefficients for p in _pool_char_polys()}
    assert pool == set(POINT_BRACKET_AT_ONE[5:] + DESCARTES_COUNT_ONE + ISOLATION_LOOP[:1])


# -- the repeat stop of first_positive_power ---------------------------------


def _zero_pattern(matrix):
    return tuple(tuple(x > 0 for x in row) for row in matrix.rows)


def _powers_examined(matrix):
    """How many of M, M², ... are looked at, by integer matrix powering: up
    to the first positive power, the first zero pattern seen before, or the
    Wielandt bound."""
    bound = (matrix.dimension - 1) ** 2 + 1
    seen, acc = set(), matrix
    for k in range(1, bound + 1):
        if is_positive(acc) or _zero_pattern(acc) in seen:
            return k
        seen.add(_zero_pattern(acc))
        acc = matmul(acc, matrix)
    return bound


def _cycle_matrix(n):
    return IntegerMatrix(tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n)))


def _block_triangular_matrix(n, k):
    """The Wielandt matrix on indices < k, and ones from those indices to the
    rest and among the rest: reducible, as no index >= k reaches one < k.
    The zero pattern settles when the Wielandt block's turns positive, at
    power (k-1)**2 + 1, and repeats at the next power."""
    corner = _wielandt_matrix(k).rows
    return IntegerMatrix(
        tuple(
            tuple(corner[i][j] if i < k and j < k else int(j >= k) for j in range(n))
            for i in range(n)
        )
    )


def _wielandt_matrix(n):
    """The cycle 1 -> 2 -> ... -> n -> 1 plus the chord n -> 2: primitive with
    exponent exactly (n-1)**2 + 1."""
    rows = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    rows[n - 1][1] = 1
    return IntegerMatrix(tuple(map(tuple, rows)))


@pytest.mark.parametrize(
    "matrix, answer, examined",
    [(_cycle_matrix(n), None, min(n + 1, (n - 1) ** 2 + 1)) for n in range(2, 8)]
    + [
        (_block_triangular_matrix(n, k), None, (k - 1) ** 2 + 2)
        for n in range(3, 8)
        for k in range(2, n)
    ]
    + [(_wielandt_matrix(n), (n - 1) ** 2 + 1, (n - 1) ** 2 + 1) for n in range(2, 8)],
)
def test_first_positive_power_stops_at_a_repeated_pattern(matrix, answer, examined, monkeypatch):
    # an n-cycle's patterns have period n, so M^(n+1) repeats M (past the
    # Wielandt bound only at n = 2); the all-positive test runs once per power
    # examined, so counting its calls counts the powers
    checks = []

    def counted_all(values):
        checks.append(None)
        return all(values)

    monkeypatch.setattr(spectral, "all", counted_all, raising=False)
    assert first_positive_power(matrix) == answer
    monkeypatch.undo()
    assert _powered_first_positive_power(matrix) == answer
    assert len(checks) == _powers_examined(matrix) == examined
