from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traintrack.graphs import identity_map
from traintrack.spectral import (
    GraphStructureError,
    IntegerMatrix,
    IntPolynomial,
    char_poly,
    classify_matrix,
    companion_matrix,
    first_positive_power,
    identity_matrix,
    invariant_edge_set,
    is_irreducible,
    is_perron_number,
    largest_real_root_interval,
    minimal_perron_table,
    trace_obstruction,
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
    assert m.transpose().rows == DISPLAYED_TRANSPOSE


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


def test_char_poly_transpose_invariant():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(2, 6)
        m = IntegerMatrix(
            tuple(tuple(rng.randrange(0, 3) for _ in range(n)) for _ in range(n))
        )
        assert char_poly(m) == char_poly(m.transpose())


def test_classify_reference(gmap):
    report = classify_matrix(transition_matrix(gmap))
    assert report.irreducible
    assert report.primitive
    assert report.perron_frobenius
    lo, hi = report.dominant_root
    assert Fraction("1.1673039") < lo < hi < Fraction("1.1673040")
    assert hi - lo <= Fraction(1, 10**12)
    assert report.minimal_polynomial_degree == 5
    assert report.trace == 0
    assert report.positive_power == 17
    assert transition_matrix(gmap).power(17).is_positive()


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
                assert m.power(bound).is_positive()


def test_root_matches_power_iteration(gmap):
    m = transition_matrix(gmap)
    report = classify_matrix(m)
    vec = [1.0] * m.dimension
    lam = 1.0
    for _ in range(6000):
        new = [sum(m.rows[i][j] * vec[j] for j in range(m.dimension)) for i in range(m.dimension)]
        lam = max(new)
        vec = [x / lam for x in new]
    assert abs(report.dominant_root_float - lam) < 1e-9


def test_perron_checks():
    q = is_perron_number(Q_POLY)
    assert q.is_perron and abs(q.dominant_root - 1.1673) < 1e-3
    r = is_perron_number(RIVAL_POLY)
    assert r.is_perron and abs(r.dominant_root - 1.1237) < 1e-3
    sqrt2 = is_perron_number(IntPolynomial((-2, 0, 1)))
    assert not sqrt2.is_perron
    assert sqrt2.exact_tie


def test_perron_requires_positive_real_root():
    with pytest.raises(GraphStructureError):
        is_perron_number(IntPolynomial((1, 0, 1)))  # x^2 + 1


def test_trace_obstruction():
    assert trace_obstruction(RIVAL_POLY, 5)
    assert not trace_obstruction(Q_POLY, 5)
    cubed = IntPolynomial((-1, 3, -3, 1))  # (x - 1)^3
    assert not trace_obstruction(cubed, 3)
    with pytest.raises(GraphStructureError):
        trace_obstruction(Q_POLY, 4)


def test_minimal_perron_table():
    table = minimal_perron_table()
    by_degree = {}
    for entry in table:
        by_degree.setdefault(entry.degree, []).append(entry)
    assert abs(by_degree[2][0].approximate_root - 1.618) < 1e-3
    assert abs(by_degree[3][0].approximate_root - 1.325) < 1e-3
    assert abs(by_degree[4][0].approximate_root - 1.221) < 1e-3
    deg5 = sorted(by_degree[5], key=lambda e: e.rank_within_degree)
    assert abs(deg5[0].approximate_root - 1.124) < 1e-3
    assert abs(deg5[1].approximate_root - 1.167) < 1e-3
    # re-check the tabulated roots against direct bisection
    for entry in table:
        lo, hi = largest_real_root_interval(entry.polynomial, Fraction(1, 10**9))
        assert abs(float((lo + hi) / 2) - entry.approximate_root) < 1e-3


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
        assert spectral.perron_number is not None and spectral.perron_number.is_perron


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
def _nonnegative_matrices(draw):
    n = draw(st.integers(1, 7))
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
