"""The theorems layer: the cited Perron numbers stay checked on every run
of theorem A, each theorem's steps fail when their facts do, and theorem B
reports one step per rank."""

from __future__ import annotations

import mpmath
import pytest

from traintrack import theorems
from traintrack.graphs import GraphStructureError
from traintrack.spectral import IntPolynomial, is_perron_number
from traintrack.theorems import (
    EXPECTED_CLASSES,
    SMALLEST_PERRON,
    TARGET,
    verify_minimal_stretch_argument,
    verify_single_fold_uniqueness,
)

STEP_NAMES = [
    "characteristic polynomial",
    "dominant root below smaller-degree minima",
    "trace obstruction",
    "fold bookkeeping on trivalent graphs",
    "loop folds carry no expanding irreducible map",
]


def _largest_real_root(poly: IntPolynomial) -> float:
    """The largest real root by mpmath's floating-point root finder, an
    oracle independent of the package's exact bisection."""
    roots = mpmath.polyroots(list(reversed(poly.coefficients)), maxsteps=200, extraprec=100)
    return float(max(mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-20))


def test_cited_perron_numbers_are_perron_with_their_recorded_roots():
    assert sorted(SMALLEST_PERRON) == [2, 3, 4, 5]
    assert TARGET[0] == IntPolynomial((-1, -1, 0, 0, 0, 1))
    for degree, (poly, _) in SMALLEST_PERRON.items():
        assert poly.degree == degree
    for poly, approx in [*SMALLEST_PERRON.values(), TARGET]:
        assert is_perron_number(poly) is True, poly.pretty()
        assert abs(_largest_real_root(poly) - approx) < 1e-3, poly.pretty()
    # the rival is the only cited Perron number of degree at most 5 below the target
    assert [d for d, (_, a) in SMALLEST_PERRON.items() if a < TARGET[1]] == [5]


@pytest.mark.parametrize("degree", sorted(SMALLEST_PERRON))
def test_drifted_cited_root_is_a_structure_error(degree, monkeypatch):
    poly, approx = SMALLEST_PERRON[degree]
    monkeypatch.setitem(SMALLEST_PERRON, degree, (poly, approx + 0.002))
    with pytest.raises(GraphStructureError, match=f"cited root of .* drifted from {approx + 0.002}"):
        verify_minimal_stretch_argument()


def test_drifted_target_root_is_a_structure_error(monkeypatch):
    poly, approx = TARGET
    monkeypatch.setattr(theorems, "TARGET", (poly, approx - 0.002))
    with pytest.raises(GraphStructureError, match="drifted"):
        verify_minimal_stretch_argument()


def test_cited_polynomial_that_is_no_perron_polynomial_is_a_structure_error(monkeypatch):
    # x^3 - 2: the other cube roots of 2 have the same modulus; root 1.260
    monkeypatch.setitem(SMALLEST_PERRON, 3, (IntPolynomial((-2, 0, 0, 1)), 1.260))
    with pytest.raises(GraphStructureError, match=r"cited x\^3 - 2 is not a Perron polynomial"):
        verify_minimal_stretch_argument()


def test_target_in_the_rivals_place_fails_the_trace_step(monkeypatch):
    monkeypatch.setitem(SMALLEST_PERRON, 5, TARGET)
    report = verify_minimal_stretch_argument()
    assert [step.name for step in report.steps] == STEP_NAMES
    assert [step.passed for step in report.steps] == [True, True, False, True, True]
    assert report.steps[2].detail == "x^5 - x - 1 needs trace 0; x^5 - x - 1 has trace 0"
    assert not report.passed


def test_a_larger_minimum_fails_the_root_step(monkeypatch):
    # the target's root 1.1673 is above the degree-5 rival's 1.1237, so
    # putting the rival among the smaller degrees makes that comparison fail
    monkeypatch.setitem(SMALLEST_PERRON, 4, SMALLEST_PERRON[5])
    report = verify_minimal_stretch_argument()
    assert [step.passed for step in report.steps] == [True, False, True, True, True]
    assert "root < 1.124 (degree 4): False" in report.steps[1].detail


def test_theorem_b_has_one_step_per_rank(monkeypatch):
    report = verify_single_fold_uniqueness([4, 3])
    assert [(s.name, s.passed, s.detail) for s in report.steps] == [
        ("rank 4", True, "0 class(es), expected 0"),
        ("rank 3", True, "1 class(es), expected 1"),
    ]
    assert report.passed
    monkeypatch.setitem(EXPECTED_CLASSES, 3, 2)
    report = verify_single_fold_uniqueness([3])
    assert [(s.name, s.passed, s.detail) for s in report.steps] == [
        ("rank 3", False, "1 class(es), expected 2"),
    ]
    assert not report.passed
    assert verify_single_fold_uniqueness([]).passed
