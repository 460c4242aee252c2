from fractions import Fraction
from itertools import product as iproduct

import pytest

from chowtool.errors import CoefficientMismatch
from chowtool.ehrhart import (
    count,
    ehrhart_polynomial,
    moment_sum,
    lagrange_interpolate,
    evaluate_polynomial,
    moment_polynomials,
)
from chowtool.geometry import Polytope, product, volume, boundary_volume

X3 = Polytope([(-1, -1), (1, 0), (0, 1)], name="X3")
X9 = Polytope([(-1, -1), (2, -1), (-1, 2)], name="X9")
SQUARE = Polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
SEG = Polytope([(-1,), (1,)])


def test_count_examples():
    assert count(SQUARE, 3) == 49
    assert count(X3, 2) == 10
    assert count(X9, 1) == 10
    assert count(X3, 0) == 1


def test_ehrhart_X3():
    # oracle: Lagrange through directly enumerated counts 1, 4, 10
    samples = [(0, 1), (1, 4), (2, 10)]
    oracle = lagrange_interpolate(samples)
    assert oracle == [Fraction(1), Fraction(3, 2), Fraction(3, 2)]
    poly = ehrhart_polynomial(X3)
    assert poly.coefficients == (1, Fraction(3, 2), Fraction(3, 2))
    assert [poly(k) for k in range(5)] == [1, 4, 10, 19, 31]


def test_ehrhart_cubes():
    assert ehrhart_polynomial(SQUARE).coefficients == (1, 4, 4)
    cube3 = product(SQUARE, SEG)
    assert ehrhart_polynomial(cube3).coefficients == (1, 6, 12, 8)


def test_ehrhart_out_of_sample():
    for P in (X3, X9, SQUARE):
        poly = ehrhart_polynomial(P)
        n = P.dim
        for k in (n + 1, n + 2, n + 3):
            assert poly(k) == count(P, k)


def test_ehrhart_segments():
    # the k^0 coefficient of a segment's polynomial is its boundary volume
    # over 2: its two endpoints
    assert ehrhart_polynomial(SEG).coefficients == (1, 2)
    assert ehrhart_polynomial(Polytope([(0,), (3,)])).coefficients == (1, 3)


def test_pick_theorem_dimension_two():
    for P in (X3, X9, SQUARE):
        poly = ehrhart_polynomial(P)
        assert poly.coefficients[0] == 1
        assert poly.coefficients[2] == volume(P)
        assert poly.coefficients[1] == boundary_volume(P) / 2


def test_moment_sum_examples():
    X4 = Polytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert moment_sum(X4, 1) == (0, 0)
    Q = Polytope([(0, 0), (2, 0), (0, 1)])
    assert moment_sum(Q, 1) == (3, 1)
    T = Polytope([(0, 0), (1, 0), (0, 1)])
    assert moment_sum(T, 2) == (4, 4)


def test_moment_polynomial_interpolation():
    for P in (X3, Polytope([(0, 0), (2, 0), (0, 1)])):
        n = P.dim
        polys = moment_polynomials(P)
        for k in (n + 2, n + 3):
            direct = moment_sum(P, k)
            for i in range(n):
                assert evaluate_polynomial(polys[i], k) == direct[i]


def test_coefficient_mismatch_guard(monkeypatch):
    # corrupt the count of kP and verify a guard trips: at a node (k = 1)
    # the interpolant moves its coefficients, past the nodes (k = n + 1 = 3)
    # only the count check can see it
    import chowtool.ehrhart as eh

    real_count = eh.count
    corrupted = ((1, "^leading coefficient "), (3, "^interpolation disagrees with count at k=3$"))
    for bad, message in corrupted:

        def bad_count(P, k):
            v = real_count(P, k)
            return v + 1 if k == bad else v

        monkeypatch.setattr(eh, "count", bad_count)
        with pytest.raises(CoefficientMismatch, match=message):
            eh.ehrhart_polynomial(X3)
