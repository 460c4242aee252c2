from fractions import Fraction
from itertools import product as iproduct

import pytest

from chowtool.errors import OriginNotInterior
from chowtool.geometry import Polytope, product, double_cone, lattice_points
from chowtool.linalg import matvec, det_int
from chowtool.symmetry import (
    AffineFunctional,
    automorphisms,
    automorphism_generators,
    orbits,
    is_symmetric,
    fo_invariant,
    is_weakly_symmetric,
)

X3 = Polytope([(-1, -1), (1, 0), (0, 1)], name="X3")
X4 = Polytope([(1, 0), (-1, 0), (0, 1), (0, -1)], name="X4")
X6 = Polytope([(0, 1), (0, -1), (1, 0), (-1, 0), (1, -1), (-1, 1)], name="X6")
SQUARE = Polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
Q_SKEW = Polytope([(0, 0), (2, 0), (0, 1)], name="skew")
T2 = Polytope([(0, 0), (1, 0), (0, 1)])


def brute_force_automorphisms_2d(P, bound=1):
    """Oracle: all 2x2 integer matrices with small entries and det +-1
    permuting the vertex set."""
    out = []
    vset = set(P.vertices)
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    g = ((a, b), (c, d))
                    if abs(det_int(g)) != 1:
                        continue
                    if {matvec(g, v) for v in vset} == vset:
                        out.append(g)
    return sorted(out)


def test_automorphisms_against_brute_force():
    for P, order in [(X4, 8), (X3, 6), (X6, 12), (SQUARE, 8)]:
        got = automorphisms(P)
        assert len(got) == order
        assert got == brute_force_automorphisms_2d(P)


def test_automorphisms_cube_order():
    C = SQUARE
    seg = Polytope([(-1,), (1,)])
    assert len(automorphisms(seg)) == 2
    assert len(automorphisms(SQUARE)) == 8
    C3 = Polytope(list(iproduct([-1, 1], repeat=3)))
    assert len(automorphisms(C3)) == 48  # 2^3 * 3!


def test_automorphisms_group_closure_and_lattice_action():
    for P in (X3, X6):
        group = automorphisms(P)
        gset = set(group)
        for g in group:
            for h in group:
                gh = tuple(
                    tuple(sum(g[i][l] * h[l][j] for l in range(2)) for j in range(2))
                    for i in range(2)
                )
                assert gh in gset
        for k in (1, 2, 3):
            pts = set(lattice_points(P, k))
            for g in group:
                assert {matvec(g, p) for p in pts} == pts


def test_automorphisms_need_interior_origin():
    with pytest.raises(OriginNotInterior):
        automorphisms(Q_SKEW)


def test_is_symmetric():
    assert is_symmetric(X6)
    assert is_symmetric(X3)
    A4 = Polytope(
        [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)] + [(-1,) * 4]
    )
    assert is_symmetric(A4)
    assert is_symmetric(double_cone(X4))
    # a reflexive but asymmetric polytope: unit-cut corner square
    P = Polytope([(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1)])
    assert not is_symmetric(P)


def test_generators_from_provenance():
    D = double_cone(X6)
    gens = automorphism_generators(D)
    vset = set(D.vertices)
    for g in gens:
        assert {matvec(g, v) for v in vset} == vset
    pr = product(X4, Polytope([(-1,), (1,)]))
    for g in automorphism_generators(pr):
        assert {matvec(g, v) for v in set(pr.vertices)} == set(pr.vertices)


def test_orbit_partition():
    pts = lattice_points(X4, 2)
    parts = orbits(pts, automorphisms(X4))
    assert sum(len(p) for p in parts) == len(pts)
    assert {(0, 0)} in [set(p) for p in parts]


def test_fo_invariant_examples():
    a = AffineFunctional.coordinate(0, 2)
    for k in (1, 2, 3):
        for j in range(2):
            assert fo_invariant(X4, AffineFunctional.coordinate(j, 2), k) == 0
    assert fo_invariant(Q_SKEW, a, 1) == Fraction(1, 12)
    assert fo_invariant(T2, a, 2) == 0


def test_fo_linear_in_functional():
    a = AffineFunctional((Fraction(2), Fraction(-1)), Fraction(3))
    b = AffineFunctional((Fraction(1), Fraction(5)), Fraction(0))
    ab = AffineFunctional(
        tuple(x + y for x, y in zip(a.linear, b.linear)), a.constant + b.constant
    )
    for P in (Q_SKEW, X3):
        for k in (1, 2):
            assert fo_invariant(P, ab, k) == fo_invariant(P, a, k) + fo_invariant(
                P, b, k
            )


def test_fo_constant_vanishes():
    c = AffineFunctional((Fraction(0), Fraction(0)), Fraction(7))
    for P in (Q_SKEW, X3, X4):
        for k in (1, 2, 3):
            assert fo_invariant(P, c, k) == 0


def test_fo_group_invariance():
    a = AffineFunctional((Fraction(1), Fraction(2)), Fraction(1, 3))
    for g in automorphisms(X6):
        composed = AffineFunctional(
            tuple(
                sum(Fraction(a.linear[i]) * g[i][j] for i in range(2))
                for j in range(2)
            ),
            a.constant,
        )
        for k in (1, 2):
            assert fo_invariant(X6, composed, k) == fo_invariant(X6, a, k)


def test_weakly_symmetric():
    ok, cert = is_weakly_symmetric(T2)
    assert ok
    assert all(cert.validate_at(k) for k in range(6, 9))
    ok, cert = is_weakly_symmetric(X6)
    assert ok
    bad, witness = is_weakly_symmetric(Q_SKEW)
    assert not bad
    assert witness.coordinate == 0 and witness.k == 1
    assert witness.value == Fraction(1, 12)


def test_symmetric_implies_weakly_symmetric():
    for P in (X3, X4, X6, SQUARE):
        assert is_symmetric(P)
        ok, _ = is_weakly_symmetric(P)
        assert ok


def test_automorphisms_full_sorted_group_on_catalog():
    # valid, distinct and as many as the known group order: the whole
    # group, in sorted order
    from chowtool import catalog

    for name, order in (
        ("A3", 24), ("D3", 48), ("cube3", 48), ("cube4", 384), ("A5", 720)
    ):
        P = catalog.get(name).polytope
        group = automorphisms(P)
        assert len(group) == len(set(group)) == order
        assert group == sorted(group)
        vset = set(P.vertices)
        for g in group:
            assert abs(det_int(g)) == 1
            assert {matvec(g, v) for v in vset} == vset


def test_group_check_rejects_incomplete_sets():
    from chowtool.symmetry import _check_group

    for P in (X6, Polytope(list(iproduct([-1, 1], repeat=3)))):
        group = automorphisms(P)
        _check_group(group, P.dim)
        for i in range(len(group)):
            with pytest.raises(AssertionError):
                _check_group(group[:i] + group[i + 1 :], P.dim)
