from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import assume, given, settings, strategies as st

from chowtool import catalog, symmetry
from chowtool.errors import NotFullDimensional, OriginNotInterior
from chowtool.geometry import Polytope, product, dual, double_cone, lattice_points
from chowtool.linalg import matvec, det_int, identity_matrix, rank_rational
from chowtool.symmetry import (
    AffineFunctional,
    automorphisms,
    automorphism_generators,
    orbits,
    is_symmetric,
    fo_invariant,
    is_weakly_symmetric,
    _check_origin_interior,
)

X3 = Polytope([(-1, -1), (1, 0), (0, 1)], name="X3")
X4 = Polytope([(1, 0), (-1, 0), (0, 1), (0, -1)], name="X4")
X6 = Polytope([(0, 1), (0, -1), (1, 0), (-1, 0), (1, -1), (-1, 1)], name="X6")
SQUARE = Polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
Q_SKEW = Polytope([(0, 0), (2, 0), (0, 1)], name="skew")
T2 = Polytope([(0, 0), (1, 0), (0, 1)])


SEG = Polytope([(-1,), (1,)])
# a reflexive pentagon whose only nontrivial automorphism is a reflection
PENTAGON = Polytope([(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1)])


def _is_symmetric_by_rank(P):
    """Oracle: the rank of the stacked g - I over automorphism_generators,
    the whole closure-checked group for a polytope without provenance."""
    _check_origin_interior(P)
    n = P.dim
    rows = []
    for g in automorphism_generators(P):
        for i in range(n):
            rows.append(tuple(g[i][j] - int(i == j) for j in range(n)))
    return rank_rational(rows) == n


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
    assert not is_symmetric(PENTAGON)


@pytest.mark.parametrize("name", catalog.list_names())
def test_is_symmetric_matches_rank_oracle_on_catalog(name):
    P = catalog.get(name).polytope
    assert is_symmetric(P) == _is_symmetric_by_rank(P)


def _assert_agrees_with_oracle(P):
    try:
        want = _is_symmetric_by_rank(P)
    except OriginNotInterior:
        with pytest.raises(OriginNotInterior):
            is_symmetric(P)
        return
    assert is_symmetric(P) == want


@st.composite
def lattice_polytopes(draw, dims=(2, 3), bound=2, units=False):
    """Hulls of a few points of [-bound, bound]^d (with the +-e_i if units),
    as drawn or closed under -I or under cyclic coordinate shifts, so both
    answers and both origin cases come up."""
    d = draw(st.sampled_from(dims))
    coord = st.integers(-bound, bound)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=6, unique=True))
    if units:
        pts += [tuple(s * int(j == i) for j in range(d)) for i in range(d) for s in (1, -1)]
    closure = draw(st.sampled_from(["none", "central", "cyclic", "both"]))
    if closure in ("central", "both"):
        pts += [tuple(-x for x in p) for p in pts]
    if closure in ("cyclic", "both"):
        pts += [p[i:] + p[:i] for p in pts for i in range(1, d)]
    try:
        return Polytope(pts)
    except NotFullDimensional:
        assume(False)


# inside [-1, 1]^n with the +-e_i, every polygon is reflexive and many
# 3-polytopes are, so duals come up
reflexive_often = lattice_polytopes(bound=1, units=True)


@settings(max_examples=60, deadline=None)
@given(P=lattice_polytopes())
def test_is_symmetric_matches_rank_oracle_on_random_polytopes(P):
    _assert_agrees_with_oracle(P)


@settings(max_examples=40, deadline=None)
@given(
    P=st.one_of(lattice_polytopes(), reflexive_often),
    Q=st.one_of(st.just(SEG), lattice_polytopes(dims=(2,))),
)
def test_is_symmetric_matches_rank_oracle_on_derived_polytopes(P, Q):
    _assert_agrees_with_oracle(product(P, Q))
    if all(f.offset > 0 for f in P.facets):
        _assert_agrees_with_oracle(double_cone(P))
    if all(f.offset == 1 for f in P.facets):
        _assert_agrees_with_oracle(dual(P))
        _assert_agrees_with_oracle(double_cone(dual(P)))


def _count_search(monkeypatch):
    """Wrap _automorphism_search; returns [searches started, elements yielded]."""
    counts = [0, 0]
    real = symmetry._automorphism_search

    def counted(P):
        counts[0] += 1
        for g in real(P):
            counts[1] += 1
            yield g

    monkeypatch.setattr(symmetry, "_automorphism_search", counted)
    return counts


def test_symmetric_answer_stops_the_search_early(monkeypatch):
    A5 = catalog.get("A5").polytope
    assert A5._provenance is None
    counts = _count_search(monkeypatch)

    def refuse(elements, n):
        raise AssertionError("closure check reached")

    monkeypatch.setattr(symmetry, "_check_group", refuse)
    assert is_symmetric(A5)
    assert counts[0] == 1 and 0 < counts[1] < 720
    # the coset of the identity comes last, so the first element found is not it
    assert next(symmetry._automorphism_search(A5)) != identity_matrix(5)


def test_asymmetric_answer_checks_the_group_once(monkeypatch):
    group = automorphisms(PENTAGON)
    assert len(group) == 2
    counts = _count_search(monkeypatch)
    checked = []
    real = symmetry._check_group

    def counted(elements, n):
        checked.append(list(elements))
        real(elements, n)

    monkeypatch.setattr(symmetry, "_check_group", counted)
    assert not is_symmetric(PENTAGON)
    assert counts == [1, 2]
    assert checked == [group]


def test_asymmetric_answer_propagates_a_failed_group_check(monkeypatch):
    def broken(elements, n):
        raise AssertionError("automorphism set not closed")

    monkeypatch.setattr(symmetry, "_check_group", broken)
    with pytest.raises(AssertionError):
        is_symmetric(PENTAGON)


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
