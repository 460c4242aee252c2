"""Randomized invariants: catalog dilations and random unimodular images of
the two-dimensional catalog entries."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from chowtool import catalog
from chowtool.geometry import (
    Polytope,
    lattice_points,
    volume,
    boundary_volume,
    is_reflexive,
    product,
    dual,
    double_cone,
    lattice_shells,
)
from chowtool.ehrhart import count, ehrhart_polynomial, moment_sum
from chowtool.symmetry import (
    AffineFunctional,
    automorphisms,
    fo_invariant,
    is_weakly_symmetric,
)
from chowtool.linalg import matvec, matmul
from chowtool.stability import chow_gap, PLFunction, falsify, check_special
from chowtool.triangulation import delaunay_triangulation

NAMES_2D = ["X3", "X4", "X6", "X8", "X9"]
SMALL_REFLEXIVE = ["X3", "X4", "X6", "X8", "X9", "D_X3", "D_X4", "D_X8", "A3", "D3"]

# random unimodular matrices as short words in elementary generators
_ELEM = [
    ((1, 1), (0, 1)),
    ((1, -1), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, 0), (-1, 1)),
    ((0, 1), (1, 0)),
    ((1, 0), (0, -1)),
]


def unimodular_from_word(word):
    g = ((1, 0), (0, 1))
    for i in word:
        g = matmul(g, _ELEM[i])
    return g


unimodular_2d = st.builds(
    unimodular_from_word, st.lists(st.integers(0, 5), min_size=0, max_size=6)
)
catalog_2d = st.sampled_from(NAMES_2D)


@settings(max_examples=25, deadline=None)
@given(name=catalog_2d, g=unimodular_2d)
def test_unimodular_invariance(name, g):
    P = catalog.get(name).polytope
    Q = Polytope([matvec(g, v) for v in P.vertices])
    assert volume(Q) == volume(P)
    assert boundary_volume(Q) == boundary_volume(P)
    assert is_reflexive(Q) == is_reflexive(P)
    for k in (1, 2, 3):
        assert count(Q, k) == count(P, k)
    assert ehrhart_polynomial(Q).coefficients == ehrhart_polynomial(P).coefficients
    ok_p, _ = is_weakly_symmetric(P)
    ok_q, _ = is_weakly_symmetric(Q)
    assert ok_p == ok_q


@settings(max_examples=20, deadline=None)
@given(name=catalog_2d, g=unimodular_2d, k=st.integers(1, 4))
def test_shells_partition_random_images(name, g, k):
    P = catalog.get(name).polytope
    Q = Polytope([matvec(g, v) for v in P.vertices])
    shells = lattice_shells(Q, k)
    pts = lattice_points(Q, k)
    union = set()
    total = 0
    for level, s in shells.items():
        union |= s
        total += len(s)
    assert union == set(pts) and total == len(pts)
    assert shells[0] == {(0, 0)}


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(["X3", "X4", "X6", "X8", "X9", "A3", "D3", "cube3"]))
def test_reflexive_identity_and_duality(name):
    P = catalog.get(name).polytope
    n = P.dim
    assert boundary_volume(P) == n * volume(P)
    D = dual(P)
    assert dual(D).vertices == P.vertices


@settings(max_examples=15, deadline=None)
@given(
    a=st.sampled_from(NAMES_2D),
    b=st.sampled_from(["cube1", "X3", "X4"]),
    k=st.integers(1, 3),
)
def test_product_multiplicativity(a, b, k):
    A = catalog.get(a).polytope
    B = catalog.get(b).polytope
    P = product(A, B)
    assert volume(P) == volume(A) * volume(B)
    assert count(P, k) == count(A, k) * count(B, k)


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(["X3", "X4", "X8"]), k=st.integers(1, 3))
def test_double_cone_slice_formula(name, k):
    Q = catalog.get(name).polytope
    D = double_cone(Q)
    direct = count(D, k)
    sliced = sum(
        count(Q, k - abs(q)) if k - abs(q) > 0 else 1 for q in range(-k, k + 1)
    )
    assert direct == sliced


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(NAMES_2D),
    k=st.integers(1, 3),
    coeffs=st.tuples(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
    ),
)
def test_fo_vanishes_and_gap_affine(name, k, coeffs):
    P = catalog.get(name).polytope
    a = AffineFunctional(
        (Fraction(coeffs[0]), Fraction(coeffs[1])), Fraction(coeffs[2])
    )
    assert fo_invariant(P, a, k) == 0


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(["X4", "X8"]), k=st.integers(1, 2))
def test_lp_dominates_hand_built_functions(name, k):
    # any fold-convex orbit-constant candidate bounds the falsifier's optimum
    # from below; |x1| + |x2| is convex, invariant, and PL on the Delaunay
    # carrier of these squares
    P = catalog.get(name).polytope
    pts = lattice_points(P, k)
    values = {p: Fraction(abs(p[0]) + abs(p[1])) for p in pts}
    top = max(values.values())
    values = {p: v / top for p, v in values.items()}
    f = PLFunction(values=values, carrier=delaunay_triangulation(pts))
    gap = chow_gap(P, k, f)
    cert = falsify(P, k)
    optimum = -cert.gap if cert is not None else Fraction(0)
    assert optimum >= -gap


def test_weak_symmetry_certificate_out_of_sample():
    for name in ("X3", "X6", "A3"):
        P = catalog.get(name).polytope
        # bypass the symmetric shortcut: exercise the polynomial certificate
        from chowtool.symmetry import is_weakly_symmetric as ws

        ok, cert = ws(P)
        assert ok
        n = P.dim
        for k in range(n + 4, n + 7):
            assert cert.validate_at(k)


def test_special_implies_falsifier_none():
    for name in ("X3", "X6", "D_X4"):
        P = catalog.get(name).polytope
        assert check_special(P).status == "polystable"
        for k in (1, 2, 3):
            assert falsify(P, k) is None


def test_automorphisms_act_on_lattice_points():
    for name in ("X3", "X6"):
        P = catalog.get(name).polytope
        group = automorphisms(P)
        for k in (1, 2, 3):
            pts = set(lattice_points(P, k))
            for g in group:
                assert {matvec(g, p) for p in pts} == pts


def test_moment_polynomial_out_of_sample():
    from chowtool.ehrhart import moment_polynomials, evaluate_polynomial

    for name in ("X3", "X9"):
        P = catalog.get(name).polytope
        n = P.dim
        polys = moment_polynomials(P)
        for k in (n + 2, n + 3):
            direct = moment_sum(P, k)
            for i in range(n):
                assert evaluate_polynomial(polys[i], k) == direct[i]
