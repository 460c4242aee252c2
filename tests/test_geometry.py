import copy
import re
from fractions import Fraction
from itertools import count, product as iproduct
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from chowtool.errors import (
    NotFullDimensional,
    NotReflexive,
    OriginNotInterior,
)
from chowtool import catalog, geometry, linalg
from chowtool.geometry import (
    Facet,
    Polytope,
    adjacent_vertices,
    convex_hull,
    facets,
    lattice_points,
    interior_lattice_points,
    volume,
    boundary_volume,
    centroid,
    is_reflexive,
    product,
    dual,
    double_cone,
    facet_coordinates,
    facet_polytope,
    facet_relative_volume,
    lattice_shells,
)

X3 = Polytope([(-1, -1), (1, 0), (0, 1)], name="X3")
X4 = Polytope([(1, 0), (-1, 0), (0, 1), (0, -1)], name="X4")
X9 = Polytope([(-1, -1), (2, -1), (-1, 2)], name="X9")
SQUARE = Polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)], name="square")
SEG = Polytope([(-1,), (1,)], name="seg")


def brute_force_facets_2d(P, bound=3):
    """Independent oracle: scan primitive normals in a box, keep the tight
    irredundant supporting inequalities."""
    from math import gcd

    out = set()
    verts = P.vertices
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if (a, b) == (0, 0) or gcd(abs(a), abs(b)) != 1:
                continue
            h = min(a * x + b * y for x, y in verts)
            tight = [v for v in verts if a * v[0] + b * v[1] == h]
            if len(tight) >= 2:
                out.add(((a, b), -h))
    return out


def test_facets_X4_brute_force():
    expected = brute_force_facets_2d(X4)
    got = {(f.normal, f.offset) for f in X4.facets}
    assert got == expected
    assert got == {((1, 1), 1), ((1, -1), 1), ((-1, 1), 1), ((-1, -1), 1)}


def test_facets_standard_simplex():
    T = Polytope([(0, 0), (1, 0), (0, 1)])
    got = {(f.normal, f.offset) for f in T.facets}
    assert got == {((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)}


def test_facets_cube3():
    C = Polytope(list(iproduct([-1, 1], repeat=3)))
    got = {(f.normal, f.offset) for f in C.facets}
    expected = set()
    for i in range(3):
        for s in (1, -1):
            expected.add((tuple(s if j == i else 0 for j in range(3)), 1))
    assert got == expected


def test_facets_deterministic_order():
    fs = facets(X4)
    assert fs == sorted(fs, key=lambda f: (f.normal, f.offset))


def test_non_full_dimensional_rejected():
    with pytest.raises(NotFullDimensional):
        Polytope([(0, 0), (1, 1), (2, 2)])


@pytest.mark.parametrize(
    "point, bad",
    [((0.5, 0), "0.5"), ((Fraction(3, 2), 0), "Fraction(3, 2)"), (("1", 0), "'1'")],
)
def test_non_integer_coordinates_are_refused(point, bad):
    # int() would read these as (0, 0), (1, 0) and (1, 0): another polytope
    points = [point, (2, 0), (0, 2)]
    for build in (Polytope, convex_hull):
        with pytest.raises(ValueError, match=re.escape(f"coordinate {bad} ")):
            build(points)


def test_non_integer_refusal_accepts_integral_fractions():
    P = Polytope([(Fraction(4, 2), 0), (0, 0), (0, 2)])
    assert P.vertices == ((0, 0), (0, 2), (2, 0))
    assert all(type(x) is int for v in P.vertices for x in v)


def test_hull_drops_non_vertices():
    P = Polytope([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)])
    assert P.vertices == ((0, 0), (0, 2), (2, 0))


def test_lattice_points_examples():
    assert lattice_points(X3, 1) == [(-1, -1), (0, 0), (0, 1), (1, 0)]
    assert len(lattice_points(SQUARE, 3)) == 49
    assert len(lattice_points(X9, 1)) == 10


def plain_box_scan(P, k):
    """Oracle: the points of kP's bounding box that satisfy every facet inequality."""
    los, his = P.bounding_box(k)
    return sorted(
        p
        for p in iproduct(*(range(lo, hi + 1) for lo, hi in zip(los, his)))
        if P.contains(p, k)
    )


def test_lattice_points_against_plain_box_scan():
    for P, k in [(X3, 3), (X4, 2), (X9, 2)]:
        assert lattice_points(P, k) == plain_box_scan(P, k)


def _box_scan_by_recursion(P, k):
    """Oracle: the pruned scan recursing down to every point, each facet's
    partial sum updated at every coordinate."""
    n = P.dim
    los, his = P.bounding_box(k)
    norms = [f.normal for f in P.facets]
    rhs = [-k * f.offset for f in P.facets]
    suf_max = [[0] * (n + 1) for _ in norms]
    for fi, nml in enumerate(norms):
        for j in range(n - 1, -1, -1):
            suf_max[fi][j] = suf_max[fi][j + 1] + max(nml[j] * los[j], nml[j] * his[j])
    out = []
    point = [0] * n

    def rec(j, partial):
        if j == n:
            out.append(tuple(point))
            return
        lo, hi = los[j], his[j]
        for fi, nml in enumerate(norms):
            c = nml[j]
            bound = rhs[fi] - partial[fi] - suf_max[fi][j + 1]
            if c > 0:
                lo = max(lo, -((-bound) // c))
            elif c < 0:
                hi = min(hi, bound // c)
            elif bound > 0:
                return
        for x in range(lo, hi + 1):
            point[j] = x
            rec(j + 1, [partial[fi] + norms[fi][j] * x for fi in range(len(norms))])

    rec(0, [0] * len(norms))
    return sorted(out)


@pytest.mark.parametrize(
    "name", [name for name in catalog.list_names() if catalog.get(name).polytope.dim <= 5]
)
def test_box_scan_matches_the_recursion_oracle_on_the_catalog(name):
    # a fresh hull of the vertices, so the scan runs for products and double
    # cones too, whose lattice_points read their factors
    P = Polytope(catalog.get(name).polytope.vertices)
    for k in (1, 2) if P.dim <= 4 else (1,):
        assert geometry._box_scan(P, k) == _box_scan_by_recursion(P, k), k


@pytest.mark.parametrize(
    "base, ks",
    [
        (SEG, (1, 2, 3)),
        (X3, (1, 2, 3)),
        (X9, (1, 2)),
        (SQUARE, (1, 2, 3)),
        (product(product(SEG, SEG), SEG), (1, 2)),
        (catalog.get("cube5").polytope, (1,)),
    ],
)
def test_double_cone_lattice_points_against_plain_box_scan(base, ks):
    # a fresh copy, so the double-cone branch reads a base with no cached dilations
    D = double_cone(copy.deepcopy(base))
    for k in ks:
        assert lattice_points(D, k) == plain_box_scan(D, k)


def test_volume():
    for n in range(1, 5):
        T = Polytope(
            [(0,) * n] + [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        )
        fact = 1
        for i in range(2, n + 1):
            fact *= i
        assert volume(T) == Fraction(1, fact)
    assert volume(X3) == Fraction(3, 2)
    C6 = SEG
    for _ in range(5):
        C6 = product(C6, SEG)
    assert volume(C6) == 64  # 2^6, the threshold example value


def test_boundary_volume():
    assert boundary_volume(SQUARE) == 8
    assert boundary_volume(X3) == 3
    assert boundary_volume(X3) == 2 * volume(X3)
    C3 = Polytope(list(iproduct([-1, 1], repeat=3)))
    assert boundary_volume(C3) == 24
    # a segment's boundary is its two endpoints, n * Vol for reflexive P
    assert boundary_volume(SEG) == 2


def test_is_reflexive():
    assert is_reflexive(SQUARE)
    assert not is_reflexive(Polytope([(0, 0), (2, 0), (0, 1)]))
    A4 = Polytope(
        [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)] + [(-1,) * 4]
    )
    assert is_reflexive(A4)


def test_reflexive_cross_check_raises_without_asserts(monkeypatch):
    # an explicit raise, so python -O keeps it; no polytope with every
    # offset 1 has an interior lattice point besides 0, so a wrong interior
    # list is forced
    monkeypatch.setattr(geometry, "interior_lattice_points", lambda P, k: [])
    with pytest.raises(AssertionError, match="reflexive cross-check failed"):
        is_reflexive(SQUARE)


@pytest.mark.parametrize(
    "cols, target, message",
    [
        # the kept row [0, 1] leaves the first unknown without a pivot
        ([[0, 1]], [1], "facet point system has no solution"),
        ([[2]], [1], "facet point outside facet lattice"),
        # the kept first row gives x = 1, which misses the second row
        ([[1], [1]], [1, 2], "facet point off the facet hyperplane"),
        # one independent row for two unknowns leaves the solution short
        ([[1, 1]], [1], "facet point system has fewer independent rows than unknowns"),
    ],
)
def test_solve_integer_least_raises_without_asserts(cols, target, message):
    # explicit raises, so python -O keeps them
    with pytest.raises(AssertionError, match=message):
        geometry._solve_integer_least(cols, target)


def test_product():
    sq = product(SEG, SEG)
    assert set(sq.vertices) == set(SQUARE.vertices)
    prism = product(X3, SEG)
    assert prism.dim == 3 and len(prism.vertices) == 6
    assert volume(product(X4, SEG)) == 4
    for k in (1, 2, 3):
        assert len(lattice_points(prism, k)) == len(lattice_points(X3, k)) * len(
            lattice_points(SEG, k)
        )


def test_dual():
    C6 = SEG
    for _ in range(5):
        C6 = product(C6, SEG)
    D6 = dual(C6)
    cross = {
        tuple(s if j == i else 0 for j in range(6)) for i in range(6) for s in (1, -1)
    }
    assert set(D6.vertices) == cross
    assert set(dual(X4).vertices) == set(SQUARE.vertices)
    A3 = Polytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    P3O4 = {(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)}
    assert set(dual(A3).vertices) == P3O4
    with pytest.raises(NotReflexive):
        dual(Polytope([(0, 0), (2, 0), (0, 1)]))


def test_double_cone_needs_origin_interior():
    with pytest.raises(OriginNotInterior):
        double_cone(Polytope([(0, 0), (1, 0), (0, 1)]))  # 0 is a vertex
    with pytest.raises(OriginNotInterior):
        double_cone(Polytope([(1, 1), (2, 1), (1, 2)]))  # 0 lies outside


def test_dual_is_involution():
    for P in (X3, X4, SQUARE):
        assert dual(dual(P)).vertices == P.vertices


def test_double_cone():
    D = double_cone(X4)
    cross3 = {
        tuple(s if j == i else 0 for j in range(3)) for i in range(3) for s in (1, -1)
    }
    assert set(D.vertices) == cross3
    assert len(lattice_points(double_cone(SQUARE), 1)) == 11
    assert set(double_cone(SEG).vertices) == set(X4.vertices)


def test_double_cone_slice_counts():
    for Q in (X3, X4, SQUARE):
        D = double_cone(Q)
        for k in (1, 2, 3):
            direct = len(lattice_points(D, k))
            sliced = sum(
                len(lattice_points(Q, k - abs(q))) if k - abs(q) > 0 else 1
                for q in range(-k, k + 1)
            )
            assert direct == sliced


def test_lattice_shells():
    sh = lattice_shells(X4, 2)
    assert [len(sh[i]) for i in range(3)] == [1, 4, 8]
    sh3 = lattice_shells(X3, 2)
    assert [len(sh3[i]) for i in range(3)] == [1, 3, 6]
    assert sh3[0] == {(0, 0)}
    with pytest.raises(NotReflexive):
        lattice_shells(Polytope([(0, 0), (2, 0), (0, 1)]), 2)


def test_shells_partition():
    for P in (X3, X4, SQUARE, X9):
        for k in (1, 2, 3, 4):
            shells = lattice_shells(P, k)
            union = set()
            total = 0
            for pts in shells.values():
                total += len(pts)
                union |= pts
            assert total == len(union) == len(lattice_points(P, k))


def _shells_by_point(P, k):
    """lattice_shells' per-point form, one dot per point and facet, kept as
    its oracle."""
    from chowtool.linalg import dot

    shells = {i: set() for i in range(k + 1)}
    for v in lattice_points(P, k):
        shells[max(0, max(-dot(f.normal, v) for f in P.facets))].add(v)
    return shells


@pytest.mark.parametrize(
    "name, k", [("X9", 4), ("A3", 3), ("D_X6", 3), ("cuboctahedron", 2), ("A4", 2), ("D4", 2)]
)
def test_shells_match_the_per_point_oracle(name, k):
    P = catalog.get(name).polytope
    assert lattice_shells(P, k) == _shells_by_point(P, k)


def test_centroid():
    assert centroid(X3) == (0, 0)
    assert centroid(Polytope([(0, 0), (2, 0), (0, 1)])) == (
        Fraction(2, 3),
        Fraction(1, 3),
    )
    assert centroid(SQUARE) == (0, 0)


def test_dilation_implicit_consistency():
    # lattice points of kP computed via scaled facet offsets match the hull
    # of the scaled vertex set computed directly
    for P in (X3, X4):
        for k in (2, 3):
            scaled = Polytope([tuple(k * x for x in v) for v in P.vertices])
            assert lattice_points(P, k) == lattice_points(scaled, 1)


@pytest.mark.parametrize(
    "name, edges",
    [
        ("cube3", 12),
        ("D3", 12),
        ("X6", 6),
        ("cuboctahedron", 24),
        ("rhombic_dodecahedron", 24),
        ("cube4", 32),
    ],
)
def test_edge_counts(name, edges):
    from chowtool.jsonio import _edges, render_svg
    from chowtool.stability import _edges_at_vertex

    P = catalog.get(name).polytope
    degrees = [len(adjacent_vertices(P, v)) for v in P.vertices]
    assert sum(degrees) == 2 * edges
    assert min(degrees) >= P.dim
    # adjacency is symmetric
    assert all(v in adjacent_vertices(P, w) for v in P.vertices for w in adjacent_vertices(P, v))
    assert [len(_edges_at_vertex(P, v)) for v in P.vertices] == degrees
    assert len(_edges(P)) == edges
    if P.dim <= 3:
        assert render_svg(P).count("<line") == edges


def test_segment_edges():
    from chowtool.jsonio import _edges
    from chowtool.stability import _edges_at_vertex

    # the SVG draws the segment itself; the vertex-cap search finds no edge directions
    assert _edges(SEG) == [((-1,), (1,))]
    assert adjacent_vertices(SEG, (1,)) == []
    assert _edges_at_vertex(SEG, (1,)) == []


def _adjacent_by_rank(P, v):
    """Oracle: w is adjacent to v when the facets tight at both have rank n - 1."""
    at_v = [f for f in P.facets if f.value(v) == 0]
    out = []
    for w in P.vertices:
        if w == v:
            continue
        active = [f.normal for f in at_v if f.value(w) == 0]
        if active and linalg.rank_rational(active) == P.dim - 1:
            out.append(w)
    return out


def _assert_adjacency_matches_rank(P):
    for v in P.vertices:
        assert adjacent_vertices(P, v) == _adjacent_by_rank(P, v)


@pytest.mark.parametrize(
    # the rank oracle takes seconds on the 64- to 130-vertex cubes
    "name", [name for name in catalog.list_names() if len(catalog.get(name).polytope.vertices) <= 34]
)
def test_adjacency_matches_rank_oracle_on_catalog(name):
    _assert_adjacency_matches_rank(catalog.get(name).polytope)


def _facet_volume_per_call(facet):
    # the per-call computation facet_relative_volume replaced, kept as its oracle
    coords, _, _ = facet_coordinates(facet, facet.vertices)
    return volume(Polytope(coords))


# cube6_doublecone, cube7 and cube7_doublecone are left out only for time:
# the oracle's hulls of their 6- and 7-dimensional facets take 15 s
@pytest.mark.parametrize(
    "name",
    [
        e.name
        for e in catalog.entries()
        if 3 <= e.polytope.dim <= 6
        and any(len(f.vertices) > e.polytope.dim for f in e.polytope.facets)
    ],
)
def test_facet_relative_volume_matches_per_call_facet_hull(name):
    P = catalog.get(name).polytope
    # a copy without the factors a product or double cone reads its facet
    # volumes from, so every non-simplex facet goes through its facet polytope
    bare = copy.copy(P)
    bare._provenance = None
    bare._memo = {}
    for f in P.facets:
        if len(f.vertices) > P.dim:
            want = _facet_volume_per_call(f)
            assert facet_relative_volume(P, f) == want, f
            assert facet_relative_volume(bare, f) == want, f


# -- constructors: facet systems derived from the factors ---------------------


def facet_system(facets):
    return [(f.normal, f.offset, f.vertices) for f in facets]


def assert_ranks_hold(R):
    """The two rank facts a constructor derives from its factors: each
    facet's tight vertices have affine rank n - 1, and each vertex's active
    normals have rank n."""
    n = R.dim
    for f in R.facets:
        assert len(f.vertices) >= n, f
        rows = [linalg.vec_sub(v, f.vertices[0]) for v in f.vertices[1:]]
        assert linalg.rank_rational(rows) == n - 1, f
    for v in R.vertices:
        active = [f.normal for f in R.facets if f.value(v) == 0]
        assert linalg.rank_rational(active) == n, v


def assert_derivation_holds(R):
    """The hull of R's vertices finds R's facet system, the rank checks pass,
    and the facts R reads from its factors are the hull's.

    The hull's facet volumes come from its raw boundary simplices, which
    triangulate each facet F: coned from a vertex p at lattice height h over
    F, a simplex s adds |det(s - p)| = h (n-1)! relvol(s).  That avoids a
    hull per facet, which takes seconds on the 7-dimensional catalog entries.
    """
    fresh = Polytope(R.vertices)
    assert R.vertices == fresh.vertices
    assert facet_system(R.facets) == facet_system(fresh.facets)
    assert_ranks_hold(R)
    assert volume(R) == volume(fresh)
    assert centroid(R) == centroid(fresh)
    through = {v: {f for f in R.facets if f.value(v) == 0} for v in R.vertices}
    apex = {f: next(v for v in R.vertices if f.value(v) > 0) for f in R.facets}
    cone_volume = dict.fromkeys(R.facets, 0)
    for simplex in fresh.raw_boundary_simplices():
        (f,) = set.intersection(*(through[v] for v in simplex))
        cone_volume[f] += abs(linalg.det_int([linalg.vec_sub(q, apex[f]) for q in simplex]))
    for f in R.facets:
        h = f.value(apex[f])
        assert facet_relative_volume(R, f) * factorial(R.dim - 1) * h == cone_volume[f], f


def test_with_name_clone_shares_no_memo_with_its_original():
    P = Polytope(list(iproduct((0, 1), repeat=3)))
    assert volume(P) == 1
    Q = P.with_name("unit cube")
    f = Q.facets[0]
    # the clone computes its own facts and leaves its original's alone
    assert facet_polytope(Q, f) is not facet_polytope(P, f)
    assert volume(Q) == 1


def test_constructors_leave_their_factors_caches_unset():
    # building a product or a double cone computes no fact of its factors:
    # each is read from them on first use
    A = Polytope([(-1, -1), (1, 0), (0, 1)])
    B = Polytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    seg = Polytope([(-1,), (1,)])
    product(A, B)
    double_cone(A)
    double_cone(product(B, seg))
    for Q in (A, B, seg):
        assert Q._memo == {}, Q


def test_product_with_a_dual_factor_runs_no_hull(monkeypatch):
    cube6 = product(product(product(product(product(SEG, SEG), SEG), SEG), SEG), SEG)
    cross6 = dual(cube6)
    calls = []
    real = geometry.convex_hull

    def counting(points):
        calls.append(len(points))
        return real(points)

    monkeypatch.setattr(geometry, "convex_hull", counting)
    R = product(cross6, SEG)
    assert calls == []
    # the first fact read runs the factor's one hull, and no other
    assert volume(R) == 2 * Fraction(2**6, factorial(6))
    assert calls == [len(cross6.vertices)]


@pytest.mark.parametrize(
    "name", [e.name for e in catalog.entries() if e.polytope._provenance is not None]
)
def test_derived_catalog_entry_matches_its_hull(name):
    assert_derivation_holds(catalog.get(name).polytope)


def _units(dim):
    return [tuple(s if j == i else 0 for j in range(dim)) for i in range(dim) for s in (1, -1)]


def origin_interior(dim, bound=2):
    """Polytopes conv(+-e_i, up to three points of [-bound, bound]^dim)."""
    extra = st.lists(st.tuples(*[st.integers(-bound, bound)] * dim), max_size=3)
    return extra.map(lambda pts: Polytope(_units(dim) + pts))


polygons_and_solids = st.one_of(origin_interior(2), origin_interior(3))


@settings(max_examples=30, deadline=None)
@given(P=polygons_and_solids, Q=st.one_of(st.just(SEG), origin_interior(2)))
def test_random_product_matches_its_hull(P, Q):
    assert_derivation_holds(product(P, Q))


@settings(max_examples=30, deadline=None)
@given(P=polygons_and_solids)
def test_random_double_cone_matches_its_hull(P):
    assert_derivation_holds(double_cone(P))


@settings(max_examples=30, deadline=None)
@given(P=st.one_of(origin_interior(2, bound=1), origin_interior(3, bound=1)))
def test_random_reflexive_dual_matches_its_hull(P):
    # inside [-1, 1]^n the origin is the only interior lattice point, which
    # makes every polygon reflexive but not every 3-polytope
    assume(all(f.offset == 1 for f in P.facets))
    assert_derivation_holds(dual(P))


@settings(max_examples=60, deadline=None)
@given(P=st.one_of(origin_interior(2), origin_interior(3)), k=st.integers(1, 3))
def test_box_scan_matches_the_recursion_oracle_on_random_polytopes(P, k):
    assert geometry._box_scan(P, k) == _box_scan_by_recursion(P, k)


def test_constructors_run_no_rank_elimination(monkeypatch):
    # factors shaped like the catalog's: hulls of small polytopes and
    # products, whose volumes need no elimination either
    cube3 = product(product(SEG, SEG), SEG)
    A3 = Polytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    X6 = Polytope([(0, 1), (0, -1), (1, 0), (-1, 0), (1, -1), (-1, 1)])

    def refuse(rows):
        raise AssertionError("rank_rational reached")

    monkeypatch.setattr(geometry, "rank_rational", refuse)
    monkeypatch.setattr(linalg, "rank_rational", refuse)
    cube4 = product(cube3, SEG)
    built = [
        cube4,
        product(X6, SEG),
        dual(cube4),
        dual(A3),
        dual(dual(A3)),
        double_cone(cube4),
        double_cone(X6),
        double_cone(SEG),
    ]
    monkeypatch.undo()
    for R in built:
        assert_derivation_holds(R)


def _raw_facets_by_full_scan(pts):
    """hull_facets with each point's visible facets found by scanning every
    facet and every facet solved for by elimination (_facet_from_points),
    kept as the oracle for the ridge-map search and the ridge pencil."""
    from chowtool.geometry import _affine_basis, _facet_from_points
    from chowtool.linalg import dot

    n = len(pts[0])
    simplex = [pts[i] for i in _affine_basis(pts)]
    inside_sum = tuple(sum(c) for c in zip(*simplex))
    facets_ = {}
    ridge_map = {}
    ids = count()

    def ridges(raw):
        return [raw.verts[:i] + raw.verts[i + 1 :] for i in range(len(raw.verts))]

    def add(raw):
        fid = next(ids)
        facets_[fid] = raw
        for r in ridges(raw):
            ridge_map.setdefault(r, set()).add(fid)

    for i in range(n + 1):
        add(_facet_from_points(simplex[:i] + simplex[i + 1 :], inside_sum, n + 1))
    for p in pts:
        if p in simplex:
            continue
        visible = {fid for fid, f in facets_.items() if dot(f.normal, p) < f.h}
        horizon = [
            r for fid in visible for r in ridges(facets_[fid]) if ridge_map[r] - visible
        ]
        for fid in visible:
            for r in ridges(facets_.pop(fid)):
                ridge_map[r].discard(fid)
                if not ridge_map[r]:
                    del ridge_map[r]
        for r in horizon:
            add(_facet_from_points(list(r) + [p], inside_sum, n + 1))
    assert all(len(owners) == 2 for owners in ridge_map.values())
    return list(facets_.values())


def _hull_by_full_scan(points):
    """convex_hull over _raw_facets_by_full_scan."""
    from chowtool.linalg import dot, rank_rational

    pts = sorted(set(tuple(int(x) for x in p) for p in points))
    n = len(pts[0])
    raws = _raw_facets_by_full_scan(pts)
    merged = {}
    for raw in raws:
        merged.setdefault((raw.normal, raw.h), set()).update(raw.verts)
    candidates = sorted(set().union(*merged.values()))
    true_vertices = [
        v
        for v in candidates
        if rank_rational([nm for (nm, h) in merged if dot(nm, v) == h]) == n
    ]
    facet_list = [
        Facet(normal=nm, offset=-h, vertices=tuple(v for v in true_vertices if dot(nm, v) == h))
        for (nm, h) in sorted(merged)
    ]
    return true_vertices, facet_list, sorted(raw.verts for raw in raws)


def _raw_triples(raws):
    return sorted((raw.verts, raw.normal, raw.h) for raw in raws)


@st.composite
def _point_clouds(draw):
    d = draw(st.integers(2, 4))
    coord = st.integers(-3, 3)
    return draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=22, unique=True))


@settings(max_examples=150, deadline=None)
@given(_point_clouds())
def test_hull_visibility_search_matches_full_scan(points):
    try:
        want = _hull_by_full_scan(points)
    except NotFullDimensional:
        with pytest.raises(NotFullDimensional):
            convex_hull(points)
        return
    assert convex_hull(points) == want


@settings(max_examples=60, deadline=None)
@given(_point_clouds())
def test_adjacency_matches_rank_oracle_on_random_polytopes(points):
    try:
        P = Polytope(points)
    except NotFullDimensional:
        assume(False)
    _assert_adjacency_matches_rank(P)


@pytest.mark.parametrize(
    "name, k", [("X9", 3), ("X6", 4), ("P3_blowup4", 2), ("D_X8", 2), ("cuboctahedron", 1)]
)
def test_hull_of_lifted_lattice_points_matches_full_scan(name, k):
    # the paraboloid lift of a dilation puts every lattice point on the hull,
    # as delaunay_triangulation does
    pts = lattice_points(catalog.get(name).polytope, k)
    lifted = [p + (sum(x * x for x in p),) for p in pts]
    got = convex_hull(lifted)
    assert got == _hull_by_full_scan(lifted)
    assert {raw.verts for raw in geometry.hull_facets(sorted(lifted))} == set(got[2])


@st.composite
def _pencil_inputs(draw):
    """Points in Z^d, 2 <= d <= 5, in a drawn insertion order: a random
    cloud, the lattice points of a box lifted to the paraboloid (every point
    on the hull, many cospherical), or the lattice points of a box (many
    coplanar on every facet)."""
    d = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(("cloud", "lifted", "box")))
    if kind == "cloud":
        coord = st.integers(-2, 2)
        pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=24, unique=True))
    else:
        m = d - 1 if kind == "lifted" else d
        sides = draw(st.lists(st.integers(1, 2), min_size=m, max_size=m))
        assume(prod(s + 1 for s in sides) <= 40)
        box = iproduct(*[range(-(s // 2), s - s // 2 + 1) for s in sides])
        pts = [p + (sum(x * x for x in p),) if kind == "lifted" else p for p in box]
    return draw(st.permutations(pts))


@settings(max_examples=150, deadline=None)
@given(_pencil_inputs())
def test_hull_facets_from_the_pencil_match_the_elimination_oracle(pts):
    try:
        want = _raw_facets_by_full_scan(pts)
    except NotFullDimensional:
        with pytest.raises(NotFullDimensional):
            geometry.hull_facets(pts)
        return
    assert _raw_triples(geometry.hull_facets(pts)) == _raw_triples(want)


def test_pencil_facet_raises_without_asserts():
    from chowtool.geometry import _RawFacet, _pencil_facet

    # two opposite facets through the ridge {(0, 0)}: their pencil at p is 0
    seen = _RawFacet(((0, 0), (0, 1)), (1, 0), 0)
    kept = _RawFacet(((0, -1), (0, 0)), (-1, 0), 0)
    with pytest.raises(AssertionError, match="degenerate"):
        _pencil_facet(((0, 0),), (-1, 0), seen, kept, (1, 1), 1)
    # a sound pencil, x + y >= 0 through (0, 0) and (-1, 1), checked against
    # a point on its outer side
    kept = _RawFacet(((0, 0), (1, 0)), (0, 1), 0)
    with pytest.raises(AssertionError, match="not inward"):
        _pencil_facet(((0, 0),), (-1, 1), seen, kept, (-1, -1), 1)
    assert _pencil_facet(((0, 0),), (-1, 1), seen, kept, (1, 1), 1).normal == (1, 1)


@pytest.mark.parametrize("name", ["P3_blowup4", "X9_x_segment"])
def test_delaunay_cells_match_the_elimination_oracle_hull(name):
    from chowtool.triangulation import delaunay_triangulation

    pts = lattice_points(catalog.get(name).polytope, 2)
    lifted = [p + (sum(x * x for x in p),) for p in pts]
    index = {q: i for i, q in enumerate(lifted)}
    want = sorted(
        tuple(index[q] for q in raw.verts)
        for raw in _raw_facets_by_full_scan(lifted)
        if raw.normal[-1] > 0
    )
    T = delaunay_triangulation(pts)
    assert T.points == tuple(pts)
    assert sorted(T.cells) == want
