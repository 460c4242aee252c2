import copy
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, permutations, product as iproduct
from math import comb, factorial, prod
from operator import and_, attrgetter, sub

import pytest
from hypothesis import example, given, settings, strategies as st

from chowtool import catalog, triangulation
from chowtool.errors import DegenerateSimplex, NotFullDimensional, NotReflexive, NoStrategy
from chowtool.geometry import (
    Polytope,
    boundary_volume,
    double_cone,
    facet_polytope,
    product,
    volume,
    lattice_points,
)
from chowtool.triangulation import (
    BoundaryReport,
    LatticeSimplex,
    Triangulation,
    cell_blocks,
    cycle_strata,
    level1_boundary,
    level1_cycles,
    make_simplex,
    staircase_chain,
    standard_simplex_triangulation,
    boundary_triangulation,
    cone_over_boundary,
    full_triangulation,
    delaunay_triangulation,
    verify_regular_boundary,
    incidence,
    polygon_unimodular_triangulation,
)
from chowtool.linalg import dot, simplex_edge_matrix, simplex_relative_volume_times_factorial

X3 = Polytope([(-1, -1), (1, 0), (0, 1)], name="X3")
X4 = Polytope([(1, 0), (-1, 0), (0, 1), (0, -1)], name="X4")
X6 = Polytope([(0, 1), (0, -1), (1, 0), (-1, 0), (1, -1), (-1, 1)], name="X6")
X8 = Polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)], name="X8")
X9 = Polytope([(-1, -1), (2, -1), (-1, 2)], name="X9")


def tight_run_structure(n, k, p):
    """Cyclic runs of tight walls of kT_n at p (walls: x_i = 0 and sum = k)."""
    tight = [p[i] == 0 for i in range(n)] + [sum(p) == k]
    m = n + 1
    start = next(i for i in range(m) if not tight[i])
    runs, cur = [], 0
    for i in range(m):
        if tight[(start + i) % m]:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    if cur:
        runs.append(cur)
    return runs


def expected_incidence(n, runs):
    denom = 1
    for r in runs:
        denom *= factorial(r + 1)
    return factorial(n + 1) // denom


def test_alcove_cell_counts_and_examples():
    T = standard_simplex_triangulation(2, 2)
    assert len(T) == 4
    inc = incidence(T)
    assert inc[(0, 0)] == 1 and inc[(2, 0)] == 1 and inc[(0, 2)] == 1
    assert inc[(1, 0)] == 3  # edge-interior: 3!/2!
    T = standard_simplex_triangulation(2, 3)
    assert len(T) == 9
    assert incidence(T)[(1, 1)] == 6  # interior point: 3!
    assert len(standard_simplex_triangulation(3, 1)) == 1


def test_alcove_unimodular_and_volume():
    for n, k in [(2, 3), (3, 2), (4, 2)]:
        T = standard_simplex_triangulation(n, k)
        assert len(T) == k ** n
        assert T.all_unimodular()
        assert T.relative_volume() == Fraction(k ** n, factorial(n))


def test_alcove_incidence_run_product_formula():
    # exhaustive over all lattice points: count = (n+1)!/prod (r_i + 1)!
    for n in range(1, 5):
        for k in range(1, 5):
            inc = incidence(standard_simplex_triangulation(n, k))
            for p, c in inc.items():
                assert c == expected_incidence(n, tight_run_structure(n, k, p))


def test_alcove_single_run_matches_stated_formula():
    # on skeleton points whose tight walls form one run the count is
    # (n+1)!/(r+1)!, the form used for the standard-simplex lemma
    found = 0
    for n in range(2, 5):
        for k in range(2, 5):
            inc = incidence(standard_simplex_triangulation(n, k))
            for p, c in inc.items():
                runs = tight_run_structure(n, k, p)
                if len(runs) == 1:
                    assert c == factorial(n + 1) // factorial(runs[0] + 1)
                    found += 1
    assert found > 100


def _alcove_cells(verts, k):
    images, cells = triangulation._alcove_block([tuple(v) for v in verts], k)
    return [make_simplex([images[i] for i in c]) for c in cells]


def test_refine_matches_standard():
    base = [(0, 0), (1, 0), (0, 1)]
    cells = _alcove_cells(sorted(base), 3)
    T = standard_simplex_triangulation(2, 3)
    assert sorted(c.vertices for c in cells) == [s.vertices for s in T.simplices]


def test_boundary_triangulation_X4():
    for k in (1, 2, 3):
        B = boundary_triangulation(X4, k)
        assert len(B) == 4 * k
        counts = set(incidence(B).values())
        assert counts == {2}
        assert verify_regular_boundary(X4, B, k).regular


def test_boundary_triangulation_octahedron():
    D = double_cone(X4)
    B = boundary_triangulation(D, 1)
    assert len(B) == 8
    inc = incidence(B)
    assert all(inc[v] == 4 for v in D.vertices)
    assert verify_regular_boundary(D, B, 1).regular


def test_boundary_DX8_apex_incidence():
    D = double_cone(X8)
    for k in (1, 2, 3):
        B = boundary_triangulation(D, k)
        inc = incidence(B)
        assert inc[(0, 0, k)] == 8
        assert inc[(0, 0, -k)] == 8
    report = verify_regular_boundary(D, boundary_triangulation(D, 2), 2)
    assert not report.regular
    assert report.max_incidence == 8 > report.incidence_bound == 6
    assert (0, 0, 2) in report.offenders


def test_boundary_DX9_forced_witness():
    D = double_cone(X9)
    for k in (1, 2):
        B = boundary_triangulation(D, k)
        assert incidence(B)[(0, 0, k)] == 9
        report = verify_regular_boundary(D, B, k)
        assert not report.regular
        assert report.max_incidence == 9


def test_regular_X6():
    B = boundary_triangulation(X6, 2)
    assert verify_regular_boundary(X6, B, 2).regular


def test_regular_cuboctahedron():
    cubocta = Polytope(
        [
            (1, 0, 0),
            (-1, 0, 0),
            (0, 1, 0),
            (0, -1, 0),
            (1, -1, 0),
            (-1, 1, 0),
            (0, 0, 1),
            (0, 0, -1),
            (1, 0, -1),
            (-1, 0, 1),
            (0, 1, -1),
            (0, -1, 1),
        ],
        name="cuboctahedron",
    )
    report = verify_regular_boundary(cubocta, boundary_triangulation(cubocta, 1), 1)
    assert report.regular
    assert report.max_incidence <= 6


def test_incidence_single_simplex():
    s = make_simplex([(0, 0), (1, 0), (0, 1)])
    T = Triangulation(dim=2, simplices=(s,))
    assert incidence(T) == {(0, 0): 1, (1, 0): 1, (0, 1): 1}


def test_cone_over_boundary():
    B = boundary_triangulation(X4, 1)
    C = cone_over_boundary(X4, B)
    assert len(C) == 4
    assert incidence(C)[(0, 0)] == 4
    B2 = boundary_triangulation(X3, 2)
    C2 = cone_over_boundary(X3, B2)
    assert len(C2) == 6
    assert C2.relative_volume() == volume(X3) * 4  # Vol(2 X3)
    D = double_cone(X4)
    C3 = cone_over_boundary(D, boundary_triangulation(D, 1))
    assert len(C3) == 8
    assert all(s.relative_volume() == Fraction(1, 6) for s in C3.simplices)
    with pytest.raises(NotReflexive):
        cone_over_boundary(Polytope([(0, 0), (2, 0), (0, 1)]), B)


def test_cone_over_boundary_origin_raises_without_asserts():
    # an explicit raise, so python -O keeps it
    inner = make_simplex([(0, 0), (1, 0)])
    B = Triangulation(dim=1, simplices=boundary_triangulation(X4, 1).simplices + (inner,))
    with pytest.raises(AssertionError, match="passes through the origin"):
        cone_over_boundary(X4, B)


def test_cone_boundary_incidence_matches_m():
    # for boundary points the cone counts equal the boundary counts
    B = boundary_triangulation(X6, 2)
    C = cone_over_boundary(X6, B)
    m = incidence(B)
    n = incidence(C)
    for p, mval in m.items():
        assert n[p] == mval


def test_full_triangulation_volume_and_coverage():
    for P in (X4, X6, double_cone(X4), double_cone(X8)):
        for k in (1, 2):
            F = full_triangulation(P, k)
            assert F.relative_volume() == volume(P) * k ** P.dim
            assert F.all_unimodular()
            pts = set(lattice_points(P, k))
            assert {v for s in F.simplices for v in s.vertices} == pts


def test_incidence_sum_identity():
    # sum of n(p) = (number of simplices) (d+1)
    for T in (
        standard_simplex_triangulation(2, 3),
        standard_simplex_triangulation(3, 2),
        boundary_triangulation(X6, 2),
    ):
        total = sum(incidence(T).values())
        assert total == len(T) * (T.dim + 1)


def test_delaunay_has_all_points_as_vertices():
    pts = lattice_points(X8, 1)
    D = delaunay_triangulation(pts)
    assert {v for s in D.simplices for v in s.vertices} == set(pts)
    assert D.relative_volume() == volume(X8)


def test_polygon_triangulation_strategies():
    # X9 is a shifted 3 T_2: alcove cells, interior valence 6
    tris = polygon_unimodular_triangulation(X9)
    assert len(tris) == 9
    # X8 is a box: staircase cells
    tris8 = polygon_unimodular_triangulation(X8)
    assert len(tris8) == 8
    counts = {}
    for t in tris8:
        for v in t:
            counts[v] = counts.get(v, 0) + 1
    assert counts[(0, 0)] == 6
    # X6 has one interior point: fan
    tris6 = polygon_unimodular_triangulation(X6)
    assert len(tris6) == 6
    # a sheared X8 is a unimodular parallelogram, no aligned box: the
    # staircase in its own edge basis, not the 8-triangle fan
    sheared = polygon_unimodular_triangulation(Polytope([(x + y, y) for x, y in X8.vertices]))
    assert len(sheared) == 8
    assert Counter(chain.from_iterable(sheared))[(0, 0)] == 6


# ---------------------------------------------------------------------------
# the facet-only polygon triangulation that polygon_unimodular_triangulation
# replaced, kept as its oracle on the polygon facets of 3-polytopes
# ---------------------------------------------------------------------------


def _polygon_facet_level1_by_strategies(P, facet):
    poly, basis, anchor = facet_polytope(P, facet)
    pts2 = poly.vertices
    all2 = lattice_points(poly, 1)
    interior = [p for p in all2 if poly.strictly_contains(p)]

    def back(p2):
        return tuple(
            a + sum(b[i] * c for b, c in zip(basis, p2)) for i, a in enumerate(anchor)
        )

    para = triangulation._as_parallelogram(pts2)
    if para is not None:
        v0, p1, l1, p2_, l2 = para
        cells = []
        for cell in triangulation._freudenthal_box_cells([0, 0], [l1, l2]):
            mapped = []
            for (x, y) in cell:
                pt = tuple(v0[i] + x * p1[i] + y * p2_[i] for i in range(2))
                mapped.append(back(pt))
            cells.append(mapped)
            if simplex_relative_volume_times_factorial(mapped) != 1:
                raise NoStrategy("parallelogram strategy produced a bad triangle")
        return cells

    if len(interior) == 1:
        center = interior[0]
        cycle = triangulation._boundary_cycle(poly, all2)
        tris = []
        for i in range(len(cycle)):
            tris.append((center, cycle[i], cycle[(i + 1) % len(cycle)]))
    elif len(interior) == 0:
        cycle = triangulation._boundary_cycle(poly, all2)
        valence = {}
        for p2 in cycle:
            amb = back(p2)
            valence[p2] = sum(1 for f in P.facets if amb in f.vertices)
        tris = triangulation._best_cycle_triangulation(cycle, [valence[p] for p in cycle])
        if tris is None:
            raise NoStrategy("empty polygon facet admits no unimodular triangulation")
    else:
        raise NoStrategy("polygon facet with several interior points")

    cells = []
    for tri in tris:
        cell = [back(p2) for p2 in tri]
        cells.append(cell)
        if simplex_relative_volume_times_factorial(cell) != 1:
            raise NoStrategy("polygon strategy produced a non-unimodular triangle")
    return cells


def _cell_set(cells):
    return {tuple(sorted(c)) for c in cells}


_CATALOG_3D = [name for name in catalog.list_names() if catalog.get(name).polytope.dim == 3]


@pytest.mark.parametrize("name", _CATALOG_3D)
def test_polygon_facets_match_the_facet_strategy_oracle(name):
    P = catalog.get(name).polytope
    polygons = [
        f
        for f in P.facets
        if triangulation._facet_as_dilated_simplex(f) is None
        and triangulation._facet_as_aligned_box(f) is None
    ]
    try:
        oracle = {f.normal: _cell_set(_polygon_facet_level1_by_strategies(P, f)) for f in polygons}
    except NoStrategy:
        with pytest.raises(NoStrategy):
            level1_boundary(P)
        return
    got = {f.normal: _cell_set(cells) for f, cells in level1_boundary(P)}
    assert {normal: got[normal] for normal in oracle} == oracle


_BOX_FACETED = [
    name
    for name in catalog.list_names()
    if catalog.get(name).polytope.dim <= 4
    and any(map(triangulation._facet_as_aligned_box, catalog.get(name).polytope.facets))
]


def _boundary_staircasing_boxes(P, k):
    """The boundary table of kP with k times each box facet staircased
    directly, every other facet alcove-refined from its level-1 cells."""
    blocks = []
    for facet, cells in level1_boundary(P):
        box = triangulation._facet_as_aligned_box(facet)
        if box is None:
            blocks.extend(triangulation._alcove_block(sorted(cell), k) for cell in cells)
            continue
        active, los, his = box
        fixed = [k * c for c in los]
        points, box_cells = triangulation._freudenthal_box_block(
            [k * los[i] for i in active], [k * his[i] for i in active]
        )
        blocks.append(([triangulation._embed(active, fixed, p) for p in points], box_cells))
    return Triangulation.from_blocks(P.dim - 1, blocks)


@pytest.mark.parametrize(
    "name, ks",
    [pytest.param(name, (1, 2, 3), id=name) for name in _BOX_FACETED]
    + [pytest.param("cube5", (2,), id="cube5-k2")],
)
def test_box_facet_staircase_is_the_alcove_refinement_of_level1(name, ks):
    # boundary_triangulation alcove-refines the level-1 staircase of a box
    # facet; that is the staircase of k times the box, so box facets keep
    # the stratum law of every other facet
    P = catalog.get(name).polytope
    for k in ks:
        T = boundary_triangulation(P, k)
        staircased = _boundary_staircasing_boxes(P, k)
        assert T.points == staircased.points
        assert T.cells == staircased.cells


def test_no_strategy_for_unsupported_facets():
    from chowtool.triangulation import level1_boundary
    from chowtool.geometry import product as prod

    seg = Polytope([(-1,), (1,)])
    C4 = prod(prod(seg, seg), prod(seg, seg))
    D = double_cone(C4)  # 5-dimensional pyramidal facets: not covered
    with pytest.raises(NoStrategy):
        level1_boundary(D)


def test_dilation_stratum_stability():
    # max incidence of strategy triangulations stabilizes across dilations
    for P in (X6, double_cone(X4), double_cone(X8)):
        maxima = []
        for k in (2, 3, 4):
            maxima.append(max(incidence(boundary_triangulation(P, k)).values()))
        assert maxima[0] == maxima[1] == maxima[2]


def _relint_points(verts, k):
    """relint(k conv(verts)) of a unimodular face: sum a_i v_i over the
    compositions a of k into len(verts) positive parts."""
    out = []
    for cuts in combinations(range(1, k), len(verts) - 1):
        parts = [b - a for a, b in zip((0,) + cuts, cuts + (k,))]
        out.append(tuple(map(sum, zip(*([a * x for x in v] for a, v in zip(parts, verts))))))
    return out


def _stratum_prediction(P, k):
    """{point of the boundary of kP: its level-1 stratum's incidence}.

    Each face F of the level-1 table gives C(k-1, dim F) points, and the
    relative interiors of distinct faces share none."""
    T1 = boundary_triangulation(P, 1)
    out = {}
    for face, c in T1.stratum_incidence().items():
        points = _relint_points([T1.points[i] for i in face], k)
        assert len(set(points)) == len(points) == comb(k - 1, len(face) - 1)
        for p in points:
            assert p not in out
            out[p] = c
    return out


# every reflexive entry of dimension <= 5 has a level-1 complex
_STRATUM_ENTRIES = [
    name
    for name in catalog.list_names()
    if catalog.get(name).polytope.dim <= 5
    and all(f.offset == 1 for f in catalog.get(name).polytope.facets)
]


@pytest.mark.parametrize("name", _STRATUM_ENTRIES)
def test_stratum_incidence_matches_the_enumeration(name):
    P = catalog.get(name).polytope
    for k in (1, 2, 3):
        assert _stratum_prediction(P, k) == boundary_triangulation(P, k).incidence(), k
    # the k = 4 tables of cube5 and simplexPn5 hold about 1 and 2 million
    # cells, so at k = 4 the maxima are compared on the smaller tables only
    T1 = boundary_triangulation(P, 1)
    strata = T1.stratum_incidence()
    # check_special records the largest vertex stratum as the maximum at k = 1;
    # a segment's boundary has no volume to verify against
    if P.dim > 1:
        vertex_max = max(c for face, c in strata.items() if len(face) == 1)
        assert vertex_max == verify_regular_boundary(P, T1, 1).max_incidence
    if len(T1) * 4 ** (P.dim - 1) <= 200_000:
        sampled = max(c for face, c in strata.items() if len(face) <= 4)
        assert sampled == max(boundary_triangulation(P, 4).incidence().values())


def _level1_strata(P, order=tuple):
    """(points, full strata, boundary strata) of P's level-1 complexes, the
    full cells read along order(cycle)."""
    cycles = level1_cycles(P)
    boundary = [sorted(c) for _, cells in level1_boundary(P) for c in cells]
    points = tuple(sorted({v for c in cycles for v in c}))
    index = {p: i for i, p in enumerate(points)}
    full = cycle_strata(points, [tuple(index[v] for v in order(c)) for c in cycles])
    return points, full, cycle_strata(points, [tuple(index[v] for v in c) for c in boundary])


def _strata_prediction(points, strata, k):
    """{point of kP: its stratum's incidence}, the relative interiors of the
    dilated faces being disjoint."""
    out = {}
    for face, c in strata.items():
        for p in _relint_points([points[i] for i in face], k):
            assert p not in out
            out[p] = c
    return out


# every reflexive entry of dimension <= 4 has a level-1 complex; D_X8 and
# D_X9 are bipyramids, whose cycles are not lexicographic
_CYCLE_ENTRIES = [name for name in _STRATUM_ENTRIES if catalog.get(name).polytope.dim <= 4]


@pytest.mark.parametrize("name", _CYCLE_ENTRIES)
def test_stratum_sums_along_cycles_match_the_enumeration_of_both_tables(name):
    P = catalog.get(name).polytope
    points, full, boundary = _level1_strata(P)
    for k in (1, 2, 3):
        assert _strata_prediction(points, full, k) == full_triangulation(P, k).incidence(), k
        assert _strata_prediction(points, boundary, k) == boundary_triangulation(P, k).incidence(), k


@pytest.mark.parametrize("name", ["D_X8", "D_X9"])
def test_bipyramid_strata_need_their_cycles(name):
    # read along lexicographic cycles, the bipyramid's cells give other
    # counts than its tables: the explicit cycles are what the law needs
    P = catalog.get(name).polytope
    assert any(list(c) != sorted(c) for c in level1_cycles(P))
    points, full, _ = _level1_strata(P, order=sorted)
    assert _strata_prediction(points, full, 2) != full_triangulation(P, 2).incidence()


def _no_wrap_run_product(d, face):
    # the first and the last run counted apart, as if the cycle were a path
    runs = [face[0], d - face[-1]] + [b - a - 1 for a, b in zip(face, face[1:])]
    return factorial(d + 1) // prod(factorial(r + 1) for r in runs)


def _cycle_relabelled(order):
    # the law read on the cycle order[0], ..., order[d] instead of 0, ..., d
    law = triangulation._run_product

    def mutated(d, face):
        return law(d, tuple(sorted(order(d)[i] for i in face)))

    return mutated


@pytest.mark.parametrize(
    "mutant",
    [
        _no_wrap_run_product,
        # a transposition of two adjacent positions is no dihedral relabelling
        # once d >= 3
        _cycle_relabelled(lambda d: [0, 2, 1] + list(range(3, d + 1))),
    ],
    ids=["runs-without-wrap-around", "transposed-cycle"],
)
@pytest.mark.parametrize("name", ["D4", "simplexPn4", "cube4"])
def test_stratum_oracle_rejects_a_mutated_law(name, mutant, monkeypatch):
    P = catalog.get(name).polytope
    monkeypatch.setattr(triangulation, "_run_product", mutant)
    assert _stratum_prediction(P, 2) != boundary_triangulation(P, 2).incidence()


def test_stratum_incidence_is_invariant_under_reversing_the_cycle(monkeypatch):
    # the runs of a reversed cycle are those of the cycle, so the dihedral
    # relabelling the alcove rule allows changes no count
    P = catalog.get("simplexPn4").polytope
    want = boundary_triangulation(P, 1).stratum_incidence()
    monkeypatch.setattr(triangulation, "_run_product", _cycle_relabelled(lambda d: list(range(d, -1, -1))))
    assert boundary_triangulation(P, 1).stratum_incidence() == want


def test_verify_regular_boundary_refuses_a_table_of_the_wrong_dimension():
    # the four edges of the square |x| + |y| = 1 have the relative volume 4
    # of the boundary of the octahedron D3, in Z^2 and in Z^3 alike
    P = catalog.get("D3").polytope
    square = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for lift in ((), (0,)):
        edges = [[a + lift, b + lift] for a, b in zip(square, square[1:] + square[:1])]
        T = Triangulation.from_blocks(1, cell_blocks(edges))
        assert T.relative_volume() == boundary_volume(P)
        with pytest.raises(ValueError, match="^a boundary table of a polytope in Z\\^3 has "):
            verify_regular_boundary(P, T, 1)


def test_stratum_incidence_refuses_a_table_that_is_not_unimodular():
    T = Triangulation(dim=2, simplices=(make_simplex([(0, 0), (2, 0), (0, 1)]),))
    with pytest.raises(ValueError, match="unimodular"):
        T.stratum_incidence()


def test_stratum_sums_along_cycles_refuse_a_cell_that_is_not_unimodular():
    points = ((0, 0), (0, 1), (1, 0), (2, 0))
    # a point of the dilated triangle lies in 1, 3 or 6 of its alcoves
    assert cycle_strata(points, [(0, 2, 1)]) == {
        (0,): 1, (1,): 1, (2,): 1, (0, 1): 3, (0, 2): 3, (1, 2): 3, (0, 1, 2): 6
    }
    with pytest.raises(ValueError, match="unimodular"):
        cycle_strata(points, [(0, 3, 1)])


def _alcove_refine_cycle_by_points(verts, k):
    """Oracle: the per-point alcove mapping, each chain point mapped from
    scratch through k*base + sum_j x_j (v_j - base)."""
    from chowtool.triangulation import _alcove_cells_order_simplex, _y_to_x

    verts = [tuple(v) for v in verts]
    d = len(verts) - 1
    base = verts[0]
    cols = [tuple(a - b for a, b in zip(v, base)) for v in verts[1:]]
    cells = []
    for chain in _alcove_cells_order_simplex(d, k):
        mapped = []
        for y in chain:
            x = _y_to_x(y)
            mapped.append(
                tuple(
                    k * base[i] + sum(cols[j][i] * x[j] for j in range(d))
                    for i in range(len(base))
                )
            )
        cells.append(make_simplex(mapped))
    return cells


def _random_unimodular_simplex(rng, d, n):
    """Vertices base, base + u_1, ..., base + u_d for the first d columns
    of a random matrix in GL(n, Z), in shuffled order."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    base = tuple(rng.randint(-3, 3) for _ in range(n))
    verts = [base] + [
        tuple(b + u[r][j] for r, b in enumerate(base)) for j in range(d)
    ]
    rng.shuffle(verts)
    return verts


def test_alcove_refine_cycle_matches_per_point_oracle():
    from random import Random

    rng = Random(20)
    for d in range(1, 5):
        for k in range(1, 5):
            for n in (d, d + 1):
                for _ in range(3):
                    verts = _random_unimodular_simplex(rng, d, n)
                    assert make_simplex(verts).is_unimodular()
                    got = _alcove_cells(verts, k)
                    assert got == _alcove_refine_cycle_by_points(verts, k)
                    assert len(got) == k ** d


def test_cached_volume_matches_minor_gcd():
    from random import Random

    from chowtool.linalg import simplex_relative_volume_times_factorial

    rng = Random(21)
    seen_big = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        d = rng.randint(1, n)
        verts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(d + 1)]
        s = make_simplex(verts)
        g = simplex_relative_volume_times_factorial(s.vertices)
        assert s.volume_times_factorial == g
        assert s.relative_volume() == Fraction(g, factorial(d))
        assert s.is_unimodular() == (g == 1)
        seen_big += g > 1
    assert seen_big > 100
    # a triangulation adds the cached values over one d!
    cells = tuple(
        make_simplex([(0, 0), (m, 0), (0, 1)]) for m in range(1, 6)
    )
    T = Triangulation(dim=2, simplices=cells)
    assert T.relative_volume() == sum(s.relative_volume() for s in cells)
    assert T.relative_volume() == Fraction(15, 2)


def _cube4():
    return Polytope(list(iproduct((-1, 1), repeat=4)))


def test_verify_flags_face_incompatible_facet_subdivisions():
    C = _cube4()
    B = boundary_triangulation(C, 1)
    assert verify_regular_boundary(C, B, 1).regular
    # mirror the staircase cells of the facet x_1 = 1 in x_2: that facet
    # alone is still a unimodular triangulation, but its squares shared
    # with the facets x_3 = +-1 and x_4 = +-1 now carry the other diagonal
    def flip(v):
        return (v[0], -v[1]) + v[2:]

    cells = [
        make_simplex([flip(v) for v in s.vertices])
        if all(v[0] == 1 for v in s.vertices)
        else s
        for s in B.simplices
    ]
    T = Triangulation(dim=3, simplices=tuple(cells))
    census = T.ridge_census()
    assert all(list(face) == sorted(face) for face in census)
    assert 1 in census.values()
    report = verify_regular_boundary(C, T, 1)
    assert report.coverage_ok and report.all_unimodular and report.facet_aligned
    assert not report.face_compatible
    assert not report.regular


def test_verify_flags_cell_on_no_facet():
    octa = Polytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    B = boundary_triangulation(octa, 1)
    assert verify_regular_boundary(octa, B, 1).facet_aligned
    # a unimodular triangle through the interior point 0: on no facet
    inner = make_simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert inner.is_unimodular()
    T = Triangulation(dim=2, simplices=B.simplices[1:] + (inner,))
    report = verify_regular_boundary(octa, T, 1)
    assert not report.facet_aligned
    assert not report.regular


def _translate(verts, t):
    return [tuple(a + b for a, b in zip(v, t)) for v in verts]


def _double_last_edge(verts):
    """The sorted simplex with its lexicographically largest edge doubled:
    the edge stays the largest, so only the last row of the edge matrix
    changes."""
    v = sorted(verts)
    return v[:-1] + [tuple(2 * b - a for a, b in zip(v[0], v[-1]))]


def _volumes_counting_kernel_calls(T):
    calls = []
    kernel = triangulation.edge_matrix_volume_times_factorial

    def counted(edges):
        calls.append(edges)
        return kernel(edges)

    triangulation.edge_matrix_volume_times_factorial = counted
    try:
        return T.volumes(), len(calls)
    finally:
        triangulation.edge_matrix_volume_times_factorial = kernel


@st.composite
def _translated_shapes(draw):
    """A few d-simplex shapes in Z^n (1 <= d <= 4, d <= n <= 5), unimodular
    and not, each with its last edge doubled too and each with its
    coordinates permuted, every shape placed at many translations in
    shuffled order."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d, 5))
    rng = draw(st.randoms(use_true_random=False))
    coord = st.integers(-2, 2)
    shapes = [_random_unimodular_simplex(rng, d, n)]
    for _ in range(draw(st.integers(1, 3))):
        shapes.append(
            draw(st.lists(st.tuples(*[coord] * n), min_size=d + 1, max_size=d + 1))
        )
    shapes += [_double_last_edge(v) for v in shapes]
    perm = draw(st.permutations(range(n)))
    shapes += [[tuple(x[i] for i in perm) for x in v] for v in shapes]
    shifts = draw(
        st.lists(st.tuples(*[st.integers(-6, 6)] * n), min_size=3, max_size=20, unique=True)
    )
    cells = [make_simplex(_translate(v, t)) for v in shapes for t in shifts]
    rng.shuffle(cells)
    return d, shapes, cells


@settings(max_examples=100, deadline=None)
@given(_translated_shapes())
@example(
    # a shape and the same shape with its coordinates cycled, moved by
    # (5, 0, 0): the second misses both the packed key of the first (another
    # edge matrix) and its vertex columns (another translate)
    (
        3,
        [[(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 1, 3)], [(0, 0, 0), (0, 0, 2), (0, 1, 0), (3, 1, 1)]],
        [
            make_simplex([(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 1, 3)]),
            make_simplex([(5, 0, 0), (5, 0, 2), (5, 1, 0), (8, 1, 1)]),
        ],
    )
)
def test_volumes_match_every_cell_with_one_kernel_call_per_shape(case):
    d, shapes, cells = case
    T = Triangulation(dim=d, simplices=tuple(cells))
    vols, calls = _volumes_counting_kernel_calls(T)
    expected = tuple(simplex_relative_volume_times_factorial(s.vertices) for s in T.simplices)
    assert vols == expected
    # at most one call per shape up to translation
    assert calls <= len({simplex_edge_matrix(make_simplex(v).vertices) for v in shapes})
    assert T.volumes() is vols
    assert T.relative_volume() == Fraction(sum(expected), factorial(d))
    assert T.all_unimodular() == all(g == 1 for g in expected)


def test_volumes_tell_apart_shapes_sharing_all_but_one_edge():
    # sorted edge matrices ((0, 1), (1, 0)), ((0, 2), (1, 0)), ((0, 1), (2, 0))
    shapes = {
        ((0, 0), (0, 1), (1, 0)): 1,
        ((0, 0), (0, 2), (1, 0)): 2,
        ((0, 0), (0, 1), (2, 0)): 2,
    }
    cells = [
        make_simplex(_translate(v, (a, b))) for v in shapes for a in range(3) for b in range(3)
    ]
    T = Triangulation(dim=2, simplices=tuple(cells))
    vols, calls = _volumes_counting_kernel_calls(T)
    back = [tuple(_translate(s.vertices, [-x for x in s.vertices[0]])) for s in T.simplices]
    assert vols == tuple(shapes[v] for v in back)
    assert calls == 3


def test_volumes_share_one_kernel_call_across_staircase_orders():
    # the 4! staircase cells of a unit cube differ by a permutation of the
    # coordinates, which keeps their vertex chains in lexicographic order
    cells = [
        make_simplex(c) for c in triangulation._freudenthal_box_cells([0] * 4, [2] * 4)
    ]
    T = Triangulation(dim=4, simplices=tuple(cells))
    vols, calls = _volumes_counting_kernel_calls(T)
    assert len(vols) == 16 * 24
    assert set(vols) == {1}
    assert calls == 1


def _volumes_by_flat_memo(T):
    """The flat-tuple first level that packed cell keys replaced in
    Triangulation.volumes, kept as its oracle: each cell keyed by its edges
    from the first vertex as one tuple of coordinates."""
    get = T.points.__getitem__
    flat_memo = {}
    memo = {}
    out = []
    for cell in T.cells:
        first = get(cell[0])
        flat = tuple(map(sub, chain.from_iterable(map(get, cell[1:])), first * (len(cell) - 1)))
        vol = flat_memo.get(flat)
        if vol is None:
            n = len(first)
            key = tuple(sorted([flat[j::n] for j in range(n)]))
            vol = memo.get(key)
            if vol is None:
                vol = memo[key] = triangulation.edge_matrix_volume_times_factorial(tuple(zip(*key)))
            flat_memo[flat] = vol
        out.append(vol)
    return tuple(out)


@st.composite
def _wide_tables(draw):
    """Cells of dimension d <= n <= 8 with coordinates up to 10^6 in size: a
    few shapes, each also with one coordinate of its last vertex moved by 1
    (edge matrices one entry apart), each at several translations."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(0, n))
    half = 5 * 10**5
    point = st.tuples(*[st.integers(-half, half)] * n)
    shapes = draw(st.lists(st.lists(point, min_size=d + 1, max_size=d + 1), min_size=1, max_size=3))
    j = draw(st.integers(0, n - 1))
    step = draw(st.sampled_from((-1, 1)))
    shapes += [v[:-1] + [v[-1][:j] + (v[-1][j] + step,) + v[-1][j + 1 :]] for v in shapes]
    shifts = draw(st.lists(point, min_size=1, max_size=4, unique=True))
    return d, [make_simplex(_translate(v, t)) for v in shapes for t in shifts]


@settings(max_examples=200, deadline=None)
@given(_wide_tables())
def test_volumes_match_the_cell_oracle_on_wide_coordinates(case):
    d, cells = case
    T = Triangulation(dim=d, simplices=tuple(cells))
    expected = tuple(simplex_relative_volume_times_factorial(s.vertices) for s in T.simplices)
    assert T.volumes() == expected
    assert _volumes_by_flat_memo(T) == expected


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_volumes_of_every_simplex_in_a_small_box(n, d):
    # every d-simplex, degenerate ones too, on the points of {0, 1, 2}^n:
    # the edge coordinates reach both ends of [-span, span], and keys that
    # would collide across radix digits are all present
    box = list(iproduct(range(3), repeat=n))
    T = Triangulation(dim=d, simplices=tuple(map(make_simplex, combinations(box, d + 1))))
    expected = tuple(simplex_relative_volume_times_factorial(s.vertices) for s in T.simplices)
    assert T.volumes() == expected


@pytest.mark.parametrize(
    "cells",
    [
        # sorted, the segment comes first; weights made for its one edge
        # would key the triangle by that edge alone and give it volume 1
        [[(0, 0), (0, 1)], [(0, 0), (0, 1), (2, 0)]],
        [[(0,), (1, 0)]],
    ],
    ids=["cells", "points"],
)
def test_volumes_refuse_a_table_of_mixed_length(cells):
    T = Triangulation(dim=1, simplices=tuple(map(make_simplex, cells)))
    with pytest.raises(ValueError, match="mixed length"):
        T.volumes()


def test_volumes_of_the_cube7_carrier_peak_under_a_quarter_of_the_flat_memo():
    from chowtool.stability import bipyramid_carrier

    seg = Polytope([(-1,), (1,)])
    cube7 = reduce(product, [seg] * 7)
    T, _ = bipyramid_carrier(cube7)
    assert len(T) == 10080  # the 7! staircase cells of [-1, 1]^7, once per apex

    def peak(volumes):
        T._volumes = None
        tracemalloc.start()
        try:
            volumes(T)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(Triangulation.volumes) < peak(_volumes_by_flat_memo) / 4
    assert T.volumes() == _volumes_by_flat_memo(T)


@pytest.mark.parametrize("n, cells, calls", [(5, 240, 10), (6, 1440, 12), (7, 10080, 14)])
def test_volumes_of_the_cube_bipyramid_carriers_match_every_cell(n, cells, calls):
    from chowtool.stability import bipyramid_carrier

    # the carrier of the double cone over [-1, 1]^n: no two of its cells are
    # translates, so each misses the packed key
    T, _ = bipyramid_carrier(catalog.get(f"cube{n}").polytope)
    T._volumes = None
    vols, made = _volumes_counting_kernel_calls(T)
    assert len(vols) == cells
    assert vols == tuple(simplex_relative_volume_times_factorial(s.vertices) for s in T.simplices)
    assert made <= calls


def test_verify_counts_a_dilated_cell_as_nonunimodular():
    C = _cube4()
    B = boundary_triangulation(C, 2)
    assert verify_regular_boundary(C, B, 2).regular
    # the 2-dilate of one cell about its least vertex: volume 2^3 / 3!
    cell = B.simplices[len(B) // 2]
    v0 = cell.vertices[0]
    big = make_simplex([tuple(2 * b - a for a, b in zip(v0, v)) for v in cell.vertices])
    T = Triangulation(
        dim=3, simplices=tuple(big if s is cell else s for s in B.simplices)
    )
    assert len(T) == len(B)
    report = verify_regular_boundary(C, T, 2)
    assert report.nonunimodular_count == 1
    assert not report.all_unimodular
    assert not report.coverage_ok
    assert report.total_relative_volume == B.relative_volume() + Fraction(7, 6)
    assert not report.regular


def _ridge_census_by_slicing(T):
    # the per-vertex slicing ridge_census replaced, kept as its oracle
    return dict(
        Counter(
            s.vertices[:i] + s.vertices[i + 1 :]
            for s in T.simplices
            for i in range(len(s.vertices))
        )
    )


@pytest.mark.parametrize("name", ["cube4", "simplexPn3"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_ridge_census_matches_slicing(name, k):
    P = _cube4() if name == "cube4" else catalog.get(name).polytope
    T = boundary_triangulation(P, k)
    census = T.ridge_census()
    assert census == _ridge_census_by_slicing(T)
    assert sum(census.values()) == len(T) * (T.dim + 1)


# ---------------------------------------------------------------------------
# the chunked ridge check against the one-Counter census it replaced
# ---------------------------------------------------------------------------


def _assert_ridges_in_pairs_agree(T):
    """_ridges_in_pairs agrees with ridge_counts at chunk sizes small enough
    that most tables are cut into many chunks; returns the verdict."""
    expected = set(T.ridge_counts().values()) <= {2}
    for chunk in (1, 2, 3, 64, 4096):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(triangulation, "_RIDGE_CHUNK", chunk)
            assert triangulation._ridges_in_pairs(T.cells) == expected, chunk
    return expected


def _flip_facet(T, coord, level):
    """T, a boundary of a cube centred at 0, with the cells on the facet
    x_coord = level mirrored in the next coordinate, so that facet's squares
    take the other diagonal while its neighbours keep theirs."""
    j = coord + 1

    def flip(v):
        return v[:j] + (-v[j],) + v[j + 1 :]

    return Triangulation(
        T.dim,
        simplices=tuple(
            make_simplex([flip(v) for v in s.vertices])
            if all(v[coord] == level for v in s.vertices)
            else s
            for s in T.simplices
        ),
    )


def _ridge_mutants(T):
    """Broken copies of the closed complex T: a cell dropped, repeated or
    swapped for its translate, at the start, middle and end of the table."""
    simplices = T.simplices
    shift = (1,) + (0,) * (len(T.points[0]) - 1)
    for i in (0, len(simplices) // 2, len(simplices) - 1):
        cell = simplices[i]
        yield "dropped", simplices[:i] + simplices[i + 1 :]
        yield "repeated", simplices + (cell,)
        moved = make_simplex(_translate(cell.vertices, shift))
        yield "translated", simplices[:i] + (moved,) + simplices[i + 1 :]


@pytest.mark.parametrize("name, k", [("cube4", 1), ("cube4", 2), ("simplexPn3", 2), ("D4", 1)])
def test_ridges_in_pairs_flags_mutants(name, k):
    P = _cube4() if name == "cube4" else catalog.get(name).polytope
    T = boundary_triangulation(P, k)
    assert _assert_ridges_in_pairs_agree(T)
    for kind, simplices in _ridge_mutants(T):
        assert not _assert_ridges_in_pairs_agree(Triangulation(T.dim, simplices=simplices)), kind
    if name == "cube4":
        # two facets re-subdivided differently: the facet x_1 = k mirrored
        flipped = _flip_facet(T, 0, k)
        assert flipped.relative_volume() == T.relative_volume()
        assert not _assert_ridges_in_pairs_agree(flipped)


@st.composite
def _pure_complexes(draw):
    """(d, cells): d-cells as sorted tuples of point ids 0..15.  Boundaries
    of (d + 1)-simplices, where every ridge lies in two cells unless two
    boundaries share a cell, left as they are, given a few more cells, or
    with one cell dropped."""
    d = draw(st.integers(1, 3))
    ids = st.integers(0, 15)
    cells = []
    for s in draw(st.lists(st.sets(ids, min_size=d + 2, max_size=d + 2), max_size=4)):
        cells.extend(combinations(sorted(s), d + 1))
    change = draw(st.sampled_from(["none", "extra", "dropped"]))
    if change == "extra":
        extra = st.sets(ids, min_size=d + 1, max_size=d + 1).map(sorted).map(tuple)
        cells += draw(st.lists(extra, min_size=1, max_size=3))
    elif change == "dropped" and cells:
        del cells[draw(st.integers(0, len(cells) - 1))]
    return d, cells


@settings(max_examples=200, deadline=None)
@given(_pure_complexes())
def test_ridges_in_pairs_matches_ridge_counts_on_pure_complexes(case):
    d, cells = case
    T = Triangulation.from_blocks(d, [([(i,) for i in range(16)], cells)])
    _assert_ridges_in_pairs_agree(T)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ridges_in_pairs_peaks_under_half_of_ridge_counts():
    T = boundary_triangulation(catalog.get("simplexPn4").polytope, 4)
    assert len(T) == 40000  # about ten chunks of 4,096 cells
    full = _traced_peak(T.ridge_counts)
    chunked = _traced_peak(lambda: triangulation._ridges_in_pairs(T.cells))
    assert chunked < full / 2


@pytest.mark.parametrize(
    "points", [[(1, 0), (1, 0)], [(0, 0), (1, 1), (2, 2)]], ids=["repeated vertex", "collinear"]
)
def test_affinely_dependent_cell_is_named(points):
    cell = make_simplex(points)
    T = Triangulation(dim=cell.dim, simplices=(cell,))
    with pytest.raises(DegenerateSimplex, match=re.escape(str([list(v) for v in cell.vertices]))):
        T.incidence()


# ---------------------------------------------------------------------------
# the per-LatticeSimplex representation the point table replaced, kept as its
# oracle: cells built one LatticeSimplex at a time, censuses as tuple Counters
# ---------------------------------------------------------------------------


def _staircase_by_chains(los, his):
    d = len(los)
    return [
        staircase_chain(m, (1,) * d, order)
        for m in iproduct(*(range(lo, hi) for lo, hi in zip(los, his)))
        for order in permutations(range(d))
    ]


def _boundary_by_simplices(P, k):
    if P.dim == 1:
        cells = [make_simplex([(k * f.vertices[0][0],)]) for f in P.facets]
        return sorted(cells, key=attrgetter("vertices"))
    simplices = []
    for facet, cells in level1_boundary(P):
        box = triangulation._facet_as_aligned_box(facet)
        if box is not None and k > 1:
            active, los, his = box
            fixed = [k * c for c in los]
            for chain_ in _staircase_by_chains(
                [k * los[i] for i in active], [k * his[i] for i in active]
            ):
                simplices.append(
                    make_simplex([triangulation._embed(active, fixed, p) for p in chain_])
                )
            continue
        for cell in cells:
            if k == 1:
                simplices.append(make_simplex(cell))
            else:
                simplices.extend(_alcove_cells(sorted(cell), k))
    return sorted(simplices, key=attrgetter("vertices"))


def _full_by_simplices(P, k):
    if not all(f.offset == 1 for f in P.facets):
        raise NotReflexive("full triangulation requires a reflexive polytope")
    origin = (0,) * P.dim
    simplices = []
    prov = P._provenance
    if prov is not None and prov[0] == "double_cone" and prov[1][0].dim == 2:
        Q = prov[1][0]
        tris = [tuple(t) for t in polygon_unimodular_triangulation(Q)]
        for tri, excl in zip(tris, triangulation._bipyramid_exclusions(Q, tris)):
            rest = sorted(v for v in tri if v != excl)
            lifted = [v + (0,) for v in (rest[0], excl, rest[1])]
            for apex in ((0, 0, 1), (0, 0, -1)):
                cone = [apex] + lifted
                if k == 1:
                    simplices.append(make_simplex(cone))
                else:
                    simplices.extend(_alcove_cells(cone, k))
    else:
        for _, cells in level1_boundary(P):
            for cell in cells:
                cone = [origin] + list(cell)
                if k == 1:
                    simplices.append(make_simplex(cone))
                else:
                    simplices.extend(_alcove_cells(sorted(cone), k))
    return sorted(simplices, key=attrgetter("vertices"))


def _volumes_by_simplices(simplices):
    # one minor-gcd kernel call per cell shape up to translation
    memo = {}
    out = []
    for s in simplices:
        edges = tuple(tuple(map(sub, v, s.vertices[0])) for v in s.vertices[1:])
        if edges not in memo:
            memo[edges] = simplex_relative_volume_times_factorial(s.vertices)
        out.append(memo[edges])
    return tuple(out)


def _incidence_by_simplices(simplices, vols):
    return dict(
        Counter(
            chain.from_iterable(
                s.vertices if vol == 1 else triangulation._lattice_points_of_simplex(s)
                for s, vol in zip(simplices, vols)
            )
        )
    )


def _ridge_census_by_simplices(simplices):
    return dict(
        Counter(
            chain.from_iterable(
                combinations(s.vertices, len(s.vertices) - 1) for s in simplices
            )
        )
    )


def _report_by_simplices(P, simplices, k, vols, counts, census):
    """verify_regular_boundary over vertex tuples, from the oracle censuses."""
    n = P.dim
    total = Fraction(sum(vols), factorial(n - 1)) if simplices else Fraction(0)
    expected = boundary_volume(P) * k ** (n - 1)
    nonuni = len(simplices) - vols.count(1)
    # bit i of a vertex's mask: it lies on facet i of kP; a cell lies on a
    # facet iff its vertices' masks share a bit
    masks = {
        v: sum(1 << i for i, f in enumerate(P.facets) if dot(f.normal, v) == -k * f.offset)
        for v in {v for s in simplices for v in s.vertices}
    }
    facet_aligned = all(reduce(and_, map(masks.__getitem__, s.vertices)) for s in simplices)
    face_compatible = n - 1 < 1 or all(c == 2 for c in census.values())
    bound = factorial(n)
    max_inc = max(counts.values()) if counts else 0
    return BoundaryReport(
        dilation=k,
        cell_count=len(simplices),
        coverage_ok=total == expected,
        total_relative_volume=total,
        expected_relative_volume=expected,
        all_unimodular=not nonuni,
        nonunimodular_count=nonuni,
        face_compatible=face_compatible,
        facet_aligned=facet_aligned,
        max_incidence=max_inc,
        incidence_bound=bound,
        offenders=tuple(sorted(p for p, c in counts.items() if c > bound)),
        regular=(
            total == expected and not nonuni and face_compatible and facet_aligned
            and max_inc <= bound
        ),
    )


def _assert_matches_oracle(T, simplices):
    """T agrees with the oracle cells; returns the oracle's (volumes,
    incidence, ridge census)."""
    assert [s.vertices for s in T.simplices] == [s.vertices for s in simplices]
    assert T.points == tuple(sorted({v for s in simplices for v in s.vertices}))
    assert list(T.cells) == sorted(T.cells)
    assert all(list(c) == sorted(c) for c in T.cells)
    vols = _volumes_by_simplices(simplices)
    counts = _incidence_by_simplices(simplices, vols)
    census = _ridge_census_by_simplices(simplices)
    assert T.volumes() == vols
    assert list(T.incidence().items()) == list(counts.items())
    assert list(T.ridge_census().items()) == list(census.items())
    return vols, counts, census


# Every catalog entry whose classify builds a boundary triangulation (through
# check_special or check_sufficient) and, in the second list, a full one;
# the products among the entries are classified through their factors.
# D6, D7 and simplexPn5 run at k <= 2 only.
_SPECIAL_ENTRIES = [
    "A2", "A3", "A4", "A5", "D2", "D3", "D4", "D5", "D_X3", "D_X4", "D_X6",
    "D_X8", "D_X9", "P3_blowup4", "P3_blowup4_dual", "P3modZ4", "X3", "X4", "X6",
    "X9", "cube5_doublecone", "cube6_doublecone", "cube7_doublecone",
    "cuboctahedron", "rhombic_dodecahedron", "simplexPn2", "simplexPn3",
    "simplexPn4", "D6", "D7", "simplexPn5",
]
_SUFFICIENT_ENTRIES = [
    "D_X8", "D_X9", "P3_blowup4", "cube5_doublecone", "cube6_doublecone",
    "cube7_doublecone",
]
_SMALL_K_ENTRIES = ("D6", "D7", "simplexPn5")


def _oracle_cases():
    for name in _SPECIAL_ENTRIES:
        for kind in ("boundary", "full") if name in _SUFFICIENT_ENTRIES else ("boundary",):
            yield pytest.param(name, kind, id=f"{name}-{kind}")


@pytest.mark.parametrize("name, kind", _oracle_cases())
def test_point_table_matches_simplex_oracle(name, kind):
    P = catalog.get(name).polytope
    build, oracle = {
        "boundary": (boundary_triangulation, _boundary_by_simplices),
        "full": (full_triangulation, _full_by_simplices),
    }[kind]
    for k in range(1, 3 if name in _SMALL_K_ENTRIES else 5):
        try:
            T = build(P, k)
        except (NoStrategy, NotReflexive) as exc:
            with pytest.raises(type(exc)):
                oracle(P, k)
            continue
        simplices = oracle(P, k)
        censuses = _assert_matches_oracle(T, simplices)
        if kind == "boundary":
            expected = _report_by_simplices(P, simplices, k, *censuses)
            assert verify_regular_boundary(P, T, k) == expected
            _assert_ridges_in_pairs_agree(T)
        del T.simplices  # the view is rebuilt on demand; free it between dilations


@st.composite
def _user_cells(draw):
    """d-simplices in Z^n with coordinates in [-2, 2]: shared vertices,
    non-unimodular cells and affinely dependent ones all turn up."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 3))
    coord = st.integers(-2, 2)
    cells = draw(
        st.lists(
            st.lists(st.tuples(*[coord] * n), min_size=d + 1, max_size=d + 1),
            min_size=1,
            max_size=8,
        )
    )
    return d, cells


@settings(max_examples=100, deadline=None)
@given(_user_cells())
def test_user_cells_round_trip(case):
    d, cells = case
    simplices = [make_simplex(c) for c in cells]
    T = Triangulation(d, simplices=tuple(simplices))
    oracle = sorted(simplices, key=attrgetter("vertices"))
    assert T.simplices == tuple(oracle)
    assert T == Triangulation.from_blocks(d, cell_blocks(cells))
    assert T == Triangulation(d, simplices=T.simplices)
    vols = _volumes_by_simplices(oracle)
    assert T.volumes() == vols
    assert list(T.ridge_census().items()) == list(_ridge_census_by_simplices(oracle).items())
    try:
        expected = _incidence_by_simplices(oracle, vols)
    except DegenerateSimplex as exc:
        with pytest.raises(DegenerateSimplex, match=re.escape(str(exc))):
            T.incidence()
    else:
        assert list(T.incidence().items()) == list(expected.items())


def test_freudenthal_box_cells_are_staircase_chains():
    for los, his in [([0], [3]), ([0, -1], [2, 1]), ([1, 0, -2], [2, 2, 0]), ([0] * 4, [2] * 4)]:
        assert triangulation._freudenthal_box_cells(los, his) == _staircase_by_chains(los, his)


def test_refine_anchored_matches_shifted_oracle():
    # 3 times the unimodular simplex conv{(1, 0, 2), (2, 0, 2), (1, 1, 2)} about (1, 0, 2)
    small = ((1, 0, 2), (2, 0, 2), (1, 1, 2))
    shift = tuple(-2 * x for x in small[0])
    oracle = [
        [tuple(a + b for a, b in zip(v, shift)) for v in s.vertices]
        for s in _alcove_refine_cycle_by_points(sorted(small), 3)
    ]
    assert triangulation.refine_anchored(small, 3) == oracle


def test_box_detection_runs_once_per_facet(monkeypatch):
    calls = []
    detect = triangulation._facet_as_aligned_box

    def counted(facet):
        calls.append(facet)
        return detect(facet)

    monkeypatch.setattr(triangulation, "_facet_as_aligned_box", counted)
    for P in (_cube4(), double_cone(X8), Polytope(X6.vertices)):
        calls.clear()
        for k in range(1, 5):
            boundary_triangulation(P, k)
        assert len(calls) == len(P.facets)


@pytest.mark.parametrize("name", ["simplexPn4", "D5"])
def test_classify_builds_no_lattice_simplex(monkeypatch, name):
    from chowtool import stability

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("LatticeSimplex built")

    P = copy.deepcopy(catalog.get(name).polytope)
    monkeypatch.setattr(triangulation, "LatticeSimplex", Refused)
    monkeypatch.setattr(stability, "LatticeSimplex", Refused)
    assert stability.classify(P).status == stability.POLYSTABLE


@pytest.mark.parametrize("name", ["D_X3", "D_X4", "D_X6", "D_X8", "D_X9"])
def test_bipyramid_base_is_built_once_per_double_cone(name, monkeypatch):
    Q = catalog.get(name).polytope._provenance[1][0]
    D = double_cone(Q)  # fresh, so nothing is memoised on it yet
    oracle = {k: _full_by_simplices(D, k) for k in range(1, 5)}
    calls = Counter()

    def counted(fn):
        def inner(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return inner

    for fn in (polygon_unimodular_triangulation, triangulation._bipyramid_exclusions):
        monkeypatch.setattr(triangulation, fn.__name__, counted(fn))
    for k in range(1, 5):
        T = full_triangulation(D, k)
        assert [s.vertices for s in T.simplices] == [s.vertices for s in oracle[k]]
    assert calls == {"polygon_unimodular_triangulation": 1, "_bipyramid_exclusions": 1}


def test_delaunay_of_a_single_simplex_is_that_simplex():
    for verts in ([(0, 0), (1, 0), (0, 1)], [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        T = delaunay_triangulation(verts)
        assert T.points == tuple(sorted(verts))
        assert T.cells == (tuple(range(len(verts))),)
    # n + 1 affinely dependent points still span no triangulation
    with pytest.raises(NotFullDimensional):
        delaunay_triangulation([(0, 0), (1, 1), (2, 2)])
