import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import permutations, product as iproduct
from math import factorial
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from chowtool import catalog, triangulation
from chowtool.errors import (
    CoverageError,
    NonIntegralCut,
    NoStrategy,
    NotReflexive,
    NoTriangulation,
)
from chowtool.geometry import (
    Polytope,
    product,
    double_cone,
    volume,
    lattice_points,
    _fan_simplices,
)
from chowtool.ehrhart import count
from chowtool.linalg import det_int, dot
from chowtool.symmetry import AffineFunctional, fo_invariant
from chowtool.triangulation import (
    boundary_triangulation,
    delaunay_triangulation,
    full_triangulation,
    Triangulation,
    cell_blocks,
    make_simplex,
    staircase_chain,
    _facet_as_aligned_box,
)
from chowtool.stability import (
    Certificate,
    PLFunction,
    chow_gap,
    affine_pl_function,
    bipyramid_carrier,
    scaled_fan_carrier,
    double_cone_cap,
    double_cone_instability,
    vertex_cap_instability,
    check_special,
    check_sufficient,
    falsify,
    classify,
    POLYSTABLE,
    NOT_SEMISTABLE,
    INCONCLUSIVE,
)

SEG = Polytope([(-1,), (1,)], name="seg")
X3 = Polytope([(-1, -1), (1, 0), (0, 1)], name="X3")
X4 = Polytope([(1, 0), (-1, 0), (0, 1), (0, -1)], name="X4")
X6 = Polytope([(0, 1), (0, -1), (1, 0), (-1, 0), (1, -1), (-1, 1)], name="X6")
X8 = Polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)], name="X8")
X9 = Polytope([(-1, -1), (2, -1), (-1, 2)], name="X9")
Q_SKEW = Polytope([(0, 0), (2, 0), (0, 1)], name="skew")


def cube(n):
    C = SEG
    for _ in range(n - 1):
        C = product(C, SEG)
    return C.with_name(f"cube{n}")


def abs_x1_function(P, k):
    pts = lattice_points(P, k)
    values = {p: Fraction(abs(p[0])) for p in pts}
    carrier = delaunay_triangulation(pts)
    return PLFunction(values=values, carrier=carrier)


def test_chow_gap_abs_x1_on_square():
    # oracle: 9-point sum 6/9 = 2/3 and exact integral 2 over area 4
    f = abs_x1_function(X8, 1)
    assert chow_gap(X8, 1, f) == Fraction(2, 3) - Fraction(1, 2) == Fraction(1, 6)
    # int values give the same exact gap, never a float
    f.values = {p: int(v) for p, v in f.values.items()}
    gap = chow_gap(X8, 1, f)
    assert isinstance(gap, Fraction) and gap == Fraction(1, 6)


def test_chow_gap_affine_vanishes_on_symmetric():
    for P in (X3, X4, X6, X8):
        for k in (1, 2, 3):
            a = AffineFunctional((Fraction(2), Fraction(-3)), Fraction(1, 5))
            f = affine_pl_function(P, k, a)
            assert chow_gap(P, k, f) == 0


def test_chow_gap_equals_fo_for_affine():
    a = AffineFunctional.coordinate(0, 2)
    for k in (1, 2, 3):
        f = affine_pl_function(Q_SKEW, k, a)
        assert chow_gap(Q_SKEW, k, f) == fo_invariant(Q_SKEW, a, k)


def test_chow_gap_coverage_error():
    pts = lattice_points(X4, 1)
    values = {p: Fraction(0) for p in pts}
    half = Triangulation(
        dim=2, simplices=(make_simplex([(0, 0), (1, 0), (0, 1)]),)
    )
    with pytest.raises(CoverageError):
        chow_gap(X4, 1, PLFunction(values=values, carrier=half))


def test_double_cone_cap_gap_cube6():
    # Vol = 64 >= 56; exact gap at k = 1 is 2/731 - 1/8
    C6 = cube(6)
    verdict = double_cone_instability(C6)
    assert verdict.status == NOT_SEMISTABLE
    cert = verdict.certificate
    assert cert.k == 1
    assert cert.gap == Fraction(2, 731) - Fraction(1, 8)
    # certificate re-evaluates through chow_gap independently
    D, fn = double_cone_cap(C6, 1)
    assert chow_gap(D, 1, fn) == cert.gap


def test_double_cone_thresholds():
    assert double_cone_instability(cube(2)).status == INCONCLUSIVE  # 4 < 12
    assert double_cone_instability(cube(5)).status == INCONCLUSIVE  # 32 < 42
    assert double_cone_instability(cube(6)).status == NOT_SEMISTABLE
    assert double_cone_instability(cube(7)).status == NOT_SEMISTABLE
    # segments: threshold (1+2)(1+1) = 6, boundary case a = 3 included
    assert double_cone_instability(Polytope([(-3,), (3,)])).status == NOT_SEMISTABLE
    assert double_cone_instability(Polytope([(-2,), (2,)])).status == INCONCLUSIVE


def test_cap_integral_identity():
    # exact one-sided cap integral equals Vol(Q)/((n+1)(n+2)) per cone
    for Q in (X8, X4, cube(3)):
        n = Q.dim
        D, fn = double_cone_cap(Q, 1)
        pts = lattice_points(D, 1)
        chi = len(pts)
        discrete = sum(fn.values[p] for p in pts) / chi
        gap = chow_gap(D, 1, fn)
        integral_avg = discrete - gap
        expected = (
            2 * volume(Q) / Fraction((n + 1) * (n + 2))
        ) / (volume(D))
        assert integral_avg == expected


def test_vertex_cap_on_double_cone_apex():
    D6 = double_cone(cube(6), name="D(cube6)")
    apex = (0,) * 6 + (1,)
    v = vertex_cap_instability(D6, apex)
    assert v.status == NOT_SEMISTABLE
    assert v.certificate.gap < 0
    # consistent with the double-cone criterion threshold: base volume 64 >= 56
    check = v.check("vertex-cap threshold (informal criterion)")
    assert check is not None and check.passed
    relvol = Fraction(dict(check.data)["base_relative_volume"])
    assert relvol == _cap_base_facet_volume(D6, apex) == 64


def test_vertex_cap_inconclusive_cases():
    # (P^n, O(n+1)) at any vertex: unimodular base, far below threshold
    P3O4 = Polytope(
        [(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)], name="P3O4"
    )
    v = vertex_cap_instability(P3O4, (-1, -1, -1))
    assert v.status == INCONCLUSIVE
    v2 = vertex_cap_instability(X4, (1, 0))
    assert v2.status == INCONCLUSIVE


def test_vertex_cap_non_integral_cut():
    C3 = cube(3)
    with pytest.raises(NonIntegralCut):
        vertex_cap_instability(double_cone(C3), (1, 1, 1, 0))


def _unit_cap(P, v):
    """(edge directions at v, hull of v and v + each direction)."""
    from chowtool.stability import _edges_at_vertex

    dirs = _edges_at_vertex(P, v)
    return dirs, Polytope([v] + [tuple(a + b for a, b in zip(v, e)) for e in dirs])


def _cap_base_facet_volume(P, v):
    """Oracle for the relative base volume of the unit cap at v: the hull of
    the cap and facet_relative_volume of its one facet missing v."""
    from chowtool.geometry import facet_relative_volume

    _, cap = _unit_cap(P, v)
    (base,) = [f for f in cap.facets if f.value(v) != 0]
    return facet_relative_volume(cap, base)


def _assert_unit_cap_lies_on_the_cut(P):
    """Every lattice point of the unit cap at a vertex v other than v lies
    on u = u(v) - 1, wherever the integral unit-cut functional u exists:
    u(e) = -1 on every edge direction e puts the cap between the two
    levels, and v is its one vertex on the upper one.  Returns the number of
    caps checked."""
    from chowtool.stability import _edges_at_vertex, _solve_functional

    checked = 0
    for v in P.vertices:
        u = _solve_functional(_edges_at_vertex(P, v), P.dim)
        if u is None:
            continue
        _, cap = _unit_cap(P, v)
        top = dot(u, v)
        assert all(p == v or dot(u, p) == top - 1 for p in lattice_points(cap, 1)), v
        checked += 1
    return checked


def test_unit_caps_of_the_catalog_lie_on_the_cut():
    from chowtool import catalog

    assert sum(_assert_unit_cap_lies_on_the_cut(e.polytope) for e in catalog.entries() if e.polytope.dim <= 4) > 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1, max_size=8, unique=True
        )
    )
)
def test_unit_caps_of_random_polytopes_lie_on_the_cut(pts):
    from chowtool.errors import NotFullDimensional

    try:
        P = Polytope(pts)
    except NotFullDimensional:
        return
    _assert_unit_cap_lies_on_the_cut(P)


def _assert_cap_base_volumes_match(P):
    accepted = 0
    for v in P.vertices:
        try:
            verdict = vertex_cap_instability(P, v)
        except NonIntegralCut:
            continue
        accepted += 1
        got = Fraction(dict(verdict.checks[0].data)["base_relative_volume"])
        assert got == _cap_base_facet_volume(P, v), v
    return accepted


def test_vertex_cap_base_volume_matches_the_base_facet_on_the_catalog():
    from chowtool import catalog

    accepted = sum(
        _assert_cap_base_volumes_match(e.polytope)
        for e in catalog.entries()
        if e.polytope.dim <= 4
    )
    assert accepted > 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1, max_size=8, unique=True
        )
    )
)
def test_vertex_cap_base_volume_matches_the_base_facet_on_random_polytopes(pts):
    from chowtool.errors import NotFullDimensional

    try:
        P = Polytope(pts)
    except NotFullDimensional:
        return
    _assert_cap_base_volumes_match(P)


def test_vertex_cap_function_none_when_rest_is_lower_dimensional():
    from chowtool.stability import _vertex_cap_function

    # unimodular simplex at k = 1: cutting off the vertex 0 leaves only the
    # facet opposite it, so the rest has no full-dimensional hull
    T3 = Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    v = (0, 0, 0)
    assert _vertex_cap_function(T3, v, (-1, -1, -1), 1, *_unit_cap(T3, v)) is None


def test_vertex_cap_records_a_certificate_without_a_carrier():
    # a pyramid of lattice height 1 over a base of length 6: the cap is the
    # whole triangle, the gap is negative at k = 1, and the rest of P past
    # the cut is the base segment
    P = Polytope([(0, 1), (-3, 0), (3, 0)])
    verdict = vertex_cap_instability(P, (0, 1))
    assert verdict.status == NOT_SEMISTABLE and verdict.certificate.function is None
    skipped = verdict.check("vertex-cap function")
    assert skipped is not None and not skipped.passed
    assert skipped.detail.startswith("skipped: at k = 1 the rest of kP")
    assert dict(skipped.data) == {"k": "1"}


def test_vertex_cap_function_propagates_unexpected_errors(monkeypatch):
    from chowtool import stability

    v = (1, 1)
    cap = _unit_cap(X8, v)
    calls = []

    def flaky(points, *args, **kwargs):
        # the cap pyramid comes in built, so the rest of kP is the one build
        calls.append(points)
        raise RuntimeError("bug while building the rest")

    monkeypatch.setattr(stability, "Polytope", flaky)
    with pytest.raises(RuntimeError):
        stability._vertex_cap_function(X8, v, (1, 1), 1, *cap)
    assert len(calls) == 1


def _vertex_cap_carrier_by_hulls(P, v, k):
    """The cap function's carrier with the dilated cap at kv hulled anew,
    the oracle of the unit cap moved by (k - 1)v."""
    from chowtool.stability import _edges_at_vertex

    kv = tuple(k * x for x in v)
    base_pts = [tuple(k * a + b for a, b in zip(v, e)) for e in _edges_at_vertex(P, v)]
    cap = Polytope(base_pts + [kv])
    rest = Polytope({tuple(k * x for x in w) for w in P.vertices if w != v} | set(base_pts))
    cells = list(_fan_simplices(cap, kv)) + list(_fan_simplices(rest))
    return Triangulation.from_blocks(P.dim, cell_blocks(cells))


@pytest.mark.parametrize(
    "points, v",
    [
        ([(0, 0), (-3, 1), (3, 1), (-3, 4), (3, 4)], (-3, 4)),
        ([(0, 0), (-3, 1), (3, 1), (0, 2)], (0, 2)),
        ([(0, 0, 0), (-3, 0, 1), (3, 0, 1), (0, -3, 1), (0, 3, 1), (0, 0, 2)], (0, 0, 2)),
        (double_cone(cube(3)).vertices, (0, 0, 0, 1)),
    ],
)
def test_vertex_cap_carrier_is_the_unit_cap_moved_to_kv(points, v):
    from chowtool.stability import _solve_functional, _vertex_cap_function

    P = Polytope(points)
    dirs, cap = _unit_cap(P, v)
    u = _solve_functional(dirs, P.dim)
    for k in range(1, 4):
        got = _vertex_cap_function(P, v, u, k, dirs, cap).carrier
        want = _vertex_cap_carrier_by_hulls(P, v, k)
        assert (got.points, got.cells) == (want.points, want.cells), k


def test_vertex_cap_instability_runs_two_hulls(monkeypatch):
    import chowtool.geometry as geometry

    P = Polytope([(0, 0), (-3, 1), (3, 1), (-3, 4), (3, 4)])
    hulled = []
    real = geometry.convex_hull

    def counted(points):
        hulled.append(points)
        return real(points)

    monkeypatch.setattr(geometry, "convex_hull", counted)
    verdict = vertex_cap_instability(P, (0, 0))
    assert verdict.status == NOT_SEMISTABLE and verdict.certificate.function is not None
    # the unit cap and the rest of kP: the cap at kv is the unit cap moved
    assert len(hulled) == 2


def test_check_special_2d():
    for P in (X3, X4, X6, X8, X9):
        assert check_special(P).status == POLYSTABLE


def test_check_special_DX8_inconclusive():
    v = check_special(double_cone(X8, name="D(X8)"))
    assert v.status == INCONCLUSIVE
    c = v.check("regular boundary")
    assert c is not None and not c.passed


def test_check_special_A3():
    A3 = Polytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], name="A3")
    assert check_special(A3).status == POLYSTABLE


def test_check_sufficient_DX8_DX9():
    v8 = check_sufficient(double_cone(X8, name="D(X8)"))
    assert v8.status == POLYSTABLE
    data8 = dict(v8.check("incidence criterion").data)
    assert data8["apex_inequality"] == "20 < 24"
    v9 = check_sufficient(double_cone(X9, name="D(X9)"))
    assert v9.status == POLYSTABLE
    data9 = dict(v9.check("incidence criterion").data)
    assert data9["apex_inequality"] == "45/2 < 24"


def test_check_sufficient_breaks_a_tie_of_least_margins_at_the_least_point():
    from chowtool import catalog

    # A4's least margin is reached at several points of k = 3; the record
    # names the least of them, not the first a table happens to list
    data = dict(check_sufficient(catalog.get("A4").polytope).check("incidence criterion").data)
    assert data["worst_k"] == "3"
    assert data["worst_point"] == "(-1, -1, 0, 0)"


def _sufficient_by_tables(P, k_max):
    """Oracle for check_sufficient's last check, as (name, passed, detail,
    data): the incidence of the full and boundary tables of kP, enumerated
    cell by cell for k = 1..k_max.  A failure at the least k is reported at
    its least point, interior before boundary; the record is the least
    (margin, k, p) and the greatest (m, p) at its least k."""
    n = P.dim
    bound = factorial(n + 1)
    half = Fraction(n, 2)
    origin = (0,) * n
    records = []
    for k in range(1, k_max + 1):
        n_counts = full_triangulation(P, k).incidence()
        m_counts = boundary_triangulation(P, k).incidence()
        over = [p for p, c in n_counts.items() if p != origin and c > bound]
        if over:
            p = min(over)
            return "interior incidence", False, f"n({p};{k}) = {n_counts[p]} > (n+1)! = {bound}", {}
        short = [p for p, m in m_counts.items() if half * m >= bound - n_counts[p]]
        if short:
            p = min(short)
            detail = (
                f"(n/2) m(p;k) = {half * m_counts[p]} not < (n+1)! - n(p;k) = "
                f"{bound - n_counts[p]} at p = {p}, k = {k}"
            )
            return "boundary incidence", False, detail, {}
        records += [(bound - n_counts[p] - half * m, k, p, n_counts[p], m) for p, m in m_counts.items()]
    _, k, p, np_, m = min(records)
    _, ak, ap, an, am = max(records, key=lambda r: (r[4], r[2], -r[1]))
    data = dict(
        worst_point=p, worst_k=k, n_at_worst=np_, m_at_worst=m, lhs=half * m, rhs=bound - np_,
        max_m_point=ap, max_m_values=f"n = {an}, m = {am} at k = {ak}",
    )
    if an == am:
        data["apex_inequality"] = f"{Fraction(n + 2, 2) * an} < {bound}"
    detail = f"verified k = 1..{k_max}; stratum-wise constant counts extend the strict inequality to all k"
    return "incidence criterion", True, detail, {key: str(v) for key, v in data.items()}


def _full_table_fits(P, k):
    # a unimodular table of kP holds n! Vol(kP) cells; the oracle leaves out
    # the largest, as the stratum tests of the triangulation module do
    return factorial(P.dim) * volume(P) * k**P.dim <= 200_000


@pytest.mark.parametrize("name", catalog.list_names())
def test_check_sufficient_matches_the_table_enumeration(name):
    from chowtool import catalog

    P = catalog.get(name).polytope
    for k_max in range(1, 5):
        if not _full_table_fits(P, k_max):
            continue
        last = check_sufficient(P, k_max).checks[-1]
        if last.name in ("origin interior", "weakly symmetric"):
            continue  # decided before any incidence is read
        try:
            want = _sufficient_by_tables(P, k_max)
        except (NoStrategy, NotReflexive) as exc:
            assert (last.name, last.passed, last.detail) == (
                "incidence criterion", False, f"no strategy: {exc}"
            )
            continue
        data = dict(last.data)
        if "dimension" in data:
            # a stratum no k <= k_max samples fails: the tables pass up to
            # k_max and fail first at the least k with a point in it
            k = int(data["dimension"]) + 1
            assert k > k_max and want[1]
            if _full_table_fits(P, k):
                assert _sufficient_by_tables(P, k - 1)[1]
                assert _sufficient_by_tables(P, k)[:2] == (last.name, False)
            continue
        assert (last.name, last.passed, last.detail, data) == want, k_max


def _inflate_sufficient_stratum(monkeypatch, table, dim, value):
    """Make the stratum tables check_sufficient reads (level1_strata) give
    the least face of dimension dim of the "full" or "boundary" complex the
    incidence value, as a complex whose alcove refinements break the
    criterion would."""
    from chowtool import stability

    real = stability.level1_strata
    inflated = []

    def fabricated(P):
        points, *tables = real(P)
        i = ("full", "boundary").index(table)
        # a copy: the real tables are a cached fact of P
        strata = tables[i] = dict(tables[i])
        face = min(f for f in strata if len(f) == dim + 1)
        strata[face] = value
        inflated.append(tuple(map(points.__getitem__, face)))
        return (points, *tables)

    monkeypatch.setattr(stability, "level1_strata", fabricated)
    return inflated


def test_check_sufficient_refuses_an_interior_stratum_past_the_sampled_dilations(monkeypatch):
    from chowtool import catalog

    P = catalog.get("D_X8").polytope
    inflated = _inflate_sufficient_stratum(monkeypatch, "full", 2, 25)
    built = _record_table_builds(monkeypatch)
    # k = 1, 2 sample the strata of dimension 0 and 1 only
    verdict = check_sufficient(P, k_max=2)
    assert verdict.status == INCONCLUSIVE
    check = verdict.checks[-1]
    assert (check.name, check.passed) == ("interior incidence", False)
    assert check.detail == (
        "a stratum of dimension 2 has n = 25 > (n+1)! = 24; k = 1..2 sample dimensions up to 1"
    )
    assert dict(check.data) == {"dimension": "2", "n": "25", "face": str(inflated[0])}
    assert built == []


def test_check_sufficient_refuses_a_boundary_stratum_past_the_sampled_dilations(monkeypatch):
    from chowtool import catalog

    P = catalog.get("D_X9").polytope
    # a boundary triangle lies in 12 alcoves of the full table at every k,
    # so (3/2) m < 24 - 12 fails from m = 8 on
    inflated = _inflate_sufficient_stratum(monkeypatch, "boundary", 2, 8)
    built = _record_table_builds(monkeypatch)
    verdict = check_sufficient(P, k_max=2)
    assert verdict.status == INCONCLUSIVE
    check = verdict.checks[-1]
    assert (check.name, check.passed) == ("boundary incidence", False)
    assert check.detail == (
        "a stratum of dimension 2 has (n/2) m = 12 not < (n+1)! - n = 12; "
        "k = 1..2 sample dimensions up to 1"
    )
    assert dict(check.data) == {"dimension": "2", "n": "12", "m": "8", "face": str(inflated[0])}
    assert built == []
    # from k = 3 on the triangle's one point a + b + c is sampled
    check = check_sufficient(P, k_max=3).checks[-1]
    assert (check.name, check.passed) == ("boundary incidence", False)
    point = tuple(map(sum, zip(*inflated[0])))
    assert check.detail == f"(n/2) m(p;k) = 12 not < (n+1)! - n(p;k) = 12 at p = {point}, k = 3"
    assert built == []


@pytest.mark.parametrize("entry", [check_special, check_sufficient])
def test_criteria_refuse_a_level1_boundary_failing_verification(entry, monkeypatch):
    # a D(X8) with no level-1 fact computed yet, whose level-1 boundary
    # misses one cell: the cone over the rest is still unimodular, but the
    # boundary no longer covers the boundary of P, and the ridges of the
    # missing cell lie in one cell each; both criteria read the one
    # verified boundary, so neither ends such a table inconclusive
    P = double_cone(catalog.get("X8").polytope)
    real = triangulation.level1_boundary

    def dropped(Q):
        (facet, cells), *rest = real(Q)
        return ((facet, cells[1:]), *rest)

    monkeypatch.setattr(triangulation, "level1_boundary", dropped)
    with pytest.raises(ValueError, match="^the level-1 boundary fails coverage, face compatibility$"):
        entry(P)


def test_sufficient_threshold_arithmetic():
    # the combined apex form (n+2)/2 i < (n+1)! at n = 3: fails first at i = 10
    n = 3
    bound = factorial(n + 1)
    assert Fraction(n + 2, 2) * 9 < bound
    assert Fraction(n + 2, 2) * 10 >= bound


def test_falsify_none_on_stable_small_cases():
    assert falsify(Polytope([(0,), (1,)]), 1) is None
    for k in (1, 2, 3, 4):
        assert falsify(X8, k) is None
        assert falsify(X4, k) is None


def test_falsify_certificate_on_Dcube6():
    D6 = double_cone(cube(6), name="D(cube6)")
    cert = falsify(D6, 1)
    assert cert is not None
    cap_gap = Fraction(2, 731) - Fraction(1, 8)
    assert cert.gap <= cap_gap
    # exact re-evaluation happens inside falsify; confirm against the carrier
    assert chow_gap(D6, 1, cert.function) == cert.gap


def test_falsify_lp_dominates_feasible_cap():
    # the cap is feasible for the LP on D(cube6), so the optimum is at least
    # as destabilizing
    D6 = double_cone(cube(6))
    _, cap = double_cone_cap(cube(6), 1)
    cap_gap = chow_gap(D6, 1, cap)
    cert = falsify(D6, 1)
    assert cert.gap <= cap_gap < 0


def per_cell_chow_gap(P, k, f):
    """chow_gap as a per-cell Fraction sum over det_int volumes, the oracle
    for the integer vertex weights."""
    n = P.dim
    vol_target = volume(P) * Fraction(k) ** n
    total = Fraction(0)
    integral = Fraction(0)
    for s in f.carrier.simplices:
        verts = s.vertices
        edges = [tuple(x - y for x, y in zip(v, verts[0])) for v in verts[1:]]
        vol = Fraction(abs(det_int(edges)), factorial(n))
        total += vol
        integral += vol * sum(f.values[v] for v in verts) / (n + 1)
    assert total == vol_target
    pts = lattice_points(P, k)
    return sum(f.values[p] for p in pts) / len(pts) - integral / vol_target


def test_chow_gap_matches_per_cell_sum_on_certificates():
    # the LP certificate of falsify(D(cube5), 1) and the cap of D(cube7)
    D5 = double_cone(cube(5))
    cert = falsify(D5, 1)
    assert cert is not None
    assert chow_gap(D5, 1, cert.function) == per_cell_chow_gap(D5, 1, cert.function) == cert.gap
    D7, cap = double_cone_cap(cube(7), 1)
    assert len(cap.carrier) == 10080
    gap = chow_gap(D7, 1, cap)
    assert gap == per_cell_chow_gap(D7, 1, cap) < 0


def test_classify_products():
    v = classify(product(X3, SEG, name="X3 x seg"))
    assert v.status == POLYSTABLE
    assert v.check("product rule") is not None
    for Q in (X4, X6):
        assert classify(product(Q, SEG)).status == POLYSTABLE


def test_classify_double_cones_of_cubes():
    assert classify(double_cone(cube(6), name="D6c")).status == NOT_SEMISTABLE
    assert classify(double_cone(cube(7), name="D7c")).status == NOT_SEMISTABLE


# the identity, rotation by 90 degrees, the coordinate swap, three shears, a
# negative shear and [[2, 1], [1, 1]]: each maps Z^2 onto itself
_GL2Z = [
    ((1, 0), (0, 1)),
    ((0, -1), (1, 0)),
    ((0, 1), (1, 0)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, 2), (0, 1)),
    ((1, -1), (0, 1)),
    ((2, 1), (1, 1)),
]


@pytest.mark.parametrize("g", _GL2Z, ids=str)
@pytest.mark.parametrize("Q", [X3, X4, X6, X8, X9], ids=attrgetter("name"))
def test_double_cone_verdict_is_invariant_under_gl2z(Q, g):
    # a lattice-equivalent base is the same toric variety; a sheared X8 is a
    # unimodular parallelogram and must get the staircase, whose axis meets
    # 24 cells, not the fan, whose axis meets 32
    image = Polytope([tuple(dot(row, v) for row in g) for v in Q.vertices])
    assert classify(double_cone(image)).status == POLYSTABLE


def test_classify_fo_witness_not_semistable():
    v = classify(Q_SKEW)
    assert v.status == NOT_SEMISTABLE
    assert v.certificate.kind == "affine-fo"
    assert v.certificate.gap == -Fraction(1, 12)
    # negative gap re-evaluates exactly
    assert chow_gap(Q_SKEW, v.certificate.k, v.certificate.function) == v.certificate.gap


def test_check_special_decides_a_segment_on_the_general_path():
    # the boundary of a segment is its two endpoints, each in one cell at
    # every k, within the bound 1! = 1
    verdict = check_special(SEG)
    assert verdict.status == POLYSTABLE
    check = verdict.check("regular boundary")
    assert check.passed
    assert dict(check.data) == {"bound": "1", "max_incidence_by_k": "(1, 1)", "maxima_stable": "True"}


def test_classify_2d_and_segments():
    assert classify(SEG).status == POLYSTABLE
    assert classify(X9).status == POLYSTABLE
    assert classify(double_cone(X6)).status == POLYSTABLE


def test_not_semistable_certificates_reverify():
    cases = [
        classify(Q_SKEW),
        double_cone_instability(cube(6)),
        classify(double_cone(cube(6), name="Dc6")),
    ]
    for v in cases:
        assert v.status == NOT_SEMISTABLE
        cert = v.certificate
        assert cert is not None and cert.gap < 0
        if cert.function is not None:
            # resolve the polytope the certificate lives on
            pass  # exact re-evaluation is asserted at construction time


def test_special_implies_falsifier_silent():
    # soundness cross-check: certified special polytopes admit no violation
    # at small dilations
    for P in (X4, X6, X8):
        assert check_special(P).status == POLYSTABLE
        for k in (1, 2, 3):
            assert falsify(P, k) is None


def test_broken_symmetry_search_is_an_error(monkeypatch):
    # only OriginNotInterior is a reason to go without symmetry; any other
    # failure of the search must not turn into "not symmetric" or an
    # unreduced LP
    import chowtool.stability as stability

    def broken(P):
        raise AssertionError("automorphism set not closed")

    monkeypatch.setattr(stability, "is_symmetric", broken)
    with pytest.raises(AssertionError):
        classify(Polytope(X6.vertices))
    monkeypatch.setattr(stability, "automorphisms", broken)
    with pytest.raises(AssertionError):
        falsify(Polytope(X6.vertices), 1)


def test_weak_symmetry_check_runs_once_per_polytope(monkeypatch):
    import chowtool.stability as stability

    calls = []
    real = stability.is_weakly_symmetric

    def counted(P):
        calls.append(P)
        return real(P)

    monkeypatch.setattr(stability, "is_weakly_symmetric", counted)
    # reflexive, not symmetric and not weakly symmetric: the FO test feeds
    # check_special, the necessity step and check_sufficient's path
    P = Polytope([(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1)])
    verdict = classify(P)
    assert verdict.status == NOT_SEMISTABLE
    assert len(calls) == 1


def test_classify_reuses_the_double_cone_it_is_given(monkeypatch):
    import chowtool.stability as stability
    from chowtool import catalog

    D = catalog.get("cube7_doublecone").polytope
    want = double_cone_instability(cube(7)).certificate

    def rebuilt(*args, **kwargs):
        raise AssertionError("classify built the double cone again")

    monkeypatch.setattr(stability, "double_cone", rebuilt)
    verdict = classify(D)
    assert verdict.status == NOT_SEMISTABLE
    got = verdict.certificate
    assert (got.kind, got.k, got.gap) == (want.kind, want.k, want.gap)
    assert got.function.values == want.function.values


def test_check_special_runs_each_facet_hull_once(monkeypatch):
    import chowtool.geometry as geometry
    from chowtool import catalog

    P = Polytope(catalog.get("cuboctahedron").polytope.vertices)
    faces = [f for f in P.facets if len(f.vertices) > P.dim]
    hulled = []
    real = geometry.convex_hull

    def counted(points):
        hulled.append(tuple(sorted(points)))
        return real(points)

    monkeypatch.setattr(geometry, "convex_hull", counted)
    assert check_special(P).status == POLYSTABLE
    # one hull per square facet, in the facet's own lattice coordinates,
    # kept in P's memo under the facet
    assert len(faces) == 6
    want = [tuple(sorted(geometry.facet_coordinates(f, f.vertices)[0])) for f in faces]
    assert sorted(hulled) == sorted(want)
    kept = [args for fn, args in P._memo if fn is geometry.facet_polytope]
    assert set(kept) == {(f,) for f in faces}


_WRONG_GAP_PROBE = """
from fractions import Fraction
from chowtool import stability
from chowtool.geometry import Polytope, double_cone, product

assert not __debug__
SEG = Polytope([(-1,), (1,)])
cube6 = SEG
for _ in range(5):
    cube6 = product(cube6, SEG)
skew = Polytope([(0, 0), (2, 0), (0, 1)])
stability.chow_gap = lambda P, k, f: Fraction(12345)
cases = [
    ("cap", lambda: stability.double_cone_instability(cube6)),
    ("vertex-cap", lambda: stability.vertex_cap_instability(double_cone(cube6), (0,) * 6 + (1,))),
    ("lp", lambda: stability.falsify(skew, 1)),
    ("affine-fo", lambda: stability.classify(skew)),
]
for name, run in cases:
    try:
        run()
    except AssertionError as exc:
        print(name, "refused:", exc)
    else:
        print(name, "accepted")
"""


def test_certificate_rechecks_survive_optimized_mode():
    # python -O strips assert statements; a chow_gap that returns a wrong gap
    # must still stop each certificate path
    import os
    import subprocess
    import sys

    import chowtool

    src = os.path.dirname(os.path.dirname(chowtool.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_GAP_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == [
        "cap refused: cap certificate failed re-evaluation",
        "vertex-cap refused: vertex-cap certificate failed re-evaluation",
        "lp refused: lp certificate failed re-evaluation",
        "affine-fo refused: affine-fo certificate failed re-evaluation",
    ]


_KINDS = ("cap", "vertex-cap", "affine-fo", "lp")


@pytest.mark.parametrize("gap", [Fraction(0), Fraction(1, 6)])
@pytest.mark.parametrize("kind", _KINDS)
def test_verify_refuses_a_nonnegative_gap(kind, gap):
    # with and without a function; |x_1| on the square re-evaluates to 1/6
    for function in (None, abs_x1_function(X8, 1)):
        cert = Certificate(kind=kind, k=1, gap=gap, function=function)
        with pytest.raises(AssertionError, match=f"^{kind} certificate gap {gap} is not negative$"):
            cert.verify(X8)


@pytest.mark.parametrize("kind", _KINDS)
def test_verify_refuses_a_gap_that_does_not_re_evaluate(kind):
    # -|x_1| on the square has chow gap -1/6 exactly
    f = abs_x1_function(X8, 1)
    f.values = {p: -v for p, v in f.values.items()}
    cert = Certificate(kind=kind, k=1, gap=Fraction(-1, 6), function=f)
    assert cert.verify(X8) is cert
    for wrong in (Fraction(-1, 5), Fraction(-1, 7)):
        with pytest.raises(AssertionError, match=f"^{kind} certificate failed re-evaluation$"):
            Certificate(kind=kind, k=1, gap=wrong, function=f).verify(X8)


def test_each_producer_verifies_its_certificate_once(monkeypatch):
    import chowtool.stability as stability

    calls = []
    real = stability.Certificate.verify

    def counted(self, P):
        calls.append(self.kind)
        return real(self, P)

    monkeypatch.setattr(stability.Certificate, "verify", counted)
    apex = (0,) * 6 + (1,)
    producers = [
        ("cap", lambda: double_cone_instability(cube(6)).certificate),
        ("vertex-cap", lambda: vertex_cap_instability(double_cone(cube(6)), apex).certificate),
        ("lp", lambda: falsify(Q_SKEW, 1)),
        ("affine-fo", lambda: classify(Polytope(Q_SKEW.vertices)).certificate),
    ]
    for kind, produce in producers:
        calls.clear()
        assert produce().kind == kind
        assert calls == [kind]


def _double_cone_cap_scan(D, k_scan=16):
    """The double-cone cap scan as it stood inline, the oracle for
    _first_negative_cap_gap: (k, gap), or None when no gap is negative."""
    Q = D._provenance[1][0]
    n = Q.dim
    cap_integral = 2 * volume(Q) / Fraction((n + 1) * (n + 2))
    for k in range(1, k_scan + 1):
        chi = count(D, k)
        vol = volume(D) * Fraction(k) ** D.dim
        gap = Fraction(2) / chi - cap_integral / vol
        if gap < 0:
            return k, gap
    return None


def _vertex_cap_scan(P, cap_integral):
    """The vertex-cap scan as it stood inline, the oracle for
    _first_negative_cap_gap."""
    d = P.dim
    for k in range(1, 17):
        chi = count(P, k)
        vol = volume(P) * Fraction(k) ** d
        gap = Fraction(1, chi) - cap_integral / vol
        if gap < 0:
            return k, gap
    return None


@pytest.mark.parametrize(
    "Q",
    [cube(6), cube(7), Polytope([(-3,), (3,)])],
    ids=["cube6", "cube7", "segment-boundary-case"],
)
def test_first_negative_cap_gap_matches_the_double_cone_scan(Q):
    from chowtool.stability import _first_negative_cap_gap

    D = double_cone(Q)
    n = Q.dim
    want = _double_cone_cap_scan(D)
    assert want is not None
    cap_integral = 2 * volume(Q) / Fraction((n + 1) * (n + 2))
    assert _first_negative_cap_gap(D, 2, cap_integral) == want
    verdict = double_cone_instability(Q)
    assert (verdict.certificate.k, verdict.certificate.gap) == want


def test_first_negative_cap_gap_matches_the_vertex_cap_scan():
    from chowtool.stability import _first_negative_cap_gap

    # the apex of D(cube6): relative base volume 64 against d(d+1) = 56
    D = double_cone(cube(6))
    verdict = vertex_cap_instability(D, (0,) * 6 + (1,))
    relvol = Fraction(dict(verdict.checks[0].data)["base_relative_volume"])
    cap_integral = relvol / Fraction(7 * 8)
    want = _vertex_cap_scan(D, cap_integral)
    assert want is not None
    assert _first_negative_cap_gap(D, 1, cap_integral) == want
    assert (verdict.certificate.k, verdict.certificate.gap) == want


def test_first_negative_cap_gap_raises_without_a_negative_gap():
    from chowtool.stability import _first_negative_cap_gap

    # a cap of integral 0 leaves every gap positive
    assert _vertex_cap_scan(X8, Fraction(0)) is None
    with pytest.raises(AssertionError, match="cap gap stays nonnegative"):
        _first_negative_cap_gap(X8, 1, Fraction(0))


@pytest.mark.parametrize(
    "verts",
    [[(0, 0), (1, 0), (0, 1)], [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]],
    ids=["triangle", "tetrahedron"],
)
def test_classify_unit_simplex_reaches_a_verdict(verts):
    # its lattice points are the d + 1 vertices, so the falsifier's Delaunay
    # carrier is the simplex itself
    n = len(verts[0])
    verdict = classify(Polytope(verts))
    assert verdict.status == INCONCLUSIVE
    check = verdict.check("falsifier")
    assert not check.passed
    assert check.detail == f"LP optimum nonpositive for k = 1..{min(n + 1, 4)} (sound, not complete)"


def _fold_rows_by_ridge(carrier, var_of_id, nvars):
    """The oracle for _fold_rows: one Fraction solve of the homogenized
    system per interior ridge, and the rows deduplicated as Fractions."""
    from chowtool.linalg import solve_rational

    points = carrier.points
    n = len(points[0])
    census = {}
    for cell in carrier.cells:
        for i in range(len(cell)):
            census.setdefault(cell[:i] + cell[i + 1 :], []).append(cell[i])
    rows = []
    for face, owners in census.items():
        if len(owners) != 2:
            continue
        a, b = owners
        cols = [points[j] for j in face + (a,)]
        mat = [[c[i] for c in cols] for i in range(n)] + [[1] * len(cols)]
        sol = solve_rational(mat, list(points[b]) + [1])
        row = [Fraction(0)] * nvars
        for coeff, j in zip(sol, face + (a,)):
            row[var_of_id[j]] += coeff
        row[var_of_id[b]] -= 1
        if any(row):
            rows.append(tuple(row))
    return list(dict.fromkeys(rows))


@pytest.mark.parametrize(
    "name, k",
    [("P3_blowup4", 1), ("P3_blowup4", 2), ("cube5_doublecone", 1), ("cube6_doublecone", 1)],
)
def test_memoised_fold_rows_match_per_ridge_solves(name, k, monkeypatch):
    from chowtool import catalog, stability

    seen = []
    real = stability._fold_rows

    def recorded(carrier, var_of_id, nvars):
        seen.append((carrier, var_of_id, nvars))
        return real(carrier, var_of_id, nvars)

    monkeypatch.setattr(stability, "_fold_rows", recorded)
    falsify(catalog.get(name).polytope, k)
    (carrier, var_of_id, nvars), = seen
    got = real(carrier, var_of_id, nvars)
    assert got == _fold_rows_by_ridge(carrier, var_of_id, nvars)
    assert all(type(x) is Fraction for row in got for x in row)
    # without the orbit identification every ridge row stays its own
    ids = list(range(len(carrier.points)))
    assert real(carrier, ids, len(ids)) == _fold_rows_by_ridge(carrier, ids, len(ids))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 2, max_size=14, unique=True
        )
    )
)
def test_fold_rows_match_per_ridge_solves_on_delaunay_carriers(pts):
    # irregular carriers, where one cell shape and ridge meet several
    # opposite vertices
    from chowtool import stability
    from chowtool.errors import NotFullDimensional

    try:
        carrier = delaunay_triangulation(pts)
    except NotFullDimensional:
        return
    ids = list(range(len(carrier.points)))
    assert stability._fold_rows(carrier, ids, len(ids)) == _fold_rows_by_ridge(carrier, ids, len(ids))


def test_fold_rows_solve_once_per_ridge_shape(monkeypatch):
    from chowtool import catalog, stability

    solves = []
    real = stability.solve_int

    def counted(matrix, rhs):
        solves.append((tuple(map(tuple, matrix)), tuple(rhs)))
        return real(matrix, rhs)

    monkeypatch.setattr(stability, "solve_int", counted)
    carrier, _ = stability.bipyramid_carrier(cube(6))
    ids = list(range(len(carrier.points)))
    stability._fold_rows(carrier, ids, len(ids))
    interior = sum(1 for c in carrier.ridge_counts().values() if c == 2)
    # each system is solved once, and 4,320 ridges come in a few dozen shapes
    assert interior == 4320
    assert len(solves) == len(set(solves)) < interior // 50


def test_falsifier_invariants_raise_without_asserts():
    # explicit raises, so python -O keeps them
    from chowtool import stability

    _, locate = stability.bipyramid_carrier(cube(3))
    with pytest.raises(AssertionError, match="only serves k = 1"):
        locate((0, 0, 0, 2))
    # the ridge (0, 0)-(1, 0) has the collinear cell, which sorts first, on one side
    flat = Triangulation.from_blocks(2, [([(-1, 0), (0, 0), (0, 1), (1, 0)], [(0, 1, 3), (1, 2, 3)])])
    with pytest.raises(AssertionError, match="ridge system must be solvable"):
        stability._fold_rows(flat, [0, 1, 2, 3], 4)


# ---------------------------------------------------------------------------
# the per-cell bipyramid build and the Fraction locate the corner-id carrier
# replaced on boxes, kept as their oracles
# ---------------------------------------------------------------------------


def _bipyramid_carrier_by_cells(Q):
    n = Q.dim
    box = _facet_as_aligned_box(Q)
    if box is not None:
        _, los, his = box
        steps = [hi - lo for lo, hi in zip(los, his)]
        base = [staircase_chain(los, steps, sigma) for sigma in permutations(range(n))]
    else:
        base = list(_fan_simplices(Q))
    cells = []
    for cell in base:
        lifted = [v + (0,) for v in cell]
        cells.append(lifted + [(0,) * n + (1,)])
        cells.append(lifted + [(0,) * n + (-1,)])
    return Triangulation.from_blocks(n + 1, cell_blocks(cells))


def _box_locate_by_fractions(Q, point):
    n = Q.dim
    _, los, his = _facet_as_aligned_box(Q)
    p, q = point[:-1], point[-1]
    if q:
        assert not any(p) and q in (1, -1)
        return [((0,) * n + (q,), Fraction(1))]
    steps = [hi - lo for lo, hi in zip(los, his)]
    u = [Fraction(p[i] - los[i], steps[i]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (-u[i], i))
    corners = staircase_chain(los, steps, order)
    lams = [1 - u[order[0]]]
    lams += [u[order[t]] - u[order[t + 1]] for t in range(n - 1)]
    lams.append(u[order[-1]])
    return [(corners[i] + (0,), lams[i]) for i in range(n + 1) if lams[i] != 0]


_NON_CUBE_BOX = Polytope(list(iproduct((0, 2), (-1, 3), (1, 2))), name="box")


@pytest.mark.parametrize(
    "Q",
    [cube(n) for n in range(1, 8)] + [_NON_CUBE_BOX, X6, Q_SKEW, double_cone(X4)],
    ids=lambda Q: Q.name or "D(X4)",
)
def test_bipyramid_carrier_matches_cell_oracle(Q):
    carrier, _ = bipyramid_carrier(Q)
    oracle = _bipyramid_carrier_by_cells(Q)
    assert carrier.points == oracle.points
    assert carrier.cells == oracle.cells


def test_bipyramid_carrier_of_cube7_peaks_under_a_third_of_the_cell_oracle():
    Q = cube(7)
    _facet_as_aligned_box(Q)  # Q's vertices are built outside the measurement

    def peak(fn):
        tracemalloc.start()
        try:
            fn(Q)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(bipyramid_carrier) < peak(_bipyramid_carrier_by_cells) / 3


@pytest.mark.parametrize("Q", [cube(n) for n in range(3, 7)] + [_NON_CUBE_BOX], ids=attrgetter("name"))
def test_bipyramid_locate_matches_fraction_oracle(Q):
    _, locate = bipyramid_carrier(Q)
    if Q is _NON_CUBE_BOX:  # no double cone: its lattice points at height 0
        points = [p + (0,) for p in lattice_points(Q, 1)]
    else:
        points = lattice_points(double_cone(Q), 1)
    for p in points:
        weights = locate(p)
        assert weights == _box_locate_by_fractions(Q, p)
        assert all(type(w) is Fraction for _, w in weights)


def _record_table_builds(monkeypatch):
    """Wrap the table builders of kP, where the triangulation module defines
    them and where the stability module binds them; the returned list gets
    (k, weak reference to the table) per build, and a build fails while a
    table of a smaller dilation is still alive."""
    from chowtool import stability, triangulation

    built = []

    def recording(builder):
        def build(P, k):
            alive = [j for j, table in built if j < k and table() is not None]
            assert not alive, f"tables of dilations {alive} alive when k = {k} is built"
            T = builder(P, k)
            built.append((k, weakref.ref(T)))
            return T

        return build

    for module, name in (
        (triangulation, "boundary_triangulation"),
        (triangulation, "full_triangulation"),
    ):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    return built


@pytest.mark.parametrize("entry", [check_special, check_sufficient])
def test_no_earlier_dilation_table_is_alive_when_the_next_is_built(entry, monkeypatch):
    from chowtool import catalog

    built = _record_table_builds(monkeypatch)
    verdict = entry(catalog.get("D_X4").polytope)
    assert verdict.status == POLYSTABLE
    # both criteria read k = 2..4 off the level-1 strata, so nothing past
    # level 1 is built
    assert {k for k, _ in built} <= {1}


_SPECIAL = ["X6", "A3", "D_X4", "cuboctahedron", "simplexPn3", "A4", "D4", "simplexPn4", "A5", "D5"]


@pytest.mark.parametrize("name", _SPECIAL)
def test_check_special_builds_only_the_level1_boundary(name, monkeypatch):
    from chowtool import catalog

    built = _record_table_builds(monkeypatch)
    verdict = check_special(catalog.get(name).polytope)
    assert verdict.status == POLYSTABLE
    # check_special reads level1_boundary_strata and builds no table of kP
    assert built == []


def _inflate_stratum(monkeypatch, dim, excess=1):
    """Make the boundary strata check_special reads (level1_boundary_strata)
    raise the least face of dimension dim past n! by excess: a fabricated
    stratum table, as a complex whose alcove refinements break the bound
    would give."""
    from chowtool import stability

    real = stability.level1_boundary_strata
    inflated = []

    def fabricated(P):
        points, report, strata = real(P)
        # a copy: the real strata are a cached fact of P
        strata = dict(strata)
        face = min(f for f in strata if len(f) == dim + 1)
        strata[face] = factorial(P.dim) + excess
        inflated.append(tuple(map(points.__getitem__, face)))
        return points, report, strata

    monkeypatch.setattr(stability, "level1_boundary_strata", fabricated)
    return inflated


def test_check_special_refuses_a_stratum_past_the_sampled_dilations(monkeypatch):
    from chowtool import catalog

    P = catalog.get("D_X4").polytope
    inflated = _inflate_stratum(monkeypatch, 2)
    built = _record_table_builds(monkeypatch)
    # k = 1, 2 sample the strata of dimension 0 and 1 only
    verdict = check_special(P, k_max=2)
    assert verdict.status == INCONCLUSIVE
    check = verdict.check("regular boundary")
    assert not check.passed
    assert check.detail == (
        "a stratum of dimension 2 has incidence 7 > n! = 6; k = 1..2 sample dimensions up to 1"
    )
    assert dict(check.data) == {"dimension": "2", "incidence": "7", "face": str(inflated[0])}
    assert built == []


def test_check_special_refuses_a_sampled_stratum_past_the_bound(monkeypatch):
    from chowtool import catalog

    P = catalog.get("D_X4").polytope
    inflated = _inflate_stratum(monkeypatch, 1, excess=2)
    built = _record_table_builds(monkeypatch)
    verdict = check_special(P)
    # the edge strata are sampled from k = 2 on; the stratum report refuses
    # the verdict without a dilated table being built
    assert verdict.status == INCONCLUSIVE
    check = verdict.check("regular boundary")
    assert not check.passed
    assert check.detail == (
        "a stratum of dimension 1 has incidence 8 > n! = 6; k = 1..4 sample dimensions up to 3"
    )
    assert dict(check.data) == {"dimension": "1", "incidence": "8", "face": str(inflated[0])}
    assert built == []


_PINNED_VERDICTS = ["D6", "D7", "simplexPn5", "D_X8", "D_X9", "cube5_doublecone"]


@pytest.mark.parametrize("name", _PINNED_VERDICTS)
def test_verdict_json_of_the_largest_special_entries_is_pinned(name, monkeypatch):
    from pathlib import Path

    from chowtool import catalog, jsonio

    built = _record_table_builds(monkeypatch)
    P = catalog.get(name).polytope
    text = jsonio.dump_json(jsonio.verdict_to_json(P, classify(P))) + "\n"
    assert text == (Path(__file__).parent / "data" / "verdicts" / f"{name}.json").read_text()
    # both criteria read the level-1 strata, so no table of kP is built
    assert built == []


@pytest.mark.parametrize("name", catalog.list_names())
def test_classify_verifies_each_level1_boundary_once(name, monkeypatch):
    # check_special and check_sufficient read one verified boundary, so an
    # entry that runs both (D_X8, D_X9) verifies it once too; every module
    # of the package that binds verify_regular_boundary is counted
    import chowtool

    real = triangulation.verify_regular_boundary
    calls = []

    def counted(P, T, k):
        # the polytope itself, so that no two counted ones share an id
        calls.append(P)
        return real(P, T, k)

    for module in vars(chowtool).values():
        if getattr(module, "verify_regular_boundary", None) is real:
            monkeypatch.setattr(module, "verify_regular_boundary", counted)
    # a copy with none of its per-polytope facts computed yet
    P = catalog.get(name).polytope.with_name(name)
    classify(P)
    assert max(Counter(map(id, calls)).values(), default=0) <= 1


@pytest.mark.parametrize("k_max", [0, -2])
@pytest.mark.parametrize("entry", [classify, check_special, check_sufficient])
def test_k_max_below_one_is_refused(entry, k_max):
    from chowtool import catalog

    # X6 would end polystable with no dilation checked; P3_blowup4 would
    # reach check_sufficient's worst margin with none recorded
    for P in (catalog.get("X6").polytope, catalog.get("P3_blowup4").polytope, SEG):
        with pytest.raises(ValueError, match="^k_max must be >= 1$"):
            entry(P, k_max=k_max)


def _coordinate_split_by_rebuild(P):
    """Oracle: the coordinate blocks of P's facet normals, and the vertex set
    compared with the product of its projections, rebuilt point by point."""
    n = P.dim
    blocks = [{i} for i in range(n)]
    for f in P.facets:
        support = {i for i in range(n) if f.normal[i] != 0}
        touched = [b for b in blocks if b & support]
        blocks = [b for b in blocks if not b & support] + [set().union(*touched)]
    groups = sorted(sorted(b) for b in blocks if b)
    if len(groups) < 2:
        return None
    projs = [sorted({tuple(v[i] for i in g) for v in P.vertices}) for g in groups]
    rebuilt = set()
    for parts in iproduct(*projs):
        point = [0] * n
        for g, part in zip(groups, parts):
            for i, x in zip(g, part):
                point[i] = x
        rebuilt.add(tuple(point))
    if rebuilt != set(P.vertices):
        return None
    return groups, projs


@st.composite
def _split_inputs(draw):
    """A stand-in for a polytope: facet normals each supported in one block
    of a random partition of the coordinates, and either the product of
    random point sets on the blocks, that product less some points, or a
    random point set."""
    from types import SimpleNamespace

    n = draw(st.integers(2, 4))
    label = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    blocks = [[i for i in range(n) if label[i] == b] for b in sorted(set(label))]
    coord = st.integers(-2, 2)
    normals = []
    for block in draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=6)):
        entries = draw(st.lists(coord, min_size=len(block), max_size=len(block)))
        normal = [0] * n
        for i, x in zip(block, entries):
            normal[i] = x
        normals.append(tuple(normal))
    sides = [
        draw(st.sets(st.tuples(*[coord] * len(b)), min_size=1, max_size=3)) for b in blocks
    ]
    vertices = set()
    for parts in iproduct(*sides):
        point = [0] * n
        for b, part in zip(blocks, parts):
            for i, x in zip(b, part):
                point[i] = x
        vertices.add(tuple(point))
    kind = draw(st.sampled_from(["product", "less", "random"]))
    if kind == "less" and len(vertices) > 1:
        drop = draw(st.sets(st.sampled_from(sorted(vertices)), min_size=1, max_size=len(vertices) - 1))
        vertices -= drop
    elif kind == "random":
        vertices = draw(st.sets(st.tuples(*[coord] * n), min_size=1, max_size=12))
    facets = [SimpleNamespace(normal=v) for v in normals]
    return SimpleNamespace(dim=n, facets=facets, vertices=tuple(sorted(vertices)))


@settings(max_examples=300, deadline=None)
@given(_split_inputs())
def test_coordinate_split_counts_the_product_of_the_projections(P):
    from chowtool.stability import _coordinate_split

    assert _coordinate_split(P) == _coordinate_split_by_rebuild(P)


@pytest.mark.parametrize("name", [n for n in catalog.list_names() if catalog.get(n).polytope.dim > 1])
def test_coordinate_split_of_the_catalog_matches_the_rebuild(name):
    from chowtool.stability import _coordinate_split

    P = catalog.get(name).polytope
    assert _coordinate_split(P) == _coordinate_split_by_rebuild(P)
