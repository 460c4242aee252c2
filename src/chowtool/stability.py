"""Stability verdicts for polarized toric varieties read off the polytope.

Everything funnels through one inequality: the polytope is semistable at
(k, f) exactly when the discrete average of the convex test function f over
the lattice points of kP is at least its continuous average.  chow_gap
returns that difference (discrete minus continuous), so a strictly negative
gap for a single admissible f certifies non-semistability, while the
polystable verdicts always cite the theorem that licenses them (the special
criterion or the incidence criterion); equality analysis is never re-derived
here.

A note on invariance: the criteria quantify over G-invariant convex
functions, but averaging any convex f over the automorphism group changes
neither sum nor integral (each group element permutes the lattice points of
kP and preserves volume).  A negative gap for a plain convex PL function
therefore always yields a G-invariant convex witness with the same gap, so
certificates produced here are sound even when their carrier triangulation
is not group-invariant.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, prod

from .errors import (
    CoverageError,
    NoStrategy,
    NonIntegralCut,
    NotFullDimensional,
    NotReflexive,
    NoTriangulation,
    OriginNotInterior,
)
from .geometry import (
    Polytope,
    adjacent_vertices,
    volume,
    centroid,
    lattice_points,
    double_cone,
    is_reflexive,
    per_polytope,
    _fan_simplices,
)
from .ehrhart import count
from .symmetry import (
    AffineFunctional,
    automorphisms,
    automorphism_generators,
    orbits,
    is_symmetric,
    is_weakly_symmetric,
    fo_invariant,
)
from .triangulation import (
    Triangulation,
    LatticeSimplex,
    cell_blocks,
    delaunay_triangulation,
    level1_boundary_strata,
    level1_strata,
    relint_points,
    staircase_chain,
    _facet_as_aligned_box,
    _freudenthal_box_block,
)
from .linalg import dot, vec_add, vec_sub, independent_rows, solve_int, solve_rational, primitive
from .lp import solve_lp

# polytopes whose weak-symmetry check would enumerate more points than this
# get the check skipped inside classify/check_special (recorded, not silent)
_WEAK_SYMMETRY_POINT_BUDGET = 300_000


# ---------------------------------------------------------------------------
# verdict plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One named step of a verdict with its exact numbers."""

    name: str
    passed: bool
    detail: str = ""
    data: tuple = ()  # sorted (key, value-as-string) pairs

    @staticmethod
    def make(name, passed, detail="", **data):
        return Check(
            name=name,
            passed=passed,
            detail=detail,
            data=tuple(sorted((k, str(v)) for k, v in data.items())),
        )


POLYSTABLE = "polystable"
NOT_SEMISTABLE = "not_semistable"
INCONCLUSIVE = "inconclusive"


@dataclass
class StabilityVerdict:
    status: str
    checks: list
    certificate: object = None  # Certificate for not_semistable verdicts
    polytope_name: str = None

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def summary(self):
        return f"{self.polytope_name or 'polytope'}: {self.status}"


@dataclass
class Certificate:
    """A destabilizing witness: a convex PL function with negative gap.

    verify(P) is the one re-check of every certificate: each producer builds
    its certificate as Certificate(...).verify(P), so the gap is negative
    and, whenever a function is carried, re-evaluates through chow_gap
    independently of the code path that produced it.
    """

    kind: str  # "cap", "vertex-cap", "affine-fo", "lp"
    k: int
    gap: Fraction
    function: object = None  # PLFunction, may be None when only analytic
    detail: str = ""

    def verify(self, P):
        """Require gap < 0 and, when a function is carried, chow_gap(P, k,
        function) == gap; return self.  Explicit raises, so python -O keeps
        the checks."""
        if self.gap >= 0:
            raise AssertionError(f"{self.kind} certificate gap {self.gap} is not negative")
        if self.function is not None and chow_gap(P, self.k, self.function) != self.gap:
            raise AssertionError(f"{self.kind} certificate failed re-evaluation")
        return self


# ---------------------------------------------------------------------------
# PL functions and the master gap
# ---------------------------------------------------------------------------


@dataclass
class PLFunction:
    """Function on kP given by exact values at every lattice point plus a
    carrier decomposition of kP into simplices on which it is linear.

    The carrier must cover kP with disjoint interiors; its vertices must be
    lattice points carrying values.  Face-to-face gluing is only needed for
    the fold-based convexity test, not for integration.
    """

    values: dict
    carrier: Triangulation

    def __call__(self, point):
        return self.values[tuple(point)]


def chow_gap(P, k, f):
    """Discrete average minus continuous average of f over kP.

    Exact: the integral of a function linear on each carrier simplex is the
    simplex volume times the vertex mean.  Raises CoverageError when the
    carrier volumes do not sum to Vol(kP).
    """
    n = P.dim
    vol_target = volume(P) * Fraction(k) ** n
    total = f.carrier.relative_volume()
    if total != vol_target:
        raise CoverageError(f"carrier volume {total} != Vol(kP) = {vol_target}")
    weight = _vertex_weights(f.carrier)
    integral = Fraction(sum(f.values[v] * w for v, w in weight.items()), factorial(n + 1))
    pts = lattice_points(P, k)
    discrete = Fraction(sum(f.values[p] for p in pts), len(pts))
    return discrete - integral / vol_target


def _vertex_weights(carrier):
    """{v: sum of n! Vol(cell) over the carrier cells with vertex v}, in ints.

    A function linear on each cell then integrates to
    sum over v of f(v) * weight[v] / (n + 1)!.
    """
    weight = [0] * len(carrier.points)
    for cell, vol in zip(carrier.cells, carrier.volumes()):
        for i in cell:
            weight[i] += vol
    return dict(zip(carrier.points, weight))


def scaled_fan_carrier(P, k):
    """Carrier for functions linear on all of kP: the k-scaled vertex fan."""
    cells = [[tuple(k * x for x in p) for p in s] for s in _fan_simplices(P)]
    return Triangulation.from_blocks(P.dim, cell_blocks(cells))


def affine_pl_function(P, k, a, sign=1):
    """The affine test function sign * a(x/k) on kP, with a trivial carrier.

    Its chow gap equals sign * FO_P(a, k) exactly.
    """
    carrier = scaled_fan_carrier(P, k)
    values = {}
    for p in lattice_points(P, k):
        values[p] = sign * a(tuple(Fraction(x, k) for x in p))
    return PLFunction(values=values, carrier=carrier)


# ---------------------------------------------------------------------------
# corner triangulations and cap carriers
# ---------------------------------------------------------------------------


def bipyramid_carrier(Q):
    """Carrier of D(Q) at k = 1: both apexes coned over a corner triangulation
    of the equator.  Returns (Triangulation, locate) where locate(point)
    yields exact barycentric weights on carrier vertices.

    On an aligned box the carrier is one block: the staircase triangulation
    of the unit cube (_freudenthal_box_block), whose 2^n corners are mapped
    onto the box's corners and lifted by a trailing 0, then the two apexes.
    Each of its n! chains of corner ids, one per coordinate order, is coned
    to either apex; no vertex tuple is built per cell, and the point table
    and cells come out as if each staircase cell had been passed as its own
    block of vertices.  Other polytopes cone the placing fan (_fan_simplices
    from the least vertex) cell by cell.
    """
    n = Q.dim
    apex_up = (0,) * n + (1,)
    apex_dn = (0,) * n + (-1,)
    box = _facet_as_aligned_box(Q)
    if box is not None:
        _, los, his = box
        steps = [hi - lo for lo, hi in zip(los, his)]
        # locate_base reads u_i = (p_i - lo_i) / step_i as ints over one L
        L = prod(steps)
        scale = [L // s for s in steps]
        unit, chains = _freudenthal_box_block((0,) * n, (1,) * n)
        corners = [
            tuple(lo + x * s for x, lo, s in zip(pt, los, steps)) + (0,) for pt in unit
        ]
        up, dn = len(corners), len(corners) + 1
        cells = [c + (apex,) for c in chains for apex in (up, dn)]
        carrier = Triangulation.from_blocks(n + 1, [(corners + [apex_up, apex_dn], cells)])
    else:
        base_cells = list(_fan_simplices(Q))
        cells = []
        for cell in base_cells:
            lifted = [v + (0,) for v in cell]
            cells.append(lifted + [apex_up])
            cells.append(lifted + [apex_dn])
        carrier = Triangulation.from_blocks(n + 1, cell_blocks(cells))

    def locate_base(p):
        """Barycentric weights of p inside some base cell of Q."""
        if box is not None:
            U = [(x - lo) * s for x, lo, s in zip(p, los, scale)]
            order = sorted(range(n), key=lambda i: (-U[i], i))
            chain = staircase_chain(los, steps, order)
            lams = [L - U[order[0]]]
            for t in range(n - 1):
                lams.append(U[order[t]] - U[order[t + 1]])
            lams.append(U[order[-1]])
            # exact reconstruction check, in ints over L; the weights
            # telescope to L, so only the coordinates need checking
            if any(
                sum(lam * v[i] for v, lam in zip(chain, lams)) != p[i] * L for i in range(n)
            ):
                raise AssertionError("barycentric weights do not reproduce the point")
            return [(v, Fraction(lam, L)) for v, lam in zip(chain, lams) if lam]
        weights = None
        for cell in base_cells:
            bc = LatticeSimplex(vertices=tuple(sorted(cell))).barycentric(p)
            if bc is not None:
                verts = tuple(sorted(cell))
                weights = [
                    (verts[i], bc[i]) for i in range(len(verts)) if bc[i] != 0
                ]
                break
        if weights is None:
            raise AssertionError("point escaped the base triangulation")
        # exact reconstruction check
        if sum(w for _, w in weights) != 1 or any(
            sum(w * v[i] for v, w in weights) != p[i] for i in range(n)
        ):
            raise AssertionError("barycentric weights do not reproduce the point")
        return weights

    def locate(point):
        q = point[-1]
        p = point[:-1]
        if q == 1 and all(x == 0 for x in p):
            return [(apex_up, Fraction(1))]
        if q == -1 and all(x == 0 for x in p):
            return [(apex_dn, Fraction(1))]
        if q != 0:
            raise AssertionError("bipyramid carrier only serves k = 1")
        return [(v + (0,), w) for v, w in locate_base(p)]

    return carrier, locate


def double_cone_cap(Q, k):
    """The two-sided cap function on kD(Q): 0 on |q| <= k-1, rising to 1 at
    the apexes.  Materialized with a carrier only at k = 1 (where it equals
    |q|); the analytic gap is available at every k."""
    D = double_cone(Q)
    if k != 1:
        raise NoTriangulation("cap carrier implemented at k = 1 only")
    return D, _cap_function(D)


def _cap_function(D):
    """The cap |q| on the double cone D = D(Q) at k = 1, on the bipyramid
    carrier over Q (read from D's provenance)."""
    carrier, _ = bipyramid_carrier(D._provenance[1][0])
    values = {}
    for p in lattice_points(D, 1):
        values[p] = Fraction(abs(p[-1]))
    return PLFunction(values=values, carrier=carrier)


def _first_negative_cap_gap(P, total_weight, cap_integral):
    """(k, gap) at the first k = 1..16 where the analytic cap gap
    total_weight / chi(kP) - cap_integral / Vol(kP) is negative."""
    vol = volume(P)
    for k in range(1, 17):
        gap = Fraction(total_weight, count(P, k)) - cap_integral / (vol * Fraction(k) ** P.dim)
        if gap < 0:
            return k, gap
    raise AssertionError("cap gap stays nonnegative for k = 1..16")


# ---------------------------------------------------------------------------
# instability certificates
# ---------------------------------------------------------------------------


def double_cone_instability(Q):
    """Volume criterion for the double cone: Vol(Q) >= (n+1)(n+2) makes D(Q)
    not semistable, witnessed by the cap function.

    The verdict records the exact threshold arithmetic; when it fires, the
    smallest dilation with a negative cap gap is located by an upward scan
    (the boundary case Vol(Q) = (n+1)(n+2) still fails semistability because
    chi(kD) exceeds Vol(kD) strictly; flagged in the check trail).
    """
    D = double_cone(Q, name=f"D({Q.name})" if Q.name else None)
    return _double_cone_verdict(D)


def _double_cone_verdict(D):
    """double_cone_instability on an already built double cone D = D(Q),
    with Q read from D's provenance, so each fact of D is computed once."""
    Q = D._provenance[1][0]
    n = Q.dim
    vol_q = volume(Q)
    threshold = (n + 1) * (n + 2)
    checks = [
        Check.make(
            "double-cone volume threshold",
            vol_q >= threshold,
            detail=f"Vol(Q) = {vol_q} vs (n+1)(n+2) = {threshold}",
            volume=vol_q,
            threshold=threshold,
            boundary_case=(vol_q == threshold),
        )
    ]
    if vol_q < threshold:
        return StabilityVerdict(
            status=INCONCLUSIVE, checks=checks, polytope_name=D.name
        )
    cap_integral = 2 * vol_q / Fraction((n + 1) * (n + 2))
    k, gap = _first_negative_cap_gap(D, 2, cap_integral)
    certificate = Certificate(
        kind="cap",
        k=k,
        gap=gap,
        function=_cap_function(D) if k == 1 else None,
        detail="two-sided cap over the apexes",
    ).verify(D)
    checks.append(
        Check.make(
            "cap gap scan",
            True,
            detail=f"first negative chow gap at k = {k}: {gap}",
            k=k,
            gap=gap,
            cap_integral_both_sides=cap_integral,
        )
    )
    return StabilityVerdict(
        status=NOT_SEMISTABLE,
        checks=checks,
        certificate=certificate,
        polytope_name=D.name,
    )


def _edges_at_vertex(P, v):
    """Primitive edge directions of P at the vertex v."""
    return sorted({primitive(vec_sub(w, v)) for w in adjacent_vertices(P, v)})


def vertex_cap_instability(P, v):
    """Unit vertex-cut criterion at a vertex v (informal in the source; the
    verdict says so).

    Slices the vertex cone at lattice distance one, i.e. along the integral
    functional u with u(e) = -1 on every primitive edge direction e at v; if
    no such integral u exists, the cut is rejected with NonIntegralCut.
    Relative base volume >= d(d+1) certifies non-semistability with a
    one-sided cap.
    """
    d = P.dim
    v = tuple(v)
    if v not in P.vertices:
        raise ValueError(f"{v} is not a vertex")
    dirs = _edges_at_vertex(P, v)
    sol = _solve_functional(dirs, d)
    if sol is None:
        raise NonIntegralCut("edge directions admit no integral unit-cut functional")
    u = sol
    umax = dot(u, v)
    for w in P.vertices:
        if w != v and dot(u, w) >= umax:
            raise NonIntegralCut("cut functional is not uniquely maximized at v")
    base_pts = [tuple(a + b for a, b in zip(v, e)) for e in dirs]
    cap_poly = Polytope([v] + base_pts)
    # the cap is a pyramid over its base at lattice height 1 (u is primitive,
    # as u(e) = -1), so the base's relative volume is d times the cap's volume
    relvol = d * volume(cap_poly)
    threshold = d * (d + 1)
    fires = relvol >= threshold
    checks = [
        Check.make(
            "vertex-cap threshold (informal criterion)",
            fires,
            detail=f"relative base volume {relvol} vs d(d+1) = {threshold}",
            vertex=v,
            functional=u,
            base_relative_volume=relvol,
            threshold=threshold,
        )
    ]
    if not fires:
        return StabilityVerdict(
            status=INCONCLUSIVE, checks=checks, polytope_name=P.name
        )
    cap_integral = relvol / Fraction(d * (d + 1))
    k, gap = _first_negative_cap_gap(P, 1, cap_integral)
    function = _vertex_cap_function(P, v, u, k, dirs, cap_poly)
    certificate = Certificate(
        kind="vertex-cap",
        k=k,
        gap=gap,
        function=function,
        detail=f"unit cap at vertex {v} (marked informal criterion)",
    ).verify(P)
    checks.append(
        Check.make(
            "vertex-cap gap scan",
            True,
            detail=f"first negative chow gap at k = {k}: {gap}",
            k=k,
            gap=gap,
        )
    )
    if function is None:
        checks.append(
            Check.make(
                "vertex-cap function",
                False,
                detail=(
                    f"skipped: at k = {k} the rest of kP past the cut is not "
                    "full-dimensional, so there is no carrier; the certificate "
                    "carries the analytic gap only, not re-evaluated"
                ),
                k=k,
            )
        )
    return StabilityVerdict(
        status=NOT_SEMISTABLE,
        checks=checks,
        certificate=certificate,
        polytope_name=P.name,
    )


def _solve_functional(dirs, d):
    """Integral u with <u, e> = -1 for all edge directions e, or None."""
    kept = independent_rows(dirs)
    if len(kept) < d:
        return None
    sol = solve_rational([dirs[i] for i in kept], [-1] * d)
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    u = tuple(int(x) for x in sol)
    if any(dot(u, e) != -1 for e in dirs):
        return None
    return u


def _vertex_cap_function(P, v, u, k, dirs, cap_poly):
    """One-sided cap PLFunction at dilation k, or None when no carrier fits.

    The carrier splits kP along u(x) = k u(v) - 1 into the cap cone from kv
    and the remainder, each triangulated from its own point; only linearity
    per cell matters for the gap, and the cap is convex by construction.
    dirs are the edge directions at v and cap_poly the unit cap at v, both
    from vertex_cap_instability.  The cap at kv is cap_poly moved by
    (k - 1)v, and a hull moves with its points, so the cap's fan from kv is
    cap_poly's fan from v moved the same way; only the remainder is hulled.
    """
    d = P.dim
    cut = k * dot(u, v) - 1
    shift = tuple((k - 1) * x for x in v)
    base_pts = [tuple(k * a + b for a, b in zip(v, e)) for e in dirs]
    rest_verts = sorted(
        set(tuple(k * x for x in w) for w in P.vertices if w != v)
        | set(base_pts)
    )
    try:
        rest = Polytope(rest_verts)
    except NotFullDimensional:
        return None
    cap_cells = [[vec_add(shift, p) for p in s] for s in _fan_simplices(cap_poly, v)]
    carrier = Triangulation.from_blocks(d, cell_blocks(cap_cells + list(_fan_simplices(rest))))
    values = {}
    for p in lattice_points(P, k):
        values[p] = Fraction(max(0, dot(u, p) - cut))
    return PLFunction(values=values, carrier=carrier)


# ---------------------------------------------------------------------------
# polystability criteria
# ---------------------------------------------------------------------------


@per_polytope
def _weak_symmetry_check(P):
    """(check, witness_or_None) honoring the enumeration budget.

    Symmetric polytopes short-circuit: FO is invariant under composing the
    functional with a lattice automorphism, so FO(a, k) equals FO of the
    group average of a, which is constant when the fixed subspace is 0, and
    FO of a constant vanishes.  is_symmetric needs the origin interior,
    which every offset >= 1 gives, and so do the factors it answers from: a
    product's or double cone's carry offsets of its own facets, and a dual's
    is reflexive.  The result is a function of P alone, so it is computed
    once per polytope.
    """
    n = P.dim
    if all(f.offset >= 1 for f in P.facets) and is_symmetric(P):
        return (
            Check.make(
                "weakly symmetric",
                True,
                detail=(
                    "symmetric: the automorphism group fixes only 0, every "
                    "invariant affine functional is constant, FO vanishes "
                    "identically"
                ),
            ),
            None,
        )
    est = volume(P) * Fraction(n + 3) ** n
    if est > _WEAK_SYMMETRY_POINT_BUDGET:
        return (
            Check.make(
                "weakly symmetric",
                False,
                detail="skipped: enumeration beyond budget; verdict stays inconclusive on this path",
                estimated_points=est,
            ),
            None,
        )
    ok, evidence = is_weakly_symmetric(P)
    if ok:
        extra = all(evidence.validate_at(k) for k in range(n + 4, n + 7))
        return (
            Check.make(
                "weakly symmetric",
                True,
                detail=(
                    f"FO vanishes for all k: polynomial identity at k = 1..{n+3}, "
                    f"revalidated at k = {n+4}..{n+6}"
                ),
                out_of_sample_ok=extra,
            ),
            None,
        )
    return (
        Check.make("weakly symmetric", False, detail=evidence.describe()),
        evidence,
    )


def _k_max(P, k_max):
    """The dilation bound of the polystability checks: k_max, by default
    min(n + 1, 4); ValueError below 1."""
    if k_max is None:
        return min(P.dim + 1, 4)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return k_max


def _stratum_maxima(points, strata):
    """(reach, worst) of the boundary strata of level1_boundary_strata:
    points in Z^n, and {face: incidence} with faces as ids into points.

    reach[j] is the largest stratum incidence over the faces of dimension
    <= j.  worst is None when every stratum stays within n!, and otherwise
    (dimension, incidence, vertices) of the least face among the strata of
    the largest incidence, the lowest dimension first.
    """
    n = len(points[0])
    largest = [0] * n
    for face, count in strata.items():
        j = len(face) - 1
        if count > largest[j]:
            largest[j] = count
    reach = tuple(accumulate(largest, max))
    top = reach[-1]
    if top <= factorial(n):
        return reach, None
    j = largest.index(top)
    face = min(f for f, c in strata.items() if len(f) == j + 1 and c == top)
    return reach, (j, top, tuple(map(points.__getitem__, face)))


def _stratum_refusal(name, j, inequality, k_max, **data):
    """The failed check for a stratum of dimension j whose incidence breaks
    the inequality for every k > j, sampled by k = 1..k_max or not."""
    detail = (
        f"a stratum of dimension {j} has {inequality}; "
        f"k = 1..{k_max} sample dimensions up to {k_max - 1}"
    )
    return Check.make(name, False, detail=detail, dimension=j, **data)


def check_special(P, k_max=None):
    """Reflexive + weakly symmetric + regular boundary = asymptotically Chow
    polystable (the special-polytope theorem).

    Reads P's one verified level-1 boundary, level1_boundary_strata, which
    check_sufficient reads too: coverage, unimodularity, face compatibility
    and facet alignment (a failure raises ValueError there) carry over to
    its alcove refinements, the strategy-built tables of every kP, and
    report.regular adds the n! bound at k = 1.  The incidence at a point of
    kP depends only on its stratum, the face F of the level-1 complex with
    the point in relint(kF), and is the run-product sum of _stratum_sums
    along the sorted cells: over the cells σ ⊇ F, (d+1)!/prod (r_i+1)! with
    r_i the cyclic runs of σ's ids missing from F.  A j-face has points in
    kP once k > j, so the maximum at k (recorded for k = 1..k_max) is the
    largest stratum incidence of dimension <= k - 1; at k = 1 those are the
    vertex strata, the level-1 table's own incidence.  Every stratum,
    sampled by k <= k_max or not, must stay within n!, which makes the
    bound hold for all k.  The full complex's strata (level1_strata) are
    check_sufficient's and are not computed here: they cost more than the
    boundary's.
    """
    n = P.dim
    k_max = _k_max(P, k_max)
    checks = []
    refl = is_reflexive(P)
    checks.append(Check.make("reflexive", refl, detail="all facet offsets equal 1" if refl else "some facet offset differs from 1"))
    if not refl:
        return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)
    ws_check, _ = _weak_symmetry_check(P)
    checks.append(ws_check)
    if not ws_check.passed:
        return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)
    bound = factorial(n)
    try:
        points, report, strata = level1_boundary_strata(P)
    except NoStrategy as exc:
        checks.append(
            Check.make("regular boundary", False, detail=f"no strategy: {exc}")
        )
        return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)
    if not report.regular:
        checks.append(
            Check.make(
                "regular boundary",
                False,
                detail=f"k = 1: {report.summary()}",
                offenders=report.offenders[:4],
            )
        )
        return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)
    # reach[j]: the largest incidence on the strata of dimension <= j, and
    # kP has points on exactly the strata of dimension <= k - 1
    reach, worst = _stratum_maxima(points, strata)
    if worst is not None:
        j, count, face = worst
        inequality = f"incidence {count} > n! = {bound}"
        checks.append(
            _stratum_refusal("regular boundary", j, inequality, k_max, incidence=count, face=face)
        )
        return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)
    maxima = [reach[min(k, len(reach)) - 1] for k in range(1, k_max + 1)]
    stable_tail = len(maxima) < 2 or maxima[-1] == maxima[-2]
    checks.append(
        Check.make(
            "regular boundary",
            True,
            detail=(
                f"verified k = 1..{k_max}; strategy triangulation, incidence is a "
                "function of the stratum so the bound holds for all k"
            ),
            max_incidence_by_k=tuple(maxima),
            bound=bound,
            maxima_stable=stable_tail,
        )
    )
    checks.append(
        Check.make(
            "special-polytope theorem",
            True,
            detail="reflexive + weakly symmetric + regular boundary",
        )
    )
    return StabilityVerdict(POLYSTABLE, checks, polytope_name=P.name)


def check_sufficient(P, k_max=None):
    """Incidence criterion: with vanishing FO invariants, n(p;k) <= (n+1)!
    away from the center and (n/2) m(p;k) < (n+1)! - n(p;k) on the boundary
    force asymptotic Chow polystability.

    n and m count the cells at p of the full and boundary tables of kP,
    alcove refinements of the level-1 complexes, so each is the run-product
    sum of the face F with p in relint(kF), for every k: the verified
    stratum tables of level1_strata.  Every stratum, sampled by
    k <= k_max (k > dim F) or not, must pass; a failure is reported at its
    least k and point, interior first, or as a stratum past k_max.  The
    record reads relint(kF), k <= k_max: the least (margin, k, p) and the
    greatest (m, p), at its least k.
    """
    n = P.dim
    k_max = _k_max(P, k_max)
    checks = []
    if not all(f.offset >= 1 for f in P.facets):
        checks.append(
            Check.make("origin interior", False, detail="0 must be interior")
        )
        return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)
    checks.append(Check.make("origin interior", True))
    ws_check, _ = _weak_symmetry_check(P)
    checks.append(ws_check)
    if not ws_check.passed:
        return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)
    try:
        points, n_of, m_of = level1_strata(P)
    except (NoStrategy, NotReflexive) as exc:
        checks.append(
            Check.make("incidence criterion", False, detail=f"no strategy: {exc}")
        )
        return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)
    bound = factorial(n + 1)
    half = Fraction(n, 2)
    center = (points.index((0,) * n),)

    def relint(F, k):
        return list(relint_points(tuple(map(points.__getitem__, F)), k))

    # (least k with a point in relint(kF), interior before boundary, F), the
    # boundary inequality doubled to stay in ints; at k = len(F), relint(kF)
    # is one point
    failing = [(len(F), 0, F) for F, c in n_of.items() if c > bound and F != center]
    failing += [(len(F), 1, F) for F, m in m_of.items() if n * m >= 2 * (bound - n_of[F])]
    if failing:
        k, side, F = min(failing)
        name = ("interior incidence", "boundary incidence")[side]
        if k <= k_max:
            p, F = min((relint(G, k)[0], G) for j, s, G in failing if (j, s) == (k, side))
        lhs, rhs = (half * m_of[F], bound - n_of[F]) if side else (n_of[F], bound)
        if k > k_max:
            data = dict(n=n_of[F], face=tuple(map(points.__getitem__, F)))
            if side:
                data["m"] = m_of[F]
            inequality = f"(n/2) m = {lhs} not < (n+1)! - n" if side else f"n = {lhs} > (n+1)!"
            check = _stratum_refusal(name, k - 1, f"{inequality} = {rhs}", k_max, **data)
        elif side:
            detail = f"(n/2) m(p;k) = {lhs} not < (n+1)! - n(p;k) = {rhs} at p = {p}, k = {k}"
            check = Check.make(name, False, detail=detail)
        else:
            check = Check.make(name, False, detail=f"n({p};{k}) = {lhs} > (n+1)! = {rhs}")
        checks.append(check)
        return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)
    margin = {F: 2 * (bound - n_of[F]) - n * m for F, m in m_of.items() if len(F) <= k_max}
    low = min(margin.values())
    k, p, F = min((len(F), relint(F, len(F))[0], F) for F, g in margin.items() if g == low)
    data = dict(worst_point=p, worst_k=k, n_at_worst=n_of[F], m_at_worst=m_of[F])
    data.update(lhs=half * m_of[F], rhs=bound - n_of[F])
    top = max(m_of[F] for F in margin)
    p, k, F = max(
        (p, -k, F)
        for F in margin
        if m_of[F] == top
        for k in range(len(F), k_max + 1)
        for p in relint(F, k)
    )
    data["max_m_point"] = p
    data["max_m_values"] = f"n = {n_of[F]}, m = {top} at k = {-k}"
    if n_of[F] == top:
        # both counts agree there, giving the combined form (n+2)/2 i < (n+1)!
        data["apex_inequality"] = f"{Fraction(n + 2, 2) * top} < {bound}"
    checks.append(
        Check.make(
            "incidence criterion",
            True,
            detail=(
                f"verified k = 1..{k_max}; stratum-wise constant counts extend "
                "the strict inequality to all k"
            ),
            **data,
        )
    )
    return StabilityVerdict(POLYSTABLE, checks, polytope_name=P.name)


# ---------------------------------------------------------------------------
# the LP falsifier
# ---------------------------------------------------------------------------


def _fold_rows(carrier, var_of_id, nvars):
    """The fold-convexity rows of falsify, each once, in order of first ridge.

    Across an interior ridge with opposite vertices a and b, the linear
    extension of f from the cell [ridge | a] must not exceed f(b): write
    b = sum alpha_r r + beta a over the ridge points r, and the row reads
    sum alpha_r f(r) + beta f(a) - f(b) <= 0, where the value at point id j
    is the variable var_of_id[j].

    The weights alpha solve (r - a) alpha = b - a, one equation per
    coordinate, so they are invariant under translation and under a
    permutation of the coordinates, which only reorders the equations.
    The system is solved once per distinct key, the edge matrix from a with
    its columns sorted (as in Triangulation.volumes), as ints over one
    denominator.  Each row is kept as ints over a positive denominator,
    divided by their gcd, so equal rows have equal keys, and Fractions are
    made only for the distinct rows.
    """
    points = carrier.points
    census = {}
    for cell in carrier.cells:
        for i in range(len(cell)):
            census.setdefault(cell[:i] + cell[i + 1 :], []).append(cell[i])
    memo = {}
    unique = {}
    for face, owners in census.items():
        if len(owners) != 2:
            continue
        a, b = owners
        pa = points[a]
        # [face pts | a] is an affine basis (it spans a cell), so the square
        # system is nonsingular; each column is one coordinate's equation
        key = tuple(sorted(zip(*(vec_sub(points[j], pa) for j in face + (b,)))))
        sol = memo.get(key)
        if sol is None:
            sol = solve_int([c[:-1] for c in key], [c[-1] for c in key])
            if sol is None:
                raise AssertionError("ridge system must be solvable")
            memo[key] = sol
        num, den = sol
        row = [0] * nvars
        for x, j in zip(num, face):
            row[var_of_id[j]] += x
        row[var_of_id[a]] += den - sum(num)
        row[var_of_id[b]] -= den
        if not any(row):
            continue
        g = gcd(den, *row)
        if den < 0:
            g = -g
        unique[tuple(x // g for x in row), den // g] = None
    return [tuple(Fraction(x, den) for x in row) for row, den in unique]


def falsify(P, k):
    """Search for a destabilizing convex PL function on kP by exact LP.

    Variables are the values at carrier vertices, identified along orbits of
    the automorphism group (a restriction, never an unsoundness: any optimum
    re-verifies through chow_gap); constraints are the convex-fold conditions
    across interior ridges plus 0 <= f <= 1 and f(anchor) = 0; the objective
    maximizes continuous-minus-discrete average.  Returns a Certificate when
    the optimum is strictly positive, else None.  Sound, not complete.
    """
    pts = lattice_points(P, k)
    chi = len(pts)
    n = P.dim
    origin = (0,) * n
    prov = P._provenance
    if chi <= 400 and n <= 3:
        carrier = delaunay_triangulation(pts)

        def locate(p):
            return [(p, Fraction(1))]

    elif prov is not None and prov[0] == "double_cone" and k == 1:
        carrier, locate = bipyramid_carrier(prov[1][0])
    else:
        raise NoTriangulation(
            "no carrier available for this polytope size and dilation"
        )

    # the point table is the sorted set of carrier vertices
    vertex_set = carrier.points
    try:
        gens = (
            automorphisms(P)
            if (len(P.vertices) <= 16 and n <= 4)
            else automorphism_generators(P)
        )
    except OriginNotInterior:
        gens = []
    orbit_list = orbits(vertex_set, gens) if gens else [(v,) for v in vertex_set]
    var_of = {}
    for idx, orb in enumerate(orbit_list):
        for v in orb:
            var_of[v] = idx
    nvars = len(orbit_list)

    # anchor: 0 when interior, else the lattice point nearest the centroid
    if all(f.offset >= 1 for f in P.facets):
        anchor = origin
    else:
        c = centroid(P)
        anchor = min(
            pts,
            key=lambda p: (
                sum((Fraction(x) - k * ci) ** 2 for x, ci in zip(p, c)),
                p,
            ),
        )

    def coeffs_of(point):
        row = [Fraction(0)] * nvars
        for v, w in locate(point):
            row[var_of[v]] += w
        return row

    rows = _fold_rows(carrier, [var_of[v] for v in carrier.points], nvars)
    rhs = [0] * len(rows)

    # box 0 <= f <= 1 (lower bound is native to the solver)
    for j in range(nvars):
        row = [0] * nvars
        row[j] = 1
        rows.append(row)
        rhs.append(1)

    # anchor pin as two inequalities, dropped when the anchor reads no variable
    arow = coeffs_of(anchor)
    if any(arow):
        rows += [arow, [-x for x in arow]]
        rhs += [0, 0]

    # objective: (1/Vol) integral - (1/chi) sum, with integer volume weights
    # and point counts gathered per variable before the one division each
    vol_weight = [0] * nvars
    for v, w in _vertex_weights(carrier).items():
        vol_weight[var_of[v]] += w
    # each point's carrier weights, located once for the objective and the values
    where = [locate(p) for p in pts]
    hits = [0] * nvars
    for weights in where:
        for v, w in weights:
            hits[var_of[v]] += w
    vol_den = volume(P) * k**n * factorial(n + 1)
    objective = [w / vol_den - Fraction(h) / chi for w, h in zip(vol_weight, hits)]

    # the rows are distinct: _fold_rows keeps each fold row once, and they sum
    # to 0 with bound 0, the box rows have bound 1 and the anchor rows sum to +-1
    value, x = solve_lp(objective, rows, rhs)
    if value <= 0:
        return None
    values = {}
    for p, weights in zip(pts, where):
        values[p] = sum(w * x[var_of[v]] for v, w in weights)
    fn = PLFunction(values=values, carrier=carrier)
    return Certificate(kind="lp", k=k, gap=-value, function=fn, detail="falsifier optimum").verify(P)


# ---------------------------------------------------------------------------
# classification pipeline
# ---------------------------------------------------------------------------


def _coordinate_split(P):
    """Partition of coordinates into independent blocks, or None.

    Blocks are connected components of the graph joining coordinates that
    share a facet normal; a genuine product also factors the vertex set.
    """
    n = P.dim
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for f in P.facets:
        support = [i for i in range(n) if f.normal[i] != 0]
        for a, b in zip(support, support[1:]):
            union(a, b)
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    if len(blocks) < 2:
        return None
    groups = sorted(blocks.values())
    projs = [sorted({tuple(v[i] for i in g) for v in P.vertices}) for g in groups]
    # the vertex set lies in the product of its projections and maps into it
    # one to one, so it factors exactly when the sizes agree
    if len(P.vertices) != prod(map(len, projs)):
        return None
    return groups, projs


def classify(P, k_max=None):
    """Run the verdict pipeline: products, the special criterion, the
    incidence criterion, vertex-cap instability, then the LP falsifier.
    The first decisive result wins; every attempted check is recorded.
    """
    n = P.dim
    k_max = _k_max(P, k_max)
    checks = []

    if n == 1:
        lo, hi = P.vertices[0][0], P.vertices[1][0]
        if (lo, hi) == (-1, 1):
            checks.append(
                Check.make(
                    "one-dimensional special",
                    True,
                    detail="[-1,1] is reflexive, symmetric, boundary trivially regular",
                )
            )
            return StabilityVerdict(POLYSTABLE, checks, polytope_name=P.name)
        checks.append(
            Check.make(
                "one-dimensional",
                False,
                detail="only [-1,1] is classified in dimension 1",
            )
        )
        return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)

    split = _coordinate_split(P)
    if split is not None:
        groups, projs = split
        factor_verdicts = []
        for g, pts in zip(groups, projs):
            Q = Polytope(pts)
            factor_verdicts.append((g, classify(Q, k_max)))
        statuses = [v.status for _, v in factor_verdicts]
        checks.append(
            Check.make(
                "product factorization",
                True,
                detail=f"coordinate blocks {[tuple(g) for g, _ in factor_verdicts]}",
                factor_statuses=tuple(statuses),
            )
        )
        for g, v in factor_verdicts:
            checks.extend(v.checks)
        if all(s == POLYSTABLE for s in statuses):
            checks.append(
                Check.make(
                    "product rule",
                    True,
                    detail="product is polystable iff every factor is",
                )
            )
            return StabilityVerdict(POLYSTABLE, checks, polytope_name=P.name)
        if any(s == NOT_SEMISTABLE for s in statuses):
            bad = next(v for _, v in factor_verdicts if v.status == NOT_SEMISTABLE)
            checks.append(
                Check.make(
                    "product rule",
                    True,
                    detail=(
                        "an unstable factor destabilizes the product; the factor "
                        "certificate lifts as f(x, y) = f(x)"
                    ),
                )
            )
            return StabilityVerdict(
                NOT_SEMISTABLE,
                checks,
                certificate=bad.certificate,
                polytope_name=P.name,
            )
        return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)

    special = check_special(P, k_max)
    checks.extend(special.checks)
    if special.status == POLYSTABLE:
        return StabilityVerdict(POLYSTABLE, checks, polytope_name=P.name)

    ws, witness = _weak_symmetry_check(P)
    if special.check("weakly symmetric") is None:
        # reflexivity failed before check_special reached the FO test; the
        # necessity argument applies to any polytope, so record it here
        checks.append(ws)
    if witness is not None:
        # a persistent FO defect violates the necessary vanishing condition
        witness_data = ws.detail
        a = AffineFunctional.coordinate(witness.coordinate, n)
        sign = -1 if witness.value > 0 else 1
        certificate = Certificate(
            kind="affine-fo",
            k=witness.k,
            gap=sign * fo_invariant(P, a, witness.k),
            function=affine_pl_function(P, witness.k, a, sign=sign),
            detail=witness.describe(),
        ).verify(P)
        checks.append(
            Check.make(
                "FO necessity",
                True,
                detail=(
                    "nonvanishing Futaki-Ono invariant persists for all large k; "
                    "the scaled affine functional already has a negative gap"
                ),
                witness=witness_data,
                gap=certificate.gap,
            )
        )
        return StabilityVerdict(
            NOT_SEMISTABLE, checks, certificate=certificate, polytope_name=P.name
        )

    sufficient = check_sufficient(P, k_max)
    checks.extend(c for c in sufficient.checks if c not in checks)
    if sufficient.status == POLYSTABLE:
        return StabilityVerdict(POLYSTABLE, checks, polytope_name=P.name)

    prov = P._provenance
    if prov is not None and prov[0] == "double_cone":
        dc = _double_cone_verdict(P)
        checks.extend(dc.checks)
        if dc.status == NOT_SEMISTABLE:
            return StabilityVerdict(
                NOT_SEMISTABLE,
                checks,
                certificate=dc.certificate,
                polytope_name=P.name,
            )

    for v in P.vertices:
        try:
            vc = vertex_cap_instability(P, v)
        except NonIntegralCut:
            continue
        if vc.status == NOT_SEMISTABLE:
            checks.extend(vc.checks)
            return StabilityVerdict(
                NOT_SEMISTABLE,
                checks,
                certificate=vc.certificate,
                polytope_name=P.name,
            )
    checks.append(
        Check.make(
            "vertex caps",
            False,
            detail="no vertex cut reaches the d(d+1) volume threshold",
        )
    )

    # The LP witnesses a violation of the master inequality at one dilation.
    # Asymptotic semistability only requires the inequality for k beyond some
    # threshold, so a small-k violation alone decides nothing (convex
    # functions with a negative gap at k = 1 exist even on polystable
    # examples); the hit is recorded with its exact gap and the verdict
    # stays inconclusive unless a persistent family (cap or FO) fired above.
    hits = []
    for k in range(1, k_max + 1):
        try:
            cert = falsify(P, k)
        except NoTriangulation:
            checks.append(
                Check.make(
                    "falsifier",
                    False,
                    detail=f"k = {k}: no carrier triangulation available",
                )
            )
            break
        if cert is not None:
            hits.append((k, cert))
    else:
        if hits:
            detail = ", ".join(f"k={k}: gap {c.gap}" for k, c in hits)
            checks.append(
                Check.make(
                    "falsifier",
                    False,
                    detail=(
                        f"master inequality violated at {detail}; not decisive "
                        "for the asymptotic criterion (needs all large k)"
                    ),
                )
            )
        else:
            checks.append(
                Check.make(
                    "falsifier",
                    False,
                    detail=f"LP optimum nonpositive for k = 1..{k_max} (sound, not complete)",
                )
            )

    return StabilityVerdict(INCONCLUSIVE, checks, polytope_name=P.name)
