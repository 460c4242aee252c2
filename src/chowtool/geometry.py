"""Exact representations of full-dimensional integral polytopes.

A Polytope is stored by its true vertex list together with the derived
irredundant facet system (inward primitive normals).  All arithmetic is
integer / rational, there are no floating-point paths, and every operation
is a pure function of immutable data.  Intended scale is dimension <= 7
with coordinates of catalog size.

Dilations kP are never materialized: operations take a dilation factor k
and scale facet offsets on the fly.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce, wraps
from itertools import repeat
from math import factorial, gcd
from numbers import Rational
from operator import add, mul

from .errors import NotFullDimensional, NotReflexive, DimensionTooSmall, OriginNotInterior
from .linalg import (
    dot,
    vec_sub,
    primitive,
    det_int,
    cross_normal,
    rank_rational,
    independent_rows,
    integer_kernel_basis,
    solve_rational,
    simplex_relative_volume_times_factorial,
)


@dataclass(frozen=True)
class Facet:
    """One facet inequality <normal, x> >= -offset of a full-dimensional polytope.

    The normal is inward and primitive; the facet itself lies on
    {x : <normal, x> = -offset}.
    """

    normal: tuple
    offset: int
    vertices: tuple  # true vertices lying on the facet, lexicographically sorted

    def value(self, point, k=1):
        """Slack <normal, point> + k*offset of the dilated inequality."""
        return dot(self.normal, point) + k * self.offset


# ---------------------------------------------------------------------------
# convex hull (beneath-beyond, exact integer arithmetic)
#
# Elimination builds only the n + 1 facets of the initial simplex.  Each
# later facet is the cone from the new point over a horizon ridge, and its
# hyperplane lies in the pencil of the two old hyperplanes through that
# ridge (Edelsbrunner, Algorithms in Combinatorial Geometry, 1987), so it is
# an integer combination of two known normals.
# ---------------------------------------------------------------------------


def _affine_basis(points):
    """Indices of an affinely independent subset spanning the ambient space."""
    n = len(points[0])
    kept = independent_rows(vec_sub(p, points[0]) for p in points[1:])
    if len(kept) < n:
        raise NotFullDimensional(n, len(kept))
    return [0] + [i + 1 for i in kept]


class _RawFacet:
    __slots__ = ("verts", "normal", "h")

    def __init__(self, verts, normal, h):
        self.verts = verts  # tuple of points, sorted
        self.normal = normal  # inward integer normal (primitive)
        self.h = h  # inequality <normal, x> >= h


def _facet_from_points(pts, inside_sum, inside_count):
    """Build a raw simplicial facet through pts oriented toward an interior point.

    The interior point is inside_sum / inside_count, kept as an integer
    coordinate sum and a positive count so the side test stays in ints.
    """
    edges = [vec_sub(p, pts[0]) for p in pts[1:]]
    normal = cross_normal(edges)
    normal = primitive(normal)
    h = dot(normal, pts[0])
    side = dot(normal, inside_sum) - inside_count * h
    if side < 0:
        normal = tuple(-c for c in normal)
        h = -h
    elif side == 0:
        raise AssertionError("degenerate facet orientation")
    return _RawFacet(tuple(sorted(pts)), normal, h)


def hull_facets(pts):
    """Raw simplicial facets of the hull of distinct integer points in Z^n, n >= 2.

    Beneath-beyond in the order of pts: each _RawFacet carries its sorted
    points, its primitive inward normal and the level h of its inequality
    <normal, x> >= h.  Raises NotFullDimensional when pts span less than Z^n.

    Each point p finds the facets it sees (<normal, p> < h) by a search
    over the ridge map, from one visible facet in the star of the point
    inserted before it (the facets that point created), and scans all
    facets only when none of that star is visible.  The search loses no
    visible facet: polar to an interior point, the facets seen from p are
    the vertices of the polar polytope beyond a hyperplane, and those span
    a connected subgraph of its graph (a linear functional increases along
    some edge path from any of them to its maximum, staying beyond), whose
    edges are the ridges between true facets.  The raw facets of one true
    facet triangulate it, so they are joined by ridges too, and two
    adjacent true facets share a raw ridge.  So the visible set, the
    horizon and the final raw facets are those of a scan of every facet.

    Only the n + 1 facets of the initial simplex are solved for
    (_facet_from_points).  Every later facet is the cone from p over a
    horizon ridge R, found between a visible facet (a, h_a) and a hidden
    one (b, h_b), and its hyperplane lies in their pencil (_pencil_facet).
    """
    n = len(pts[0])
    base = _affine_basis(pts)
    simplex = [pts[i] for i in base]
    inside_sum = tuple(sum(c) for c in zip(*simplex))
    inside_count = n + 1

    facets = {}
    next_id = 0
    ridge_map = {}

    def add_facet(raw):
        nonlocal next_id
        fid = next_id
        next_id += 1
        facets[fid] = raw
        verts = raw.verts
        for i in range(len(verts)):
            ridge_map.setdefault(verts[:i] + verts[i + 1 :], []).append(fid)
        return fid

    def remove_facet(fid):
        verts = facets.pop(fid).verts
        for i in range(len(verts)):
            ridge = verts[:i] + verts[i + 1 :]
            owners = ridge_map[ridge]
            owners.remove(fid)
            if not owners:
                del ridge_map[ridge]

    def sees(fid, p):
        f = facets[fid]
        return dot(f.normal, p) < f.h

    star = [
        add_facet(_facet_from_points(simplex[:i] + simplex[i + 1 :], inside_sum, inside_count))
        for i in range(n + 1)
    ]
    in_simplex = set(simplex)
    for p in pts:
        if p in in_simplex:
            continue
        seed = next((fid for fid in star if sees(fid, p)), None)
        if seed is None:
            seed = next((fid for fid in facets if sees(fid, p)), None)
            if seed is None:
                continue
        visible = {seed}
        hidden = set()
        todo = [seed]
        horizon = []  # (ridge, visible facet, hidden facet)
        while todo:
            fid = todo.pop()
            raw = facets[fid]
            verts = raw.verts
            for i in range(len(verts)):
                ridge = verts[:i] + verts[i + 1 :]
                owners = ridge_map[ridge]
                if len(owners) != 2:
                    raise AssertionError("hull ridge without exactly two facets")
                other = owners[1] if owners[0] == fid else owners[0]
                if other in visible:
                    continue
                if other not in hidden and sees(other, p):
                    visible.add(other)
                    todo.append(other)
                else:
                    hidden.add(other)
                    horizon.append((ridge, raw, facets[other]))
        for fid in visible:
            remove_facet(fid)
        star = [
            add_facet(_pencil_facet(ridge, p, seen, kept, inside_sum, inside_count))
            for ridge, seen, kept in horizon
        ]

    for owners in ridge_map.values():
        if len(owners) != 2:
            raise AssertionError("hull boundary is not ridge-closed")
    return list(facets.values())


def _pencil_facet(ridge, p, seen, kept, inside_sum, inside_count):
    """The raw facet over ridge + [p], from the two facets through ridge.

    seen = (a, h_a) is visible from p and kept = (b, h_b) is not.  Both
    hyperplanes hold the ridge, so every alpha a + beta b at level
    alpha h_a + beta h_b does; alpha = <b, p> - h_b >= 0 and
    beta = h_a - <a, p> > 0 put p on it too.  At a point interior to the
    hull both inequalities are strict, so the combination is inward.  The
    ridge's lattice points make the level an integer combination of the
    normal, so the normal's gcd divides it.  An inward primitive normal is
    unique, so this is the facet _facet_from_points solves for.
    """
    a, h_a = seen.normal, seen.h
    b, h_b = kept.normal, kept.h
    alpha = dot(b, p) - h_b
    beta = h_a - dot(a, p)
    normal = [alpha * x + beta * y for x, y in zip(a, b)]
    g = gcd(*normal)
    if not g:
        raise AssertionError("degenerate facet orientation")
    normal = tuple(x // g for x in normal)
    h = (alpha * h_a + beta * h_b) // g
    if dot(normal, inside_sum) - inside_count * h <= 0:
        raise AssertionError("pencil facet is not inward")
    return _RawFacet(tuple(sorted(ridge + (p,))), normal, h)


def _integer_point(p):
    """p as a tuple of ints; raises ValueError on a coordinate that is not
    an exact integer (an int, or a Fraction with denominator 1)."""
    p = tuple(p)
    for x in p:
        if type(x) is not int and not (isinstance(x, Rational) and x.denominator == 1):
            raise ValueError(f"coordinate {x!r} of point {p!r} is not an exact integer")
    return tuple(map(int, p))


def convex_hull(points):
    """Exact hull of integer points: (true vertices, merged facets, raw simplices).

    Raw simplices triangulate the boundary (they may reference boundary
    points that are not vertices); merged facets carry primitive inward
    normals and the true vertices on each supporting hyperplane.  The raw
    facets come from hull_facets, which finds the facets each new point sees
    by a search over ridge adjacency rather than a scan of every facet; the
    facets seen from a point outside a convex polytope are connected
    through ridges (hull_facets gives the argument), so both find the same
    set and the hull is the same.
    """
    pts = sorted(set(map(_integer_point, points)))
    n = len(pts[0])
    if n == 1:
        lo, hi = pts[0][0], pts[-1][0]
        if lo == hi:
            raise NotFullDimensional(1, 0)
        verts = [(lo,), (hi,)]
        facets = [
            Facet(normal=(-1,), offset=hi, vertices=((hi,),)),
            Facet(normal=(1,), offset=-lo, vertices=((lo,),)),
        ]
        facets.sort(key=lambda f: (f.normal, f.offset))
        return verts, facets, [((lo,),), ((hi,),)]

    raws = hull_facets(pts)

    # merge coplanar raw facets, then recover true vertices
    merged = {}
    for raw in raws:
        merged.setdefault((raw.normal, raw.h), set()).update(raw.verts)

    candidates = set()
    for verts in merged.values():
        candidates.update(verts)
    true_vertices = []
    for v in sorted(candidates):
        active = [normal for (normal, h) in merged if dot(normal, v) == h]
        if len(active) >= n and rank_rational(active) == n:
            true_vertices.append(v)

    facet_list = []
    for (normal, h) in sorted(merged):
        tight = tuple(v for v in true_vertices if dot(normal, v) == h)
        facet_list.append(Facet(normal=normal, offset=-h, vertices=tight))

    raw_simplices = sorted(raw.verts for raw in raws)
    return true_vertices, facet_list, raw_simplices


# ---------------------------------------------------------------------------
# Polytope
# ---------------------------------------------------------------------------


class Polytope:
    """Full-dimensional integral polytope with exact derived facet data.

    Instances are immutable.  Each way of building one decides which checks
    it runs:

    * ``Polytope(points)`` runs the convex hull, which drops non-vertices and
      finds the facets; its output is taken as it is.
    * the constructors product / dual / double_cone derive the facet system
      from factors that are already polytopes, and their docstrings derive
      both rank facts from the factors'.  They check only the integer slack
      matrix (``_check_slack``), which needs no elimination, and record the
      factors in ``_provenance``.

    Facts that depend on the polytope alone are computed on first use and
    kept on it: the lattice points of each dilation in ``_points_cache``,
    and every other fact (the volume, the centroid, each facet's
    facet_polytope, and the facts other modules declare) in one memo that
    per_polytope fills.  A product or a double cone reads its volume,
    centroid, facet volumes and lattice points from its factors' on first
    use, and building it computes none of them.
    """

    def __init__(self, points, name=None):
        pts = list(map(_integer_point, points))
        if not pts:
            raise ValueError("empty point list")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("points of mixed dimension")
        self._set(name, *convex_hull(pts))

    @classmethod
    def _derived(cls, vertices, facets, name, provenance):
        """A constructor's polytope over validated factors; checks only the slack."""
        R = cls.__new__(cls)
        R._set(name, sorted(vertices), facets, None)
        R._provenance = provenance
        R._check_slack()
        return R

    def _set(self, name, vertices, facets, raw):
        self.dim = len(vertices[0])
        self.name = name
        self.vertices = tuple(vertices)
        self.facets = tuple(sorted(facets, key=lambda f: (f.normal, f.offset)))
        self._raw_boundary = raw
        self._points_cache = {}
        self._memo = {}  # (per_polytope function, args) -> its result on this polytope
        self._provenance = None  # ("product", (P, Q)) etc., set by constructors

    # -- construction checks ---------------------------------------------------

    def _check_slack(self):
        """Every vertex satisfies every facet, whose zero set is its recorded vertices."""
        verts = self.vertices
        slack = [[dot(f.normal, v) + f.offset for v in verts] for f in self.facets]
        if any(s < 0 for row in slack for s in row):
            raise AssertionError("facet system violated by a vertex")
        for f, row in zip(self.facets, slack):
            if tuple(v for v, s in zip(verts, row) if s == 0) != f.vertices:
                raise AssertionError("derived facet's tight vertices are not its zero set")

    def __repr__(self):
        label = self.name or "polytope"
        return f"<{label}: dim {self.dim}, {len(self.vertices)} vertices, {len(self.facets)} facets>"

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def with_name(self, name):
        clone = Polytope.__new__(Polytope)
        clone.__dict__.update(self.__dict__)
        clone.name = name
        clone._points_cache = {}
        clone._memo = {}
        return clone

    # -- basic queries ---------------------------------------------------------

    def contains(self, point, k=1):
        return all(f.value(point, k) >= 0 for f in self.facets)

    def strictly_contains(self, point, k=1):
        return all(f.value(point, k) > 0 for f in self.facets)

    def bounding_box(self, k=1):
        los, his = [], []
        for i in range(self.dim):
            coords = [v[i] for v in self.vertices]
            los.append(k * min(coords))
            his.append(k * max(coords))
        return los, his

    def raw_boundary_simplices(self):
        """Simplicial facets from the hull run (a corner triangulation of the boundary)."""
        if self._raw_boundary is None:
            verts, facets, raw = convex_hull(self.vertices)
            self._raw_boundary = raw
        return self._raw_boundary


def per_polytope(fn):
    """Memoise fn(P, *args) on the polytope P, keyed by function and args.

    The one cache for facts of a polytope computed on first use; a module
    that adds such a fact decorates its function and declares nothing on
    Polytope.  A call that raises stores nothing.
    """

    @wraps(fn)
    def memoised(P, *args):
        key = (memoised, args)
        memo = P._memo
        if key not in memo:
            memo[key] = fn(P, *args)
        return memo[key]

    return memoised


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def facets(P):
    """The irredundant facet system, lexicographically ordered by normal."""
    return list(P.facets)


def lattice_points(P, k):
    """All integer points of kP, sorted.

    A product's points are the products of its factors' points, and the
    slice of kD(B) at height q is (k-|q|)B, with 0B = {0}; both read the
    factors' cached dilations.  Any other polytope is scanned: the pruned
    bounding-box scan fixes coordinates one at a time and propagates every
    facet inequality through interval arithmetic on the remaining
    coordinates, so it visits little more than the answer.
    """
    if k < 1:
        raise ValueError("dilation k must be >= 1")
    cached = P._points_cache.get(k)
    if cached is not None:
        return cached
    kind, factors = P._provenance or (None, ())
    if kind == "product":
        A, B = factors
        tails = lattice_points(B, k)
        pts = sorted(a + b for a in lattice_points(A, k) for b in tails)
    elif kind == "double_cone":
        (B,) = factors
        apex_slice = [(0,) * B.dim]
        pts = sorted(
            p + (q,)
            for q in range(-k, k + 1)
            for p in (lattice_points(B, k - abs(q)) if abs(q) < k else apex_slice)
        )
    else:
        pts = _box_scan(P, k)
    P._points_cache[k] = pts
    return pts


def _box_scan(P, k):
    """The lattice points of kP by the pruned bounding-box scan, sorted.

    Coordinates are fixed left to right.  At coordinate j each facet
    <normal, x> >= rhs, with the coordinates before j fixed and the ones
    after j at their most favourable box corner, bounds x_j from one side
    when normal_j != 0, and is a plain test when normal_j = 0.  The last
    coordinate's feasible range is emitted whole, and fixing x_j updates
    the partial sums of only the facets with normal_j != 0.
    """
    n = P.dim
    los, his = P.bounding_box(k)
    norms = [f.normal for f in P.facets]
    # slack[fi][j]: rhs of facet fi less the largest value its terms past
    # coordinate j take over the box, so x_j must satisfy
    # partial[fi] + normal_j x_j >= slack[fi][j]
    slack = []
    for f in P.facets:
        nml = f.normal
        col = [0] * n
        acc = -k * f.offset
        for j in range(n - 1, -1, -1):
            col[j] = acc
            acc -= max(nml[j] * los[j], nml[j] * his[j])
        slack.append(col)
    # per coordinate j: (fi, normal_j) for the facets with normal_j != 0,
    # and the facets with normal_j = 0
    moving = [[(fi, nml[j]) for fi, nml in enumerate(norms) if nml[j]] for j in range(n)]
    flat = [[fi for fi, nml in enumerate(norms) if not nml[j]] for j in range(n)]
    last = n - 1
    out = []
    point = [0] * n

    def rec(j, partial):
        # partial[fi] = sum over coords < j of normal[fi] . point
        for fi in flat[j]:
            if partial[fi] < slack[fi][j]:
                return
        lo, hi = los[j], his[j]
        step = moving[j]
        for fi, c in step:
            if c > 0:
                low = -((partial[fi] - slack[fi][j]) // c)  # ceil((slack - partial) / c)
                if low > lo:
                    lo = low
            else:
                high = (slack[fi][j] - partial[fi]) // c  # floor, c negative
                if high < hi:
                    hi = high
        if lo > hi:
            return
        if j == last:
            prefix = tuple(point[:last])
            out.extend(prefix + (x,) for x in range(lo, hi + 1))
            return
        for x in range(lo, hi + 1):
            point[j] = x
            new_partial = partial[:]
            for fi, c in step:
                new_partial[fi] += c * x
            rec(j + 1, new_partial)

    rec(0, [0] * len(norms))
    out.sort()
    return out


def adjacent_vertices(P, v):
    """The vertices joined to the vertex v by an edge, in vertex order.

    Each vertex gets the bitmask of the facets through it.  The face cut out
    by the facets through both v and w is the intersection of those facets;
    its vertices are the u whose mask contains mask(v) & mask(w).  It is an
    edge exactly when it has no vertex but v and w.  A segment (n = 1) has
    no facet through both ends, so it has no pair passing this test.
    """
    mask = {u: 0 for u in P.vertices}
    for i, f in enumerate(P.facets):
        bit = 1 << i
        for u in f.vertices:
            mask[u] |= bit
    at_v = mask[v]
    out = []
    for w in P.vertices:
        common = at_v & mask[w]
        if w == v or not common:
            continue
        if not any(
            m & common == common for u, m in mask.items() if u != v and u != w
        ):
            out.append(w)
    return out


def interior_lattice_points(P, k=1):
    return [v for v in lattice_points(P, k) if P.strictly_contains(v, k)]


def boundary_lattice_points(P, k=1):
    return [v for v in lattice_points(P, k) if not P.strictly_contains(v, k)]


def _fan_simplices(P, apex=None):
    """Fan (placing) decomposition from a vertex, by default the least one.

    Yields full-dimensional simplices (apex, s_1..s_n) covering P, one per
    raw boundary simplex not containing the apex.
    """
    if apex is None:
        apex = P.vertices[0]
    for simplex in P.raw_boundary_simplices():
        if apex not in simplex:
            yield (apex,) + simplex


@per_polytope
def _fan_moments(P):
    """(volume, centroid) of P from one pass over its fan decomposition.

    Each fan simplex weighs by |det| of its edges, n! times its volume, and
    its centroid is the mean of its n + 1 vertices.
    """
    n = P.dim
    total = 0
    acc = [0] * n
    for simplex in _fan_simplices(P):
        w = abs(det_int([vec_sub(q, simplex[0]) for q in simplex[1:]]))
        total += w
        for i in range(n):
            acc[i] += w * sum(q[i] for q in simplex)
    return Fraction(total, factorial(n)), tuple(Fraction(a, total * (n + 1)) for a in acc)


@per_polytope
def volume(P):
    """Exact Euclidean volume (conv{0, e_1..e_n} has volume 1/n!).

    A product A x B has Vol(A) Vol(B).  A double cone over an n-dimensional
    B is two pyramids of height 1 over B x {0}, of volume 2 Vol(B) / (n + 1).
    Any other polytope takes its volume and centroid from one fan pass.
    """
    kind, factors = P._provenance or (None, ())
    if kind == "product":
        A, B = factors
        return volume(A) * volume(B)
    if kind == "double_cone":
        (B,) = factors
        return 2 * volume(B) / (B.dim + 1)
    return _fan_moments(P)[0]


@per_polytope
def centroid(P):
    """Exact centroid.

    A product's is its factors' side by side.  Each pyramid of a double cone
    over an n-dimensional B has its centroid at (n + 1) / (n + 2) of the way
    from its apex to B's centroid, and the two apexes' heights cancel.  Any
    other polytope's is volume-weighted over the fan decomposition.
    """
    kind, factors = P._provenance or (None, ())
    if kind == "product":
        A, B = factors
        return centroid(A) + centroid(B)
    if kind == "double_cone":
        (B,) = factors
        scale = Fraction(B.dim + 1, B.dim + 2)
        return tuple(scale * c for c in centroid(B)) + (Fraction(0),)
    return _fan_moments(P)[1]


def facet_lattice_basis(facet):
    """Basis of the direction lattice of the facet hyperplane (integer kernel of the normal)."""
    return integer_kernel_basis([list(facet.normal)])


def facet_coordinates(facet, points):
    """Coordinates of facet points in the facet's own lattice (anchored at the first vertex)."""
    basis = facet_lattice_basis(facet)
    anchor = facet.vertices[0]
    cols = list(zip(*basis))  # n x (n-1) matrix
    out = []
    for p in points:
        target = vec_sub(p, anchor)
        sol = _solve_integer_least(cols, target)
        out.append(sol)
    return out, basis, anchor


def _solve_integer_least(cols, target):
    """Solve cols * x = target where cols is n x d of rank d; x integral."""
    n = len(cols)
    d = len(cols[0])
    kept = independent_rows(cols)
    sol = solve_rational([cols[i] for i in kept], [target[i] for i in kept])
    if sol is None:
        raise AssertionError("facet point system has no solution")
    if len(kept) < d:
        raise AssertionError("facet point system has fewer independent rows than unknowns")
    if any(x.denominator != 1 for x in sol):
        raise AssertionError("facet point outside facet lattice")
    sol = tuple(int(x) for x in sol)
    for i in range(n):
        if sum(cols[i][j] * sol[j] for j in range(d)) != target[i]:
            raise AssertionError("facet point off the facet hyperplane")
    return sol


@per_polytope
def facet_polytope(P, facet):
    """The facet as a full-dimensional polytope of its own lattice: (sub, basis, anchor).

    sub is the hull of the facet's vertices in the coordinates of
    facet_coordinates (the direction lattice's basis, anchored at the first
    vertex).  The triple is built once per facet and kept in P's memo.
    """
    coords, basis, anchor = facet_coordinates(facet, facet.vertices)
    return Polytope(coords), basis, anchor


def _facet_with_normal(P, normal):
    return next(f for f in P.facets if f.normal == normal)


def facet_relative_volume(P, facet):
    """Relative (lattice-normalized) volume of one facet.

    A unimodular (n-1)-simplex in the facet contributes 1/(n-1)!; this is
    the normalization that makes the Ehrhart k^{n-1} coefficient equal
    Vol(boundary)/2.  A product's facet F x B (or A x G) has the factor
    facet's relative volume times the other factor's volume.  A double
    cone's facet over F is a pyramid of lattice height 1 over F, of relative
    volume vol(F) / (n - 1) in dimension n.  Otherwise a simplex facet reads
    its minor gcd; any other facet is the volume of its facet_polytope, so
    its hull runs once per polytope and the volume is cached on the facet
    polytope.
    """
    n = P.dim
    if n == 1:
        return Fraction(1)
    kind, factors = P._provenance or (None, ())
    if kind == "product":
        A, B = factors
        head, tail = facet.normal[: A.dim], facet.normal[A.dim :]
        if any(head):
            return facet_relative_volume(A, _facet_with_normal(A, head)) * volume(B)
        return volume(A) * facet_relative_volume(B, _facet_with_normal(B, tail))
    if kind == "double_cone":
        (B,) = factors
        return facet_relative_volume(B, _facet_with_normal(B, facet.normal[:-1])) / (n - 1)
    if len(facet.vertices) == n:
        g = simplex_relative_volume_times_factorial(facet.vertices)
        return Fraction(g, factorial(n - 1))
    return volume(facet_polytope(P, facet)[0])


def boundary_volume(P):
    """Lattice-normalized boundary volume, summed over facets."""
    if P.dim < 2:
        raise DimensionTooSmall("boundary volume needs dimension >= 2")
    return sum(facet_relative_volume(P, f) for f in P.facets)


def is_reflexive(P):
    """True iff every facet offset is 1 (then 0 is the unique interior lattice point)."""
    if not all(f.offset == 1 for f in P.facets):
        return False
    interior = interior_lattice_points(P, 1)
    if interior != [tuple([0] * P.dim)]:
        raise AssertionError("reflexive cross-check failed")
    return True


def product(P, Q, name=None):
    """Cartesian product, with its facet system derived from the factors.

    The facets of P x Q are F x Q and P x G for the facets F of P and G of
    Q.  F x Q is tight at tight_P(F) x V(Q), of affine rank (n-1) + m, and
    likewise P x G; the normals active at a vertex (a, b) are
    active_P(a) (+) 0 and 0 (+) active_Q(b), of rank n + m.  Ranks add, so
    both rank checks hold because they hold for P and Q.
    """
    n, m = P.dim, Q.dim
    verts = [a + b for a in P.vertices for b in Q.vertices]
    zero_m = (0,) * m
    zero_n = (0,) * n
    new_facets = []
    for f in P.facets:
        tight = tuple(sorted(a + b for a in f.vertices for b in Q.vertices))
        new_facets.append(Facet(normal=f.normal + zero_m, offset=f.offset, vertices=tight))
    for f in Q.facets:
        tight = tuple(sorted(a + b for a in P.vertices for b in f.vertices))
        new_facets.append(Facet(normal=zero_n + f.normal, offset=f.offset, vertices=tight))
    return Polytope._derived(verts, new_facets, name, ("product", (P, Q)))


def dual(P, name=None):
    """Polar dual of a reflexive polytope (vertices = facet normals).

    P* = {y : <v, y> >= -1 for v in V(P)} has one facet per vertex v of P,
    tight at the normals of the facets through v, and one vertex n_F per
    facet F: the incidence is P's transposed.  The tight points of a facet
    of either polytope lie on a hyperplane at height -1, which misses the
    origin, so there linear rank n is affine rank n - 1: P*'s facet check
    is P's vertex check, and P*'s vertex check is P's facet check.
    """
    if not all(f.offset == 1 for f in P.facets):
        raise NotReflexive("dual requires all facet offsets equal to 1")
    through = {v: [] for v in P.vertices}
    for f in P.facets:
        for v in f.vertices:
            through[v].append(f.normal)
    new_facets = [
        Facet(normal=v, offset=1, vertices=tuple(sorted(normals)))
        for v, normals in through.items()
    ]
    verts = [f.normal for f in P.facets]
    return Polytope._derived(verts, new_facets, name, ("dual", (P,)))


def double_cone(P, name=None):
    """Bipyramid over P x {0} with apexes (0,...,0,+-1).

    Every facet offset o_F of P must be positive (the origin interior to
    P), else OriginNotInterior is raised.  Lattice points of k.D(P) at
    height q form (k-|q|)P.  Each facet F of P gives the two facets
    <n_F, x> -+ o_F t >= -o_F, pyramids over F x {0} with apex (0, +-1):
    the apex lies off t = 0, so their tight vertices have affine rank
    (n-1) + 1.  The normals active at (v, 0) are (n_F, +-o_F) for the
    facets F through v; their span holds (0, o_F) and every (n_F, 0), so
    has rank n + 1.  At an apex every (n_F, -+o_F) is active; a vector
    (x, s) orthogonal to them all has s = 0 and then x = 0, since s != 0
    would put -x/s on every facet of P.
    """
    if not all(f.offset > 0 for f in P.facets):
        raise OriginNotInterior("double cone requires the origin interior to its base")
    n = P.dim
    verts = [v + (0,) for v in P.vertices]
    apex_up = (0,) * n + (1,)
    apex_dn = (0,) * n + (-1,)
    verts += [apex_up, apex_dn]
    new_facets = []
    for f in P.facets:
        base = [v + (0,) for v in f.vertices]
        for apex, sgn in ((apex_up, -f.offset), (apex_dn, f.offset)):
            normal = f.normal + (sgn,)
            tight = tuple(sorted(base + [apex]))
            new_facets.append(Facet(normal=normal, offset=f.offset, vertices=tight))
    return Polytope._derived(verts, new_facets, name, ("double_cone", (P,)))


def lattice_shells(P, k):
    """Partition of kP into boundary shells of iP, i = 0..k (reflexive P only).

    A point v lies on the boundary of iP for i = max(0, -min_F <n_F, v>).
    The minimum is kept for all points at once: per facet, one C-level pass
    over the coordinate columns its normal does not vanish on.
    """
    if not all(f.offset == 1 for f in P.facets):
        raise NotReflexive("lattice shells require a reflexive polytope")
    pts = lattice_points(P, k)
    columns = list(zip(*pts))
    least = [0] * len(pts)
    for f in P.facets:
        terms = [
            col if c == 1 else map(mul, repeat(c), col)
            for c, col in zip(f.normal, columns)
            if c
        ]
        # <n_F, v> for every point v, added term by term
        least = list(map(min, least, reduce(partial(map, add), terms)))
    shells = {i: set() for i in range(k + 1)}
    for v, m in zip(pts, least):
        shells[-m].add(v)
    return shells
