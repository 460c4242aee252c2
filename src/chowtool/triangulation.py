"""Unimodular triangulations and incidence counts.

Two building blocks cover the whole catalog:

* the alcove triangulation of a dilated standard simplex kT_n (the affine
  type-A hyperplane arrangement; k^n unimodular cells, and a lattice point
  whose tight walls x_i = 0 and sum x = k form cyclic runs of lengths
  r_1, ..., r_m lies in (n+1)!/prod (r_i+1)! of them), and
* the staircase (Freudenthal) triangulation of axis-aligned boxes.

Boundary triangulations are assembled facet by facet: facets that are
dilated unimodular simplices or axis-aligned boxes transport the two model
triangulations, two-dimensional facets go through the one polygon
triangulation (polygon_unimodular_triangulation, which also triangulates the
bases of double cones), and anything else must be user-supplied.  Cell sets
restricted to shared faces are lattice-intrinsic for the simplex/box
strategies, which is what makes the per-facet assembly face-compatible.

The boundary and full tables of kP are alcove refinements of level-1
complexes, each cell refined along its vertex cycle (lexicographic, but for
the bipyramids of level1_cycles), so the incidence at a point depends only
on its stratum: the face F of the level-1 complex with the point in
relint(kF).  By the run-product law (Lam and Postnikov, "Alcoved polytopes
I", Discrete Comput. Geom. 38, 2007) it is the sum over the cells σ ⊇ F of
(d+1)!/prod (r_i+1)!, with r_i the lengths of the cyclic runs of σ's
vertices missing from F, for every k; a unimodular j-face has C(k-1, j)
points in relint(kF).  _stratum_sums reads these sums off level-1 cells.
The level-1 boundary is built, verified at k = 1 and summed once per
polytope, by level1_boundary_strata, which both criteria read:
check_special its report and strata, check_sufficient through
level1_strata, which adds the strata of the full complex along the
level1_cycles.  So the verdict path builds no table past level 1 and
verifies one table; the dilated tables serve the triangulate command and
the tests' oracles.

A Triangulation is a point table and integer cells: points is the sorted
tuple of its vertices, and each cell is a sorted tuple of indices into it.
Every builder hands Triangulation.from_blocks blocks of (image points, cells
as indices into those images): an alcove block maps the C(k+d, d) points of
the pattern once and reuses the pattern's cells, and a staircase block
indexes the box's lattice points by mixed radix.  volumes, incidence,
the ridge counts and verify_regular_boundary (and, in the stability module,
chow_gap's vertex weights and the falsifier's ridge census) read the table,
so the per-cell work hashes ints; LatticeSimplex objects are built only for
the simplices view and for cells whose lattice points must be enumerated.

Refined and staircase cells come in few shapes up to translation and
permutation of the coordinates, neither of which changes a cell's volume,
so a triangulation computes its volumes once per shape
(Triangulation.volumes); verification still checks every cell.
Translates are found by one int per cell: each point of the table is packed
once into an int, in a radix wide enough that the difference of two packed
points is a balanced-digit code of their edge, and a cell's key is its
packed edges as the digits of a larger radix (_packed_cell_keys), so the
pass holds one int per translate class, not a tuple of every edge
coordinate.  A cell that no earlier translate keys is looked up by the
sorted columns of its vertex matrix, built at C level, which cells equal up
to a permutation of the coordinates share: the 10,080 cells of the
bipyramid carrier over [-1, 1]^7, no two of them translates, reach the
kernel 14 times and build no edge tuple in between.

The ridge condition of verify_regular_boundary is counted chunk by chunk
(_ridges_in_pairs): a ridge is counted in the chunk that covers its least
point id, which is the first id of the cells starting there and the second
of the cells whose tail it is, so a table cut where the first id changes
counts each ridge in one chunk, and only one chunk's ridges are held at a
time instead of all of them.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache, reduce
from itertools import (
    accumulate,
    chain,
    combinations,
    compress,
    permutations,
    product as iter_product,
    repeat,
)
from math import factorial, gcd, inf, prod
from operator import add, and_, attrgetter, itemgetter, mul, sub

from .errors import DegenerateSimplex, NoStrategy, NotReflexive
from .geometry import (
    centroid,
    facet_polytope,
    per_polytope,
    boundary_volume,
    lattice_points,
    hull_facets,
)
from .linalg import (
    vec_sub,
    vec_add,
    det_int,
    integer_root,
    independent_rows,
    primitive,
    solve_rational,
    edge_matrix_volume_times_factorial,
    simplex_relative_volume_times_factorial,
)

_vertices_of = attrgetter("vertices")


@dataclass(frozen=True)
class LatticeSimplex:
    """A d-dimensional lattice simplex given by its d+1 vertices (sorted)."""

    vertices: tuple

    @property
    def dim(self):
        return len(self.vertices) - 1

    @cached_property
    def volume_times_factorial(self):
        """d! times the relative volume (the gcd of the edge minors), computed once."""
        return simplex_relative_volume_times_factorial(self.vertices)

    def relative_volume(self):
        """Volume against the lattice of the affine hull; unimodular means 1/d!."""
        return Fraction(self.volume_times_factorial, factorial(self.dim))

    def is_unimodular(self):
        return self.volume_times_factorial == 1

    def barycentric(self, point):
        """Exact barycentric coordinates of a point, or None if outside.

        Raises DegenerateSimplex, naming the cell, when its vertices are
        affinely dependent.
        """
        verts = self.vertices
        d = self.dim
        n = len(verts[0])
        rows = [[verts[j][i] for j in range(d + 1)] for i in range(n)]
        rows.append([1] * (d + 1))
        rhs = list(point) + [1]
        kept = independent_rows(rows)
        if len(kept) <= d:
            raise DegenerateSimplex(
                f"cell {[list(v) for v in verts]} is affinely dependent: its "
                f"{d + 1} vertices span dimension {len(kept) - 1}"
            )
        sol = solve_rational([rows[i] for i in kept], [rhs[i] for i in kept])
        if sol is None:
            return None
        for i in range(len(rows)):
            if sum(rows[i][j] * sol[j] for j in range(d + 1)) != rhs[i]:
                return None
        if any(c < 0 for c in sol):
            return None
        return sol

    def contains(self, point):
        return self.barycentric(point) is not None


def make_simplex(points):
    return LatticeSimplex(vertices=tuple(sorted(map(tuple, points))))


def cell_blocks(cells):
    """One block per cell given by its vertices, for Triangulation.from_blocks."""
    return ((cell, (tuple(range(len(cell))),)) for cell in cells)


def _point_table(blocks):
    """(points, cells) of the cells of every block of (images, cells).

    The distinct images, sorted, make the point table; each block's images
    are looked up once, and each cell is mapped through them and sorted.
    Because points is sorted, sorted index tuples order exactly as the
    sorted vertex tuples they stand for.
    """
    blocks = list(blocks)
    points = tuple(sorted(dict.fromkeys(chain.from_iterable(b[0] for b in blocks))))
    index = dict(zip(points, range(len(points))))
    out = []
    for images, cells in blocks:
        get = list(map(index.__getitem__, images)).__getitem__
        # tuple(sorted(map(get, c))) for each cell c, without a Python frame per cell
        out.extend(map(tuple, map(sorted, map(map, repeat(get), cells))))
    out.sort()
    return points, tuple(out)


def _packed_cell_keys(points, cells):
    """One int per cell, equal for two cells iff their edge matrices are.

    With span the largest spread of one coordinate over points and R =
    2 span + 1, each point x is packed once as sum_j x_j R^j.  An edge
    coordinate lies in [-span, span], so the difference of two packed points
    is the edge read as balanced base-R digits, which it determines, and it
    lies strictly between -R^n/2 and R^n/2.  A cell c is keyed by
    sum_i (packed[c_i] - packed[c_0]) S^(i-1) with S = 2 R^n + 1: two keys
    that differ first in the i-th edge differ there by less than S, so they
    are unequal.  The keys come lazily, at C level; raises ValueError when
    the points or the cells are of mixed length, which the weights, made
    for one length, would silently truncate.
    """
    if len(set(map(len, points))) > 1 or len(set(map(len, cells))) > 1:
        raise ValueError("a point table with points or cells of mixed length")
    if not cells:
        return iter(())
    n = len(points[0])
    span = max((max(column) - min(column) for column in zip(*points)), default=0)
    radix = [(2 * span + 1) ** j for j in range(n + 1)]
    packed = list(map(sum, map(map, repeat(mul), points, repeat(radix))))
    s = 2 * radix[n] + 1
    powers = [s**i for i in range(len(cells[0]) - 1)]
    # packed[c_0] weighs minus the sum of the other vertices' weights
    weights = [-sum(powers)] + powers
    # sum(map(mul, map(packed.__getitem__, c), weights)) for each cell c
    return map(
        sum,
        map(map, repeat(mul), map(map, repeat(packed.__getitem__), cells), repeat(weights)),
    )


def _run_product(d, face):
    """(d+1)!/prod (r_i+1)!: the alcoves of a dilated d-simplex around a
    point in the relative interior of the face at the sorted positions face
    of its vertex cycle 0..d.

    The r_i are the cyclic runs of missing positions: the run between
    consecutive positions a < b of face has length b - a - 1, so (r+1)! is
    (b - a)!, and the last run wraps past d to face[0] + d + 1.
    """
    gaps = map(sub, face[1:] + (face[0] + d + 1,), face)
    return factorial(d + 1) // prod(map(factorial, gaps))


def _stratum_sums(d, groups):
    """{face: sum over the cells σ ⊇ F of (d+1)!/prod (r_i+1)!}, the r_i the
    cyclic runs of σ's cycle positions missing from F (_run_product).

    Each group is (cycle, cells): sorted id tuples, the i-th id at position
    cycle[i] of the vertex cycle.  The faces at one set of positions in one
    group are counted in one Counter, at C level.
    """
    out = {}
    for cycle, cells in groups:
        for size in range(1, d + 2):
            for face in combinations(range(d + 1), size):
                # itemgetter of one index returns no tuple, of a slice one
                get = itemgetter(*face) if size > 1 else itemgetter(slice(face[0], face[0] + 1))
                weight = _run_product(d, tuple(sorted(map(cycle.__getitem__, face))))
                for f, c in Counter(map(get, cells)).items():
                    out[f] = out.get(f, 0) + weight * c
    return out


def relint_points(face, k):
    """The C(k-1, dim F) lattice points of relint(kF), F a unimodular face
    given by its vertices: sum a_i v_i over the compositions a of k."""
    for cuts in combinations(range(1, k), len(face) - 1):
        parts = [b - a for a, b in zip((0,) + cuts, cuts + (k,))]
        yield tuple(map(sum, zip(*([a * x for x in v] for a, v in zip(parts, face)))))


@dataclass(init=False)
class Triangulation:
    """A finite set of lattice simplices of equal dimension.

    Stored as a point table: points is the lexicographically sorted tuple of
    the vertices, and cells is the sorted tuple of the cells, each a sorted
    tuple of indices into points.  Sorted index tuples order as the vertex
    tuples they stand for, so simplices, a view built on first use, lists the
    cells as LatticeSimplex objects in vertex order.  volumes, incidence,
    ridge_counts, ridge_census and verify_regular_boundary read points and
    cells; ridge_counts keys ridges by point ids, ridge_census by vertices.

    The incidence map counts, for every lattice point of the union, the
    simplices whose closed cell contains it.
    """

    dim: int
    points: tuple
    cells: tuple

    def __init__(self, dim, simplices):
        self._assemble(dim, cell_blocks(map(_vertices_of, simplices)))

    @classmethod
    def from_blocks(cls, dim, blocks):
        """The triangulation whose cells are those of every block.

        A block is (images, cells): a sequence of lattice points and cells
        given as tuples of indices into it.  Points shared between blocks
        become one entry of the point table.
        """
        T = cls.__new__(cls)
        T._assemble(dim, blocks)
        return T

    def _assemble(self, dim, blocks):
        self.dim = dim
        self.points, self.cells = _point_table(blocks)
        self._incidence = None
        self._volumes = None

    @cached_property
    def simplices(self):
        """The cells as LatticeSimplex objects, in vertex order."""
        get = self.points.__getitem__
        return tuple(LatticeSimplex(tuple(map(get, c))) for c in self.cells)

    def __len__(self):
        return len(self.cells)

    def volumes(self):
        """d! times each cell's relative volume, aligned with cells.

        A cell's volume depends only on its edge matrix, and two memos, both
        local to this one pass, share it between cells.  The first key is
        one int per cell that determines its edge matrix (_packed_cell_keys),
        so translates of a sorted cell share it.  Only on a miss is the
        second key built, at C level: the columns of the cell's vertex matrix
        in sorted order.  Two cells with equal second keys have vertex
        matrices that differ by a permutation of the coordinates, which
        permutes the maximal minors of the edge matrix up to sign and so
        keeps the volume.  The edge matrix is built, and the kernel run, once
        per distinct second key.
        """
        if self._volumes is None:
            get = self.points.__getitem__
            by_key = {}
            memo = {}
            out = []
            for cell, key in zip(self.cells, _packed_cell_keys(self.points, self.cells)):
                vol = by_key.get(key)
                if vol is None:
                    columns = tuple(sorted(zip(*map(get, cell))))
                    vol = memo.get(columns)
                    if vol is None:
                        first = get(cell[0])
                        edges = tuple(vec_sub(get(i), first) for i in cell[1:])
                        vol = memo[columns] = edge_matrix_volume_times_factorial(edges)
                    by_key[key] = vol
                out.append(vol)
            self._volumes = tuple(out)
        return self._volumes

    def relative_volume(self):
        """Sum of the cells' relative volumes, added as ints over one d!."""
        if not self.cells:
            return Fraction(0)
        return Fraction(sum(self.volumes()), factorial(len(self.cells[0]) - 1))

    def all_unimodular(self):
        return all(vol == 1 for vol in self.volumes())

    def incidence(self):
        """{lattice point: number of cells containing it}, keyed in the order
        the points first appear, cell by cell.

        A unimodular cell contains only its vertices, counted by id; the
        lattice points of any other cell are enumerated, each counted under
        its id in the table or under a new id past it.
        """
        if self._incidence is not None:
            return self._incidence
        points = self.points
        index = None

        def ids(cell, vol):
            nonlocal index
            if vol == 1:
                return cell
            if index is None:
                index = {p: i for i, p in enumerate(points)}
            s = LatticeSimplex(tuple(map(points.__getitem__, cell)))
            return [index.setdefault(p, len(index)) for p in _lattice_points_of_simplex(s)]

        counts = Counter(chain.from_iterable(map(ids, self.cells, self.volumes())))
        every = points if index is None else tuple(index)
        self._incidence = {every[i]: c for i, c in counts.items()}
        return self._incidence

    def ridge_counts(self):
        """Map from (d-1)-subface (sorted tuple of point ids) to the number
        of incident cells, keyed in the order the faces first appear."""
        if not self.cells:
            return {}
        d = len(self.cells[0]) - 1
        return Counter(chain.from_iterable(map(combinations, self.cells, repeat(d))))

    def ridge_census(self):
        """Map from (d-1)-subface (sorted vertex tuple) to the number of incident cells."""
        get = self.points.__getitem__
        return {tuple(map(get, face)): c for face, c in self.ridge_counts().items()}


def _lattice_points_of_simplex(s):
    verts = s.vertices
    n = len(verts[0])
    los = [min(v[i] for v in verts) for i in range(n)]
    his = [max(v[i] for v in verts) for i in range(n)]
    out = []
    for p in iter_product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        if s.contains(p):
            out.append(p)
    return out


def incidence(T):
    """Spec-level alias: incidence counts of a Triangulation."""
    return T.incidence()


# ---------------------------------------------------------------------------
# model triangulations
# ---------------------------------------------------------------------------


def _alcove_cells_order_simplex(n, k):
    """Cells of the affine type-A arrangement inside 0 <= y_1 <= ... <= y_n <= k.

    Each cell is a chain m, m+e_{s1}, ..., m+1 staying weakly increasing;
    exactly k^n cells come out.
    """
    cells = []

    def bases(prefix, low):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(low, k):
            yield from bases(prefix + [v], v)

    def chains(current, remaining, chain):
        if not remaining:
            cells.append(tuple(chain))
            return
        for j in list(remaining):
            nxt = list(current)
            nxt[j] += 1
            if j + 1 < n and nxt[j] > current[j + 1]:
                continue
            if j == n - 1 and nxt[j] > k:
                continue
            if j > 0 and nxt[j - 1] > nxt[j]:
                continue
            chains(tuple(nxt), remaining - {j}, chain + [tuple(nxt)])

    for m in bases([], 0):
        chains(m, frozenset(range(n)), [m])
    return cells


def _y_to_x(y):
    prev = 0
    out = []
    for v in y:
        out.append(v - prev)
        prev = v
    return tuple(out)


@lru_cache(maxsize=None)
def _alcove_pattern(n, k):
    """The alcove cells of kT_n, built once per (n, k).

    Returns (points, steps, cells).  points are the cell vertices in
    x-coordinates, in lexicographic order, so points[0] is the origin;
    points[i] for i > 0 is points[p] + e_j for (p, j) = steps[i - 1], where
    j is the first nonzero coordinate of points[i].  cells keep the order of
    _alcove_cells_order_simplex, as tuples of indices into points.
    """
    chains = _alcove_cells_order_simplex(n, k)
    points = sorted({_y_to_x(y) for chain in chains for y in chain})
    index = {x: i for i, x in enumerate(points)}
    steps = []
    for x in points[1:]:
        j = next(j for j in range(n) if x[j])
        steps.append((index[x[:j] + (x[j] - 1,) + x[j + 1 :]], j))
    cells = tuple(tuple(index[_y_to_x(y)] for y in chain) for chain in chains)
    return tuple(points), tuple(steps), cells


def standard_simplex_triangulation(n, k):
    """Alcove triangulation of kT_n = conv{0, k e_1, ..., k e_n}.

    k^n unimodular cells; a lattice point whose tight walls (x_i = 0 and
    sum x = k) form cyclic runs of lengths r_1, ..., r_m lies in
    (n+1)!/prod (r_i+1)! of them, which is (n+1)!/(r+1)! when its face of
    kT_n has dimension n-r and the walls form one run.
    """
    points, _, cells = _alcove_pattern(n, k)
    return Triangulation.from_blocks(n, [(points, cells)])


def _alcove_block(verts, k):
    """(images, cells): the alcove pattern of kT_d carried onto
    k * conv(verts), with the vertex cycle in the given order.

    The cell set is invariant only under dihedral relabelings of the vertex
    cycle.  The lexicographic vertex order is always safe: restricting a
    lex cycle to a subset of vertices again gives the lex cycle, so
    refinements of adjacent simplices agree on their shared faces.  Another
    order is safe only when every shared face has at most three vertices
    (all three-element cycles are dihedrally equivalent), or when the
    neighbours use the induced order of this cycle.

    images[i] is k*base + sum_j x_j cols[j] for the pattern point x =
    points[i], one column added per step; cells are the pattern's, indices
    into images.
    """
    base = verts[0]
    cols = [vec_sub(v, base) for v in verts[1:]]
    _, steps, cells = _alcove_pattern(len(verts) - 1, k)
    images = [tuple(k * b for b in base)]
    for p, j in steps:
        images.append(tuple(map(add, images[p], cols[j])))
    return images, cells


def refine_anchored(small, m):
    """Alcove cells of the m-fold dilation of conv(small) about small[0].

    Used for facets that are m-dilated unimodular simplices in place: the
    target simplex is small[0] + m (conv(small) - small[0]).  Translation
    preserves lexicographic order, so the canonical cycles still match
    across shared faces.  Each cell's vertices come in sorted order.
    """
    shift = tuple((1 - m) * x for x in small[0])
    images, cells = _alcove_block(sorted(small), m)
    moved = [vec_add(p, shift) for p in images]
    return [sorted(moved[i] for i in c) for c in cells]


def staircase_chain(origin, steps, order):
    """The staircase cell origin, then one step of steps[j] along each
    coordinate j in the given order: the vertex chain of one cell of the
    Freudenthal triangulation of a box with edge lengths steps."""
    chain = [tuple(origin)]
    cur = list(origin)
    for j in order:
        cur[j] += steps[j]
        chain.append(tuple(cur))
    return chain


def _freudenthal_box_block(los, his):
    """(points, cells) of the staircase triangulation of an integer box: the
    box's lattice points in lexicographic order, and one chain per unit cube
    and coordinate order, as indices into points.

    A point's index is its mixed-radix offset from los, so each unit chain
    (a staircase_chain from the origin, one unit step per coordinate in the
    chain's order) becomes the running sums of those coordinates' strides.
    """
    d = len(los)
    sizes = [hi - lo + 1 for lo, hi in zip(los, his)]
    strides = [1] * d
    for j in range(d - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]
    points = list(iter_product(*(range(lo, hi + 1) for lo, hi in zip(los, his))))
    chains = [
        tuple(accumulate(map(strides.__getitem__, order), initial=0))
        for order in permutations(range(d))
    ]
    cells = []
    for m in iter_product(*(range(size - 1) for size in sizes)):
        start = sum(map(mul, m, strides))
        cells.extend(tuple(start + x for x in c) for c in chains)
    return points, cells


def _freudenthal_box_cells(los, his):
    """Staircase cells of an axis-aligned integer box, one chain per unit cell."""
    points, cells = _freudenthal_box_block(los, his)
    return [[points[i] for i in c] for c in cells]


# ---------------------------------------------------------------------------
# boundary triangulation strategies
# ---------------------------------------------------------------------------


def _embed(active, fixed, point):
    """Rebuild an ambient point from values on active coordinates."""
    out = list(fixed)
    for idx, value in zip(active, point):
        out[idx] = value
    return tuple(out)


def _facet_as_aligned_box(facet):
    """Detect an axis-aligned box on the vertices of a facet or of a polytope.

    Returns (active coords, lows, highs) or None; a full-dimensional box has
    every coordinate active.
    """
    verts = facet.vertices
    n = len(verts[0])
    los = [min(v[i] for v in verts) for i in range(n)]
    his = [max(v[i] for v in verts) for i in range(n)]
    active = [i for i in range(n) if los[i] != his[i]]
    expected = set()
    for combo in iter_product(*( (los[i], his[i]) for i in active )):
        expected.add(_embed(active, los, combo))
    if expected == set(verts):
        return active, los, his
    return None


def _facet_as_dilated_simplex(facet):
    """Detect facet = m * (unimodular simplex); returns (m, vertices) or None."""
    verts = facet.vertices
    if len(verts) != len(verts[0]):
        return None
    return _as_dilated_unimodular_simplex(verts)


def _as_dilated_unimodular_simplex(verts):
    """(m, shrunk vertices) when the lattice simplex conv(verts) is m times a
    unimodular simplex placed at verts[0], else None.

    Its relative volume times d! must be m^d, and every edge must be m times
    a lattice vector (the edges are then m times a lattice basis of the
    affine hull); the shrunk simplex keeps verts[0] and each edge over m.
    """
    m = integer_root(simplex_relative_volume_times_factorial(verts), len(verts) - 1)
    if not m:
        return None
    base = verts[0]
    edges = [vec_sub(v, base) for v in verts[1:]]
    if any(x % m for e in edges for x in e):
        return None
    return m, (base,) + tuple(tuple(b + x // m for b, x in zip(base, e)) for e in edges)


def _polygon_facet_level1(P, facet):
    """Unimodular triangulation of a 2-dimensional facet at dilation 1.

    The facet's own polygon (facet_polytope) goes through
    polygon_unimodular_triangulation, whose cycle DP weighs a point by the
    number of facets of P having it as a vertex (this is what keeps the
    incidence at shared vertices under control, e.g. for rhombic facets);
    the triangles are mapped back into P's coordinates.
    """
    poly, basis, anchor = facet_polytope(P, facet)

    def back(p2):
        return tuple(
            a + sum(b[i] * c for b, c in zip(basis, p2)) for i, a in enumerate(anchor)
        )

    def valence(p2):
        amb = back(p2)
        return sum(1 for f in P.facets if amb in f.vertices)

    return [[back(p2) for p2 in tri] for tri in polygon_unimodular_triangulation(poly, valence)]


def _as_parallelogram(verts):
    """Detect a parallelogram whose primitive edges span the lattice.

    Returns (v0, p1, l1, p2, l2) with lattice lengths l_i along the
    primitive directions p_i, or None.  The staircase triangulation in this
    basis keeps interior vertex valences at 6.
    """
    if len(verts) != 4:
        return None
    vs = sorted(verts)
    v0 = vs[0]
    others = vs[1:]
    for i in range(3):
        a = vec_sub(others[i], v0)
        for j in range(3):
            if j == i:
                continue
            b = vec_sub(others[j], v0)
            rest = [others[m] for m in range(3) if m not in (i, j)][0]
            if vec_sub(rest, v0) != vec_add(a, b):
                continue
            p1, p2 = primitive(a), primitive(b)
            if abs(det_int([p1, p2])) != 1:
                continue
            return v0, p1, gcd(*a), p2, gcd(*b)
    return None


def _boundary_cycle(Q, all_points):
    """Boundary lattice points of a polygon in cyclic order around the centroid."""
    boundary = [p for p in all_points if not Q.strictly_contains(p)]
    cx, cy = centroid(Q)

    def half(p):
        dx, dy = Fraction(p[0]) - cx, Fraction(p[1]) - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        ax, ay = Fraction(a[0]) - cx, Fraction(a[1]) - cy
        bx, by = Fraction(b[0]) - cx, Fraction(b[1]) - cy
        cross = ax * by - ay * bx
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(boundary, key=cmp_to_key(cmp))


def _best_cycle_triangulation(cycle, weights):
    """All triangulations of a convex cycle by DP; returns the best triangle list.

    A triangulation costs the sum, over its triangles, of the weights of
    their three corners (weights[i] belongs to cycle[i]).  Degenerate
    (collinear) triangles are rejected, which forces subdivided edges to be
    used; ties break lexicographically for determinism.
    """
    m = len(cycle)
    if m < 3:
        return None

    def area2(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    @lru_cache(maxsize=None)
    def best(i, j):
        """Triangulate the chain i..j; returns (cost, canonical key, triangles)."""
        if j - i < 2:
            return (0, (), ())
        out = None
        for k in range(i + 1, j):
            if area2(cycle[i], cycle[k], cycle[j]) == 0:
                continue
            left = best(i, k)
            right = best(k, j)
            if left is None or right is None:
                continue
            cost = left[0] + right[0] + weights[i] + weights[k] + weights[j]
            tris = left[2] + right[2] + ((cycle[i], cycle[k], cycle[j]),)
            key = tuple(sorted(tuple(sorted(t)) for t in tris))
            cand = (cost, key, tris)
            if out is None or cand[:2] < out[:2]:
                out = cand
        return out

    res = best(0, m - 1)
    if res is None:
        return None
    return list(res[2])


@per_polytope
def level1_boundary(P):
    """Per-facet unimodular triangulation of the undilated boundary.

    Returns a tuple of (facet, cells), built once per polytope; raises
    NoStrategy when a facet fits none of the built-in shapes.
    """
    n = P.dim
    out = []
    for f in P.facets:
        box = _facet_as_aligned_box(f)
        m_simplex = _facet_as_dilated_simplex(f)
        if m_simplex is not None:
            m, small = m_simplex
            cells = [small] if m == 1 else refine_anchored(small, m)
        elif box is not None:
            active, los, his = box
            cells = [
                [_embed(active, los, p) for p in cell]
                for cell in _freudenthal_box_cells(
                    [los[i] for i in active], [his[i] for i in active]
                )
            ]
        elif n == 3:
            cells = _polygon_facet_level1(P, f)
        else:
            raise NoStrategy(f"no triangulation strategy for facet with normal {f.normal}")
        out.append((f, tuple(tuple(cell) for cell in cells)))
    return tuple(out)


def boundary_triangulation(P, k):
    """Triangulation of the boundary of kP into (n-1)-simplices.

    Strategy-built triangulations are the k-dilations of the level-1 facet
    triangulations, refined inside each dilated cell by the alcove rule, so
    incidence counts depend only on the stratum of a point.
    """
    blocks = [
        _alcove_block(sorted(cell), k) for _, cells in level1_boundary(P) for cell in cells
    ]
    return Triangulation.from_blocks(P.dim - 1, blocks)


def cone_over_boundary(P, boundary_tri):
    """Cone every boundary simplex to the origin (reflexive P).

    One n-simplex per boundary simplex; the incidence of the origin equals
    the number of boundary simplices.
    """
    if not all(f.offset == 1 for f in P.facets):
        raise NotReflexive("cone_over_boundary requires a reflexive polytope")
    n = P.dim
    origin = (0,) * n
    if origin in boundary_tri.points:
        raise AssertionError("the boundary triangulation passes through the origin")
    images = (origin,) + boundary_tri.points
    cells = [(0,) + tuple(i + 1 for i in c) for c in boundary_tri.cells]
    return Triangulation.from_blocks(n, [(images, cells)])


def polygon_unimodular_triangulation(Q, valence=None):
    """Unimodular triangles covering a 2-dimensional lattice polytope,
    using all of its lattice points as vertices.

    The one polygon triangulation, for the 2-dimensional facets of
    3-polytopes and for the bases of double cones.  Dilated unimodular
    simplices take the alcove cells, unimodular parallelograms the
    staircase in their own edge basis (both keep interior vertex valences
    at 6); a single interior point is coned; empty polygons go through the
    cycle DP, which weighs each boundary point p by valence(p) (1 when
    valence is None).  Every triangle is checked for unimodularity.
    """
    verts = Q.vertices
    dilated = _as_dilated_unimodular_simplex(verts) if len(verts) == 3 else None
    para = _as_parallelogram(verts)
    if dilated is not None:
        m, small = dilated
        tris = refine_anchored(small, m)
    elif para is not None:
        v0, p1, l1, p2, l2 = para
        tris = [
            [tuple(a + x * b + y * c for a, b, c in zip(v0, p1, p2)) for x, y in cell]
            for cell in _freudenthal_box_cells([0, 0], [l1, l2])
        ]
    else:
        pts = lattice_points(Q, 1)
        interior = [p for p in pts if Q.strictly_contains(p)]
        if len(interior) > 1:
            raise NoStrategy("polygon with several interior points")
        cycle = _boundary_cycle(Q, pts)
        if interior:
            tris = [(interior[0], a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        else:
            weights = [1 if valence is None else valence(p) for p in cycle]
            tris = _best_cycle_triangulation(cycle, weights)
            if tris is None:
                raise NoStrategy("empty polygon admits no unimodular triangulation")
    tris = [tuple(t) for t in tris]
    if any(simplex_relative_volume_times_factorial(t) != 1 for t in tris):
        raise NoStrategy("polygon triangulation has a non-unimodular triangle")
    return tris


def _bipyramid_exclusions(Q, tris):
    """Pick, per triangle, the vertex to place opposite the apexes.

    The axis through an interior vertex u of the polygon triangulation meets
    4 cells per incident triangle when the apex is cycle-adjacent to u, and
    6 otherwise, so interior vertices must never be excluded (valence 6
    leaves no slack against the (n+1)! = 24 bound) and boundary midpoints
    may be excluded at most valence - 2 times.
    """
    valence = {}
    for t in tris:
        for v in t:
            valence[v] = valence.get(v, 0) + 1
    qverts = set(Q.vertices)
    boundary = {
        p for p in lattice_points(Q, 1) if not Q.strictly_contains(p)
    }
    caps = {}
    for v in valence:
        if v in qverts:
            caps[v] = len(tris)  # corners are unconstrained
        elif v in boundary:
            caps[v] = max(valence[v] - 2, 0)
        else:
            caps[v] = 0
    out = []
    for t in tris:
        choice = max(sorted(t), key=lambda v: caps[v])
        caps[choice] -= 1
        out.append(choice)
    return out


@per_polytope
def level1_cycles(P):
    """The vertex cycles of the cells of a reflexive P's level-1 full complex.

    A double cone D(Q) over a polygon is a bipyramid over a balanced polygon
    triangulation (interior valences stay at 6, so the axis points meet 24
    cells), each triangle coned to both apexes along (apex, p, excl, q) with
    excl from _bipyramid_exclusions; any other P cones its level-1 boundary
    over the origin along lexicographic cycles.
    """
    if not all(f.offset == 1 for f in P.facets):
        raise NotReflexive("full triangulation requires a reflexive polytope")
    prov = P._provenance
    if prov is not None and prov[0] == "double_cone" and prov[1][0].dim == 2:
        Q = prov[1][0]
        tris = polygon_unimodular_triangulation(Q)
        cycles = []
        for tri, excl in zip(tris, _bipyramid_exclusions(Q, tris)):
            p, q = sorted(v for v in tri if v != excl)
            for apex in ((0, 0, 1), (0, 0, -1)):
                # dilated edges [apex, p], [apex, q] meet only 4 cells of
                # this refinement; excl sits opposite the apex
                cycles.append((apex, p + (0,), excl + (0,), q + (0,)))
        return tuple(cycles)
    origin = (0,) * P.dim
    return tuple(
        tuple(sorted((origin,) + cell)) for _, cells in level1_boundary(P) for cell in cells
    )


def full_triangulation(P, k):
    """Unimodular triangulation of kP: the alcove refinement of every
    level1_cycles cell along its cycle, which keeps the complex
    face-to-face.  check_sufficient reads its incidence off the level-1
    strata (level1_strata) instead of building it.
    """
    blocks = [_alcove_block(cycle, k) for cycle in level1_cycles(P)]
    return Triangulation.from_blocks(P.dim, blocks)


@per_polytope
def level1_boundary_strata(P):
    """(points, report, strata) of P's level-1 boundary, built and verified
    once per polytope for both criteria.

    points is lattice_points(P, 1) as a tuple; report is
    verify_regular_boundary's at k = 1 on the level1_boundary cells as ids
    into points; strata is {face: incidence at every lattice point of
    relint(kF), for every k} of the boundary's alcove refinements, along its
    sorted cells (_stratum_sums), a face being a sorted tuple of ids into
    points, of dimension len(face) - 1.

    The run-product law reads unimodular cells of a complex, so this raises
    ValueError unless the boundary passes coverage, unimodularity, face
    compatibility and facet alignment.  Its n! bound is check_special's
    (report.regular) and is not required.  NoStrategy comes from
    level1_boundary.
    """
    # the lattice points of P, a block of no cells, make the point table
    blocks = chain([(lattice_points(P, 1), ())], *(cell_blocks(c) for _, c in level1_boundary(P)))
    boundary = Triangulation.from_blocks(P.dim - 1, blocks)
    report = verify_regular_boundary(P, boundary, 1)
    passed = {
        "coverage": report.coverage_ok,
        "unimodularity": report.all_unimodular,
        "face compatibility": report.face_compatible,
        "facet alignment": report.facet_aligned,
    }
    failed = [name for name, ok in passed.items() if not ok]
    if failed:
        raise ValueError(f"the level-1 boundary fails {', '.join(failed)}")
    return boundary.points, report, _stratum_sums(boundary.dim, [(range(P.dim), boundary.cells)])


@per_polytope
def level1_strata(P):
    """(points, full, boundary) of a reflexive P: the points and strata of
    level1_boundary_strata, and the strata of the level-1 full complex,
    along the level1_cycles (_stratum_sums), keyed the same way.

    level1_cycles is read first, so a P that is not reflexive raises its
    NotReflexive before any boundary is built; the boundary is verified by
    level1_boundary_strata, and the full complex here: raises ValueError
    unless every full cell is unimodular.
    """
    n = P.dim
    cycles = level1_cycles(P)
    points, _, boundary = level1_boundary_strata(P)
    index = dict(zip(points, range(len(points)))).__getitem__
    # the cells read along one vertex cycle pattern form one group
    groups = {}
    for cycle in cycles:
        ids = tuple(map(index, cycle))
        cell = tuple(sorted(ids))
        groups.setdefault(tuple(map(ids.index, cell)), []).append(cell)
    full = Triangulation.from_blocks(n, [(points, list(chain.from_iterable(groups.values())))])
    if not full.all_unimodular():
        raise ValueError("the level-1 full complex has a cell that is not unimodular")
    return points, _stratum_sums(n, groups.items()), boundary


def delaunay_triangulation(points):
    """Regular (lifted) triangulation with every input point as a vertex.

    Points are lifted to the paraboloid and the lower hull is projected;
    cocircular cells are split deterministically by the insertion order of
    the exact hull.  A raw hull facet is lower when its inward normal has a
    positive last coordinate; such a facet is no vertical hyperplane, so its
    projection is a full-dimensional cell.  When the points are exactly
    n + 1 affinely independent ones, their simplex is the triangulation
    (the lifted points then span no full-dimensional hull).
    """
    pts = sorted(set(tuple(p) for p in points))
    n = len(pts[0])
    if n == 1:
        cells = [(i, i + 1) for i in range(len(pts) - 1)]
        return Triangulation.from_blocks(1, [(pts, cells)])
    if len(pts) == n + 1 and det_int([vec_sub(q, pts[0]) for q in pts[1:]]):
        return Triangulation.from_blocks(n, [(pts, [tuple(range(n + 1))])])
    lifted = [p + (sum(x * x for x in p),) for p in pts]
    index = {q: i for i, q in enumerate(lifted)}
    cells = [
        tuple(index[q] for q in raw.verts)
        for raw in hull_facets(lifted)
        if raw.normal[-1] > 0
    ]
    return Triangulation.from_blocks(n, [(pts, cells)])


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class BoundaryReport:
    """Outcome of verify_regular_boundary; failures are entries, not exceptions."""

    dilation: int
    cell_count: int
    coverage_ok: bool
    total_relative_volume: Fraction
    expected_relative_volume: Fraction
    all_unimodular: bool
    nonunimodular_count: int
    face_compatible: bool
    facet_aligned: bool
    max_incidence: int
    incidence_bound: int
    offenders: tuple
    regular: bool

    def summary(self):
        verdict = "regular" if self.regular else "not regular"
        return (
            f"{verdict}: {self.cell_count} cells, max incidence "
            f"{self.max_incidence} (bound {self.incidence_bound})"
        )


# cells per chunk of _ridges_in_pairs; the tests lower it to force many chunks
_RIDGE_CHUNK = 4096


def _ridges_in_pairs(cells):
    """True iff every ridge of cells lies in exactly two of them.

    cells is a point table's cells: sorted tuples of point ids, in sorted
    order.  A ridge with least id m lies in a cell c that either starts at m,
    and then the ridge contains c[0], or starts before m, and then the ridge
    is c's tail c[1:].  So all of a ridge's cells are found among the cells
    starting at m and the cells whose tail starts at m.

    The table is cut into chunks of about _RIDGE_CHUNK cells, only where the
    first id changes, so the cells starting at m all lie in the one chunk
    whose range of first ids covers m.  Each chunk counts every ridge of its
    cells plus the tails passed to it by earlier chunks.  A tail whose least
    id lies past the chunk's range is taken back out of the counts (to 0)
    and passed, by bisection on the chunks' first ids, to the chunk that
    covers it.  Every other count is then complete and must be 2; the
    chunk's counts are dropped, so the memory held is one chunk's ridges
    plus one reference per passed tail.  A table of one chunk passes nothing
    on and is counted in one Counter.
    """
    if not cells:
        return True
    d = len(cells[0]) - 1
    chunk = _RIDGE_CHUNK
    starts = [0]
    end = chunk
    while end < len(cells):
        # past the last cell that starts where the nominal cut falls
        end = bisect_left(cells, (cells[end - 1][0] + 1,), end)
        if end < len(cells):
            starts.append(end)
        end += chunk
    firsts = [cells[s][0] for s in starts]
    pending = [[] for _ in starts]
    tail = itemgetter(slice(1, None))
    second = itemgetter(1)
    ends = starts[1:] + [len(cells)]
    for i, (lo, hi, past) in enumerate(zip(starts, ends, firsts[1:] + [inf])):
        block = cells[lo:hi]
        counts = Counter(chain.from_iterable(map(combinations, block, repeat(d))))
        counts.update(map(tail, pending[i]))
        pending[i] = None
        # the cells whose tail starts at or past the next chunk's first id
        later = list(compress(block, map(past.__le__, map(second, block))))
        counts.subtract(Counter(map(tail, later)))
        for c, j in zip(later, map(bisect_right, repeat(firsts), map(second, later))):
            pending[j - 1].append(c)
        if not set(counts.values()) <= {0, 2}:
            return False
    return True


def verify_regular_boundary(P, T, k):
    """Check a claimed triangulation of the boundary of kP.

    Verifies coverage (relative volumes sum to Vol(boundary) * k^{n-1}),
    per-simplex unimodularity, the pseudo-manifold ridge condition (every
    interior ridge in exactly two cells), facet alignment, and the incidence
    bound n! at every lattice point.  Every cell is checked, through T's
    point table: the volumes come from T.volumes(), one kernel call per
    distinct edge matrix up to column order, and facet masks are one int per
    point.  Ridges are counted by _ridges_in_pairs, one chunk of about 4,096
    cells at a time, so one chunk's ridges are held rather than every ridge.
    Raises ValueError when T's points are not in Z^n or its cells are not
    (n-1)-simplices, which the facet tests would read truncated.
    """
    n = P.dim
    if T.points and len(T.points[0]) != n:
        raise ValueError(f"a boundary table of a polytope in Z^{n} has points in Z^{len(T.points[0])}")
    if T.cells and len(T.cells[0]) != n:
        raise ValueError(
            f"a boundary table of a polytope in Z^{n} has {len(T.cells[0]) - 1}-simplices, "
            f"not {n - 1}-simplices"
        )
    expected = boundary_volume(P) * k ** (n - 1)
    total = T.relative_volume()
    coverage_ok = total == expected

    nonuni_count = len(T) - T.volumes().count(1)

    # bit i of a point's mask: the point lies on facet i of kP, that is
    # <normal, x> = -k offset; each point of the table is tested once, and a
    # cell lies on a facet iff the masks of its vertices share a bit
    points = T.points
    masks = [0] * len(points)
    for i, f in enumerate(P.facets):
        # the points with <normal, x> = level, each dot product a C-level sum
        level = -k * f.offset
        dots = map(sum, map(map, repeat(mul), repeat(f.normal), points))
        for j in compress(range(len(points)), map(level.__eq__, dots)):
            masks[j] |= 1 << i
    # reduce(and_, (masks of c's vertices)) for each cell c
    facet_aligned = all(map(reduce, repeat(and_), map(map, repeat(masks.__getitem__), T.cells)))

    # the boundary of kP is a closed surface, so every ridge of a proper
    # triangulation lies in exactly two cells; a count of one flags two
    # facets subdividing their shared face differently
    face_compatible = T.dim < 1 or _ridges_in_pairs(T.cells)

    counts = T.incidence()
    bound = factorial(n)
    max_inc = max(counts.values()) if counts else 0
    offenders = tuple(sorted(p for p, c in counts.items() if c > bound))

    regular = (
        coverage_ok
        and not nonuni_count
        and face_compatible
        and facet_aligned
        and max_inc <= bound
    )
    return BoundaryReport(
        dilation=k,
        cell_count=len(T),
        coverage_ok=coverage_ok,
        total_relative_volume=total,
        expected_relative_volume=expected,
        all_unimodular=not nonuni_count,
        nonunimodular_count=nonuni_count,
        face_compatible=face_compatible,
        facet_aligned=facet_aligned,
        max_incidence=max_inc,
        incidence_bound=bound,
        offenders=offenders,
        regular=regular,
    )

