"""Lattice automorphisms, the symmetric/weakly-symmetric predicates, and the
Futaki-Ono invariant.

The automorphism group is the full stabilizer of P in GL(n, Z): it contains
the determinant-one group the stability criteria quantify over, so using it
for invariance only strengthens symmetric-side conclusions and keeps the
falsifier sound.

The FO invariant of an affine function a at dilation k is the average of a
over (1/k)(kP n Z^n) minus its average over P; this is the unique reading
under which both terms are averages over the same body.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import OriginNotInterior
from .geometry import centroid
from .ehrhart import (
    count,
    moment_sum,
    moment_polynomials,
    lagrange_interpolate,
    evaluate_polynomial,
)
from .linalg import (
    dot,
    matmul,
    matvec,
    identity_matrix,
    independent_rows,
    det_int,
    adjugate,
)


@dataclass(frozen=True)
class AffineFunctional:
    """a(x) = <linear, x> + constant with exact rational data."""

    linear: tuple
    constant: Fraction = Fraction(0)

    def __call__(self, point):
        return sum(Fraction(c) * x for c, x in zip(self.linear, point)) + Fraction(
            self.constant
        )

    @staticmethod
    def coordinate(i, n):
        return AffineFunctional(tuple(Fraction(int(j == i)) for j in range(n)))


def _check_origin_interior(P):
    if not all(f.offset >= 1 for f in P.facets):
        raise OriginNotInterior(
            "the linear action fixes 0, so 0 must be interior to P"
        )


def _gram_form(P):
    """G-invariant positive form Q = sum of outer products of facet normals.

    Every lattice automorphism of P permutes the primitive facet normals, so
    it is an isometry of Q; Gram values under Q prune the image search.
    """
    n = P.dim
    q = [[0] * n for _ in range(n)]
    for f in P.facets:
        for i in range(n):
            for j in range(n):
                q[i][j] += f.normal[i] * f.normal[j]
    return tuple(tuple(row) for row in q)


def automorphisms(P):
    """All matrices in GL(n, Z) mapping the vertex set of P onto itself.

    The elements of _automorphism_search, sorted, then checked to be closed
    under composition at every group order, from a generating set grown out
    of the identity (see _check_group), which costs O(|G| |S|) products for
    |S| generators instead of |G|^2.
    """
    found = sorted(_automorphism_search(P))
    _check_group(found, P.dim)
    return found


def _automorphism_search(P):
    """Yield each lattice automorphism of P once, each one checked.

    Backtracking over images of a linearly independent vertex base, pruned by
    Gram values of the invariant form.  The matrix sending the base to its
    images is read off in integers: images times the adjugate of the base
    must be divisible by the base determinant.  It is yielded only when it
    is integral, has determinant +-1 and maps the vertex set onto itself.
    At every depth the base vertex itself is tried last as its image, so the
    search leaves the coset of the identity first.
    """
    _check_origin_interior(P)
    n = P.dim
    verts = list(P.vertices)
    q = _gram_form(P)

    base = [verts[i] for i in independent_rows(verts)]
    if len(base) != n:
        raise AssertionError("vertices of a full-dimensional 0-interior polytope span")

    # columns of the base matrix are the base vertices
    base_mat = [list(col) for col in zip(*base)]
    base_det = det_int(base_mat)
    base_adj = adjugate(base_mat)
    # Q v once per vertex; the Gram value of (a, b) is <a, Q b>
    qv = {v: matvec(q, v) for v in verts}
    grams = [[dot(base[i], qv[base[j]]) for j in range(i + 1)] for i in range(n)]
    candidates = [[w for w in verts if w != b] + [b] for b in base]
    vert_set = set(verts)

    def extend(images):
        depth = len(images)
        if depth == n:
            # g * base = images, so g * det(base) = images * adj(base)
            scaled = matmul(list(zip(*images)), base_adj)
            if any(x % base_det for row in scaled for x in row):
                return
            g = tuple(tuple(x // base_det for x in row) for row in scaled)
            if abs(det_int(g)) != 1:
                return
            if {matvec(g, v) for v in verts} != vert_set:
                return
            yield g
            return
        target = grams[depth]
        for w in candidates[depth]:
            qw = qv[w]
            if dot(w, qw) == target[depth] and all(
                dot(images[j], qw) == target[j] for j in range(depth)
            ):
                yield from extend(images + [w])

    yield from extend([])


def _check_group(elements, n):
    """Raise AssertionError unless the matrices form a group under products.

    The identity starts the reached set; every element not yet reached
    becomes a new generator, and the reached set is closed under right
    multiplication by the generators, each product checked to be an
    element.  Every element meets every generator once.  In the end every
    element is reached, so the set is the group <S> its generators make:
    a finite set of invertible matrices closed under products.
    """
    group = set(elements)
    identity = identity_matrix(n)
    if identity not in group:
        raise AssertionError("automorphism set lacks the identity")
    reached = {identity}
    gens = []
    for g in elements:
        if g in reached:
            continue
        gens.append(g)
        # (element, generators it has yet to meet): the elements reached so
        # far have met the earlier generators, new ones meet all of them
        todo = [(x, (g,)) for x in reached]
        while todo:
            x, pending = todo.pop()
            for s in pending:
                y = matmul(x, s)
                if y not in group:
                    raise AssertionError("automorphism set not closed")
                if y not in reached:
                    reached.add(y)
                    todo.append((y, gens))


def automorphism_generators(P):
    """A generating set of (a subgroup of) the automorphism group.

    Constructor provenance gives generators without a search: products act
    factorwise, a double cone adds the apex swap, and duals act by inverse
    transpose.  Fresh polytopes fall back to the full search.
    """
    prov = P._provenance
    n = P.dim
    if prov is None:
        return automorphisms(P)
    kind, parts = prov
    if kind == "product":
        A, B = parts
        gens = []
        for g in automorphism_generators(A):
            gens.append(_block_diag(g, identity_matrix(B.dim)))
        for g in automorphism_generators(B):
            gens.append(_block_diag(identity_matrix(A.dim), g))
        return gens
    if kind == "double_cone":
        (A,) = parts
        gens = [_block_diag(g, ((1,),)) for g in automorphism_generators(A)]
        flip = _block_diag(identity_matrix(A.dim), ((-1,),))
        gens.append(flip)
        return gens
    if kind == "dual":
        (A,) = parts
        gens = []
        for g in automorphism_generators(A):
            # g^-1 = det(g) adj(g) for det(g) = +-1; transposed
            d = det_int(g)
            adj = adjugate(g)
            gens.append(tuple(tuple(d * adj[j][i] for j in range(n)) for i in range(n)))
        return gens
    return automorphisms(P)


def _block_diag(a, b):
    na, nb = len(a), len(b)
    out = []
    for i in range(na):
        out.append(tuple(a[i]) + (0,) * nb)
    for i in range(nb):
        out.append((0,) * na + tuple(b[i]))
    return tuple(out)


def orbits(points, generators):
    """Partition of a point set into orbits under the generated group."""
    point_set = set(points)
    seen = {}
    result = []
    for p in sorted(point_set):
        if p in seen:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = matvec(g, x)
                if y in point_set and y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            seen[x] = len(result)
        result.append(tuple(sorted(orbit)))
    return result


def is_symmetric(P):
    """True iff the common fixed subspace of the automorphism group is {0}.

    That subspace is the kernel of the stacked rows of g - I over the group,
    so P is symmetric iff those rows have rank n.  A fresh polytope reads
    _automorphism_search and keeps the independent rows of each g - I as it
    comes; it returns True at rank n.  That is sound before the group is
    complete: every element is a checked automorphism, and the fixed space
    of a subset contains the fixed space of the whole group.  When the
    search runs out below rank n, the elements found are the whole group;
    they are closure-checked like automorphisms' result, and the answer is
    False.

    A derived polytope answers for the subgroup automorphism_generators
    builds from its factors' groups; the rank over those generators is n
    iff every factor is symmetric:
    - a product acts factorwise, so its g - I rows are block diagonal and
      their rank is the sum of the factors' ranks;
    - a double cone adds the apex flip diag(I, -1), whose g - I rows add
      rank 1 to the base's, in the new coordinate alone;
    - a dual acts by g^-T.  For a finite group G, dim Fix(G) is the average
      of tr(g) over G; tr(g^-T) = tr(g^-1), and g -> g^-1 permutes G, so
      dim Fix(<S>^-T) = dim Fix(<S>).
    """
    _check_origin_interior(P)
    if P._provenance is not None:
        _, factors = P._provenance
        return all(is_symmetric(F) for F in factors)
    n = P.dim
    found = []
    rows = []
    for g in _automorphism_search(P):
        found.append(g)
        rows.extend(tuple(g[i][j] - int(i == j) for j in range(n)) for i in range(n))
        rows = [rows[i] for i in independent_rows(rows)]
        if len(rows) == n:
            return True
    found.sort()
    _check_group(found, n)
    return False


def fo_invariant(P, a, k):
    """Discrete-minus-continuous average of the affine function a.

    The sum runs over p in (1/k)(kP n Z^n), i.e. (a . moment/k + a0 chi)/chi,
    and the integral term reduces to a at the centroid.
    """
    chi = count(P, k)
    mom = moment_sum(P, k)
    lin = [Fraction(c) for c in a.linear]
    discrete = (
        sum(c * Fraction(m, k) for c, m in zip(lin, mom)) / chi + Fraction(a.constant)
    )
    cont = sum(c * x for c, x in zip(lin, centroid(P))) + Fraction(a.constant)
    return discrete - cont


@dataclass(frozen=True)
class WeakSymmetryCertificate:
    """Record of the polynomial identity moment_i(k) = k * centroid_i * chi(k).

    Both sides have degree at most n+1 in k, so agreement at k = 1..n+3
    (plus the trivial k = 0) forces the identity for every k; the stored
    moment and counting polynomials let callers revalidate out of sample.
    """

    dim: int
    checked_ks: tuple
    centroid: tuple
    moment_polys: tuple  # per-coordinate coefficients of moment_sum(P, .)
    count_poly: tuple  # coefficients of chi(kP) sampled through degree n

    def validate_at(self, k):
        chi = evaluate_polynomial(self.count_poly, k)
        for i in range(self.dim):
            mom = evaluate_polynomial(self.moment_polys[i], k)
            if mom != k * self.centroid[i] * chi:
                return False
        return True


@dataclass(frozen=True)
class FOWitness:
    """A nonvanishing FO value; being one nonzero value of a polynomial of
    degree <= n+1, it certifies FO != 0 for all but finitely many k."""

    coordinate: int
    k: int
    value: Fraction

    def describe(self):
        return (
            f"FO(x_{self.coordinate + 1}, k={self.k}) = {self.value} != 0; the "
            "defect is polynomial in k, so it persists for all large k"
        )


def is_weakly_symmetric(P):
    """Certified test that FO_P(a, k) = 0 for every affine a and every k.

    Returns (True, WeakSymmetryCertificate) or (False, FOWitness).  Constant
    functionals vanish identically, so only the n coordinate functionals are
    checked; polynomiality in k upgrades finitely many checks to all k.
    """
    n = P.dim
    c = centroid(P)
    for k in range(1, n + 4):
        chi = count(P, k)
        mom = moment_sum(P, k)
        for i in range(n):
            if Fraction(mom[i]) != k * c[i] * chi:
                value = Fraction(mom[i], k) / chi - c[i]
                return False, FOWitness(coordinate=i, k=k, value=value)
    count_samples = [(k, count(P, k)) for k in range(n + 2)]
    count_poly = tuple(lagrange_interpolate(count_samples))
    mom_polys = tuple(tuple(p) for p in moment_polynomials(P))
    cert = WeakSymmetryCertificate(
        dim=n,
        checked_ks=tuple(range(1, n + 4)),
        centroid=tuple(c),
        moment_polys=mom_polys,
        count_poly=count_poly,
    )
    return True, cert
