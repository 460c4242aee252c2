"""Binomial defining equations of the toric variety spanned by the lattice
points of P.

Every integer relation sum c_i p_i = sum b_j p_j among the lattice points
(homogenized through the point 0) gives a binomial z^c = z^b z_0^a with
a balancing the degrees.  The emitted set is a kernel-lattice basis: it
cuts out the torus orbit closure birationally but is not certified to
generate the full toric ideal (no saturation / Markov basis computation),
which the rendered output states explicitly.
"""

from dataclasses import dataclass

from .errors import OriginMissing
from .geometry import lattice_points
from .linalg import integer_kernel_basis

KERNEL_BASIS_NOTE = (
    "kernel-basis generators -- cuts out the torus-closure birationally, "
    "not certified to generate the full toric ideal"
)


@dataclass(frozen=True)
class BinomialEquation:
    """z^lhs = z^rhs * z0^z0_power with disjoint supports and matching degrees."""

    lhs_exponents: tuple  # sorted (point index, exponent) pairs, indices >= 1
    rhs_exponents: tuple
    z0_power: int

    def degree(self):
        return sum(e for _, e in self.lhs_exponents)

    def as_vector(self, npoints):
        """Relation vector over indices 0..npoints-1 (lhs minus rhs side)."""
        vec = [0] * npoints
        vec[0] = -self.z0_power
        for i, e in self.lhs_exponents:
            vec[i] += e
        for i, e in self.rhs_exponents:
            vec[i] -= e
        return tuple(vec)

    def render(self):
        def side(pairs):
            terms = []
            for i, e in pairs:
                terms.append(f"z{i}" if e == 1 else f"z{i}^{e}")
            return "*".join(terms) if terms else "1"

        rhs = side(self.rhs_exponents)
        if self.z0_power:
            z0 = "z0" if self.z0_power == 1 else f"z0^{self.z0_power}"
            rhs = z0 if rhs == "1" else f"{rhs}*{z0}"
        return f"{side(self.lhs_exponents)} = {rhs}"


def ordered_points(P):
    """Lattice points of P with the origin first, the rest lexicographic.

    This is the z-index order used by every rendered equation.
    """
    pts = lattice_points(P, 1)
    origin = (0,) * P.dim
    if origin not in pts:
        raise OriginMissing("the polytope must contain the origin")
    return [origin] + [p for p in pts if p != origin]


def relation_basis(points):
    """Lattice basis of the integer relations among homogenized points.

    The matrix has one row per coordinate plus the all-ones row; a kernel
    vector u encodes sum u_i p_i = 0 with sum u_i = 0, so -u_0 is the
    z0 exponent balancing the two sides.  Basis vectors are size-reduced
    pairwise for small support.
    """
    pts = [tuple(p) for p in points]
    if not pts or any(pts[0]):
        raise OriginMissing("point 0 must be the origin")
    n = len(pts[0])
    rows = [[p[i] for p in pts] for i in range(n)]
    rows.append([1] * len(pts))
    basis = integer_kernel_basis(rows)
    return _size_reduce(basis)


def _size_reduce(basis):
    """A few rounds of pairwise reduction shrinking L1 norms."""

    def weight(v):
        return sum(abs(x) for x in v)

    vecs = [list(v) for v in basis]
    changed = True
    rounds = 0
    while changed and rounds < 8:
        changed = False
        rounds += 1
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                if i == j:
                    continue
                base = weight(vecs[i])
                for sign in (1, -1):
                    cand = [a + sign * b for a, b in zip(vecs[i], vecs[j])]
                    if weight(cand) < base:
                        vecs[i] = cand
                        base = weight(cand)
                        changed = True
    for v in vecs:
        for x in v:
            if x > 0:
                break
            if x < 0:
                v[:] = [-y for y in v]
                break
    vecs.sort()
    return [tuple(v) for v in vecs]


def binomial_equations(P):
    """One binomial per relation-basis vector, sign-split with z0 absorbing
    the degree surplus; returns (points, equations)."""
    pts = ordered_points(P)
    basis = relation_basis(pts)
    equations = []
    for u in basis:
        a = -u[0]
        if a < 0:
            u = tuple(-x for x in u)
            a = -u[0]
        lhs = tuple((i, x) for i, x in enumerate(u) if i >= 1 and x > 0)
        rhs = tuple((i, -x) for i, x in enumerate(u) if i >= 1 and x < 0)
        eq = BinomialEquation(lhs_exponents=lhs, rhs_exponents=rhs, z0_power=a)
        if eq.degree() != sum(e for _, e in rhs) + a:
            raise AssertionError("inhomogeneous relation")
        equations.append(eq)
    return pts, equations


def render_equations(P, name=None):
    """Human-readable block: indexed point list plus the equations."""
    pts, eqs = binomial_equations(P)
    lines = [f"# {KERNEL_BASIS_NOTE}"]
    label = name or P.name or "polytope"
    lines.append(f"# {label}: {len(pts)} lattice points, {len(eqs)} equations")
    for i, p in enumerate(pts):
        lines.append(f"z{i} <- {tuple(p)}")
    for eq in eqs:
        lines.append(eq.render())
    return "\n".join(lines)
