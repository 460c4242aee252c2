"""Lattice-point counting, Ehrhart interpolation, and coordinate moment sums.

Counts come from direct enumeration; the Ehrhart polynomial is recovered by
Lagrange interpolation through k = 0..n with the convention count(P, 0) = 1,
then cross-checked against the geometric leading coefficients and the count
at k = n + 1 before it is returned.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import CoefficientMismatch
from .geometry import lattice_points, volume, boundary_volume


def count(P, k):
    """chi(kP) = |kP n Z^n|; count(P, 0) is 1 by convention."""
    if k == 0:
        return 1
    return len(lattice_points(P, k))


def moment_sum(P, k):
    """Componentwise integer sum of all lattice points of kP."""
    if k == 0:
        return (0,) * P.dim
    acc = [0] * P.dim
    for v in lattice_points(P, k):
        for i, x in enumerate(v):
            acc[i] += x
    return tuple(acc)


def lagrange_interpolate(samples):
    """Coefficients c_0..c_d of the polynomial through the (k, value) samples."""
    d = len(samples) - 1
    coeffs = [Fraction(0)] * (d + 1)
    for i, (xi, yi) in enumerate(samples):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(samples):
            if j == i:
                continue
            denom *= Fraction(xi - xj)
            new = [Fraction(0)] * (len(basis) + 1)
            for p, c in enumerate(basis):
                new[p] -= c * xj
                new[p + 1] += c
            basis = new
        scale = Fraction(yi) / denom
        for p, c in enumerate(basis):
            coeffs[p] += scale * c
    return coeffs


def evaluate_polynomial(coeffs, k):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


@dataclass(frozen=True)
class EhrhartPolynomial:
    """chi(kP) as a polynomial c_0 + c_1 k + ... + c_n k^n with exact coefficients."""

    coefficients: tuple

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, k):
        return evaluate_polynomial(self.coefficients, k)

    def __str__(self):
        terms = []
        for p in range(self.degree, -1, -1):
            c = self.coefficients[p]
            if c == 0:
                continue
            if p == 0:
                terms.append(f"{c}")
            elif p == 1:
                terms.append(f"{c}*k")
            else:
                terms.append(f"{c}*k^{p}")
        return " + ".join(terms) if terms else "0"


def ehrhart_polynomial(P):
    """Interpolate chi(kP) through k = 0..n and verify all structural invariants.

    Raises CoefficientMismatch when the leading coefficient differs from
    volume(P), the subleading one from boundary_volume(P)/2, the constant
    one from 1, or the polynomial from count(P, n + 1); each signals an
    enumeration or hull bug upstream.
    """
    n = P.dim
    samples = [(k, count(P, k)) for k in range(n + 1)]
    coeffs = lagrange_interpolate(samples)
    poly = EhrhartPolynomial(coefficients=tuple(coeffs))
    if coeffs[n] != volume(P):
        raise CoefficientMismatch(
            f"leading coefficient {coeffs[n]} != volume {volume(P)}"
        )
    expected = boundary_volume(P) / 2
    if coeffs[n - 1] != expected:
        raise CoefficientMismatch(
            f"k^{n-1} coefficient {coeffs[n-1]} != boundary volume / 2 = {expected}"
        )
    if coeffs[0] != 1:
        raise CoefficientMismatch(f"constant coefficient {coeffs[0]} != 1")
    # k = 1..n are interpolation nodes, so only k = n + 1 can disagree
    if poly(n + 1) != count(P, n + 1):
        raise CoefficientMismatch(f"interpolation disagrees with count at k={n + 1}")
    return poly


def moment_polynomials(P):
    """Per-coordinate polynomials (degree n+1) through moment_sum(P, k), k = 0..n+1.

    Ehrhart theory for linear functionals makes each coordinate of the moment
    sum a polynomial of degree n+1 in k; callers cross-check out of sample.
    """
    n = P.dim
    samples = [moment_sum(P, k) for k in range(n + 2)]
    polys = []
    for i in range(n):
        polys.append(lagrange_interpolate([(k, samples[k][i]) for k in range(n + 2)]))
    return polys
