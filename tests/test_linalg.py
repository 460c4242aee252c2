from fractions import Fraction
from random import Random

from hypothesis import example, given, settings, strategies as st

from chowtool.geometry import Facet
from chowtool.linalg import (
    adjugate,
    det_int,
    matmul,
    cross_normal,
    integer_root,
    rank_rational,
    solve_rational,
    integer_kernel_basis,
    hermite_normal_form,
    same_row_span,
    primitive,
    simplex_relative_volume_times_factorial,
)


def brute_det(rows):
    # permutation expansion, the independent oracle for Bareiss
    from itertools import permutations

    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def test_det_matches_permanent_expansion():
    mats = [
        [[2, 1], [1, 2]],
        [[1, 2, 3], [0, 1, 4], [5, 6, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
        [[3, 0, 0, 1], [0, 2, 1, 0], [1, 1, 1, 1], [0, 0, 2, 5]],
    ]
    rng = Random(3)
    for n in range(1, 6):
        for _ in range(20):
            mats.append([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    for m in mats:
        assert det_int(m) == brute_det(m)
        n = len(m)
        adj = adjugate(m)
        assert matmul(adj, m) == matmul(m, adj) == tuple(
            tuple(det_int(m) * (i == j) for j in range(n)) for i in range(n)
        )


def test_cross_normal_orthogonal():
    vectors = [(1, 2, 0), (0, 1, 1)]
    n = cross_normal(vectors)
    assert all(sum(a * b for a, b in zip(n, v)) == 0 for v in vectors)
    assert any(n)


def test_rank_and_solve():
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([[1, 0], [0, 1]]) == 2
    sol = solve_rational([[2, 0], [0, 4]], [1, 1])
    assert sol == (Fraction(1, 2), Fraction(1, 4))
    assert solve_rational([[1, 1], [2, 2]], [1, 2]) is None


def test_integer_kernel_is_saturated_basis():
    m = [[1, 1, 1, 0], [0, 1, 2, 0]]
    basis = integer_kernel_basis(m)
    assert len(basis) == 2
    for u in basis:
        assert all(sum(r[i] * u[i] for i in range(4)) == 0 for r in m)
    # (1, -2, 1, 0) must be an integer combination of the basis
    target = [(1, -2, 1, 0), (0, 0, 0, 1)]
    assert same_row_span(basis, target)


def test_hnf_canonical():
    a = [[2, 4], [1, 3]]
    b = [[1, 3], [0, 2]]
    assert hermite_normal_form(a) == hermite_normal_form(b)
    assert not same_row_span([[2, 0]], [[1, 0]])


def test_primitive():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((0, 0)) == (0, 0)


def test_relative_simplex_volume():
    # unimodular triangle in a plane of 3-space
    assert simplex_relative_volume_times_factorial([(0, 0, 1), (1, 0, 1), (0, 1, 1)]) == 1
    # doubled segment
    assert simplex_relative_volume_times_factorial([(0, 0), (2, 0)]) == 2
    # full-dimensional: plain determinant
    assert simplex_relative_volume_times_factorial([(0, 0), (2, 0), (0, 3)]) == 6


def reference_rank(rows):
    # plain Fraction Gauss-Jordan elimination, the independent oracle for Bareiss
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


_INT = st.integers(-30, 30)
_NON_INTEGRAL = st.builds(
    lambda num, den: Fraction(num * den + 1, den), st.integers(-9, 9), st.integers(2, 9)
)


@st.composite
def _matrices(draw):
    """Up to 8x8, int or rational; rows are fresh, zero, or combinations of earlier rows."""
    ncols = draw(st.integers(0, 8))
    entry = draw(st.sampled_from([_INT, st.one_of(_INT, _NON_INTEGRAL)]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return draw(st.permutations(rows)) if rows else rows


@settings(max_examples=300, deadline=None)
@given(_matrices())
@example([])
@example([[0, 0], [0, 0]])
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
def test_rank_matches_fraction_gauss_jordan(rows):
    assert rank_rational(rows) == reference_rank(rows)


def test_rank_skips_pivotless_columns():
    # column 0 is zero and column 2 repeats column 1 up to a rational factor
    rows = [[0, 2, 1, 5], [0, 4, 2, 1], [0, Fraction(1, 3), Fraction(1, 6), 7]]
    assert rank_rational(rows) == reference_rank(rows) == 2


def test_integer_root_beyond_float_range():
    m, d = 10**120, 3
    assert integer_root(m**d, d) == m
    assert integer_root(m**d + 1, d) is None
    assert integer_root(m**d - 1, d) is None


def test_integer_root_small_values():
    for d in range(1, 6):
        powers = {m**d: m for m in range(3000)}
        for x in range(3000):
            assert integer_root(x, d) == powers.get(x)


def test_dilated_simplex_facet_beyond_float_range():
    from chowtool.triangulation import _facet_as_dilated_simplex

    # the facet x + y + z = m of m * (standard simplex): edge determinant m**2
    m = 10**200
    facet = Facet(normal=(-1, -1, -1), offset=m, vertices=((0, 0, m), (0, m, 0), (m, 0, 0)))
    got_m, small = _facet_as_dilated_simplex(facet)
    assert got_m == m
    assert small == ((0, 0, m), (0, 1, m - 1), (1, 0, m - 1))
    # m**2 + 1 lattice volume: not a dilated unimodular simplex
    facet = Facet(normal=(-1, -1, -1), offset=m, vertices=((0, 0, m), (0, m, 0), (m + 1, 0, -1)))
    assert _facet_as_dilated_simplex(facet) is None
