from fractions import Fraction
from random import Random

from hypothesis import example, given, settings, strategies as st

from chowtool.geometry import Facet
from chowtool.linalg import (
    _gauss_jordan,
    adjugate,
    det_int,
    dot,
    matmul,
    matvec,
    vec_add,
    vec_sub,
    cross_normal,
    independent_rows,
    integer_root,
    invert_rational,
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
        inv = invert_rational(m)
        if det_int(m) == 0:
            assert inv is None
        else:
            assert matmul(inv, m) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_cross_normal_orthogonal():
    vectors = [(1, 2, 0), (0, 1, 1)]
    n = cross_normal(vectors)
    assert all(sum(a * b for a, b in zip(n, v)) == 0 for v in vectors)
    assert any(n)


def minor_normal(vectors):
    # the definition: (-1)^k times the minor without column k
    n = len(vectors) + 1
    return tuple(
        (-1) ** k * det_int([[v[j] for j in range(n) if j != k] for v in vectors])
        for k in range(n)
    )


def test_cross_normal_matches_minors():
    rng = Random(5)
    deficient = 0
    for n in range(2, 9):
        for trial in range(150):
            bound = rng.choice([1, 2, 9])
            vectors = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n - 1)]
            if n > 2 and trial % 3 == 1:
                # a combination of two other rows: rank n - 2
                i, j, l = rng.sample(range(n - 1), 3) if n > 3 else (0, 1, 1)
                vectors[i] = [2 * x - 3 * y for x, y in zip(vectors[j], vectors[l])]
            elif trial % 3 == 2:
                # a zero column or a zero row moves or removes the free column
                c = rng.randrange(n)
                for v in vectors:
                    v[c] = 0
                if trial % 2:
                    vectors[rng.randrange(n - 1)] = [0] * n
            want = minor_normal(vectors)
            deficient += not any(want)
            assert cross_normal(vectors) == want, vectors
    assert deficient > 100
    assert cross_normal([[0, 0, 1], [0, 0, 2]]) == (0, 0, 0)
    # free column 0, then free column 1, both without a row swap
    assert cross_normal([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == (1, 0, 0, 0)
    assert cross_normal([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == (0, -1, 0, 0)


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


def reference_independent_rows(rows):
    # the greedy loop independent_rows replaced: keep a row when it raises the rank
    kept = []
    for i, row in enumerate(rows):
        cand = [rows[j] for j in kept] + [row]
        if rank_rational(cand) == len(cand):
            kept.append(i)
    return kept


@st.composite
def _int_matrices(draw):
    """Int matrices up to 8x8: fresh, zero and repeated rows, and combinations of earlier rows."""
    ncols = draw(st.integers(0, 8))
    entry = draw(st.sampled_from([_INT, st.integers(-2, 2)]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=300, deadline=None)
@given(_int_matrices())
@example([])
@example([[0, 0], [1, 2], [2, 4], [0, 3], [5, 5]])
@example([[1, 2, 3], [2, 4, 6], [1, 0, 0], [3, 4, 6], [0, 1, 0]])
def test_independent_rows_matches_greedy_rank_loop(rows):
    want = reference_independent_rows(rows)
    assert independent_rows(rows) == want
    # a lazy iterable gives the same choice
    assert independent_rows(iter(rows)) == want


@st.composite
def _elimination_inputs(draw):
    """_int_matrices with some columns zeroed, so whole columns lack a pivot."""
    rows = draw(_int_matrices())
    ncols = len(rows[0]) if rows else 0
    zero = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    return [[0 if j in zero else x for j, x in enumerate(r)] for r in rows]


@settings(max_examples=300, deadline=None)
@given(_elimination_inputs())
@example([])
@example([[0, 1, 2], [0, 2, 4], [0, 1, 2], [0, 3, 5], [0, 0, 0]])
@example([[0, 2, 1], [3, 1, 0], [1, 1, 1]])
def test_gauss_jordan_contract(rows):
    a = [list(r) for r in rows]
    pivots, sign, d = _gauss_jordan(a)
    rank = len(pivots)
    assert rank == reference_rank(rows)
    assert len(a) == len(rows) and pivots == sorted(set(pivots))
    # the pivot block reads D times the identity, and the rows below it are zero
    for i, row in enumerate(a[:rank]):
        assert [row[c] for c in pivots] == [d if j == i else 0 for j in range(rank)]
    assert not any(any(row) for row in a[rank:])
    if rows and len(rows) == len(rows[0]) and rank == len(rows):
        assert sign * d == det_int(rows)


def reference_solve(matrix, rhs):
    # plain Fraction Gauss-Jordan elimination, the oracle for the fraction-free solver
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(a[i][n] for i in range(n))


@st.composite
def _systems(draw):
    """Square systems up to 8x8, int or rational, some of them singular."""
    n = draw(st.integers(0, 8))
    entry = draw(st.sampled_from([_INT, st.one_of(_INT, _NON_INTEGRAL)]))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        coeffs = draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        rows = draw(st.permutations(rows))
    return rows, draw(st.lists(entry, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(_systems())
@example(([], []))
@example(([[0, 0], [0, 0]], [1, 1]))
@example(([[0, 1], [1, 0]], [2, 3]))
@example(([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]], [Fraction(1, 5), 2]))
def test_solve_matches_fraction_gauss_jordan(system):
    matrix, rhs = system
    want = reference_solve(matrix, rhs)
    got = solve_rational(matrix, rhs)
    assert got == want
    if want is None:
        assert reference_rank(matrix) < len(matrix)
    else:
        assert all(isinstance(x, Fraction) for x in got)


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


# the generator forms the map-based vector kernels replaced, kept as their oracle
def reference_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def reference_matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _same(got, want):
    # equal values of equal types, entry by entry
    return got == want and [type(x) for x in got] == [type(x) for x in want]


@st.composite
def _kernel_operands(draw):
    """Two vectors of one length 0..8, an m x l and an l x p matrix (m, p in
    0..8, l in 1..8) and a vector of length l, all int or all mixing ints
    and Fractions."""
    entry = draw(st.sampled_from([_INT, st.one_of(_INT, _NON_INTEGRAL)]))

    def vector(n):
        return tuple(draw(st.lists(entry, min_size=n, max_size=n)))

    n = draw(st.integers(0, 8))
    m, l, p = draw(st.integers(0, 8)), draw(st.integers(1, 8)), draw(st.integers(0, 8))
    left = tuple(vector(l) for _ in range(m))
    right = tuple(vector(p) for _ in range(l))
    return vector(n), vector(n), left, right, vector(l)


@settings(max_examples=80, deadline=None)
@given(_kernel_operands())
@example(((), (), (), ((),), (0,)))
@example(((1, 2), (3, 4), ((1, 2, 3),), ((1,), (2,), (3,)), (1, 0, Fraction(1, 2))))
def test_vector_kernels_match_generator_forms(operands):
    a, b, left, right, v = operands
    assert _same((dot(a, b),), (reference_dot(a, b),))
    assert _same(vec_add(a, b), tuple(x + y for x, y in zip(a, b)))
    assert _same(vec_sub(a, b), tuple(x - y for x, y in zip(a, b)))
    assert _same(matvec(left, v), tuple(reference_dot(row, v) for row in left))
    got, want = matmul(left, right), reference_matmul(left, right)
    assert len(got) == len(want) and all(map(_same, got, want))
