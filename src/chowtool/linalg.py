"""Exact integer and rational linear algebra.

Everything here works on plain Python ints and fractions.Fraction; sizes are
desk scale (n <= 8), so clarity wins over asymptotics.  The vector kernels
dot, vec_add, vec_sub, matvec and matmul are map-based, sum(map(mul, a, b))
and tuple(map(add, a, b)), so the per-entry loop runs at C level; they give
the same values and types as the generator forms.

Elimination is fraction-free (Bareiss), on rows scaled to ints by the lcm of
their denominators.  One Gauss-Jordan pass, _gauss_jordan, has four readers:
independent_rows takes the pivot columns of the transposed rows,
rank_rational counts them, solve_int reads D x off the last column of
[A | b], and cross_normal reads every maximal minor off the free column.
det_int keeps a forward-only loop, as clearing above the pivots too costs
about three times as much on the catalog's determinants.  The inverse is
the integer adjugate over the determinant.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add, mul, sub


def dot(a, b):
    return sum(map(mul, a, b))


def vec_sub(a, b):
    return tuple(map(sub, a, b))


def vec_add(a, b):
    return tuple(map(add, a, b))


def integer_root(x, d):
    """The int m >= 0 with m**d == x, or None when x is not a d-th power.

    Integer Newton iteration from above, so arbitrarily large x work (no
    float rounding); x must be a nonnegative int and d >= 1.
    """
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // d)  # 2**ceil(bits/d) exceeds the root
    while True:
        s = ((d - 1) * r + x // r ** (d - 1)) // d
        if s >= r:
            break
        r = s
    return r if r ** d == x else None


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def det_int(rows):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(rows):
    """Integer adjugate of a square integer matrix: adj(A) A = det(A) I.

    Entry (i, j) is (-1)^(i+j) times the minor of A without row j and
    column i.
    """
    n = len(rows)
    return tuple(
        tuple(
            (-1) ** (i + j)
            * det_int([r[:i] + r[i + 1 :] for m, r in enumerate(rows) if m != j])
            for j in range(n)
        )
        for i in range(n)
    )


def _gauss_jordan(a):
    """Fraction-free Gauss-Jordan elimination on a list of int lists, in place.

    Columns are taken left to right, one without a pivot is skipped, and the
    pass stops once every row holds one.  Returns (pivots, sign, D): the
    pivot columns, the sign of the row swaps and the last pivot (1 if none).
    Row i < len(pivots) then reads D in column pivots[i] and 0 in the other
    pivot columns, and every later row is zero.  Entries stay minors of the
    input, so each division by the previous pivot is exact; a square
    nonsingular input has determinant sign * D.
    """
    m = len(a)
    pivots = []
    sign = 1
    prev = 1
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        for i in range(r, m):
            if a[i][col]:
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            sign = -sign
        pivot_row = a[r]
        p = pivot_row[col]
        for i in range(m):
            row = a[i]
            f = row[col]
            # a row with 0 in the pivot column is only scaled by p / prev, a no-op when equal
            if i != r and (f or p != prev):
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
        pivots.append(col)
        if r + 1 == m:
            break
    return pivots, sign, prev


def cross_normal(vectors):
    """Integer normal to n-1 independent integer vectors in Z^n.

    Component k is (-1)^k times the minor obtained by deleting column k;
    the result is orthogonal to every input vector and is zero when the
    vectors are dependent.  With pivots in all columns but the free one f,
    the Gauss-Jordan pivot block reads D times the identity, where D is the
    minor without column f (up to the sign of the row swaps), and the free
    column holds the other components of the kernel vector scaled by D.
    """
    a = [list(v) for v in vectors]
    n = len(a) + 1
    pivots, sign, d = _gauss_jordan(a)
    if len(pivots) < n - 1:
        return (0,) * n
    (free,) = set(range(n)).difference(pivots)
    if free % 2:
        sign = -sign
    normal = [0] * n
    normal[free] = sign * d
    for row, col in zip(a, pivots):
        normal[col] = -sign * row[free]
    return tuple(normal)


def _int_rows(rows):
    """int/Fraction rows, each times the lcm of its denominators, as int lists."""
    out = []
    for r in rows:
        den = lcm(*(x.denominator for x in r))
        out.append([x.numerator * (den // x.denominator) for x in r])
    return out


def rank_rational(rows):
    """Rank of a matrix with int/Fraction entries."""
    return len(independent_rows(rows))


def independent_rows(rows):
    """Indices of the rows a greedy pass keeps, in input order.

    A row is kept when it is independent of the rows kept before it.  These
    are the pivot columns of the transposed matrix: a column gets a pivot
    exactly when it is independent of the columns before it.  The whole
    iterable is read (it may be lazy) before the one elimination pass runs.
    """
    a = [list(col) for col in zip(*_int_rows(rows))]
    return _gauss_jordan(a)[0]


def solve_int(matrix, rhs):
    """Solve A x = b exactly as (numerators, D) with x = numerators / D, or None.

    A must be square and nonsingular for a result; None signals singularity.
    Entries may be ints or Fractions: each row and its right-hand side are
    scaled to ints by the lcm of their denominators.  Gauss-Jordan on
    [A | b] then has its pivots in columns 0..n-1 exactly when A is
    nonsingular, and ends with the last pivot D equal to the determinant of
    the row-swapped system (of either sign) and the last column equal to
    D x, so no Fraction is built.
    """
    a = _int_rows(list(row) + [b] for row, b in zip(matrix, rhs))
    n = len(a)
    pivots, _, d = _gauss_jordan(a)
    if pivots != list(range(n)):
        return None
    return tuple(row[n] for row in a), d


def solve_rational(matrix, rhs):
    """Solve A x = b exactly; returns a tuple of Fractions or None.

    solve_int's solution, with one Fraction per unknown.
    """
    sol = solve_int(matrix, rhs)
    if sol is None:
        return None
    num, den = sol
    return tuple(Fraction(x, den) for x in num)


def matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def matvec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def invert_rational(matrix):
    """Exact inverse of a square integer matrix, adj(A) / det(A); None if singular."""
    det = det_int(matrix)
    if det == 0:
        return None
    return tuple(tuple(Fraction(x, det) for x in row) for row in adjugate(matrix))


def integer_kernel_basis(rows):
    """Basis of the integer kernel {u : M u = 0} of an integer matrix.

    Column reduction by unimodular operations; the returned vectors form a
    lattice basis of the full integer kernel (saturated by construction).
    """
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    a = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op(j, k, q):
        # column_j -= q * column_k
        for i in range(m):
            a[i][j] -= q * a[i][k]
        for i in range(n):
            u[i][j] -= q * u[i][k]

    def col_swap(j, k):
        for i in range(m):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(n):
            u[i][j], u[i][k] = u[i][k], u[i][j]

    c0 = 0
    for row in range(m):
        if c0 == n:
            break
        while True:
            nz = [j for j in range(c0, n) if a[row][j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                if nz[0] != c0:
                    col_swap(nz[0], c0)
                c0 += 1
                break
            piv = min(nz, key=lambda j: abs(a[row][j]))
            for j in nz:
                if j != piv:
                    q = a[row][j] // a[row][piv]
                    if q != 0:
                        col_op(j, piv, q)
    kernel = []
    for j in range(c0, n):
        if all(a[i][j] == 0 for i in range(m)):
            kernel.append(tuple(u[i][j] for i in range(n)))
    return kernel


def hermite_normal_form(rows):
    """Row-style Hermite normal form over Z (canonical for row-span tests).

    Pivots are positive, entries above a pivot reduced into [0, pivot);
    zero rows dropped.
    """
    if not rows:
        return []
    a = [list(r) for r in rows if any(x != 0 for x in r)]
    if not a:
        return []
    ncols = len(a[0])
    r = 0
    for col in range(ncols):
        piv = None
        while True:
            nz = [i for i in range(r, len(a)) if a[i][col] != 0]
            if not nz:
                break
            if len(nz) == 1:
                piv = nz[0]
                break
            best = min(nz, key=lambda i: abs(a[i][col]))
            for i in nz:
                if i != best:
                    q = a[i][col] // a[best][col]
                    if q != 0:
                        a[i] = [x - q * y for x, y in zip(a[i], a[best])]
            a = [row for k, row in enumerate(a) if k < r or any(x != 0 for x in row)]
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][col] // a[r][col]
            if q != 0:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return [tuple(row) for row in a[:r]]


def same_row_span(rows_a, rows_b):
    """True iff two integer matrices generate the same row lattice over Z."""
    return hermite_normal_form(rows_a) == hermite_normal_form(rows_b)


def simplex_edge_matrix(vertices):
    """The edges of a simplex from its first vertex, as a tuple of int tuples.

    For a sorted vertex tuple the first vertex is the least one, and
    translation keeps lexicographic order, so translates share this matrix.
    """
    v0 = vertices[0]
    return tuple([tuple(map(sub, v, v0)) for v in vertices[1:]])


def edge_matrix_volume_times_factorial(edges):
    """d! times the relative volume of the lattice simplex with these d edges.

    Equals the product of the invariant factors of the edge matrix, i.e. the
    gcd of its maximal minors; value 1 means unimodular.
    """
    d = len(edges)
    if d == 0:
        return 1
    if d == len(edges[0]):
        return abs(det_int(edges))
    g = 0
    # a minor's determinant is that of its transpose, d columns of the edges
    for minor in combinations(zip(*edges), d):
        g = gcd(g, det_int(minor))
        if g == 1:
            return 1
    return g


def simplex_relative_volume_times_factorial(vertices):
    """d! times the relative volume of a lattice d-simplex (a vertex sequence)."""
    return edge_matrix_volume_times_factorial(simplex_edge_matrix(vertices))
