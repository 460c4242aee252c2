"""Exact integer and rational linear algebra.

Everything here works on plain Python ints and fractions.Fraction; sizes are
desk scale (n <= 8), so clarity wins over asymptotics.  The vector kernels
dot, vec_add, vec_sub, matvec and matmul are map-based, sum(map(mul, a, b))
and tuple(map(add, a, b)), so the per-entry loop runs at C level; they give
the same values and types as the generator forms.  Determinant, rank,
independent-row selection, solve and cross_normal are fraction-free
(elimination on ints): rank, row selection and solve scale each rational
row by the lcm of its denominators first; solve_int returns the solution as
ints over one denominator and solve_rational builds one Fraction per
unknown from it; cross_normal reads every maximal minor off one
Gauss-Jordan pass.  The inverse is the integer adjugate over the
determinant.
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


def cross_normal(vectors):
    """Integer normal to n-1 independent integer vectors in Z^n.

    Component k is (-1)^k times the minor obtained by deleting column k;
    the result is orthogonal to every input vector and is zero when the
    vectors are dependent.  One fraction-free Gauss-Jordan pass finds every
    minor at once: with pivots in all columns but the free one f, the pivot
    block reads D times the identity, where D is the minor without column f
    (up to the sign of the row swaps), and the free column holds the other
    components of the kernel vector scaled by D.
    """
    a = [list(v) for v in vectors]
    m = len(a)
    n = m + 1
    sign = 1
    prev = 1
    free = None
    pivots = []
    for col in range(n):
        r = len(pivots)
        for i in range(r, m):
            if a[i][col]:
                break
        else:
            if free is not None:
                return (0,) * n
            free = col
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            sign = -sign
        pivot_row = a[r]
        p = pivot_row[col]
        for i in range(m):
            if i != r:
                row = a[i]
                f = row[col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
        pivots.append(col)
    if free % 2:
        sign = -sign
    normal = [0] * n
    normal[free] = sign * prev
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
    """Rank of a matrix with int/Fraction entries (fraction-free Bareiss).

    After each step the entries below the pivot rows are minors of the input,
    so the division by the previous pivot is exact even when a column without
    a pivot is skipped.
    """
    a = _int_rows(rows)
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    full = min(nrows, ncols)
    rank = 0
    prev = 1
    for col in range(ncols):
        for i in range(rank, nrows):
            if a[i][col]:
                break
        else:
            continue
        a[rank], a[i] = a[i], a[rank]
        pivot_row = a[rank]
        p = pivot_row[col]
        tail = pivot_row[col:]
        for i in range(rank + 1, nrows):
            row = a[i]
            f = row[col]
            row[col:] = [(p * x - f * y) // prev for x, y in zip(row[col:], tail)]
        prev = p
        rank += 1
        if rank == full:
            break
    return rank


def independent_rows(rows):
    """Indices of the rows a greedy pass keeps, in input order.

    A row is kept when it is independent of the rows kept before it.  Each
    row is reduced in ints against the kept pivots (every pivot row is zero
    in the pivot columns before its own) and kept when a nonzero remains;
    the pass stops once the kept rows span the whole space, so rows may be
    a lazy iterable.
    """
    kept = []
    pivots = []  # (column, reduced row)
    for idx, row in enumerate(rows):
        (r,) = _int_rows([row])
        for col, p in pivots:
            if r[col]:
                r = [p[col] * x - r[col] * y for x, y in zip(r, p)]
        col = next((j for j, x in enumerate(r) if x), None)
        if col is None:
            continue
        g = gcd(*r)
        pivots.append((col, [x // g for x in r]))
        kept.append(idx)
        if len(kept) == len(r):
            break
    return kept


def solve_int(matrix, rhs):
    """Solve A x = b exactly as (numerators, D) with x = numerators / D, or None.

    A must be square and nonsingular for a result; None signals singularity.
    Entries may be ints or Fractions: each row and its right-hand side are
    scaled to ints by the lcm of their denominators.  Fraction-free
    Gauss-Jordan elimination then ends with the last pivot D equal to the
    determinant of the row-swapped system (of either sign) and the last
    column equal to D x, so no Fraction is built.
    """
    a = _int_rows(list(row) + [b] for row, b in zip(matrix, rhs))
    n = len(a)
    prev = 1
    for col in range(n):
        for i in range(col, n):
            if a[i][col]:
                break
        else:
            return None
        a[col], a[i] = a[i], a[col]
        pivot_row = a[col]
        p = pivot_row[col]
        tail = pivot_row[col + 1 :]
        # columns up to col are not read again: x is the last column over D
        for i in range(n):
            if i != col:
                row = a[i]
                f = row[col]
                row[col + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[col + 1 :], tail)]
        prev = p
    return tuple(row[n] for row in a), prev


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
