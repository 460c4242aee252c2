"""Exact linear programming by the primal simplex method over the integers.

solve_lp keeps an integer dictionary (Edmonds, J. Res. NBS 71B, 1967;
Bareiss, Math. Comp. 22, 1968; the dictionary layout of Avis's lrs): one
row per basic variable, one column per nonbasic variable plus the
right-hand side, all entries ints over one common denominator, the last
pivot.  A pivot multiplies by the new pivot and divides exactly by the old
one, since every entry stays a minor of the scaled input, so no Fraction is
built until the optimum is read off.  Bland's rule picks the entering
variable (the least index with a negative reduced cost) and breaks ratio
ties by the least basic index; ratios are compared by cross-multiplying.

The input rows (ints or Fractions) are scaled to ints first, each row with
its right-hand side by the lcm L_i of their denominators, and the objective
by the lcm of its own.  That is the same LP with the slack of row i
rescaled to L_i s_i: basic solutions keep their structural values, the
duals become y_i / L_i, so every reduced cost keeps its sign, and each
ratio of the test is unchanged or, for an entering slack, scaled by the
same L_i in every row.  Bland's rule therefore makes the same pivots as on
a dense Fraction tableau of the unscaled LP, and the value and optimizer
are the same.
"""

from fractions import Fraction

from .errors import LPUnbounded
from .linalg import _int_rows


def solve_lp(objective, rows, rhs):
    """Maximize objective . x subject to rows x <= rhs and x >= 0.

    Requires rhs >= 0 (x = 0 is the starting basic solution, which the
    callers guarantee: the zero function is always feasible).  Returns
    (optimal value, optimizer tuple).
    """
    value, x, _ = _simplex(objective, rows, rhs)
    return value, x


def _simplex(objective, rows, rhs):
    """solve_lp's (value, x) and the number of pivots it made."""
    m, n = len(rows), len(objective)
    for b in rhs:
        if b < 0:
            raise ValueError("solve_lp needs rhs >= 0")
    # row i: the nonbasic columns, then the right-hand side; the reduced
    # costs sit in an extra last row, rescaled like every other row
    tab = _int_rows(list(r) + [b] for r, b in zip(rows, rhs))
    tab.append([-c for c in _int_rows([list(objective) + [0]])[0]])
    red = tab[m]
    nonbasic = list(range(n))
    basis = list(range(n, n + m))
    det = 1
    pivots = 0

    while True:
        enter = None
        for j, r in enumerate(red[:n]):
            if r < 0 and (enter is None or nonbasic[j] < nonbasic[enter]):
                enter = j
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / a < rhs_leave / a_leave, by cross-multiplying
                here = tab[i][n] * tab[leave][enter]
                best = tab[leave][n] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise LPUnbounded("unbounded direction found")
        prow = tab[leave]
        p = prow[enter]
        for i, row in enumerate(tab):
            if i == leave:
                continue
            f = row[enter]
            if f:
                new = [(x * p - f * y) // det for x, y in zip(row, prow)]
            elif p == det:
                continue
            else:
                new = [x * p // det for x in row]
            new[enter] = -f
            tab[i] = new
        prow[enter] = det
        det = p
        red = tab[m]
        nonbasic[enter], basis[leave] = basis[leave], nonbasic[enter]
        pivots += 1

    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tab[i][n], det)
    value = sum(Fraction(c) * xi for c, xi in zip(objective, x))
    return value, tuple(x), pivots
