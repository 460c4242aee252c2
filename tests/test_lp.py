from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowtool.errors import LPUnbounded
from chowtool.lp import _simplex, solve_lp


def fraction_tableau(objective, rows, rhs):
    """The dense Fraction tableau with Bland's rule, kept as the oracle:
    (value, x, pivots)."""
    m, n = len(rows), len(objective)
    tab = [
        [Fraction(rows[i][j]) for j in range(n)]
        + [Fraction(int(kk == i)) for kk in range(m)]
        + [Fraction(rhs[i])]
        for i in range(m)
    ]
    red = [-Fraction(c) for c in objective] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    pivots = 0
    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise LPUnbounded("unbounded direction found")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = red[enter]
        if f != 0:
            red = [x - f * y for x, y in zip(red, tab[leave])]
        basis[leave] = enter
        pivots += 1
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][-1]
    value = sum(Fraction(c) * xi for c, xi in zip(objective, x))
    return value, tuple(x), pivots


def _outcome(solver, objective, rows, rhs):
    try:
        return solver(objective, rows, rhs)
    except LPUnbounded:
        return "unbounded"


entries = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))


@st.composite
def lps(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 8))
    # mostly positive costs, so that most draws pivot several times
    gains = st.one_of(st.integers(-1, 4), st.builds(Fraction, st.integers(-3, 12), st.integers(1, 6)))
    objective = draw(st.lists(gains, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(
        st.lists(
            st.one_of(st.integers(0, 5), st.builds(Fraction, st.integers(0, 12), st.integers(1, 5))),
            min_size=m,
            max_size=m,
        )
    )
    # a box row on every variable bounds most draws; some stay unbounded
    if draw(st.booleans()):
        for j in range(n):
            rows.append([int(i == j) for i in range(n)])
            rhs.append(draw(st.integers(0, 3)))
    return objective, rows, rhs


@settings(max_examples=300, deadline=None)
@given(lps())
def test_integer_pivoting_matches_fraction_tableau(lp):
    objective, rows, rhs = lp
    assert _outcome(_simplex, *lp) == _outcome(fraction_tableau, *lp)


def test_degenerate_ties_take_the_same_pivots():
    # every ratio ties at 0 from the first pivot on, so Bland's tie rule decides
    objective = [Fraction(1), Fraction(1, 2), Fraction(-1, 3)]
    rows = [
        [Fraction(1, 2), 1, 0],
        [1, Fraction(-1, 3), 1],
        [2, 2, Fraction(1, 7)],
        [1, 0, 0],
        [0, 1, 0],
    ]
    rhs = [0, 0, 0, 1, 1]
    got = _simplex(objective, rows, rhs)
    assert got == fraction_tableau(objective, rows, rhs)
    assert solve_lp(objective, rows, rhs) == got[:2]


def test_solve_lp_refuses_negative_rhs_and_reports_unbounded():
    with pytest.raises(ValueError):
        solve_lp([1], [[1]], [-1])
    with pytest.raises(LPUnbounded):
        solve_lp([1, 0], [[-1, 1]], [1])


def test_optimum_is_exact():
    # max x + y on x + 2y <= 3/2, 3x + y <= 2: the vertex (1/2, 1/2)
    value, x = solve_lp([1, 1], [[1, 2], [3, 1]], [Fraction(3, 2), 2])
    assert (value, x) == (Fraction(1), (Fraction(1, 2), Fraction(1, 2)))
    assert all(type(xi) is Fraction for xi in x)
