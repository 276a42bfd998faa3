"""Integer elimination: rank, determinant and span membership against sympy."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import in_span, mat_det

from veertrack._exact import rank

sympy = pytest.importorskip("sympy")

ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))


@st.composite
def integer_matrices(draw, square=False):
    """Integer matrices up to 6 x 6, often with zero rows, duplicate rows
    or rows that are integer combinations of earlier ones."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 6))
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(1, nrows):
        kind = draw(st.sampled_from(["free", "free", "zero", "duplicate", "combination"]))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "duplicate":
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
        elif kind == "combination":
            a, b = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    perm = draw(st.permutations(range(nrows)))
    return [rows[i] for i in perm], ncols


def _sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [x for row in rows for x in row])


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_matches_sympy(matrix):
    rows, ncols = matrix
    assert rank(rows) == _sympy(rows, ncols).rank()


@given(integer_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_det_matches_sympy(matrix):
    rows, n = matrix
    det = mat_det(rows)
    assert type(det) is int
    assert det == _sympy(rows, n).det()


@st.composite
def span_cases(draw):
    """Integer vectors and a rational target, half the time inside their
    span by construction."""
    rows, ncols = draw(integer_matrices())
    fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    if rows and draw(st.booleans()):
        coeffs = [draw(fractions) for _ in rows]
        target = [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(ncols)]
    else:
        target = [draw(fractions) for _ in range(ncols)]
    return rows, ncols, target


@given(span_cases())
@settings(max_examples=200, deadline=None)
def test_in_span_matches_sympy(case):
    rows, ncols, target = case
    if not any(target):
        expected = True
    elif not rows:
        expected = False
    else:
        # solve (rows^T) c = target; sympy raises when there is no solution
        rhs = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in target])
        try:
            _sympy(rows, ncols).T.gauss_jordan_solve(rhs)
            expected = True
        except ValueError:
            expected = False
    assert in_span(rows, target) is expected


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([], 1),
        ([[0]], 0),
        ([[0, 1], [1, 0]], -1),
        ([[2, 3], [4, 6]], 0),
        ([[0, 0, 1], [0, 1, -1], [1, -1, 2]], -1),
    ],
)
def test_small_determinants(rows, expected):
    assert mat_det(rows) == expected


def test_span_of_integer_rows_holds_rational_targets():
    rows = [[1, -1, -1], [2, 0, 4]]
    assert in_span(rows, [Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2)])
    assert in_span(rows, [Fraction(5, 3), Fraction(-1, 3), Fraction(7, 3)])
    assert not in_span(rows, [Fraction(1, 2), 0, 0])
    assert in_span([], [0, 0]) and not in_span([], [Fraction(1, 7), 0])
