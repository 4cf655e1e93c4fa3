import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from laminate.linalg import adjugate, det, pivot_columns, rank

entries = st.integers(-4, 4)


@st.composite
def matrices(draw, square=False):
    """Small integer matrices, often with rows that are combinations of
    earlier rows."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows))
                         for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols,
                                      max_size=ncols)))
    return rows


# After the first pivot, column 1 is zero below it and is skipped; the
# later divisions by the pivot 2 still have to be exact.
SKIPPED_COLUMN = [[2, 4, 1, 3], [4, 8, 3, 1], [6, 12, 5, 7], [2, 4, 3, 5]]


@settings(derandomize=True, deadline=None)
@given(matrices())
@example(SKIPPED_COLUMN)
@example([[2, 4, 1], [3, 6, 1], [5, 10, 7]])
def test_rank_matches_sympy(rows):
    assert rank(rows) == sympy.Matrix(rows).rank()
    assert len(pivot_columns(rows)) == rank(rows)


@settings(derandomize=True, deadline=None)
@given(matrices(square=True))
@example(SKIPPED_COLUMN)
@example([[0, 3, 1], [2, 1, 5], [4, 0, 0]])
def test_det_matches_sympy(rows):
    assert det(rows) == sympy.Matrix(rows).det()


@settings(derandomize=True, deadline=None)
@given(matrices(square=True))
@example([[0, 3, 1], [2, 1, 5], [4, 0, 0]])
@example([[0, 1], [1, 0]])
def test_adjugate_matches_sympy(rows):
    assume(det(rows) != 0)
    assert adjugate(rows) == sympy.Matrix(rows).adjugate().tolist()


def test_pivot_columns_are_the_first_independent_columns():
    rows = [[0, 2, 4, 1], [0, 1, 2, 3]]
    assert pivot_columns(rows) == [1, 3]


@pytest.mark.parametrize("rows, expected", [([], 0), ([[0, 0]], 0)])
def test_rank_of_degenerate_matrices(rows, expected):
    assert rank(rows) == expected
