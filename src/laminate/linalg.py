"""
Small exact linear algebra over the integers (Python ints, no floats).

Rank, determinant and pivot columns come from one fraction-free (Bareiss)
elimination and the adjugate from its Gauss-Jordan form, so every
division is exact and every intermediate entry an integer.
"""


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _bareiss(rows):
    """
    Fraction-free Gaussian elimination of an integer matrix given as a list
    of row sequences.  Returns the column of each pivot of the echelon form
    and the last pivot times the sign of the row swaps (1 when there is no
    pivot).  When every row holds a pivot, the latter is the minor of the
    rows on the pivot columns: for a square matrix, its determinant.
    """
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    prev = 1
    sign = 1
    r = 0
    for col in range(ncols):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        p = top[col]
        for i in range(r + 1, len(m)):
            row = m[i]
            a = row[col]
            # Sylvester's identity makes every division exact, also when
            # earlier columns were skipped for want of a pivot.
            for j in range(col + 1, ncols):
                row[j] = (p * row[j] - a * top[j]) // prev
            row[col] = 0
        prev = p
        pivots.append(col)
        r += 1
    return pivots, sign * prev


def pivot_columns(rows):
    """The pivot columns of the echelon form: len(rows) of them exactly when
    the rows are independent, and the minor on them is then nonzero."""
    return _bareiss(rows)[0]


def rank(rows):
    """Rank of an integer matrix given as a list of row sequences."""
    return len(_bareiss(rows)[0])


def det(rows):
    """Determinant of a square integer matrix, exact."""
    pivots, minor = _bareiss(rows)
    return minor if len(pivots) == len(rows) else 0


def adjugate(rows):
    """The adjugate of a nonsingular square integer matrix: fraction-free
    Gauss-Jordan elimination of [rows | I], a swap negating the row moved
    down, ends with det(rows) * I on the left and the adjugate right."""
    d = len(rows)
    m = [list(row) + [int(i == j) for j in range(d)]
         for i, row in enumerate(rows)]
    prev = 1
    for c in range(d):
        p = next(i for i in range(c, d) if m[i][c])
        if p != c:
            m[c], m[p] = m[p], [-x for x in m[c]]
        top = m[c]
        m = [row if row is top else [(top[c] * x - row[c] * y) // prev
                                     for x, y in zip(row, top)] for row in m]
        prev = top[c]
    return [row[d:] for row in m]
