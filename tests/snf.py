"""Smith normal form of an integer matrix, exact arithmetic only.

The tests' oracle for centers, lattice indices and invariant factors;
charvar itself reads those from closed forms.
"""

from __future__ import annotations


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form, each entry dividing the next.

    Returns min(rows, cols) nonnegative integers d_1 | d_2 | ... .  Only
    the diagonal is computed; transformation matrices are not tracked.
    """
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag = []
    top = 0
    while top < min(rows, cols):
        # find a nonzero pivot of minimal absolute value
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[top], row[j] = row[j], row[top]
        p = a[top][top]
        reduced = False
        for i in range(top + 1, rows):
            q = a[i][top] // p
            if q:
                for j in range(top, cols):
                    a[i][j] -= q * a[top][j]
            if a[i][top]:
                reduced = True
        for j in range(top + 1, cols):
            q = a[top][j] // p
            if q:
                for i in range(top, rows):
                    a[i][j] -= q * a[i][top]
            if a[top][j]:
                reduced = True
        if reduced:
            continue
        # pivot must divide every remaining entry for the divisibility chain
        offender = next(
            (
                (i, j)
                for i in range(top + 1, rows)
                for j in range(top + 1, cols)
                if a[i][j] % p
            ),
            None,
        )
        if offender is not None:
            i, _ = offender
            for j in range(top, cols):
                a[top][j] += a[i][j]
            continue
        diag.append(abs(p))
        top += 1
    diag.extend([0] * (min(rows, cols) - len(diag)))
    return diag
