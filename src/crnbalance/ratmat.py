"""Exact linear algebra over the rationals.

Matrices are lists (or tuples) of rows; entries may be ints or
``fractions.Fraction``. Everything here is elementary Gauss/Bareiss
material, kept in-package so that ranks, kernels and determinants of
stoichiometric data are exact and deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Matrix = Sequence[Sequence[Fraction | int]]


def _rref(mat: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.

    Returns:
        (rows, pivot_columns). Pivoting always picks the first row with a
        nonzero entry, so the result is deterministic.
    """
    rows = [[Fraction(x) for x in row] for row in mat]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(mat: Matrix) -> int:
    return len(_rref(mat)[1])


def nullspace(mat: Matrix) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel, one vector per free column.

    The vector for free column f is determined by the reduced echelon
    form with entry 1 at f, then scaled by the lcm of its denominators;
    that makes its entries coprime. The sign is fixed so the first
    nonzero entry is positive. Free columns are visited in ascending order.
    """
    if not mat:
        return []
    ncols = len(mat[0])
    rows, pivots = _rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f]
        mult = lcm(*(x.denominator for x in vec))
        if next(x for x in vec if x != 0) < 0:
            mult = -mult
        basis.append(tuple(int(x * mult) for x in vec))
    return basis


def det(mat: Matrix) -> Fraction:
    """Exact determinant of a square rational matrix.

    Each row is scaled to integers first so the heavy lifting runs on
    integers (Bareiss), then the scaling is divided back out.
    """
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant needs a square matrix")
    scale = Fraction(1)
    a = []
    for row in mat:
        fr = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fr))
        scale *= mult
        a.append([int(f * mult) for f in fr])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1]) / scale


def matvec(a: Matrix, v: Sequence) -> list:
    """a v over each row's nonzero entries, summed from a zero of v's type so each
    entry has the full sum's type; a nonfinite v_j reaches only rows with a_ij != 0."""
    if a and len(a[0]) != len(v):
        raise ValueError(f"matrix is {len(a)}x{len(a[0])} but vector has {len(v)} entries")
    zero = sum(t() for t in {type(y) for y in v})
    return [sum((x * y for x, y in zip(row, v) if x), zero) for row in a]


def transpose(a: Matrix) -> list[list]:
    return [list(col) for col in zip(*a)]
