"""Exact linear algebra over the rationals and the integers.

Every elimination runs on one fraction-free (Bareiss) Gauss-Jordan kernel
over Python ints; rational rows are first scaled by the lcm of their
denominators, which changes neither the row space nor the reduced echelon
form.  RREF rows and kernel vectors come back as primitive integer vectors,
the rational ones up to a positive scale.  The saturated integer kernels of
toric ideals come from one reduction of [M; I] by unimodular column
operations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

IntRows = list[tuple[int, ...]]


def _int_row(row: Sequence) -> list[int]:
    """The row scaled by the lcm of its denominators, as ints."""
    if all(type(x) is int for x in row):
        return list(row)
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def _echelon(mat: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows, in place.

    Pivots are sought in the first `ncols` columns.  Returns the pivot rows,
    their pivot columns and the last pivot d.  The rows above each pivot are
    cleared as well as those below: every pivot entry ends equal to d and the
    pivot rows are d times the reduced row echelon form.
    """
    nrows = len(mat)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if mat[i][c]:
                break
        else:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        top = mat[r]
        p = top[c]
        for i in range(nrows):
            if i == r:
                continue
            row = mat[i]
            f = row[c]
            if f:
                mat[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                mat[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots, prev


def rref(rows: Sequence[Sequence], ncols: int | None = None) -> tuple[IntRows, list[int]]:
    """Reduced row echelon form: (nonzero rows, pivot column indices), each row
    scaled to a primitive integer vector with a positive pivot entry."""
    mat = [_int_row(row) for row in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    reduced, pivots, d = _echelon(mat, ncols)
    sign = 1 if d > 0 else -1
    return [primitive_vector([sign * x for x in row]) for row in reduced], pivots


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> IntRows:
    """Canonical basis of {v : M v = 0}, one vector per free column f of the
    RREF: 1 at f and -RREF[i][f] at pivot i, scaled to be primitive integer."""
    reduced, pivots, d = _echelon([_int_row(row) for row in rows], ncols)
    pivot_set = set(pivots)
    sign = 1 if d > 0 else -1
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        vec = [0] * ncols
        vec[f] = abs(d)
        for row, p in zip(reduced, pivots):
            vec[p] = -sign * row[f]
        basis.append(primitive_vector(vec))
    return basis


# -- integer routines -----------------------------------------------------------


def primitive_vector(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero vector unchanged)."""
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def integer_kernel_basis(matrix: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of the saturated lattice {v in Z^ncols : M v = 0}.

    One reduction of the stacked matrix [M; I] by unimodular column
    operations (Cohen, A Course in Computational Algebraic Number Theory,
    1993, sec. 2.4): row by row, Euclid's steps on the columns not yet holding
    a pivot leave one nonzero entry there, which becomes the next pivot.  The
    columns with no pivot are then zero on M, and their identity parts are a
    basis of the kernel lattice, as the column operations are unimodular.
    """
    m = len(matrix)
    cols = [[row[j] for row in matrix] + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    t = 0  # the columns before t hold the pivots
    for i in range(m):
        while live := [(abs(col[i]), j) for j, col in enumerate(cols[t:], t) if col[i]]:
            _, j = min(live)  # the least entry, the first of a tie
            cols[t], cols[j] = cols[j], cols[t]
            pivot = cols[t]
            for col in cols[t + 1 :]:
                if q := col[i] // pivot[i]:
                    col[:] = [x - q * y for x, y in zip(col, pivot)]
            if len(live) == 1:
                t += 1
                break
    return [tuple(col[m:]) for col in cols[t:]]
