"""Exact linear algebra over the rationals and the integers.

Every elimination runs on one fraction-free (Bareiss) kernel over Python
ints; rational rows are first scaled by the lcm of their denominators, which
changes neither the row space nor the reduced echelon form.  RREF rows and
kernel vectors come back as primitive integer vectors, the rational ones up
to a positive scale; only `solve` returns Fractions, and lattice
coordinates are its integral answers.  The same kernel gives the
determinants of the lattice-smoothness test.  Smith normal form returns the
divisor matrix together with the unimodular transforms, read off one
augmented matrix, which integer kernels are built on.
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


def _echelon(
    mat: list[list[int]], ncols: int, reduced: bool
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    Pivots are sought in the first `ncols` columns.  Returns the pivot rows,
    their pivot columns and the last pivot d.  Without `reduced` the pivot
    rows are a row echelon form.  With `reduced` the rows above each pivot
    are cleared as well (fraction-free Gauss-Jordan): every pivot entry ends
    equal to d and the pivot rows are d times the reduced row echelon form.
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
        for i in range(0 if reduced else r + 1, nrows):
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
    reduced, pivots, d = _echelon(mat, ncols, True)
    sign = 1 if d > 0 else -1
    return [primitive_vector([sign * x for x in row]) for row in reduced], pivots


def rank(rows: Sequence[Sequence]) -> int:
    mat = [_int_row(row) for row in rows]
    return len(_echelon(mat, len(mat[0]) if mat else 0, False)[1])


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> IntRows:
    """Canonical basis of {v : M v = 0}, one vector per free column f of the
    RREF: 1 at f and -RREF[i][f] at pivot i, scaled to be primitive integer."""
    reduced, pivots, d = _echelon([_int_row(row) for row in rows], ncols, True)
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


def abs_det(rows: Sequence[Sequence[int]]) -> int:
    """|det M| of a square integer matrix: Bareiss's last pivot is +-det M."""
    reduced, _, d = _echelon([list(row) for row in rows], len(rows), False)
    return abs(d) if len(reduced) == len(rows) else 0


def in_row_space(rows: Sequence[Sequence], vector: Sequence) -> bool:
    """True iff `vector` is a rational combination of the rows."""
    base = [_int_row(row) for row in rows]
    return rank(base + [_int_row(vector)]) == rank(base)


def solve(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of M x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    rows = list(rows)
    if not rows:
        return [] if all(Fraction(b) == 0 for b in rhs) else None
    ncols = len(rows[0])
    mat = [_int_row([*row, b]) for row, b in zip(rows, rhs)]
    reduced, pivots, d = _echelon(mat, ncols + 1, True)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = Fraction(row[ncols], d)
    return x


# -- integer routines -----------------------------------------------------------


def primitive_vector(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero vector unchanged)."""
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: returns (D, U, V) with U @ M @ V = D.

    D is diagonal with nonnegative elementary divisors d_1 | d_2 | ...;
    U and V are unimodular.  Exact over the integers.  Each elementary
    operation runs once on W = [[M, I_m], [I_n, 0]]: row operations on the
    first m rows carry U beside M, column operations on the first n columns
    carry V below it.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    w = [[int(x) for x in row] + [int(i == j) for j in range(m)] for i, row in enumerate(matrix)]
    w += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]
    t = 0
    while t < min(m, n):
        # a nonzero pivot of least absolute value, the first in row-major order
        entries = [(abs(w[i][j]), i, j) for i in range(t, m) for j in range(t, n) if w[i][j]]
        if not entries:
            break
        _, i, j = min(entries)
        w[t], w[i] = w[i], w[t]
        for row in w:
            row[t], row[j] = row[j], row[t]
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
        p = w[t][t]
        dirty = False
        for i in range(t + 1, m):
            if q := w[i][t] // p:
                w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                dirty |= w[i][t] != 0
        for j in range(t + 1, n):
            if q := w[t][j] // p:
                for row in w:
                    row[j] -= q * row[t]
                dirty |= w[t][j] != 0
        if dirty:
            continue
        # the pivot must divide every remaining entry; otherwise fold one in and redo
        rest = range(t + 1, n)
        offender = next((i for i in range(t + 1, m) if any(w[i][j] % p for j in rest)), None)
        if offender is None:
            t += 1
        else:
            w[t] = [x + y for x, y in zip(w[t], w[offender])]
    return [row[:n] for row in w[:m]], [row[n:] for row in w[:m]], [row[:n] for row in w[m:]]


def snf_divisors(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero elementary divisors d_1 | d_2 | ... of an integer matrix."""
    d, _, _ = smith_normal_form(matrix)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return out


def integer_kernel_basis(matrix: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of the saturated lattice {v in Z^ncols : M v = 0}."""
    rows = [list(row) for row in matrix]
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    d, _, v = smith_normal_form(rows)
    r = sum(1 for i in range(min(len(d), ncols)) if d[i][i])
    basis = []
    for j in range(r, ncols):
        basis.append(tuple(v[i][j] for i in range(ncols)))
    return basis


def integer_lattice_coordinates(
    basis: Sequence[Sequence[int]], vector: Sequence[int]
) -> list[int] | None:
    """Express `vector` in the given integer lattice basis; None if impossible."""
    x = solve([[b[i] for b in basis] for i in range(len(vector))], vector)
    if x is None or any(c.denominator != 1 for c in x):
        return None
    return [int(c) for c in x]
