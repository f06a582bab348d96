"""Exact rational and integer linear algebra."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm

from omegalab.linalg import (
    in_row_space,
    integer_kernel_basis,
    integer_lattice_coordinates,
    kernel_basis,
    rank,
    rref,
    smith_normal_form,
    snf_divisors,
    solve,
)

from helpers import reference_kernel, reference_rref, reference_solve


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    reduced, pivots = rref(rows, 3)
    assert pivots == [0, 1]
    assert rank(rows) == 2


def test_kernel_basis_orthogonal_to_rows():
    rows = [[1, 2, 3, 0], [0, 1, 1, 2]]
    basis = kernel_basis(rows, 4)
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


def test_solve_consistent_and_inconsistent():
    rows = [[1, 1], [1, -1]]
    sol = solve(rows, [3, 1])
    assert sol == [2, 1]
    assert solve([[1, 1], [2, 2]], [1, 3]) is None


def test_snf_identity():
    d, u, v = smith_normal_form([[1, 0], [0, 1]])
    assert snf_divisors([[1, 0], [0, 1]]) == [1, 1]


def test_snf_diagonal_divisor_chain():
    assert snf_divisors([[2, 0], [0, 3]]) == [1, 6]


def test_snf_zero_matrix():
    assert snf_divisors([[0, 0], [0, 0]]) == []


def test_snf_transform_identity_random():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        d, u, v = smith_normal_form(mat)
        # U M V == D and the divisor chain divides
        prod = [
            [sum(u[i][a] * mat[a][b] for a in range(m)) for b in range(n)]
            for i in range(m)
        ]
        prod = [
            [sum(prod[i][b] * v[b][j] for b in range(n)) for j in range(n)]
            for i in range(m)
        ]
        assert prod == d
        divisors = snf_divisors(mat)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        # unimodularity via rational rank and integer inverse existence
        assert rank(u) == m and rank(v) == n


# SHA-256 of the JSON of every (D, U, V) on _snf_corpus(): U and V are not
# unique, so this pins the pivot rule (least |x|, first in row-major order),
# the sign fix and the divisibility fold that integer kernels are built on.
SNF_DIGEST = "359a2f566d61a546c8d4164c0ed665b768cbd96fe337ff04866a22deddcbb246"


def _snf_corpus():
    rng = random.Random(18)
    for _ in range(300):
        m, n = rng.randint(0, 5), rng.randint(1, 6)
        yield [
            [rng.randint(-7, 7) if rng.random() > 0.3 else 0 for _ in range(n)] for _ in range(m)
        ]


def test_smith_normal_form_pinned_digest():
    triples = [smith_normal_form(mat) for mat in _snf_corpus()]
    assert hashlib.sha256(json.dumps(triples).encode()).hexdigest() == SNF_DIGEST


def test_integer_kernel_is_saturated():
    # kernel of [2 4] over Z should contain (2, -1), not only (4, -2)
    basis = integer_kernel_basis([[2, 4]], 2)
    assert len(basis) == 1
    vec = basis[0]
    assert 2 * vec[0] + 4 * vec[1] == 0
    from math import gcd

    assert gcd(abs(vec[0]), abs(vec[1])) == 1


def test_integer_lattice_coordinates():
    basis = [(1, -1, 0), (0, 1, -1)]
    assert integer_lattice_coordinates(basis, (1, 0, -1)) == [1, 1]
    assert integer_lattice_coordinates(basis, (1, 1, 1)) is None


# -- the integer kernel against a Fraction Gauss-Jordan reference ------------------


def _entry(rng, kind):
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "sparse":
        return rng.choice((0, 0, 0, 1, -1, 2))
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def _matrix(rng, m, n, kind):
    rows = [[_entry(rng, kind) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.5:  # a dependent row
        a, b = rng.sample(range(m), 2)
        c = rng.randint(-2, 2)
        rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
    if m and rng.random() < 0.2:
        rows[rng.randrange(m)] = [0] * n
    return rows


def _primitive(vec):
    """The primitive integer vector with the direction of a rational vector."""
    scale = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def _reference_lattice_coordinates(basis, vector):
    sol = reference_solve([[b[i] for b in basis] for i in range(len(vector))], vector)
    if sol is None or any(c.denominator != 1 for c in sol):
        return None
    return [int(c) for c in sol]


def test_elimination_matches_fraction_reference():
    rng = random.Random(5)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(400)]
    for m, n in shapes:
        kind = rng.choice(("int", "sparse", "rational"))
        rows = _matrix(rng, m, n, kind)
        reduced, pivots = reference_rref(rows, n)
        assert rref(rows, n) == ([_primitive(row) for row in reduced], pivots)
        assert rank(rows) == len(pivots)
        assert kernel_basis(rows, n) == [_primitive(vec) for vec in reference_kernel(rows, n)]

        x = [_entry(rng, kind) for _ in range(n)]
        consistent = [sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows]
        for rhs in (consistent, [_entry(rng, kind) for _ in range(m)]):
            assert solve(rows, rhs) == reference_solve(rows, rhs)

        combination = [rng.randint(-2, 2) for _ in rows]
        inside = [sum(Fraction(c) * row[j] for c, row in zip(combination, rows)) for j in range(n)]
        for vec in (inside, [_entry(rng, kind) for _ in range(n)]):
            expected = len(reference_rref(rows + [vec], n)[1]) == len(pivots)
            assert in_row_space(rows, vec) == expected
        assert in_row_space(rows, inside)


def test_lattice_coordinates_match_fraction_reference():
    rng = random.Random(6)
    seen_none = seen_coords = 0
    for _ in range(400):
        n, k = rng.randint(0, 5), rng.randint(0, 4)
        basis = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        coords = [rng.randint(-3, 3) for _ in range(k)]
        inside = tuple(sum(c * b[i] for c, b in zip(coords, basis)) for i in range(n))
        doubled = [tuple(2 * x for x in b) for b in basis]  # inside has half-integral coordinates
        outside = tuple(rng.randint(-3, 3) for _ in range(n))
        for lattice, vector in ((basis, inside), (doubled, inside), (basis, outside)):
            got = integer_lattice_coordinates(lattice, vector)
            assert got == _reference_lattice_coordinates(lattice, vector)
            if got is None:
                seen_none += 1
            else:
                seen_coords += 1
                assert [sum(c * b[i] for c, b in zip(got, lattice)) for i in range(n)] == list(vector)
    assert seen_none > 100 and seen_coords > 100
    assert integer_lattice_coordinates([(2, 0), (0, 2)], (1, 0)) is None
    assert integer_lattice_coordinates([(1, 0, 0)], (0, 1, 0)) is None


def test_empty_and_inconsistent_systems():
    assert rref([]) == ([], []) and rank([]) == 0
    assert rank([[], []]) == 0 and kernel_basis([[], []], 0) == []
    assert kernel_basis([], 2) == [(1, 0), (0, 1)]
    assert rref([[0, 0], [2, -4]]) == ([(1, -2)], [0])
    assert kernel_basis([[0, 0, 2, -4]], 4) == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 1)]
    assert solve([], []) == [] and solve([], [1]) is None
    assert solve([[], []], [0, 1]) is None
    assert solve([[0, 0]], [0]) == [0, 0]
