"""Inputs of the benchmark's workloads and the answers they are checked against.

Nothing in this module imports omegalab.  The polynomial texts are written
here, and every expected answer is derived here from first principles: the
staircase permutohedron of e(d,n), greedy vertices of a summed-truncation
polymatroid, the paper's worked examples, and exact Hessian determinants.  A
wrong answer from the program therefore cannot also be the expected one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class Fixture:
    name: str
    names: tuple[str, ...]  # variable order
    text: str  # "+"-joined terms with positive integer coefficients


# -- the paper's worked cubics --------------------------------------------------------

PLANE_CUBIC = Fixture(
    "plane",
    ("x1", "x2", "x3"),
    "x1^2*x2 + x1*x2^2 + x1^2*x3 + x1*x2*x3 + x2^2*x3",
)
SINGULAR_CUBIC = Fixture(
    "singular",
    ("w", "x", "y", "z"),
    "8*w*x^2 + 20*w*x*y + 8*w*y^2 + 42*w*x*z + 42*w*y*z + 49*w*z^2"
    " + x^3 + 11*x^2*y + 11*x*y^2 + y^3 + 15*x^2*z + 46*x*y*z + 15*y^2*z"
    " + 37*x*z^2 + 37*y*z^2 + 21*z^3",
)
SMOOTH_CUBIC = Fixture(
    "smooth",
    ("w", "x", "y", "z"),
    "x^3 + 11*x^2*y + 11*x*y^2 + y^3 + 15*x^2*z + 46*x*y*z + 15*y^2*z"
    " + 37*x*z^2 + 37*y*z^2 + 21*z^3"
    " + 29*w*x^2 + 90*w*x*y + 29*w*y^2 + 150*w*x*z + 150*w*y*z + 137*w*z^2",
)
CUBICS = (PLANE_CUBIC, SINGULAR_CUBIC, SMOOTH_CUBIC)

# The singular cubic's first-order centre meets the torus orbit of this face.
SINGULAR_WITNESS = frozenset({(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)})
# The smooth companion's toric polytope is this frustum.
FRUSTUM = frozenset(
    {(0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1)}
)


def elementary_symmetric(d: int, n: int) -> Fixture:
    names = tuple(f"x{i}" for i in range(1, n + 1))
    text = " + ".join("*".join(names[i] for i in c) for c in combinations(range(n), d))
    return Fixture(f"e({d},{n})", names, text)


def fixture(name: str) -> Fixture:
    for cubic in CUBICS:
        if cubic.name == name:
            return cubic
    d, n = (int(x) for x in name[2:-1].split(","))
    return elementary_symmetric(d, n)


def terms(f: Fixture) -> dict[Exponent, int]:
    """Exponent -> coefficient of the benchmark's own polynomial texts."""
    index = {v: i for i, v in enumerate(f.names)}
    out: dict[Exponent, int] = {}
    for term in f.text.split(" + "):
        coeff = 1
        exponent = [0] * len(f.names)
        for factor in term.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            var, _, power = factor.partition("^")
            exponent[index[var]] += int(power or 1)
        out[tuple(exponent)] = out.get(tuple(exponent), 0) + coeff
    return out


# -- expected answers ----------------------------------------------------------------


def staircase_vertices(d: int, n: int) -> frozenset[Exponent]:
    """The paper's generalized permutohedron for e(d,n)."""
    staircase = tuple(range(d - 1, 0, -1)) + (0,) * (n - d + 1)
    return frozenset(permutations(staircase))


def summed_truncation_vertices(support) -> frozenset[Exponent]:
    """Vertices of B(sum_{j<d} min(j, rho)) by the polymatroid greedy algorithm.

    rho(S) is the largest coordinate sum over S of a support point; the
    summed truncations are a polymatroid, and its greedy points over all
    orderings are exactly the vertices of its base polytope.
    """
    support = list(support)
    n, d = len(support[0]), sum(support[0])
    rho = [
        max(sum(p[i] for i in range(n) if mask >> i & 1) for p in support)
        for mask in range(1 << n)
    ]
    f = [sum(min(j, r) for j in range(d)) for r in rho]
    out = set()
    for order in permutations(range(n)):
        point = [0] * n
        mask = 0
        for i in order:
            point[i] = f[mask | 1 << i] - f[mask]
            mask |= 1 << i
        out.add(tuple(point))
    return frozenset(out)


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    a = [row[:] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def hessian_determinant(f: Fixture) -> Fraction:
    """Determinant of the (constant) Hessian of a quadric."""
    n = len(f.names)
    h = [[Fraction(0)] * n for _ in range(n)]
    for exponent, coeff in terms(f).items():
        live = [i for i, e in enumerate(exponent) for _ in range(e)]
        i, j = live
        h[i][j] += coeff
        h[j][i] += coeff
    return determinant(h)


# -- ladder ---------------------------------------------------------------------------

# (fixture, repeats).  Light and heavy fixtures alternate, so the light calls
# sample the whole pass rather than one stretch of it.  A light fixture is
# called `repeats` times in a row, about 0.3 s in all, and its time is the
# mean over those calls: a single call of a few milliseconds reads up to twice
# its time when the shared host is busy.  The counts are part of the workload
# and stay fixed, so that every run attempts the same calls.
LADDER = (
    ("plane", 12), ("e(5,6)", 1), ("e(2,2)", 80), ("e(2,9)", 3), ("e(4,6)", 1),
    ("singular", 5), ("e(3,7)", 1), ("e(2,3)", 40), ("e(3,6)", 1), ("smooth", 3),
    ("e(5,5)", 1), ("e(3,3)", 25), ("e(4,5)", 1), ("e(2,4)", 18), ("e(3,5)", 1),
    ("e(3,4)", 6), ("e(2,7)", 1), ("e(4,4)", 5), ("e(2,6)", 3), ("e(2,5)", 8),
)

# e(2,9) has more variables than the greedy vertex enumeration accepts.
GUARDED = frozenset({"e(2,9)"})


@dataclass(frozen=True)
class Expected:
    verdict: str
    vertices: frozenset[Exponent] | None
    disjoint: dict[int, str]  # order k -> "yes" | "no"
    witness: dict[int, frozenset[Exponent]]


def expected_certificate(name: str) -> Expected:
    f = fixture(name)
    if name == "singular":
        return Expected("criterion-fails", None, {1: "no", 2: "yes"}, {1: SINGULAR_WITNESS})
    if name == "smooth":
        return Expected("smooth-toric", FRUSTUM, {1: "yes", 2: "yes"}, {})
    if name == "plane":
        vertices = summed_truncation_vertices(list(terms(f)))
        return Expected("smooth-toric", vertices, {1: "yes", 2: "yes"}, {})
    d, n = (int(x) for x in name[2:-1].split(","))
    return Expected("smooth-toric", staircase_vertices(d, n), {k: "yes" for k in range(1, d)}, {})


# -- oracle ---------------------------------------------------------------------------

# (fixture, k, face-orbit repeats, toric-ideal repeats): every order k of
# e(d,n), n <= 5, and of the three cubics whose truncation polytope has at
# most 12 lattice points.  Listed here, so that the measured work does not
# follow the program's own cap on the toric-ideal size.  Heavy and light
# pairs alternate, and calls shorter than about 0.3 s repeat, as in LADDER.
ORACLE_PAIRS = (
    ("e(2,2)", 1, 150, 150), ("e(3,5)", 1, 2, 1), ("e(2,3)", 1, 80, 80),
    ("e(3,3)", 1, 120, 120), ("e(4,5)", 1, 2, 1), ("e(3,3)", 2, 120, 120),
    ("e(2,4)", 1, 40, 40), ("smooth", 1, 5, 1), ("e(3,4)", 1, 6, 6),
    ("e(3,4)", 2, 30, 30), ("e(4,5)", 2, 3, 1), ("e(4,4)", 1, 40, 40),
    ("e(4,4)", 2, 10, 10), ("singular", 1, 8, 1), ("e(4,4)", 3, 40, 40),
    ("e(2,5)", 1, 12, 12), ("e(5,5)", 2, 10, 1), ("e(3,5)", 2, 12, 12),
    ("e(4,5)", 3, 10, 10), ("e(5,5)", 3, 20, 1), ("e(5,5)", 1, 15, 15),
    ("e(5,5)", 4, 15, 15), ("plane", 1, 8, 8), ("plane", 2, 60, 60),
    ("singular", 2, 15, 15), ("smooth", 2, 15, 15),
)


# -- sweep ----------------------------------------------------------------------------

SWEEP_NVARS = range(3, 8)
QUADRICS_PER_NVARS = 48


def _random_rank2_polymatroid(rng: random.Random, n: int) -> list[int]:
    """min(2, sum of truncated weighted coverage functions) with full rank 2."""
    while True:
        values = [0] * (1 << n)
        for _ in range(rng.randint(1, 3)):
            cap = rng.randint(1, 2)
            weights = [rng.randint(0, 2) for _ in range(n)]
            for mask in range(1 << n):
                values[mask] += min(cap, sum(w for i, w in enumerate(weights) if mask >> i & 1))
        values = [min(2, v) for v in values]
        if values[-1] == 2:
            return values


def _degree2_base_points(values: list[int], n: int) -> list[Exponent]:
    """Points x = e_i + e_j with x(S) <= f(S) for every S and x(E) = f(E) = 2.

    x(S) depends only on the part of S in {i, j}, and f is monotone, so the
    sets {i}, {j} and {i, j} are the only constraints that can bind.
    """
    out = []
    for i in range(n):
        for j in range(i, n):
            if i == j:
                fits = values[1 << i] >= 2
            else:
                fits = values[1 << i] >= 1 and values[1 << j] >= 1 and values[1 << i | 1 << j] >= 2
            if fits:
                out.append(tuple((t == i) + (t == j) for t in range(n)))
    return out


def random_quadric(rng: random.Random, n: int, label: str) -> Fixture:
    """Coefficients 1..9 on the degree-2 points of a random rank-2 polymatroid."""
    while True:
        support = _degree2_base_points(_random_rank2_polymatroid(rng, n), n)
        if all(any(p[i] for p in support) for i in range(n)):
            break
    names = tuple(f"x{i}" for i in range(1, n + 1))
    text = " + ".join(
        f"{rng.randint(1, 9)}*"
        + "*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(p) if e)
        for p in support
    )
    return Fixture(label, names, text)


def sweep_quadrics(seed: int) -> list[Fixture]:
    """The same number of quadrics for every n, the values of n interleaved."""
    rng = random.Random(seed)
    drawn = {
        n: [random_quadric(rng, n, f"q{n}.{i}") for i in range(QUADRICS_PER_NVARS)]
        for n in SWEEP_NVARS
    }
    return [drawn[n][i] for i in range(QUADRICS_PER_NVARS) for n in SWEEP_NVARS]


def unit_vectors(n: int) -> frozenset[Exponent]:
    return frozenset(tuple(int(i == j) for j in range(n)) for i in range(n))
