"""Seeded random generators shared by the property and acceptance tests.

Every generated object is validated against the exhaustive axiom checkers
before being handed to a test, so generator bugs fail loudly instead of
weakening the suite.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from omegalab import (
    Polynomial,
    SetFunction,
    base_polytope,
    faces,
    is_matroid,
    is_mconvex,
    is_polymatroid,
    lattice_points,
    linalg,
)

SINGULAR_CUBIC_TEXT = (
    "8*w*x^2 + 20*w*x*y + 8*w*y^2 + 42*w*x*z + 42*w*y*z + 49*w*z^2"
    " + x^3 + 11*x^2*y + 11*x*y^2 + y^3 + 15*x^2*z + 46*x*y*z + 15*y^2*z"
    " + 37*x*z^2 + 37*y*z^2 + 21*z^3"
)

SMOOTH_CUBIC_TEXT = (
    "x^3 + 11*x^2*y + 11*x*y^2 + y^3 + 15*x^2*z + 46*x*y*z + 15*y^2*z"
    " + 37*x*z^2 + 37*y*z^2 + 21*z^3"
    " + 29*w*x^2 + 90*w*x*y + 29*w*y^2 + 150*w*x*z + 150*w*y*z + 137*w*z^2"
)

PLANE_CUBIC_TEXT = "x1^2*x2 + x1*x2^2 + x1^2*x3 + x1*x2*x3 + x2^2*x3"

WXYZ = ["w", "x", "y", "z"]
X123 = ["x1", "x2", "x3"]


def random_polymatroid(rng: random.Random, n: int, max_rank: int) -> SetFunction:
    """Random sum of truncated weighted coverage pieces, validated exhaustively."""
    values = [0] * (1 << n)
    remaining = rng.randint(0, max_rank)
    pieces = rng.randint(1, 3)
    for _ in range(pieces):
        if remaining == 0:
            break
        cap = rng.randint(0, remaining)
        weights = [rng.randint(0, 3) for _ in range(n)]
        if sum(weights) < cap:
            weights[rng.randrange(n)] += cap - sum(weights)
        for mask in range(1 << n):
            total = sum(weights[i] for i in range(n) if mask >> i & 1)
            values[mask] += min(cap, total)
        remaining -= cap
    f = SetFunction(n, values)
    assert is_polymatroid(f).ok
    return f


def random_matroid(rng: random.Random, n: int, max_rank: int) -> SetFunction:
    """Random linear matroid over the rationals from a small integer matrix."""
    d = rng.randint(0, min(max_rank, n))
    columns = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(n)]
    values = []
    for mask in range(1 << n):
        chosen = [columns[i] for i in range(n) if mask >> i & 1]
        values.append(_rank_of_columns(chosen, d))
    f = SetFunction(n, values)
    assert is_matroid(f)
    return f


def _rank_of_columns(columns: list[list[Fraction]], height: int) -> int:
    from omegalab.linalg import rank

    if not columns or height == 0:
        return 0
    return rank([[col[i] for col in columns] for i in range(height)])


def random_mconvex_support(rng: random.Random, n: int, degree: int) -> list[tuple[int, ...]]:
    """Integer points of a random base polytope with the requested rank."""
    while True:
        f = random_polymatroid(rng, n, degree)
        if f.rank != degree:
            continue
        points = lattice_points(base_polytope(f))
        ok, _ = is_mconvex(points)
        assert ok
        return points


def random_positive_polynomial(
    rng: random.Random, support: list[tuple[int, ...]], max_coeff: int = 50
) -> Polynomial:
    nvars = len(support[0])
    return Polynomial(
        nvars, {p: Fraction(rng.randint(1, max_coeff)) for p in support}
    )


def random_product_of_linear_forms(rng: random.Random, n: int, degree: int) -> Polynomial:
    """Product of linear forms with positive coefficients: stable, so Lorentzian."""
    h = Polynomial.constant(n, 1)
    for _ in range(degree):
        coeffs = [rng.randint(0, 4) for _ in range(n)]
        if not any(coeffs):
            coeffs[rng.randrange(n)] = 1
        form = Polynomial(
            n, {tuple(1 if j == i else 0 for j in range(n)): Fraction(c)
                for i, c in enumerate(coeffs) if c}
        )
        h = h * form
    return h


def random_sparse_polynomial(rng: random.Random, nvars: int, max_deg: int, terms: int) -> Polynomial:
    acc = {}
    for _ in range(terms):
        exponent = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if sum(exponent) > max_deg:
            continue
        acc[exponent] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(nvars, acc)


def all_mconvex_sets(n: int, degree: int) -> list[frozenset]:
    """Every M-convex subset of the degree-d monomial grid (tiny n only)."""
    grid = [
        p
        for p in _compositions(degree, n)
    ]
    out = []
    for size in range(1, len(grid) + 1):
        for subset in combinations(grid, size):
            ok, _ = is_mconvex(subset)
            if ok:
                out.append(frozenset(subset))
    return out


def reference_is_mconvex(points):
    """The exchange axiom by the scan over every (x, y, i, j) of the support."""
    pts = sorted({tuple(int(v) for v in p) for p in points})
    if not pts:
        raise ValueError("M-convexity is defined for nonempty point sets")
    if len({sum(p) for p in pts}) != 1:
        raise ValueError("points must have equal coordinate sums")
    if any(v < 0 for p in pts for v in p):
        raise ValueError("points must be nonnegative")
    index = set(pts)
    n = len(pts[0])
    for x in pts:
        for y in pts:
            for i in range(n):
                if x[i] <= y[i]:
                    continue
                ok = False
                for j in range(n):
                    if x[j] >= y[j]:
                        continue
                    xx = list(x)
                    xx[i] -= 1
                    xx[j] += 1
                    yy = list(y)
                    yy[i] += 1
                    yy[j] -= 1
                    if tuple(xx) in index and tuple(yy) in index:
                        ok = True
                        break
                if not ok:
                    return False, (x, y, i)
    return True, None


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def reference_greedy_points(f: SetFunction, bases_only: bool) -> set[tuple[int, ...]]:
    """Greedy points by a walk over all n! orders: every prefix's, or the full ones."""
    out = set()
    for order in permutations(range(f.n)):
        point, mask = [0] * f.n, 0
        if not bases_only:
            out.add(tuple(point))
        for element in order:
            point[element] = f.values[mask | 1 << element] - f.values[mask]
            mask |= 1 << element
            if not bases_only:
                out.add(tuple(point))
        out.add(tuple(point))
    return out


# -- textbook references for the elimination kernel (test-only) ---------------------


def reference_rref(rows, ncols=None):
    """Fraction Gauss-Jordan: (nonzero rows of the RREF, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[: len(pivots)], pivots


def reference_solve(rows, rhs):
    """One solution of M x = b with free variables zero, or None."""
    if not rows:
        return [] if all(Fraction(b) == 0 for b in rhs) else None
    ncols = len(rows[0])
    reduced, pivots = reference_rref([list(row) + [b] for row, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[ncols]
    return x


def reference_char_poly(matrix):
    """det(tI - M) coefficients from sums of principal minors (Leibniz formula)."""
    n = len(matrix)

    def det(idx):
        total = Fraction(0)
        for perm in permutations(range(len(idx))):
            inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
            term = Fraction(-1) ** inversions
            for i, j in enumerate(perm):
                term *= Fraction(matrix[idx[i]][idx[j]])
            total += term
        return total

    return [(-1) ** k * sum(det(s) for s in combinations(range(n), k)) for k in range(n + 1)]


def reference_kernel(rows, ncols):
    """Basis of {v : M v = 0}, one vector per free column of the RREF."""
    reduced, pivots = reference_rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def reference_affine_rank(points):
    """Rank of the differences of the points from the first one."""
    if len(points) <= 1:
        return 0
    diffs = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    return len(reference_rref(diffs, len(points[0]))[1])


def reference_hull(points):
    """(dim, facet tight sets, sorted vertices) of a point cloud by rank tests alone.

    Every facet holds dim affinely independent points of the cloud, so each
    such set whose hyperplane within the affine hull leaves the cloud on one
    side gives a facet; its tight set is the points on that hyperplane.  A
    point is a vertex when the affine-hull equations and the normals of the
    facets through it have full rank.
    """
    pts = sorted(set(points))
    n = len(pts[0])
    dim = reference_affine_rank(pts)
    hull_eqs = reference_kernel([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]], n)
    normals = {}
    for subset in combinations(pts, dim) if dim else ():
        if reference_affine_rank(subset) != dim - 1:
            continue
        diffs = [[a - b for a, b in zip(p, subset[0])] for p in subset[1:]]
        (normal,) = reference_kernel(diffs + hull_eqs, n)
        values = [sum(a * x for a, x in zip(normal, p)) for p in pts]
        level = values[pts.index(subset[0])]
        if max(values) == level or min(values) == level:
            tight = frozenset(p for p, v in zip(pts, values) if v == level)
            normals[tight] = normal
    vertices = [
        p
        for p in pts
        if len(reference_rref(hull_eqs + [a for t, a in normals.items() if p in t], n)[1]) == n
    ]
    return dim, set(normals), vertices


# -- face-lattice references for simplicity and smoothness (test-only) ------------


def reference_is_simple(p):
    """Every vertex on exactly dim edges of the face lattice; (verdict, witness)."""
    if p.dim == 0:
        return True, None
    face_list = faces(p)
    degree = [0] * len(p.vertices)
    for f in face_list:
        if f.dim == 1:
            for i in f.vertex_indices:
                degree[i] += 1
    for i, v in enumerate(p.vertices):
        if degree[i] != p.dim:
            return False, v
    return True, None


def reference_is_smooth(p):
    """Simple, with a unimodular primitive edge basis at every vertex.

    Each edge of the face lattice is written in a basis of the saturated
    direction lattice of the affine hull, and a vertex is smooth when the
    Smith normal form of its edge coordinates has dim divisors, all 1.
    """
    if p.dim == 0:
        return True, None
    face_list = faces(p)
    simple, witness = reference_is_simple(p)
    if not simple:
        return False, witness
    basis = linalg.integer_kernel_basis([a for a, _ in p.equations], p.ambient_dim)
    edges_at = {i: [] for i in range(len(p.vertices))}
    for f in face_list:
        if f.dim == 1:
            i, j = f.vertex_indices
            edges_at[i].append(p.vertices[j])
            edges_at[j].append(p.vertices[i])
    for i, v in enumerate(p.vertices):
        rows = []
        for w in edges_at[i]:
            direction = linalg.primitive_vector([w[k] - v[k] for k in range(p.ambient_dim)])
            coords = linalg.integer_lattice_coordinates(basis, direction)
            if coords is None:
                return False, v
            rows.append(coords)
        divisors = linalg.snf_divisors(rows)
        if len(divisors) != p.dim or any(d != 1 for d in divisors):
            return False, v
    return True, None
