"""Seeded random generators shared by the property and acceptance tests.

Every generated object is validated against the exhaustive axiom checkers
before being handed to a test, so generator bugs fail loudly instead of
weakening the suite.
"""

from __future__ import annotations

import heapq
import random
import sys
import types
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, perm, prod
from operator import add, ge, sub
from pathlib import Path

from omegalab import (
    ParseError,
    Polynomial,
    SetFunction,
    base_polytope,
    grevlex_key,
    groebner,
    is_mconvex,
    linalg,
    rank_from_support,
    truncate,
)
from omegalab.derivatives import derivative_space
from omegalab.guards import ResourceLimit, partials_guard
from omegalab.setfunc import PolymatroidCheckReport


def bench_fixtures() -> types.ModuleType:
    """bench/fixtures.py, executed without writing anything under bench/."""
    path = Path(__file__).resolve().parent.parent / "bench" / "fixtures.py"
    module = types.ModuleType("bench_fixtures")
    sys.modules[module.__name__] = module  # dataclasses looks the module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


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


def reference_is_polymatroid(f: SetFunction) -> PolymatroidCheckReport:
    """Exhaustive axiom check over all subset pairs, first witness in bitmask order."""
    normalized = f.values[0] == 0
    violating: tuple[int, int] | None = None if normalized else (0, 0)
    monotone = True
    submodular = True
    size = 1 << f.n
    for s in range(size):
        fs = f.values[s]
        for t in range(size):
            ft = f.values[t]
            if monotone and (s & t) == s and fs > ft:
                monotone = False
                if violating is None:
                    violating = (s, t)
            if submodular and f.values[s | t] + f.values[s & t] > fs + ft:
                submodular = False
                if violating is None:
                    violating = (s, t)
            if not monotone and not submodular and violating is not None:
                break
        else:
            continue
        break
    return PolymatroidCheckReport(monotone, submodular, normalized, violating)


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
    assert reference_is_polymatroid(f).ok
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
    from paper_checks import is_matroid  # paper_checks imports this module

    assert is_matroid(f)
    return f


def _rank_of_columns(columns: list[list[Fraction]], height: int) -> int:
    if not columns or height == 0:
        return 0
    return len(linalg.rref([[col[i] for col in columns] for i in range(height)])[1])


def reference_truncation_polytope(h: Polynomial, k: int):
    """B(truncate(rho, k)) for rho the rank function of h's support, read off rho's table."""
    return base_polytope(truncate(rank_from_support(h.support()), k))


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


def young_orbit(e: tuple[int, ...], blocks: list[range]) -> set[tuple[int, ...]]:
    """The images of e under the permutations of coordinates within each block."""
    out = {()}
    for block in blocks:
        out = {x + y for x in out for y in set(permutations(e[block.start : block.stop]))}
    return out


def random_block_symmetric_polynomial(
    rng: random.Random, n: int, degree: int, max_coeff: int = 3
) -> Polynomial:
    """A positive polynomial on an M-convex support, with its coefficients constant on
    the orbits of the permutations within runs of consecutive variables, at least one
    run of two or more.  The support is the union of those orbits of a random M-convex
    support, redrawn until it is M-convex and every variable occurs."""
    while True:
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 2)))
        blocks = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
        support = set()
        for e in random_mconvex_support(rng, n, degree):
            support |= young_orbit(e, blocks)
        if is_mconvex(support)[0] and all(any(p[i] for p in support) for i in range(n)):
            break
    terms: dict[tuple[int, ...], Fraction] = {}
    for e in sorted(support):
        if e not in terms:
            c = Fraction(rng.randint(1, max_coeff))
            terms.update((x, c) for x in young_orbit(e, blocks))
    return Polynomial(n, terms)


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


def reference_is_mconvex(points, one_sided: bool = False):
    """The exchange axiom by the scan over every (x, y, i, j) of the support.

    With `one_sided`, (B-EXC+): only x - e_i + e_j must lie in the support,
    and the first (x, y, i) that fails it is `is_mconvex`'s witness.
    """
    pts = [tuple(p) for p in points]
    if bad := [v for p in pts for v in p if type(v) is not int or v < 0]:
        raise ValueError(f"exponent entry {bad[0]!r} is not a nonnegative int")
    pts = sorted(set(pts))
    if not pts:
        raise ValueError("the point set is empty")
    if len(lengths := sorted({len(p) for p in pts})) > 1:
        raise ValueError(f"exponents of mixed length: {', '.join(map(str, lengths))}")
    if len({sum(p) for p in pts}) != 1:
        raise ValueError("points must have equal coordinate sums")
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
                    if tuple(xx) in index and (one_sided or tuple(yy) in index):
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


# -- lattice points and the Smith normal form (test-only references) -------------------

MAX_SCAN_CELLS = 5_000_000


def lattice_points(p) -> list[tuple[int, ...]]:
    """All integer points of the polytope, by pruned bounding-box scan.

    Raises ResourceLimit past MAX_SCAN_CELLS visited cells.
    """
    n = p.ambient_dim
    lo = [min(v[i] for v in p.vertices) for i in range(n)]
    hi = [max(v[i] for v in p.vertices) for i in range(n)]
    constraints = list(p.inequalities)
    for a, b in p.equations:
        constraints += [(a, b), (tuple(-x for x in a), -b)]

    # suffix_min[c][i] = minimal achievable contribution of coordinates i.. to a.x
    suffix_min = []
    for a, _ in constraints:
        row = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            row[i] = row[i + 1] + min(a[i] * lo[i], a[i] * hi[i])
        suffix_min.append(row)

    out = []
    budget = [MAX_SCAN_CELLS]
    point = [0] * n

    def rec(i: int, partial: list[int]) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceLimit("lattice-point scan exceeded the cell cap")
        if i == n:
            out.append(tuple(point))
            return
        for x in range(lo[i], hi[i] + 1):
            nxt = [s + a[i] * x for s, (a, _) in zip(partial, constraints)]
            ok = True
            for c, (s, (_, b)) in enumerate(zip(nxt, constraints)):
                if s + suffix_min[c][i + 1] > b:
                    ok = False
                    break
            if ok:
                point[i] = x
                rec(i + 1, nxt)
        point[i] = 0

    rec(0, [0] * len(constraints))
    return sorted(out)


def smith_normal_form(matrix):
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


# -- the order-k partials by the multiset-major scan (test-only) -----------------------


def partials_support(h: Polynomial, k: int) -> set[tuple]:
    """B_k, the union of the order-k partials' supports: derivative_space's
    columns for 1 <= k < deg h, the reference scan's supports at k = 0 and deg h."""
    if 1 <= k < h.total_degree:
        return set(derivative_space(h, k).columns)
    return set().union(*reference_partial_terms(h, k)[1])


def reference_partial_terms(h: Polynomial, k: int) -> tuple[int, list[dict[tuple, int]]]:
    """The scan that omegalab.derivatives._partial_terms replaced: every order-k
    multiset against every term, keeping the terms whose exponent stays nonnegative."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    partials_guard(h.nvars, k)
    s, terms = h.integer_terms()
    out = []
    for multi in combinations_with_replacement(range(h.nvars), k):
        a = [multi.count(i) for i in range(h.nvars)]
        shifted = ((tuple(map(sub, m, a)), m, c) for m, c in terms.items())
        out.append({e: c * prod(map(perm, m, a)) for e, m, c in shifted if min(e, default=0) >= 0})
    return s, out


# -- face-lattice references: the listing, simplicity, smoothness (test-only) -----


def reference_faces(p):
    """The face listing built with tuples and sets: (vertex_indices, vertices,
    dim, facets) per face, sorted on (dim, vertex_indices)."""
    facet_masks = p.facet_masks
    full = (1 << len(p.vertices)) - 1
    closed = {full}
    frontier = [full]
    while frontier:
        new = []
        for fs in facet_masks:
            for cur in frontier:
                meet = cur & fs
                if meet and meet not in closed:
                    closed.add(meet)
                    new.append(meet)
        frontier = new

    dims = {}
    result = []
    for mask in sorted(closed, key=int.bit_count):  # meets come before the face
        dim, facets = -1, []
        for j, fs in enumerate(facet_masks):
            if (m := mask & fs) == mask:
                facets.append(j)
            elif m and dims[m] > dim:
                dim = dims[m]
        dims[mask] = dim = dim + 1
        members = tuple(i for i, bit in enumerate(reversed(bin(mask))) if bit == "1")
        result.append((members, tuple(p.vertices[i] for i in members), dim, frozenset(facets)))
    result.sort(key=lambda f: (f[2], f[0]))
    return result


def mask_image(mask: int, bits: dict[int, int]) -> int:
    """The OR of bits[b] over the set bits b of mask."""
    out = 0
    while mask:
        out |= bits[mask & -mask]
        mask &= mask - 1
    return out


def reference_orbit_firsts(lattice, points, swaps) -> dict[int, int]:
    """Each face mask of `lattice`, (dim, mask) over the sorted `points`,
    mapped to the first face of its orbit under the swaps (i, j) of coordinates:
    the walk in lattice order closes each new face's orbit by breadth-first search
    over the swaps' bit permutations."""
    index = {c: 1 << t for t, c in enumerate(points)}
    perms = []
    for i, j in swaps:
        order = list(range(len(points[0])))
        order[i], order[j] = j, i
        perms.append({bit: index[tuple(c[x] for x in order)] for c, bit in index.items()})
    first: dict[int, int] = {}
    for _, on in lattice:
        if on in first:
            continue
        orbit = [on]
        while orbit:
            cur = orbit.pop()
            if cur not in first:
                first[cur] = on
                orbit += [mask_image(cur, perm) for perm in perms]
    return first


def reference_swap_generators(h: Polynomial) -> list[tuple[int, int]]:
    """The adjacent swaps within each block of variables, by brute force: i and j
    share a block iff renaming x_i <-> x_j maps h's terms onto themselves."""
    n, terms = h.nvars, h.terms
    fixed = set()
    for i, j in combinations(range(n), 2):
        order = list(range(n))
        order[i], order[j] = j, i
        if {tuple(e[x] for x in order): c for e, c in terms.items()} == terms:
            fixed |= {(i, j), (j, i)}
    blocks = sorted({tuple(j for j in range(n) if j == i or (i, j) in fixed) for i in range(n)})
    return [pair for block in blocks for pair in zip(block, block[1:])]


def reference_is_simple(p):
    """Every vertex on exactly dim edges of the face lattice; (verdict, witness)."""
    if p.dim == 0:
        return True, None
    degree = [0] * len(p.vertices)
    for members, _, dim, _ in reference_faces(p):
        if dim == 1:
            for i in members:
                degree[i] += 1
    for i, v in enumerate(p.vertices):
        if degree[i] != p.dim:
            return False, v
    return True, None


def reference_is_smooth(p):
    """Simple, with a unimodular primitive edge basis at every vertex.

    Each edge of the face lattice is written in a basis of the saturated
    direction lattice of the affine hull by `reference_solve`, and a vertex is
    smooth when the Smith normal form of its edge coordinates has dim
    divisors, all 1.
    """
    if p.dim == 0:
        return True, None
    simple, witness = reference_is_simple(p)
    if not simple:
        return False, witness
    basis = linalg.integer_kernel_basis([a for a, _ in p.equations], p.ambient_dim)
    edges_at = {i: [] for i in range(len(p.vertices))}
    for members, _, dim, _ in reference_faces(p):
        if dim == 1:
            i, j = members
            edges_at[i].append(p.vertices[j])
            edges_at[j].append(p.vertices[i])
    for i, v in enumerate(p.vertices):
        rows = []
        for w in edges_at[i]:
            direction = linalg.primitive_vector([w[k] - v[k] for k in range(p.ambient_dim)])
            coords = reference_solve([[b[k] for b in basis] for k in range(p.ambient_dim)], direction)
            if coords is None or any(c.denominator != 1 for c in coords):
                return False, v
            rows.append([int(c) for c in coords])
        d, _, _ = smith_normal_form(rows)
        if any(d[j][j] != 1 for j in range(p.dim)):
            return False, v
    return True, None


class _Tokenizer:
    """One character at a time, whitespace skipped before every token."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        if ch:
            self.pos += 1
        return ch

    def read_integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def read_name(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a variable name", start)
        return self.text[start : self.pos], start


def reference_parse_polynomial(text: str, variable_order) -> Polynomial:
    """The character-at-a-time parser that omegalab.poly.parse_polynomial replaced.

    It reads non-decimal digits such as '²' as digits, so int() raises a bare
    ValueError on them; every other text gives the same Polynomial or ParseError.
    """
    names = list(variable_order)
    if not names:
        raise ValueError("variable_order must be nonempty")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    index = {name: i for i, name in enumerate(names)}
    nvars = len(names)

    tok = _Tokenizer(text)
    acc: dict[tuple, Fraction] = {}

    def read_factor() -> tuple[int, int]:
        name, start = tok.read_name()
        if name not in index:
            raise ParseError(f"unknown variable {name!r}", start)
        power = 1
        if tok.peek() == "^":
            tok.take()
            where = tok.pos
            power = tok.read_integer()
            if power <= 0:
                raise ParseError("exponent must be positive", where)
        return index[name], power

    def read_term(sign: int) -> None:
        coeff = Fraction(sign)
        exponent = [0] * nvars
        ch = tok.peek()
        if ch.isdigit():
            numerator = tok.read_integer()
            denominator = 1
            if tok.peek() == "/":
                tok.take()
                where = tok.pos
                denominator = tok.read_integer()
                if denominator <= 0:
                    raise ParseError("denominator must be positive", where)
            coeff *= Fraction(numerator, denominator)
            if tok.peek() != "*":
                # bare constant term
                acc[tuple(exponent)] = acc.get(tuple(exponent), Fraction(0)) + coeff
                return
            tok.take()
        var, power = read_factor()
        exponent[var] += power
        while tok.peek() == "*":
            tok.take()
            var, power = read_factor()
            exponent[var] += power
        key = tuple(exponent)
        acc[key] = acc.get(key, Fraction(0)) + coeff

    if tok.peek() == "":
        raise ParseError("empty polynomial text", tok.pos)
    sign = 1
    if tok.peek() in "+-":
        sign = -1 if tok.take() == "-" else 1
    read_term(sign)
    while True:
        ch = tok.peek()
        if ch == "":
            break
        if ch not in "+-":
            raise ParseError(f"unexpected character {ch!r}", tok.pos)
        tok.take()
        read_term(-1 if ch == "-" else 1)

    return Polynomial(nvars, acc)


# -- Buchberger with the chain criterion (test-only) -----------------------------------


def _reference_buchberger(pk, gens, max_pairs):
    """The pair loop that the Gebauer-Moeller update in omegalab.groebner._buchberger
    replaced: every pair is queued, the coprime and chain criteria are tested as
    each pair is popped, and the minimal basis is filtered out at the end."""
    basis = []
    for g in gens:
        g = groebner._content_strip(g)
        if g and all(g != h for _, _, h in basis):
            basis.append(pk.reducer(g))
    guard = pk.guard
    # the set answers the chain criterion's membership tests, the heap the order
    pending = set(combinations(range(len(basis)), 2))
    queue = [(pk.lcm(basis[i][0], basis[j][0]), i, j) for i, j in pending]
    heapq.heapify(queue)
    treated = 0
    while queue:
        lcm, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        treated += 1
        if treated > max_pairs:
            raise ResourceLimit(f"pair queue cap {max_pairs} exceeded")
        if lcm == basis[i][1] + basis[j][1]:
            continue  # coprime leading terms
        lcm_guarded = pk.exponents(lcm) + guard
        if any(
            (lcm_guarded - e) & guard == guard
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, (e, _, _) in enumerate(basis)
            if k != i and k != j
        ):
            continue  # chain criterion
        r = groebner._reduce(pk, groebner._s_poly(pk, basis[i][2], basis[j][2]), basis)
        if r:
            t = len(basis)
            basis.append(pk.reducer(r))
            for a in range(t):
                pending.add((a, t))
                heapq.heappush(queue, (pk.lcm(basis[a][0], basis[t][0]), a, t))
    # minimal basis: a strict divisor always wins; among equal leads keep the first
    minimal = [
        (e, lead, g)
        for i, (e, lead, g) in enumerate(basis)
        if not any(
            (e + guard - f) & guard == guard and (other != lead or j < i)
            for j, (f, other, _) in enumerate(basis)
            if j != i
        )
    ]
    reduced = [
        groebner._reduce(pk, g, minimal[:i] + minimal[i + 1 :]) for i, (*_, g) in enumerate(minimal)
    ]
    return sorted((r for r in reduced if r), key=max)


def _widening(packing, gens, kernel):
    """kernel(pk, packed generators), decoded, for pk = packing(n, w): the fields
    start as wide as the degrees need and double on overflow, as in
    omegalab.groebner.buchberger_intdicts."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    width = max(8, max(sum(m) for g in gens for m in g).bit_length() + 1)
    while True:
        pk = packing(len(next(iter(gens[0]))), width)
        try:
            basis = kernel(pk, [pk.encode(g) for g in gens])
        except groebner._Overflow:
            width *= 2
        else:
            return [pk.decode(g) for g in basis]


def reference_buchberger_intdicts(gens, max_pairs=groebner.DEFAULT_MAX_PAIRS):
    """omegalab.groebner.buchberger_intdicts on the chain-criterion pair loop; the
    packing, division and S-polynomials are the program's own."""
    return _widening(
        groebner._Packing, gens, lambda pk, packed: _reference_buchberger(pk, packed, max_pairs)
    )


def reference_cone_is_origin(gens, nvars, known=0):
    """omegalab.groebner._cone_is_origin on the whole reduced basis: True iff every
    z_i has a pure power (1 included) among its leading monomials."""
    basis = groebner.buchberger_intdicts(gens, known=known)
    leads = [max(g, key=grevlex_key) for g in basis]
    return len({i for m in leads for i in range(nvars) if m[i] == sum(m)}) == nvars


def reference_oracle_centre_disjoint(h: Polynomial, k: int) -> str:
    """omegalab.certify.oracle_centre_disjoint with no empty-centre exit, for columns
    that fill P_k: the toric basis of the order-k columns extended by the centre's
    linear forms in one reduced basis, then "yes" iff every z_i has a pure power
    among its leading monomials."""
    space = derivative_space(h, k)
    nz = len(space.columns)
    toric = list(groebner.toric_ideal(space.columns).generators)
    z = [tuple(int(i == j) for j in range(nz)) for i in range(nz)]
    forms = [{z[i]: c for i, c in enumerate(row) if c} for row in space.matrix]
    return "yes" if reference_cone_is_origin(toric + forms, nz, known=len(toric)) else "no"


def reorder(g, order):
    """g with variable order[j] renamed j."""
    return {tuple(m[v] for v in order): c for m, c in g.items()}


# -- an elimination order and a division on exponent tuples (test-only) ----------------


class EliminationPacking(groebner._Packing):
    """Packed monomials of the elimination order for the last variable: more of
    its exponent wins before the degree, then grevlex in index order.  K = top *
    2^s - E as in omegalab.groebner, with top the degree plus that exponent
    shifted above it."""

    def __init__(self, n, w):
        super().__init__(n, w)
        self.weights[-1] += 1 << (self.s + w)

    def lcm(self, a, b):
        k = super().lcm(a, b)  # grevlex K; its fields E are the lcm's
        return k + (self.exponents(k) >> (self.s - self.w) << (self.s + self.w))


def eliminating_buchberger_intdicts(
    gens, max_pairs=groebner.DEFAULT_MAX_PAIRS, *, reference=False
):
    """Reduced basis under the elimination order for the last variable, by the
    program's kernel, or with `reference` by the chain-criterion loop."""

    def kernel(pk, packed):
        if reference:
            return _reference_buchberger(pk, packed, max_pairs)
        return groebner._interreduce(pk, groebner._buchberger(pk, packed, max_pairs, 0))

    return _widening(EliminationPacking, gens, kernel)


def reference_normal_form(f, basis):
    """The remainder of f on full division by `basis` under grevlex: the
    textbook loop on exponent tuples and Fraction coefficients, sharing no code
    with the packed kernel."""
    divisors = [(max(g, key=grevlex_key), g) for g in basis if g]
    rem = {m: Fraction(c) for m, c in f.items() if c}
    out = {}
    while rem:
        lm = max(rem, key=grevlex_key)
        for lead, g in divisors:
            if all(map(ge, lm, lead)):
                q, shift = rem[lm] / g[lead], tuple(map(sub, lm, lead))
                for m, c in g.items():
                    m = tuple(map(add, m, shift))
                    rem[m] = rem.get(m, 0) - q * c
                    if not rem[m]:
                        del rem[m]
                break
        else:
            out[lm] = rem.pop(lm)
    return out


def _saturation_step(current, nvars, var, max_pairs):
    """The basis of current : z_var^infinity: a grevlex basis with z_var renamed
    last, so that it is the cheapest, renamed back and divided by z_var's
    largest power (Bayer & Stillman, Invent. Math. 87, 1987)."""
    rank = [v for v in range(nvars) if v != var] + [var]
    gb = groebner.buchberger_intdicts([reorder(g, rank) for g in current], max_pairs)
    back = [rank.index(v) for v in range(nvars)]
    return [groebner._divide_out(reorder(g, back), var) for g in gb]


def reference_saturate_coordinates(gens, nvars, max_pairs=groebner.DEFAULT_MAX_PAIRS):
    """The loop that the two-term rule in omegalab.groebner.saturate_coordinates
    replaced: one saturation step by every variable in index order, then a final
    grevlex basis."""
    current = [g for g in gens if g]
    for var in range(nvars):
        current = _saturation_step(current, nvars, var, max_pairs)
    return groebner.buchberger_intdicts(current, max_pairs=max_pairs)


def reference_lowest_index_saturate_coordinates(gens, nvars, max_pairs=groebner.DEFAULT_MAX_PAIRS):
    """The loop that the step rule in omegalab.groebner.saturate_coordinates
    replaced: the two-term rule, with each step by the lowest-index variable
    outside tau."""
    current = [g for g in gens if g]
    tau = set(range(nvars)).difference(*(groebner._support(m) for g in current for m in g))
    while len(tau) < nvars:
        var = min(set(range(nvars)) - tau)
        current = _saturation_step(current, nvars, var, max_pairs)
        tau = groebner._grow_saturated(groebner._two_term_supports(current), tau | {var})
    return groebner.buchberger_intdicts(current, max_pairs=max_pairs)


# -- integer term dicts and line restrictions (test-only) --------------------------------


def poly_to_intdict(p: Polynomial) -> dict[tuple, int]:
    """p's primitive integer term dict, its grevlex-leading coefficient positive."""
    terms = p.integer_terms()[1]
    g = gcd(*terms.values())
    if terms and terms[max(terms, key=grevlex_key)] < 0:
        g = -g
    return {m: c // g for m, c in terms.items()}


def reference_substitute_line(p: Polynomial, base, direction) -> list[Fraction]:
    """The expansion that omegalab.setfunc.hyperbolic_rank replaced: coefficients of
    t -> p(base + t*direction), ascending, trailing zeros trimmed; [] exactly when
    the restriction is identically zero."""
    if len(base) != p.nvars or len(direction) != p.nvars:
        raise ValueError("point length mismatch")
    e = [Fraction(v) for v in base]
    v = [Fraction(w) for w in direction]
    out = [Fraction(0)]
    for exponent, coeff in p.items():
        term = [coeff]
        for i, power in enumerate(exponent):
            for _ in range(power):
                term = _univ_mul(term, [e[i], v[i]])
        out = _univ_add(out, term)
    while out and not out[-1]:
        out.pop()
    return out


def _univ_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _univ_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return out
