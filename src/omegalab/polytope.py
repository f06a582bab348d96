"""Exact lattice-polytope geometry for submodular set functions.

Polytopes are stored with an exact integer V-representation plus an
irredundant integer H-representation (facet inequalities and affine-hull
equations).  Vertex enumeration for independence and base polytopes uses the
classical greedy/prefix rule over permutations; generic hulls (Newton
polytopes, point-set sums) use a brute-force facet search with exact
orientation tests, working inside the saturated direction lattice so that
lower-dimensional polytopes are handled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from typing import Iterable, Sequence

from . import linalg
from .guards import ResourceLimit
from .setfunc import SetFunction, is_matroid, is_polymatroid

__all__ = [
    "LatticePolytope",
    "Face",
    "ResourceLimit",
    "independence_polytope",
    "base_polytope",
    "matroid_staircase_vertices",
    "polytope_from_points",
    "minkowski_sum",
    "lattice_points",
    "faces",
    "is_simple",
    "is_smooth",
    "enumerate_basic_vertices",
]

MAX_GREEDY_GROUND_SET = 8
MAX_HULL_AMBIENT_DIM = 6
DEFAULT_HULL_SUBSETS = 500_000
DEFAULT_SCAN_CELLS = 5_000_000

Point = tuple[int, ...]
Inequality = tuple[tuple[int, ...], int]  # normal a, bound b meaning a.x <= b


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(p * q for p, q in zip(a, x))


@dataclass(frozen=True)
class LatticePolytope:
    """Bounded lattice polytope with exact V- and H-representations."""

    ambient_dim: int
    vertices: tuple[Point, ...]  # lexicographically sorted, irredundant
    inequalities: tuple[Inequality, ...]  # facet-defining, valid on the polytope
    equations: tuple[Inequality, ...]  # affine hull, a.x == b
    dim: int

    def contains(self, point: Sequence) -> bool:
        vals = [Fraction(x) for x in point]
        for a, b in self.equations:
            if sum(Fraction(c) * v for c, v in zip(a, vals)) != b:
                return False
        for a, b in self.inequalities:
            if sum(Fraction(c) * v for c, v in zip(a, vals)) > b:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [list(v) for v in self.vertices],
            "inequalities": [{"a": list(a), "b": b} for a, b in self.inequalities],
            "equations": [{"a": list(a), "b": b} for a, b in self.equations],
        }


@dataclass(frozen=True)
class Face:
    """Nonempty face given by its vertex indices into the parent polytope.

    `facets` holds the indices into the parent's `inequalities` of the facets
    containing the face; the face is the parent cut by those facets' equalities.
    """

    vertex_indices: tuple[int, ...]
    vertices: tuple[Point, ...]
    dim: int
    facets: frozenset[int]


# -- affine chart helpers --------------------------------------------------------


def _direction_lattice(points: Sequence[Point], ambient: int) -> list[tuple[int, ...]]:
    """Basis of the saturated lattice spanned by differences of the points."""
    if len(points) <= 1:
        return []
    v0 = points[0]
    diffs = [[p[i] - v0[i] for i in range(ambient)] for p in points[1:]]
    normal_rows = linalg.kernel_basis(diffs, ambient)
    if not normal_rows:
        return [tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient)]
    int_rows = [linalg.clear_denominators(row) for row in normal_rows]
    return linalg.integer_kernel_basis(int_rows, ambient)


def _equations_from_points(points: Sequence[Point], ambient: int) -> tuple[Inequality, ...]:
    v0 = points[0]
    diffs = [[p[i] - v0[i] for i in range(ambient)] for p in points[1:]]
    eqs = []
    for row in linalg.kernel_basis(diffs, ambient):
        a = linalg.clear_denominators(row)
        eqs.append((a, _dot(a, v0)))
    return tuple(sorted(eqs))


def _coords(basis: Sequence[tuple[int, ...]], v0: Point, p: Point) -> tuple[int, ...]:
    diff = [p[i] - v0[i] for i in range(len(v0))]
    sol = linalg.integer_lattice_coordinates(basis, diff)
    if sol is None:
        raise ValueError("point does not lie in the affine lattice of the polytope")
    return tuple(sol)


def _affine_rank(points: Sequence[Point]) -> int:
    if len(points) <= 1:
        return 0
    v0 = points[0]
    return linalg.rank([[p[i] - v0[i] for i in range(len(v0))] for p in points[1:]])


def _canonical_inequality(
    a: Sequence,
    pts: Sequence[Point],
    eq_rref: Sequence[Sequence[Fraction]],
    eq_pivots: Sequence[int],
) -> Inequality:
    """Unique facet representative: reduce the normal modulo the affine hull.

    Normals supporting the same facet differ by an equation-normal
    combination; eliminating the equation pivot coordinates and rescaling to
    a primitive integer vector makes the representative construction-path
    independent.  The bound is recomputed as the maximum over the points.
    """
    vec = [Fraction(x) for x in a]
    for row, pivot in zip(eq_rref, eq_pivots):
        factor = vec[pivot]
        if factor:
            vec = [x - factor * y for x, y in zip(vec, row)]
    reduced = linalg.clear_denominators(vec)
    return reduced, max(_dot(reduced, p) for p in pts)


def _assemble(
    ambient: int,
    points: Sequence[Point],
    candidates: Iterable[Inequality],
    points_are_vertices: bool,
) -> LatticePolytope:
    """Build a polytope from a complete candidate inequality set.

    `candidates` must all be valid on the points and must include every facet.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("a polytope needs at least one point")
    equations = _equations_from_points(pts, ambient)
    dim = _affine_rank(pts)

    facets: list[Inequality] = []
    tight_sets: dict[frozenset[int], Inequality] = {}
    if dim > 0:
        eq_rref, eq_pivots = linalg.rref([list(a) for a, _ in equations], ambient)
        for a, b in candidates:
            values = [_dot(a, p) for p in pts]
            top = max(values)
            if top > b:
                raise ValueError("candidate inequality is violated by the point set")
            if top < b:
                continue
            tight = frozenset(i for i, v in enumerate(values) if v == b)
            if len(tight) == len(pts):
                continue  # affine-hull equation, not a facet
            if frozenset(tight) in tight_sets:
                continue
            if _affine_rank([pts[i] for i in tight]) == dim - 1:
                tight_sets[frozenset(tight)] = _canonical_inequality(
                    a, pts, eq_rref, eq_pivots
                )
        facets = sorted(tight_sets.values())

    if points_are_vertices or dim == 0:
        verts = pts
    else:
        verts = []
        eq_rows = [list(a) for a, _ in equations]
        for i, p in enumerate(pts):
            rows = list(eq_rows)
            for tight, ineq in tight_sets.items():
                if i in tight:
                    rows.append(list(ineq[0]))
            if linalg.rank(rows) == ambient:
                verts.append(p)
        verts = sorted(verts)

    return LatticePolytope(ambient, tuple(verts), tuple(facets), equations, dim)


# -- polymatroid polytopes --------------------------------------------------------


def _require_polymatroid(f: SetFunction) -> None:
    report = is_polymatroid(f)
    if not report.ok:
        raise ValueError(f"not a polymatroid; violating pair {report.violating_pair}")


def _greedy_points(f: SetFunction, bases_only: bool) -> set[Point]:
    n = f.n
    if n > MAX_GREEDY_GROUND_SET:
        raise ResourceLimit(f"greedy enumeration capped at n <= {MAX_GREEDY_GROUND_SET}")
    out: set[Point] = set()
    for order in permutations(range(n)):
        point = [0] * n
        mask = 0
        prev = 0
        if not bases_only:
            out.add(tuple(point))
        for element in order:
            mask |= 1 << element
            value = f.values[mask]
            point[element] = value - prev
            prev = value
            if not bases_only:
                out.add(tuple(point))
        if bases_only:
            out.add(tuple(point))
    return out


def _submodular_candidates(f: SetFunction) -> list[Inequality]:
    n = f.n
    cands: list[Inequality] = []
    for mask in range(1, 1 << n):
        normal = tuple(1 if mask >> i & 1 else 0 for i in range(n))
        cands.append((normal, f.values[mask]))
    for i in range(n):
        normal = tuple(-1 if j == i else 0 for j in range(n))
        cands.append((normal, 0))
    return cands


def independence_polytope(f: SetFunction) -> LatticePolytope:
    """Polytope {x >= 0 : sum over S of x_i <= f(S)} with greedy vertices."""
    _require_polymatroid(f)
    points = _greedy_points(f, bases_only=False)
    return _assemble(f.n, points, _submodular_candidates(f), points_are_vertices=True)


def base_polytope(f: SetFunction) -> LatticePolytope:
    """Face of the independence polytope at the rank equation."""
    _require_polymatroid(f)
    points = _greedy_points(f, bases_only=True)
    return _assemble(f.n, points, _submodular_candidates(f), points_are_vertices=True)


def matroid_staircase_vertices(f: SetFunction) -> set[Point]:
    """Direct vertex construction for the summed-truncation polytope of a matroid.

    Emits, for every basis and every assignment of the values 1..d to its
    elements, the corresponding point.  Must coincide with the vertex set of
    base_polytope(truncation_sum(f)).
    """
    if not is_matroid(f):
        raise ValueError("not a matroid rank function")
    n, d = f.n, f.rank
    out: set[Point] = set()
    bases = [
        mask
        for mask in range(1 << n)
        if bin(mask).count("1") == d and f.values[mask] == d
    ]
    for mask in bases:
        elements = [i for i in range(n) if mask >> i & 1]
        for assignment in permutations(range(1, d + 1)):
            point = [0] * n
            for element, value in zip(elements, assignment):
                point[element] = value
            out.add(tuple(point))
    if not bases:
        out.add((0,) * n)
    return out


# -- generic hulls ----------------------------------------------------------------


def polytope_from_points(
    points: Iterable[Sequence[int]], *, max_subsets: int = DEFAULT_HULL_SUBSETS
) -> LatticePolytope:
    """Convex hull via brute-force facet search with exact orientation tests."""
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if not pts:
        raise ValueError("a polytope needs at least one point")
    ambient = len(pts[0])
    if ambient > MAX_HULL_AMBIENT_DIM:
        raise ResourceLimit(f"hull search capped at ambient dimension {MAX_HULL_AMBIENT_DIM}")
    basis = _direction_lattice(pts, ambient)
    dim = len(basis)
    if dim == 0:
        return _assemble(ambient, pts, [], points_are_vertices=True)
    v0 = pts[0]
    charted = [_coords(basis, v0, p) for p in pts]
    if comb(len(pts), dim) > max_subsets:
        raise ResourceLimit(
            f"facet search over {len(pts)} points in dimension {dim} exceeds the cap"
        )

    normals: set[tuple[tuple[int, ...], int]] = set()
    for subset in combinations(range(len(pts)), dim):
        first = charted[subset[0]]
        diffs = [
            [charted[j][i] - first[i] for i in range(dim)] for j in subset[1:]
        ]
        kern = linalg.kernel_basis(diffs, dim)
        if len(kern) != 1:
            continue
        w = linalg.clear_denominators(kern[0])
        values = [_dot(w, c) for c in charted]
        b = _dot(w, first)
        top, bottom = max(values), min(values)
        if top == b and bottom < b:
            normals.add((w, b))
        elif bottom == b and top > b:
            normals.add((tuple(-x for x in w), -b))

    # lift chart normals to ambient functionals with the same restriction
    candidates: list[Inequality] = []
    basis_rows = [[Fraction(x) for x in bv] for bv in basis]
    for w, _ in sorted(normals):
        a = linalg.solve(basis_rows, w)
        if a is None:
            raise AssertionError("facet normal failed to lift")
        a_int = linalg.clear_denominators(a)
        candidates.append((a_int, max(_dot(a_int, p) for p in pts)))

    return _assemble(ambient, pts, candidates, points_are_vertices=False)


def _is_indicator_structured(p: LatticePolytope) -> bool:
    """True when every facet normal is an indicator or negated indicator vector."""
    for a, _ in p.inequalities:
        nonzero = {x for x in a if x}
        if nonzero not in ({1}, {-1}):
            return False
    return True


def _signed_lex_vertices(points: Sequence[Point], ambient: int) -> set[Point]:
    """All vertices exposed by chambers of the coordinate/braid arrangement.

    Complete for polytopes whose normal fan coarsens that arrangement's fan
    (sums of polymatroid polytopes); every returned point is a vertex of the
    hull of `points` unconditionally.
    """
    out: set[Point] = set()
    for order in permutations(range(ambient)):
        for split in range(ambient + 1):
            # priorities: maximize order[:split], then minimize in reverse
            priorities = [(var, True) for var in order[:split]]
            priorities += [(var, False) for var in reversed(order[split:])]
            cand = list(points)
            for var, want_max in priorities:
                values = [p[var] for p in cand]
                target = max(values) if want_max else min(values)
                cand = [p for p in cand if p[var] == target]
            out.add(cand[0])
    return out


def minkowski_sum(
    p: LatticePolytope, q: LatticePolytope, *, max_vertex_product: int = 10**6
) -> LatticePolytope:
    """Convex hull of pairwise vertex sums with irredundant V- and H-rep."""
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if len(p.vertices) * len(q.vertices) > max_vertex_product:
        raise ResourceLimit("vertex product exceeds the desk-scale cap")
    ambient = p.ambient_dim
    sums = sorted({tuple(a + b for a, b in zip(u, w)) for u in p.vertices for w in q.vertices})

    if (
        ambient <= MAX_HULL_AMBIENT_DIM
        and _is_indicator_structured(p)
        and _is_indicator_structured(q)
    ):
        # Both normal fans coarsen the coordinate/braid arrangement, hence so
        # does the sum's; its facet normals are (negated) indicator vectors and
        # its vertices are exposed by arrangement chambers.
        verts = sorted(_signed_lex_vertices(sums, ambient))
        candidates: list[Inequality] = []
        for mask in range(1, 1 << ambient):
            normal = tuple(1 if mask >> i & 1 else 0 for i in range(ambient))
            candidates.append((normal, max(_dot(normal, s) for s in sums)))
            neg = tuple(-x for x in normal)
            candidates.append((neg, max(_dot(neg, s) for s in sums)))
        return _assemble(ambient, verts, candidates, points_are_vertices=True)

    return polytope_from_points(sums)


# -- lattice points ----------------------------------------------------------------


def lattice_points(
    p: LatticePolytope, *, max_cells: int = DEFAULT_SCAN_CELLS
) -> list[Point]:
    """All integer points of the polytope, by pruned bounding-box scan."""
    n = p.ambient_dim
    lo = [min(v[i] for v in p.vertices) for i in range(n)]
    hi = [max(v[i] for v in p.vertices) for i in range(n)]
    constraints: list[Inequality] = list(p.inequalities)
    for a, b in p.equations:
        constraints.append((a, b))
        constraints.append((tuple(-x for x in a), -b))

    # suffix_min[c][i] = minimal achievable contribution of coordinates i.. to a.x
    suffix_min = []
    for a, _ in constraints:
        row = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            row[i] = row[i + 1] + min(a[i] * lo[i], a[i] * hi[i])
        suffix_min.append(row)

    out: list[Point] = []
    budget = [max_cells]
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


# -- faces, simplicity, smoothness ---------------------------------------------------


def faces(p: LatticePolytope) -> list[Face]:
    """All nonempty faces as the meet-closure of facet vertex incidences."""
    nverts = len(p.vertices)
    full = frozenset(range(nverts))
    facet_sets = []
    for a, b in p.inequalities:
        facet_sets.append(frozenset(i for i, v in enumerate(p.vertices) if _dot(a, v) == b))

    closed: set[frozenset[int]] = {full}
    frontier = [full]
    while frontier:
        new: list[frozenset[int]] = []
        for fs in facet_sets:
            for cur in frontier:
                meet = cur & fs
                if meet and meet not in closed:
                    closed.add(meet)
                    new.append(meet)
        frontier = new

    result = []
    while closed:  # popping frees each vertex set once its face is built
        vertex_set = closed.pop()
        members = sorted(vertex_set)
        face_vertices = tuple(p.vertices[i] for i in members)
        facets = frozenset(j for j, fs in enumerate(facet_sets) if vertex_set <= fs)
        result.append(Face(tuple(members), face_vertices, _affine_rank(face_vertices), facets))
    result.sort(key=lambda f: (f.dim, f.vertex_indices))
    return result


def is_simple(
    p: LatticePolytope, face_list: list[Face] | None = None
) -> tuple[bool, Point | None]:
    """Every vertex on exactly dim edges; returns (verdict, witness vertex)."""
    if p.dim == 0:
        return True, None
    if face_list is None:
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


def is_smooth(
    p: LatticePolytope, face_list: list[Face] | None = None
) -> tuple[bool, Point | None]:
    """Simple with a unimodular primitive edge basis at every vertex.

    Unimodularity is tested inside the saturated direction lattice of the
    affine hull, via Smith normal form of the edge-direction matrix.
    """
    if p.dim == 0:
        return True, None
    if face_list is None:
        face_list = faces(p)
    simple, witness = is_simple(p, face_list)
    if not simple:
        return False, witness
    basis = _direction_lattice(p.vertices, p.ambient_dim)
    edges_at: dict[int, list[Point]] = {i: [] for i in range(len(p.vertices))}
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


# -- vertex cross-check helper ---------------------------------------------------


def enumerate_basic_vertices(p: LatticePolytope) -> set[tuple[Fraction, ...]]:
    """All basic feasible points of the H-representation (test oracle).

    Solves every maximal tight subsystem of facet equalities together with
    the affine-hull equations and keeps feasible unique solutions.
    """
    n = p.ambient_dim
    eq_rows = [[Fraction(x) for x in a] for a, _ in p.equations]
    eq_rhs = [Fraction(b) for _, b in p.equations]
    out: set[tuple[Fraction, ...]] = set()
    idx = range(len(p.inequalities))
    for subset in combinations(idx, min(p.dim, len(p.inequalities))):
        rows = list(eq_rows)
        rhs = list(eq_rhs)
        for j in subset:
            a, b = p.inequalities[j]
            rows.append([Fraction(x) for x in a])
            rhs.append(Fraction(b))
        if linalg.rank(rows) != n:
            continue
        sol = linalg.solve(rows, rhs)
        if sol is None:
            continue
        if p.contains(sol):
            out.add(tuple(sol))
    return out
