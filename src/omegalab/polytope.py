"""Exact lattice-polytope geometry for submodular set functions.

Polytopes are stored with an exact integer V-representation plus an
irredundant integer H-representation (facet inequalities and affine-hull
equations).  Independence and base polytopes take the greedy (prefix
marginal) vectors as points, built in one pass over distinct prefix states,
and these also check that f is a polymatroid: given f(empty set) = 0, they
satisfy every x(S) <= f(S) iff f is submodular (Ichiishi 1981), and each
marginal is a coordinate of one, so -x_i <= 0 holds iff f is monotone.
Generic hulls (Newton polytopes, point-set sums) get their candidate
inequalities from a brute-force facet search with exact orientation tests,
working in the chart of the affine hull by its free coordinates so that
lower-dimensional polytopes are handled exactly.  Every combinatorial fact
is then read off the point-facet incidences, with no further elimination:
the dimension is the ambient dimension less the number of affine-hull
equations, the facets are the maximal proper tight sets, a vertex is the
only point on every facet through it (the polytope keeps each facet's
vertices as `facet_masks`), and a face's dimension follows from the meets
of the face lattice.  Simplicity and smoothness need no face
lattice: a vertex is simple when it lies on dim facets.  On a polymatroid
polytope simple is already smooth (see `is_simple`); for a generic lattice
polytope each edge at a simple vertex is the meet of all but one of its
facets, and lattice smoothness is one determinant per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import comb
from operator import and_
from typing import Iterable, Sequence

from . import linalg
from .guards import ResourceLimit
from .setfunc import SetFunction, is_matroid

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
MAX_HULL_SUBSETS = 500_000
MAX_SCAN_CELLS = 5_000_000
MAX_VERTEX_PRODUCT = 10**6

Point = tuple[int, ...]
Inequality = tuple[tuple[int, ...], int]  # normal a, bound b meaning a.x <= b


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(p * q for p, q in zip(a, x))


def _values(a: Sequence[int], columns: Sequence[Sequence[int]], count: int) -> list[int]:
    """a.x at each of `count` points given by their coordinate columns: one
    column is added per nonzero entry of a."""
    values = [0] * count
    for c, column in zip(a, columns):
        if c:
            values = [v + c * x for v, x in zip(values, column)]
    return values


@dataclass(frozen=True)
class LatticePolytope:
    """Bounded lattice polytope with exact V- and H-representations.

    `facet_masks[j]` is the bitmask of the vertices on `inequalities[j]`, built
    with the polytope; the other fields determine it, so ==, repr and JSON skip it.
    """

    ambient_dim: int
    vertices: tuple[Point, ...]  # lexicographically sorted, irredundant
    inequalities: tuple[Inequality, ...]  # facet-defining, valid on the polytope
    equations: tuple[Inequality, ...]  # affine hull, a.x == b
    dim: int
    facet_masks: tuple[int, ...] = field(compare=False, repr=False)

    def contains(self, point: Sequence) -> bool:
        vals = [Fraction(x) for x in point]
        return all(_dot(a, vals) == b for a, b in self.equations) and all(
            _dot(a, vals) <= b for a, b in self.inequalities
        )

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


def _equations_from_points(points: Sequence[Point], ambient: int) -> tuple[Inequality, ...]:
    v0 = points[0]
    diffs = [[p[i] - v0[i] for i in range(ambient)] for p in points[1:]]
    return tuple(sorted((a, _dot(a, v0)) for a in linalg.kernel_basis(diffs, ambient)))


def _canonical_inequality(
    a: Sequence,
    tight: Point,
    eq_rref: Sequence[Sequence[int]],
    eq_pivots: Sequence[int],
) -> Inequality:
    """Unique facet representative: reduce the normal modulo the affine hull.

    Normals supporting the same facet differ by an equation-normal
    combination; eliminating the equation pivot coordinates and rescaling to
    a primitive integer vector makes the representative construction-path
    independent.  That moves a.x by one constant on the affine hull and
    scales it by a positive factor, so the bound is the new normal's value at
    a point `tight` where a was tight.
    """
    vec = list(a)
    for row, pivot in zip(eq_rref, eq_pivots):  # integer RREF rows, row[pivot] > 0
        factor = vec[pivot]
        if factor:
            vec = [row[pivot] * x - factor * y for x, y in zip(vec, row)]
    reduced = linalg.primitive_vector(vec)
    return reduced, _dot(reduced, tight)


def _assemble(
    ambient: int,
    points: Iterable[Point],
    candidates: Iterable[Inequality],
    equations: tuple[Inequality, ...] | None = None,
) -> LatticePolytope:
    """Build the hull of the points from a complete candidate inequality set.

    `candidates` must include every facet, and one violated by a point raises
    ValueError; `equations` is the affine hull of the points when the caller
    has it.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("a polytope needs at least one point")

    # Tight sets as bitmasks over the points, each with the first candidate
    # tight there and its point indices.
    columns = list(zip(*pts))
    tight_sets: dict[int, tuple[tuple[int, ...], list[int]]] = {}
    for a, b in candidates:
        values = _values(a, columns, len(pts))
        if max(values) > b:
            raise ValueError(f"inequality {list(a)}.x <= {b} is violated by a point")
        on = [i for i, v in enumerate(values) if v == b]
        if on and len(on) < len(pts):  # tight at every point: an equation
            tight_sets.setdefault(sum(1 << i for i in on), (a, on))

    # The facets are the maximal proper tight sets: each face lies in a facet.
    facet_masks: list[int] = []
    for mask in sorted(tight_sets, key=int.bit_count, reverse=True):
        if all(mask & f != mask for f in facet_masks):
            facet_masks.append(mask)
    if equations is None:
        equations = _equations_from_points(pts, ambient)
    eq_rref, eq_pivots = linalg.rref([list(a) for a, _ in equations], ambient)

    # A vertex is the only point on every facet through it.
    meet = [(1 << len(pts)) - 1] * len(pts)
    for mask in facet_masks:
        for i in tight_sets[mask][1]:
            meet[i] &= mask
    vertex_index = {i: j for j, i in enumerate(k for k in range(len(pts)) if meet[k] == 1 << k)}
    facets = []
    for mask in facet_masks:
        a, on = tight_sets[mask]
        if len(vertex_index) < len(pts):  # the tight set's vertices, by vertex index
            mask = sum(1 << vertex_index[i] for i in on if i in vertex_index)
        facets.append((_canonical_inequality(a, pts[on[0]], eq_rref, eq_pivots), mask))
    inequalities, masks = zip(*sorted(facets)) if facets else ((), ())
    verts = tuple(map(pts.__getitem__, vertex_index))
    return LatticePolytope(ambient, verts, inequalities, equations, ambient - len(equations), masks)


# -- polymatroid polytopes --------------------------------------------------------


def require_greedy(n: int) -> None:
    """The greedy guard of every base and independence polytope on n elements."""
    if n > MAX_GREEDY_GROUND_SET:
        raise ResourceLimit(f"greedy enumeration capped at n <= {MAX_GREEDY_GROUND_SET}")


def _greedy_points(f: SetFunction) -> list[set[Point]]:
    """Greedy points of the j-element prefixes, j = 0..n, as n + 1 levels.

    Each distinct (prefix mask, point) state grows by every element e outside
    the prefix, with coordinate f(mask | e) - f(mask), so no state of the n!
    orders is built twice."""
    n = f.n
    require_greedy(n)
    values = f.values
    if values[0] != 0:
        raise ValueError(f"not a polymatroid: f(empty set) = {values[0]}, not 0")
    states = {(0, (0,) * n)}
    levels = [{(0,) * n}]
    for _ in range(n):
        states = {
            (mask | 1 << e, point[:e] + (values[mask | 1 << e] - values[mask],) + point[e + 1 :])
            for mask, point in states
            for e in range(n)
            if not mask >> e & 1
        }
        levels.append({point for _, point in states})
    return levels


def _submodular_candidates(f: SetFunction) -> list[Inequality]:
    """x(S) <= f(S) for every nonempty S, then -x_i <= 0 for every i."""
    n = f.n
    sums = [(tuple(mask >> i & 1 for i in range(n)), f.values[mask]) for mask in range(1, 1 << n)]
    return sums + [(tuple(-1 if j == i else 0 for j in range(n)), 0) for i in range(n)]


def independence_polytope(f: SetFunction) -> LatticePolytope:
    """Polytope {x >= 0 : sum over S of x_i <= f(S)} with greedy vertices."""
    return _assemble(f.n, set().union(*_greedy_points(f)), _submodular_candidates(f))


def base_polytope(f: SetFunction) -> LatticePolytope:
    """Face of the independence polytope at the rank equation.

    Both constructors raise ValueError when f is not a polymatroid.
    """
    return _assemble(f.n, _greedy_points(f)[-1], _submodular_candidates(f))


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
    bases = [mask for mask in range(1 << n) if mask.bit_count() == f.values[mask] == d]
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


def polytope_from_points(points: Iterable[Sequence[int]]) -> LatticePolytope:
    """Convex hull via brute-force facet search with exact orientation tests.

    The search runs in the chart of the affine hull by its free coordinates:
    the hull is a graph over the non-pivot columns of the equations' RREF, so
    a chart normal lifts to the ambient normal with the same entries on those
    columns and 0 elsewhere.
    """
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if not pts:
        raise ValueError("a polytope needs at least one point")
    ambient = len(pts[0])
    if ambient > MAX_HULL_AMBIENT_DIM:
        raise ResourceLimit(f"hull search capped at ambient dimension {MAX_HULL_AMBIENT_DIM}")
    equations = _equations_from_points(pts, ambient)
    pivots = set(linalg.rref([a for a, _ in equations], ambient)[1])
    free = [i for i in range(ambient) if i not in pivots]
    dim = len(free)
    if comb(len(pts), dim) > MAX_HULL_SUBSETS:
        raise ResourceLimit(
            f"facet search over {len(pts)} points in dimension {dim} exceeds the cap"
        )
    charted = [[p[i] for i in free] for p in pts]

    # the hyperplane w.x = b through each affinely independent dim-subset
    normals: set[tuple[tuple[int, ...], int]] = set()
    for subset in combinations(charted, dim):
        kern = linalg.kernel_basis([[*c, -1] for c in subset], dim + 1)
        if len(kern) != 1:
            continue
        *w, b = kern[0]
        values = [_dot(w, c) for c in charted]
        top, bottom = max(values), min(values)
        if top == b and bottom < b:
            normals.add((tuple(w), b))
        elif bottom == b and top > b:
            normals.add((tuple(-x for x in w), -b))

    candidates: list[Inequality] = []
    for w, b in normals:
        a = [0] * ambient
        for i, x in zip(free, w):
            a[i] = x
        candidates.append((tuple(a), b))
    return _assemble(ambient, pts, candidates, equations)


def _edges_in_arrangement(p: LatticePolytope) -> bool:
    """True when every edge is parallel to some e_i or e_i - e_j.

    Then the normal fan coarsens the fan of the arrangement of the hyperplanes
    x_i = 0 and x_i = x_j, whose rays are (negated) indicator vectors.
    """
    for f in faces(p):
        if f.dim == 1:
            u, v = f.vertices
            step = sorted(x for x in linalg.primitive_vector([b - a for a, b in zip(u, v)]) if x)
            if step not in ([1], [-1], [-1, 1]):
                return False
    return True


def minkowski_sum(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    """Convex hull of pairwise vertex sums with irredundant V- and H-rep."""
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if len(p.vertices) * len(q.vertices) > MAX_VERTEX_PRODUCT:
        raise ResourceLimit("vertex product exceeds the desk-scale cap")
    ambient = p.ambient_dim
    sums = sorted({tuple(a + b for a, b in zip(u, w)) for u in p.vertices for w in q.vertices})

    if (
        ambient <= MAX_HULL_AMBIENT_DIM
        and _edges_in_arrangement(p)
        and _edges_in_arrangement(q)
    ):
        # Each edge of the sum is parallel to an edge of a summand, so the
        # sum's normal fan coarsens the arrangement's too: every facet normal
        # is a (negated) indicator vector.
        candidates: list[Inequality] = []
        for mask in range(1, 1 << ambient):
            normal = tuple(1 if mask >> i & 1 else 0 for i in range(ambient))
            candidates.append((normal, max(_dot(normal, s) for s in sums)))
            neg = tuple(-x for x in normal)
            candidates.append((neg, max(_dot(neg, s) for s in sums)))
        return _assemble(ambient, sums, candidates)

    return polytope_from_points(sums)


# -- lattice points ----------------------------------------------------------------


def lattice_points(p: LatticePolytope) -> list[Point]:
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


# -- faces, simplicity, smoothness ---------------------------------------------------


def faces(p: LatticePolytope) -> list[Face]:
    """All nonempty faces as the meet-closure of facet vertex incidences.

    A face's dimension is one more than the largest among its nonempty proper
    meets with the facets (its own facets are among them); a vertex has none.
    """
    facet_masks = p.facet_masks
    full = (1 << len(p.vertices)) - 1
    closed = {full}
    frontier = [full]
    while frontier:
        new: list[int] = []
        for fs in facet_masks:
            for cur in frontier:
                meet = cur & fs
                if meet and meet not in closed:
                    closed.add(meet)
                    new.append(meet)
        frontier = new

    dims: dict[int, int] = {}
    result = []
    for mask in sorted(closed, key=int.bit_count):  # meets come before the face
        dims[mask] = 1 + max(
            (dims[m] for fs in facet_masks if (m := mask & fs) and m != mask), default=-1
        )
        members = tuple(i for i, bit in enumerate(reversed(bin(mask))) if bit == "1")
        facets = frozenset(j for j, fs in enumerate(facet_masks) if mask & fs == mask)
        result.append(
            Face(members, tuple(p.vertices[i] for i in members), dims[mask], facets)
        )
    result.sort(key=lambda f: (f.dim, f.vertex_indices))
    return result


def is_simple(p: LatticePolytope) -> tuple[bool, Point | None]:
    """Every vertex on exactly dim edges; returns (verdict, witness vertex).

    A vertex is on exactly dim edges iff it is on exactly dim facets (Ziegler,
    Lectures on Polytopes, 2.5), and the witness is the first vertex that is
    not.  On a polymatroid polytope (every `base_polytope` and
    `independence_polytope`) simple is the same as lattice smooth: each edge
    is parallel to some e_i or e_i - e_j (Topkis 1984), so the dim primitive
    edge vectors at a simple vertex are independent columns of a totally
    unimodular matrix and form a lattice basis (Schrijver 1986, ch. 19).
    """
    counts = ((v, sum(m >> i & 1 for m in p.facet_masks)) for i, v in enumerate(p.vertices))
    witness = next((v for v, count in counts if count != p.dim), None)
    return witness is None, witness


def is_smooth(p: LatticePolytope) -> tuple[bool, Point | None]:
    """Simple with a lattice basis of primitive edge vectors at every vertex.

    The determinant test for a generic lattice polytope; on a polymatroid
    polytope `is_simple` gives the same answer.  At a simple vertex each edge
    is the meet of all but one of its dim facets.  The primitive edge vectors
    U lie in the saturated direction lattice with basis B, so U = T B for an
    integer T, and they are a lattice basis iff |det T| = 1, iff
    |det U_R| = |det B_R| on pivot columns R of B.
    """
    simple, witness = is_simple(p)
    if not simple:
        return False, witness
    full = (1 << len(p.vertices)) - 1
    basis = linalg.integer_kernel_basis([a for a, _ in p.equations], p.ambient_dim)
    _, cols = linalg.rref(basis)
    index = linalg.abs_det([[b[c] for c in cols] for b in basis])
    for i, v in enumerate(p.vertices):
        at = [m for m in p.facet_masks if m >> i & 1]
        rows = []
        for j in range(p.dim):
            edge = reduce(and_, at[:j] + at[j + 1 :], full) ^ 1 << i
            w = p.vertices[edge.bit_length() - 1]
            u = linalg.primitive_vector([w[c] - v[c] for c in range(p.ambient_dim)])
            rows.append([u[c] for c in cols])
        if linalg.abs_det(rows) != index:
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
        if linalg.kernel_basis(rows, n):
            continue  # the subsystem has no unique solution
        sol = linalg.solve(rows, rhs)
        if sol is None:
            continue
        if p.contains(sol):
            out.add(tuple(sol))
    return out
