"""Exact lattice-polytope geometry for submodular set functions.

Polytopes are stored with an exact integer V-representation plus an
irredundant integer H-representation (facet inequalities and affine-hull
equations), with each facet's vertices as `facet_masks`.  Independence and
base polytopes P(f) and B(f) are read off f's table.  One check makes f a
polymatroid, else raises ValueError naming the axiom and a witness: f(empty
set) = 0 and diminishing marginals, f(S+i) - f(S) >= f(S+i+j) - f(S+j) >= 0
for i, j outside S.  The vertices are the greedy vectors, over prefixes closed
under elements of marginal 0; the equations are x(C) = f(C) for the
components C of f on B(f) and x_i = 0 for the loops i on P(f); the facets are
the maximal proper vertex sets tight at some x(S) <= f(S), or -x_i <= 0 on
P(f), with x(S) summed at every vertex at once.  Generic hulls (Newton
polytopes, point-set sums) get candidate inequalities from a brute-force
facet search with exact orientation tests, in the chart of the affine hull by
its free coordinates, and read the rest off the point-facet incidences: the
facets are the maximal proper tight sets and a vertex is the only point on
every facet through it.  A face's dimension follows from the meets of the
face lattice.  Simplicity needs no face lattice: a vertex is simple when it
lies on dim facets.  On a polymatroid polytope simple is already smooth (see
`is_simple`); for a generic lattice polytope each edge at a simple vertex is
the meet of all but one of its facets, and lattice smoothness is one
determinant per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import comb
from operator import and_, or_
from typing import Iterable, Sequence

from . import linalg
from .guards import ResourceLimit
from .setfunc import SetFunction, is_matroid, mask_to_set

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
_ZERO_FLAGS = bytes.maketrans(b"\0\x80", b"10")  # a field's top byte: 1 where the field is 0

Point = tuple[int, ...]
Inequality = tuple[tuple[int, ...], int]  # normal a, bound b meaning a.x <= b


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(p * q for p, q in zip(a, x))


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


def _assemble(
    ambient: int,
    points: Iterable[Point],
    candidates: Iterable[Inequality],
    equations: tuple[Inequality, ...] | None = None,
) -> LatticePolytope:
    """Build the hull of the points from a complete candidate inequality set.

    `candidates` must include every facet, and one violated by a point raises
    ValueError; `equations` is the points' affine hull when the caller has it.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("a polytope needs at least one point")

    # Tight sets as point masks, each with the first candidate tight there and its points.
    columns = list(zip(*pts))
    tight_sets: dict[int, tuple[tuple[int, ...], list[int]]] = {}
    for a, b in candidates:
        values = [0] * len(pts)  # a.x at every point, a column per nonzero entry of a
        for c, column in zip(a, columns):
            if c:
                values = [v + c * x for v, x in zip(values, column)]
        if max(values) > b:
            raise ValueError(f"inequality {list(a)}.x <= {b} is violated by a point")
        on = [i for i, v in enumerate(values) if v == b]
        if on and len(on) < len(pts):  # tight at every point: an equation
            tight_sets.setdefault(sum(1 << i for i in on), (a, on))

    if equations is None:
        equations = _equations_from_points(pts, ambient)
    facet_masks = _maximal(tight_sets)
    meet = [(1 << len(pts)) - 1] * len(pts)  # a vertex: the only point on every facet through it
    for mask in facet_masks:
        for i in tight_sets[mask][1]:
            meet[i] &= mask
    vertex_index = {i: j for j, i in enumerate(k for k in range(len(pts)) if meet[k] == 1 << k)}
    facets = []
    for mask in facet_masks:
        a, on = tight_sets[mask]
        if len(vertex_index) < len(pts):  # the tight set's vertices, by vertex index
            mask = sum(1 << vertex_index[i] for i in on if i in vertex_index)
        facets.append((a, mask))
    return _polytope(ambient, list(map(pts.__getitem__, vertex_index)), facets, equations)


def _maximal(masks: Iterable[int]) -> list[int]:
    """The maximal masks: the facets among the proper tight sets, as each face lies in one."""
    out: list[int] = []
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        if all(mask & m != mask for m in out):
            out.append(mask)
    return out


def _polytope(
    ambient: int, verts: list[Point], facets: list, equations: tuple[Inequality, ...]
) -> LatticePolytope:
    """The polytope of the vertices, each facet given by a normal and its vertex mask.

    Normals supporting one facet differ by an equation-normal combination, so
    eliminating the equations' pivot coordinates and rescaling to a primitive
    integer vector gives each facet one representative.  That moves a.x by one
    constant on the affine hull and scales it by a positive factor, so the
    bound is the new normal's value at any vertex of the facet.
    """
    eq_rref, eq_pivots = linalg.rref([list(a) for a, _ in equations], ambient)
    canonical = []
    for a, mask in facets:
        for row, pivot in zip(eq_rref, eq_pivots):  # integer RREF rows, row[pivot] > 0
            if factor := a[pivot]:
                a = [row[pivot] * x - factor * y for x, y in zip(a, row)]
        a = linalg.primitive_vector(a)
        canonical.append(((a, _dot(a, verts[(mask & -mask).bit_length() - 1])), mask))
    inequalities, masks = zip(*sorted(canonical)) if canonical else ((), ())
    dim = ambient - len(equations)
    return LatticePolytope(ambient, tuple(verts), inequalities, equations, dim, masks)


# -- polymatroid polytopes --------------------------------------------------------


def require_greedy(n: int) -> None:
    """The greedy guard of every base and independence polytope on n elements."""
    if n > MAX_GREEDY_GROUND_SET:
        raise ResourceLimit(f"greedy enumeration capped at n <= {MAX_GREEDY_GROUND_SET}")


def _check_polymatroid(f: SetFunction) -> None:
    """ValueError naming the broken axiom and a witness unless f(empty set) = 0 and
    the marginals diminish: f(S+i) - f(S) >= f(S+i+j) - f(S+j) >= 0 for i, j not in S."""
    values, full = f.values, (1 << f.n) - 1
    if values[0] != 0:
        raise ValueError(f"not a polymatroid: f(empty set) = {values[0]}, not 0")
    for s, fs in enumerate(values):
        out = [1 << e for e in range(f.n) if not s >> e & 1]
        for a, i in enumerate(out):
            for j in out[a + 1 :]:
                if values[s | i] - fs < values[s | i | j] - values[s | j]:
                    raise ValueError(
                        "not a polymatroid: not submodular, f(S+i) - f(S) < f(S+i+j) - f(S+j) "
                        f"at S={list(mask_to_set(s))}, i={i.bit_length()}, j={j.bit_length()}"
                    )
            if s | i == full and values[full] < fs:  # i's marginals diminish to this one
                where = f"at S={list(mask_to_set(s))}, i={i.bit_length()}"
                raise ValueError(f"not a polymatroid: not monotone, f(S+i) < f(S) {where}")


def _polymatroid_polytope(f: SetFunction, bases_only: bool) -> LatticePolytope:
    """B(f) or P(f), read off f's table once it passes the check.

    Past the check an element of marginal 0 at a prefix keeps marginal 0 at
    every larger one, so a greedy state (prefix mask, point) jumps to its
    closure.  Each greedy point is the only maximiser of a weight vector with
    distinct nonzero entries, as no edge is orthogonal to it, so it is a vertex.
    """
    n, values = f.n, f.values
    require_greedy(n)
    _check_polymatroid(f)
    size, full = 1 << n, (1 << n) - 1
    closures: dict[int, int] = {}  # prefix mask: the elements of marginal 0 there

    def closure(mask: int) -> int:
        if mask not in closures:
            closures[mask] = sum(1 << e for e in range(n) if values[mask | 1 << e] == values[mask])
        return closures[mask]

    states, points = {(closure(0), (0,) * n)}, set()
    while states:
        points |= {point for mask, point in states if mask == full or not bases_only}
        states = {
            (closure(m), point[:e] + (values[m] - values[mask],) + point[e + 1 :])
            for mask, point in states
            for e in range(n)
            if (m := mask | 1 << e) != mask
        }
    verts = sorted(points)
    if bases_only:  # the components: each element's least separator
        separators = [t for t in range(1, size) if values[t] + values[full ^ t] == values[full]]
        parts = {reduce(and_, (t for t in separators if t >> i & 1)) for i in range(n)}
    else:  # the loops
        parts = {1 << i for i in range(n) if values[1 << i] == 0}
    equations = tuple(sorted((_normal(c, n), values[c]) for c in parts))

    # One field of `width` bytes per vertex holds f(E) below its top bit, so
    # adding top - ones to a nonnegative slack sets the top bit iff it is not 0.
    width, count = (values[full].bit_length() + 8) // 8, len(verts)
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * count, "little")
    top = ones << 8 * width - 1

    def tight(slack: int) -> int:  # the mask of the vertices where the slack is 0
        flags = ((slack + top - ones) & top).to_bytes(width * count, "little")[width - 1 :: width]
        return int(flags.translate(_ZERO_FLAGS)[::-1], 2)

    packed = (b"".join(v[i].to_bytes(width, "little") for v in verts) for i in range(n))
    columns = [int.from_bytes(column, "little") for column in packed]
    sums = [0] * size  # x(S) at every vertex
    named: dict[int, int] = {}  # tight mask: S for x(S) <= f(S), or -{i} for -x_i <= 0
    for s in range(1, size):
        sums[s] = sums[s & s - 1] + columns[(s & -s).bit_length() - 1]
        named.setdefault(tight(values[s] * ones - sums[s]), s)
    for i in range(0 if bases_only else n):
        named.setdefault(tight(columns[i]), -1 << i)
    proper = named.keys() - {0, (1 << count) - 1}  # tight at every vertex: an equation
    return _polytope(n, verts, [(_normal(named[m], n), m) for m in _maximal(proper)], equations)


def _normal(code: int, n: int) -> tuple[int, ...]:
    """The indicator vector of the set code, or its negative for the code -set."""
    return tuple((abs(code) >> i & 1) * (1 if code > 0 else -1) for i in range(n))


def independence_polytope(f: SetFunction) -> LatticePolytope:
    """P(f) = {x >= 0 : x(S) <= f(S)}; ValueError when f is not a polymatroid."""
    return _polymatroid_polytope(f, bases_only=False)


def base_polytope(f: SetFunction) -> LatticePolytope:
    """B(f), the face of P(f) at x(E) = f(E); ValueError when f is not a polymatroid."""
    return _polymatroid_polytope(f, bases_only=True)


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
            value = dict(zip(elements, assignment))
            out.add(tuple(value.get(i, 0) for i in range(n)))
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

    chart = {i: k for k, i in enumerate(free)}  # the chart coordinate of each free column
    lift = [[w[chart[i]] if i in chart else 0 for i in range(ambient)] for w, _ in normals]
    candidates = [(tuple(a), b) for a, (_, b) in zip(lift, normals)]
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

    if ambient <= MAX_HULL_AMBIENT_DIM and _edges_in_arrangement(p) and _edges_in_arrangement(q):
        # Each edge of the sum is parallel to an edge of a summand, so the
        # sum's normal fan coarsens the arrangement's too: every facet normal
        # is a (negated) indicator vector.
        normals = [_normal(c, ambient) for m in range(1, 1 << ambient) for c in (m, -m)]
        return _assemble(ambient, sums, [(a, max(_dot(a, s) for s in sums)) for a in normals])

    return polytope_from_points(sums)


# -- lattice points ----------------------------------------------------------------


def lattice_points(p: LatticePolytope) -> list[Point]:
    """All integer points of the polytope, by pruned bounding-box scan."""
    n = p.ambient_dim
    lo = [min(v[i] for v in p.vertices) for i in range(n)]
    hi = [max(v[i] for v in p.vertices) for i in range(n)]
    constraints: list[Inequality] = list(p.inequalities)
    for a, b in p.equations:
        constraints += [(a, b), (tuple(-x for x in a), -b)]

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
        dim, facets = -1, []
        for j, fs in enumerate(facet_masks):  # one scan: the facets, and the proper meets
            if (m := mask & fs) == mask:
                facets.append(j)
            elif m and dims[m] > dim:
                dim = dims[m]
        dims[mask] = dim = dim + 1
        members = tuple(i for i, bit in enumerate(reversed(bin(mask))) if bit == "1")
        result.append(Face(members, tuple(p.vertices[i] for i in members), dim, frozenset(facets)))
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
    The counts are bit-sliced: plane k holds bit k of each vertex's count, and
    each facet mask ripples through the planes as a carry.
    """
    planes: list[int] = []
    for carry in p.facet_masks:
        for k, plane in enumerate(planes):
            planes[k], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    full = (1 << len(p.vertices)) - 1  # each vertex is on at least dim facets: planes cover dim
    wrong = reduce(or_, (plane ^ full * (p.dim >> k & 1) for k, plane in enumerate(planes)), 0)
    return (False, p.vertices[(wrong & -wrong).bit_length() - 1]) if wrong else (True, None)


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
    for subset in combinations(range(len(p.inequalities)), min(p.dim, len(p.inequalities))):
        rows = eq_rows + [[Fraction(x) for x in p.inequalities[j][0]] for j in subset]
        rhs = eq_rhs + [Fraction(p.inequalities[j][1]) for j in subset]
        if linalg.kernel_basis(rows, n):
            continue  # the subsystem has no unique solution
        sol = linalg.solve(rows, rhs)
        if sol is None:
            continue
        if p.contains(sol):
            out.add(tuple(sol))
    return out
