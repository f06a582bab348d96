"""The paper's lemma checks and the test-only oracles, outside the library.

Nothing here is on the certificate path: the library builds only polymatroid
polytopes, reads lattice smoothness as simplicity, and decides each order by
its face walk.  The tests check the paper's lemmas and cross-check the
library against these independent routes:

  * the generic hull: `polytope_from_points`, a brute-force facet search with
    exact orientation tests in the chart of the affine hull by its free
    coordinates, and `minkowski_sum`, which reads a sum of polytopes whose
    edges lie in the braid arrangement off indicator normals;
  * `matroid_staircase_vertices`, the summed-truncation polytope of a matroid
    written down directly, and `is_matroid`;
  * `enumerate_basic_vertices`, the basic feasible points of an
    H-representation;
  * `check_simplicity_conditions`, the combinatorial simplicity conditions
    with `is_inseparable`;
  * `polymatroid_from_hyperbolic`, line degrees along indicator directions;
  * `span_contains` and `binomial_identity_report`, the derivative-span
    membership and the subset-sum identity;
  * `check_derivative_supports`, the derivative supports against the
    truncation polytopes' lattice points;
  * `saturate_by_product_elimination`, the saturation by one elimination, on
    the test-side elimination order `helpers.EliminationPacking`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from typing import Iterable, Sequence

from omegalab import linalg
from omegalab.derivatives import DerivativeSpace
from omegalab.groebner import DEFAULT_MAX_PAIRS, IntPoly, buchberger_intdicts
from omegalab.guards import ResourceLimit, ground_set_guard
from omegalab.poly import Polynomial
from omegalab.polytope import (
    Inequality,
    LatticePolytope,
    Point,
    _dot,
    _lattice,
    _maximal,
    _normal,
    base_polytope,
)
from omegalab.setfunc import (
    SetFunction,
    hyperbolic_rank,
    is_polymatroid,
    mask_to_set,
    rank_from_support,
    truncate,
)

from helpers import (
    eliminating_buchberger_intdicts,
    lattice_points,
    partials_support,
    reference_solve,
)

MAX_HULL_AMBIENT_DIM = 6
MAX_HULL_SUBSETS = 500_000
MAX_VERTEX_PRODUCT = 10**6
MAX_PARTITION_GROUND_SET = 8


# -- generic hulls ----------------------------------------------------------------


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
    The facets are the maximal proper tight sets, and a vertex is the only
    point on every facet through it.

    Normals supporting one facet differ by an equation-normal combination, so
    eliminating the equations' pivot coordinates and rescaling to a primitive
    integer vector gives each facet one representative.  That moves a.x by one
    constant on the affine hull and scales it by a positive factor, so the
    bound is the new normal's value at any vertex of the facet.
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
    verts = list(map(pts.__getitem__, vertex_index))
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
    for dim, mask in _lattice(p.facet_masks, len(p.vertices)):
        if dim == 1:
            u, v = (p.vertices[i] for i in mask_to_set(mask, 0))
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


def enumerate_basic_vertices(p: LatticePolytope) -> set[tuple[Fraction, ...]]:
    """All basic feasible points of the H-representation.

    Solves every maximal tight subsystem of facet equalities together with
    the affine-hull equations and keeps the unique solutions that satisfy
    every inequality.
    """
    out: set[tuple[Fraction, ...]] = set()
    for subset in combinations(p.inequalities, min(p.dim, len(p.inequalities))):
        system = [*p.equations, *subset]
        rows = [a for a, _ in system]
        if linalg.kernel_basis(rows, p.ambient_dim):
            continue  # the subsystem has no unique solution
        sol = reference_solve(rows, [b for _, b in system])
        if sol is not None and all(_dot(a, sol) <= b for a, b in p.inequalities):
            out.add(tuple(sol))
    return out


# -- matroids and the summed-truncation staircase -----------------------------------


def is_matroid(f: SetFunction) -> bool:
    report = is_polymatroid(f)
    if not report.ok:
        return False
    return all(f.values[1 << i] <= 1 for i in range(f.n))


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


# -- inseparability and the combinatorial simplicity conditions ----------------------


def _proper_splits(mask: int):
    """Yield (part, complement) over unordered 2-partitions of mask."""
    low = mask & -mask
    sub = (mask - 1) & mask
    while sub:
        if sub & low:
            rest = mask & ~sub
            if rest:
                yield sub, rest
        sub = (sub - 1) & mask


def is_inseparable(f: SetFunction, mask: int) -> bool:
    """True iff every 2-partition of the subset has strictly subadditive value.

    Subsets of size at most one are inseparable by convention.
    """
    if mask.bit_count() <= 1:
        return True
    fm = f.values[mask]
    for part, rest in _proper_splits(mask):
        if fm >= f.values[part] + f.values[rest]:
            return False
    return True


@dataclass(frozen=True)
class SimplicityReport:
    holds: bool
    kind: str | None = None  # "meet-join" or "partition"
    witness: tuple | None = None


def _partitions_of_mask(mask: int):
    """All partitions of the subset `mask` into >= 1 nonempty blocks."""
    elements = [i for i in range(mask.bit_length()) if mask >> i & 1]

    def rec(idx: int, blocks: list[int]):
        if idx == len(elements):
            yield list(blocks)
            return
        bit = 1 << elements[idx]
        for i in range(len(blocks)):
            blocks[i] |= bit
            yield from rec(idx + 1, blocks)
            blocks[i] &= ~bit
        blocks.append(bit)
        yield from rec(idx + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def check_simplicity_conditions(f: SetFunction) -> SimplicityReport:
    """Exhaustively verify the two combinatorial simplicity conditions.

    (a) for subsets S, T that overlap properly, both exceed their meet, and
        are inseparable together with their join: strict submodularity
        f(S&T) + f(S|T) < f(S) + f(T);
    (b) for every family of >= 2 disjoint nonempty parts whose union U is
        dominated by an inseparable S (same value): f(U) < sum of part values.

    Returns the first violation in deterministic scan order, if any.
    """
    if f.n > MAX_PARTITION_GROUND_SET:
        raise ResourceLimit(
            f"ground set of size {f.n} exceeds the cap {MAX_PARTITION_GROUND_SET}"
        )
    size = 1 << f.n
    insep = [is_inseparable(f, mask) for mask in range(size)]

    for s in range(size):
        for t in range(size):
            meet = s & t
            if meet == 0 or meet == s or meet == t:
                continue
            if f.values[meet] >= f.values[s] or f.values[meet] >= f.values[t]:
                continue
            join = s | t
            if not (insep[s] and insep[t] and insep[join]):
                continue
            if f.values[meet] + f.values[join] >= f.values[s] + f.values[t]:
                return SimplicityReport(False, "meet-join", (s, t))

    for union in range(size):
        if union.bit_count() < 2:
            continue
        fu = f.values[union]
        witness_s = next(
            (s for s in range(size) if (s & union) == union and insep[s] and f.values[s] == fu),
            None,
        )
        if witness_s is None:
            continue
        for blocks in _partitions_of_mask(union):
            if len(blocks) < 2:
                continue
            if fu >= sum(f.values[b] for b in blocks):
                return SimplicityReport(False, "partition", (tuple(blocks), witness_s))

    return SimplicityReport(True)


def polymatroid_from_hyperbolic(h: Polynomial, base: Sequence) -> SetFunction:
    """Table of line degrees along indicator-sum directions from `base`."""
    point = [Fraction(x) for x in base]
    if h.evaluate(point) == 0:
        raise ValueError("polynomial vanishes at the base point")
    n = h.nvars
    ground_set_guard(n)
    values = []
    for mask in range(1 << n):
        direction = [Fraction(1) if mask >> i & 1 else Fraction(0) for i in range(n)]
        values.append(hyperbolic_rank(h, point, direction))
    return SetFunction(n, values)


# -- derivative spans and supports ----------------------------------------------------


def span_contains(space: DerivativeSpace, p: Polynomial) -> bool:
    """True iff p lies in the rational span of the order-k partials."""
    if p.is_zero:
        return True
    if not p.support() <= set(space.columns):
        return False
    row = [p.coefficient(c) for c in space.columns]
    return len(linalg.rref([*space.matrix, row], len(space.columns))[1]) == space.span_dimension


@dataclass(frozen=True)
class SubsetIdentityReport:
    holds: bool
    coefficient: int
    both_sides_zero: bool


def binomial_identity_report(n: int, d: int, k: int) -> SubsetIdentityReport:
    """Check the scaled hyperplane-sum identity in subset coordinates.

    Coordinates z_S are indexed by subsets S of [n] of size d - k.  For each
    ground element i the claim is

        C(n+k-1-d, n-d) * sum(z_S : S avoids i)
            == sum over T avoiding i, |T| = n-k, of sum(z_S : S inside T),

    verified symbolically as an equality of linear forms.
    """
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    if not 1 <= k < d:
        raise ValueError("need 1 <= k < d")
    size = d - k
    coefficient = comb(n + k - 1 - d, n - d)
    holds, nonzero_seen = True, False
    for i in range(n):
        others = [j for j in range(n) if j != i]
        lhs = {frozenset(s): coefficient for s in combinations(others, size)}  # coefficient > 0
        tops = combinations(others, n - k)
        rhs = Counter(frozenset(s) for t in tops for s in combinations(t, size))
        nonzero_seen |= bool(lhs or rhs)
        holds &= lhs == dict(rhs)
    return SubsetIdentityReport(holds, coefficient, not nonzero_seen)


def check_derivative_supports(h: Polynomial) -> list[int]:
    """Orders k where the derivative support differs from the truncation polytope.

    Compares, for every 0 <= k <= deg(h), the union of order-k partial
    supports with the lattice points of the base polytope of the k-th
    truncation of the support rank function.  Expected empty for M-convex
    support; reported literally otherwise.
    """
    if h.is_zero or not h.is_homogeneous:
        raise ValueError("polynomial must be nonzero and homogeneous")
    rho = rank_from_support(h.support())
    failures = []
    for k in range(h.total_degree + 1):
        expected = set(lattice_points(base_polytope(truncate(rho, k))))
        if partials_support(h, k) != expected:
            failures.append(k)
    return failures


# -- saturation by elimination ---------------------------------------------------------


def saturate_by_product_elimination(
    gens: Sequence[IntPoly], nvars: int, max_pairs: int = DEFAULT_MAX_PAIRS
) -> list[IntPoly]:
    """Independent saturation route: adjoin t * (product of variables) - 1,
    eliminate t, return the elimination ideal's basis.  Used as a cross-check
    oracle for saturate_coordinates."""

    extended = [{m + (0,): c for m, c in g.items()} for g in gens if g]
    extended.append({(1,) * (nvars + 1): 1, (0,) * (nvars + 1): -1})
    gb = eliminating_buchberger_intdicts(extended, max_pairs)  # t, the last variable
    out = []
    for g in gb:
        if all(m[nvars] == 0 for m in g):
            out.append({m[:nvars]: c for m, c in g.items()})
    return buchberger_intdicts(out, max_pairs=max_pairs)
