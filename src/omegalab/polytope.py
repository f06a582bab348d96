"""Exact lattice polytopes of polymatroids: the certificate's geometry.

Polytopes are stored with an exact integer V-representation plus an
irredundant integer H-representation (facet inequalities and affine-hull
equations), with each facet's vertices as `facet_masks`.  Independence and
base polytopes P(f) and B(f) are read off f's table.  The public constructors
run `setfunc.is_polymatroid` on f, else raise ValueError naming the broken
axiom and its witness; the certificate's polymatroids go unchecked.  The
vertices are the greedy vectors, over prefixes closed under elements of
marginal 0; the equations are x(C) = f(C) for the components C of f on B(f)
and x_i = 0 for the loops i on P(f).  The facets are the maximal proper
point sets tight at some x(S) <= f(S), or -x_i <= 0 on P(f), over points of
the polytope that include its vertices.  A facet's normal is that of S or -{i}
less its entry at min C on each equation set C: the sets are disjoint, so this
is the equations' RREF elimination, and its 0/+-1 entries are primitive.  The
face lattice, (dim, mask) per face, is the facets' meet closure `_lattice`,
which the certificate's walk runs over the derivative columns.  Simplicity
needs no face lattice: a vertex is simple when it lies on dim facets, and on a
polymatroid polytope simple is already lattice smooth (see `is_simple`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_
from typing import Iterable, Sequence

from .guards import greedy_guard
from .setfunc import SetFunction, is_polymatroid, mask_to_set

__all__ = [
    "LatticePolytope",
    "independence_polytope",
    "base_polytope",
    "is_simple",
]

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

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [list(v) for v in self.vertices],
            "inequalities": [{"a": list(a), "b": b} for a, b in self.inequalities],
            "equations": [{"a": list(a), "b": b} for a, b in self.equations],
        }


def _maximal(masks: Iterable[int]) -> list[int]:
    """The maximal masks: the facets among the proper tight sets, as each face lies in one."""
    out: list[int] = []
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        if all(mask & m != mask for m in out):
            out.append(mask)
    return out


# -- polymatroid polytopes --------------------------------------------------------


def _require_polymatroid(f: SetFunction) -> SetFunction:
    """f past the greedy guard, which bounds the axiom scan; else ValueError naming a witness."""
    greedy_guard(f.n)
    report = is_polymatroid(f)
    if not report.is_normalized:
        raise ValueError(f"not a polymatroid: f(empty set) = {f.values[0]}, not 0")
    if report.ok:
        return f
    a, b = report.violating_pair
    s = a & b
    where = f"at S={list(mask_to_set(s))}, i={(a ^ s or b ^ s).bit_length()}"
    if s == a:  # (S, S+i)
        raise ValueError(f"not a polymatroid: not monotone, f(S+i) < f(S) {where}")
    raise ValueError(  # (S+i, S+j)
        "not a polymatroid: not submodular, f(S+i) - f(S) < f(S+i+j) - f(S+j) "
        f"{where}, j={(b ^ s).bit_length()}"
    )


def _polymatroid_polytope(f: SetFunction, bases_only: bool) -> LatticePolytope:
    """B(f) or P(f), read off the table of a polymatroid f, which is not checked.

    For a polymatroid an element of marginal 0 at a prefix keeps marginal 0 at
    every larger one, so a greedy state (prefix mask, point) jumps to its
    closure.  Each greedy point is the only maximiser of a weight vector with
    distinct nonzero entries, as no edge is orthogonal to it, so it is a vertex.
    """
    n, values = f.n, f.values
    greedy_guard(n)
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
    # a_{min C} off each part C moves a.x by a constant on the hull: b is a.x at a facet vertex
    low = {i: (c & -c).bit_length() - 1 for c in parts for i in mask_to_set(c, 0)}
    facets = []
    for mask, code in _facets(f, verts, bases_only).items():
        a = _normal(code, n)
        a = tuple(x - a[low[i]] if i in low else x for i, x in enumerate(a))
        facets.append(((a, _dot(a, verts[(mask & -mask).bit_length() - 1])), mask))
    inequalities, masks = zip(*sorted(facets)) if facets else ((), ())
    return LatticePolytope(n, tuple(verts), inequalities, equations, n - len(parts), masks)


def _facets(f: SetFunction, points: Sequence[Point], bases_only: bool) -> dict[int, int]:
    """The facets of B(f) or P(f) as {mask of the points on it: code}, bit i for points[i].

    The points lie in the polytope and include its vertices; the code is S for
    x(S) <= f(S), or -{i} for -x_i <= 0, and x(S) is summed at every point at once.
    """
    n, values = f.n, f.values
    size, full = 1 << n, (1 << n) - 1
    # One field of `width` bytes per point holds f(E) below its top bit, so
    # adding top - ones to a nonnegative slack sets the top bit iff it is not 0.
    width, count = (values[full].bit_length() + 8) // 8, len(points)
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * count, "little")
    top = ones << 8 * width - 1

    def tight(slack: int) -> int:  # the mask of the points where the slack is 0
        flags = ((slack + top - ones) & top).to_bytes(width * count, "little")[width - 1 :: width]
        return int(flags.translate(_ZERO_FLAGS)[::-1], 2)

    packed = (b"".join(v[i].to_bytes(width, "little") for v in points) for i in range(n))
    columns = [int.from_bytes(column, "little") for column in packed]
    sums = [0] * size  # x(S) at every point
    named: dict[int, int] = {}  # tight mask: S for x(S) <= f(S), or -{i} for -x_i <= 0
    for s in range(1, size):
        sums[s] = sums[s & s - 1] + columns[(s & -s).bit_length() - 1]
        named.setdefault(tight(values[s] * ones - sums[s]), s)
    for i in range(0 if bases_only else n):
        named.setdefault(tight(columns[i]), -1 << i)
    proper = named.keys() - {0, (1 << count) - 1}  # tight at every point: an equation
    return {m: named[m] for m in _maximal(proper)}


def _normal(code: int, n: int) -> tuple[int, ...]:
    """The indicator vector of the set code, or its negative for the code -set."""
    return tuple((abs(code) >> i & 1) * (1 if code > 0 else -1) for i in range(n))


def independence_polytope(f: SetFunction) -> LatticePolytope:
    """P(f) = {x >= 0 : x(S) <= f(S)}; ValueError when f is not a polymatroid."""
    return _polymatroid_polytope(_require_polymatroid(f), bases_only=False)


def base_polytope(f: SetFunction) -> LatticePolytope:
    """B(f), the face of P(f) at x(E) = f(E); ValueError when f is not a polymatroid."""
    return _polymatroid_polytope(_require_polymatroid(f), bases_only=True)


# -- face lattices and simplicity -------------------------------------------------


def _lattice(facet_masks: Sequence[int], count: int) -> list[tuple[int, int]]:
    """(dim, mask) of every nonempty face, as the meet closure of the facets.

    The masks are over `count` sorted points of the polytope that include its
    vertices, so a face is its set of points and a vertex is a one-point face;
    the facets through a face are those whose mask contains its mask.
    A face's dimension is one more than the largest among its nonempty proper
    meets with the facets; a vertex has none.  The faces come by dimension,
    then by their vertices' indices in lexicographic order: two faces of one
    dimension are incomparable, so neither index tuple is a prefix of the
    other, and that order is the descending order of their bit-reversed masks
    cut to the vertices.
    """
    full = (1 << count) - 1
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

    vertices = sum(mask for mask in closed if mask & mask - 1 == 0)
    dims: dict[int, int] = {}
    for mask in sorted(closed, key=int.bit_count):  # meets come before the face
        dim = -1
        for fs in facet_masks:  # the nonempty proper meets
            if mask != (m := mask & fs) and m and dims[m] > dim:
                dim = dims[m]
        dims[mask] = dim + 1
    faces = zip(dims.values(), dims)
    return sorted(faces, key=lambda face: (face[0], -int(f"{face[1] & vertices:0{count}b}"[::-1], 2)))


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
