"""Buchberger engine and torus feasibility over the rationals.

The engine provides reduced Groebner bases, ideal membership, coordinate
saturation for homogeneous ideals, toric ideals of point configurations, and
the torus-feasibility decisions used by the smoothness criterion:

  * a linear fast path deciding feasibility by one integer kernel,
  * a general path that dehomogenizes, adjoins an inverted variable product,
    and tests whether the saturated ideal is the unit ideal.

Every operation takes and returns integer term dictionaries (IntPoly) keyed by
exponent tuples, toric generators included; a caller holding a `Polynomial`
converts it with `poly_to_intdict`.  A monomial order is a `MonomialOrder`, or
None for grevlex in index order.

Inside the Buchberger kernel a monomial is one int K = top * 2^s - E: E packs
the exponents in w-bit fields, placed by the order's ranking of the variables,
and top is the degree (plus, for an elimination order, the eliminated
exponent shifted above it).  K's integer order is the monomial order and K is
linear in the exponents, so a product is `+` and a leading term is `max`;
E = ceil(K / 2^s) * 2^s - K, and divisibility and lcm are tests on each
field's top (guard) bit.  Every popped leading monomial must keep its degree
below the guard bit; otherwise the call runs again with fields twice as wide.
Terms are primitive integer dictionaries, content-stripped after every
reduction, and exponent tuples appear only at the boundary: inputs, returned
bases and the public `normal_form`.

Resource caps surface as the explicit verdict "undecided", never as a wrong
answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .guards import ResourceLimit
from .linalg import integer_kernel_basis, kernel_basis
from .poly import Exponent, Polynomial, grevlex_key

IntPoly = dict[Exponent, int]

DEFAULT_MAX_PAIRS = 100_000
MAX_TORIC_POINTS = 12

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class FeasibilityVerdict:
    status: str  # feasible | infeasible | undecided
    method: str  # linear-algebra | groebner
    certificate: object = None

    @property
    def is_feasible(self) -> bool:
        return self.status == FEASIBLE

    @property
    def is_infeasible(self) -> bool:
        return self.status == INFEASIBLE


# -- integer term dictionaries -----------------------------------------------------


def _content_strip(p: dict, key: Callable[[Exponent], tuple] | None = None) -> dict:
    """Divide by the coefficient gcd and make the leading coefficient positive.

    Terms are keyed by exponent tuples ordered by `key`, or by packed ints."""
    p = {m: c for m, c in p.items() if c}
    if not p:
        return {}
    g = 0
    for c in p.values():
        g = gcd(g, c)
    if p[max(p, key=key)] < 0:
        g = -g
    return {m: c // g for m, c in p.items()}


def poly_to_intdict(p: Polynomial) -> IntPoly:
    return _content_strip(p.integer_terms()[1], grevlex_key)


# -- packed monomials ----------------------------------------------------------------


class MonomialOrder(NamedTuple):
    """Grevlex after a ranking of the variables: variable ranking[j] owns field j.

    Monomials compare by degree, then by the top field's exponent (less wins),
    then the next field down.  With `eliminate` the top field's exponent comes
    before the degree and more of it wins: an elimination order for it.
    """

    ranking: tuple[int, ...]
    eliminate: bool = False


class _Overflow(Exception):
    """A popped leading monomial reached the guard bit of the degree field."""


# (lead fields E, lead K, polynomial) of a content-stripped basis element
Reducer = tuple[int, int, dict[int, int]]


class _Packing:
    """Packed monomials (see the module docstring) of one order with w-bit fields."""

    def __init__(self, order: MonomialOrder, w: int):
        n = len(order.ranking)
        self.w, self.s, self.mask, self.half = w, w * n, (1 << w) - 1, 1 << (w - 1)
        self.guard = sum(self.half << (w * j) for j in range(n))
        self.shifts = [w * order.ranking.index(v) for v in range(n)]
        self.weights = [(1 << self.s) - (1 << sh) for sh in self.shifts]
        self.elim_shift = self.s - w if order.eliminate else self.s
        if order.eliminate:
            self.weights[order.ranking[-1]] += 1 << (self.s + w)

    def encode(self, p: IntPoly) -> dict[int, int]:
        return {sum(map(mul, m, self.weights)): c for m, c in p.items() if c}

    def exponents(self, k: int) -> int:
        top = -(-k >> self.s)
        return (top << self.s) - k

    def decode(self, p: dict[int, int]) -> IntPoly:
        out = {}
        for k, c in p.items():
            e = self.exponents(k)
            out[tuple(e >> sh & self.mask for sh in self.shifts)] = c
        return out

    def lcm(self, a: int, b: int) -> int:
        """K of the lcm of two monomials given by their in-range fields E."""
        d = a - b + self.guard  # no field borrows
        ge = d & self.guard  # guard bit set where a's field is at least b's
        e = b + (d & (ge - (ge >> (self.w - 1))))  # field-wise max
        # the degree (below mask), plus the eliminated exponent shifted above it
        top = e % self.mask + (e >> self.elim_shift << self.w)
        return (top << self.s) - e

    def reducer(self, g: dict[int, int]) -> Reducer:
        lead = max(g)
        return self.exponents(lead), lead, g


def _run_packed(order: MonomialOrder | None, polys: list[IntPoly], run: Callable):
    """`run(packing, packed polys)` with fields wide enough for the inputs.

    None is grevlex in index order.  On overflow the whole call runs again
    with fields twice as wide, so the answer never depends on the width.
    """
    nvars = len(next(m for p in polys for m in p))
    order = order or MonomialOrder(tuple(range(nvars)))
    if len(order.ranking) != nvars:
        raise ValueError("the order must rank every variable")
    width = max(8, max(sum(m) for p in polys for m in p).bit_length() + 1)
    while True:
        packing = _Packing(order, width)
        try:
            return run(packing, [packing.encode(p) for p in polys])
        except _Overflow:
            width *= 2


def _reduce(pk: _Packing, f: dict[int, int], reducers: Sequence[Reducer]) -> dict[int, int]:
    """Full multivariate division remainder, fraction-free, content-stripped.

    Raises _Overflow when a popped leading monomial's degree reaches the
    guard bit, so every term ever formed is the sum of two in-range monomials.
    """
    s, guard, half = pk.s, pk.guard, pk.half
    rem, out = dict(f), {}
    while rem:
        lm = max(rem)
        top = -(-lm >> s)
        if top & half:
            raise _Overflow
        lm_guarded = (top << s) - lm + guard
        for e, lead, g in reducers:
            if (lm_guarded - e) & guard == guard:  # lead divides lm
                break
        else:
            out[lm] = rem.pop(lm)
            continue
        c, lc = rem[lm], g[lead]
        d = gcd(c, lc)
        mult_rem, mult_g = lc // d, c // d
        if mult_rem != 1:
            rem = {m: v * mult_rem for m, v in rem.items()}
            out = {m: v * mult_rem for m, v in out.items()}
        shift = lm - lead
        for m, v in g.items():
            m += shift
            v = rem.get(m, 0) - mult_g * v
            if v:
                rem[m] = v
            else:
                del rem[m]
    return _content_strip(out)


def _s_poly(pk: _Packing, f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    lf, lg = max(f), max(g)
    lcm = pk.lcm(pk.exponents(lf), pk.exponents(lg))
    d = gcd(f[lf], g[lg])
    mf, mg, sf, sg = g[lg] // d, f[lf] // d, lcm - lf, lcm - lg
    out = {m + sf: v * mf for m, v in f.items()}
    for m, v in g.items():
        out[m + sg] = out.get(m + sg, 0) - v * mg
    return _content_strip(out)


def _buchberger(pk: _Packing, gens: list[dict[int, int]], max_pairs: int) -> list[dict]:
    basis: list[Reducer] = []
    for g in gens:
        g = _content_strip(g)
        if g and all(g != h for _, _, h in basis):
            basis.append(pk.reducer(g))
    guard = pk.guard
    # the set answers the chain criterion's membership tests, the heap the order
    pending: set[tuple[int, int]] = set(combinations(range(len(basis)), 2))
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
        r = _reduce(pk, _s_poly(pk, basis[i][2], basis[j][2]), basis)
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
    reduced = [_reduce(pk, g, minimal[:i] + minimal[i + 1 :]) for i, (*_, g) in enumerate(minimal)]
    return sorted((r for r in reduced if r), key=max)


# -- public boundary: exponent tuples in and out ---------------------------------------


def normal_form(
    f: IntPoly, basis: Sequence[IntPoly], order: MonomialOrder | None = None
) -> IntPoly:
    """Full multivariate division remainder, fraction-free, under `order`
    (None: grevlex in index order)."""

    def run(pk: _Packing, packed: list[dict[int, int]]) -> IntPoly:
        return pk.decode(_reduce(pk, packed[0], [pk.reducer(g) for g in packed[1:] if g]))

    return _run_packed(order, [f, *basis], run) if f else {}


def buchberger_intdicts(
    gens: Iterable[IntPoly],
    order: MonomialOrder | None = None,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> list[IntPoly]:
    """Reduced Groebner basis of integer term dictionaries.

    `order` defaults to grevlex in index order.  Normal pair-selection strategy
    with the coprime-leading-term and chain criteria.  Each pair is keyed
    once, when it is created, by the lcm of its leading monomials with the
    pair's indices breaking ties, and pairs are popped from a heap in that
    order.  Raises ResourceLimit once more than `max_pairs` pairs have been
    treated.  The basis is sorted by ascending leading monomial.
    """

    def run(pk: _Packing, packed: list[dict[int, int]]) -> list[IntPoly]:
        return [pk.decode(g) for g in _buchberger(pk, packed, max_pairs)]

    gens = [g for g in gens if g]
    return _run_packed(order, gens, run) if gens else []


def is_unit_ideal(gb: Sequence[IntPoly]) -> bool:
    return any(g and max(sum(m) for m in g) == 0 for g in gb)


# -- homogeneous coordinate saturation ----------------------------------------------


def _cheap_variable_order(nvars: int, var: int) -> MonomialOrder:
    """Graded reverse lexicographic order in which `var` is the cheapest variable."""
    return MonomialOrder(tuple(i for i in range(nvars) if i != var) + (var,))


def _divide_out(g: IntPoly, var: int) -> IntPoly:
    low = min(m[var] for m in g)
    if low == 0:
        return g
    out = {}
    for m, c in g.items():
        mm = list(m)
        mm[var] -= low
        out[tuple(mm)] = c
    return out


def _is_standard_homogeneous(g: IntPoly) -> bool:
    return len({sum(m) for m in g}) <= 1


def saturate_coordinates(
    gens: Sequence[IntPoly], nvars: int, max_pairs: int = DEFAULT_MAX_PAIRS
) -> list[IntPoly]:
    """Saturation of a standard-homogeneous ideal by the product of all variables.

    Performs one coordinate saturation per variable: a reverse-lexicographic
    Groebner basis with that variable cheapest, followed by dividing each
    element by its largest variable power.  Requires every generator to be
    homogeneous in the standard grading.
    """
    current = [g for g in gens if g]
    for g in current:
        if not _is_standard_homogeneous(g):
            raise ValueError("coordinate saturation requires homogeneous generators")
    for var in range(nvars):
        gb = buchberger_intdicts(current, _cheap_variable_order(nvars, var), max_pairs)
        current = [_divide_out(g, var) for g in gb]
    return buchberger_intdicts(current, max_pairs=max_pairs)


def saturate_by_product_elimination(
    gens: Sequence[IntPoly], nvars: int, max_pairs: int = DEFAULT_MAX_PAIRS
) -> list[IntPoly]:
    """Independent saturation route: adjoin t * (product of variables) - 1,
    eliminate t, return the elimination ideal's basis.  Used as a cross-check
    oracle for saturate_coordinates."""

    extended = [{m + (0,): c for m, c in g.items()} for g in gens if g]
    extended.append({(1,) * (nvars + 1): 1, (0,) * (nvars + 1): -1})
    t_first = MonomialOrder(tuple(range(nvars + 1)), eliminate=True)
    gb = buchberger_intdicts(extended, t_first, max_pairs)
    out = []
    for g in gb:
        if all(m[nvars] == 0 for m in g):
            out.append({m[:nvars]: c for m, c in g.items()})
    return buchberger_intdicts(out, max_pairs=max_pairs)


# -- toric ideals -------------------------------------------------------------------


@dataclass(frozen=True)
class ToricIdeal:
    """Toric ideal of a point configuration, in one variable per point."""

    points: tuple[Exponent, ...]  # descending grevlex; column i <-> variable z_i
    generators: tuple[IntPoly, ...] = field(hash=False)  # reduced Groebner basis, grevlex


def toric_ideal(
    points: Iterable[Exponent], max_pairs: int = DEFAULT_MAX_PAIRS
) -> ToricIdeal:
    """Kernel of the monomial map of the configuration.

    Computed as the saturation of the lattice ideal spanned by a lattice
    basis of the integer kernel of the (graded) configuration matrix with
    respect to the product of all coordinates.
    """
    pts = sorted({tuple(int(x) for x in p) for p in points}, key=grevlex_key, reverse=True)
    if not pts:
        raise ValueError("empty point configuration")
    if len(pts) > MAX_TORIC_POINTS:
        raise ResourceLimit(f"toric ideal capped at {MAX_TORIC_POINTS} points")
    n = len(pts[0])
    rows = [[p[i] for p in pts] for i in range(n)]
    rows.append([1] * len(pts))  # projective grading row
    lattice = integer_kernel_basis(rows, len(pts))
    gens: list[IntPoly] = []
    for u in lattice:
        plus = tuple(max(x, 0) for x in u)
        minus = tuple(max(-x, 0) for x in u)
        if plus == minus:
            continue
        gens.append({plus: 1, minus: -1})
    return ToricIdeal(tuple(pts), tuple(saturate_coordinates(gens, len(pts), max_pairs)))


# -- torus feasibility ---------------------------------------------------------------


def _linear_verdict(live: list[IntPoly], nvars: int) -> FeasibilityVerdict:
    """Decide nonzero homogeneous degree-1 generators on their integer rows.

    The solution space K is torus-feasible iff it is contained in no
    coordinate hyperplane (a finite union of proper subspaces cannot cover a
    subspace over an infinite field).
    """
    rows = []
    for g in live:
        row = [0] * nvars
        for exponent, coeff in g.items():
            row[exponent.index(1)] = coeff
        rows.append(row)
    kernel = kernel_basis(rows, nvars)
    if not kernel:
        return FeasibilityVerdict(INFEASIBLE, "linear-algebra", ("zero-kernel", None))
    for i in range(nvars):
        if all(vec[i] == 0 for vec in kernel):
            return FeasibilityVerdict(INFEASIBLE, "linear-algebra", ("coordinate-hyperplane", i))
    return FeasibilityVerdict(FEASIBLE, "linear-algebra", ("kernel-basis", kernel))


def torus_feasible(
    system: Iterable[IntPoly], max_pairs: int = DEFAULT_MAX_PAIRS
) -> FeasibilityVerdict:
    """Common zero with all coordinates nonzero, over the algebraic closure.

    The generators are integer term dictionaries (IntPoly), and the variable
    count is the length of their exponents.  Linear systems are decided by
    one integer kernel, others by the unit-ideal test of the dehomogenized
    Rabinowitsch system.
    """
    sizes: set[int] = set()
    live: list[IntPoly] = []
    degrees: list[int] = []
    homogeneous = True
    for g in system:  # one pass; a count mismatch outranks an inhomogeneous generator
        sizes.update(map(len, g))
        if g := {m: c for m, c in g.items() if c}:
            live.append(g)
            degree, *rest = {sum(m) for m in g}
            degrees.append(degree)
            homogeneous = homogeneous and not rest
    if len(sizes) > 1:
        raise ValueError("generator variable count mismatch")
    if not homogeneous:
        raise ValueError("torus feasibility requires homogeneous generators")
    if not live:
        return FeasibilityVerdict(FEASIBLE, "linear-algebra", ("empty-system", None))
    (nvars,) = sizes
    if 0 in degrees:
        return FeasibilityVerdict(INFEASIBLE, "linear-algebra", ("constant", None))
    for g in live:
        if len(g) == 1:
            return FeasibilityVerdict(INFEASIBLE, "linear-algebra", ("monomial", next(iter(g))))
    if all(d == 1 for d in degrees):
        return _linear_verdict(live, nvars)

    occurring = sorted({i for g in live for exponent in g for i in range(nvars) if exponent[i]})
    # dehomogenize at the last occurring variable, which homogeneity makes
    # injective on each generator's terms, and keep only the occurring ones;
    # the trailing slot is the inverted product variable
    others = occurring[:-1]
    dehomogenized = [
        {tuple(exponent[var] for var in others) + (0,): c for exponent, c in g.items()}
        for g in live
    ]
    dehomogenized.append({(1,) * len(occurring): 1, (0,) * len(occurring): -1})
    try:
        gb = buchberger_intdicts(dehomogenized, max_pairs=max_pairs)
    except ResourceLimit as exc:
        return FeasibilityVerdict(UNDECIDED, "groebner", str(exc))
    if is_unit_ideal(gb):
        return FeasibilityVerdict(INFEASIBLE, "groebner", ("unit-saturated-ideal", None))
    return FeasibilityVerdict(FEASIBLE, "groebner", ("proper-saturated-ideal", None))
