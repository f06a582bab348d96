"""Buchberger engine and torus feasibility over the rationals.

Polynomials enter as exact `Polynomial` values and are handled internally as
primitive integer term dictionaries (content-stripped after every reduction).
The engine provides reduced Groebner bases, ideal membership, coordinate
saturation for homogeneous ideals, toric ideals of point configurations, and
the torus-feasibility decisions used by the smoothness criterion:

  * a linear fast path deciding feasibility by exact kernel computations,
  * a general path that dehomogenizes, adjoins an inverted variable product,
    and tests whether the saturated ideal is the unit ideal.

Resource caps surface as the explicit verdict "undecided", never as a wrong
answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Callable, Iterable, Sequence

from .guards import ResourceLimit
from .linalg import integer_kernel_basis, kernel_basis
from .poly import Exponent, Polynomial, grevlex_key

IntPoly = dict[Exponent, int]
OrderKey = Callable[[Exponent], tuple]

DEFAULT_MAX_PAIRS = 100_000
MAX_TORIC_POINTS = 12

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class FeasibilityVerdict:
    status: str  # feasible | infeasible | undecided
    method: str  # linear-algebra | groebner | toric-oracle
    certificate: object = None

    @property
    def is_feasible(self) -> bool:
        return self.status == FEASIBLE

    @property
    def is_infeasible(self) -> bool:
        return self.status == INFEASIBLE


# -- integer term dictionaries -----------------------------------------------------


def _content_strip(p: IntPoly, key: OrderKey) -> IntPoly:
    """Divide by the coefficient gcd and make the leading coefficient positive."""
    p = {m: c for m, c in p.items() if c}
    if not p:
        return {}
    g = 0
    for c in p.values():
        g = gcd(g, abs(c))
    lead = max(p, key=key)
    sign = 1 if p[lead] > 0 else -1
    g *= sign
    return {m: c // g for m, c in p.items()}


def poly_to_intdict(p: Polynomial, key: OrderKey = grevlex_key) -> IntPoly:
    lcm = 1
    for c in p.terms.values():
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    return _content_strip({m: int(c * lcm) for m, c in p.items()}, key)


def intdict_to_poly(p: IntPoly, nvars: int) -> Polynomial:
    return Polynomial(nvars, {m: Fraction(c) for m, c in p.items()})


def _mono_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def _mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def normal_form(
    f: IntPoly,
    basis: Sequence[IntPoly],
    key: OrderKey,
    leads: Sequence[Exponent] | None = None,
) -> IntPoly:
    """Full multivariate division remainder, fraction-free.

    `leads`, when given, holds the leading monomial of each basis element
    under `key`, in basis order; otherwise they are computed here.
    """
    rem = dict(f)
    out: IntPoly = {}
    if leads is None:
        basis = [g for g in basis if g]
        leads = [max(g, key=key) for g in basis]
    reducers = list(zip(leads, basis))
    while rem:
        lm = max(rem, key=key)
        reducer = None
        for lead, g in reducers:
            if _mono_divides(lead, lm):
                reducer = (lead, g)
                break
        if reducer is None:
            out[lm] = rem.pop(lm)
            continue
        lead, g = reducer
        c = rem[lm]
        lc = g[lead]  # positive after content stripping
        d = gcd(abs(c), lc)
        mult_rem = lc // d
        mult_g = c // d
        if mult_rem != 1:
            rem = {m: v * mult_rem for m, v in rem.items()}
            out = {m: v * mult_rem for m, v in out.items()}
        shift = _mono_div(lm, lead)
        for m, v in g.items():
            mm = _mono_mul(m, shift)
            nv = rem.get(mm, 0) - mult_g * v
            if nv:
                rem[mm] = nv
            else:
                rem.pop(mm, None)
    return _content_strip(out, key)


def _s_poly(f: IntPoly, g: IntPoly, key: OrderKey) -> IntPoly:
    lf = max(f, key=key)
    lg = max(g, key=key)
    cf, cg = f[lf], g[lg]
    d = gcd(abs(cf), abs(cg))
    lcm = _mono_lcm(lf, lg)
    sf = _mono_div(lcm, lf)
    sg = _mono_div(lcm, lg)
    out: IntPoly = {}
    for m, v in f.items():
        mm = _mono_mul(m, sf)
        out[mm] = out.get(mm, 0) + v * (cg // d)
    for m, v in g.items():
        mm = _mono_mul(m, sg)
        out[mm] = out.get(mm, 0) - v * (cf // d)
    return _content_strip(out, key)


def buchberger_intdicts(
    gens: Iterable[IntPoly], key: OrderKey, max_pairs: int = DEFAULT_MAX_PAIRS
) -> list[IntPoly]:
    """Reduced Groebner basis of integer term dictionaries.

    Normal pair-selection strategy with the coprime-leading-term and chain
    criteria.  Each pair is keyed once, when it is created, by the order key
    of the lcm of its leading monomials with the pair's indices breaking
    ties, and pairs are popped from a heap in that order.  Raises
    ResourceLimit once more than `max_pairs` pairs have been treated.
    """
    basis: list[IntPoly] = []
    for g in gens:
        g = _content_strip(g, key)
        if g and g not in basis:
            basis.append(g)
    if not basis:
        return []
    leads = [max(g, key=key) for g in basis]
    # the set answers the chain criterion's membership tests, the heap the order
    pending: set[tuple[int, int]] = set(combinations(range(len(basis)), 2))
    queue = [(key(_mono_lcm(leads[i], leads[j])), (i, j)) for i, j in pending]
    heapq.heapify(queue)
    treated = 0
    while queue:
        _, pair = heapq.heappop(queue)
        pending.discard(pair)
        treated += 1
        if treated > max_pairs:
            raise ResourceLimit(f"pair queue cap {max_pairs} exceeded")
        i, j = pair
        li, lj = leads[i], leads[j]
        lcm = _mono_lcm(li, lj)
        if lcm == _mono_mul(li, lj):
            continue  # coprime leading terms
        chain = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if not _mono_divides(leads[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                chain = True
                break
        if chain:
            continue
        s = _s_poly(basis[i], basis[j], key)
        r = normal_form(s, basis, key, leads)
        if r:
            lr = max(r, key=key)
            t = len(basis)
            basis.append(r)
            leads.append(lr)
            for a in range(t):
                pending.add((a, t))
                heapq.heappush(queue, (key(_mono_lcm(leads[a], lr)), (a, t)))
    return _reduce_basis(basis, leads, key)


def _reduce_basis(
    basis: Sequence[IntPoly], leads: Sequence[Exponent], key: OrderKey
) -> list[IntPoly]:
    keep: list[int] = []
    for i, lead in enumerate(leads):
        redundant = False
        for j, other in enumerate(leads):
            if i == j:
                continue
            # a strict divisor always wins; among equal leads keep the first
            if _mono_divides(other, lead) and (other != lead or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    minimal = [basis[i] for i in keep]
    minimal_leads = [leads[i] for i in keep]
    reduced = []
    for i, g in enumerate(minimal):
        others = [h for j, h in enumerate(minimal) if j != i]
        other_leads = [m for j, m in enumerate(minimal_leads) if j != i]
        r = normal_form(g, others, key, other_leads)
        if r:
            reduced.append(r)
    reduced.sort(key=lambda g: key(max(g, key=key)))
    return reduced


def groebner_basis(
    gens: Sequence[Polynomial],
    key: OrderKey = grevlex_key,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> list[Polynomial]:
    """Reduced Groebner basis (primitive integer normalization, sorted by lead)."""
    if not gens:
        return []
    nvars = gens[0].nvars
    out = buchberger_intdicts([poly_to_intdict(g, key) for g in gens], key, max_pairs)
    return [intdict_to_poly(g, nvars) for g in out]


def is_unit_ideal(gb: Sequence[IntPoly]) -> bool:
    return any(g and max(sum(m) for m in g) == 0 for g in gb)


def ideal_members_to_zero(
    members: Iterable[Polynomial], gb: Sequence[Polynomial], key: OrderKey = grevlex_key
) -> bool:
    basis = [poly_to_intdict(g, key) for g in gb]
    return all(
        not normal_form(poly_to_intdict(p, key), basis, key) for p in members
    )


# -- homogeneous coordinate saturation ----------------------------------------------


def _cheap_variable_key(nvars: int, var: int) -> OrderKey:
    """Graded reverse lexicographic order in which `var` is the cheapest variable."""
    order = [i for i in range(nvars) if i != var] + [var]
    rev = list(reversed(order))

    def key(m: Exponent) -> tuple:
        return (sum(m), tuple(-m[i] for i in rev))

    return key


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
        key = _cheap_variable_key(nvars, var)
        gb = buchberger_intdicts(current, key, max_pairs)
        current = [_divide_out(g, var) for g in gb]
    return buchberger_intdicts(current, grevlex_key, max_pairs)


def saturate_by_product_elimination(
    gens: Sequence[IntPoly], nvars: int, max_pairs: int = DEFAULT_MAX_PAIRS
) -> list[IntPoly]:
    """Independent saturation route: adjoin t * (product of variables) - 1,
    eliminate t, return the elimination ideal's basis.  Used as a cross-check
    oracle for saturate_coordinates."""

    def elim_key(m: Exponent) -> tuple:
        return (m[nvars], grevlex_key(m[:nvars]))

    extended = [{m + (0,): c for m, c in g.items()} for g in gens if g]
    product = tuple([1] * nvars + [1])
    extended.append({product: 1, (0,) * (nvars + 1): -1})
    gb = buchberger_intdicts(extended, elim_key, max_pairs)
    out = []
    for g in gb:
        if all(m[nvars] == 0 for m in g):
            out.append({m[:nvars]: c for m, c in g.items()})
    return buchberger_intdicts(out, grevlex_key, max_pairs)


# -- toric ideals -------------------------------------------------------------------


@dataclass(frozen=True)
class ToricIdeal:
    """Toric ideal of a point configuration, in one variable per point."""

    points: tuple[Exponent, ...]  # descending grevlex; column i <-> variable z_i
    generators: tuple[Polynomial, ...]  # reduced Groebner basis, grevlex

    def contains(self, p: Polynomial) -> bool:
        return ideal_members_to_zero([p], list(self.generators))


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
    saturated = saturate_coordinates(gens, len(pts), max_pairs)
    return ToricIdeal(
        tuple(pts), tuple(intdict_to_poly(g, len(pts)) for g in saturated)
    )


# -- torus feasibility ---------------------------------------------------------------


def torus_feasible_linear(gens: Sequence[Polynomial]) -> FeasibilityVerdict:
    """Feasibility for homogeneous linear systems by exact kernel computation.

    The solution space K is torus-feasible iff it is contained in no
    coordinate hyperplane (a finite union of proper subspaces cannot cover a
    subspace over an infinite field).
    """
    live = [g for g in gens if not g.is_zero]
    if not live:
        raise ValueError("linear path needs at least one nonzero generator")
    nvars = live[0].nvars
    for g in live:
        if g.total_degree != 1 or not g.is_homogeneous:
            raise ValueError("linear path requires homogeneous degree-1 generators")
    rows = []
    for g in live:
        row = [Fraction(0)] * nvars
        for exponent, coeff in g.items():
            row[exponent.index(1)] = coeff
        rows.append(row)
    kernel = kernel_basis(rows, nvars)
    if not kernel:
        return FeasibilityVerdict(INFEASIBLE, "linear-algebra", ("zero-kernel", None))
    for i in range(nvars):
        if all(vec[i] == 0 for vec in kernel):
            return FeasibilityVerdict(
                INFEASIBLE, "linear-algebra", ("coordinate-hyperplane", i)
            )
    return FeasibilityVerdict(FEASIBLE, "linear-algebra", ("kernel-basis", kernel))


def torus_feasible(
    system: Sequence[Polynomial],
    nvars: int | None = None,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> FeasibilityVerdict:
    """Common zero with all coordinates nonzero, over the algebraic closure."""
    gens = list(system)
    if nvars is None:
        if not gens:
            raise ValueError("cannot infer the variable count of an empty system")
        nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise ValueError("generator variable count mismatch")
    live = [g for g in gens if not g.is_zero]
    for g in live:
        if not g.is_homogeneous:
            raise ValueError("torus feasibility requires homogeneous generators")
    if not live:
        return FeasibilityVerdict(FEASIBLE, "linear-algebra", ("empty-system", None))
    if any(g.total_degree == 0 for g in live):
        return FeasibilityVerdict(INFEASIBLE, "linear-algebra", ("constant", None))
    for g in live:
        if len(g) == 1:
            exponent = next(iter(g.support()))
            return FeasibilityVerdict(INFEASIBLE, "linear-algebra", ("monomial", exponent))
    if all(g.total_degree == 1 for g in live):
        return torus_feasible_linear(live)

    occurring = sorted(
        {i for g in live for exponent in g.support() for i in range(nvars) if exponent[i]}
    )
    pivot = occurring[-1]
    others = [i for i in occurring if i != pivot]
    # dehomogenize at the pivot variable and compactify to the occurring ones
    remap = {var: pos for pos, var in enumerate(others)}
    small_n = len(others) + 1  # trailing slot for the inverted product variable
    dehomogenized: list[IntPoly] = []
    for g in live:
        acc: IntPoly = {}
        for exponent, coeff in poly_to_intdict(g).items():
            mm = [0] * small_n
            for var, pos in remap.items():
                mm[pos] = exponent[var]
            key = tuple(mm)
            acc[key] = acc.get(key, 0) + coeff
        dehomogenized.append({m: c for m, c in acc.items() if c})
    product = tuple([1] * (small_n - 1) + [1])
    dehomogenized.append({product: 1, (0,) * small_n: -1})
    try:
        gb = buchberger_intdicts(dehomogenized, grevlex_key, max_pairs)
    except ResourceLimit as exc:
        return FeasibilityVerdict(UNDECIDED, "groebner", str(exc))
    if is_unit_ideal(gb):
        return FeasibilityVerdict(
            INFEASIBLE, "groebner", ("unit-saturated-ideal", None)
        )
    return FeasibilityVerdict(FEASIBLE, "groebner", ("proper-saturated-ideal", None))
