"""Buchberger engine and torus feasibility over the rationals.

The engine provides reduced Groebner bases, coordinate saturation for
homogeneous ideals, toric ideals of point configurations, and the
torus-feasibility decisions used by the smoothness criterion:

  * a linear fast path deciding feasibility by one integer kernel,
  * a general path that divides each generator by its monomial content,
    dehomogenizes, adjoins an inverted variable product, and tests whether
    the saturated ideal is the unit ideal.  On the torus x^a*g and g have
    the same zeros, so the division is exact; the path is chosen on the
    degrees as given, before it.

Every operation takes and returns integer term dictionaries (IntPoly) keyed by
exponent tuples, toric generators included; a caller holding a `Polynomial`
reads one off `Polynomial.integer_terms`.  The one monomial order is grevlex
in index order; a caller that wants another variable cheapest renames it
last, as coordinate saturation does.

Inside the Buchberger kernel a monomial is one int K = top * 2^s - E: E packs
the exponents in w-bit fields, variable i in field i, and top is the degree.
K's integer order is the monomial order and K is linear in the exponents, so
a product is `+` and a leading term is `max`;
E = ceil(K / 2^s) * 2^s - K, and divisibility and lcm are tests on each
field's top (guard) bit.  Every popped leading monomial must keep its degree
below the guard bit; otherwise the call runs again with fields twice as wide.
Terms are primitive integer dictionaries, content-stripped after every
reduction, and exponent tuples appear only at the boundary: inputs and
returned bases.

Pairs are pruned as each element enters (Gebauer & Moeller, J. Symbolic
Comput. 6, 1988); the pair cap counts the S-pairs reduced.  A call may be
handed a reduced basis as a known prefix of its generators, and then forms
only the pairs that involve the new elements.

Coordinate saturation skips the variables it can prove are already
saturated.  If J is saturated by every variable in a set tau and holds a
two-term element c*z^u + c'*z^v with supp(v) in tau, then J is saturated by
every variable in supp(u): from f*z_j^M in J with j in supp(u), N*u_j >= M
gives f*z^(Nu) in J, so f*z^(Nv) is in J, so f is.  Each step saturates by
the variable that frees the most others under this rule.  A toric ideal of
e(2,5)'s support takes 3 saturation steps instead of 10.

Resource caps surface as the explicit verdict "undecided", never as a wrong
answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import gcd
from operator import mul, sub
from typing import Iterable, NamedTuple, Sequence

from .guards import ResourceLimit, toric_points_guard
from .linalg import integer_kernel_basis, kernel_basis
from .poly import Exponent, check_exponents, check_lengths, grevlex_key, read_points

IntPoly = dict[Exponent, int]

DEFAULT_MAX_PAIRS = 100_000

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"


class FeasibilityVerdict(NamedTuple):
    status: str  # feasible | infeasible | undecided
    method: str  # linear-algebra | groebner
    certificate: object = None

    @property
    def is_feasible(self) -> bool:
        return self.status == FEASIBLE


# -- packed monomials ----------------------------------------------------------------


def _content_strip(p: dict[int, int]) -> dict[int, int]:
    """Divide packed-int terms by their gcd and make the leading coefficient positive."""
    p = {m: c for m, c in p.items() if c}
    if not p:
        return {}
    g = gcd(*p.values())
    if p[max(p)] < 0:
        g = -g
    return {m: c // g for m, c in p.items()}


class _Overflow(Exception):
    """A popped leading monomial reached the guard bit of the degree field."""


# (lead fields E, lead K, polynomial) of a content-stripped basis element
Reducer = tuple[int, int, dict[int, int]]


class _Packing:
    """Packed monomials (see the module docstring) in n variables with w-bit fields.

    Monomials compare by degree, then by the last variable's exponent (less
    wins), then the one before it: grevlex in index order.
    """

    def __init__(self, n: int, w: int):
        self.w, self.s, self.mask, self.half = w, w * n, (1 << w) - 1, 1 << (w - 1)
        self.shifts = [w * j for j in range(n)]
        self.guard = sum(self.half << sh for sh in self.shifts)
        self.weights = [(1 << self.s) - (1 << sh) for sh in self.shifts]

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
        top = e % self.mask  # the degree: the sum of the fields, below mask
        return (top << self.s) - e

    def reducer(self, g: dict[int, int]) -> Reducer:
        lead = max(g)
        return self.exponents(lead), lead, g


def _reduce(pk: _Packing, f: dict[int, int], reducers: Iterable[Reducer]) -> dict[int, int]:
    """Full multivariate division remainder, fraction-free, content-stripped.

    Raises _Overflow when a popped leading monomial's degree reaches the
    guard bit, so every term ever formed is the sum of two in-range monomials.
    """
    s, guard, half = pk.s, pk.guard, pk.half
    rem, out, scale = dict(f), [], 1
    while rem:
        lm = max(rem)
        top = -(-lm >> s)
        if top & half:
            raise _Overflow
        lm_guarded = (top << s) - lm + guard
        for e, lead, g in reducers:
            if (lm_guarded - e) & guard == guard:  # lead divides lm
                break
        else:  # lm leaves the remainder, at the scale it has reached so far
            out.append((lm, rem.pop(lm), scale))
            continue
        c, lc = rem[lm], g[lead]
        d = gcd(c, lc)
        mult_rem, mult_g = lc // d, c // d
        if mult_rem != 1:
            rem = {m: v * mult_rem for m, v in rem.items()}
            scale *= mult_rem
        shift = lm - lead
        for m, v in g.items():
            m += shift
            v = rem.get(m, 0) - mult_g * v
            if v:
                rem[m] = v
            else:
                del rem[m]
    return _content_strip({m: v * (scale // at) for m, v, at in out})


def _s_poly(pk: _Packing, f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    lf, lg = max(f), max(g)
    lcm = pk.lcm(pk.exponents(lf), pk.exponents(lg))
    d = gcd(f[lf], g[lg])
    mf, mg, sf, sg = g[lg] // d, f[lf] // d, lcm - lf, lcm - lg
    out = {m + sf: v * mf for m, v in f.items()}
    for m, v in g.items():
        out[m + sg] = out.get(m + sg, 0) - v * mg
    return _content_strip(out)


def _buchberger(
    pk: _Packing, gens: list[dict[int, int]], max_pairs: int, known: int
) -> list[dict]:
    guard = pk.guard
    basis: list[Reducer] = []  # every element that entered, by index
    active: dict[int, Reducer] = {}  # the reducers: elements whose lead no later lead divides
    live: dict[tuple[int, int], tuple[int, int]] = {}  # pair -> (K, fields E) of its leads' lcm
    queue: list[tuple[int, int, int]] = []

    def enter(g: dict[int, int]) -> None:
        """Gebauer-Moeller update: prune the pairs, then add g to the basis."""
        t = len(basis)
        e_t, lead_t, _ = new = pk.reducer(g)
        lcms = [pk.lcm(e, e_t) for e, _, _ in basis]
        for (i, j), (lcm, e) in list(live.items()):  # criterion B
            if lcms[i] != lcm != lcms[j] and (e + guard - e_t) & guard == guard:
                del live[i, j]
        # criterion M: of the new pairs sharing an lcm that no other new pair's
        # lcm divides, keep the lowest a; a coprime pair drops its whole lcm
        # class (criterion F)
        classes: dict[int, int | None] = {}
        for a, (_, lead, _) in active.items():
            classes[lcms[a]] = None if lcms[a] == lead + lead_t else classes.get(lcms[a], a)
        kept: list[int] = []
        for lcm in sorted(classes):
            lcm_guarded = pk.exponents(lcm) + guard
            if any((lcm_guarded - f) & guard == guard for f in kept):
                continue
            kept.append(lcm_guarded - guard)
            if (a := classes[lcm]) is not None:
                live[a, t] = lcm, lcm_guarded - guard
                heapq.heappush(queue, (lcm, a, t))
        for a in [a for a, (e, _, _) in active.items() if (e + guard - e_t) & guard == guard]:
            del active[a]
        basis.append(new)
        active[t] = new

    for g in gens[:known]:  # a reduced basis already: no pairs among them
        basis.append(pk.reducer(g))
        active[len(basis) - 1] = basis[-1]
    for g in gens[known:]:  # reduced on entry, so no lead divides another
        g = _reduce(pk, g, active.values())
        if g:
            enter(g)
    pairs = 0  # S-pairs reduced
    while queue:
        lcm, i, j = heapq.heappop(queue)
        if live.pop((i, j), None) is None:
            continue  # pruned after it was queued
        pairs += 1
        if pairs > max_pairs:
            raise ResourceLimit(f"pair queue cap {max_pairs} exceeded")
        r = _reduce(pk, _s_poly(pk, basis[i][2], basis[j][2]), active.values())
        if r:
            enter(r)
    minimal = list(active.values())  # the minimal leads, each once
    reduced = [_reduce(pk, g, minimal[:i] + minimal[i + 1 :]) for i, (*_, g) in enumerate(minimal)]
    reduced.sort(key=max)
    return reduced


# -- public boundary: exponent tuples in and out ---------------------------------------


def buchberger_intdicts(
    gens: Iterable[IntPoly], max_pairs: int = DEFAULT_MAX_PAIRS, *, known: int = 0
) -> list[IntPoly]:
    """Reduced Groebner basis of integer term dictionaries, grevlex in index order.

    Normal pair-selection strategy with the Gebauer-Moeller criteria (B, M
    and F, coprime leading terms included) applied as each element enters.
    Each pair is keyed once, when it is created, by the lcm of its leading
    monomials with the pair's indices breaking ties, and pairs are popped from
    a heap in that order.  Raises ResourceLimit once more than `max_pairs`
    S-pairs have been reduced; pairs the criteria pruned are not counted.  The
    basis is sorted by ascending leading monomial.

    The first `known` generators must be a reduced Groebner basis.  They
    enter the basis and the active set as they are, without reduction and
    without pairs among them: their S-pairs already have standard
    representations, and the Gebauer-Moeller criteria need only that every
    untreated pair be queued or standard.  So a basis is extended by new
    generators at the cost of the new pairs alone.

    The fields are as wide as the inputs need; on overflow the whole call runs
    again with fields twice as wide, so the answer never depends on the width.
    The exponents are read by `read_points`, so a bad entry or mixed lengths
    raise ValueError.
    """
    gens = list(gens)
    known = sum(1 for g in gens[:known] if g)
    gens = [g for g in gens if g]
    if not gens:
        return []
    exponents = read_points(m for g in gens for m in g)
    width = max(8, max(map(sum, exponents)).bit_length() + 1)
    while True:
        pk = _Packing(len(exponents[0]), width)
        try:
            basis = _buchberger(pk, [pk.encode(g) for g in gens], max_pairs, known)
        except _Overflow:
            width *= 2
        else:
            return [pk.decode(g) for g in basis]


def is_unit_ideal(gb: Sequence[IntPoly]) -> bool:
    return any(g and max(sum(m) for m in g) == 0 for g in gb)


# -- homogeneous coordinate saturation ----------------------------------------------


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


def _support(m: Exponent) -> set[int]:
    return {i for i, e in enumerate(m) if e}


def _two_term_supports(gens: list[IntPoly]) -> list[list[set[int]]]:
    return [[_support(m) for m in g] for g in gens if len(g) == 2]


def _grow_saturated(supports: list[list[set[int]]], tau: set[int]) -> set[int]:
    """tau grown by the two-term rule of `saturate_coordinates` until it is stable;
    `supports` holds the two supports of each two-term element."""
    size = -1
    while size < len(tau):
        size = len(tau)
        for u, v in supports:
            if v <= tau:
                tau |= u
            elif u <= tau:
                tau |= v
    return tau


def saturate_coordinates(
    gens: Sequence[IntPoly], nvars: int, max_pairs: int = DEFAULT_MAX_PAIRS
) -> list[IntPoly]:
    """Saturation of a standard-homogeneous ideal by the product of all variables.

    Keeps a set tau of variables by which the current ideal J is saturated,
    and saturates only by the variables outside it (after Bigatti, La Scala
    & Robbiano, J. Symbolic Comput. 27, 1999):

      * tau starts as the variables that occur in no generator, since z_i is
        a nonzerodivisor modulo an ideal generated without z_i;
      * each step saturates by one variable not in tau (a grevlex Groebner
        basis with that variable renamed last, so that it is the cheapest,
        each element renamed back and divided by its largest power of it)
        and adds it to tau;
      * then every two-term element c*z^u + c'*z^v (c, c' nonzero) of the
        current basis with supp(v) in tau adds supp(u) to tau, until tau
        stops growing.

    The step's variable is the one whose addition to tau frees the most
    variables under that rule, read off the basis before the step; ties go
    to the lowest index.  On the lattice ideals of 200 seeded grid
    configurations this takes 125 steps where the lowest-index variable
    outside tau took 223, and no ideal takes more.

    The rule is sound for any ideal, binomial or not.  Suppose
    f*z_j^M is in J with j in supp(u), and take N*u_j >= M.  Then f*z^(Nu)
    is in J, and z^(Nu) = (-c'/c)^N z^(Nv) modulo J, so f*z^(Nv) is in J;
    z^(Nv) is a product of tau variables, so f is in J.  Saturations
    commute, and saturating by one variable keeps the saturation by
    another, so the last basis is J : (z_1...z_m)^infinity, whichever
    variables the steps take.  Requires every generator to be homogeneous
    in the standard grading, with exponents of length `nvars`.
    """
    current = [g for g in gens if g]
    check_exponents(m for g in current for m in g)  # before a bad entry reads as inhomogeneous
    for g in current:
        if not _is_standard_homogeneous(g):
            raise ValueError("coordinate saturation requires homogeneous generators")
        for m in g:
            if len(m) != nvars:
                raise ValueError(f"exponents of length {len(m)} in {nvars} variables")
    tau = set(range(nvars)).difference(*(_support(m) for g in current for m in g))
    supports = _two_term_supports(current)
    while len(tau) < nvars:
        var = max(
            [v for v in range(nvars) if v not in tau],  # max keeps the first, lowest, of a tie
            key=lambda v: len(_grow_saturated(supports, tau | {v})),
        )
        # grevlex with var cheapest: rename variable rank[j] to j, where
        # rank = [v != var in index order] + [var], and back
        renamed = [
            {m[:var] + m[var + 1 :] + m[var : var + 1]: c for m, c in g.items()} for g in current
        ]
        gb = buchberger_intdicts(renamed, max_pairs)
        back = [{m[:var] + m[-1:] + m[var:-1]: c for m, c in g.items()} for g in gb]
        current = [_divide_out(g, var) for g in back]
        supports = _two_term_supports(current)
        tau = _grow_saturated(supports, tau | {var})
    return buchberger_intdicts(current, max_pairs=max_pairs)


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
    pts = sorted(read_points(points), key=grevlex_key, reverse=True)
    toric_points_guard(len(pts))
    n = len(pts[0])
    rows = [[p[i] for p in pts] for i in range(n)]
    rows.append([1] * len(pts))  # projective grading row
    lattice = integer_kernel_basis(rows, len(pts))
    gens: list[IntPoly] = []
    for u in lattice:
        plus = tuple(max(x, 0) for x in u)
        minus = tuple(max(-x, 0) for x in u)
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
    count is the length of their exponents; mixed lengths raise ValueError.
    The monomial exit reads only degrees and checks no entry, as a Laurent
    monomial has no torus zero either.  Past it an entry that is not a
    nonnegative int raises ValueError naming it (`check_exponents`), before
    the homogeneity test, the constant exit and either route.  Linear systems
    are decided by one integer kernel.  Others, chosen on the degrees as
    given, are divided generator by generator by the gcd of their monomials,
    which changes no torus zero, and decided by the unit-ideal test of the
    dehomogenized Rabinowitsch system.
    """
    sizes: set[int] = set()
    degrees: set[int] = set()
    live: list[IntPoly] = []
    homogeneous = True
    monomial = None  # the first single-term generator
    # One pass; the outcomes below keep their precedence: mixed lengths, then an
    # inhomogeneous generator, the empty system, a constant, a monomial.  Past
    # the monomial exit the live entries are checked before any other outcome.
    for g in system:
        if len(g) == 1:  # one term: no map over it, no set of its degrees
            ((m, c),) = g.items()
            sizes.add(len(m))
            if not c:
                continue
        else:
            sizes.update(map(len, g))
            if 0 in g.values():  # the only copy: the caller's dicts are never changed
                g = {m: c for m, c in g.items() if c}
            if len(g) > 1:
                degree, *rest = set(map(sum, g))
                degrees.add(degree)
                homogeneous = homogeneous and not rest
                live.append(g)
                continue
            if not g:
                continue
            (m,) = g  # a monomial once its zero terms are gone
        degrees.add(sum(m))
        if monomial is None:
            monomial = m
        live.append(g)
    check_lengths(sizes)
    if not live:  # then no generator is inhomogeneous
        return FeasibilityVerdict(FEASIBLE, "linear-algebra", ("empty-system", None))
    if homogeneous and 0 not in degrees and monomial is not None:
        return FeasibilityVerdict(INFEASIBLE, "linear-algebra", ("monomial", monomial))
    check_exponents(m for g in live for m in g)
    if not homogeneous:
        raise ValueError("torus feasibility requires homogeneous generators")
    if 0 in degrees:
        return FeasibilityVerdict(INFEASIBLE, "linear-algebra", ("constant", None))
    (nvars,) = sizes
    if degrees == {1}:
        return _linear_verdict(live, nvars)

    # x^a*g and g have the same torus zeros: divide each generator by the gcd
    # of its monomials, into a new dict
    for j, g in enumerate(live):
        content = [min(column) for column in zip(*g)]
        if any(content):
            live[j] = {tuple(map(sub, m, content)): c for m, c in g.items()}
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
