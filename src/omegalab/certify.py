"""Smoothness certification pipeline.

Given a homogeneous polynomial with rational coefficients this module gates
on M-convexity of the support, runs the exact Lorentzian signature test, and
decides for every derivative order k whether the centre of the projection
from monomial coordinates meets the toric variety of the truncated base
polytope P_k.  Disjointness for all orders certifies that the associated
resolution is the smooth toric variety of the summed-truncation polytope,
which is emitted with the certificate.

The per-order test decomposes the toric variety into torus orbits indexed by
the faces of P_k and decides torus feasibility of each face-restricted
derivative system, one face per orbit of the variable swaps fixing the
polynomial.  M-convex order-k derivative columns are the lattice points of
P_k, so a face is the mask of the columns on it: the walk reads the facets as
masks off truncate(rho, k), closes them under meets, and builds no polytope.
`centre_disjoint` and the independent Groebner oracle (toric ideal plus
centre forms, one Groebner basis) share that precondition and raise
ValueError without it; an M-convex support meets it.  When every variable
occurs, the order-(d-1) truncation min(1, rho) is the rank function of
U(1, n): the standard simplex, with the columns as vertices, built in closed
form with its face lattice in the only cache kept between calls, once per n.
One certificate computes the support's swaps once, and rho at most once,
below the greedy guard, for the orders k < d - 1 and the summed polytope:
never for a quadric.  It runs no polymatroid axiom check, as rho of an
M-convex support, its truncations and their sum are polymatroids.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from math import lcm
from operator import itemgetter, mul, or_
from typing import Callable, Iterable, Sequence

from .derivatives import DerivativeSpace, _partial_terms, derivative_space, partials_guard
from .groebner import (
    DEFAULT_MAX_PAIRS,
    buchberger_intdicts,
    toric_ideal,
    torus_feasible,
)
from .guards import MAX_CERTIFY_DEGREE, ResourceLimit, degree_guard
from .poly import Exponent, Polynomial, grevlex_key, read_exponent
from .polytope import LatticePolytope, _facets, _lattice, _polymatroid_polytope, _simplex
from .polytope import is_simple, require_greedy
from .setfunc import MAX_GROUND_SET, SetFunction, rank_from_support, truncate, truncation_sum

VERDICT_SMOOTH = "smooth-toric"
VERDICT_FAILS = "criterion-fails"
VERDICT_NOT_APPLICABLE = "not-applicable"
VERDICT_UNDECIDED = "undecided"

# Cap on smoothable_probe's trials: each trial is one full certificate.
MAX_PROBE_TRIALS = 10_000

# smoothable_probe draws each coefficient uniformly from 1..PROBE_MAX_COEFF.
PROBE_MAX_COEFF = 1000


# -- M-convexity ---------------------------------------------------------------------


def is_mconvex(
    points: Iterable[Exponent],
) -> tuple[bool, tuple[Exponent, Exponent, int] | None]:
    """Exchange-axiom check as one cover test per (x, i).

    Returns (True, None) or (False, (x, y, i)) for the first exchange
    direction with no valid completion, scanning x, then y, then i in sorted
    order.  With the support B indexed by bit, the y with y_i < x_i must lie
    in the union, over the j with x - e_i + e_j in B, of the y with y_j > x_j
    and y + e_i - e_j in B.  The tables of both sets are built once, so the
    test costs O(|B| n^2) operations on |B|-bit ints, not O(|B|^2 n^2) pairs.
    """
    pts = sorted({read_exponent(p) for p in points})
    if not pts:
        raise ValueError("M-convexity is defined for nonempty point sets")
    if len(set(map(len, pts))) != 1:
        raise ValueError("points must have equal length")
    if len({sum(p) for p in pts}) != 1:
        raise ValueError("points must have equal coordinate sums")
    if any(v < 0 for p in pts for v in p):
        raise ValueError("points must be nonnegative")
    n, d = len(pts[0]), sum(pts[0])
    weight = [(d + 1) ** t for t in range(n)]  # base-(d+1) digits: a unit move is one addition
    code = {sum(map(mul, p, weight)): k for k, p in enumerate(pts)}
    move = [[0] * n for _ in range(n)]  # move[i][j]: the y with y + e_i - e_j in B
    at = [[0] * (d + 1) for _ in range(n)]  # at[j][v]: the y with y_j == v
    for c, k in code.items():
        y = pts[k]
        for j in range(n):
            at[j][y[j]] |= 1 << k
            if y[j]:
                for i in range(n):
                    if i != j and c + weight[i] - weight[j] in code:
                        move[i][j] |= 1 << k
    below = [list(accumulate(row, or_, initial=0)) for row in at]  # below[j][v]: y_j < v
    above = [list(accumulate(row[:0:-1], or_, initial=0))[::-1] for row in at]  # and y_j > v
    for k, x in enumerate(pts):
        fails = [0] * n  # fails[i]: the y with y_i < x_i that no j completes
        for i in range(n):
            if x[i]:
                cover = (above[j][x[j]] & move[i][j] for j in range(n) if move[j][i] >> k & 1)
                fails[i] = below[i][x[i]] & ~functools.reduce(or_, cover, 0)
        if any(fails):
            y = min(f & -f for f in fails if f)  # the lowest y, then its lowest i
            i = next(i for i, f in enumerate(fails) if f & y)
            return False, (x, pts[y.bit_length() - 1], i)
    return True, None


# -- Lorentzian test -----------------------------------------------------------------


@dataclass(frozen=True)
class LorentzianReport:
    mconvex: bool
    nonneg_coeffs: bool
    hessian_failures: tuple[tuple[int, ...], ...]
    is_lorentzian: bool

    def to_json_dict(self) -> dict:
        return {
            "mconvex": self.mconvex,
            "nonneg_coeffs": self.nonneg_coeffs,
            "hessian_failures": [list(m) for m in self.hessian_failures],
            "is_lorentzian": self.is_lorentzian,
        }


def positive_eigenvalue_count(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Exact count for a symmetric rational matrix by Sylvester's law of inertia.

    On the matrix scaled by the lcm of its denominators, a nonzero diagonal
    pivot p counts if p > 0 and leaves sign(p) (p A' - a a^T) / |previous p|,
    a positive multiple of the Schur complement (the division is Bareiss's,
    exact); a zero diagonal with a_ij != 0 first gets row and column j added
    to row and column i, making a_ii = 2 a_ij.
    """
    rows = [[x if type(x) is int else Fraction(x) for x in row] for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    scale = lcm(*(x.denominator for row in rows for x in row))
    a = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    count, prev = 0, 1
    while a:
        i = next((i for i in range(len(a)) if a[i][i]), None)
        if i is None:
            i, j = next(((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x), (0, 0))
            if i == j:
                break  # the zero matrix
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
        p, pivot = a[i][i], a[i]
        count += p > 0
        s = (1 if p > 0 else -1) * abs(prev)
        a = [
            [(p * x - pivot[r] * pivot[c]) // s for c, x in enumerate(row) if c != i]
            for r, row in enumerate(a)
            if r != i
        ]
        prev = p
    return count


def is_lorentzian(h: Polynomial, mconvex: bool | None = None) -> LorentzianReport:
    """Nonnegative coefficients, M-convex support, and every iterated Hessian
    with at most one positive eigenvalue; `mconvex`, when given, is the
    support's known M-convexity."""
    if h.is_zero or not h.is_homogeneous:
        raise ValueError("polynomial must be nonzero and homogeneous")
    d = h.total_degree
    if d < 2:
        raise ValueError("Lorentzian test needs degree at least 2")
    if guard := degree_guard(d):
        raise ResourceLimit(guard)
    partials = _partial_terms(h, d - 2)[1]  # ResourceLimit above the partial-count cap
    if mconvex is None:
        mconvex = is_mconvex(h.support())[0]
    # Each order-(d-2) partial of h's integer view (its positive scale keeps the
    # eigenvalues' signs) is a quadric g; its Hessian has g's coefficient of
    # x_i x_j off the diagonal and twice that of x_i^2 on it.  Every term of h
    # reaches some partial with a positive factor, so they carry its signs too.
    nonneg = all(c > 0 for g in partials for c in g.values())
    n = h.nvars
    entry = {}  # the exponent of x_i x_j -> (i, j, the factor on its coefficient)
    for i, j in combinations_with_replacement(range(n), 2):
        e = [0] * n
        e[i] += 1
        e[j] += 1
        entry[tuple(e)] = i, j, 1 + (i == j)
    failures = []
    for a, g in zip(combinations_with_replacement(range(n), d - 2), partials):
        if not g:
            continue
        hessian = [[0] * n for _ in range(n)]
        for e, c in g.items():
            i, j, factor = entry[e]
            hessian[i][j] = hessian[j][i] = factor * c
        if positive_eigenvalue_count(hessian) > 1:
            failures.append(a)
    return LorentzianReport(
        mconvex=mconvex,
        nonneg_coeffs=nonneg,
        hessian_failures=tuple(failures),
        is_lorentzian=nonneg and mconvex and not failures,
    )


# -- per-order disjointness -----------------------------------------------------------


@dataclass(frozen=True)
class OrderReport:
    """Disjointness verdict of one derivative order."""

    k: int
    span_dim: int  # m_k
    num_monomials: int  # |B_k|
    centre_dim: int
    disjoint: str  # yes | no | undecided
    witness_face: tuple[Exponent, ...] | None = None
    detail: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "k": self.k,
            "m_k": self.span_dim,
            "num_monomials": self.num_monomials,
            "centre_dim": self.centre_dim,
            "disjoint": self.disjoint,
        }
        if self.witness_face is not None:
            out["witness_face"] = [list(v) for v in self.witness_face]
        if self.detail:
            out["detail"] = self.detail
        return out


def _transposition(n: int, i: int, j: int) -> Callable[[Sequence], tuple]:
    """The map from an n-tuple to it with entries i and j exchanged (i != j)."""
    order = list(range(n))
    order[i], order[j] = j, i
    return itemgetter(*order)


def _swap_generators(h: Polynomial) -> list[tuple[int, int]]:
    """Generators of the variable swaps fixing h: adjacent swaps within blocks.

    Variables i and j share a block iff swapping them fixes h's coefficients.
    That is an equivalence, as (i k) = (i j)(j k)(i j), so these swaps
    generate the product of the symmetric groups on the blocks.  A swap of i
    and j maps i's sorted (exponent, coefficient) column onto j's, so equal
    columns are tested first.
    """
    terms = h.integer_terms()[1]  # a positive multiple of h: the same swaps fix it
    column = [sorted((e[i], c) for e, c in terms.items()) for i in range(h.nvars)]
    blocks: list[list[int]] = []
    for i in range(h.nvars):
        for block in blocks:
            if column[block[0]] != column[i]:
                continue
            swap = _transposition(h.nvars, block[0], i)
            if all(terms.get(swap(e)) == c for e, c in terms.items()):
                block.append(i)
                break
        else:
            blocks.append([i])
    return [pair for block in blocks for pair in zip(block, block[1:])]


def centre_disjoint(
    h: Polynomial, k: int, max_pairs: int = DEFAULT_MAX_PAIRS
) -> OrderReport:
    """Decide whether the order-k projection centre misses the toric variety.

    Walks the faces of the base polytope P_k of truncate(rho, k), each as the
    mask of the order-k derivative columns on it: the centre meets the variety
    iff some face's system, the span basis restricted to its columns, has a
    torus zero.  The first feasible face in the face order is the witness, by
    its vertices, and the orbit of an infeasible face under the swaps fixing h
    is skipped.  ValueError is raised, as by `oracle_centre_disjoint`, when the
    columns are not M-convex: the walk is exact when they fill P_k.
    """
    rho = lambda: rank_from_support(h.support())
    return _decide(h, _filling_space(h, k), rho, max_pairs, lambda: _swap_generators(h))


def _filling_space(h: Polynomial, k: int) -> DerivativeSpace:
    """derivative_space(h, k); ValueError unless its columns fill the truncation polytope.

    The rank function of C_k = {m - a : m in supp h, |a| = k} is truncate(rho, k), as
    the max over a of (m - a)(S) is min(m(S), d - k), and an M-convex set is the set of
    lattice points of its rank function's base polytope (Murota, Discrete Convex Analysis,
    2003, ch. 4).  So C_k fills it iff C_k is M-convex; then truncate(rho, k) is a polymatroid.
    Any set of unit vectors, as C_(d-1), is M-convex.
    """
    space = derivative_space(h, k)
    if k < h.total_degree - 1 and not is_mconvex(space.columns)[0]:
        raise ValueError(f"the order-{k} derivative columns do not fill the truncation polytope")
    return space


def _decide(
    h: Polynomial, space: DerivativeSpace, rho: Callable[[], SetFunction], max_pairs: int,
    swaps: Callable[[], list],
) -> OrderReport:
    """The report of the order of `space`, whose columns fill its truncation polytope.

    A face is the mask of the columns on it, bit t for the t-th in lexicographic
    order, and its facets are read off truncate(rho(), k), or the simplex's.
    """
    k, columns = space.order, space.columns
    report = functools.partial(
        OrderReport,
        k=k,
        span_dim=space.span_dimension,
        num_monomials=len(columns),
        centre_dim=len(columns) - space.span_dimension,
    )
    try:
        require_greedy(h.nvars)  # before rho's 2^n table
    except ResourceLimit as exc:
        return report(disjoint="undecided", detail=f"order-{k} truncation polytope: {exc}")
    points = sorted(columns)
    # min(1, rho) is U(1, n)'s rank function when every variable occurs in h
    if k == h.total_degree - 1 and all(map(any, zip(*h.support()))):
        lattice = _simplex_lattice(h.nvars)[1]
    else:
        lattice = _lattice(list(_facets(truncate(rho(), k), points, True)), len(points))
    vertices = sum(mask for dim, mask, _ in lattice if dim == 0)
    # A swap fixing h permutes the columns: each perm maps a column's bit to its
    # image's, and a face's mask to its image's.
    index = {c: 1 << t for t, c in enumerate(points)}
    swapped = [_transposition(h.nvars, i, j) for i, j in swaps()]
    perms = [{bit: index[swap(c)] for c, bit in index.items()} for swap in swapped]

    # Each basis row keeps its nonzero (bit, column, value).  A row wholly on
    # a face passes its prebuilt dict; only a cut row is rebuilt.
    rows = [[(index[c], c, x) for c, x in zip(columns, r) if x] for r in space.matrix]
    rows = [(sum(bit for bit, _, _ in row), row, {c: x for _, c, x in row}) for row in rows]
    settled: set[int] = set()  # masks of the faces in an infeasible orbit
    undecided = []
    for _, on, _ in lattice:
        if on in settled:
            continue
        gens = [
            whole if mask & on == mask else {c: x for bit, c, x in row if bit & on}
            for mask, row, whole in rows
            if mask & on
        ]
        verdict = torus_feasible(gens, max_pairs=max_pairs)
        if verdict.is_feasible:
            return report(
                disjoint="no",
                witness_face=tuple(c for t, c in enumerate(points) if (on & vertices) >> t & 1),
                detail=f"torus point on the face orbit ({verdict.method})",
            )
        if verdict.status == "undecided":
            detail = f"{verdict.method} undecided on a face orbit: {verdict.certificate}"
            undecided.append((on, detail))
        elif perms:  # infeasible: settle the orbit
            orbit = [on]
            while orbit:
                cur = orbit.pop()
                if cur not in settled:
                    settled.add(cur)
                    orbit += [_image(cur, perm) for perm in perms]
    # A face at the pair cap is undecided only if no face of its orbit was infeasible.
    detail = next((d for key, d in undecided if key not in settled), None)
    return report(disjoint="undecided" if detail else "yes", detail=detail)


@functools.cache  # n <= MAX_GREEDY_GROUND_SET past the guard: at most 8 entries
def _simplex_lattice(n: int) -> tuple[LatticePolytope, tuple[tuple[int, int, int], ...]]:
    """The standard simplex on n vertices and its face lattice, once per n: the
    vertices are the order-(d-1) columns, in order, when every variable occurs in h."""
    body = _simplex(n)
    return body, tuple(_lattice(body.facet_masks, n))


def _image(mask: int, bits: dict[int, int]) -> int:
    """The OR of bits[b] over the set bits b of mask."""
    out = 0
    while mask:
        out |= bits[mask & -mask]
        mask &= mask - 1
    return out


def oracle_centre_disjoint(
    h: Polynomial, k: int, max_pairs: int = DEFAULT_MAX_PAIRS
) -> str:
    """Independent disjointness decision via the toric ideal.

    Builds the toric ideal of the order-k derivative columns C_k, adds the
    centre's defining linear forms, and tests projective emptiness with one
    Groebner basis, which extends the toric ideal's reduced basis by the
    forms.  Returns "yes" (disjoint) or "no".

    ValueError is raised when C_k does not fill the truncation polytope, as by
    `centre_disjoint`.  No rho and no polytope is built.  ResourceLimit comes
    from the partial-count cap, above MAX_TORIC_POINTS (12) columns, or at the
    pair cap.
    """
    space = _filling_space(h, k)
    nz = len(space.columns)  # descending grevlex, as toric_ideal orders them: z_i <-> columns[i]
    gens = list(toric_ideal(space.columns, max_pairs).generators)
    toric = len(gens)  # a reduced grevlex basis: the final basis extends it
    z = [tuple(int(i == j) for j in range(nz)) for i in range(nz)]  # z[i] is z_i
    gens += [{z[i]: c for i, c in enumerate(row) if c} for row in space.matrix]
    # The toric ideal and the centre forms are homogeneous, so the projective
    # variety is empty iff the affine cone is {0}, iff the cone is finite, iff
    # every z_i has a pure power (1 included) among the leading monomials of a
    # Groebner basis (Cox, Little & O'Shea, Ideals, Varieties, and
    # Algorithms, ch. 5, sec. 3, the finiteness theorem).
    gb = buchberger_intdicts(gens, max_pairs=max_pairs, known=toric)
    leads = [max(g, key=grevlex_key) for g in gb]
    pure = {i for m in leads for i in range(nz) if m[i] == sum(m)}
    return "yes" if len(pure) == nz else "no"


# -- full certificate -----------------------------------------------------------------


@dataclass(frozen=True)
class SmoothnessCertificate:
    polynomial: str
    nvars: int
    degree: int
    mconvex: bool | None  # None: a guard fired before the M-convexity scan
    mconvex_witness: tuple | None
    lorentzian: LorentzianReport | None
    k_reports: tuple[OrderReport, ...]
    verdict: str
    polytope: LatticePolytope | None
    detail: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "polynomial": self.polynomial,
            "n": self.nvars,
            "d": self.degree,
            "mconvex": self.mconvex,
            "lorentzian": self.lorentzian.to_json_dict() if self.lorentzian else None,
            "k_reports": [r.to_json_dict() for r in self.k_reports],
            "verdict": self.verdict,
            "polytope": self.polytope.to_json_dict() if self.polytope else None,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


def certify_smooth(
    h: Polynomial,
    text: str | None = None,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> SmoothnessCertificate:
    """Run the full sufficiency pipeline on a homogeneous polynomial.

    Verdicts: "smooth-toric" when the support is M-convex and every order's
    centre is disjoint (the emitted polytope is then the summed-truncation
    base polytope, checked simple, which is smoothness for a polymatroid
    polytope); "criterion-fails" on any intersection (sufficiency only: this
    does not prove singularity); "not-applicable" for non-M-convex support;
    "undecided" when a resource guard fired (the total degree exceeds
    MAX_CERTIFY_DEGREE, the number of variables exceeds the ground-set cap
    MAX_GROUND_SET, the order-(d-1) partials exceed MAX_PARTIALS, or an
    order was undecided) or the summed-truncation polytope failed its
    smoothness self-check, with `detail` naming which.  The first three fire
    before the M-convexity scan and leave `mconvex` None.
    """
    if h.is_zero:
        raise ValueError("polynomial must be nonzero")
    if not h.is_homogeneous:
        raise ValueError("polynomial must be homogeneous")
    d = h.total_degree
    if d < 2:
        raise ValueError("degree must be at least 2")
    for i, column in enumerate(zip(*h.support())):
        if not any(column):
            raise ValueError(f"variable index {i} does not occur in the polynomial")
    echo = text if text is not None else h.to_string([f"x{i+1}" for i in range(h.nvars)])

    guard = degree_guard(d)
    if guard is None and h.nvars > MAX_GROUND_SET:
        guard = f"ground-set guard: {h.nvars} variables exceed the cap {MAX_GROUND_SET}"
    guard = guard or partials_guard(h.nvars, d - 1)  # the highest order computed
    if guard:  # before the M-convexity scan
        return SmoothnessCertificate(
            echo, h.nvars, d, None, None, None, (), VERDICT_UNDECIDED, None, detail=guard
        )
    mcx, mcx_witness = is_mconvex(h.support())
    lorentzian = is_lorentzian(h, mcx)

    if not mcx:
        return SmoothnessCertificate(
            echo, h.nvars, d, False, mcx_witness, lorentzian, (), VERDICT_NOT_APPLICABLE, None
        )

    rho = functools.cache(lambda: rank_from_support(h.support()))  # made once, if at all
    swaps = functools.cache(lambda: _swap_generators(h))  # made once, if at all
    # An M-convex support's derivative columns are M-convex: they fill each order's polytope.
    reports = tuple(_decide(h, derivative_space(h, k), rho, max_pairs, swaps) for k in range(1, d))
    detail = None
    if any(r.disjoint == "no" for r in reports):
        verdict = VERDICT_FAILS
        body = None
    elif any(r.disjoint == "undecided" for r in reports):
        verdict = VERDICT_UNDECIDED
        body = None
    else:
        verdict = VERDICT_SMOOTH
        # For d = 2 the summed truncation is order 1's, as truncate(rho, 2) is 0;
        # for d >= 3 its rank d(d-1)/2 exceeds every order's rank d - k.
        if d == 2:  # order 1 is then the simplex
            body = _simplex_lattice(h.nvars)[0]
        else:  # rho is a polymatroid
            body = _polymatroid_polytope(truncation_sum(rho(), 1), True)
        smooth, witness = is_simple(body)
        if not smooth:
            verdict, body = VERDICT_UNDECIDED, None
            detail = (
                "summed-truncation self-check: the polytope is not smooth "
                f"at vertex {list(witness)}"
            )
    return SmoothnessCertificate(
        echo, h.nvars, d, True, None, lorentzian, reports, verdict, body, detail
    )


# -- generic-coefficient probe ---------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    trials: int
    seed: int
    verdicts: tuple[str, ...]
    counts: dict

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "verdicts": list(self.verdicts),
            "counts": dict(self.counts),
        }


def smoothable_probe(
    support: Iterable[Exponent],
    trials: int,
    seed: int = 0,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> ProbeReport:
    """Sample random positive-coefficient polynomials with the given support.

    A sampling probe for generic behavior over a fixed M-convex support, not
    a decision procedure.  Coefficients are uniform integers in
    1..PROBE_MAX_COEFF from a seeded generator; 0 to MAX_PROBE_TRIALS
    trials.
    """
    if trials < 0:
        raise ValueError(f"trials {trials} is negative")
    if trials > MAX_PROBE_TRIALS:
        raise ValueError(f"trials {trials} exceeds the cap {MAX_PROBE_TRIALS}")
    pts = sorted({read_exponent(p) for p in support})
    mcx, witness = is_mconvex(pts)  # ValueError on an empty support
    if not mcx:
        raise ValueError(f"support is not M-convex, witness {witness}")
    nvars = len(pts[0])
    for i in range(nvars):
        if all(p[i] == 0 for p in pts):
            raise ValueError(f"variable index {i} does not occur in the support")
    rng = random.Random(seed)
    verdicts = []
    for _ in range(trials):
        terms = {p: Fraction(rng.randint(1, PROBE_MAX_COEFF)) for p in pts}
        cert = certify_smooth(Polynomial(nvars, terms), max_pairs=max_pairs)
        verdicts.append(cert.verdict)
    return ProbeReport(trials, seed, tuple(verdicts), dict(Counter(verdicts)))
