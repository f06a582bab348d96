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
derivative system on the first face of each orbit of the variable swaps fixing
the polynomial, the face on which no swap's two column masks fire.  M-convex
order-k derivative columns are the lattice points of P_k, so a face is the mask
of the columns on it: the walk reads the facets off the columns' own rank
function, truncate(rho, k), closes them under meets kept only where no swap
fires, so it lists just the faces it decides, and builds no polytope.
`centre_disjoint` and the independent Groebner oracle share that
precondition and raise ValueError without it; an M-convex support meets it.
The oracle then checks the 12-point cap, answers an empty centre (partials
spanning every column) with no Groebner work, and else extends the toric
ideal's basis by the centre forms in one Groebner run, which answers "yes" at
the first pure-power lead of every variable and builds no reduced basis.
When every variable occurs, the order-(d-1) truncation min(1, rho) is the rank
function of U(1, n): its base polytope is the standard simplex, with the
columns as vertices, built with its face lattice in the only cache kept
between calls, once per n.
One certificate reads h once, as one integer view s*h: its exponents give the
degree, homogeneity and support, and the Lorentzian test, the swaps and each
order's span read its terms.  Nothing derived from h outlives the call.  It
finds the swaps at most once and rho at most once, for the summed polytope at
d >= 3.  It runs no polymatroid axiom check: rho of an M-convex support, its
truncations and their sum are polymatroids.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, lcm, prod
from operator import gt, itemgetter, lt, mul
from typing import Callable, Iterable, Sequence

from .derivatives import DerivativeSpace, _span, derivative_space
from .groebner import DEFAULT_MAX_PAIRS, _cone_is_origin, toric_ideal, torus_feasible
from .guards import ResourceLimit, degree_guard, greedy_guard, ground_set_guard
from .guards import partials_guard, toric_points_guard
from .poly import Exponent, Polynomial, read_points
from .polytope import LatticePolytope, _facets, _fires, _lattice, _polymatroid_polytope
from .polytope import _vertex_mask, is_simple
from .setfunc import SetFunction, rank_from_support, truncation_sum

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
    """The one-sided exchange axiom (B-EXC+) as one cover test per (x, i).

    B is M-convex if and only if for x, y in B and each i with x_i > y_i some
    j with x_j < y_j has x - e_i + e_j in B (Murota, Discrete Convex Analysis,
    SIAM 2003, ch. 4); the equivalent two-sided axiom also asks y + e_i - e_j.
    Returns (True, None) or (False, (x, y, i)) for the first triple, by x, then
    y, then i in sorted order, that no j completes, so it fails both axioms.
    With B indexed by bit, the y with y_i < x_i must lie in the union of the y
    with y_j > x_j over the j with x - e_i + e_j in B: O(|B| n^2) lookups and
    ORs of |B|-bit ints, over tables keyed by the values that occur.
    """
    pts = sorted(read_points(points))
    if len({sum(p) for p in pts}) != 1:
        raise ValueError("points must have equal coordinate sums")
    n, d = len(pts[0]), sum(pts[0])
    weight = [(d + 1) ** t for t in range(n)]  # base-(d+1) digits: a unit move is one addition
    codes = {sum(map(mul, p, weight)) for p in pts}
    full = (1 << len(pts)) - 1
    below, above = [], []  # below[j][v]: the y with y_j < v, and above[j][v]: with y_j > v
    for column in zip(*pts):
        at: dict[int, int] = {}  # at[v]: the y with y_j == v
        for k, v in enumerate(column):
            at[v] = at.get(v, 0) | 1 << k
        low, union = {}, 0
        for v in sorted(at):
            low[v], union = union, union | at[v]
        below.append(low)
        above.append({v: full ^ b ^ at[v] for v, b in low.items()})
    for x in pts:
        c = sum(map(mul, x, weight))
        higher = [(c + w, above[j][x[j]]) for j, w in enumerate(weight)]  # code(x + e_j), y_j > x_j
        fails = [0] * n  # fails[i]: the y with y_i < x_i that no j completes
        for i, w in enumerate(weight):
            if low := below[i][x[i]]:
                cover = 0  # j = i adds only y with y_i > x_i, outside low
                for target, ys in higher:
                    if target - w in codes:
                        cover |= ys
                fails[i] = low & ~cover
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
    degree_guard(d)
    partials_guard(h.nvars, d - 2)
    if mconvex is None:
        mconvex = is_mconvex(h.support())[0]
    return _lorentzian(h.integer_terms()[1], h.nvars, mconvex)


def _lorentzian(terms: dict[Exponent, int], n: int, mconvex: bool) -> LorentzianReport:
    """`is_lorentzian` on the terms of h's integer view, unchecked: its positive
    scale keeps every sign and every eigenvalue's sign."""
    # For m = a + e_i + e_j, the Hessian of the partial d^a of h has c_m * prod m_l! at (i, j).
    nonneg = all(c > 0 for c in terms.values())
    hessians: dict[Exponent, list[list[int]]] = {}  # a -> the Hessian of d^a h
    for m, c in terms.items():
        value = c * prod(map(factorial, m))
        for i, j in combinations_with_replacement([i for i, x in enumerate(m) if x], 2):
            if i != j or m[i] > 1:
                a = m[:i] + (m[i] - 1,) + m[i + 1 :]
                a = a[:j] + (a[j] - 1,) + a[j + 1 :]
                hessian = hessians.get(a) or hessians.setdefault(a, [[0] * n for _ in range(n)])
                hessian[i][j] = hessian[j][i] = value
    # each a as its sorted variable indices, in combinations_with_replacement order
    failed = (a for a, hessian in hessians.items() if positive_eigenvalue_count(hessian) > 1)
    failures = sorted(tuple(l for l, x in enumerate(a) for _ in range(x)) for a in failed)
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


def _swap_generators(terms: dict[Exponent, int], n: int) -> list[tuple[int, int]]:
    """Generators of the variable swaps fixing h, given the terms of h or of its
    integer view in n variables (the same swaps fix both): adjacent swaps within blocks.

    Variables i and j share a block iff swapping them fixes h's coefficients.
    That is an equivalence, as (i k) = (i j)(j k)(i j), so these swaps
    generate the product of the symmetric groups on the blocks.  A swap of i
    and j maps i's multiset of (exponent, coefficient) pairs onto j's, so it
    leaves equal any function of that multiset: the signature, the sum of
    c * (e_i + |e|) over the terms with e_i > 0, is compared before the terms are.
    When all n signatures differ, one pass over the terms shows no swap fixes h.
    """
    signature = [0] * n
    for e, c in terms.items():
        t = sum(e)
        for i, x in enumerate(e):
            if x:
                signature[i] += c * (x + t)
    blocks: list[list[int]] = []
    for i in range(n):
        for block in blocks:
            if signature[block[0]] != signature[i]:
                continue
            order = list(range(n))
            order[block[0]], order[i] = i, block[0]
            swap = itemgetter(*order)
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
    its vertices; of each orbit of the swaps fixing h only the first face is
    decided (see `_decide`).  ValueError is raised, as by `oracle_centre_disjoint`,
    when the columns are not M-convex: the walk is exact when they fill P_k.
    """
    space = _filling_space(h, k)
    return _decide(space, max_pairs, lambda: _swap_generators(h.integer_terms()[1], h.nvars))


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


def _decide(space: DerivativeSpace, max_pairs: int, swaps: Callable[[], list]) -> OrderReport:
    """The report of the order of `space`, whose columns fill its truncation polytope.

    A face is the mask of the columns on it, bit t for the t-th in lexicographic
    order, and its facets are read off the columns' rank function, truncate(rho, k)
    by `_filling_space`'s lemma, or the simplex's.  Of each orbit of the swaps
    fixing h only the first face F in the lattice order is listed and decided: the
    face on which no generator (i, j), i < j, fires (`_fires`), that is, has a
    column with c_i > c_j and none with c_i < c_j.  `_lattice` prunes its meet
    closure by that rule, losing none of those faces by its lemmas (a) and (b);
    the cached simplex lattice is filtered by it.  Each listed face gets one torus
    feasibility call: the systems of its orbit are its own with the variables
    renamed, so a first face at the pair cap leaves the order undecided, unless a
    later face is feasible.  A witness is named by its vertices, read off the facets.
    The first-face test is exact:
    1. t = (i j) fixes the columns and P_k.  If tF != F, no w in relint N(F) has
       w_i = w_j, as tw = w would lie in relint N(tF); so, say, w_i > w_j on it,
       and <w, c> >= <w, tc> gives c_i >= c_j on F's columns, once strictly.
    2. Then tc is lexicographically smaller than c: t maps F's vertex indices to
       no larger ones, some smaller, so tF comes earlier in the lattice order.
    3. A column sum in relint F and the count name F, and the swaps permute the
       sums: one face per orbit has sums ascending within blocks, by 2 the first.
    4. Any other face has sum_i > sum_j for a generator: by 1, (i, j) fires.
    """
    k, columns = space.order, space.columns
    m, b = space.span_dimension, len(columns)  # m_k and |B_k|
    report = functools.partial(OrderReport, k=k, span_dim=m, num_monomials=b, centre_dim=b - m)
    try:
        greedy_guard(space.nvars)  # before the rank function's 2^n table
    except ResourceLimit as exc:
        return report(disjoint="undecided", detail=f"order-{k} truncation polytope: {exc}")
    points = sorted(columns)
    index = {c: 1 << t for t, c in enumerate(points)}
    moves = []  # per generator (i, j): the columns with c_i > c_j and with c_i < c_j
    for i, j in swaps():
        moves.append(tuple(sum(index[c] for c in points if op(c[i], c[j])) for op in (gt, lt)))
    # n columns of degree 1 (k = d - 1, every variable occurring): min(1, rho) is
    # U(1, n)'s rank function
    if sum(points[0]) == 1 and len(points) == space.nvars:
        body, faces = _simplex_lattice(space.nvars)
        facets = body.facet_masks
        lattice = [face for face in faces if not _fires(face[1], moves)] if moves else faces
    else:
        facets = list(_facets(rank_from_support(points), points, True))
        lattice = _lattice(facets, len(points), moves)
    # Each basis row keeps its nonzero (bit, column, value).  A row wholly on
    # a face passes its prebuilt dict; only a cut row is rebuilt.
    rows = [[(index[c], c, x) for c, x in zip(columns, r) if x] for r in space.matrix]
    rows = [(sum(bit for bit, _, _ in row), row, {c: x for _, c, x in row}) for row in rows]
    detail = None  # the first capped face's
    for _, on in lattice:
        gens = [
            whole if mask & on == mask else {c: x for bit, c, x in row if bit & on}
            for mask, row, whole in rows
            if mask & on
        ]
        verdict = torus_feasible(gens, max_pairs=max_pairs)
        if verdict.is_feasible:
            vertices = on & _vertex_mask(facets, len(points))
            return report(
                disjoint="no",
                witness_face=tuple(c for t, c in enumerate(points) if vertices >> t & 1),
                detail=f"torus point on the face orbit ({verdict.method})",
            )
        if verdict.status == "undecided" and detail is None:
            detail = f"{verdict.method} undecided on a face orbit: {verdict.certificate}"
    return report(disjoint="undecided" if detail else "yes", detail=detail)


@functools.cache  # n <= MAX_GREEDY_GROUND_SET past the guard: at most 8 entries
def _simplex_lattice(n: int) -> tuple[LatticePolytope, tuple[tuple[int, int], ...]]:
    """B(f) for f(S) = min(1, |S|), U(1, n)'s rank function, and its face lattice, once
    per n: the standard simplex, whose vertices are the order-(d-1) columns, in order,
    when every variable occurs in h."""
    body = _polymatroid_polytope(SetFunction.uniform_matroid(1, n), True)
    return body, tuple(_lattice(body.facet_masks, n))


def oracle_centre_disjoint(
    h: Polynomial, k: int, max_pairs: int = DEFAULT_MAX_PAIRS
) -> str:
    """Independent disjointness decision via the toric ideal: "yes" (disjoint) or "no".

    In order: ValueError when C_k, the order-k derivative columns, does not
    fill the truncation polytope, as by `centre_disjoint`; ResourceLimit above
    MAX_TORIC_POINTS (12) columns; "yes" when the partials span every column,
    as the centre is then {0}; else one Groebner run that extends the reduced
    basis of C_k's toric ideal by the centre's linear forms (`_cone_is_origin`).
    It answers "yes" as soon as every variable has a pure-power lead, and "no"
    when its pair queue empties; it never interreduces.  No rho and no polytope
    is built.  ResourceLimit also comes from the partial-count cap, or at the
    pair cap, which an empty centre never reaches: the cap bounds the S-pairs
    of each basis of the toric ideal and of the run up to its answer.
    """
    space = _filling_space(h, k)
    nz = len(space.columns)  # descending grevlex, as toric_ideal orders them: z_i <-> columns[i]
    toric_points_guard(nz)
    if len(space.matrix) == nz:  # the forms cut out {0}: the centre is empty
        return "yes"
    gens = list(toric_ideal(space.columns, max_pairs).generators)
    toric = len(gens)  # a reduced grevlex basis: the final basis extends it
    z = [tuple(int(i == j) for j in range(nz)) for i in range(nz)]  # z[i] is z_i
    gens += [{z[i]: c for i, c in enumerate(row) if c} for row in space.matrix]
    # The toric ideal and the centre forms are homogeneous, so the projective
    # variety is empty iff the affine cone is {0}.
    return "yes" if _cone_is_origin(gens, max_pairs, known=toric) else "no"


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
    # the call's one integer view s*h: a positive multiple of h, with its support, signs and swaps
    terms, n = h.integer_terms()[1], h.nvars
    degrees = {sum(m) for m in terms}
    if not degrees:
        raise ValueError("polynomial must be nonzero")
    if len(degrees) > 1:
        raise ValueError("polynomial must be homogeneous")
    (d,) = degrees
    if d < 2:
        raise ValueError("degree must be at least 2")
    for i, column in enumerate(zip(*terms)):
        if not any(column):
            raise ValueError(f"variable index {i} does not occur in the polynomial")
    echo = text if text is not None else h.to_string([f"x{i+1}" for i in range(n)])

    try:  # before the M-convexity scan
        degree_guard(d)
        ground_set_guard(n)
        partials_guard(n, d - 1)  # at d - 1, the highest order computed, and the Hessians' d - 2
    except ResourceLimit as exc:
        return SmoothnessCertificate(
            echo, n, d, None, None, None, (), VERDICT_UNDECIDED, None, detail=str(exc)
        )
    mcx, mcx_witness = is_mconvex(terms)
    lorentzian = _lorentzian(terms, n, mcx)

    if not mcx:
        return SmoothnessCertificate(
            echo, n, d, False, mcx_witness, lorentzian, (), VERDICT_NOT_APPLICABLE, None
        )

    swaps = functools.cache(lambda: _swap_generators(terms, n))  # made once, if at all
    # An M-convex support's derivative columns are M-convex: they fill each order's polytope.
    reports = tuple(_decide(_span(terms, n, k), max_pairs, swaps) for k in range(1, d))
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
            body = _simplex_lattice(n)[0]
        else:  # rho, the support's rank function, is a polymatroid
            body = _polymatroid_polytope(truncation_sum(rank_from_support(terms), 1), True)
        smooth, witness = is_simple(body)
        if not smooth:
            verdict, body = VERDICT_UNDECIDED, None
            detail = (
                "summed-truncation self-check: the polytope is not smooth "
                f"at vertex {list(witness)}"
            )
    return SmoothnessCertificate(echo, n, d, True, None, lorentzian, reports, verdict, body, detail)


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
    pts = sorted(read_points(support))
    mcx, witness = is_mconvex(pts)
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
