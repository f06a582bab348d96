"""Smoothness certification pipeline.

Given a homogeneous polynomial with rational coefficients this module gates
on M-convexity of the support, runs the exact Lorentzian signature test, and
decides for every derivative order k whether the centre of the projection
from monomial coordinates meets the toric variety of the truncated base
polytope.  Disjointness for all orders certifies that the associated
resolution is the smooth toric variety of the summed-truncation polytope,
which is emitted with the certificate.

The per-order test decomposes the toric variety into torus orbits indexed by
the faces of the truncation polytope and decides torus feasibility of each
face-restricted derivative system, one face per orbit of the variable swaps
fixing the polynomial.  One certificate computes the support's M-convexity,
its rank function rho, its swaps and each truncation polytope with its face
lattice once.  An independent Groebner oracle (toric ideal plus centre forms,
decided by one Groebner basis and the finiteness theorem) is provided for
cross-validation on small instances.
"""

from __future__ import annotations

import functools
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .derivatives import derivative_space, partials_guard
from .groebner import (
    DEFAULT_MAX_PAIRS,
    buchberger_intdicts,
    toric_ideal,
    torus_feasible,
)
from .guards import MAX_CERTIFY_DEGREE, ResourceLimit, degree_guard
from .poly import Exponent, Polynomial, grevlex_key
from .polytope import LatticePolytope, base_polytope, faces, is_simple, lattice_points
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
    """Brute-force exchange-axiom check.

    Returns (True, None) or (False, (x, y, i)) for the first exchange
    direction with no valid completion, in deterministic scan order.
    """
    pts = sorted({tuple(int(v) for v in p) for p in points})
    if not pts:
        raise ValueError("M-convexity is defined for nonempty point sets")
    if len({sum(p) for p in pts}) != 1:
        raise ValueError("points must have equal coordinate sums")
    if any(v < 0 for p in pts for v in p):
        raise ValueError("points must be nonnegative")
    index = set(pts)
    n = len(pts[0])
    for x in pts:
        for y in pts:
            for i in range(n):
                if x[i] <= y[i]:
                    continue
                ok = False
                for j in range(n):
                    if x[j] >= y[j]:
                        continue
                    xx = list(x)
                    xx[i] -= 1
                    xx[j] += 1
                    yy = list(y)
                    yy[i] += 1
                    yy[j] -= 1
                    if tuple(xx) in index and tuple(yy) in index:
                        ok = True
                        break
                if not ok:
                    return False, (x, y, i)
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
    if guard := degree_guard(d) or partials_guard(h.nvars, d - 2):
        raise ResourceLimit(guard)
    if mconvex is None:
        mconvex = is_mconvex(h.support())[0]
    terms = h.integer_terms()[1]
    nonneg = all(c > 0 for c in terms.values())
    # A term c_m x^m puts c_m * m! (m! = prod m_l!) at (i, j) of the Hessian of
    # the order-(d-2) partial at the multiset a = m - e_i - e_j.  The entries
    # come from h's integer view, whose positive scale keeps the eigenvalues' signs.
    n = h.nvars
    hessians: dict[Exponent, list[list[int]]] = defaultdict(lambda: [[0] * n for _ in range(n)])
    for m, c in terms.items():
        weight = c * prod(map(factorial, m))
        for i, j in combinations_with_replacement([i for i in range(n) if m[i]], 2):
            a = list(m)
            a[i] -= 1
            a[j] -= 1
            if a[i] >= 0:
                hessian = hessians[tuple(a)]
                hessian[i][j] = hessian[j][i] = weight
    failures = sorted(
        tuple(i for i in range(n) for _ in range(a[i]))  # a as a multiset
        for a, hessian in hessians.items()
        if positive_eigenvalue_count(hessian) > 1
    )
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


def _swap(e: tuple, i: int, j: int) -> tuple:
    return tuple(e[j] if t == i else e[i] if t == j else x for t, x in enumerate(e))


def _swap_generators(h: Polynomial) -> list[tuple[int, int]]:
    """Generators of the variable swaps fixing h: adjacent swaps within blocks.

    Variables i and j share a block iff swapping them fixes h's coefficients.
    That is an equivalence, as (i k) = (i j)(j k)(i j), so these swaps
    generate the product of the symmetric groups on the blocks.
    """
    terms = h.terms
    blocks: list[list[int]] = []
    for i in range(h.nvars):
        for block in blocks:
            if all(terms.get(_swap(e, block[0], i)) == c for e, c in terms.items()):
                block.append(i)
                break
        else:
            blocks.append([i])
    return [pair for block in blocks for pair in zip(block, block[1:])]


def centre_disjoint(
    h: Polynomial, k: int, max_pairs: int = DEFAULT_MAX_PAIRS
) -> OrderReport:
    """Decide whether the order-k projection centre misses the toric variety.

    Enumerates all faces of the base polytope of the k-th truncation of the
    support rank function; the centre meets the variety iff some face's
    restricted derivative system has a torus zero.  The first feasible face
    in the deterministic face order is reported as witness.  The system of a
    face is the span basis restricted to the derivative monomials on it: the
    same span as the restricted partials, hence the same ideal.  Faces in the
    orbit of an infeasible face under the variable swaps fixing h are skipped.
    """
    return _decide(h, k, rank_from_support(h.support()), {}, max_pairs, _swap_generators(h))


def _decide(
    h: Polynomial, k: int, rho: SetFunction, built: dict, max_pairs: int, swaps: list
) -> OrderReport:
    space = derivative_space(h, k)
    report = functools.partial(
        OrderReport,
        k=k,
        span_dim=space.span_dimension,
        num_monomials=len(space.columns),
        centre_dim=len(space.columns) - space.span_dimension,
    )
    truncation = truncate(rho, k)  # of rank d - k, so no two orders share one
    try:
        body = base_polytope(truncation)
    except ResourceLimit as exc:
        return report(disjoint="undecided", detail=f"order-{k} truncation polytope: {exc}")
    built[truncation] = body
    # A swap fixing h maps the polytope onto itself, so it permutes the vertices.
    index = {v: i for i, v in enumerate(body.vertices)}
    perms = [[index[_swap(v, i, j)] for v in body.vertices] for i, j in swaps]

    # The derivative monomials lie in the truncation polytope, so the ones on
    # a face are those tight at every facet containing it.
    facets = body.inequalities
    tight_at = [
        (i, c, {j for j, (a, b) in enumerate(facets) if sum(map(mul, a, c)) == b})
        for i, c in enumerate(space.columns)
    ]
    settled: set[tuple[int, ...]] = set()  # faces in an infeasible orbit
    undecided = []
    for face in faces(body):
        if face.vertex_indices in settled:
            continue
        on = [(i, c) for i, c, tight in tight_at if face.facets <= tight]
        gens = [g for g in ({c: row[i] for i, c in on if row[i]} for row in space.matrix) if g]
        verdict = torus_feasible(gens, max_pairs=max_pairs)
        if verdict.is_feasible:
            return report(
                disjoint="no",
                witness_face=face.vertices,
                detail=f"torus point on the face orbit ({verdict.method})",
            )
        if verdict.status == "undecided":
            detail = f"{verdict.method} undecided on a face orbit: {verdict.certificate}"
            undecided.append((face.vertex_indices, detail))
        elif perms:  # infeasible: settle the orbit
            orbit = [face.vertex_indices]
            while orbit:
                cur = orbit.pop()
                if cur not in settled:
                    settled.add(cur)
                    orbit += [tuple(sorted(perm[x] for x in cur)) for perm in perms]
    # A face at the pair cap is undecided only if no face of its orbit was infeasible.
    detail = next((d for key, d in undecided if key not in settled), None)
    return report(disjoint="undecided" if detail else "yes", detail=detail)


def oracle_centre_disjoint(
    h: Polynomial, k: int, max_pairs: int = DEFAULT_MAX_PAIRS
) -> str:
    """Independent disjointness decision via the toric ideal.

    Builds the toric ideal of the truncation polytope's lattice points, adds
    the centre's defining linear forms, and tests projective emptiness with
    one Groebner basis.  Returns "yes" (disjoint) or "no".
    Raises ValueError when the derivative support does not fill the
    truncation polytope, and ResourceLimit above MAX_TORIC_POINTS (12)
    points, at the pair cap, or at the greedy or lattice-scan cap.
    """
    space = derivative_space(h, k)
    body = base_polytope(truncate(rank_from_support(h.support()), k))
    pts = sorted(lattice_points(body), key=grevlex_key, reverse=True)
    if set(pts) != set(space.columns):
        raise ValueError(
            "oracle requires the derivative support to fill the truncation polytope"
        )
    nz = len(pts)  # variable z_i <-> pts[i] == space.columns[i]
    gens = list(toric_ideal(pts, max_pairs).generators)
    z = [tuple(int(i == j) for j in range(nz)) for i in range(nz)]  # z[i] is z_i
    gens += [{z[i]: c for i, c in enumerate(row) if c} for row in space.matrix]
    # The toric ideal and the centre forms are homogeneous, so the projective
    # variety is empty iff the affine cone is {0}, iff the cone is finite, iff
    # every z_i has a pure power (1 included) among the leading monomials of a
    # Groebner basis (Cox, Little & O'Shea, Ideals, Varieties, and
    # Algorithms, ch. 5, sec. 3, the finiteness theorem).
    gb = buchberger_intdicts(gens, max_pairs=max_pairs)
    leads = [max(g, key=grevlex_key) for g in gb]
    pure = {i for m in leads for i in range(nz) if m[i] == sum(m)}
    return "yes" if len(pure) == nz else "no"


# -- full certificate -----------------------------------------------------------------


@dataclass(frozen=True)
class SmoothnessCertificate:
    polynomial: str
    nvars: int
    degree: int
    mconvex: bool
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
    smoothness self-check, with `detail` naming which.
    """
    if h.is_zero:
        raise ValueError("polynomial must be nonzero")
    if not h.is_homogeneous:
        raise ValueError("polynomial must be homogeneous")
    d = h.total_degree
    if d < 2:
        raise ValueError("degree must be at least 2")
    for i in range(h.nvars):
        if all(e[i] == 0 for e in h.support()):
            raise ValueError(f"variable index {i} does not occur in the polynomial")
    echo = text if text is not None else h.to_string([f"x{i+1}" for i in range(h.nvars)])

    mcx, mcx_witness = is_mconvex(h.support())
    guard = degree_guard(d)
    if guard is None and h.nvars > MAX_GROUND_SET:
        guard = f"ground-set guard: {h.nvars} variables exceed the cap {MAX_GROUND_SET}"
    guard = guard or partials_guard(h.nvars, d - 1)  # the highest order built
    if guard:
        return SmoothnessCertificate(
            echo, h.nvars, d, mcx, mcx_witness, None, (), VERDICT_UNDECIDED, None, detail=guard
        )
    lorentzian = is_lorentzian(h, mcx)

    if not mcx:
        return SmoothnessCertificate(
            echo, h.nvars, d, False, mcx_witness, lorentzian, (), VERDICT_NOT_APPLICABLE, None
        )

    rho = rank_from_support(h.support())
    swaps = _swap_generators(h)
    built: dict[SetFunction, LatticePolytope] = {}
    reports = tuple(_decide(h, k, rho, built, max_pairs, swaps) for k in range(1, d))
    detail = None
    if any(r.disjoint == "no" for r in reports):
        verdict = VERDICT_FAILS
        body = None
    elif any(r.disjoint == "undecided" for r in reports):
        verdict = VERDICT_UNDECIDED
        body = None
    else:
        verdict = VERDICT_SMOOTH
        summed = truncation_sum(rho, 1)  # the order-1 truncation when d = 2
        body = built[summed] if summed in built else base_polytope(summed)
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
    1..PROBE_MAX_COEFF from a seeded generator; at most MAX_PROBE_TRIALS
    trials.
    """
    if trials > MAX_PROBE_TRIALS:
        raise ValueError(f"trials {trials} exceeds the cap {MAX_PROBE_TRIALS}")
    pts = sorted({tuple(int(x) for x in p) for p in support})
    mcx, witness = is_mconvex(pts)
    if not mcx:
        raise ValueError(f"support is not M-convex, witness {witness}")
    nvars = len(pts[0]) if pts else 0
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
