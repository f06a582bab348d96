"""Spans of higher-order partial derivatives and their monomial data.

For a homogeneous polynomial and an order k this module computes all k-th
order partials, the union of their supports, a canonical echelon basis of
their span, and the coefficient matrix of that basis over the support
monomials (the matrix of the linear projection from monomial coordinates to
the derivative span).  The kernel of that matrix is the projection centre.

The partials are read off the coefficients: for a multiset a of variable
indices, the order-|a| partial of sum c_m x^m is the sum over m >= a of
c_m * prod_l m_l!/(m_l - a_l)! * x^(m - a), with no cancellation, as
distinct m give distinct m - a.  They are read off h's integer view s*h
(`Polynomial.integer_terms`), whose positive scale changes neither supports
nor primitive echelon rows; only `all_partials` divides by s again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, perm, prod
from operator import sub

from . import linalg
from .guards import ResourceLimit
from .poly import Exponent, Polynomial, grevlex_key

# Cap on the number C(n+k-1, k) of order-k partials in n variables, checked
# before any partial is built.
MAX_PARTIALS = 10_000


def partials_guard(nvars: int, k: int) -> str | None:
    """The partial-count guard's message when the order-k partials exceed the cap."""
    count = comb(nvars + k - 1, k) if nvars else int(k == 0)
    if count > MAX_PARTIALS:
        return f"partial-count guard: {count} order-{k} partials exceed the cap {MAX_PARTIALS}"
    return None


@dataclass(frozen=True)
class DerivativeSpace:
    """Echelon basis of the span of all order-k partials of one polynomial,
    stored once as the integer `matrix`; `basis` builds its rows as polynomials."""

    order: int
    nvars: int
    columns: tuple[Exponent, ...]  # union of the partials' supports, descending grevlex
    matrix: tuple[tuple[int, ...], ...]  # m_k x len(columns), primitive RREF rows

    @property
    def span_dimension(self) -> int:
        return len(self.matrix)

    @property
    def basis(self) -> tuple[Polynomial, ...]:
        return tuple(
            Polynomial(self.nvars, {c: x for c, x in zip(self.columns, row) if x})
            for row in self.matrix
        )


def _partial_terms(h: Polynomial, k: int) -> tuple[int, list[dict[Exponent, int]]]:
    """(s, the int term dicts of s times all_partials(h, k)), in its order and
    with its guard, for s the scale of h's integer view."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if guard := partials_guard(h.nvars, k):
        raise ResourceLimit(guard)
    s, terms = h.integer_terms()
    out = []
    for multi in combinations_with_replacement(range(h.nvars), k):
        a = [multi.count(i) for i in range(h.nvars)]
        shifted = ((tuple(map(sub, m, a)), m, c) for m, c in terms.items())
        out.append({e: c * prod(map(perm, m, a)) for e, m, c in shifted if min(e, default=0) >= 0})
    return s, out


def all_partials(h: Polynomial, k: int) -> list[Polynomial]:
    """Every order-k partial derivative, one per multiset of variable indices.

    Raises ResourceLimit above MAX_PARTIALS partials, before building any."""
    s, partials = _partial_terms(h, k)
    return [Polynomial(h.nvars, {e: Fraction(c, s) for e, c in g.items()}) for g in partials]


def derivative_support(h: Polynomial, k: int) -> frozenset[Exponent]:
    """Union of the supports of all order-k partials."""
    return frozenset().union(*_partial_terms(h, k)[1])


def derivative_space(h: Polynomial, k: int) -> DerivativeSpace:
    """Canonical derivative-span data for 1 <= k < deg(h), h homogeneous."""
    if h.is_zero or not h.is_homogeneous:
        raise ValueError("polynomial must be nonzero and homogeneous")
    if not 1 <= k < h.total_degree:
        raise ValueError(f"order {k} out of range 1..{h.total_degree - 1}")
    partials = [g for g in _partial_terms(h, k)[1] if g]
    columns = tuple(sorted(set().union(*partials), key=grevlex_key, reverse=True))
    reduced, _ = linalg.rref([[g.get(c, 0) for c in columns] for g in partials], len(columns))
    return DerivativeSpace(k, h.nvars, columns, tuple(reduced))


def projection_centre(space: DerivativeSpace) -> list[tuple[int, ...]]:
    """Canonical kernel basis of the projection matrix (primitive integer rows)."""
    return linalg.kernel_basis(space.matrix, len(space.columns))


def span_contains(space: DerivativeSpace, p: Polynomial) -> bool:
    """True iff p lies in the rational span of the order-k partials."""
    if p.is_zero:
        return True
    if not p.support() <= set(space.columns):
        return False
    return linalg.in_row_space(space.matrix, [p.coefficient(c) for c in space.columns])


def elementary_symmetric(degree: int, nvars: int) -> Polynomial:
    """Sum of all squarefree degree-d monomials in n variables."""
    if not 1 <= degree <= nvars:
        raise ValueError("need 1 <= degree <= nvars")
    subsets = combinations(range(nvars), degree)
    return Polynomial(nvars, {tuple(int(i in s) for i in range(nvars)): 1 for s in subsets})


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
