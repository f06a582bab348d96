"""Spans of higher-order partial derivatives and their monomial data.

For a homogeneous polynomial and an order k this module computes all k-th
order partials, the union of their supports, and a canonical echelon basis
of their span, stored as its coefficient matrix over the support monomials
(the matrix of the linear projection from monomial coordinates to the
derivative span; its kernel, `linalg.kernel_basis` of it, is the projection
centre).

The partials are read off the terms: for a multiset a of variable indices,
the order-|a| partial of sum c_m x^m is the sum over m >= a of
c_m * prod_l m_l!/(m_l - a_l)! * x^(m - a), with no cancellation, as distinct
m give distinct m - a.  Each term is visited once, for the size-k multisets a
over its own support only (an a asking more of a variable than m holds meets a
zero factor), so the work follows the terms produced, under the partial-count
cap per term.  They are read off h's integer view s*h
(`Polynomial.integer_terms`), whose positive scale changes no support and no
primitive echelon row, so no caller divides by s again; `certify_smooth`
passes its own view to `_span` for every order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from . import linalg
from .guards import partials_guard
from .poly import Exponent, Polynomial, grevlex_key


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


def _partial_terms(terms: dict[Exponent, int], nvars: int, k: int) -> list[dict[Exponent, int]]:
    """The int term dicts of every order-k partial of the polynomial with integer
    terms `terms` in `nvars` variables, one per multiset of variable indices in
    `combinations_with_replacement` order.

    Raises ResourceLimit above MAX_PARTIALS partials, before building any."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    partials_guard(nvars, k)
    out = {a: {} for a in combinations_with_replacement(range(nvars), k)}
    for m, c in terms.items():
        for a in combinations_with_replacement([i for i, x in enumerate(m) if x], k):
            e, coefficient = list(m), c
            for i in a:  # the falling power m_i (m_i - 1) ... (m_i - a_i + 1)
                coefficient *= e[i]
                e[i] -= 1
            if coefficient:
                out[a][tuple(e)] = coefficient
    return list(out.values())


def derivative_space(h: Polynomial, k: int) -> DerivativeSpace:
    """Canonical derivative-span data for 1 <= k < deg(h), h homogeneous."""
    if h.is_zero or not h.is_homogeneous:
        raise ValueError("polynomial must be nonzero and homogeneous")
    if not 1 <= k < h.total_degree:
        raise ValueError(f"order {k} out of range 1..{h.total_degree - 1}")
    return _span(h.integer_terms()[1], h.nvars, k)


def _span(terms: dict[Exponent, int], nvars: int, k: int) -> DerivativeSpace:
    """`derivative_space` of the polynomial whose integer view has terms `terms`,
    unchecked: the caller has validated the polynomial and k."""
    partials = [g for g in _partial_terms(terms, nvars, k) if g]
    columns = tuple(sorted(set().union(*partials), key=grevlex_key, reverse=True))
    reduced, _ = linalg.rref([[g.get(c, 0) for c in columns] for g in partials], len(columns))
    return DerivativeSpace(k, nvars, columns, tuple(reduced))


def elementary_symmetric(degree: int, nvars: int) -> Polynomial:
    """Sum of all squarefree degree-d monomials in n variables."""
    if not 1 <= degree <= nvars:
        raise ValueError("need 1 <= degree <= nvars")
    subsets = combinations(range(nvars), degree)
    return Polynomial(nvars, {tuple(int(i in s) for i in range(nvars)): 1 for s in subsets})
