"""Integer set functions on 2^[n]: polymatroid axioms and derived operations.

A SetFunction stores a dense table of 2^n integers indexed by subset bitmask
(bit i-1 of the mask corresponds to ground-set element i).  This is the home
of the one polymatroid axiom check, a local scan, support rank functions,
truncations and their sums, and the hyperbolic rank along a line, read off
the polynomial's values at deg + 1 points of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .guards import degree_guard, ground_set_guard
from .poly import Exponent, Polynomial, read_points


def mask_to_set(mask: int, start: int = 1) -> tuple[int, ...]:
    """Bitmask to sorted tuple of its elements, bit 0 being element `start`."""
    return tuple(i for i, bit in enumerate(reversed(bin(mask)), start) if bit == "1")


def set_to_mask(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        if e < 1:
            raise ValueError("ground-set elements are 1-based")
        mask |= 1 << (e - 1)
    return mask


class SetFunction:
    """Dense integer-valued function on all subsets of [n]."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Sequence[int]):
        if n < 0:
            raise ValueError("ground-set size must be nonnegative")
        ground_set_guard(n)  # before any 2^n table is built
        if len(values) != 1 << n:
            raise ValueError(f"expected {1 << n} values, got {len(values)}")
        if bad := [v for v in values if type(v) is not int]:  # never truncate
            raise ValueError(f"set function value {bad[0]!r} is not an int")
        self.n = n
        self.values = tuple(values)

    def __getitem__(self, mask: int) -> int:
        return self.values[mask]

    @property
    def rank(self) -> int:
        """Value on the full ground set."""
        return self.values[-1]

    def __add__(self, other: "SetFunction") -> "SetFunction":
        if self.n != other.n:
            raise ValueError("ground-set size mismatch")
        return SetFunction(self.n, [a + b for a, b in zip(self.values, other.values)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFunction) and self.n == other.n and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.n, self.values))

    def __repr__(self) -> str:
        return f"SetFunction(n={self.n}, values={list(self.values)})"

    @classmethod
    def from_json(cls, text: str) -> "SetFunction":
        """Read {"n": ..., "values": [...]}; ValueError naming what else it finds."""
        data = json.loads(text)  # a JSONDecodeError is a ValueError
        if not isinstance(data, dict):
            raise ValueError('expected an object {"n": ..., "values": [...]}')
        if missing := [key for key in ("n", "values") if key not in data]:
            raise ValueError(f'missing key "{missing[0]}"')
        n, values = data["n"], data["values"]
        if not isinstance(values, list):
            raise ValueError(f'"values" must be an array, got {json.dumps(values)}')
        for x in (n, *values):
            if type(x) is not int:  # JSON 1.7 is a float and true a bool: never truncate
                raise ValueError(f"{json.dumps(x)} is not an integer")
        return cls(n, values)

    @classmethod
    def uniform_matroid(cls, rank: int, n: int) -> "SetFunction":
        ground_set_guard(n)
        return cls(n, [min(mask.bit_count(), rank) for mask in range(1 << n)])

    @classmethod
    def from_bases(cls, n: int, bases: Sequence[Iterable[int]]) -> "SetFunction":
        """Rank table r(S) = max |B & S| over the given basis family.

        Raises ValueError as `basis_masks` does.  The family is not
        otherwise validated; run is_polymatroid on the result to reject
        input whose rank table is not a polymatroid.
        """
        masks = basis_masks(n, bases)
        ground_set_guard(n)
        values = [max((b & mask).bit_count() for b in masks) for mask in range(1 << n)]
        return cls(n, values)


def basis_masks(n: int, bases: Sequence[Iterable[int]]) -> list[int]:
    """Bitmasks of a nonempty basis family of one size over 1..n, else ValueError."""
    if not bases:
        raise ValueError("at least one basis is required")
    bases = [list(b) for b in bases]
    outside = [e for b in bases for e in b if not 1 <= e <= n]
    if outside:
        raise ValueError(f"basis element {outside[0]} lies outside the ground set 1..{n}")
    masks = [set_to_mask(b) for b in bases]
    if len({m.bit_count() for m in masks}) != 1:
        raise ValueError("bases must share one cardinality")
    return masks


@dataclass(frozen=True)
class PolymatroidCheckReport:
    is_monotone: bool
    is_submodular: bool
    is_normalized: bool
    violating_pair: tuple[int, int] | None

    @property
    def ok(self) -> bool:
        return self.is_monotone and self.is_submodular and self.is_normalized


def is_polymatroid(f: SetFunction) -> PolymatroidCheckReport:
    """Local axiom scan in O(n^2 2^n), which implies the global axioms: f(empty set) = 0,
    f(S) <= f(S+i) and f(S+i) + f(S+j) >= f(S+i+j) + f(S) for i, j outside S.  The witness
    is (0, 0) if f(empty set) != 0, else the first by S: (S, S+i) or (S+i, S+j)."""
    values = f.values
    normalized = values[0] == 0
    violating: tuple[int, int] | None = None if normalized else (0, 0)
    monotone = submodular = True
    for s, fs in enumerate(values):
        out = [s | 1 << e for e in range(f.n) if not s >> e & 1]  # S+i for i outside S
        for a, si in enumerate(out):
            gain = values[si] - fs
            if monotone and gain < 0:
                monotone, violating = False, violating or (s, si)
            if submodular:
                for sj in out[a + 1 :]:
                    if values[si | sj] - values[sj] > gain:
                        submodular, violating = False, violating or (si, sj)
                        break
        if not (monotone or submodular):
            break
    return PolymatroidCheckReport(monotone, submodular, normalized, violating)


def rank_from_support(supp: Iterable[Exponent]) -> SetFunction:
    """Table S -> max over the support of the coordinate sum on S.

    Requires a nonempty set of exponents (`read_points`) of constant total
    degree.  The result is a polymatroid whenever the support is M-convex.
    """
    points = read_points(supp)
    n = len(points[0])
    if len({sum(p) for p in points}) != 1:
        raise ValueError("support is not homogeneous")
    ground_set_guard(n)
    values = None
    for p in points:
        table = [0]  # the subset sums of p, by mask: one addition per mask
        for x in p:
            table += [v + x for v in table]
        values = table if values is None else [a if a >= b else b for a, b in zip(values, table)]
    return SetFunction(n, values)


def truncate(f: SetFunction, k: int) -> SetFunction:
    """Pointwise min with rank - k."""
    d = f.rank
    if not 0 <= k <= d:
        raise ValueError(f"truncation index {k} out of range 0..{d}")
    cap = d - k
    return SetFunction(f.n, [min(cap, v) for v in f.values])


def truncation_sum(f: SetFunction, start: int = 0) -> SetFunction:
    """Pointwise sum of all truncations from index `start` through the rank.

    With D = rank - start, the sum of min(cap, v) over cap = 0..D is, for
    m = min(v, D), m(2D - m + 1)/2 when m >= 0 and (D + 1)m when m < 0: O(1)
    per entry, whatever the rank's value."""
    d = f.rank
    if not 0 <= start <= d:
        raise ValueError(f"start index {start} out of range 0..{d}")
    top = d - start  # D
    mins = [min(v, top) for v in f.values]
    return SetFunction(f.n, [m * (2 * top - m + 1) // 2 if m >= 0 else (top + 1) * m for m in mins])


# -- hyperbolic rank ---------------------------------------------------------


class ZeroRestrictionError(ValueError):
    """The polynomial restricted to the line is identically zero."""


def hyperbolic_rank(h: Polynomial, base: Sequence, direction: Sequence) -> int:
    """Degree of t -> h(base + t*direction); error if identically zero.

    Evaluates h at t = 0..deg h and returns the highest order j whose forward
    difference at 0 is nonzero.  Raises ResourceLimit above MAX_CERTIFY_DEGREE,
    before any evaluation.
    """
    degree_guard(h.total_degree)
    if len(base) != h.nvars or len(direction) != h.nvars:
        raise ValueError("point length mismatch")
    base, direction = [Fraction(x) for x in base], [Fraction(x) for x in direction]
    values = [
        h.evaluate([b + t * v for b, v in zip(base, direction)])
        for t in range(h.total_degree + 1)
    ]
    rank = -1
    for j in range(len(values)):  # values[0] is the j-th forward difference at 0
        if values[0]:
            rank = j
        values = [y - x for x, y in zip(values, values[1:])]
    if rank < 0:
        raise ZeroRestrictionError("polynomial vanishes identically on the line")
    return rank
