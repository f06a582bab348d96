"""Integer set functions on 2^[n]: polymatroid axioms and derived operations.

A SetFunction stores a dense table of 2^n integers indexed by subset bitmask
(bit i-1 of the mask corresponds to ground-set element i).  This is the home
of the one polymatroid axiom check, a local scan, support rank functions,
truncations and their sums, inseparability, the combinatorial simplicity
conditions, and hyperbolic rank evaluation along coordinate directions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .guards import ResourceLimit, degree_guard
from .poly import Exponent, Polynomial

MAX_GROUND_SET = 20
MAX_PARTITION_GROUND_SET = 8


class GroundSetTooLarge(ResourceLimit):
    pass


def require_ground_set(n: int) -> None:  # before any 2^n table is built
    if n > MAX_GROUND_SET:
        raise GroundSetTooLarge(f"ground set of size {n} exceeds the cap {MAX_GROUND_SET}")


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
        require_ground_set(n)
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

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "values": list(self.values)})

    @classmethod
    def from_json(cls, text: str) -> "SetFunction":
        """Read {"n": ..., "values": [...]}; ValueError on a non-integer n or value."""
        data = json.loads(text)
        n, values = data["n"], list(data["values"])
        for x in (n, *values):
            if type(x) is not int:  # JSON 1.7 is a float and true a bool: never truncate
                raise ValueError(f"{json.dumps(x)} is not an integer")
        return cls(n, values)

    @classmethod
    def uniform_matroid(cls, rank: int, n: int) -> "SetFunction":
        require_ground_set(n)
        return cls(n, [min(mask.bit_count(), rank) for mask in range(1 << n)])

    @classmethod
    def from_bases(cls, n: int, bases: Sequence[Iterable[int]]) -> "SetFunction":
        """Rank table r(S) = max |B & S| over the given basis family.

        Raises ValueError as `basis_masks` does.  The family is not
        otherwise validated; run is_polymatroid / is_matroid on the result to
        reject non-matroid input.
        """
        masks = basis_masks(n, bases)
        require_ground_set(n)
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


def is_matroid(f: SetFunction) -> bool:
    report = is_polymatroid(f)
    if not report.ok:
        return False
    return all(f.values[1 << i] <= 1 for i in range(f.n))


def rank_from_support(supp: Iterable[Exponent]) -> SetFunction:
    """Table S -> max over the support of the coordinate sum on S.

    Requires a nonempty support of constant total degree.  The result is a
    polymatroid whenever the support is M-convex.
    """
    points = [tuple(int(x) for x in p) for p in supp]
    if not points:
        raise ValueError("support is empty")
    if len(set(map(len, points))) != 1:
        raise ValueError("points must have equal length")
    n = len(points[0])
    degrees = {sum(p) for p in points}
    if len(degrees) != 1:
        raise ValueError("support is not homogeneous")
    require_ground_set(n)
    values = None
    for p in set(points):
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
    """Pointwise sum of all truncations from index `start` through the rank."""
    d = f.rank
    if not 0 <= start <= d:
        raise ValueError(f"start index {start} out of range 0..{d}")
    caps = range(d - start + 1)  # d - k for k = start..d
    return SetFunction(f.n, [sum(min(cap, v) for cap in caps) for v in f.values])


def _proper_splits(mask: int):
    """Yield (part, complement) over unordered 2-partitions of mask."""
    low = mask & -mask
    sub = (mask - 1) & mask
    while sub:
        if sub & low:
            rest = mask & ~sub
            if rest:
                yield sub, rest
        sub = (sub - 1) & mask


def is_inseparable(f: SetFunction, mask: int) -> bool:
    """True iff every 2-partition of the subset has strictly subadditive value.

    Subsets of size at most one are inseparable by convention.
    """
    if mask.bit_count() <= 1:
        return True
    fm = f.values[mask]
    for part, rest in _proper_splits(mask):
        if fm >= f.values[part] + f.values[rest]:
            return False
    return True


@dataclass(frozen=True)
class SimplicityReport:
    holds: bool
    kind: str | None = None  # "meet-join" or "partition"
    witness: tuple | None = None


def _partitions_of_mask(mask: int):
    """All partitions of the subset `mask` into >= 1 nonempty blocks."""
    elements = [i for i in range(mask.bit_length()) if mask >> i & 1]

    def rec(idx: int, blocks: list[int]):
        if idx == len(elements):
            yield list(blocks)
            return
        bit = 1 << elements[idx]
        for i in range(len(blocks)):
            blocks[i] |= bit
            yield from rec(idx + 1, blocks)
            blocks[i] &= ~bit
        blocks.append(bit)
        yield from rec(idx + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def check_simplicity_conditions(f: SetFunction) -> SimplicityReport:
    """Exhaustively verify the two combinatorial simplicity conditions.

    (a) for subsets S, T that overlap properly, both exceed their meet, and
        are inseparable together with their join: strict submodularity
        f(S&T) + f(S|T) < f(S) + f(T);
    (b) for every family of >= 2 disjoint nonempty parts whose union U is
        dominated by an inseparable S (same value): f(U) < sum of part values.

    Returns the first violation in deterministic scan order, if any.
    """
    if f.n > MAX_PARTITION_GROUND_SET:
        raise GroundSetTooLarge(
            f"ground set of size {f.n} exceeds the cap {MAX_PARTITION_GROUND_SET}"
        )
    size = 1 << f.n
    insep = [is_inseparable(f, mask) for mask in range(size)]

    for s in range(size):
        for t in range(size):
            meet = s & t
            if meet == 0 or meet == s or meet == t:
                continue
            if f.values[meet] >= f.values[s] or f.values[meet] >= f.values[t]:
                continue
            join = s | t
            if not (insep[s] and insep[t] and insep[join]):
                continue
            if f.values[meet] + f.values[join] >= f.values[s] + f.values[t]:
                return SimplicityReport(False, "meet-join", (s, t))

    for union in range(size):
        if union.bit_count() < 2:
            continue
        fu = f.values[union]
        witness_s = next(
            (s for s in range(size) if (s & union) == union and insep[s] and f.values[s] == fu),
            None,
        )
        if witness_s is None:
            continue
        for blocks in _partitions_of_mask(union):
            if len(blocks) < 2:
                continue
            if fu >= sum(f.values[b] for b in blocks):
                return SimplicityReport(False, "partition", (tuple(blocks), witness_s))

    return SimplicityReport(True)


# -- hyperbolic rank ---------------------------------------------------------


class ZeroRestrictionError(ValueError):
    """The polynomial restricted to the line is identically zero."""


def hyperbolic_rank(h: Polynomial, base: Sequence, direction: Sequence) -> int:
    """Degree of t -> h(base + t*direction); error if identically zero.

    Raises ResourceLimit above MAX_CERTIFY_DEGREE; the work is quadratic in the degree.
    """
    if guard := degree_guard(h.total_degree):
        raise ResourceLimit(guard)
    coeffs = h.substitute_line(base, direction)
    if not coeffs:
        raise ZeroRestrictionError("polynomial vanishes identically on the line")
    return len(coeffs) - 1


def polymatroid_from_hyperbolic(h: Polynomial, base: Sequence) -> SetFunction:
    """Table of line degrees along indicator-sum directions from `base`."""
    point = [Fraction(x) for x in base]
    if h.evaluate(point) == 0:
        raise ValueError("polynomial vanishes at the base point")
    n = h.nvars
    require_ground_set(n)
    values = []
    for mask in range(1 << n):
        direction = [Fraction(1) if mask >> i & 1 else Fraction(0) for i in range(n)]
        values.append(hyperbolic_rank(h, point, direction))
    return SetFunction(n, values)
