"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to nonzero Fraction
coefficients.  All arithmetic is exact; there is no floating point anywhere.
Values are immutable after construction, so they can be shared freely.
Besides arithmetic they differentiate, evaluate at a point and print; the
parser reads the printed form back.

  Exponent = tuple[int, ...]     one entry per variable
  terms    = {Exponent: Fraction, ...}   zero coefficients never stored

This module is the one place that checks exponents, for the whole library:
`check_exponents` refuses an entry that is not a nonnegative int,
`check_lengths` exponents of mixed length, and `read_points` also an empty
point set.  Each fault has one message wherever it is found.

The canonical term order used for printing and for linear algebra over
monomials is graded reverse lexicographic with the first variable largest.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def check_exponents(exponents: Iterable[Iterable]) -> None:
    """ValueError naming the first entry that is not a nonnegative int, so -1,
    1.5, Fraction(3, 2) and True are refused, never truncated."""
    for exponent in exponents:
        for x in exponent:
            if type(x) is not int or x < 0:
                raise ValueError(f"exponent entry {x!r} is not a nonnegative int")


def check_lengths(lengths: set[int]) -> None:
    """ValueError listing the lengths when exponents come in more than one."""
    if len(lengths) > 1:
        raise ValueError(f"exponents of mixed length: {', '.join(map(str, sorted(lengths)))}")


def read_points(points: Iterable[Iterable]) -> list[Exponent]:
    """The distinct points as exponent tuples, in first-seen order.  ValueError,
    in this order, on a bad entry, an empty set and exponents of mixed length."""
    pts = [tuple(p) for p in points]
    check_exponents(pts)  # before True and 1 could merge
    if not pts:
        raise ValueError("the point set is empty")
    check_lengths(set(map(len, pts)))
    return list(dict.fromkeys(pts))


def grevlex_key(exponent: Sequence[int]) -> tuple:
    """Sort key realizing graded reverse lexicographic order.

    Larger key means larger monomial: compare total degree first, then
    reverse lexicographic (the monomial with less of the last variable wins).
    """
    return (sum(exponent), tuple(-e for e in reversed(exponent)))


class Polynomial:
    """Immutable sparse polynomial with rational coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exponent, coeff in terms.items():
                exponent = tuple(exponent)
                check_exponents((exponent,))
                if len(exponent) != nvars:
                    raise ValueError(
                        f"exponent {exponent} has length {len(exponent)}, expected {nvars}"
                    )
                if type(coeff) is not Fraction:
                    coeff = Fraction(coeff)
                if coeff:
                    clean[exponent] = clean[exponent] + coeff if exponent in clean else coeff
            if len(clean) < len(terms):  # a zero term, or like terms added, perhaps to 0
                clean = {e: c for e, c in clean.items() if c}
        self._terms = clean

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        exponent = [0] * nvars
        exponent[index] = 1
        return cls(nvars, {tuple(exponent): Fraction(1)})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    # -- basic queries ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self._terms.items())

    def integer_terms(self) -> tuple[int, dict[Exponent, int]]:
        """(s, {m: s * c_m}) for s the lcm of the coefficients' denominators;
        (1, {}) for the zero polynomial."""
        s = lcm(*(c.denominator for c in self._terms.values()))
        return s, {m: c.numerator * (s // c.denominator) for m, c in self._terms.items()}

    def coefficient(self, exponent: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exponent), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def total_degree(self) -> int:
        """Maximal term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    @property
    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def support(self) -> frozenset[Exponent]:
        return frozenset(self._terms)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        acc = dict(self._terms)
        for exponent, coeff in other._terms.items():
            acc[exponent] = acc.get(exponent, Fraction(0)) + coeff
        return Polynomial(self.nvars, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            acc: dict[Exponent, Fraction] = {}
            for ea, ca in self._terms.items():
                for eb, cb in other._terms.items():
                    key = tuple(x + y for x, y in zip(ea, eb))
                    acc[key] = acc.get(key, Fraction(0)) + ca * cb
            return Polynomial(self.nvars, acc)
        return self.scale(other)

    def __rmul__(self, other) -> "Polynomial":
        return self.scale(other)

    def scale(self, value) -> "Polynomial":
        value = Fraction(value)
        if not value:
            return Polynomial.zero(self.nvars)
        return Polynomial(self.nvars, {e: c * value for e, c in self._terms.items()})

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- calculus and evaluation -------------------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        """Exact formal partial derivative with respect to variable `index` (0-based)."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range for nvars={self.nvars}")
        acc: dict[Exponent, Fraction] = {}
        for exponent, coeff in self._terms.items():
            e = exponent[index]
            if e == 0:
                continue
            shifted = list(exponent)
            shifted[index] = e - 1
            acc[tuple(shifted)] = coeff * e
        return Polynomial(self.nvars, acc)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        values = [Fraction(v) for v in point]
        total = Fraction(0)
        for exponent, coeff in self._terms.items():
            term = coeff
            for e, v in zip(exponent, values):
                if e:
                    term *= v**e
            total += term
        return total

    # -- printing / parsing ------------------------------------------------------

    def to_string(self, names: Sequence[str]) -> str:
        """Canonical text form; parseable back with the same variable order."""
        if len(names) != self.nvars:
            raise ValueError("variable name count mismatch")
        if not self._terms:
            return "0"
        chunks: list[str] = []
        # descending grevlex: ascending (-degree, reversed exponent), as grevlex_key negates the
        # reversed exponent under the degree
        for exponent in sorted(self._terms, key=lambda e: (-sum(e), e[::-1])):
            coeff = self._terms[exponent]
            factors = []
            for name, e in zip(names, exponent):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            num, den = coeff.numerator, coeff.denominator  # read off, no Fraction arithmetic
            if factors and abs(num) == den == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(num)) if den == 1 else f"{abs(num)}/{den}", *factors])
            if not chunks:
                chunks.append("-" + body if num < 0 else body)
            else:
                chunks.append(("- " if num < 0 else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        names = [f"x{i+1}" for i in range(self.nvars)]
        return f"Polynomial({self.to_string(names)!r}, nvars={self.nvars})"


# -- parser --------------------------------------------------------------------
#
# expression := ['+'|'-'] term (('+'|'-') term)*
# term       := coefficient ['*' factor ('*' factor)*]
#             | factor ('*' factor)*
# factor     := varname ['^' positive-integer]
# coefficient:= integer ['/' positive-integer]
#
# Whitespace (str.isspace, regex \s) is ignored between tokens.  An integer is
# a run of decimal digits (str.isdecimal, regex \d, what int() reads); a name is
# a run of str.isalnum characters and '_' (regex \w).  A term that starts with
# a digit starts with its coefficient.  A bare coefficient is a constant term.

_FACTOR = r"\w+\s*(?:\^\s*\d+\s*)?"
_FACTORS = rf"({_FACTOR}(?:\*\s*{_FACTOR})*)"
# The longest well-formed term at a position, trailing whitespace included:
# sign, numerator, denominator, factors after a coefficient, factors alone.
_TERM = re.compile(
    rf"\s*([+-]?)\s*(?:(\d+)\s*(?:/\s*(\d+)\s*)?(?:\*\s*{_FACTORS})?|(?!\d){_FACTORS})?"
)
_POWERED = re.compile(r"(\w+)\s*(?:\^\s*(\d+))?")


def parse_polynomial(text: str, variable_order: Sequence[str]) -> Polynomial:
    """Parse polynomial text into canonical sparse form.

    Like terms are combined and zero terms dropped.  Unknown variable names
    and syntax errors raise ParseError with the offending 0-based position; an
    empty order, a repeated name, or one no term can start with (not \\w+, or a
    leading digit, which starts a coefficient) raise ValueError.
    """
    names = list(variable_order)
    if not names:
        raise ValueError("variable_order must be nonempty")
    if bad := [name for name in names if not re.fullmatch(r"\w+", name)]:
        raise ValueError(f"variable name {bad[0]!r} is not a run of letters, digits and '_'")
    if bad := [name for name in names if name[0].isdecimal()]:
        raise ValueError(f"variable name {bad[0]!r} starts with a digit")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    index = {name: i for i, name in enumerate(names)}
    nvars = len(names)

    # One match per term; a coefficient stays an int unless it has a denominator.
    acc: dict[Exponent, int | Fraction] = {}
    pos, end = 0, len(text)
    while True:
        m = _TERM.match(text, pos)
        sign, num, den, after, alone = m.groups()
        pos = m.end()
        if num is None and alone is None:
            if sign or pos < end:
                raise ParseError("expected a variable name", pos)
            raise ParseError("empty polynomial text", pos)
        coeff = int(num) if num else 1
        if sign == "-":
            coeff = -coeff
        if den:
            if not int(den):
                raise ParseError("denominator must be positive", text.index("/", m.end(2)) + 1)
            coeff = Fraction(coeff, int(den))
        exponent = [0] * nvars
        factors = ()
        if after or alone:
            start = m.start(4 if after else 5)
            factors = _POWERED.findall(text, start, pos)
            for name, digits in factors:
                var = index.get(name)
                power = int(digits) if digits else 1
                if var is None or not power:  # the first such factor: find where it is
                    bad = list(_POWERED.finditer(text, start, pos))[factors.index((name, digits))]
                    if var is None:
                        raise ParseError(f"unknown variable {name!r}", bad.start())
                    raise ParseError("exponent must be positive", text.index("^", bad.end(1)) + 1)
                exponent[var] += power
        key = tuple(exponent)
        acc[key] = acc.get(key, 0) + coeff
        if pos == end:
            return Polynomial(nvars, acc)
        ch = text[pos]
        if ch in "+-":
            continue
        # '*' may follow any term, '/' a bare numerator, '^' a last factor without a
        # power; then its operand is missing.  Anything else is a stray character.
        if ch == "*":
            expected = "a variable name"
        elif ch == "/" and num and not (den or after):
            expected = "an integer"
        elif ch == "^" and factors and not factors[-1][1]:
            expected = "an integer"
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
        raise ParseError(f"expected {expected}", end - len(text[pos + 1 :].lstrip()))
