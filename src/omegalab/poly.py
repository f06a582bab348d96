"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to nonzero Fraction
coefficients.  All arithmetic is exact; there is no floating point anywhere.
Values are immutable after construction, so they can be shared freely.

  Exponent = tuple[int, ...]     one entry per variable
  terms    = {Exponent: Fraction, ...}   zero coefficients never stored

The canonical term order used for printing and for linear algebra over
monomials is graded reverse lexicographic with the first variable largest.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

Exponent = tuple[int, ...]


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def grevlex_key(exponent: Sequence[int]) -> tuple:
    """Sort key realizing graded reverse lexicographic order.

    Larger key means larger monomial: compare total degree first, then
    reverse lexicographic (the monomial with less of the last variable wins).
    """
    return (sum(exponent), tuple(-e for e in reversed(exponent)))


class Polynomial:
    """Immutable sparse polynomial with rational coefficients."""

    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exponent, coeff in terms.items():
                exponent = tuple(int(e) for e in exponent)
                if len(exponent) != nvars:
                    raise ValueError(
                        f"exponent {exponent} has length {len(exponent)}, expected {nvars}"
                    )
                if any(e < 0 for e in exponent):
                    raise ValueError(f"negative exponent in {exponent}")
                coeff = Fraction(coeff)
                if coeff:
                    clean[exponent] = clean.get(exponent, Fraction(0)) + coeff
            clean = {e: c for e, c in clean.items() if c}
        self._terms = clean
        self._hash: int | None = None

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

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded reverse lexicographic order."""
        return sorted(self._terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        acc = dict(self._terms)
        for exponent, coeff in other._terms.items():
            acc[exponent] = acc.get(exponent, Fraction(0)) + coeff
        return Polynomial(self.nvars, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        acc = dict(self._terms)
        for exponent, coeff in other._terms.items():
            acc[exponent] = acc.get(exponent, Fraction(0)) - coeff
        return Polynomial(self.nvars, acc)

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
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self._terms.items())))
        return self._hash

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

    def substitute_line(self, base: Sequence, direction: Sequence) -> list[Fraction]:
        """Coefficients of t -> p(base + t*direction), ascending, trailing zeros trimmed.

        Returns [] exactly when the restriction is identically zero.
        """
        if len(base) != self.nvars or len(direction) != self.nvars:
            raise ValueError("point length mismatch")
        e = [Fraction(v) for v in base]
        v = [Fraction(w) for w in direction]
        out = [Fraction(0)]
        for exponent, coeff in self._terms.items():
            term = [coeff]
            for i, power in enumerate(exponent):
                for _ in range(power):
                    term = _univ_mul(term, [e[i], v[i]])
            out = _univ_add(out, term)
        while out and not out[-1]:
            out.pop()
        return out

    # -- printing / parsing ------------------------------------------------------

    def to_string(self, names: Sequence[str]) -> str:
        """Canonical text form; parseable back with the same variable order."""
        if len(names) != self.nvars:
            raise ValueError("variable name count mismatch")
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for exponent, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exponent):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            magnitude = abs(coeff)
            if not factors:
                body = _fraction_str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_fraction_str(magnitude)] + factors)
            if not chunks:
                chunks.append(body if coeff > 0 else "-" + body)
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        names = [f"x{i+1}" for i in range(self.nvars)]
        return f"Polynomial({self.to_string(names)!r}, nvars={self.nvars})"


def _fraction_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _univ_add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _univ_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return out


# -- parser --------------------------------------------------------------------
#
# expression := ['+'|'-'] term (('+'|'-') term)*
# term       := coefficient ['*' factor ('*' factor)*]
#             | factor ('*' factor)*
# factor     := varname ['^' positive-integer]
# coefficient:= integer ['/' positive-integer]
#
# Whitespace is ignored.  A bare coefficient is accepted as a constant term.


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        if ch:
            self.pos += 1
        return ch

    def read_integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def read_name(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a variable name", start)
        return self.text[start : self.pos], start


def parse_polynomial(text: str, variable_order: Sequence[str]) -> Polynomial:
    """Parse polynomial text into canonical sparse form.

    Like terms are combined and zero terms dropped.  Unknown variable names
    and syntax errors raise ParseError with the offending position.
    """
    names = list(variable_order)
    if not names:
        raise ValueError("variable_order must be nonempty")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    index = {name: i for i, name in enumerate(names)}
    nvars = len(names)

    tok = _Tokenizer(text)
    acc: dict[Exponent, Fraction] = {}

    def read_factor() -> tuple[int, int]:
        name, start = tok.read_name()
        if name not in index:
            raise ParseError(f"unknown variable {name!r}", start)
        power = 1
        if tok.peek() == "^":
            tok.take()
            where = tok.pos
            power = tok.read_integer()
            if power <= 0:
                raise ParseError("exponent must be positive", where)
        return index[name], power

    def read_term(sign: int) -> None:
        coeff = Fraction(sign)
        exponent = [0] * nvars
        ch = tok.peek()
        if ch.isdigit():
            numerator = tok.read_integer()
            denominator = 1
            if tok.peek() == "/":
                tok.take()
                where = tok.pos
                denominator = tok.read_integer()
                if denominator <= 0:
                    raise ParseError("denominator must be positive", where)
            coeff *= Fraction(numerator, denominator)
            if tok.peek() != "*":
                # bare constant term
                acc[tuple(exponent)] = acc.get(tuple(exponent), Fraction(0)) + coeff
                return
            tok.take()
        var, power = read_factor()
        exponent[var] += power
        while tok.peek() == "*":
            tok.take()
            var, power = read_factor()
            exponent[var] += power
        key = tuple(exponent)
        acc[key] = acc.get(key, Fraction(0)) + coeff

    if tok.peek() == "":
        raise ParseError("empty polynomial text", tok.pos)
    sign = 1
    if tok.peek() in "+-":
        sign = -1 if tok.take() == "-" else 1
    read_term(sign)
    while True:
        ch = tok.peek()
        if ch == "":
            break
        if ch not in "+-":
            raise ParseError(f"unexpected character {ch!r}", tok.pos)
        tok.take()
        read_term(-1 if ch == "-" else 1)

    return Polynomial(nvars, acc)

