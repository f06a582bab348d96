"""Parser, arithmetic and differentiation."""

import random
import re
import sys
from fractions import Fraction
from math import lcm

import pytest

from omegalab import ParseError, Polynomial, parse_polynomial
from omegalab.derivatives import elementary_symmetric

from helpers import (
    SINGULAR_CUBIC_TEXT,
    WXYZ,
    random_sparse_polynomial,
    reference_parse_polynomial,
)


def test_integer_terms_scale_by_the_lcm_of_the_denominators():
    rng = random.Random(29)
    cases = [Polynomial.zero(3)]
    for _ in range(80):
        nvars = rng.randint(1, 4)
        terms = {
            tuple(rng.randint(0, 3) for _ in range(nvars)): Fraction(
                rng.randint(-9, 9), rng.randint(1, 12)
            )
            for _ in range(rng.randint(0, 6))
        }
        cases.append(Polynomial(nvars, terms))
    assert any(c < 0 for p in cases for c in p.terms.values())
    assert any(c.denominator > 1 for p in cases for c in p.terms.values())
    for p in cases:
        s, ints = p.integer_terms()
        assert s == lcm(*(c.denominator for c in p.terms.values()))
        assert set(ints) == p.support()
        assert all(type(v) is int and Fraction(v, s) == p.coefficient(m) for m, v in ints.items())
    assert Polynomial.zero(2).integer_terms() == (1, {})


def test_parse_combines_like_terms():
    p = parse_polynomial("x1*x2 + x2*x1", ["x1", "x2"])
    assert p.terms == {(1, 1): Fraction(2)}


def test_parse_subset_of_variables():
    p = parse_polynomial("2*x+4*y+7*z", ["x", "y", "z", "w"])
    assert len(p) == 3
    assert p.coefficient((1, 0, 0, 0)) == 2
    assert all(e[3] == 0 for e in p.support())


def test_parse_cancellation_gives_zero():
    p = parse_polynomial("x1^2*x2 - x1^2*x2", ["x1", "x2"])
    assert p.is_zero
    assert p.support() == frozenset()


def test_parse_rational_coefficient_and_powers():
    p = parse_polynomial("3/2*x^2*y - y^3 + 1/7*x*y^2", ["x", "y"])
    assert p.coefficient((2, 1)) == Fraction(3, 2)
    assert p.coefficient((0, 3)) == -1
    assert p.coefficient((1, 2)) == Fraction(1, 7)


def test_parse_unknown_variable_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + q", ["x", "y"])
    assert err.value.position == 4


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError):
        parse_polynomial("x + * y", ["x", "y"])
    with pytest.raises(ParseError):
        parse_polynomial("", ["x"])
    with pytest.raises(ParseError):
        parse_polynomial("x^0", ["x"])


def test_parse_non_decimal_digits_raise_a_parse_error_at_the_digit():
    # '²' passes str.isdigit but not int(): the reference parser raises a bare ValueError
    cases = [("x^²", 2), ("x^ ²*y", 3), ("1²*x", 1), ("²*x", 0), ("1/²", 2), ("x^2²", 3)]
    for text, position in cases:
        with pytest.raises(ValueError) as old:
            reference_parse_polynomial(text, ["x", "y"])
        assert not isinstance(old.value, ParseError)
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, ["x", "y"])
        assert err.value.position == position and text[position] in "²", text
    # a decimal digit of another script is a digit, as int() reads it
    assert parse_polynomial("١*x + ٢/٣*y", ["x", "y"]) == parse_polynomial("x + 2/3*y", "xy")


def test_parser_character_classes_are_the_str_predicates():
    # the parser's \s, \w and \d are exactly str.isspace, str.isalnum or '_', and str.isdecimal
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == list(filter(str.isspace, chars))
    assert re.findall(r"[^\W_]", chars) == list(filter(str.isalnum, chars))
    assert re.findall(r"\d", chars) == list(filter(str.isdecimal, chars))


_NAMES = ["x", "y", "z1", "w_2", "é"]
_SPACES = ["", "", "", " ", "  ", "\t", "\n", "\xa0", "\u2003"]
_STRAY = ["+", "-", "*", "^", "/", "0", "7", "٣", "²", "q", "2y", "x", "#", ".", " ", "\xa0", "("]
_STRAY += ["**", "^0", "/0", "+-", "3a"]


def _random_text(rng: random.Random) -> str:
    """A well-formed polynomial over _NAMES with random spacing, signs, fractions and powers."""

    def sp() -> str:
        return rng.choice(_SPACES)

    terms = []
    for t in range(rng.randint(1, 5)):
        sign = rng.choice(["+", "-"]) if t else rng.choice(["", "", "+", "-"])
        tokens = []
        if rng.random() < 0.5:
            tokens.append(str(rng.randint(0, 40)))
            if rng.random() < 0.4:
                tokens[-1] += sp() + "/" + sp() + str(rng.randint(1, 12))
        for _ in range(rng.randint(0 if tokens else 1, 4)):  # names may repeat
            factor = rng.choice(_NAMES)
            if rng.random() < 0.4:
                factor += sp() + "^" + sp() + str(rng.randint(1, 4))
            tokens.append(factor)
        terms.append(sp() + sign + sp() + (sp() + "*" + sp()).join(tokens) + sp())
    return "".join(terms)


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 2)):
        at = rng.randint(0, len(text))
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:at] + rng.choice(_STRAY) + text[at:]
        elif kind == 1:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + rng.choice(_STRAY) + text[at + 1 :]
    return text


def _outcome(parse, text: str):
    try:
        return parse(text, _NAMES)
    except ParseError as exc:
        return (str(exc), exc.position)


def test_parse_matches_the_reference_parser_on_random_texts():
    rng = random.Random(22)
    texts = ["", " \xa0", "x*2y", "2x", "x^ 0", "1/0*x", "1/ *x", "--x", "x +", "x*  ", "x^^2"]
    texts += ["x^2^3", "2^3", "x/2", "1/2/3", "q*", "x # y", "١*x", "x^²", "@"]
    for _ in range(1200):
        text = _random_text(rng)
        texts += [text, _mutate(rng, text)]
    outcomes = {"valid": 0, "error": 0, "digit": 0}
    for text in texts:
        new = _outcome(parse_polynomial, text)
        try:
            old = _outcome(reference_parse_polynomial, text)
        except ValueError:  # '²' read as a digit: now a ParseError at that character
            assert isinstance(new, tuple), text
            assert text[new[1]].isdigit() and not text[new[1]].isdecimal(), text
            outcomes["digit"] += 1
            continue
        assert new == old, text
        outcomes["valid" if isinstance(new, Polynomial) else "error"] += 1
    assert sum(outcomes.values()) >= 2000
    assert min(outcomes.values()) >= 20, outcomes


def test_constructor_keeps_the_types_it_accepts():
    p = Polynomial(2, {(1, 1): 3})
    assert p.terms == {(1, 1): Fraction(3)} and type(p.coefficient((1, 1))) is Fraction

    class Pairs(list):  # a mapping read through items(), so its exponents may be lists
        def items(self):
            return iter(self)

    q = Polynomial(2, Pairs([([1, 1], Fraction(3))]))
    assert q == p and all(type(m) is tuple for m in q.terms)
    assert Polynomial(2, {(1, 1): 1.5, (0, 2): "2/3", (2, 0): True}) == Polynomial(
        2, {(1, 1): Fraction(3, 2), (0, 2): Fraction(2, 3), (2, 0): Fraction(1)}
    )
    assert Polynomial(1, Pairs([((1,), Fraction(1)), ([1], -1)])).is_zero
    for nvars, terms, error in [
        (2, {(1, -1): 1}, ValueError),
        (2, {(1,): 1}, ValueError),
        (2, {("a", 1): 1}, ValueError),
        (2, {(1, 1): "x"}, ValueError),
        (2, {(1, 1): None}, TypeError),
        (2, {(1, 1): [3]}, TypeError),
        (-1, None, ValueError),
    ]:
        with pytest.raises(error):
            Polynomial(nvars, terms)


def test_singular_cubic_expansion_matches_hand_expansion():
    # w*(2x+4y+7z)*(4x+2y+7z) + the ten cubic terms, expanded by hand
    h = parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ)
    w, x, y, z = (Polynomial.variable(4, i) for i in range(4))
    product = w * (2 * x + 4 * y + 7 * z) * (4 * x + 2 * y + 7 * z)
    tail = (
        x * x * x
        + 11 * x * x * y
        + 11 * x * y * y
        + y * y * y
        + 15 * x * x * z
        + 46 * x * y * z
        + 15 * y * y * z
        + 37 * x * z * z
        + 37 * y * z * z
        + 21 * z * z * z
    )
    assert h == product + tail
    assert len(h.support()) == 16
    assert (1, 0, 0, 2) in h.support()
    assert h.coefficient((1, 0, 0, 2)) == 49


def test_partial_derivative_power_rule():
    p = parse_polynomial("x1^2*x2", ["x1", "x2"])
    assert p.partial_derivative(0) == parse_polynomial("2*x1*x2", ["x1", "x2"])


def test_partial_derivative_of_symmetric_sum():
    s = elementary_symmetric(2, 3)
    assert s.partial_derivative(2) == parse_polynomial("x1+x2", ["x1", "x2", "x3"])


def test_partial_derivative_absent_variable():
    p = parse_polynomial("x2^3", ["x1", "x2"])
    assert p.partial_derivative(0).is_zero
    for index in (-1, 2):
        with pytest.raises(ValueError, match=f"^variable index {index} out of range for nvars=2$"):
            p.partial_derivative(index)
        with pytest.raises(ValueError, match=f"^variable index {index} out of range$"):
            Polynomial.variable(2, index)


def test_support_of_symmetric_polynomial():
    s = elementary_symmetric(2, 3)
    assert s.support() == frozenset({(1, 1, 0), (1, 0, 1), (0, 1, 1)})
    assert Polynomial.zero(3).support() == frozenset()


def test_print_parse_round_trip_random():
    rng = random.Random(123)
    names = ["x1", "x2", "x3"]
    for _ in range(150):
        p = random_sparse_polynomial(rng, 3, 5, rng.randint(0, 6))
        text = p.to_string(names)
        assert parse_polynomial(text, names) == p or (p.is_zero and text == "0")


def test_terms_print_in_descending_grevlex_order():
    from omegalab.poly import grevlex_key

    rng = random.Random(47)
    inhomogeneous = 0
    for _ in range(150):
        nvars = rng.randint(1, 5)
        names = [f"x{i + 1}" for i in range(nvars)]
        p = random_sparse_polynomial(rng, nvars, 5, rng.randint(1, 12))
        inhomogeneous += not p.is_homogeneous
        chunks = re.split(r" (?=[+-] )", p.to_string(names)) if p else []
        printed = [next(iter(parse_polynomial(chunk, names).terms)) for chunk in chunks]
        assert printed == sorted(p.terms, key=grevlex_key, reverse=True), p
    assert inhomogeneous >= 40, inhomogeneous


def test_zero_prints_and_reparses():
    z = Polynomial.zero(2)
    assert z.to_string(["x", "y"]) == "0"
    with pytest.raises(ValueError, match="^variable name count mismatch$"):
        z.to_string(["x"])
    assert parse_polynomial("0", ["x", "y"]).is_zero


def test_derivatives_commute_random():
    rng = random.Random(5)
    for _ in range(60):
        p = random_sparse_polynomial(rng, 3, 5, 5)
        for i in range(3):
            for j in range(3):
                a = p.partial_derivative(i).partial_derivative(j)
                b = p.partial_derivative(j).partial_derivative(i)
                assert a == b


def test_derivative_support_shift_property():
    rng = random.Random(17)
    for _ in range(60):
        p = random_sparse_polynomial(rng, 3, 4, 5)
        positive = Polynomial(3, {e: abs(c) for e, c in p.items()})
        for i in range(3):
            shifted = {
                tuple(a - (1 if j == i else 0) for j, a in enumerate(e))
                for e in positive.support()
                if e[i] > 0
            }
            assert positive.partial_derivative(i).support() == frozenset(shifted)
        # with arbitrary signs only the inclusion holds
        for i in range(3):
            shifted = {
                tuple(a - (1 if j == i else 0) for j, a in enumerate(e))
                for e in p.support()
                if e[i] > 0
            }
            assert p.partial_derivative(i).support() <= frozenset(shifted)


def test_variable_order_entry_no_text_can_name_raises_value_error():
    for names, bad in ((["x-1", "y"], "'x-1'"), (["x", "y z"], "'y z'"), (["x", ""], "''")):
        with pytest.raises(ValueError, match=f"^variable name {bad} is not a run") as exc:
            parse_polynomial("y^2", names)
        assert not isinstance(exc.value, ParseError)  # the order is at fault, not the text
    for names, message in (
        ([], "variable_order must be nonempty"),
        (["x", "x"], "duplicate variable names"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_polynomial("x^2", names)


def test_variable_order_entry_starting_with_a_digit_raises_value_error():
    # a term that starts with a digit starts with its coefficient, so no text names '2y' first
    for text in ("2y^2", "x*2y"):
        with pytest.raises(ValueError, match="^variable name '2y' starts with a digit$") as exc:
            parse_polynomial(text, ["x", "2y"])
        assert not isinstance(exc.value, ParseError)
    with pytest.raises(ValueError, match="^variable name '٣a' starts with a digit$"):
        parse_polynomial("x", ["x", "٣a"])


def test_constructor_rejects_an_exponent_entry_that_is_not_an_int():
    for bad in (1.5, 1.0, True, "1", Fraction(1), None, -1):
        message = re.escape(f"exponent entry {bad!r} is not a nonnegative int")
        with pytest.raises(ValueError, match=message):
            Polynomial(2, {(0, 2): 1, (bad, 0): 1})
    with pytest.raises(ValueError, match="^exponent entry 1.5 is not a nonnegative int$"):
        Polynomial(2, {(1.5, 0.5): 1, (0, 2): 1})


def test_point_readers_refuse_an_entry_that_is_not_an_int():
    # is_mconvex and rank_from_support read these points as U(1,2)'s bases, and
    # toric_ideal gave the empty ideal: every entry was truncated by int()
    from omegalab import is_mconvex, rank_from_support, smoothable_probe, toric_ideal

    readers = (
        is_mconvex,
        rank_from_support,
        lambda pts: toric_ideal([*pts, (1, 1)]),
        lambda pts: smoothable_probe(pts, trials=1),
    )
    for bad, good in ((1.5, 0.5), (Fraction(3, 2), Fraction(1, 2)), (True, False), (-1, 1)):
        message = f"^{re.escape(f'exponent entry {bad!r} is not a nonnegative int')}$"
        for read in readers:
            with pytest.raises(ValueError, match=message):
                read([(bad, good), (good, bad)])
    # rank_from_support gave a table and toric_ideal an ideal: negative coordinates passed
    with pytest.raises(ValueError, match="^exponent entry -1 is not a nonnegative int$"):
        rank_from_support([(2, -1), (0, 1)])
    with pytest.raises(ValueError, match="^exponent entry -1 is not a nonnegative int$"):
        toric_ideal([(1, -1), (0, 0)])


def test_scaling_and_arithmetic():
    p = parse_polynomial("x^2 - 2*x*y", ["x", "y"])
    assert p.scale(Fraction(1, 2)).coefficient((2, 0)) == Fraction(1, 2)
    assert (p - p).is_zero
    assert (-p) + p == Polynomial.zero(2)
    with pytest.raises(ValueError):
        p + Polynomial.zero(3)
