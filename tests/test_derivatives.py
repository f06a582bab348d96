"""Derivative spans, projection matrices, and the subset-sum identity."""

import random
from fractions import Fraction

import pytest

from omegalab import (
    Polynomial,
    check_derivative_supports,
    derivative_space,
    derivative_support,
    parse_polynomial,
    rank_from_support,
)
from omegalab.derivatives import (
    all_partials,
    binomial_identity_report,
    elementary_symmetric,
    projection_centre,
    span_contains,
)
from omegalab.certify import is_mconvex

from helpers import (
    PLANE_CUBIC_TEXT,
    SINGULAR_CUBIC_TEXT,
    WXYZ,
    X123,
    random_mconvex_support,
    random_positive_polynomial,
    random_sparse_polynomial,
)


def test_plane_cubic_first_order_space():
    h = parse_polynomial(PLANE_CUBIC_TEXT, X123)
    space = derivative_space(h, 1)
    assert space.span_dimension == 3
    assert space.columns == ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1))
    displayed = [
        "2*x1*x2 + x2^2 + 2*x1*x3 + x2*x3",
        "x1^2 + 2*x1*x2 + x1*x3 + 2*x2*x3",
        "x1^2 + x1*x2 + x2^2",
    ]
    for text in displayed:
        assert span_contains(space, parse_polynomial(text, X123))
    assert not span_contains(space, parse_polynomial("x1^2 + x3^2", X123))


def test_plane_cubic_centre():
    h = parse_polynomial(PLANE_CUBIC_TEXT, X123)
    space = derivative_space(h, 1)
    centre = projection_centre(space)
    assert len(centre) == 2
    # displayed kernel vectors in (z20, z11, z10, z02, z01) order, remapped to
    # the canonical column order (z20, z11, z02, z10, z01)
    for vec in ([0, -1, 1, 0, 1], [1, -1, 0, 1, 0]):
        for row in space.matrix:
            assert sum(Fraction(c) * v for c, v in zip(row, vec)) == 0


def test_symmetric_cubic_second_order_space():
    h = elementary_symmetric(3, 3)
    space = derivative_space(h, 2)
    assert space.span_dimension == 3
    assert set(space.columns) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_symmetric_cubic_first_order_centre_trivial():
    h = elementary_symmetric(3, 3)
    space = derivative_space(h, 1)
    assert space.span_dimension == len(space.columns) == 3
    assert projection_centre(space) == []


def test_power_monomial_space():
    h = parse_polynomial("x1^4", ["x1", "x2"])
    space = derivative_space(h, 1)
    assert space.span_dimension == 1
    assert space.basis[0] == parse_polynomial("x1^3", ["x1", "x2"])


def test_space_rejects_bad_order():
    h = elementary_symmetric(2, 3)
    with pytest.raises(ValueError):
        derivative_space(h, 0)
    with pytest.raises(ValueError):
        derivative_space(h, 2)


def test_derivative_support_first_order_of_quadratic():
    s = elementary_symmetric(2, 4)
    assert derivative_support(s, 1) == frozenset(
        {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}
    )


def test_derivative_support_plane_cubic():
    h = parse_polynomial(PLANE_CUBIC_TEXT, X123)
    assert derivative_support(h, 1) == frozenset(
        {(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)}
    )


def test_derivative_support_order_zero_is_support():
    h = parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ)
    assert derivative_support(h, 0) == h.support()


def test_span_dimension_independent_of_partial_order():
    rng = random.Random(9)
    h = parse_polynomial(PLANE_CUBIC_TEXT, X123)
    space = derivative_space(h, 1)
    partials = [g for g in all_partials(h, 1) if not g.is_zero]
    from omegalab.linalg import rank

    columns = list(space.columns)
    for _ in range(10):
        rng.shuffle(partials)
        rows = [[g.coefficient(c) for c in columns] for g in partials]
        assert rank(rows) == space.span_dimension


def test_all_partials_match_iterated_partial_derivatives():
    from itertools import combinations_with_replacement

    rng = random.Random(22)
    for _ in range(40):
        n, d = rng.randint(1, 4), rng.randint(1, 4)
        h = random_sparse_polynomial(rng, n, d, rng.randint(1, 10))
        for k in range(d + 2):
            expected = []
            for multi in combinations_with_replacement(range(n), k):
                g = h
                for i in multi:
                    g = g.partial_derivative(i)
                expected.append(g)
            assert all_partials(h, k) == expected, (h, k)


def test_support_union_covers_each_partial():
    rng = random.Random(21)
    for _ in range(20):
        supp = random_mconvex_support(rng, 3, 3)
        h = random_positive_polynomial(rng, supp)
        for k in range(1, h.total_degree):
            union = derivative_support(h, k)
            for g in all_partials(h, k):
                assert g.support() <= union


def test_support_union_equals_directional_derivative_support():
    # for strictly positive direction weights and nonnegative coefficients the
    # weighted derivative has no cancellation, so its support is the union
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        supp = random_mconvex_support(rng, n, d)
        h = random_positive_polynomial(rng, supp)
        e = [Fraction(rng.randint(1, 5)) for _ in range(n)]
        for k in range(1, d):
            g = h
            for _ in range(k):
                step = Polynomial.zero(n)
                for i in range(n):
                    step = step + g.partial_derivative(i).scale(e[i])
                g = step
            assert g.support() == derivative_support(h, k)


def test_centre_dimension_formula():
    rng = random.Random(33)
    for _ in range(15):
        supp = random_mconvex_support(rng, 3, 3)
        h = random_positive_polynomial(rng, supp)
        for k in range(1, h.total_degree):
            space = derivative_space(h, k)
            assert len(projection_centre(space)) == len(space.columns) - space.span_dimension


def test_derivative_supports_stay_mconvex():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        supp = random_mconvex_support(rng, n, d)
        h = random_positive_polynomial(rng, supp)
        for k in range(1, d):
            ok, _ = is_mconvex(derivative_support(h, k))
            assert ok


def test_check_derivative_supports_on_reference_polynomials():
    for text, names in [
        (SINGULAR_CUBIC_TEXT, WXYZ),
        (PLANE_CUBIC_TEXT, X123),
    ]:
        assert check_derivative_supports(parse_polynomial(text, names)) == []
    for d, n in [(2, 3), (3, 4), (4, 5)]:
        assert check_derivative_supports(elementary_symmetric(d, n)) == []


def test_check_derivative_supports_reports_non_mconvex_comparison():
    h = parse_polynomial("x1*x2^2 + x3^3", X123)
    ok, _ = is_mconvex(h.support())
    assert not ok
    # orders 0 and 1 fail to fill their truncation polytopes; 2 and 3 agree
    assert check_derivative_supports(h) == [0, 1]


def test_minkowski_sum_of_derivative_supports_matches_polytope():
    from omegalab import base_polytope, lattice_points, truncation_sum

    rng = random.Random(55)
    for _ in range(12):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        supp = random_mconvex_support(rng, n, d)
        h = random_positive_polynomial(rng, supp)
        sums = {(0,) * n}
        for k in range(1, d):
            layer = derivative_support(h, k)
            sums = {tuple(a + b for a, b in zip(p, q)) for p in sums for q in layer}
        rho = rank_from_support(supp)
        expected = set(lattice_points(base_polytope(truncation_sum(rho, 1))))
        assert sums == expected


def test_elementary_symmetric_construction():
    s = elementary_symmetric(2, 4)
    assert len(s) == 6
    assert s.is_homogeneous and s.total_degree == 2
    with pytest.raises(ValueError):
        elementary_symmetric(5, 4)


def test_binomial_identity_small_cases():
    report = binomial_identity_report(4, 2, 1)
    assert report.holds and report.coefficient == 1 and not report.both_sides_zero
    assert binomial_identity_report(5, 3, 1).holds
    report2 = binomial_identity_report(5, 3, 1)
    assert report2.coefficient == 1


def test_binomial_identity_nontrivial_coefficient():
    # the displayed scaling for (n, d, k) = (4, 3, 2) is binom(2, 1) = 2
    report = binomial_identity_report(4, 3, 2)
    assert report.holds and report.coefficient == 2 and not report.both_sides_zero


def test_binomial_identity_full_range():
    for n in range(2, 6):
        for d in range(2, n + 1):
            for k in range(1, d):
                report = binomial_identity_report(n, d, k)
                assert report.holds, (n, d, k)
                assert report.coefficient >= 1
                assert not report.both_sides_zero


def test_binomial_identity_rejects_bad_parameters():
    with pytest.raises(ValueError):
        binomial_identity_report(3, 4, 1)
    with pytest.raises(ValueError):
        binomial_identity_report(4, 3, 3)


def test_partial_count_guard_fires_before_any_partial(monkeypatch):
    import omegalab.derivatives
    from omegalab.guards import ResourceLimit

    names = [f"x{i}" for i in range(1, 13)]
    h = parse_polynomial("*".join(names), names)
    built = []  # every partial is built while walking the multisets
    monkeypatch.setattr(
        omegalab.derivatives, "combinations_with_replacement", lambda *args: built.append(args)
    )
    with pytest.raises(ResourceLimit) as excinfo:
        all_partials(h, 10)
    assert str(excinfo.value) == (
        "partial-count guard: 352716 order-10 partials exceed the cap 10000"
    )
    assert built == []
    monkeypatch.undo()
    # C(n+k-1, k) partials: 3 first partials of e(2,3) are at a cap of 3, not above it
    monkeypatch.setattr(omegalab.derivatives, "MAX_PARTIALS", 3)
    assert len(all_partials(elementary_symmetric(2, 3), 1)) == 3
    with pytest.raises(ResourceLimit, match="6 order-2 partials exceed the cap 3"):
        derivative_support(elementary_symmetric(3, 3), 2)
