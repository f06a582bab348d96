"""Set functions: axioms, rank tables, truncations, inseparability, hyperbolic rank."""

import json
import random
import re
from fractions import Fraction

import pytest

from omegalab import (
    Polynomial,
    SetFunction,
    ZeroRestrictionError,
    base_polytope,
    hyperbolic_rank,
    is_polymatroid,
    parse_polynomial,
    rank_from_support,
    truncate,
    truncation_sum,
)
from omegalab.derivatives import elementary_symmetric
from omegalab.guards import ResourceLimit
from omegalab.setfunc import mask_to_set, set_to_mask

from helpers import (
    all_mconvex_sets,
    random_mconvex_support,
    random_polymatroid,
    random_positive_polynomial,
    random_product_of_linear_forms,
    random_sparse_polynomial,
    reference_substitute_line,
)
from paper_checks import check_simplicity_conditions, is_inseparable, polymatroid_from_hyperbolic

U24 = SetFunction.uniform_matroid(2, 4)


def test_mask_roundtrip():
    assert mask_to_set(set_to_mask([1, 3])) == (1, 3)
    assert mask_to_set(0) == ()
    assert mask_to_set(0b1010, 0) == (1, 3)
    with pytest.raises(ValueError, match="^ground-set elements are 1-based$"):
        set_to_mask([0])


def test_uniform_matroid_is_polymatroid():
    report = is_polymatroid(U24)
    assert report.ok and report.violating_pair is None


def test_nonzero_at_empty_set_fails():
    f = SetFunction(2, [1, 1, 1, 2])
    report = is_polymatroid(f)
    assert not report.is_normalized
    assert report.violating_pair == (0, 0)


def test_squared_cardinality_fails_submodularity():
    f = SetFunction(2, [0, 1, 1, 4])
    report = is_polymatroid(f)
    assert report.is_monotone
    assert not report.is_submodular
    assert report.violating_pair == (set_to_mask([1]), set_to_mask([2]))


def test_non_monotone_detected():
    f = SetFunction(2, [0, 2, 2, 1])
    assert not is_polymatroid(f).is_monotone


def test_ground_set_guard():
    with pytest.raises(ResourceLimit):
        SetFunction(21, [0] * (1 << 21))
    with pytest.raises(ValueError, match="^ground-set size must be nonnegative$"):
        SetFunction(-1, [0])
    with pytest.raises(ValueError, match="^expected 4 values, got 3$"):
        SetFunction(2, [0, 1, 1])


def test_table_builders_check_the_ground_set_cap():
    one_point = tuple(1 if i == 0 else 0 for i in range(21))
    for build in (
        lambda: rank_from_support([one_point]),
        lambda: SetFunction.from_bases(21, [[1]]),
        lambda: SetFunction.uniform_matroid(1, 21),
    ):
        with pytest.raises(
            ResourceLimit, match="^ground-set guard: ground set of size 21 exceeds the cap 20$"
        ):
            build()


def test_from_bases_rejects_elements_outside_the_ground_set():
    with pytest.raises(ValueError, match="basis element 3 lies outside the ground set 1..2"):
        SetFunction.from_bases(2, [[1, 3], [2, 3]])
    with pytest.raises(ValueError, match="basis element 0 lies outside"):
        SetFunction.from_bases(3, [[0, 1]])
    with pytest.raises(ValueError, match="^bases must share one cardinality$"):
        SetFunction.from_bases(3, [[1], [2, 3]])
    assert SetFunction.from_bases(3, [[1, 3], [2, 3]]).rank == 2


def test_rank_from_support_symmetric():
    rho = rank_from_support(elementary_symmetric(2, 3).support())
    assert rho.values[set_to_mask([1])] == 1
    assert rho.values[set_to_mask([1, 2])] == 2
    assert rho.rank == 2


def test_rank_from_support_single_monomial():
    rho = rank_from_support({(3, 0, 0)})
    for mask in range(8):
        assert rho.values[mask] == (3 if mask & 1 else 0)


def test_rank_from_support_basis_indicators():
    # indicator vectors of the six bases of U(2,4)
    indicators = {
        tuple(1 if i in basis else 0 for i in range(4))
        for basis in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    }
    assert rank_from_support(indicators) == U24


def test_rank_from_support_rejects_bad_input():
    with pytest.raises(ValueError, match="^the point set is empty$"):
        rank_from_support(set())
    with pytest.raises(ValueError, match="support is not homogeneous"):
        rank_from_support({(1, 0), (2, 0)})
    # mixed lengths, checked right after emptiness
    for points in ([(1, 0), (0, 1, 0)], [(1,), (0, 1)], [(1, 0), (2,)]):
        lengths = ", ".join(map(str, sorted({len(p) for p in points})))
        with pytest.raises(ValueError, match=f"^exponents of mixed length: {lengths}$"):
            rank_from_support(points)


def test_truncate_uniform():
    r1 = truncate(U24, 1)
    assert r1 == SetFunction.uniform_matroid(1, 4)
    assert truncate(U24, 0) == U24
    assert truncate(U24, 2).values == (0,) * 16
    with pytest.raises(ValueError):
        truncate(U24, 3)


def test_truncation_sum_uniform():
    rbar = truncation_sum(U24)
    assert rbar.values[set_to_mask([1])] == 2
    assert rbar.values[set_to_mask([1, 2])] == 3
    assert rbar.rank == 3


def test_truncation_sum_zero_function():
    z = SetFunction(3, [0] * 8)
    assert truncation_sum(z).values == (0,) * 8


def test_truncation_sum_from_one():
    rho = rank_from_support(elementary_symmetric(3, 3).support())
    rbar1 = truncation_sum(rho, 1)
    assert rbar1.rank == 3  # 2 + 1 + 0
    for start in (-1, 4):
        with pytest.raises(ValueError, match=f"^start index {start} out of range 0..3$"):
            truncation_sum(rho, start)


def test_truncation_sum_closed_form_matches_the_sum_of_truncations():
    # the sum over cap = 0..rank - start of min(cap, v), entry by entry, negative values too
    rng = random.Random(41)
    cases = 0
    for _ in range(300):
        n = rng.randint(0, 4)
        values = [rng.randint(-6, 9) for _ in range(1 << n)]
        values[-1] = rng.randint(0, 9)  # a rank, so that some start is in range
        f = SetFunction(n, values)
        for start in range(f.rank + 1):
            caps = range(f.rank - start + 1)
            assert truncation_sum(f, start).values == tuple(
                sum(min(cap, v) for cap in caps) for v in f.values
            ), (values, start)
            cases += 1
    assert cases >= 1000, cases


def test_truncation_sum_work_does_not_grow_with_the_rank():
    f = rank_from_support([(10**9, 1)])  # rank 10^9 + 1: a loop over its caps would not end
    top = f.rank
    # caps 0..v sum to v(v + 1)/2 and the top - v caps above v add v each
    expected = tuple(v * (v + 1) // 2 + (top - v) * v for v in f.values)
    assert truncation_sum(f).values == expected == (0, 10**9 * (10**9 + 3) // 2, top, expected[-1])


def test_inseparable_small_sets():
    assert is_inseparable(U24, 0)
    assert is_inseparable(U24, set_to_mask([2]))


def test_loop_makes_separable():
    f = SetFunction(2, [0, 0, 1, 1])  # element 1 is a loop
    assert not is_inseparable(f, set_to_mask([1, 2]))


def test_truncation_sum_pair_inseparable():
    rbar = truncation_sum(U24)
    assert is_inseparable(rbar, set_to_mask([1, 2]))


def test_loop_lemma_exhaustive():
    # for |S| >= 2: inseparable for the summed truncations iff S has no loop
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 6)
        f = random_polymatroid(rng, n, 4)
        rbar = truncation_sum(f)
        loops = {i for i in range(n) if f.values[1 << i] == 0}
        for mask in range(1 << n):
            if bin(mask).count("1") < 2:
                continue
            has_loop = any(mask >> i & 1 for i in loops)
            assert is_inseparable(rbar, mask) == (not has_loop), (f.values, mask)


def test_inseparability_preserved_under_sums():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 5)
        f = random_polymatroid(rng, n, 4)
        g = random_polymatroid(rng, n, 4)
        for mask in range(1 << n):
            if is_inseparable(f, mask):
                assert is_inseparable(f + g, mask)


def test_sum_of_polymatroids_is_polymatroid():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(1, 6)
        f = random_polymatroid(rng, n, 4)
        g = random_polymatroid(rng, n, 4)
        assert is_polymatroid(f + g).ok
    with pytest.raises(ValueError, match="^ground-set size mismatch$"):
        U24 + SetFunction.uniform_matroid(1, 3)


def test_truncations_are_polymatroids():
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(1, 6)
        f = random_polymatroid(rng, n, 4)
        for k in range(f.rank + 1):
            assert is_polymatroid(truncate(f, k)).ok


def test_mconvex_support_rank_truncations_and_sum_are_polymatroids():
    """The certificate builds these polytopes without the axiom check: rho of an
    M-convex support, each truncation and the summed truncation are polymatroids."""
    grids = ((2, 2), (3, 2), (3, 3), (4, 2), (2, 4))
    supports = [sorted(s) for n, d in grids for s in all_mconvex_sets(n, d)]
    assert len(supports) == 275
    rng = random.Random(41)
    for _ in range(30):
        supports.append(random_mconvex_support(rng, rng.randint(2, 5), rng.randint(2, 4)))
    for support in supports:
        rho = rank_from_support(support)
        derived = [rho, *(truncate(rho, k) for k in range(rho.rank + 1)), truncation_sum(rho, 1)]
        for f in derived:
            assert is_polymatroid(f).ok, (support, f)


def test_simplicity_conditions_hold_after_truncation_sum():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 6)
        f = random_polymatroid(rng, n, 4)
        assert check_simplicity_conditions(truncation_sum(f)).holds


def test_simplicity_conditions_fail_for_uniform_rank_function():
    # the plain rank function of U(2,4) violates the partition condition
    report = check_simplicity_conditions(U24)
    assert not report.holds
    assert report.kind == "partition"


def test_simplicity_conditions_match_geometric_simplicity():
    # the combinatorial conditions characterize simplicity of the
    # independence polytope; cross-validate on unbarred random polymatroids
    from omegalab import independence_polytope, is_simple

    rng = random.Random(987)
    for _ in range(60):
        n = rng.randint(1, 4)
        f = random_polymatroid(rng, n, 4)
        combinatorial = check_simplicity_conditions(f).holds
        geometric, _ = is_simple(independence_polytope(f))
        assert combinatorial == geometric, f.values


def test_simplicity_conditions_rank_one_vacuous():
    f = SetFunction.uniform_matroid(1, 3)
    assert check_simplicity_conditions(f).holds


def test_simplicity_guard():
    with pytest.raises(ResourceLimit):
        check_simplicity_conditions(SetFunction(9, [0] * 512))


def test_hyperbolic_rank_examples():
    s = elementary_symmetric(2, 3)
    assert hyperbolic_rank(s, [1, 1, 1], [1, 0, 0]) == 1
    assert hyperbolic_rank(s, [1, 1, 1], [1, 1, 1]) == 2
    assert hyperbolic_rank(s, [1, 1, 1], [0, 0, 0]) == 0
    with pytest.raises(ZeroRestrictionError):
        hyperbolic_rank(Polynomial.zero(2), [1, 1], [1, 0])


def test_hyperbolic_rank_degree_guard_fires_before_any_expansion(monkeypatch):
    from omegalab.guards import MAX_CERTIFY_DEGREE

    at_cap = parse_polynomial(f"x^{MAX_CERTIFY_DEGREE - 1}*y", ["x", "y"])
    assert hyperbolic_rank(at_cap, [1, 1], [1, 1]) == 12
    over = parse_polynomial(f"x^{MAX_CERTIFY_DEGREE}*y", ["x", "y"])
    monkeypatch.setattr(Polynomial, "evaluate", lambda *a: pytest.fail("evaluated"))
    with pytest.raises(ResourceLimit) as err:
        hyperbolic_rank(over, [1, 1], [1, 1])
    assert str(err.value) == "degree guard: total degree 13 exceeds the cap 12"


def test_hyperbolic_rank_zero_cases():
    s = elementary_symmetric(2, 3)
    # base with s(e) = 0 and zero direction: identically zero restriction
    e = [Fraction(1), Fraction(1), Fraction(-1, 2)]
    assert s.evaluate(e) == 0
    with pytest.raises(ZeroRestrictionError, match="^polynomial vanishes identically on the line$"):
        hyperbolic_rank(s, e, [0, 0, 0])
    with pytest.raises(ZeroRestrictionError):
        hyperbolic_rank(Polynomial.zero(2), [1, 1], [1, 1])
    # a zero at t = 0 only: s(e + t e_1) = t/2
    assert hyperbolic_rank(s, e, [1, 0, 0]) == 1


def test_hyperbolic_rank_degree_bounds():
    rng = random.Random(29)
    for _ in range(40):
        p = random_sparse_polynomial(rng, 3, 4, 4)
        if p.is_zero:
            continue
        e = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        try:
            assert hyperbolic_rank(p, e, v) <= p.total_degree
        except ZeroRestrictionError:
            pass
    # homogeneous case along the diagonal through a nonvanishing point
    s = elementary_symmetric(2, 4)
    e = [Fraction(1), Fraction(2), Fraction(1), Fraction(1)]
    assert hyperbolic_rank(s, e, e) == s.total_degree


def test_hyperbolic_rank_matches_the_line_expansion_reference():
    rng = random.Random(2828)

    def point(n, kind):
        if kind == "zero":
            return [0] * n
        if kind == "int":
            return [rng.randint(-2, 2) for _ in range(n)]
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]

    kinds = ("rational", "int", "zero")
    seen = {"below the degree": 0, "vanishes": 0, "zero polynomial": 0}
    for trial in range(1500):
        n = rng.randint(1, 4)
        if trial % 4 == 0:  # products of linear forms vanish along many lines
            p = random_product_of_linear_forms(rng, n, rng.randint(1, 3))
        else:  # not homogeneous in general, and zero when every term drops out
            p = random_sparse_polynomial(rng, n, rng.randint(0, 5), rng.randint(0, 12))
        base, direction = point(n, kinds[trial % 3]), point(n, kinds[trial // 3 % 3])
        coeffs = reference_substitute_line(p, base, direction)
        if coeffs:
            assert hyperbolic_rank(p, base, direction) == len(coeffs) - 1, (p, base, direction)
            seen["below the degree"] += len(coeffs) - 1 < p.total_degree
        else:
            with pytest.raises(ZeroRestrictionError):
                hyperbolic_rank(p, base, direction)
            seen["vanishes"] += 1
            seen["zero polynomial"] += p.is_zero
    assert min(seen.values()) >= 30, seen
    for p in (elementary_symmetric(2, 3), Polynomial.zero(3)):
        for base, direction in (([1, 1], [1, 1, 1]), ([1, 1, 1], [1, 1, 1, 1])):
            with pytest.raises(ValueError, match="^point length mismatch$"):
                reference_substitute_line(p, base, direction)
            with pytest.raises(ValueError, match="^point length mismatch$"):
                hyperbolic_rank(p, base, direction)
        with pytest.raises(ValueError, match="^point length mismatch$"):
            p.evaluate([1, 1])


def test_polymatroid_from_hyperbolic_matches_support_rank():
    s = elementary_symmetric(2, 3)
    assert polymatroid_from_hyperbolic(s, [1, 1, 1]) == rank_from_support(s.support())


def test_polymatroid_from_hyperbolic_monomial():
    h = parse_polynomial("x1^3", ["x1", "x2"])
    f = polymatroid_from_hyperbolic(h, [1, 1])
    assert f.values == (0, 3, 0, 3)


def test_polymatroid_from_hyperbolic_rejects_vanishing_base():
    h = parse_polynomial("x1 - x2", ["x1", "x2"]) * parse_polynomial("x1", ["x1", "x2"])
    with pytest.raises(ValueError):
        polymatroid_from_hyperbolic(h, [1, 1])


def test_positive_polynomials_match_support_rank_random():
    # positive coefficients rule out cancellation, so the line-degree table
    # equals the support rank table for any homogeneous support
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 4)
        d = rng.randint(1, 3)
        if rng.random() < 0.5:
            supp = random_mconvex_support(rng, n, d)
        else:
            grid = []

            def fill(prefix, left):
                if len(prefix) == n - 1:
                    grid.append(tuple(prefix) + (left,))
                    return
                for v in range(left + 1):
                    fill(prefix + [v], left - v)

            fill([], d)
            supp = rng.sample(grid, rng.randint(1, len(grid)))
        h = random_positive_polynomial(rng, supp)
        e = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
        assert polymatroid_from_hyperbolic(h, e) == rank_from_support(supp)


def test_json_round_trip():
    text = json.dumps({"n": U24.n, "values": list(U24.values)})
    assert SetFunction.from_json(text) == U24


def test_json_names_a_non_integer_value():
    for text, bad in (
        ('{"n": 2, "values": [0, 1.7, 1, 2]}', "1.7"),
        ('{"n": 2.9, "values": [0, 1, 1, 2]}', "2.9"),
        ('{"n": true, "values": [0, 1]}', "true"),
        ('{"n": 1, "values": [0, "1"]}', '"1"'),
    ):
        with pytest.raises(ValueError) as err:
            SetFunction.from_json(text)
        assert str(err.value) == f"{bad} is not an integer"


def test_constructor_rejects_a_value_that_is_not_an_int():
    for bad in (1.7, 1.0, True, "1", Fraction(1)):
        with pytest.raises(ValueError, match=re.escape(f"set function value {bad!r} is not an int")):
            SetFunction(2, [0, bad, 1, 2])
    with pytest.raises(ValueError, match="^set function value 1.9 is not an int$"):
        base_polytope(SetFunction(2, [0, 1.9, 1.2, 2.5]))


def test_from_bases_uniform():
    f = SetFunction.from_bases(4, [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])
    assert f == U24
