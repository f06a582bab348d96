"""Set functions: axioms, rank tables, truncations, inseparability."""

import random
from fractions import Fraction

import pytest

from omegalab import (
    Polynomial,
    SetFunction,
    ZeroRestrictionError,
    check_simplicity_conditions,
    hyperbolic_rank,
    is_inseparable,
    is_polymatroid,
    parse_polynomial,
    polymatroid_from_hyperbolic,
    rank_from_support,
    truncate,
    truncation_sum,
)
from omegalab.derivatives import elementary_symmetric
from omegalab.setfunc import GroundSetTooLarge, mask_to_set, set_to_mask

from helpers import random_polymatroid, random_positive_polynomial, random_mconvex_support

U24 = SetFunction.uniform_matroid(2, 4)


def test_mask_roundtrip():
    assert mask_to_set(set_to_mask([1, 3])) == (1, 3)
    assert mask_to_set(0) == ()


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
    with pytest.raises(GroundSetTooLarge):
        SetFunction(21, [0] * (1 << 21))


def test_table_builders_check_the_ground_set_cap():
    one_point = tuple(1 if i == 0 else 0 for i in range(21))
    for build in (
        lambda: rank_from_support([one_point]),
        lambda: SetFunction.from_bases(21, [[1]]),
        lambda: SetFunction.uniform_matroid(1, 21),
    ):
        with pytest.raises(GroundSetTooLarge, match="ground set of size 21 exceeds the cap 20"):
            build()


def test_from_bases_rejects_elements_outside_the_ground_set():
    with pytest.raises(ValueError, match="basis element 3 lies outside the ground set 1..2"):
        SetFunction.from_bases(2, [[1, 3], [2, 3]])
    with pytest.raises(ValueError, match="basis element 0 lies outside"):
        SetFunction.from_bases(3, [[0, 1]])
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
    with pytest.raises(ValueError):
        rank_from_support(set())
    with pytest.raises(ValueError):
        rank_from_support({(1, 0), (2, 0)})


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


def test_truncations_are_polymatroids():
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(1, 6)
        f = random_polymatroid(rng, n, 4)
        for k in range(f.rank + 1):
            assert is_polymatroid(truncate(f, k)).ok


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
    with pytest.raises(GroundSetTooLarge):
        check_simplicity_conditions(SetFunction(9, [0] * 512))


def test_hyperbolic_rank_examples():
    s = elementary_symmetric(2, 3)
    assert hyperbolic_rank(s, [1, 1, 1], [1, 0, 0]) == 1
    assert hyperbolic_rank(s, [1, 1, 1], [1, 1, 1]) == 2
    assert hyperbolic_rank(s, [1, 1, 1], [0, 0, 0]) == 0
    with pytest.raises(ZeroRestrictionError):
        hyperbolic_rank(Polynomial.zero(2), [1, 1], [1, 0])


def test_hyperbolic_rank_degree_guard_fires_before_any_expansion(monkeypatch):
    from omegalab.certify import MAX_CERTIFY_DEGREE
    from omegalab.guards import ResourceLimit

    at_cap = parse_polynomial(f"x^{MAX_CERTIFY_DEGREE - 1}*y", ["x", "y"])
    assert hyperbolic_rank(at_cap, [1, 1], [1, 1]) == 12
    over = parse_polynomial(f"x^{MAX_CERTIFY_DEGREE}*y", ["x", "y"])
    monkeypatch.setattr(Polynomial, "substitute_line", lambda *a: pytest.fail("expanded"))
    with pytest.raises(ResourceLimit) as err:
        hyperbolic_rank(over, [1, 1], [1, 1])
    assert str(err.value) == "degree guard: total degree 13 exceeds the cap 12"


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
    text = U24.to_json()
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


def test_from_bases_uniform():
    f = SetFunction.from_bases(4, [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])
    assert f == U24
