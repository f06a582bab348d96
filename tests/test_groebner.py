"""Groebner engine, torus feasibility, toric ideals."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from omegalab import (
    Polynomial,
    ResourceLimit,
    elementary_symmetric,
    parse_polynomial,
    toric_ideal,
    torus_feasible,
)
from omegalab.groebner import (
    buchberger_intdicts,
    is_unit_ideal,
    normal_form,
    poly_to_intdict,
    saturate_by_product_elimination,
    saturate_coordinates,
)
from omegalab.linalg import integer_kernel_basis
from omegalab.poly import grevlex_key

from helpers import PLANE_CUBIC_TEXT, X123, random_sparse_polynomial


def P(text, names):
    return parse_polynomial(text, names)


def I(text, names):
    """The integer term dict of a parsed polynomial."""
    return poly_to_intdict(P(text, names))


def _ints(polys):
    return [poly_to_intdict(g) for g in polys]


def s_poly(f, g):
    """S-polynomial of integer term dicts under grevlex, computed on exponent tuples."""
    lf, lg = (max(p, key=grevlex_key) for p in (f, g))
    lcm = tuple(map(max, lf, lg))
    out = {}
    for p, lead, scale in ((f, lf, g[lg]), (g, lg, -f[lf])):
        for m, c in p.items():
            mm = tuple(x + y - z for x, y, z in zip(m, lcm, lead))
            out[mm] = out.get(mm, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def test_groebner_monomial_pair_is_stable():
    gens = [I("x^2", ["x", "y"]), I("x*y", ["x", "y"])]
    gb = buchberger_intdicts(gens)
    assert len(gb) == len(gens) and all(g in gb for g in gens)


def test_groebner_inconsistent_pair_gives_unit():
    gens = [I("x - 1", ["x"]), I("x", ["x"])]
    gb = buchberger_intdicts(gens)
    assert gb == [{(0,): 1}]


def test_groebner_single_binomial_unchanged():
    g = I("x1*x2 - 1", ["x1", "x2"])
    assert buchberger_intdicts([g]) == [g]


def test_groebner_idempotent_random():
    rng = random.Random(61)
    for _ in range(25):
        gens = [random_sparse_polynomial(rng, 3, 3, 3) for _ in range(rng.randint(1, 3))]
        gens = [poly_to_intdict(g) for g in gens if not g.is_zero]
        if not gens:
            continue
        gb = buchberger_intdicts(gens)
        assert buchberger_intdicts(gb) == gb


def test_groebner_spolys_and_inputs_reduce_to_zero():
    rng = random.Random(62)
    for _ in range(20):
        gens = [random_sparse_polynomial(rng, 3, 3, 3) for _ in range(2)]
        gens = [poly_to_intdict(g) for g in gens if not g.is_zero]
        if not gens:
            continue
        basis = buchberger_intdicts(gens)
        assert all(not normal_form(g, basis) for g in gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_poly(basis[i], basis[j])
                assert not normal_form(s, basis)


def test_pair_cap_raises_resource_limit():
    gens = [
        I("x^3 - 2*x*y", ["x", "y", "z"]),
        I("x^2*y - 2*y^2 + x*z", ["x", "y", "z"]),
        I("y^3 - x*z^2", ["x", "y", "z"]),
    ]
    with pytest.raises(ResourceLimit):
        buchberger_intdicts(gens, max_pairs=1)


def test_pair_queue_order_pinned_by_cap_thresholds():
    # The smallest cap that lets each computation finish counts the pairs it
    # treats, chain- and coprime-skipped ones included.  Any change that drops,
    # adds or reorders pairs moves these values.
    def assert_threshold(run, threshold):
        run(threshold)
        with pytest.raises(ResourceLimit):
            run(threshold - 1)

    gens = [
        I("x^3 - 2*x*y", ["x", "y", "z"]),
        I("x^2*y - 2*y^2 + x*z", ["x", "y", "z"]),
        I("y^3 - x*z^2", ["x", "y", "z"]),
    ]
    assert_threshold(lambda cap: buchberger_intdicts(gens, max_pairs=cap), 28)
    for d, threshold in ((2, 120), (3, 105)):
        points = sorted(elementary_symmetric(d, 5).support())
        assert_threshold(lambda cap: toric_ideal(points, max_pairs=cap), threshold)


QUARTIC_TEXT = (
    "2*x1^2*x2^2 + 2*x1^2*x2*x3 + 2*x1*x2^2*x3 + 2*x1^2*x2*x4 + 2*x1*x2^2*x4 + x1^2*x3*x4"
    " + x1*x2*x3*x4 + x2^2*x3*x4 + 2*x1^2*x4^2 + x1*x2*x4^2 + x2^2*x4^2 + x1*x3*x4^2"
    " + x2*x3*x4^2"
)


def test_reduction_sequence_pinned(monkeypatch):
    # The number of S-polynomials reduced and a SHA-256 over each of them, as
    # sorted exponent-tuple terms, in the order Buchberger forms them.  The
    # values were taken from the exponent-tuple kernel this one replaced; any
    # change that drops, adds, reorders or alters a reduction moves them.
    import omegalab.groebner
    from omegalab.derivatives import derivative_space

    real = omegalab.groebner._s_poly
    seen = []

    def traced(packing, f, g):
        s = real(packing, f, g)
        seen.append(repr(sorted(packing.decode(s).items())))
        return s

    monkeypatch.setattr(omegalab.groebner, "_s_poly", traced)
    e35 = elementary_symmetric(3, 5)
    quartic = P(QUARTIC_TEXT, ["x1", "x2", "x3", "x4"])
    runs = [
        (lambda: toric_ideal(sorted(elementary_symmetric(2, 5).support())), 243,
         "e8fda8e9dca35499ab8d956c9709d6dc7c4d41d71ae6319c040c6be69a8f14d9"),
        (lambda: torus_feasible(_ints(derivative_space(e35, 1).basis)), 20,
         "2dccce12408f2abb0d5ee32838eb1ac970939e6da501d1e5cd6e9cb86688add9"),
        (lambda: torus_feasible(_ints(derivative_space(quartic, 1).basis)), 100,
         "e07a5ad9810399d668ae5d3e3ab58bb4c6505d3037602063062029f34ad42258"),
    ]
    for run, count, digest in runs:
        seen.clear()
        run()
        assert len(seen) == count
        assert hashlib.sha256("".join(seen).encode()).hexdigest() == digest


def test_field_overflow_gives_the_same_basis(monkeypatch):
    import omegalab.groebner

    widths = []
    real = omegalab.groebner._Packing.__init__

    def recorded(self, order, width):
        widths.append(width)
        real(self, order, width)

    monkeypatch.setattr(omegalab.groebner._Packing, "__init__", recorded)
    names = ["x", "y", "z"]
    gb = buchberger_intdicts([I("x^40000*y - z^40001", names), I("x*z - y^2", names)])
    assert gb == [
        {(0, 2, 0): 1, (1, 0, 1): -1},
        {(40000, 1, 0): 1, (0, 0, 40001): -1},
        {(40001, 0, 1): 1, (0, 1, 40001): -1},
    ]
    # xy(x^32768 - y^32768) saturates to x^32768 - y^32768
    sat = saturate_by_product_elimination([{(32769, 1): 1, (1, 32769): -1}], 2)
    assert sat == [{(32768, 0): 1, (0, 32768): -1}]
    sat = saturate_by_product_elimination(
        [{(40000, 1, 0): 1, (0, 2, 39999): -1}, {(1, 0, 1): 1, (0, 2, 0): -1}], 3
    )
    assert sat == [
        {(0, 2, 0): 1, (1, 0, 1): -1},
        {(39999, 1, 0): 1, (0, 0, 40000): -1},
        {(40000, 0, 0): 1, (0, 1, 39999): -1},
    ]
    # Degree 127 fits 8-bit fields; the basis reaches degree 191, so the call
    # runs again with wider fields and gives the exponent-tuple kernel's basis.
    widths.clear()
    gb = buchberger_intdicts([I("x^127 - z^127", names), I("x*y - z^2", names)])
    assert widths == [8, 16]
    assert len(gb) == 66 and max(sum(m) for g in gb for m in g) == 191
    # the digest was taken over Fraction coefficients
    digest = hashlib.sha256(
        repr([sorted((m, Fraction(c)) for m, c in g.items()) for g in gb]).encode()
    )
    assert digest.hexdigest() == (
        "3f93c521cbe9eda006237131bfecb4c3abb190f1d9a34695f854e3ede19dab0c"
    )


def test_basis_independent_of_generator_order():
    rng = random.Random(66)
    for _ in range(20):
        nvars = rng.randint(3, 4)
        gens = []
        while len(gens) < 3:
            g = poly_to_intdict(random_sparse_polynomial(rng, nvars, 3, 4))
            if g and g not in gens:
                gens.append(g)
        basis = buchberger_intdicts(gens)
        shuffled = list(gens)
        while shuffled == gens:
            rng.shuffle(shuffled)
        assert buchberger_intdicts(shuffled) == basis
        for f, g in combinations(basis, 2):
            assert not normal_form(s_poly(f, g), basis)


def test_linear_feasibility_examples():
    names = ["x1", "x2"]
    assert torus_feasible([I("x1 - x2", names)]).is_feasible
    verdict = torus_feasible([I("x1 + x2", names), I("x1 - x2", names)])
    assert verdict.is_infeasible
    assert verdict.certificate[0] == "zero-kernel"
    # kernel contained in a coordinate hyperplane (a lone monomial such as x1
    # is settled before the linear path, by the monomial shortcut)
    names = ["x1", "x2", "x3"]
    verdict2 = torus_feasible([I("x1 + x2", names), I("x1 - x2", names)])
    assert verdict2.is_infeasible
    assert verdict2.certificate == ("coordinate-hyperplane", 0)


def test_torus_feasible_quadric_examples():
    names = ["x1", "x2"]
    assert torus_feasible([I("x1^2 - x2^2", names)]).is_feasible
    verdict = torus_feasible([I("x1^2 + x2^2", names), I("x1*x2", names)])
    assert verdict.is_infeasible


def test_torus_feasible_monomial_shortcut():
    verdict = torus_feasible([I("3*x1^2*x2", ["x1", "x2"])])
    assert verdict.is_infeasible
    assert verdict.certificate[0] == "monomial"


def test_torus_feasible_empty_system():
    assert torus_feasible([]).is_feasible
    # zero generators carry no equation, whatever their exponent length
    assert torus_feasible([{}, {(0, 0, 0): 0}]).is_feasible


def test_torus_feasible_requires_homogeneous():
    with pytest.raises(ValueError):
        torus_feasible([I("x1^2 + x2", ["x1", "x2"])])


def test_torus_feasible_validation_order():
    inhomogeneous = {(2, 0): 1, (1, 0): 1}
    for system in ([inhomogeneous, {(1, 0, 0): 1}], [{(1, 0, 0): 1}, inhomogeneous]):
        with pytest.raises(ValueError, match="generator variable count mismatch"):
            torus_feasible(system)
    with pytest.raises(ValueError, match="requires homogeneous generators"):
        torus_feasible([{(1, 1): 1}, inhomogeneous])
    # zero coefficients go before the homogeneity test
    verdict = torus_feasible([{(2, 0): 1, (0, 2): -1, (1, 0): 0}])
    assert verdict.is_feasible and verdict.method == "groebner"
    verdict = torus_feasible([{(1, 1): 3, (1, 0): 0}])
    assert verdict.is_infeasible and verdict.certificate == ("monomial", (1, 1))
    assert torus_feasible([{}]).is_feasible


def test_torus_feasible_undecided_propagates():
    gens = [
        I("x^3 - 2*x*y*z + y*z^2", ["x", "y", "z"]),
        I("x^2*y - 2*y^2*z + x*z^2", ["x", "y", "z"]),
    ]
    verdict = torus_feasible(gens, max_pairs=1)
    assert verdict.status == "undecided"


def test_poly_system_validates_variable_count():
    with pytest.raises(ValueError, match="variable count mismatch"):
        torus_feasible([I("x1 - x2", ["x1", "x2", "x3"]), I("x1 - x2", ["x1", "x2"])])


def _rational_torus_witness(gens, nvars, bound=3):
    values = [Fraction(a, b) for a in range(-bound, bound + 1) for b in (1, 2) if a]
    for point in product(values, repeat=nvars):
        if all(g.evaluate(point) == 0 for g in gens):
            return point
    return None


def _witness_search_systems():
    """Seeded (nvars, generators): 1-2 random homogeneous forms of degree 1-3."""
    rng = random.Random(63)
    for _ in range(120):
        nvars = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(1, 2)):
            d = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exponent = [0] * nvars
                for _ in range(d):
                    exponent[rng.randrange(nvars)] += 1
                terms[tuple(exponent)] = Fraction(rng.randint(-3, 3))
            g = Polynomial(nvars, terms)
            if not g.is_zero:
                gens.append(g)
        if gens:
            yield nvars, gens


def _linear_systems():
    """Seeded (nvars, generators): 1-4 random linear forms."""
    rng = random.Random(64)
    for _ in range(60):
        nvars = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [rng.randint(-2, 2) for _ in range(nvars)]
            if not any(coeffs):
                continue
            gens.append(
                Polynomial(
                    nvars,
                    {
                        tuple(1 if j == i else 0 for j in range(nvars)): Fraction(c)
                        for i, c in enumerate(coeffs)
                        if c
                    },
                )
            )
        if gens:
            yield nvars, gens


def test_feasibility_agrees_with_rational_witness_search():
    found = 0
    for nvars, gens in _witness_search_systems():
        witness = _rational_torus_witness(gens, nvars, bound=2)
        if witness is not None:
            assert torus_feasible(_ints(gens)).is_feasible
            found += 1
    assert found >= 10


def test_linear_path_agrees_with_groebner_path():
    for nvars, gens in _linear_systems():
        fast = torus_feasible(_ints(gens))
        # force the general machinery by squaring every generator
        squared = [g * g for g in gens]
        slow = torus_feasible(_ints(squared))
        assert fast.status == slow.status, (gens, fast, slow)


def test_integer_and_polynomial_generators_agree():
    systems = list(_witness_search_systems())
    for nvars, gens in _linear_systems():
        systems += [(nvars, gens), (nvars, [g * g for g in gens])]
    methods = set()
    for _, gens in systems:
        ints = _ints(gens)
        exact = torus_feasible(ints)
        # a rescaled, non-primitive system has the same zeros and certificate
        scaled = [{m: -6 * c for m, c in g.items()} for g in ints]
        assert torus_feasible(scaled) == exact, (gens, exact)
        methods.add((exact.method, exact.certificate[0]))
    assert {
        ("linear-algebra", "kernel-basis"),
        ("linear-algebra", "zero-kernel"),
        ("linear-algebra", "monomial"),
        ("groebner", "unit-saturated-ideal"),
        ("groebner", "proper-saturated-ideal"),
    } <= methods


def test_torus_feasible_rejects_malformed_integer_generators():
    with pytest.raises(ValueError, match="variable count mismatch"):
        torus_feasible([{(1, 0): 1, (0, 1): -1}, {(1, 0, 0): 1, (0, 0, 1): 2}])
    with pytest.raises(ValueError, match="homogeneous"):
        torus_feasible([{(2, 0): 1, (0, 1): -1}])
    with pytest.raises(ValueError, match="homogeneous"):
        torus_feasible([{(1, 1): 1, (2, 0): 3}, {(1, 0): 1, (0, 0): -1}])


def test_saturation_routes_agree_on_lattice_ideals():
    def monomial_grid(dim, degree):
        if dim == 1:
            return [(degree,)]
        out = []
        for first in range(degree + 1):
            out += [(first,) + rest for rest in monomial_grid(dim - 1, degree - first)]
        return out

    rng = random.Random(65)
    for _ in range(12):
        dim = rng.randint(2, 3)
        degree = rng.randint(1, 3)
        grid = monomial_grid(dim, degree)
        npts = rng.randint(3, min(6, len(grid))) if len(grid) >= 3 else len(grid)
        pts = sorted(rng.sample(grid, npts))
        rows = [[p[i] for p in pts] for i in range(dim)] + [[1] * len(pts)]
        lattice = integer_kernel_basis(rows, len(pts))
        gens = []
        for u in lattice:
            plus = tuple(max(x, 0) for x in u)
            minus = tuple(max(-x, 0) for x in u)
            if plus != minus:
                gens.append({plus: 1, minus: -1})
        a = saturate_coordinates(gens, len(pts))
        b = saturate_by_product_elimination(gens, len(pts))
        assert a == b, pts


def test_toric_ideal_of_squared_segment():
    ideal = toric_ideal([(2, 0), (1, 1), (0, 2)])
    assert ideal.points == ((2, 0), (1, 1), (0, 2))
    assert hash(ideal) == hash(toric_ideal([(0, 2), (1, 1), (2, 0)]))
    assert len(ideal.generators) == 1
    g = ideal.generators[0]
    assert g in (
        {(0, 2, 0): 1, (1, 0, 1): -1},
        {(1, 0, 1): 1, (0, 2, 0): -1},
    )


def test_toric_ideal_of_unimodular_simplex_is_zero():
    ideal = toric_ideal([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert ideal.generators == ()


def test_toric_ideal_contains_displayed_binomials():
    h = parse_polynomial(PLANE_CUBIC_TEXT, X123)
    from omegalab.derivatives import derivative_space

    space = derivative_space(h, 1)
    ideal = toric_ideal(space.columns)

    def mono(*idx):
        e = [0] * 5
        for i in idx:
            e[i] += 1
        return tuple(e)

    # column order: z20, z11, z02, z10, z01
    displayed = [
        {mono(3, 2): 1, mono(1, 4): -1},
        {mono(1, 3): 1, mono(0, 4): -1},
        {mono(1, 1): 1, mono(0, 2): -1},
    ]
    for b in displayed:
        assert not normal_form(b, ideal.generators)
    assert normal_form({mono(0): 1}, ideal.generators)


def test_toric_ideal_point_cap():
    with pytest.raises(ResourceLimit):
        toric_ideal([tuple([i, 13 - i]) for i in range(13)])


def test_unit_ideal_detection():
    gb = buchberger_intdicts([{(1, 0): 1}, {(1, 0): 1, (0, 0): -1}])
    assert is_unit_ideal(gb)
