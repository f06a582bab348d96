"""Groebner engine, torus feasibility, toric ideals."""

import copy
import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from operator import sub

import pytest

from omegalab import (
    Polynomial,
    ResourceLimit,
    certify_smooth,
    elementary_symmetric,
    oracle_centre_disjoint,
    parse_polynomial,
    toric_ideal,
    torus_feasible,
)
from omegalab.groebner import (
    DEFAULT_MAX_PAIRS,
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    _Packing,
    _cone_is_origin,
    buchberger_intdicts,
    is_unit_ideal,
    saturate_coordinates,
)
from omegalab.linalg import integer_kernel_basis
from omegalab.poly import grevlex_key

from helpers import (
    PLANE_CUBIC_TEXT,
    SINGULAR_CUBIC_TEXT,
    SMOOTH_CUBIC_TEXT,
    WXYZ,
    X123,
    bench_fixtures,
    eliminating_buchberger_intdicts,
    poly_to_intdict,
    random_sparse_polynomial,
    reference_buchberger_intdicts,
    reference_cone_is_origin,
    reference_lowest_index_saturate_coordinates,
    reference_normal_form,
    reference_oracle_centre_disjoint,
    reference_saturate_coordinates,
    reorder,
)
from paper_checks import saturate_by_product_elimination


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
        assert all(not reference_normal_form(g, basis) for g in gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_poly(basis[i], basis[j])
                assert not reference_normal_form(s, basis)


def test_pair_cap_raises_resource_limit():
    gens = [
        I("x^3 - 2*x*y", ["x", "y", "z"]),
        I("x^2*y - 2*y^2 + x*z", ["x", "y", "z"]),
        I("y^3 - x*z^2", ["x", "y", "z"]),
    ]
    with pytest.raises(ResourceLimit):
        buchberger_intdicts(gens, max_pairs=1)


def test_pair_queue_order_pinned_by_cap_thresholds():
    # The smallest cap that lets each computation finish is the largest number
    # of S-pairs one of its Groebner bases reduces; pairs the Gebauer-Moeller
    # update pruned are not counted.  Any change that prunes, adds or drops
    # reductions moves these values.
    def assert_threshold(run, threshold):
        run(threshold)
        with pytest.raises(ResourceLimit):
            run(threshold - 1)

    gens = [
        I("x^3 - 2*x*y", ["x", "y", "z"]),
        I("x^2*y - 2*y^2 + x*z", ["x", "y", "z"]),
        I("y^3 - x*z^2", ["x", "y", "z"]),
    ]
    assert_threshold(lambda cap: buchberger_intdicts(gens, max_pairs=cap), 10)
    for d, threshold in ((2, 26), (3, 26)):
        points = sorted(elementary_symmetric(d, 5).support())
        assert_threshold(lambda cap: toric_ideal(points, max_pairs=cap), threshold)


QUARTIC_TEXT = (
    "2*x1^2*x2^2 + 2*x1^2*x2*x3 + 2*x1*x2^2*x3 + 2*x1^2*x2*x4 + 2*x1*x2^2*x4 + x1^2*x3*x4"
    " + x1*x2*x3*x4 + x2^2*x3*x4 + 2*x1^2*x4^2 + x1*x2*x4^2 + x2^2*x4^2 + x1*x3*x4^2"
    " + x2*x3*x4^2"
)


def test_reduction_sequence_pinned(monkeypatch):
    # The number of S-polynomials reduced and a SHA-256 over each of them, as
    # sorted exponent-tuple terms, in the order Buchberger forms them, under
    # the Gebauer-Moeller pair update; any change that drops, adds, reorders or
    # alters a reduction moves them.  A saturation step runs on its generators
    # with the saturated variable renamed last; its S-polynomials are recorded
    # in the caller's variables, named back once the step divides its basis.
    import omegalab.groebner
    from omegalab.derivatives import derivative_space

    real = omegalab.groebner._s_poly
    real_divide = omegalab.groebner._divide_out
    seen, pending = [], []  # pending: the current call's S-polynomials, decoded

    def record(name_back=lambda m: m):
        seen.extend(repr(sorted((name_back(m), c) for m, c in s.items())) for s in pending)
        pending.clear()

    def traced(packing, f, g):
        s = real(packing, f, g)
        pending.append(packing.decode(s))
        return s

    def divided(g, var):  # variable var was renamed last, the others kept their order
        record(lambda m: m[:var] + m[-1:] + m[var:-1])
        return real_divide(g, var)

    monkeypatch.setattr(omegalab.groebner, "_s_poly", traced)
    monkeypatch.setattr(omegalab.groebner, "_divide_out", divided)
    e35 = elementary_symmetric(3, 5)
    quartic = P(QUARTIC_TEXT, ["x1", "x2", "x3", "x4"])
    runs = [
        (lambda: toric_ideal(sorted(elementary_symmetric(2, 5).support())), 87,
         "c38b505085b3787d58c1ad6dd6c804759a49f85f0524e67da962bf908216a45b"),
        (lambda: torus_feasible(_ints(derivative_space(e35, 1).basis)), 11,
         "006317ee79d12d8e2ad71d58dfe3de74449e6e60f1ffdbe544f8d79505ea3074"),
        (lambda: torus_feasible(_ints(derivative_space(quartic, 1).basis)), 60,
         "e69f469e66402a3f56ca1b7cfc4effff7d3f079b7b7e1dc8d64586f48fd36ab7"),
    ]
    for run, count, digest in runs:
        seen.clear()
        run()
        record()  # the last call's, in the caller's variables
        assert len(seen) == count
        assert hashlib.sha256("".join(seen).encode()).hexdigest() == digest


def test_packed_monomials_round_trip_and_take_the_fieldwise_lcm():
    # lcm reads the degree off the fields as their sum modulo mask; leads of
    # degree half - 1 with disjoint supports push it to mask - 1, the most it holds
    rng = random.Random(71)

    def monomial(n, degree, free):  # a random exponent of that degree on the free variables
        cuts = sorted(rng.randint(0, degree) for _ in free[1:])
        parts = dict(zip(free, map(sub, cuts + [degree], [0] + cuts)))
        return tuple(parts.get(i, 0) for i in range(n))

    for n in range(1, 7):
        for w in (8, 16):
            ranking = rng.sample(range(n), n)  # variable ranking[j] is packed in field j
            pk = _Packing(n, w)
            pairs = [
                tuple(monomial(n, rng.randint(0, pk.half - 1), range(n)) for _ in "ab")
                for _ in range(40)
            ]
            for _ in range(5 if n > 1 else 0):
                split = rng.randint(1, n - 1)
                free = rng.sample(range(n), n)
                a, b = (monomial(n, pk.half - 1, part) for part in (free[:split], free[split:]))
                assert sum(map(max, a, b)) == pk.mask - 1
                pairs.append((a, b))
            for a, b in pairs:
                a, b = (tuple(m[v] for v in ranking) for m in (a, b))
                p = {a: 3, b: -2} if a != b else {a: 1}
                assert pk.decode(pk.encode(p)) == p, (ranking, w, p)
                (ka,), (kb,), (k_max,) = (pk.encode({m: 1}) for m in (a, b, tuple(map(max, a, b))))
                assert pk.lcm(pk.exponents(ka), pk.exponents(kb)) == k_max, (ranking, w, a, b)


def test_field_overflow_gives_the_same_basis(monkeypatch):
    import omegalab.groebner

    widths = []
    real = omegalab.groebner._Packing.__init__

    def recorded(self, n, width):
        widths.append(width)
        real(self, n, width)

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
    gens = [I("x^127 - z^127", names), I("x*y - z^2", names)]
    widths.clear()
    doubled = buchberger_intdicts([{m: 2 * c for m, c in g.items()} for g in gens])
    assert widths == [8, 16]
    widths.clear()
    gb = buchberger_intdicts(gens)
    assert widths == [8, 16] and gb == doubled
    assert len(gb) == 66 and max(sum(m) for g in gb for m in g) == 191
    # the digest was taken over Fraction coefficients
    digest = hashlib.sha256(
        repr([sorted((m, Fraction(c)) for m, c in g.items()) for g in gb]).encode()
    )
    assert digest.hexdigest() == (
        "3f93c521cbe9eda006237131bfecb4c3abb190f1d9a34695f854e3ede19dab0c"
    )


def test_cone_is_origin_stops_at_the_first_pure_power_cover(monkeypatch):
    import omegalab.groebner

    assert _cone_is_origin([{(2, 0): 1}, {(0, 2): 1}], DEFAULT_MAX_PAIRS)
    assert not _cone_is_origin([{(1, 1): 1}], DEFAULT_MAX_PAIRS)
    assert _cone_is_origin([{(1, 1): 1}, {(0, 0): 3}], DEFAULT_MAX_PAIRS)  # a constant
    assert not _cone_is_origin([{}], DEFAULT_MAX_PAIRS)  # the zero ideal
    # a known prefix that covers every variable answers before any reduction
    with monkeypatch.context() as patched:
        patched.setattr(omegalab.groebner, "_reduce", lambda *args: pytest.fail("reduced"))
        gens = [{(2, 0): 1}, {(0, 2): 1}, {(1, 1): 1, (2, 0): -1}]
        assert _cone_is_origin(gens, 0, known=2)
    # the basis outgrows 8-bit fields: the run starts again at 16 bits, afresh,
    # and answers as the whole reduced basis does
    widths = []
    real = omegalab.groebner._Packing.__init__

    def recorded(self, n, width):
        widths.append(width)
        real(self, n, width)

    monkeypatch.setattr(omegalab.groebner._Packing, "__init__", recorded)
    names = ["x", "y", "z"]
    gens = [I("x^127 - z^127", names), I("x*y - z^2", names)]
    for extra, answer in ((), False), ((I("y^127 - 2*z^127", names),), True):
        widths.clear()
        assert _cone_is_origin(gens + list(extra), DEFAULT_MAX_PAIRS) is answer
        assert widths == [8, 16]
        assert reference_cone_is_origin(gens + list(extra), 3) is answer
    # random homogeneous systems, on both answers
    rng = random.Random(48)
    answers = []
    for _ in range(40):
        degree = rng.randint(1, 3)
        monomials = [m for m in product(range(degree + 1), repeat=3) if sum(m) == degree]
        gens = [
            {m: rng.choice((-2, -1, 1, 2)) for m in rng.sample(monomials, rng.randint(1, 3))}
            for _ in range(3)
        ]
        answers.append(_cone_is_origin(gens, DEFAULT_MAX_PAIRS))
        assert answers[-1] == reference_cone_is_origin(gens, 3), gens
    assert 10 <= sum(answers) <= 30, answers


def _recorded_bases(monkeypatch, run):
    """(generators, basis) of every buchberger_intdicts call that `run` makes; a
    known prefix is forwarded, so the reference checks that path too."""
    import omegalab.groebner

    calls = []

    def recording(gens, max_pairs=DEFAULT_MAX_PAIRS, *, known=0):
        gens = list(gens)
        calls.append((gens, buchberger_intdicts(gens, max_pairs, known=known)))
        return calls[-1][1]

    with monkeypatch.context() as patched:
        patched.setattr(omegalab.groebner, "buchberger_intdicts", recording)
        run()
    return calls


def test_gebauer_moeller_matches_the_chain_criterion_reference(monkeypatch):
    # The reduced basis is unique, so pruning pairs on entry and reducing by the
    # active elements only must give the chain-criterion loop's basis exactly.
    fixtures = bench_fixtures()
    names = ["x1", "x2", "x3", "x4"]
    polys = [P(QUARTIC_TEXT, names), P(QUARTIC_TEXT, ["x1", "x3", "x2", "x4"])]
    for name, _ in fixtures.LADDER:
        if name not in fixtures.GUARDED:
            f = fixtures.fixture(name)
            polys.append(P(f.text, list(f.names)))
    systems = [c for h in polys for c in _recorded_bases(monkeypatch, lambda: certify_smooth(h))]
    assert len(systems) >= 40
    # Every pair's toric ideal and extension basis, on the route with no
    # empty-centre exit; then the oracle's own toric ideals, on the 6 pairs with a
    # nonempty centre, whose extension it decides with no reduced basis.
    routes = (reference_oracle_centre_disjoint, oracle_centre_disjoint)
    oracle = [[], []]
    for name, k, *_ in fixtures.ORACLE_PAIRS:
        f = fixtures.fixture(name)
        h = P(f.text, list(f.names))
        for calls, route in zip(oracle, routes):
            calls += _recorded_bases(monkeypatch, lambda: route(h, k))
    assert [len(calls) for calls in oracle] == [77, 20]
    systems += oracle[0] + oracle[1]
    for gens, basis in systems:
        assert reference_buchberger_intdicts(gens) == basis, gens

    rng = random.Random(67)
    # variable ranking[j] is renamed j; the third run eliminates x2, renamed
    # last, on the test-side packing
    runs = (
        ((0, 1, 2, 3), buchberger_intdicts, reference_buchberger_intdicts),
        ((2, 0, 3, 1), buchberger_intdicts, reference_buchberger_intdicts),
        (
            (1, 3, 0, 2),
            eliminating_buchberger_intdicts,
            lambda gens: eliminating_buchberger_intdicts(gens, reference=True),
        ),
    )
    for ranking, run, reference in runs:
        for _ in range(12):
            gens = [
                {tuple(rng.randint(0, 2) for _ in range(4)): rng.randint(-3, 3) for _ in range(3)}
                for _ in range(rng.randint(2, 3))
            ]
            gens = [reorder({m: c for m, c in g.items() if c}, ranking) for g in gens]
            assert run(gens) == reference(gens)
    names = ["x", "y", "z"]
    for gens in (
        [I("x^40000*y - z^40001", names), I("x*z - y^2", names)],
        [I("x^127 - z^127", names), I("x*y - z^2", names)],
    ):
        assert buchberger_intdicts(gens) == reference_buchberger_intdicts(gens)


def test_chain_criterion_reference_keeps_the_old_reduction_sequence(monkeypatch):
    # The reference is the loop the Gebauer-Moeller update replaced: it still
    # forms the S-polynomials that loop was pinned to on the systems
    # torus_feasible hands it, 11 and 100 of them.
    import omegalab.groebner
    from omegalab.derivatives import derivative_space

    real = omegalab.groebner._s_poly
    seen = []

    def traced(packing, f, g):
        s = real(packing, f, g)
        seen.append(repr(sorted(packing.decode(s).items())))
        return s

    monkeypatch.setattr(omegalab.groebner, "_s_poly", traced)
    monkeypatch.setattr(omegalab.groebner, "buchberger_intdicts", reference_buchberger_intdicts)
    quartic = P(QUARTIC_TEXT, ["x1", "x2", "x3", "x4"])
    runs = [
        (elementary_symmetric(3, 5), 11,
         "89c95f9b0ed057733dc1bdc74ef248bf0a9d42326f0a6faf540a1c0096446338"),
        (quartic, 100, "e07a5ad9810399d668ae5d3e3ab58bb4c6505d3037602063062029f34ad42258"),
    ]
    for h, count, digest in runs:
        seen.clear()
        torus_feasible(_ints(derivative_space(h, 1).basis))
        assert len(seen) == count
        assert hashlib.sha256("".join(seen).encode()).hexdigest() == digest


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
            assert not reference_normal_form(s_poly(f, g), basis)


def test_linear_feasibility_examples():
    names = ["x1", "x2"]
    assert torus_feasible([I("x1 - x2", names)]).is_feasible
    verdict = torus_feasible([I("x1 + x2", names), I("x1 - x2", names)])
    assert verdict.status == INFEASIBLE
    assert verdict.certificate[0] == "zero-kernel"
    # kernel contained in a coordinate hyperplane (a lone monomial such as x1
    # is settled before the linear path, by the monomial shortcut)
    names = ["x1", "x2", "x3"]
    verdict2 = torus_feasible([I("x1 + x2", names), I("x1 - x2", names)])
    assert verdict2.status == INFEASIBLE
    assert verdict2.certificate == ("coordinate-hyperplane", 0)


def test_torus_feasible_quadric_examples():
    names = ["x1", "x2"]
    assert torus_feasible([I("x1^2 - x2^2", names)]).is_feasible
    verdict = torus_feasible([I("x1^2 + x2^2", names), I("x1*x2", names)])
    assert verdict.status == INFEASIBLE


def test_torus_feasible_monomial_shortcut():
    verdict = torus_feasible([I("3*x1^2*x2", ["x1", "x2"])])
    assert verdict.status == INFEASIBLE
    assert verdict.certificate[0] == "monomial"


def test_torus_feasible_constant_generator():
    verdict = torus_feasible([{(0, 0): 3}, {(1, 0): 1, (0, 1): -1}])
    assert verdict.status == INFEASIBLE and verdict.certificate == ("constant", None)


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
        with pytest.raises(ValueError, match="^exponents of mixed length: 2, 3$"):
            torus_feasible(system)
    with pytest.raises(ValueError, match="requires homogeneous generators"):
        torus_feasible([{(1, 1): 1}, inhomogeneous])
    # zero coefficients go before the homogeneity test
    verdict = torus_feasible([{(2, 0): 1, (0, 2): -1, (1, 0): 0}])
    assert verdict.is_feasible and verdict.method == "groebner"
    verdict = torus_feasible([{(1, 1): 3, (1, 0): 0}])
    assert verdict.status == INFEASIBLE and verdict.certificate == ("monomial", (1, 1))
    assert torus_feasible([{}]).is_feasible


def test_torus_feasible_leaves_its_inputs_unchanged():
    # the certificate passes one dict to many calls, so no call may change it
    for system in (
        [{(2, 0, 0): 1, (0, 1, 1): -1, (1, 0, 0): 0}, {(0, 2, 0): 1, (0, 0, 2): -1}],
        [{(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 0}, {(0, 1, 0): 1, (0, 0, 1): -1}],
        [{(1, 1, 0): 2, (1, 0, 0): 0}, {(0, 1, 1): 1, (0, 2, 0): 1}],
    ):
        before = copy.deepcopy(system)
        first, second = torus_feasible(system), torus_feasible(system)
        assert first == second
        assert system == before


MISMATCH, INHOMOGENEOUS = "exponents of mixed length: 2, 3", "requires homogeneous generators"


def _linear(status, *certificate):
    return status, "linear-algebra", certificate


@pytest.mark.parametrize(
    "system, expected",  # the ValueError's message, or the verdict (status, method, certificate)
    [
        ([{(2, 0): 1, (1, 0): 1}, {(1, 0, 0): 1}], MISMATCH),  # outranks an inhomogeneous one
        ([{(1, 0): 1}, {(1, 0, 0): 1, (0, 1, 0): -1}], MISMATCH),  # and a leading monomial
        ([{(1, 0): 1}, {(0, 0, 1): 0}], MISMATCH),  # a zero term's length counts
        ([{(1, 1): 1}, {(2, 0): 1, (1, 0): 1}], INHOMOGENEOUS),  # outranks a monomial
        (  # a zero term makes no generator inhomogeneous
            [{(2, 0): 1, (0, 2): -1, (1, 0): 0}],
            (FEASIBLE, "groebner", ("proper-saturated-ideal", None)),
        ),
        ([{}, {(0, 0, 0): 0}], _linear(FEASIBLE, "empty-system", None)),
        ([{(1, 0): 1}, {(0, 0): 5}], _linear(INFEASIBLE, "constant", None)),  # outranks a monomial
        # the first monomial in generator order, a two-term generator with a zero coefficient
        (
            [{(1, 0): 1, (0, 1): -1}, {(1, 1): 3, (2, 0): 0}, {(0, 2): 1}],
            _linear(INFEASIBLE, "monomial", (1, 1)),
        ),
        (
            [{(2, 0): 0}, {(1, 0): 1, (0, 1): 1}, {(0, 2): 4}],
            _linear(INFEASIBLE, "monomial", (0, 2)),
        ),
        # degree-1 systems reach the kernel
        (
            [{(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 0}],
            _linear(FEASIBLE, "kernel-basis", [(1, 1, 0), (0, 0, 1)]),
        ),
        (
            [{(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}],
            _linear(INFEASIBLE, "zero-kernel", None),
        ),
        (
            [{(1, 0, 0): 1, (0, 1, 0): 1}, {(1, 0, 0): 1, (0, 1, 0): -1}],
            _linear(INFEASIBLE, "coordinate-hyperplane", 0),
        ),
        (  # mixed degrees go to Groebner
            [{(1, 0): 1, (0, 1): -1}, {(2, 0): 1, (0, 2): 1}],
            (INFEASIBLE, "groebner", ("unit-saturated-ideal", None)),
        ),
        (  # x*y*(x + y) is chosen for Groebner by its degree, then decided as x + y
            [{(1, 0): 1, (0, 1): -1}, {(2, 1): 1, (1, 2): 1}],
            (INFEASIBLE, "groebner", ("unit-saturated-ideal", None)),
        ),
    ],
)
def test_torus_feasible_screen(system, expected):
    before = copy.deepcopy(system)
    for given in (system, iter(system)):  # any iterable, read once
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                torus_feasible(given)
            continue
        verdict = torus_feasible(given)
        assert verdict == expected
        assert (verdict.status, verdict.method, verdict.certificate) == expected
        assert verdict.is_feasible == (expected[0] == FEASIBLE)
        with pytest.raises(AttributeError):  # immutable
            verdict.status = UNDECIDED
        assert verdict.status == expected[0]
    assert system == before  # the caller's dicts are never changed


def test_torus_feasible_undecided_propagates():
    gens = [
        I("x^3 - 2*x*y*z + y*z^2", ["x", "y", "z"]),
        I("x^2*y - 2*y^2*z + x*z^2", ["x", "y", "z"]),
    ]
    verdict = torus_feasible(gens, max_pairs=1)
    assert verdict.status == "undecided"


def test_poly_system_validates_variable_count():
    with pytest.raises(ValueError, match="^exponents of mixed length: 2, 3$"):
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


def _face_systems(monkeypatch):
    """The face systems certify_smooth hands torus_feasible on e(3,5), e(4,6)
    and the three cubics, as integer dicts in call order."""
    import omegalab.certify as certify

    systems = []

    def captured(system, *args, _real=certify.torus_feasible, **kwargs):
        systems.append(copy.deepcopy(list(system)))
        return _real(systems[-1], *args, **kwargs)

    monkeypatch.setattr(certify, "torus_feasible", captured)
    for h in (
        elementary_symmetric(3, 5),
        elementary_symmetric(4, 6),
        P(PLANE_CUBIC_TEXT, X123),
        P(SINGULAR_CUBIC_TEXT, WXYZ),
        P(SMOOTH_CUBIC_TEXT, WXYZ),
    ):
        certify_smooth(h)
    monkeypatch.undo()
    return systems


def _random_homogeneous_systems(rng, count):
    """Seeded systems of 1-3 homogeneous forms of degree 1-3 in 2-4 variables."""
    for _ in range(count):
        nvars = rng.randint(2, 4)
        system = []
        for _ in range(rng.randint(1, 3)):
            grid = _monomial_grid(nvars, rng.randint(1, 3))
            support = rng.sample(grid, min(len(grid), rng.randint(1, 4)))
            system.append({m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in support})
        yield system


def test_torus_feasibility_ignores_monomial_factors(monkeypatch):
    # x^a*g and g have the same torus zeros: multiplying each generator by a
    # monomial of degree at most 2 keeps the status, and a system whose
    # generators all carry two or more terms, one with a monomial factor,
    # takes the Groebner route, which the given degrees choose.
    rng = random.Random(72)
    systems = _face_systems(monkeypatch)
    assert len(systems) > 50
    systems += _random_homogeneous_systems(rng, 150)
    routes = set()
    for system in systems:
        nvars = len(next(iter(system[0])))
        expected = torus_feasible(system).status
        scaled = []
        for g in system:
            a = [0] * nvars
            for _ in range(rng.randint(0, 2)):
                a[rng.randrange(nvars)] += 1
            scaled.append({tuple(map(sum, zip(m, a))): c for m, c in g.items()})
        before = copy.deepcopy(scaled)
        verdict = torus_feasible(scaled)
        assert verdict.status == expected, system
        assert scaled == before  # the caller's dicts are never changed
        if all(len(g) > 1 for g in scaled) and any(
            any(min(column) for column in zip(*g)) for g in scaled
        ):
            assert verdict.method == "groebner", system
            routes.add(expected)
    assert routes == {FEASIBLE, INFEASIBLE}


def test_torus_feasible_rejects_malformed_integer_generators():
    with pytest.raises(ValueError, match="^exponents of mixed length: 2, 3$"):
        torus_feasible([{(1, 0): 1, (0, 1): -1}, {(1, 0, 0): 1, (0, 0, 1): 2}])
    with pytest.raises(ValueError, match="homogeneous"):
        torus_feasible([{(2, 0): 1, (0, 1): -1}])
    with pytest.raises(ValueError, match="homogeneous"):
        torus_feasible([{(1, 1): 1, (2, 0): 3}, {(1, 0): 1, (0, 0): -1}])


def _monomial_grid(dim, degree):
    if dim == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        out += [(first,) + rest for rest in _monomial_grid(dim - 1, degree - first)]
    return out


def _lattice_binomials(pts, rng=None):
    """c*z^u+ + c'*z^u- for each u of a lattice basis of the integer kernel of the
    graded configuration; (c, c') is (1, -1), or with `rng` drawn from 1..3 and
    -3..-1."""
    rows = [[p[i] for p in pts] for i in range(len(pts[0]))] + [[1] * len(pts)]
    gens = []
    for u in integer_kernel_basis(rows, len(pts)):
        plus = tuple(max(x, 0) for x in u)
        minus = tuple(max(-x, 0) for x in u)
        c, c_minus = (rng.randint(1, 3), -rng.randint(1, 3)) if rng else (1, -1)
        gens.append({plus: c, minus: c_minus})
    return gens


def test_saturation_routes_agree_on_lattice_ideals():
    rng = random.Random(65)
    for _ in range(40):
        grid = _monomial_grid(rng.randint(2, 4), rng.randint(1, 3))
        npts = rng.randint(3, min(8, len(grid))) if len(grid) >= 3 else len(grid)
        pts = sorted(rng.sample(grid, npts))
        gens = _lattice_binomials(pts)
        a = saturate_coordinates(gens, len(pts))
        b = saturate_by_product_elimination(gens, len(pts))
        assert a == b, pts


def test_saturation_agrees_with_the_every_variable_loop():
    # The two-term rule skips saturation steps; the reduced basis of the
    # saturation is unique, so the skipping must not change a single byte.
    rng = random.Random(68)
    empty = 0
    for _ in range(200):
        grid = _monomial_grid(rng.randint(2, 5), rng.randint(1, 3))
        pts = rng.sample(grid, rng.randint(1, min(10, len(grid))))
        pts.sort(key=grevlex_key, reverse=True)  # toric_ideal's column order
        gens = _lattice_binomials(pts)
        empty += not gens
        expected = reference_saturate_coordinates(gens, len(pts))
        assert saturate_coordinates(gens, len(pts)) == expected, pts
        assert list(toric_ideal(pts).generators) == expected, pts
        scaled = _lattice_binomials(pts, rng)
        assert saturate_coordinates(scaled, len(pts)) == reference_saturate_coordinates(
            scaled, len(pts)
        ), scaled
    assert empty >= 10
    for _ in range(80):  # homogeneous, mostly not binomial
        nvars, degree = rng.randint(2, 4), rng.randint(1, 3)
        grid = _monomial_grid(nvars, degree)
        gens = [
            {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in rng.sample(grid, rng.randint(1, min(4, len(grid))))}
            for _ in range(rng.randint(1, 3))
        ]
        expected = reference_saturate_coordinates(gens, nvars)
        assert saturate_coordinates(gens, nvars) == expected, gens


def _record_saturated_variables(monkeypatch):
    """A list that gets, per buchberger_intdicts call, the variable its basis is
    then divided by: the variable saturated, or None for the final basis."""
    import omegalab.groebner

    orders = []

    def counted(*args, _real=buchberger_intdicts, **kwargs):
        orders.append(None)
        return _real(*args, **kwargs)

    def divided(g, var, _real=omegalab.groebner._divide_out):
        orders[-1] = var
        return _real(g, var)

    monkeypatch.setattr(omegalab.groebner, "buchberger_intdicts", counted)
    monkeypatch.setattr(omegalab.groebner, "_divide_out", divided)
    return orders


def test_saturation_steps_skip_the_variables_two_term_elements_free(monkeypatch):
    orders = _record_saturated_variables(monkeypatch)
    g = {(1, 1, 0): 2, (0, 0, 2): -3}  # 2*z0*z1 - 3*z2^2
    assert saturate_coordinates([g], 3) == [g]
    # once supp(z2^2) = {z2} is saturated, the element frees z0 and z1; z0 or
    # z1 alone frees nothing, so the step rule takes z2 and only z2
    assert orders == [2, None]
    orders.clear()
    h = {(0, 2, 0, 0): 1, (1, 0, 0, 1): -5}  # z1^2 - 5*z0*z3; z2 occurs nowhere
    assert saturate_coordinates([h], 4) == [h]
    # z2 starts saturated; after z1, supp(z1^2) is, so z0 and z3 are freed
    assert orders == [1, None]
    orders.clear()
    # a lattice basis of e(2,5)'s support needs 3 of the 10 steps
    toric_ideal(elementary_symmetric(2, 5).support())
    assert len(orders) == 4


def test_the_step_rule_never_takes_more_steps_than_the_lowest_index_rule(monkeypatch):
    orders = _record_saturated_variables(monkeypatch)

    def count(saturate, gens, nvars):
        orders.clear()
        basis = saturate(gens, nvars)
        return basis, sum(var is not None for var in orders)  # None: the final basis

    # the draws of test_saturation_agrees_with_the_every_variable_loop
    rng = random.Random(68)
    totals = [0, 0]
    for _ in range(200):
        grid = _monomial_grid(rng.randint(2, 5), rng.randint(1, 3))
        pts = rng.sample(grid, rng.randint(1, min(10, len(grid))))
        pts.sort(key=grevlex_key, reverse=True)
        for gens in (_lattice_binomials(pts), _lattice_binomials(pts, rng)):
            basis, new = count(saturate_coordinates, gens, len(pts))
            expected, old = count(reference_lowest_index_saturate_coordinates, gens, len(pts))
            assert basis == expected, pts
            assert new <= old, pts
            totals[0] += new
            totals[1] += old
    assert totals == [2 * 125, 2 * 223]


def test_renaming_the_variables_commutes_with_saturation(monkeypatch):
    # Saturation by the product of all variables does not depend on their names:
    # the saturation, renamed and given its grevlex basis again, is the saturation
    # of the renamed generators, whichever variables the steps take.
    rng = random.Random(72)
    cases = []
    for _ in range(60):  # lattice ideals of seeded grid configurations
        grid = _monomial_grid(rng.randint(2, 5), rng.randint(1, 3))
        pts = rng.sample(grid, rng.randint(1, min(9, len(grid))))
        cases.append((_lattice_binomials(pts, rng if rng.random() < 0.5 else None), len(pts)))
    for _ in range(40):  # homogeneous, mostly not binomial
        nvars, degree = rng.randint(2, 4), rng.randint(1, 3)
        grid = _monomial_grid(nvars, degree)
        gens = [
            {m: rng.choice([-3, -2, -1, 1, 2, 3]) for m in rng.sample(grid, rng.randint(1, min(4, len(grid))))}
            for _ in range(rng.randint(1, 3))
        ]
        cases.append((gens, nvars))
    for gens, nvars in cases:
        pi = rng.sample(range(nvars), nvars)
        renamed = saturate_coordinates([reorder(g, pi) for g in gens], nvars)
        saturated = saturate_coordinates(gens, nvars)
        assert buchberger_intdicts(reorder(g, pi) for g in saturated) == renamed, (gens, pi)
    # z0*(z1 - z2): the first step saturates z0, which is not the last variable
    orders = _record_saturated_variables(monkeypatch)
    z1_minus_z2 = {(0, 1, 0): 1, (0, 0, 1): -1}
    assert saturate_coordinates([{(1, 1, 0): 1, (1, 0, 1): -1}], 3) == [z1_minus_z2]
    assert orders == [0, 1, None]


def test_toric_bases_pinned():
    # A SHA-256 over the reduced toric bases, each element's terms sorted, of
    # 150 seeded grid configurations, the columns of the oracle's 26 pairs and
    # Delta(2,6)'s saturation; any change to a basis or its order moves it.
    from omegalab.derivatives import derivative_space

    bases = []
    rng = random.Random(69)
    for _ in range(150):  # seeded grid configurations
        grid = _monomial_grid(rng.randint(2, 5), rng.randint(1, 3))
        bases.append(toric_ideal(rng.sample(grid, rng.randint(1, min(10, len(grid))))).generators)
    fixtures = bench_fixtures()
    for name, k, *_ in fixtures.ORACLE_PAIRS:  # the lattices of the oracle's toric ideals
        f = fixtures.fixture(name)
        bases.append(toric_ideal(derivative_space(P(f.text, list(f.names)), k).columns).generators)
    pts = sorted(
        (tuple(int(i in pair) for i in range(6)) for pair in combinations(range(6), 2)),
        key=grevlex_key,
        reverse=True,
    )  # Delta(2,6), 15 points, above MAX_TORIC_POINTS
    bases.append(saturate_coordinates(_lattice_binomials(pts), len(pts)))
    assert len(bases[-1]) == 36
    text = repr([[sorted(g.items()) for g in basis] for basis in bases])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "99e4ae246d58c648c4a2e731c88c86f1690618c46d86c6c0c92f96a2290969ba"
    )


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
        assert not reference_normal_form(b, ideal.generators)
    assert reference_normal_form({mono(0): 1}, ideal.generators)


def test_toric_ideal_point_cap():
    with pytest.raises(ResourceLimit):
        toric_ideal([tuple([i, 13 - i]) for i in range(13)])


def test_toric_ideal_rejects_points_of_mixed_length():
    # the width was read off the first point after sorting: the first input gave
    # an empty ideal, the second an IndexError
    for points in ([(1, 0), (0, 0, 1)], [(2, 0), (0, 2), (1, 1, 7)]):
        lengths = ", ".join(map(str, sorted({len(p) for p in points})))
        with pytest.raises(ValueError, match=f"^exponents of mixed length: {lengths}$"):
            toric_ideal(points)


def test_exponents_of_mixed_length_are_rejected():
    # these gave the unit ideal, a binomial in 2 variables and "the order must
    # rank every variable"
    calls = [
        lambda: buchberger_intdicts([{(1, 0): 1, (0, 1): -1}, {(0, 0, 1): 1}]),
        lambda: buchberger_intdicts([{(1, 0): 1, (0, 1, 0): -1}]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^exponents of mixed length: 2, 3$"):
            call()
    for g, nvars in (({(1, 0): 1, (0, 1): -1}, 3), ({(1, 0, 0): 1, (0, 0, 1): -1}, 2)):
        length = len(next(iter(g)))
        with pytest.raises(ValueError, match=f"^exponents of length {length} in {nvars} variables$"):
            saturate_coordinates([g], nvars)
    with pytest.raises(ValueError, match="^coordinate saturation requires homogeneous generators$"):
        saturate_coordinates([{(2, 0): 1, (1, 0): -1}], 2)


def test_negative_exponent_is_rejected():
    # this gave [{(0, 1): 1, (255, 1): -1}]: the -1 borrowed from the packed field above
    with pytest.raises(ValueError, match="^exponent entry -1 is not a nonnegative int$"):
        buchberger_intdicts([{(-1, 2): 1, (0, 1): -1}])


def test_non_int_exponent_is_rejected():
    # this died with a TypeError inside the kernel
    with pytest.raises(ValueError, match="^exponent entry 1.0 is not a nonnegative int$"):
        buchberger_intdicts([{(1.0, 1): 1, (0, 2): -1}])


def test_torus_feasible_rejects_a_negative_exponent_on_the_linear_route():
    # this raised "tuple.index(x): x not in tuple"
    with pytest.raises(ValueError, match="^exponent entry -1 is not a nonnegative int$"):
        torus_feasible([{(-1, 2): 1, (0, 1): -1}])


def test_torus_feasible_rejects_a_float_exponent_on_the_linear_route():
    # this answered feasible, as (1.0, 0).index(1) is 0
    with pytest.raises(ValueError, match="^exponent entry 1.0 is not a nonnegative int$"):
        torus_feasible([{(1.0, 0): 1, (0, 1): -1}])


def test_torus_feasible_rejects_a_negative_exponent_before_shedding_contents():
    # this answered feasible: shedding the content (-1, 2) left x - y
    with pytest.raises(ValueError, match="^exponent entry -1 is not a nonnegative int$"):
        torus_feasible([{(-1, 3): 1, (0, 2): -1}])


def test_torus_feasible_names_the_entry_of_the_input_not_a_shifted_one():
    # this named 0.0, the entry left once the content (0.5, 1) was shed
    with pytest.raises(ValueError, match="^exponent entry 0.5 is not a nonnegative int$"):
        torus_feasible([{(0.5, 1.5): 1, (1, 1): -1}])
    # the monomial exit reads no entry: a Laurent monomial has no torus zero either
    verdict = torus_feasible([{(-1, 2): 1}])
    assert verdict == (INFEASIBLE, "linear-algebra", ("monomial", (-1, 2)))


def test_torus_feasible_checks_the_entries_of_a_constant():
    # this answered infeasible ("constant"), though x^-1*y + 1 has torus zeros
    with pytest.raises(ValueError, match="^exponent entry -1 is not a nonnegative int$"):
        torus_feasible([{(-1, 1): 1, (0, 0): 1}])


def test_torus_feasible_names_the_entry_before_the_homogeneity_test():
    # this raised "torus feasibility requires homogeneous generators"
    with pytest.raises(ValueError, match="^exponent entry -1 is not a nonnegative int$"):
        torus_feasible([{(-1, 3): 1, (0, 1): -1}])


def test_saturate_coordinates_names_the_entry_before_the_homogeneity_test():
    # this raised "coordinate saturation requires homogeneous generators"
    with pytest.raises(ValueError, match="^exponent entry -1 is not a nonnegative int$"):
        saturate_coordinates([{(-1, 3): 1, (0, 1): -1}], 2)


def test_unit_ideal_detection():
    gb = buchberger_intdicts([{(1, 0): 1}, {(1, 0): 1, (0, 0): -1}])
    assert is_unit_ideal(gb)
