"""M-convexity, Lorentzian signatures, disjointness, certificates."""

import functools
import random
import sys
from fractions import Fraction
from itertools import combinations, zip_longest
from math import prod
from operator import gt, lt, mul

import pytest

from omegalab import (
    Polynomial,
    SetFunction,
    base_polytope,
    centre_disjoint,
    certify_smooth,
    is_lorentzian,
    is_mconvex,
    oracle_centre_disjoint,
    parse_polynomial,
    rank_from_support,
    smoothable_probe,
    toric_ideal,
    truncate,
)
from omegalab.certify import positive_eigenvalue_count
from omegalab.derivatives import derivative_space, elementary_symmetric

from helpers import (
    _compositions,
    all_mconvex_sets,
    PLANE_CUBIC_TEXT,
    SINGULAR_CUBIC_TEXT,
    SMOOTH_CUBIC_TEXT,
    WXYZ,
    X123,
    bench_fixtures,
    lattice_points,
    mask_image,
    poly_to_intdict,
    random_block_symmetric_polynomial,
    random_mconvex_support,
    random_positive_polynomial,
    random_product_of_linear_forms,
    reference_char_poly,
    reference_faces,
    reference_is_mconvex,
    reference_oracle_centre_disjoint,
    reference_orbit_firsts,
    reference_truncation_polytope,
)


def test_mconvex_symmetric_supports():
    for d, n in [(2, 3), (3, 4), (2, 5)]:
        ok, witness = is_mconvex(elementary_symmetric(d, n).support())
        assert ok and witness is None


def test_mconvex_failure_witness():
    ok, witness = is_mconvex({(1, 1, 0), (0, 0, 2)})
    assert not ok
    x, y, i = witness
    assert x == (0, 0, 2) and y == (1, 1, 0) and i == 2


def test_mconvex_singleton():
    ok, _ = is_mconvex({(2, 3, 1)})
    assert ok


def test_mconvex_rejects_bad_input():
    with pytest.raises(ValueError):
        is_mconvex(set())
    with pytest.raises(ValueError):
        is_mconvex({(1, 0), (2, 0)})


def _perturbed(rng: random.Random, points: list, grid: list) -> list:
    """The points less one of them, or plus a grid point not among them."""
    extra = [p for p in grid if p not in points]
    if len(points) > 1 and (not extra or rng.random() < 0.5):
        dropped = rng.choice(points)
        return [p for p in points if p != dropped]
    return points + rng.sample(extra, min(1, len(extra)))


def test_mconvex_cover_test_matches_the_pair_scan():
    rng = random.Random(20)
    sets = []
    for _ in range(300):  # the degree-2 points of a random rank-2 polymatroid
        n = rng.randint(3, 7)
        support = random_mconvex_support(rng, n, 2)
        sets += [support, _perturbed(rng, support, _compositions(2, n))]
    for n in range(1, 9):
        for d in range(1, n + 1):
            support = sorted(elementary_symmetric(d, n).support())
            sets += [support, _perturbed(rng, support, _compositions(d, n))]
    for _ in range(2400):
        grid = _compositions(rng.randint(1, 4), rng.randint(1, 5))
        sets.append(rng.sample(grid, rng.randint(1, len(grid))))
    failing = 0
    for points in sets:
        got = is_mconvex(points)
        assert got == reference_is_mconvex(points), points
        failing += not got[0]
    assert len(sets) >= 3000 and failing >= 1000, (len(sets), failing)


def test_mconvex_tables_are_keyed_by_the_values_that_occur():
    # translating a set keeps its M-convexity and moves its witness; a shift of
    # 1000 leaves most values between 0 and d unused in its coordinate
    rng = random.Random(41)
    for _ in range(300):
        grid = _compositions(rng.randint(1, 4), rng.randint(1, 5))
        points = rng.sample(grid, rng.randint(1, len(grid)))
        shift = [rng.choice((0, 5, 1000)) for _ in points[0]]
        moved = [tuple(map(sum, zip(p, shift))) for p in points]
        ok, witness = is_mconvex(points)
        expected = witness and (*(tuple(map(sum, zip(p, shift))) for p in witness[:2]), witness[2])
        assert is_mconvex(moved) == (ok, expected), (points, shift)


def test_mconvex_memory_does_not_grow_with_the_exponents():
    import tracemalloc

    points = [(10**6, 1), (10**6 - 1, 2)]
    tracemalloc.start()
    try:
        assert is_mconvex(points) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak  # tables over 0..d held 10^6 entries per variable


@pytest.mark.parametrize(
    "points, message",
    [
        ([], "the point set is empty"),
        ([(1, 0), (2, 0)], "equal coordinate sums"),
        ([(2, -1), (0, 0)], "exponent entry -1 is not a nonnegative int"),  # before the sums
        ([(1, -1), (0, 0)], "exponent entry -1 is not a nonnegative int"),
    ],
)
def test_mconvex_errors_match_the_pair_scan(points, message):
    for check in (is_mconvex, reference_is_mconvex):
        with pytest.raises(ValueError, match=message):
            check(points)


def test_mixed_point_lengths_raise():
    # checked right after emptiness, so before the coordinate sums
    for points in ({(1, 0), (1,)}, {(1, 0), (0, 1, 0)}, {(1, 0), (2,)}):
        lengths = ", ".join(map(str, sorted({len(p) for p in points})))
        with pytest.raises(ValueError, match=f"^exponents of mixed length: {lengths}$"):
            is_mconvex(points)
    with pytest.raises(ValueError, match="^exponents of mixed length: 2, 3$"):
        smoothable_probe([(1, 1), (2, 0), (0, 1, 1)], trials=1)
    with pytest.raises(ValueError, match="^the point set is empty$"):
        smoothable_probe([], trials=1)


def test_lorentzian_symmetric_quadratic():
    report = is_lorentzian(elementary_symmetric(2, 3))
    assert report.is_lorentzian
    assert report.hessian_failures == ()


def test_lorentzian_failure_two_positive_eigenvalues():
    report = is_lorentzian(parse_polynomial("x1*x2 + x3^2", X123))
    assert not report.is_lorentzian
    assert not report.mconvex
    assert report.hessian_failures == ((),)


def test_lorentzian_single_square():
    assert is_lorentzian(parse_polynomial("x1^2", ["x1"])).is_lorentzian


def test_lorentzian_degree_guard():
    from omegalab.guards import MAX_CERTIFY_DEGREE
    from omegalab.guards import ResourceLimit

    with pytest.raises(ValueError):
        is_lorentzian(parse_polynomial("x1 + x2", ["x1", "x2"]))
    for h in (Polynomial.zero(2), parse_polynomial("x1^2 + x2", ["x1", "x2"])):
        with pytest.raises(ValueError, match="^polynomial must be nonzero and homogeneous$"):
            is_lorentzian(h)
    over = parse_polynomial(f"x^{MAX_CERTIFY_DEGREE}*y", ["x", "y"])
    with pytest.raises(ResourceLimit, match=f"total degree {MAX_CERTIFY_DEGREE + 1} exceeds"):
        is_lorentzian(over)
    at_cap = parse_polynomial(f"x^{MAX_CERTIFY_DEGREE - 1}*y", ["x", "y"])
    assert is_lorentzian(at_cap).is_lorentzian


def test_lorentzian_negative_coefficient_flagged():
    report = is_lorentzian(parse_polynomial("x1^2 - x1*x2 + x2^2", ["x1", "x2"]))
    assert not report.nonneg_coeffs
    assert not report.is_lorentzian


def _hessian(q):
    """The Hessian of a quadratic form, by iterated partial derivatives."""
    n, origin = q.nvars, (0,) * q.nvars
    return [
        [q.partial_derivative(i).partial_derivative(j).coefficient(origin) for j in range(n)]
        for i in range(n)
    ]


def test_hessian_eigenvalue_count():
    q = parse_polynomial("x1*x2", ["x1", "x2"])
    assert positive_eigenvalue_count(_hessian(q)) == 1
    q2 = parse_polynomial("x1^2 + x2^2", ["x1", "x2"])
    assert positive_eigenvalue_count(_hessian(q2)) == 2
    q3 = Polynomial.zero(2)
    assert positive_eigenvalue_count(_hessian(q3)) == 0
    with pytest.raises(ValueError, match="^matrix must be square$"):
        positive_eigenvalue_count([[1, 0]])


def _symmetric_draw(rng, n, kind):
    """A seeded symmetric rational matrix of the given kind, denominators 1-3."""
    if kind == "negative-definite":  # -(B B^T + I)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        return [
            [-sum(x * y for x, y in zip(b[i], b[j])) - (i == j) for j in range(n)]
            for i in range(n)
        ]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if kind == "zero-diagonal":
        for i in range(n):
            m[i][i] = 0
    elif kind == "singular" and n > 1:  # the last row and column repeat the first
        m[-1] = list(m[0])
        for row in m:
            row[-1] = row[0]
        m[-1][-1] = m[0][0]
    return m


def test_inertia_count_matches_characteristic_polynomial():
    # A real symmetric matrix has only real eigenvalues, so the sign changes
    # of det(tI - M) count the positive ones (Descartes' rule).
    rng = random.Random(74)
    kinds = ("random", "zero-diagonal", "singular", "negative-definite")
    zero_diagonal = 0
    for trial in range(600):
        n = rng.randint(1, 5)
        kind = kinds[trial % len(kinds)]
        m = _symmetric_draw(rng, n, kind)
        signs = [c > 0 for c in reference_char_poly(m) if c]
        expected = sum(a != b for a, b in zip(signs, signs[1:]))
        assert positive_eigenvalue_count(m) == expected, m
        if kind == "negative-definite":
            assert expected == 0
        # a zero diagonal with an entry off it runs the row-and-column addition
        zero_diagonal += kind == "zero-diagonal" and any(any(row) for row in m)
    assert zero_diagonal >= 100
    # zero diagonals with known spectra: {2, -1, -1} and {1, -1, 2}
    assert positive_eigenvalue_count([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == 1
    assert positive_eigenvalue_count([[0, 1, 0], [1, 0, 0], [0, 0, 2]]) == 2


def test_hessian_failures_match_iterated_partials():
    from itertools import combinations_with_replacement

    rng = random.Random(73)
    for trial in range(60):
        n, d = rng.randint(1, 4), rng.randint(2, 5)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            exponent = [0] * n
            for _ in range(d):
                exponent[rng.randrange(n)] += 1
            coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
            terms[tuple(exponent)] = coeff
        h = Polynomial(n, terms)
        expected = []
        for multi in combinations_with_replacement(range(n), d - 2):
            g = h
            for i in multi:
                g = g.partial_derivative(i)
            if positive_eigenvalue_count(_hessian(g)) > 1:
                expected.append(multi)
        report = is_lorentzian(h)
        assert report.hessian_failures == tuple(expected), (trial, h)
        assert report.nonneg_coeffs == all(c > 0 for c in terms.values())


def test_lorentzian_partial_count_guard_fires_before_any_hessian(monkeypatch):
    import omegalab.certify
    from omegalab.guards import ResourceLimit

    walked = []
    monkeypatch.setattr(
        omegalab.certify, "combinations_with_replacement", lambda *args: walked.append(args)
    )
    names = [f"x{i}" for i in range(1, 13)]
    with pytest.raises(ResourceLimit) as excinfo:
        is_lorentzian(parse_polynomial("*".join(names), names))
    assert str(excinfo.value) == (
        "partial-count guard: 352716 order-10 partials exceed the cap 10000"
    )
    assert walked == []


def test_certificate_builds_no_partial_polynomial(monkeypatch):
    e46 = elementary_symmetric(4, 6)
    cubic = parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ)
    calls = []
    init = Polynomial.__init__

    def counted_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    monkeypatch.setattr(Polynomial, "partial_derivative", lambda *args: calls.append(args))
    assert certify_smooth(e46).verdict == "smooth-toric"
    assert [centre_disjoint(cubic, k).disjoint for k in (1, 2)] == ["no", "yes"]
    assert calls == []


def test_lorentzian_implies_mconvex_random():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        supp = random_mconvex_support(rng, n, d)
        h = random_positive_polynomial(rng, supp)
        report = is_lorentzian(h)
        if report.is_lorentzian:
            ok, _ = is_mconvex(h.support())
            assert ok


def test_lorentzian_closed_under_directional_derivatives():
    rng = random.Random(72)
    checked = 0
    while checked < 50:
        n = rng.randint(2, 4)
        d = rng.randint(3, 4)
        h = random_product_of_linear_forms(rng, n, d)
        if h.total_degree != d:
            continue
        assert is_lorentzian(h).is_lorentzian
        e = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
        dh = Polynomial.zero(n)
        for i in range(n):
            dh = dh + h.partial_derivative(i).scale(e[i])
        if dh.total_degree < 2:
            continue
        assert is_lorentzian(dh).is_lorentzian, (h, e)
        checked += 1


def test_centre_disjoint_plane_cubic():
    h = parse_polynomial(PLANE_CUBIC_TEXT, X123)
    report = centre_disjoint(h, 1)
    assert report.disjoint == "yes"
    assert report.span_dim == 3 and report.num_monomials == 5 and report.centre_dim == 2


def test_centre_disjoint_singular_cubic_witness():
    h = parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ)
    report = centre_disjoint(h, 1)
    assert report.disjoint == "no"
    assert set(report.witness_face) == {(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)}
    # the second-order centre is trivial, hence disjoint
    report2 = centre_disjoint(h, 2)
    assert report2.disjoint == "yes"
    assert report2.centre_dim == 0


def test_singular_cubic_explicit_intersection_point():
    # direct, engine-free certificate that the centre meets the variety: the
    # monomial-map image of the torus point (w, x, y, z) = (1, 7, 7, -6),
    # supported on the witness face, is annihilated by every first partial
    h = parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ)
    space = derivative_space(h, 1)
    orbit_point = {(1, 1, 0, 0): 7, (1, 0, 1, 0): 7, (1, 0, 0, 1): -6}
    vec = [Fraction(orbit_point.get(c, 0)) for c in space.columns]
    for row in space.matrix:
        assert sum(c * v for c, v in zip(row, vec)) == 0
    # the point lies on the toric variety: every toric-ideal generator kills it
    ideal = toric_ideal(space.columns)
    for g in ideal.generators:
        assert sum(c * prod(v**e for v, e in zip(vec, m)) for m, c in g.items()) == 0


def test_centre_disjoint_smooth_cubic_all_orders():
    h = parse_polynomial(SMOOTH_CUBIC_TEXT, WXYZ)
    assert centre_disjoint(h, 1).disjoint == "yes"
    assert centre_disjoint(h, 2).disjoint == "yes"


def test_centre_disjoint_symmetric_all_orders():
    for d, n in [(3, 3), (2, 4), (3, 4)]:
        h = elementary_symmetric(d, n)
        for k in range(1, d):
            assert centre_disjoint(h, k).disjoint == "yes", (d, n, k)


def test_certify_symmetric_cubic():
    cert = certify_smooth(elementary_symmetric(3, 4))
    assert cert.verdict == "smooth-toric"
    from itertools import permutations

    assert set(cert.polytope.vertices) == set(permutations((2, 1, 0, 0)))


def test_certify_smooth_cubic_polytope():
    h = parse_polynomial(SMOOTH_CUBIC_TEXT, WXYZ)
    cert = certify_smooth(h, text=SMOOTH_CUBIC_TEXT)
    assert cert.verdict == "smooth-toric"
    expected = {(0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1)}
    assert set(cert.polytope.vertices) == expected
    assert cert.lorentzian is not None and cert.lorentzian.is_lorentzian


def test_certify_singular_cubic_fails_criterion():
    h = parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ)
    cert = certify_smooth(h)
    assert cert.verdict == "criterion-fails"
    assert cert.polytope is None
    failing = [r for r in cert.k_reports if r.disjoint == "no"]
    assert [r.k for r in failing] == [1]
    assert set(failing[0].witness_face) == {(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)}


def test_certify_not_applicable_for_non_mconvex():
    h = parse_polynomial("x1^3 + x1*x2^2 + x3^3", X123)
    ok, _ = is_mconvex(h.support())
    assert not ok
    cert = certify_smooth(h)
    assert cert.verdict == "not-applicable"
    assert cert.k_reports == ()
    assert cert.mconvex_witness is not None


def test_certify_scaling_invariance():
    h = parse_polynomial(PLANE_CUBIC_TEXT, X123)
    base = certify_smooth(h)
    for c in (Fraction(3), Fraction(-2, 7)):
        scaled = certify_smooth(h.scale(c))
        assert scaled.verdict == base.verdict
        assert scaled.polytope.vertices == base.polytope.vertices


def test_certify_validates_input():
    with pytest.raises(ValueError):
        certify_smooth(Polynomial.zero(2))
    with pytest.raises(ValueError):
        certify_smooth(parse_polynomial("x1^2 + x1", ["x1"]))
    with pytest.raises(ValueError):
        certify_smooth(parse_polynomial("x1 + x2", ["x1", "x2"]))
    with pytest.raises(ValueError):
        certify_smooth(parse_polynomial("x1^2", ["x1", "x2"]))


def test_certificate_lattice_points_match_support_sums():
    # when smooth-toric, the polytope's lattice points equal the pointwise sum
    # of the per-order derivative supports
    for h in (
        elementary_symmetric(3, 3),
        elementary_symmetric(2, 4),
        parse_polynomial(SMOOTH_CUBIC_TEXT, WXYZ),
    ):
        cert = certify_smooth(h)
        assert cert.verdict == "smooth-toric"
        d = h.total_degree
        sums = {(0,) * h.nvars}
        for k in range(1, d):
            layer = derivative_space(h, k).columns
            sums = {tuple(a + b for a, b in zip(p, q)) for p in sums for q in layer}
        assert sums == set(lattice_points(cert.polytope))


def test_certify_degree_guard_fires_before_any_order():
    from omegalab.guards import MAX_CERTIFY_DEGREE

    h = parse_polynomial(f"x^{MAX_CERTIFY_DEGREE}*y", ["x", "y"])
    cert = certify_smooth(h)
    assert cert.verdict == "undecided"
    assert cert.k_reports == () and cert.polytope is None and cert.lorentzian is None
    assert cert.detail == (
        f"degree guard: total degree {MAX_CERTIFY_DEGREE + 1} exceeds the cap {MAX_CERTIFY_DEGREE}"
    )
    at_cap = certify_smooth(parse_polynomial(f"x^{MAX_CERTIFY_DEGREE - 1}*y", ["x", "y"]))
    assert at_cap.verdict == "smooth-toric" and at_cap.detail is None


def test_failed_self_check_is_undecided(monkeypatch):
    import omegalab.certify

    def not_smooth(body):
        return False, body.vertices[-1]

    monkeypatch.setattr(omegalab.certify, "is_simple", not_smooth)
    cert = certify_smooth(elementary_symmetric(2, 3))
    assert cert.verdict == "undecided"
    assert cert.polytope is None
    assert all(r.disjoint == "yes" for r in cert.k_reports)
    assert cert.detail == "summed-truncation self-check: the polytope is not smooth at vertex [1, 0, 0]"
    assert cert.to_json_dict()["detail"] == cert.detail


def test_certificate_json_shape():
    cert = certify_smooth(elementary_symmetric(2, 3))
    data = cert.to_json_dict()
    assert set(data) == {
        "polynomial",
        "n",
        "d",
        "mconvex",
        "lorentzian",
        "k_reports",
        "verdict",
        "polytope",
    }
    assert data["verdict"] == "smooth-toric"
    assert data["k_reports"][0]["disjoint"] == "yes"


def test_certificate_builds_each_intermediate_once(monkeypatch):
    import omegalab.certify as certify

    # Builds of a rank function, of an order's facets over its columns, of the summed
    # polytope (by the unchecked greedy builder, as rho and its truncation sum are
    # polymatroids) and M-convexity checks, in that order.  An order k < d - 1 reads its
    # facets off its columns' rank function, truncate(rho, k), and the summed polytope
    # builds rho: one each for e(3,5).  Order d - 1 is the simplex, built without a rank
    # function: a quadric builds none, and its summed polytope is that simplex.
    quadric = bench_fixtures().sweep_quadrics(1)[2]  # q5.0, a seeded random quadric
    names = ("rank_from_support", "_facets", "_polymatroid_polytope", "is_mconvex")
    counts = dict.fromkeys(names, 0)
    cases = [
        (elementary_symmetric(2, 4), "smooth-toric", (0, 0, 0, 1)),
        (elementary_symmetric(3, 5), "smooth-toric", (2, 1, 1, 1)),
        (parse_polynomial("x1^3 + x1*x2^2 + x3^3", X123), "not-applicable", (0, 0, 0, 1)),
        (parse_polynomial(quadric.text, list(quadric.names)), "smooth-toric", (0, 0, 0, 1)),
    ]
    for h, _, _ in cases:  # the per-n simplex, the one thing kept, is built before the count
        certify_smooth(h)
    for name in counts:

        def counted(*args, _name=name, _fn=getattr(certify, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(certify, name, counted)
    for h, verdict, builds in cases:
        for _ in range(2):  # the second call builds as much again: nothing is kept
            counts.update(dict.fromkeys(counts, 0))
            assert certify_smooth(h).verdict == verdict
            assert tuple(counts.values()) == builds, h


def test_certificate_finds_swaps_once_and_only_past_the_greedy_guard(monkeypatch):
    import omegalab.certify as certify

    calls = []

    def counted(h, _fn=certify._swap_generators):
        calls.append(h)
        return _fn(h)

    monkeypatch.setattr(certify, "_swap_generators", counted)
    cases = [
        (elementary_symmetric(2, 4), "smooth-toric", 1),
        (elementary_symmetric(3, 5), "smooth-toric", 1),  # two orders, one scan
        (parse_polynomial("x1^3 + x1*x2^2 + x3^3", X123), "not-applicable", 0),
        (elementary_symmetric(2, 9), "undecided", 0),  # every order stops at the greedy guard
    ]
    for h, verdict, scans in cases:
        calls.clear()
        assert certify_smooth(h).verdict == verdict
        assert len(calls) == scans, h


def test_certificate_runs_no_polymatroid_axiom_scan(monkeypatch):
    import omegalab.setfunc as setfunc

    calls = []

    def counted(f, _fn=setfunc.is_polymatroid):
        calls.append(f)
        return _fn(f)

    for module in list(sys.modules.values()):
        if module and module.__name__.startswith("omegalab") and hasattr(module, "is_polymatroid"):
            monkeypatch.setattr(module, "is_polymatroid", counted)
    assert certify_smooth(elementary_symmetric(3, 5)).verdict == "smooth-toric"
    assert calls == []


def test_ground_set_guard_is_undecided():
    names = [f"x{i}" for i in range(1, 22)]
    cert = certify_smooth(parse_polynomial(" + ".join(f"x1*{v}" for v in names), names))
    assert cert.verdict == "undecided"
    assert cert.k_reports == () and cert.polytope is None and cert.lorentzian is None
    assert cert.detail == "ground-set guard: ground set of size 21 exceeds the cap 20"


def _count_calls(monkeypatch, name):
    import omegalab.certify

    calls = []

    def counted(*args, _real=getattr(omegalab.certify, name)):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(omegalab.certify, name, counted)
    return calls


def test_guards_fire_before_the_mconvexity_scan(monkeypatch):
    calls = _count_calls(monkeypatch, "is_mconvex")
    names = [f"x{i}" for i in range(1, 13)]
    cases = [
        (
            elementary_symmetric(3, 21),
            "ground-set guard: ground set of size 21 exceeds the cap 20",
        ),
        (parse_polynomial("x1^12*x2", names[:2]), "degree guard: total degree 13 exceeds the cap 12"),
        (
            parse_polynomial("*".join(names), names),
            "partial-count guard: 705432 order-11 partials exceed the cap 10000",
        ),
    ]
    for h, detail in cases:
        cert = certify_smooth(h)
        assert (cert.verdict, cert.detail) == ("undecided", detail)
        assert cert.mconvex is None and cert.mconvex_witness is None
        assert cert.to_json_dict()["mconvex"] is None
    assert calls == []


def test_past_the_greedy_guard_rho_is_not_built(monkeypatch):
    calls = _count_calls(monkeypatch, "rank_from_support")
    cert = certify_smooth(elementary_symmetric(2, 9))
    (report,) = cert.k_reports
    assert cert.verdict == "undecided" and cert.mconvex is True
    assert (report.span_dim, report.num_monomials, report.centre_dim) == (9, 9, 0)
    assert report.detail == "order-1 truncation polytope: greedy enumeration capped at n <= 8"
    assert centre_disjoint(elementary_symmetric(2, 9), 1) == report
    assert calls == []


@pytest.fixture
def fresh_simplices():
    """The per-n simplex cache, emptied before and after the test.

    A test that spies on `_lattice` or `_polymatroid_polytope` empties it so that
    the spied function really runs.
    """
    from omegalab.certify import _simplex_lattice

    _simplex_lattice.cache_clear()
    yield _simplex_lattice
    _simplex_lattice.cache_clear()


def test_quadric_self_check_reuses_the_order_one_face_lattice(monkeypatch, fresh_simplices):
    import omegalab.certify
    import omegalab.polytope

    calls = []

    def counted(*args, _real=omegalab.polytope._lattice, **kwargs):
        calls.append(args)
        return _real(*args, **kwargs)

    for module in (omegalab.certify, omegalab.polytope):
        monkeypatch.setattr(module, "_lattice", counted)
    cert = certify_smooth(elementary_symmetric(2, 4))
    assert cert.verdict == "smooth-toric"
    assert len(calls) == 1 and cert.polytope is fresh_simplices(4)[0]


def test_self_check_builds_no_face_lattice_or_smith_form(monkeypatch, fresh_simplices):
    import omegalab.certify
    import omegalab.groebner
    import omegalab.linalg
    import omegalab.polytope

    counts = dict.fromkeys(("_lattice", "integer_kernel_basis"), 0)

    def counter(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return counted

    spy = counter("_lattice", omegalab.polytope._lattice)
    for module in (omegalab.certify, omegalab.polytope):
        monkeypatch.setattr(module, "_lattice", spy)
    counted = counter("integer_kernel_basis", omegalab.linalg.integer_kernel_basis)
    for module in (omegalab.linalg, omegalab.groebner):  # every module that binds the name
        monkeypatch.setattr(module, "integer_kernel_basis", counted)
    assert certify_smooth(elementary_symmetric(3, 5)).verdict == "smooth-toric"
    # order 1's column lattice and the simplex's; the library lists no faces
    assert counts == {"_lattice": 2, "integer_kernel_basis": 0}
    assert not hasattr(omegalab.polytope, "faces") and not hasattr(omegalab, "faces")
    assert not hasattr(omegalab.linalg, "smith_normal_form")  # the library holds no Smith form


def test_certificate_orders_match_centre_disjoint():
    rng = random.Random(4242)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        supp = random_mconvex_support(rng, n, d)
        if any(all(p[i] == 0 for p in supp) for i in range(n)):
            continue
        h = random_positive_polynomial(rng, supp, max_coeff=20)
        cert = certify_smooth(h)
        assert cert.k_reports == tuple(centre_disjoint(h, k) for k in range(1, d)), supp
        checked += 1


def test_closed_form_orders_match_the_rank_function_route(monkeypatch, fresh_simplices):
    import omegalab.certify as certify

    built = []  # (f, points) of every order whose facets are read off rho

    def spied(f, points, bases_only, _real=certify._facets):
        built.append((f, points))
        return _real(f, points, bases_only)

    monkeypatch.setattr(certify, "_facets", spied)
    pairs = 20  # keeps the quartics on 5 variables quick; both routes meet the same cap
    rng = random.Random(2602)
    absent = 0
    for n in range(2, 6):
        for d in range(2, 5):
            checked = 0
            while checked < 2:  # supports with an absent variable check centre_disjoint only
                h = random_positive_polynomial(rng, random_mconvex_support(rng, n, d), 20)
                everywhere = all(map(any, zip(*h.support())))
                orders = range(1, d) if everywhere else [d - 1]
                built.clear()
                fresh_simplices.cache_clear()  # the simplex lattice is walked, not read
                got = [centre_disjoint(h, k, pairs) for k in orders]
                rho = rank_from_support(h.support())
                assert built == [
                    (truncate(rho, k), sorted(derivative_space(h, k).columns))
                    for k in orders
                    if k < d - 1 or not everywhere
                ], h
                cert = certify_smooth(h, max_pairs=pairs) if everywhere else None
                with monkeypatch.context() as m:  # the rank function route at order d - 1
                    patched = []

                    @functools.cache
                    def reference(n):
                        patched.append(n)
                        body = reference_truncation_polytope(h, d - 1)
                        return body, tuple(certify._lattice(body.facet_masks, n))

                    m.setattr(certify, "_simplex_lattice", reference)
                    assert got == [centre_disjoint(h, k, pairs) for k in orders], h
                    assert cert is None or cert == certify_smooth(h, max_pairs=pairs), h
                    assert patched == [n] * everywhere  # once, then read from the cache
                checked += everywhere
                absent += not everywhere
    assert absent > 0

    # A variable absent from h is a loop of rho: not the simplex, so the fallback.
    h = parse_polynomial("x1^2 + x1*x2 + x2^2", X123)
    built.clear()
    with monkeypatch.context() as m:
        m.setattr(certify, "_simplex_lattice", None)  # calling it would raise
        report = centre_disjoint(h, 1)
    assert report.disjoint == "yes"
    assert built == [(truncate(rank_from_support(h.support()), 1), [(0, 1, 0), (1, 0, 0)])]
    assert reference_truncation_polytope(h, 1).vertices == ((0, 1, 0), (1, 0, 0))


def test_the_column_lattice_is_the_face_lattice_of_the_truncation_polytope(fresh_simplices):
    # Over the sorted columns, face for face as reference_faces lists the
    # truncation polytope: a face's mask is its set of columns, and its vertices
    # are its one-column faces.  The sort key reads vertex bits only: a later
    # column that is not a vertex would swap two faces of one dimension.
    from omegalab import base_polytope
    from omegalab.polytope import _facets, _lattice

    rng = random.Random(3636)
    grids = ((2, 3), (3, 2), (3, 3), (4, 2))
    supports = [sorted(s) for n, d in grids for s in all_mconvex_sets(n, d)]
    absent = 0
    while absent < 20:  # every order, the simplex's included, takes the general route
        n, d = rng.randint(3, 5), rng.randint(2, 4)
        supp = random_mconvex_support(rng, n, d)
        if not all(map(any, zip(*supp))):
            supports.append(supp)
            absent += 1
    interior = 0
    for supp in supports:
        n, d = len(supp[0]), sum(supp[0])
        h = Polynomial(n, dict.fromkeys(supp, 1))
        for k in range(1, d):
            points = sorted(derivative_space(h, k).columns)
            f = truncate(rank_from_support(supp), k)
            lattice = _lattice(list(_facets(f, points, True)), len(points))
            body = base_polytope(f)
            reference = reference_faces(body)
            assert [dim for dim, _ in lattice] == [dim for _, _, dim, _ in reference]
            for (_, mask), (_, vertices, _, facets) in zip(lattice, reference, strict=True):
                tight = [body.inequalities[j] for j in facets]
                on = [all(sum(map(mul, a, c)) == b for a, b in tight) for c in points]
                assert mask == sum(1 << t for t, x in enumerate(on) if x), (supp, k)
            assert [points[mask.bit_length() - 1] for dim, mask in lattice if dim == 0] == list(
                body.vertices
            )
            interior += len(points) > len(body.vertices)
            if k == d - 1 and all(map(any, zip(*supp))):  # the cached simplex agrees
                simplex = fresh_simplices(n)[1]
                assert lattice == list(simplex)
    assert interior >= 20, interior


def test_the_cached_simplex_lattice_is_a_fresh_one(fresh_simplices):
    for n in range(1, 9):
        entry = fresh_simplices(n)
        body, lattice = entry
        assert fresh_simplices(n) is entry and type(lattice) is tuple  # built once per n
        fresh = base_polytope(SetFunction.uniform_matroid(1, n))
        assert body == fresh and body.facet_masks == fresh.facet_masks
        # the same faces in the same order, with the same masks and facet masks
        listing = tuple(
            (dim, sum(1 << i for i in members), sum(1 << j for j in facets))
            for members, _, dim, facets in reference_faces(fresh)
        )
        faces = tuple(
            (dim, mask, sum(1 << j for j, fs in enumerate(body.facet_masks) if mask & fs == mask))
            for dim, mask in lattice
        )
        assert faces == listing and len(lattice) == 2**n - 1
    assert fresh_simplices.cache_info().currsize == 8


def test_quadrics_on_one_n_build_the_simplex_lattice_once(monkeypatch, fresh_simplices):
    lattice_calls = _count_calls(monkeypatch, "_lattice")
    body_calls = _count_calls(monkeypatch, "_polymatroid_polytope")
    facet_calls = _count_calls(monkeypatch, "_facets")
    texts = [
        "x1*x2 + x1*x3 + x2*x3",
        "x1^2 + x1*x2 + x2^2 + x1*x3 + x2*x3 + x3^2",
        "x1*x2 + 2*x1*x3 + 3*x2*x3",
    ]
    certs = [certify_smooth(parse_polynomial(text, X123)) for text in texts]
    assert [cert.verdict for cert in certs] == ["smooth-toric"] * 3
    assert len(lattice_calls) == 1 and facet_calls == []
    assert body_calls == [(SetFunction.uniform_matroid(1, 3), True)]  # the simplex, and no other
    assert all(cert.polytope is fresh_simplices(3)[0] for cert in certs)  # the shared simplex


def test_the_greedy_guard_fires_before_the_simplex_cache(fresh_simplices):
    assert certify_smooth(elementary_symmetric(2, 3)).verdict == "smooth-toric"
    size = fresh_simplices.cache_info().currsize
    cert = certify_smooth(elementary_symmetric(2, 9))
    assert cert.verdict == "undecided"
    detail = "order-1 truncation polytope: greedy enumeration capped at n <= 8"
    assert cert.k_reports[0].detail == detail
    assert fresh_simplices.cache_info().currsize == size == 1


def test_the_cached_simplex_column_masks_are_those_of_a_fresh_simplex(fresh_simplices):
    for n in range(1, 9):
        units = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        # the order-(d - 1) columns whenever every variable occurs
        h = Polynomial(n, {tuple(2 * x for x in u): 1 for u in units})
        assert derivative_space(h, 1).columns == units
        points = sorted(units)  # bit t of a column mask is points[t]
        fresh = base_polytope(SetFunction.uniform_matroid(1, n))
        every = (1 << n) - 1
        off = {
            1 << j: every ^ sum(1 << i for i, c in enumerate(points) if sum(map(mul, a, c)) == b)
            for j, (a, b) in enumerate(fresh.inequalities)
        }
        masks = [mask for _, mask in fresh_simplices(n)[1]]  # the masks the walk reads
        lattice = reference_faces(fresh)
        facet_masks = [sum(1 << j for j in facets) for _, _, _, facets in lattice]
        assert masks == [every ^ mask_image(facet_mask, off) for facet_mask in facet_masks]
        # a simplex face's columns are its vertices
        assert masks == [sum(1 << points.index(v) for v in face[1]) for face in lattice]
    assert fresh_simplices.cache_info().currsize == 8


def test_a_lattice_listing_is_fresh_and_the_cached_one_immutable(fresh_simplices):
    from omegalab.polytope import _lattice

    assert certify_smooth(elementary_symmetric(2, 4)).verdict == "smooth-toric"
    body, lattice = fresh_simplices(4)
    first, second = _lattice(body.facet_masks, 4), _lattice(body.facet_masks, 4)
    assert type(first) is list and first is not second and first == second == list(lattice)
    first.clear()
    assert fresh_simplices(4)[1] is lattice == tuple(second) and len(lattice) == 15


def test_oracle_agrees_on_small_instances():
    fixtures = [
        (parse_polynomial(PLANE_CUBIC_TEXT, X123), (1, 2)),
        (elementary_symmetric(2, 3), (1,)),
        (elementary_symmetric(3, 3), (1, 2)),
        (parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ), (1, 2)),
    ]
    for h, orders in fixtures:
        for k in orders:
            face_orbit = centre_disjoint(h, k).disjoint
            assert face_orbit in ("yes", "no")
            assert oracle_centre_disjoint(h, k) == face_orbit


def _oracle_corpus(seed, count, max_coeff, max_points):
    """(supp, h, k) over seeded random M-convex supports in which every variable
    occurs, for the orders k whose truncation polytope has at most max_points
    lattice points, until at least count pairs are drawn: the last support yields
    all its orders."""
    rng = random.Random(seed)
    drawn = 0
    while drawn < count:
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        supp = random_mconvex_support(rng, n, d)
        if any(all(p[i] == 0 for p in supp) for i in range(n)):
            continue
        h = random_positive_polynomial(rng, supp, max_coeff=max_coeff)
        for k in range(1, d):
            body = base_polytope(truncate(rank_from_support(supp), k))
            if len(lattice_points(body)) > max_points:
                continue
            yield supp, h, k
            drawn += 1


RANDOM_SUPPORTS = (5150, 20, 20, 12)  # _oracle_corpus's arguments
INTERSECTING_CENTRES = (3, 60, 3, 10)


def test_oracle_agrees_on_random_supports():
    for supp, h, k in _oracle_corpus(*RANDOM_SUPPORTS):
        face_orbit = centre_disjoint(h, k).disjoint
        assert face_orbit == oracle_centre_disjoint(h, k), (supp, k)


def test_oracle_decides_with_one_groebner_basis_after_the_toric_ideal(monkeypatch):
    import omegalab.certify
    import omegalab.groebner

    calls = []

    def counted(*args, _real=omegalab.groebner.buchberger_intdicts, **kwargs):
        calls.append((args, kwargs.get("known", 0)))
        return _real(*args, **kwargs)

    for module in (omegalab.certify, omegalab.groebner):
        monkeypatch.setattr(module, "buchberger_intdicts", counted)
    h = elementary_symmetric(3, 5)
    nz = len(derivative_space(h, 1).columns)
    assert nz == 10
    assert oracle_centre_disjoint(h, 1) == "yes"
    # toric_ideal: three saturation steps (the two-term rule frees the other
    # seven variables) and a final basis; then one basis that extends the
    # toric basis by the centre's forms
    assert len(calls) == 5
    toric = toric_ideal(derivative_space(h, 1).columns).generators
    assert [known for _, known in calls[:5]] == [0] * 4 + [len(toric)]
    assert calls[4][0][0][: len(toric)] == list(toric)


def test_oracle_agrees_on_a_corpus_with_intersecting_centres():
    answers = []
    for supp, h, k in _oracle_corpus(*INTERSECTING_CENTRES):
        oracle = oracle_centre_disjoint(h, k)
        assert oracle == centre_disjoint(h, k).disjoint, (supp, k)
        answers.append(oracle)
    assert answers.count("no") >= 5


def test_oracle_matches_the_route_with_no_empty_centre_exit():
    # The exit answers "yes" wherever the partials span every column; the
    # reference builds the toric ideal and the extension basis there too.
    fixtures = bench_fixtures()
    pairs = []
    for name, k, *_ in fixtures.ORACLE_PAIRS:
        f = fixtures.fixture(name)
        pairs.append((parse_polynomial(f.text, list(f.names)), k))
    for corpus in (RANDOM_SUPPORTS, INTERSECTING_CENTRES):
        pairs += [(h, k) for _, h, k in _oracle_corpus(*corpus)]
    empty = []
    for h, k in pairs:
        space = derivative_space(h, k)
        empty.append(space.span_dimension == len(space.columns))
        assert oracle_centre_disjoint(h, k) == reference_oracle_centre_disjoint(h, k), (h, k)
    # 20 of the 26 bench pairs and 78 of all 107 pairs have an empty centre
    assert len(pairs) == 107 and sum(empty[:26]) == 20 and sum(empty) == 78


def test_oracle_answers_an_empty_centre_with_no_groebner_work(monkeypatch):
    import omegalab.certify
    from omegalab.guards import ResourceLimit

    def refuse(*args, **kwargs):
        raise AssertionError("Groebner work on an empty centre")

    for name in ("toric_ideal", "buchberger_intdicts"):
        monkeypatch.setattr(omegalab.certify, name, refuse)
    for d, n, k in ((4, 5, 2), (5, 5, 3), (2, 9, 1)):
        h = elementary_symmetric(d, n)
        space = derivative_space(h, k)
        assert space.span_dimension == len(space.columns) <= 12  # the centre is {0}
        assert oracle_centre_disjoint(h, k) == "yes"
        # no pair is formed, so no pair cap fires
        assert oracle_centre_disjoint(h, k, max_pairs=0) == "yes"
    # the 12-point cap comes before the exit: e(2,13)'s centre is empty too
    h = elementary_symmetric(2, 13)
    space = derivative_space(h, 1)
    assert space.span_dimension == len(space.columns) == 13
    with pytest.raises(ResourceLimit, match="^toric ideal capped at 12 points$"):
        oracle_centre_disjoint(h, 1)


def test_oracle_refuses_a_derivative_support_that_does_not_fill():
    # the order-1 columns are x^2 and y^2; the truncation polytope also holds x*y
    h = parse_polynomial("x^3 + y^3", ["x", "y"])
    assert derivative_space(h, 1).columns == ((2, 0), (0, 2))
    with pytest.raises(ValueError, match="fill the truncation polytope"):
        oracle_centre_disjoint(h, 1)


def test_centre_disjoint_refuses_columns_that_do_not_fill():
    # Order 1 of y^3 + x*z^2 has columns y^2, x*z and z^2, but the truncation
    # polytope also holds x*y, a vertex: a walk over it once answered "no",
    # with witness x*y and an empty centre.
    h = parse_polynomial("y^3 + x*z^2", ["x", "y", "z"])
    assert derivative_space(h, 1).columns == ((0, 2, 0), (1, 0, 1), (0, 0, 2))
    assert (1, 1, 0) in reference_truncation_polytope(h, 1).vertices
    message = "the order-1 derivative columns do not fill the truncation polytope"
    for decide in (centre_disjoint, oracle_centre_disjoint):
        with pytest.raises(ValueError, match=f"^{message}$"):
            decide(h, 1)
    assert centre_disjoint(h, 2).disjoint == "yes"  # the order-2 columns fill the simplex


def test_oracle_builds_no_rank_function_and_no_polytope(monkeypatch):
    import omegalab.certify
    from omegalab.guards import ResourceLimit

    def refuse(*args):
        raise AssertionError("the oracle built rho or a polytope")

    for name in (
        "rank_from_support", "greedy_guard", "_facets", "_lattice", "_polymatroid_polytope"
    ):
        monkeypatch.setattr(omegalab.certify, name, refuse)
    assert not hasattr(omegalab.certify, "lattice_points")
    assert oracle_centre_disjoint(elementary_symmetric(3, 5), 1) == "yes"
    # past the greedy guard, within the 12-point cap: an answer, not a ResourceLimit
    assert oracle_centre_disjoint(elementary_symmetric(2, 9), 1) == "yes"
    with pytest.raises(ResourceLimit, match="toric ideal capped at 12 points"):
        oracle_centre_disjoint(elementary_symmetric(2, 13), 1)


def test_derivative_columns_are_mconvex_iff_they_fill_the_truncation_polytope():
    # The deciders' refusal test: the columns C_k have rank function
    # truncate(rho, k), and an M-convex set is the set of lattice points of
    # the base polytope of its rank function.  Both deciders refuse exactly
    # the (h, k) whose columns do not fill; one pair keeps their work small.
    from omegalab import base_polytope
    from omegalab.guards import ResourceLimit

    def refusal(decide, h, k):
        try:
            decide(h, k, 1)
        except ValueError as exc:
            return str(exc)
        except ResourceLimit:
            pass
        return None

    rng = random.Random(3535)
    seen = {"fills": 0, "does not fill": 0, "not a polymatroid": 0}
    for _ in range(500):
        n, d = rng.randint(2, 5), rng.randint(2, 4)
        monomials = _compositions(d, n)
        supp = rng.sample(monomials, rng.randint(1, min(8, len(monomials))))
        h = Polynomial(n, dict.fromkeys(supp, 1))
        rho = rank_from_support(supp)
        for k in range(1, d):
            columns = derivative_space(h, k).columns
            assert rank_from_support(columns) == truncate(rho, k), (supp, k)
            try:
                fills = set(columns) == set(lattice_points(base_polytope(truncate(rho, k))))
            except ValueError:  # truncate(rho, k) is not a polymatroid
                fills = False
                seen["not a polymatroid"] += 1
            assert is_mconvex(columns)[0] == fills, (supp, k)
            message = f"the order-{k} derivative columns do not fill the truncation polytope"
            deciders = (centre_disjoint, oracle_centre_disjoint)
            refusals = {refusal(decide, h, k) for decide in deciders}
            assert refusals == {None if fills else message}, (supp, k)
            seen["fills" if fills else "does not fill"] += 1
    assert min(seen.values()) >= 10, seen


def test_probe_symmetric_support_all_smooth():
    report = smoothable_probe(elementary_symmetric(3, 3).support(), trials=5, seed=7)
    assert report.counts == {"smooth-toric": 5}


def test_probe_shared_support_separates_coefficients():
    # the singular and smooth cubics share one support; specific coefficients
    # differ in outcome while the generic sample is expected to pass
    h = parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ)
    report = smoothable_probe(h.support(), trials=3, seed=11)
    assert report.trials == 3
    assert set(report.counts) <= {"smooth-toric", "criterion-fails"}
    assert report.counts.get("smooth-toric", 0) >= 1


def test_probe_empty():
    report = smoothable_probe(elementary_symmetric(2, 3).support(), trials=0)
    assert report.verdicts == () and report.counts == {}


def test_probe_rejects_negative_trials():
    support = elementary_symmetric(2, 3).support()
    for trials in (-1, -3):
        with pytest.raises(ValueError, match=f"^trials {trials} is negative$"):
            smoothable_probe(support, trials=trials)


def test_probe_rejects_a_variable_that_does_not_occur():
    with pytest.raises(ValueError, match="^variable index 2 does not occur in the support$"):
        smoothable_probe({(1, 1, 0)}, trials=0)


def test_probe_rejects_non_mconvex():
    with pytest.raises(ValueError):
        smoothable_probe({(1, 1, 0), (0, 0, 2)}, trials=1)


# -- one face per symmetry orbit ----------------------------------------------------


def _permuted(h, perm):
    """h with variable i renamed to variable perm[i]."""
    return Polynomial(h.nvars, {_move(e, perm): c for e, c in h.items()})


def _move(point, perm):
    out = [0] * len(point)
    for i, v in enumerate(point):
        out[perm[i]] = v
    return tuple(out)


def _rescaled(h, lam):
    """h(lam_1 x_1, ..., lam_n x_n)."""
    terms = {}
    for e, c in h.items():
        for lam_i, e_i in zip(lam, e):
            c *= lam_i**e_i
        terms[e] = c
    return Polynomial(h.nvars, terms)


def test_swap_generators_are_the_adjacent_swaps_of_each_block():
    from omegalab.certify import _swap_generators

    assert _swap_generators(elementary_symmetric(3, 5)) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    x4 = ["x1", "x2", "x3", "x4"]
    # distinct scales break every swap of e(2,4), but the swap inside a
    # monomial fixes it whatever its coefficient
    assert _swap_generators(_rescaled(elementary_symmetric(2, 4), (1, 2, 3, 5))) == []
    matching = _rescaled(parse_polynomial("x1*x2 + x3*x4", x4), (1, 2, 3, 5))
    assert matching.terms == {(1, 1, 0, 0): 2, (0, 0, 1, 1): 15}
    assert _swap_generators(matching) == [(0, 1), (2, 3)]
    two_blocks = parse_polynomial(
        "x1*x2 + 2*x3*x4 + x1*x3 + x1*x4 + x2*x3 + x2*x4", x4
    )
    assert _swap_generators(two_blocks) == [(0, 1), (2, 3)]
    # every swap fixes the support of e(2,3); with these coefficients none
    # fixes h, then only (x2 x3) does
    assert _swap_generators(parse_polynomial("x1*x2 + 2*x1*x3 + 3*x2*x3", X123)) == []
    assert _swap_generators(parse_polynomial("x1*x2 + x1*x3 + 2*x2*x3", X123)) == [(1, 2)]
    assert _swap_generators(parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ)) == [(1, 2)]


def test_swap_generators_match_a_brute_force_transposition_test():
    from omegalab.certify import _swap_generators

    def transposed(e, i, j):
        e = list(e)
        e[i], e[j] = e[j], e[i]
        return tuple(e)

    rng = random.Random(7)
    columns_only = 0  # pairs with equal column signatures that no swap fixes
    for _ in range(200):
        n = rng.randint(2, 6)
        planted = [rng.randrange(3) for _ in range(n)]  # block label of each variable
        terms = {}
        for _ in range(rng.randint(1, 4)):  # the orbit of a monomial under the planted blocks
            orbit = [tuple(rng.randint(0, 1) for _ in range(n))]
            for e in orbit:
                for i in range(n):
                    for j in range(i + 1, n):
                        if planted[i] == planted[j] and transposed(e, i, j) not in orbit:
                            orbit.append(transposed(e, i, j))
            c = Fraction(rng.randint(1, 2), rng.randint(1, 2))
            terms.update((e, c) for e in orbit if any(e))
        h = Polynomial(n, terms)
        column = [sorted((e[i], c) for e, c in h.items()) for i in range(n)]
        fixes = [
            [{transposed(e, i, j): c for e, c in h.items()} == h.terms for j in range(n)]
            for i in range(n)
        ]
        blocks = sorted({tuple(j for j in range(n) if fixes[i][j]) for i in range(n)})
        columns_only += sum(
            column[i] == column[j] and not fixes[i][j] for i, j in combinations(range(n), 2)
        )
        assert all(planted[i] != planted[j] or fixes[i][j] for i in range(n) for j in range(n))
        assert _swap_generators(h) == [pair for b in blocks for pair in zip(b, b[1:])], h.terms
    assert columns_only >= 5, columns_only


def test_one_torus_feasibility_call_per_face_orbit(monkeypatch):
    import omegalab.certify as certify

    calls = []

    def counted(*args, _real=certify.torus_feasible, **kwargs):
        calls.append(args)
        return _real(*args, **kwargs)

    monkeypatch.setattr(certify, "torus_feasible", counted)
    for (d, n), orbits in {(3, 6): 15, (4, 6): 25, (3, 7): 18}.items():
        calls.clear()
        assert certify_smooth(elementary_symmetric(d, n)).verdict == "smooth-toric"
        assert len(calls) == orbits, (d, n)
    calls.clear()
    cert = certify_smooth(parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ))
    assert len(calls) == 25
    assert cert.k_reports[0].witness_face == ((1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0))


def test_orbit_images_of_face_masks_match_the_index_tuple_images():
    # every swap fixing h, not only the generators, at every order of the ladder fixtures
    def swap(e, i, j):
        return tuple(e[j] if t == i else e[i] if t == j else x for t, x in enumerate(e))

    fixtures = bench_fixtures()
    images = 0
    for name, _ in fixtures.LADDER:
        if name in fixtures.GUARDED:
            continue
        f = fixtures.fixture(name)
        h = parse_polynomial(f.text, list(f.names))
        terms = h.integer_terms()[1]
        swaps = [
            (i, j)
            for i, j in combinations(range(h.nvars), 2)
            if all(terms.get(swap(e, i, j)) == c for e, c in terms.items())
        ]
        rho = rank_from_support(h.support())
        for k in range(1, h.total_degree):
            body = base_polytope(truncate(rho, k))
            listing = [
                (members, sum(1 << x for x in members)) for members, *_ in reference_faces(body)
            ]
            masks = {mask for _, mask in listing}
            index = {v: t for t, v in enumerate(body.vertices)}
            for i, j in swaps:
                perm = [index[swap(v, i, j)] for v in body.vertices]
                bits = {1 << t: 1 << x for t, x in enumerate(perm)}
                for members, face_mask in listing:
                    image = tuple(sorted(perm[x] for x in members))  # the old key
                    mask = sum(1 << x for x in image)
                    assert mask_image(face_mask, bits) == mask, (name, k, i, j)
                    assert mask in masks
                    images += 1
    assert images >= 40000, images


def _face_walk(h, k):
    """(points, lattice, swap generators) of the walk of order k, as `_decide` builds them."""
    from omegalab.certify import _simplex_lattice, _swap_generators
    from omegalab.polytope import _facets, _lattice

    points = sorted(derivative_space(h, k).columns)
    if k == h.total_degree - 1:  # every variable occurs in these inputs
        lattice = _simplex_lattice(h.nvars)[1]
    else:
        lattice = _lattice(list(_facets(rank_from_support(points), points, True)), len(points))
    return points, lattice, _swap_generators(h)


def test_a_face_is_decided_iff_no_swap_fires_iff_it_comes_first_in_its_orbit(monkeypatch):
    import omegalab.certify as certify

    fixtures = bench_fixtures()
    inputs = []
    for name, _ in fixtures.LADDER:
        if name not in fixtures.GUARDED:
            f = fixtures.fixture(name)
            inputs.append((name, parse_polynomial(f.text, list(f.names))))
    rng = random.Random(40)
    for t in range(150):
        h = random_block_symmetric_polynomial(rng, rng.randint(3, 5), rng.randint(2, 3))
        inputs.append((f"block-symmetric #{t}: {h.terms}", h))

    decided = []

    def traced(gens, **kwargs):
        decided.append(frozenset(c for g in gens for c in g))  # the face's columns
        return real(gens, **kwargs)

    real = certify.torus_feasible
    monkeypatch.setattr(certify, "torus_feasible", traced)
    faces = orbits = 0
    for name, h in inputs:
        for k in range(1, h.total_degree):
            points, lattice, swaps = _face_walk(h, k)
            first = reference_orbit_firsts(lattice, points, swaps)
            masks = [
                [sum(1 << t for t, c in enumerate(points) if op(c[i], c[j])) for op in (gt, lt)]
                for i, j in swaps
            ]

            def columns(on):
                return [c for t, c in enumerate(points) if on >> t & 1]

            for _, on in lattice:
                fires = any(on & above and not on & below for above, below in masks)
                assert fires == (first[on] != on), (name, k, columns(on))
            members = {}
            for _, on in lattice:
                members.setdefault(first[on], []).append(on)
            for orbit in members.values():
                sums = [[sum(col) for col in zip(*columns(on))] for on in orbit]
                ascending = [s for s in sums if all(s[i] <= s[j] for i, j in swaps)]
                assert len(ascending) == 1, (name, k, columns(orbit[0]), sums)
            # the walk decides the first faces in order, up to a witness
            decided.clear()
            report = certify.centre_disjoint(h, k)
            firsts = [frozenset(columns(on)) for _, on in lattice if first[on] == on]
            assert report.detail is None or report.disjoint == "no", (name, k, report)
            expected = firsts[: len(decided)] if report.disjoint == "no" else firsts
            pairs = zip_longest(decided, expected)
            wrong = next((sorted(a or b) for a, b in pairs if a != b), None)  # the first face apart
            assert wrong is None, (name, k, wrong)
            faces += len(lattice)
            orbits += len(members)
    assert faces >= 7000 and orbits >= 1800, (faces, orbits)


def test_the_pruned_closure_lists_the_unpruned_faces_on_which_no_swap_fires():
    # Every order takes the rank-function route here, the simplex's included.
    from omegalab.certify import _swap_generators
    from omegalab.polytope import _facets, _lattice, _vertex_mask

    fixtures = bench_fixtures()
    inputs = []
    for name, _ in fixtures.LADDER:
        if name not in fixtures.GUARDED:
            f = fixtures.fixture(name)
            inputs.append(parse_polynomial(f.text, list(f.names)))
    rng = random.Random(46)
    inputs += [
        random_block_symmetric_polynomial(rng, rng.randint(3, 6), rng.randint(2, 4))
        for _ in range(300)
    ]
    orders = listed = 0
    for h in inputs:
        swaps = _swap_generators(h)
        for k in range(1, h.total_degree):
            points = sorted(derivative_space(h, k).columns)
            facets = list(_facets(rank_from_support(points), points, True))
            moves = [  # per swap (i, j): the points with c_i > c_j and with c_i < c_j
                tuple(sum(1 << t for t, c in enumerate(points) if op(c[i], c[j])) for op in (gt, lt))
                for i, j in swaps
            ]
            every = _lattice(facets, len(points))
            unfired = [
                (dim, on)
                for dim, on in every
                if not any(on & above and not on & below for above, below in moves)
            ]
            pruned = _lattice(facets, len(points), moves)
            assert pruned == unfired, (h.terms, k)
            first = reference_orbit_firsts(every, points, swaps)
            assert pruned == [(dim, on) for dim, on in every if first[on] == on], (h.terms, k)
            assert _vertex_mask(facets, len(points)) == sum(on for dim, on in every if dim == 0)
            orders += 1
            listed += len(pruned)
    assert orders >= 600 and listed >= 8000, (orders, listed)


def test_the_walk_lists_only_the_faces_it_decides(monkeypatch):
    import omegalab.certify as certify

    listed, calls = [], []

    def spied_lattice(facet_masks, count, moves=(), _real=certify._lattice):
        faces = _real(facet_masks, count, moves)
        listed.append((len(faces), len(_real(facet_masks, count))))  # (pruned, every face)
        return faces

    def spied_feasible(*args, _real=certify.torus_feasible, **kwargs):
        calls.append(args)
        return _real(*args, **kwargs)

    monkeypatch.setattr(certify, "_lattice", spied_lattice)
    monkeypatch.setattr(certify, "torus_feasible", spied_feasible)
    expected = {(3, 7, 1): (11, 519), (5, 6, 1): (9, 213), (5, 6, 2): (10, 303), (5, 6, 3): (9, 213)}
    for (d, n, k), counts in expected.items():
        listed.clear()
        calls.clear()
        assert centre_disjoint(elementary_symmetric(d, n), k).disjoint == "yes"
        assert listed == [counts] and len(calls) == counts[0], (d, n, k, listed, len(calls))
    for d, n in [(3, 7), (5, 6)]:  # the cached simplex, filtered: one face per dimension
        calls.clear()
        assert centre_disjoint(elementary_symmetric(d, n), d - 1).disjoint == "yes"
        assert len(calls) == n, (d, n)


def _cap_on_calls(monkeypatch, capped_calls):
    """Make the given torus feasibility calls (counted from 1) hit the pair cap."""
    import omegalab.certify as certify

    system = [
        poly_to_intdict(parse_polynomial("x^3 - 2*x*y*z + y*z^2", ["x", "y", "z"])),
        poly_to_intdict(parse_polynomial("x^2*y - 2*y^2*z + x*z^2", ["x", "y", "z"])),
    ]
    capped = certify.torus_feasible(system, max_pairs=1)
    assert capped.status == "undecided"
    calls = []

    def stub(*args, _real=certify.torus_feasible, **kwargs):
        calls.append(args)
        return capped if len(calls) in capped_calls else _real(*args, **kwargs)

    monkeypatch.setattr(certify, "torus_feasible", stub)
    return capped


def test_capped_orbit_stays_undecided(monkeypatch):
    capped = _cap_on_calls(monkeypatch, {1, 2, 3})
    report = centre_disjoint(elementary_symmetric(2, 3), 1)
    assert report.disjoint == "undecided"
    assert report.detail == f"groebner undecided on a face orbit: {capped.certificate}"


# e(3,4) at order 1 is the octahedron on the columns 0011 ... 1100: the vertices,
# the edges and the whole are one orbit each, and the triangles two
VERTICES = ["0011", "0101", "0110", "1001", "1010", "1100"]
EDGE, WHOLE = "0011 0101", " ".join(VERTICES)
TRIANGLES = ["0011 0101 0110", "0011 0101 1001", "0011 0110 1010", "0011 1001 1010"]


def _trace_faces(monkeypatch):
    """The columns of each face the walk decides, appended to the returned list."""
    import omegalab.certify as certify

    decided = []

    def traced(gens, _inner=certify.torus_feasible, **kwargs):
        decided.append(frozenset(c for g in gens for c in g))  # the face's columns
        return _inner(gens, **kwargs)

    monkeypatch.setattr(certify, "torus_feasible", traced)
    return decided


def test_a_capped_orbit_is_decided_once_on_its_first_face(monkeypatch):
    # every call capped: no face of a capped orbit but its first is decided
    capped = _cap_on_calls(monkeypatch, range(1, 10**6))
    decided = _trace_faces(monkeypatch)
    walks = {}
    for d, n in [(2, 3), (3, 4), (5, 7)]:
        h = elementary_symmetric(d, n)
        for k in range(1, d):
            points, lattice, swaps = _face_walk(h, k)
            first = reference_orbit_firsts(lattice, points, swaps)
            decided.clear()
            report = centre_disjoint(h, k)
            walks[d, n, k] = list(decided)
            assert walks[d, n, k] == [
                frozenset(c for t, c in enumerate(points) if on >> t & 1)
                for _, on in lattice
                if first[on] == on
            ], (d, n, k)
            assert report.disjoint == "undecided"
            assert report.detail == f"groebner undecided on a face orbit: {capped.certificate}"
    faces = VERTICES[:1] + [EDGE] + TRIANGLES[:2] + [WHOLE]
    assert walks[3, 4, 1] == [frozenset(tuple(map(int, c)) for c in f.split()) for f in faces]


def test_the_pair_cap_bounds_the_walk_to_one_call_per_orbit(monkeypatch):
    decided = _trace_faces(monkeypatch)
    cert = certify_smooth(elementary_symmetric(5, 7), max_pairs=2)
    # 164 calls when a capped orbit's later faces were decided one by one
    assert len(decided) == 44
    detail = "groebner undecided on a face orbit: pair queue cap 2 exceeded"
    assert [(r.disjoint, r.detail) for r in cert.k_reports] == [
        ("undecided", detail),
        ("undecided", detail),
        ("yes", None),
        ("yes", None),
    ]


def test_a_feasible_face_after_capped_orbits_still_fails_the_criterion(monkeypatch):
    h = parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ)
    witness = [r.witness_face for r in certify_smooth(h).k_reports]
    _cap_on_calls(monkeypatch, {1, 2, 3})
    decided = _trace_faces(monkeypatch)
    cert = certify_smooth(h)
    assert cert.verdict == "criterion-fails" and len(decided) == 25
    assert [r.witness_face for r in cert.k_reports] == witness


def _metamorphic_inputs(rng, count):
    inputs = [parse_polynomial(t, WXYZ) for t in (SINGULAR_CUBIC_TEXT, SMOOTH_CUBIC_TEXT)]
    inputs.append(parse_polynomial(PLANE_CUBIC_TEXT, X123))
    while len(inputs) < count:
        n, d = rng.randint(2, 4), rng.randint(2, 3)
        supp = random_mconvex_support(rng, n, d)
        if all(any(p[i] for p in supp) for i in range(n)):
            # small coefficients, so that some inputs have swaps fixing them
            inputs.append(random_positive_polynomial(rng, supp, max_coeff=2))
    return inputs


def _restrict(p, allowed):
    """The terms of p whose exponents lie in `allowed`."""
    return Polynomial(p.nvars, {e: c for e, c in p.items() if e in allowed})


def test_certificate_is_invariant_under_variable_permutation():
    from omegalab.groebner import torus_feasible

    rng = random.Random(8080)
    witnesses = 0
    for h in _metamorphic_inputs(rng, 15):
        perm = rng.sample(range(h.nvars), h.nvars)
        base, moved = certify_smooth(h), certify_smooth(_permuted(h, perm))
        assert moved.verdict == base.verdict, h
        for r, s in zip(base.k_reports, moved.k_reports, strict=True):
            assert (r.disjoint, r.span_dim, r.num_monomials, r.centre_dim) == (
                s.disjoint, s.span_dim, s.num_monomials, s.centre_dim
            ), (h, r.k)
            if s.disjoint != "no":
                continue
            # the witness, moved back, is a face of h's order-s.k truncation
            # polytope whose restricted system has a torus point
            inverse = [perm.index(i) for i in range(h.nvars)]
            witness = {_move(v, inverse) for v in s.witness_face}
            body = base_polytope(truncate(rank_from_support(h.support()), s.k))
            on = next(f for _, v, _, f in reference_faces(body) if set(v) == witness)
            space = derivative_space(h, s.k)
            facets = [body.inequalities[j] for j in on]
            on_face = {
                c for c in space.columns
                if all(sum(x * y for x, y in zip(a, c)) == b for a, b in facets)
            }
            gens = [poly_to_intdict(_restrict(g, on_face)) for g in space.basis]
            assert torus_feasible(gens).is_feasible
            witnesses += 1
        if base.polytope is not None:
            assert moved.polytope.vertices == tuple(
                sorted(_move(v, perm) for v in base.polytope.vertices)
            )
    assert witnesses >= 3


def test_certificate_is_invariant_under_diagonal_rescaling():
    # rescaling keeps the support, the polytopes and the face order, but
    # shrinks the swap group: the orbit walk is checked against a fuller one
    rng = random.Random(9090)
    inputs = _metamorphic_inputs(rng, 10)
    inputs += [elementary_symmetric(3, 5), elementary_symmetric(4, 6)]
    for h in inputs:
        lam = [1] * h.nvars
        while not 1 < len(set(lam)) < max(h.nvars, 3):  # some equal, some distinct
            lam = [rng.randint(1, 3) for _ in range(h.nvars)]
        base, scaled = certify_smooth(h), certify_smooth(_rescaled(h, lam))
        assert scaled.k_reports == base.k_reports, (h, lam)
        assert scaled.polytope == base.polytope, (h, lam)


def test_partial_count_guard_is_undecided(monkeypatch):
    import omegalab.guards

    names = [f"x{i}" for i in range(1, 13)]
    cert = certify_smooth(parse_polynomial("*".join(names), names))
    assert cert.verdict == "undecided"
    assert cert.k_reports == () and cert.polytope is None and cert.lorentzian is None
    assert cert.detail == "partial-count guard: 705432 order-11 partials exceed the cap 10000"
    # the highest order built is d - 1: e(3,4) builds C(5,2) = 10 partials at k = 2
    monkeypatch.setattr(omegalab.guards, "MAX_PARTIALS", 10)
    assert certify_smooth(elementary_symmetric(3, 4)).verdict == "smooth-toric"
    monkeypatch.setattr(omegalab.guards, "MAX_PARTIALS", 9)
    cert = certify_smooth(elementary_symmetric(3, 4))
    assert cert.verdict == "undecided" and cert.k_reports == ()
    assert cert.detail == "partial-count guard: 10 order-2 partials exceed the cap 9"
