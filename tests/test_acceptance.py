"""Acceptance suite: one test per criterion, exact tolerances, pass lines.

Every expected value here is exact (integer or rational); random families are
seeded and validated by exhaustive checkers before use.  Each criterion
prints one PASS line on success (visible with pytest -s or in the captured
output).
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from omegalab import (
    Polynomial,
    SetFunction,
    base_polytope,
    centre_disjoint,
    certify_smooth,
    check_simplicity_conditions,
    derivative_space,
    is_lorentzian,
    is_mconvex,
    is_simple,
    is_smooth,
    lattice_points,
    minkowski_sum,
    oracle_centre_disjoint,
    parse_polynomial,
    polytope_from_points,
    rank_from_support,
    toric_ideal,
    truncate,
    truncation_sum,
)
from omegalab.derivatives import (
    binomial_identity_report,
    derivative_support,
    elementary_symmetric,
    projection_centre,
    span_contains,
)
from omegalab.groebner import normal_form

from helpers import (
    PLANE_CUBIC_TEXT,
    SINGULAR_CUBIC_TEXT,
    SMOOTH_CUBIC_TEXT,
    WXYZ,
    X123,
    random_mconvex_support,
    random_polymatroid,
    random_positive_polynomial,
    random_product_of_linear_forms,
)


def _report(number: int, message: str) -> None:
    print(f"[criterion {number:2d}] PASS: {message}")


def test_criterion_01_uniform_matroid_polytopes():
    u24 = SetFunction.uniform_matroid(2, 4)

    simplex = base_polytope(truncate(u24, 1))
    assert set(simplex.vertices) == set(permutations((1, 0, 0, 0)))
    assert len(simplex.vertices) == 4

    octahedron = base_polytope(u24)
    assert set(octahedron.vertices) == set(permutations((1, 1, 0, 0)))
    assert len(octahedron.vertices) == 6
    assert is_simple(octahedron)[0] is False

    summed = base_polytope(truncation_sum(u24))
    assert set(summed.vertices) == set(permutations((2, 1, 0, 0)))
    assert len(summed.vertices) == 12
    assert is_simple(summed) == (True, None)
    assert is_smooth(summed) == (True, None)
    _report(1, "uniform-matroid polytopes (simplex, octahedron, truncated tetrahedron)")


def test_criterion_02_plane_cubic_reproduction():
    h = parse_polynomial(PLANE_CUBIC_TEXT, X123)
    space = derivative_space(h, 1)

    displayed = [
        "2*x1*x2 + x2^2 + 2*x1*x3 + x2*x3",
        "x1^2 + 2*x1*x2 + x1*x3 + 2*x2*x3",
        "x1^2 + x1*x2 + x2^2",
    ]
    for text in displayed:
        assert span_contains(space, parse_polynomial(text, X123))

    assert len(space.columns) == 5
    assert set(space.columns) == {(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)}

    ideal = toric_ideal(space.columns)

    def z(*idx):
        e = [0] * 5
        for i in idx:
            e[i] += 1
        return tuple(e)

    # columns sort to (z20, z11, z02, z10, z01); the displayed binomials are
    # z10*z02 - z11*z01, z11*z10 - z20*z01, z11^2 - z20*z02
    binomials = [
        {z(3, 2): 1, z(1, 4): -1},
        {z(1, 3): 1, z(0, 4): -1},
        {z(1, 1): 1, z(0, 2): -1},
    ]
    for b in binomials:
        assert not normal_form(b, ideal.generators)

    centre = projection_centre(space)
    assert len(centre) == 2
    # displayed kernel vectors, remapped from (z20, z11, z10, z02, z01)
    for vec in ([0, -1, 1, 0, 1], [1, -1, 0, 1, 0]):
        for row in space.matrix:
            assert sum(Fraction(c) * v for c, v in zip(row, vec)) == 0

    assert centre_disjoint(h, 1).disjoint == "yes"
    _report(2, "plane-cubic span, toric binomials, centre, disjointness")


def test_criterion_03_singular_cubic_witness_face():
    # The witness face lives in the rank-2 truncation polytope, which pairs
    # with the first-order derivative stage under the truncation definition
    # r_k = min(d-k, r); the source's closing remark labels the same stage
    # pi_2/B(r_2), and the k=2 reading is impossible (its centre is empty, as
    # asserted below).  See the decisions ledger.
    started = time.time()
    h = parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ)
    ok, _ = is_mconvex(h.support())
    assert ok

    first = centre_disjoint(h, 1)
    assert first.disjoint == "no"
    assert set(first.witness_face) == {(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)}

    second = centre_disjoint(h, 2)
    assert second.disjoint == "yes" and second.centre_dim == 0

    cert = certify_smooth(h, text=SINGULAR_CUBIC_TEXT)
    assert cert.verdict == "criterion-fails"
    elapsed = time.time() - started
    assert elapsed < 30.0
    _report(3, f"singular cubic witness face and verdict in {elapsed:.2f}s")


def test_criterion_04_smooth_cubic_frustum():
    h = parse_polynomial(SMOOTH_CUBIC_TEXT, WXYZ)
    cert = certify_smooth(h, text=SMOOTH_CUBIC_TEXT)
    assert cert.verdict == "smooth-toric"
    expected = {(0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1)}
    assert set(cert.polytope.vertices) == expected
    _report(4, "companion cubic certifies smooth-toric with the frustum polytope")


def test_criterion_05_elementary_symmetric_family():
    started = time.time()
    for n in range(2, 6):
        for d in range(2, n + 1):
            cert = certify_smooth(elementary_symmetric(d, n))
            assert cert.verdict == "smooth-toric", (d, n)
            staircase = tuple(range(d - 1, 0, -1)) + (0,) * (n - d + 1)
            assert set(cert.polytope.vertices) == set(permutations(staircase)), (d, n)
            for k in range(1, d):
                report = binomial_identity_report(n, d, k)
                assert report.holds and report.coefficient >= 1, (n, d, k)
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(5, f"elementary symmetric family certified in {elapsed:.2f}s")


def test_criterion_06_random_polymatroid_suite():
    rng = random.Random(20260808)
    for trial in range(200):
        n = rng.randint(2, 5)
        f = random_polymatroid(rng, n, 4)
        summed = truncation_sum(f)
        body = base_polytope(summed)
        assert is_simple(body)[0], (trial, f.values)
        assert is_smooth(body)[0], (trial, f.values)
        assert check_simplicity_conditions(summed).holds, (trial, f.values)
    for trial in range(50):
        n = rng.randint(2, 5)
        f = random_polymatroid(rng, n, 4)
        g = random_polymatroid(rng, n, 4)
        summed = minkowski_sum(base_polytope(f), base_polytope(g))
        assert set(summed.vertices) == set(base_polytope(f + g).vertices), (
            trial,
            f.values,
            g.values,
        )
    _report(6, "200 summed-truncation polytopes and 50 Minkowski pairs, zero failures")


def test_criterion_07_derivative_support_suite():
    rng = random.Random(31415)
    for trial in range(100):
        n = rng.randint(2, 4)
        d = rng.randint(1, 4)
        supp = random_mconvex_support(rng, n, d)
        h = random_positive_polynomial(rng, supp)
        rho = rank_from_support(supp)
        for k in range(d + 1):
            expected = set(lattice_points(base_polytope(truncate(rho, k))))
            assert set(derivative_support(h, k)) == expected, (trial, supp, k)
    _report(7, "100 random M-convex supports: derivative supports fill truncations")


def test_criterion_08_negative_control_simple_not_smooth():
    h = parse_polynomial("x1*x2^2 + x3^3", X123)
    b1 = derivative_support(h, 1)
    b2 = derivative_support(h, 2)
    sums = {tuple(a + b for a, b in zip(p, q)) for p in b1 for q in b2}
    body = polytope_from_points(sums)
    assert is_simple(body)[0] is True
    assert is_smooth(body)[0] is False
    _report(8, "non-M-convex control: summed supports hull is simple, not smooth")


def test_criterion_09_lorentzian_suite():
    assert is_lorentzian(elementary_symmetric(2, 3)).is_lorentzian
    assert not is_lorentzian(parse_polynomial("x1*x2 + x3^2", X123)).is_lorentzian

    rng = random.Random(2718)
    checked = 0
    while checked < 50:
        n = rng.randint(2, 4)
        d = rng.randint(3, 4)
        h = random_product_of_linear_forms(rng, n, d)
        if h.total_degree != d:
            continue
        assert is_lorentzian(h).is_lorentzian, h
        e = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
        dh = Polynomial.zero(n)
        for i in range(n):
            dh = dh + h.partial_derivative(i).scale(e[i])
        if dh.total_degree < 2:
            continue
        assert is_lorentzian(dh).is_lorentzian, (h, e)
        checked += 1
    _report(9, f"Lorentzian fixtures plus {checked} derivative-closure instances")


def test_criterion_10_cross_method_agreement():
    fixtures = [elementary_symmetric(d, n) for n in range(2, 6) for d in range(2, n + 1)]
    fixtures.append(parse_polynomial(PLANE_CUBIC_TEXT, X123))
    fixtures.append(parse_polynomial(SINGULAR_CUBIC_TEXT, WXYZ))
    fixtures.append(parse_polynomial(SMOOTH_CUBIC_TEXT, WXYZ))
    compared = 0
    for h in fixtures:
        rho = rank_from_support(h.support())
        for k in range(1, h.total_degree):
            body = base_polytope(truncate(rho, k))
            if len(lattice_points(body)) > 12:
                continue
            face_orbit = centre_disjoint(h, k)
            assert face_orbit.disjoint in ("yes", "no"), (h, k)  # undecided is failure
            oracle = oracle_centre_disjoint(h, k)
            assert face_orbit.disjoint == oracle, (h, k, face_orbit.disjoint, oracle)
            compared += 1
    assert compared >= 25
    _report(10, f"face-orbit and toric-ideal oracle agree on {compared} instances")
