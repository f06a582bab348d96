"""Lattice polytopes: construction, faces, simplicity, smoothness, sums."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm, prod
from operator import mul

import pytest

import omegalab.polytope
from omegalab import (
    SetFunction,
    base_polytope,
    enumerate_basic_vertices,
    faces,
    independence_polytope,
    is_polymatroid,
    is_simple,
    is_smooth,
    lattice_points,
    linalg,
    matroid_staircase_vertices,
    minkowski_sum,
    polytope_from_points,
    rank_from_support,
    truncate,
    truncation_sum,
)
from omegalab.derivatives import derivative_support, elementary_symmetric
from omegalab.guards import ResourceLimit
from omegalab.poly import parse_polynomial

from helpers import (
    PLANE_CUBIC_TEXT,
    X123,
    random_matroid,
    random_mconvex_support,
    random_polymatroid,
    reference_affine_rank,
    reference_greedy_points,
    reference_hull,
    reference_is_simple,
    reference_is_smooth,
    reference_kernel,
    reference_rref,
)

U24 = SetFunction.uniform_matroid(2, 4)


def perms_of(point) -> set:
    return set(permutations(point))


def test_independence_polytope_triangle():
    body = independence_polytope(SetFunction.uniform_matroid(1, 2))
    assert set(body.vertices) == {(0, 0), (1, 0), (0, 1)}
    assert body.dim == 2


def test_independence_polytope_contains_prefix_points():
    rbar = truncation_sum(U24)
    body = independence_polytope(rbar)
    assert perms_of((2, 1, 0, 0)) <= set(body.vertices)
    assert (0, 0, 0, 0) in body.vertices
    assert (2, 0, 0, 0) in body.vertices


def test_zero_polymatroid_polytopes():
    z = SetFunction(3, [0] * 8)
    assert independence_polytope(z).vertices == ((0, 0, 0),)
    assert base_polytope(z).vertices == ((0, 0, 0),)


def test_base_polytope_rejects_non_polymatroid():
    with pytest.raises(ValueError):
        base_polytope(SetFunction(2, [0, 1, 1, 4]))


def test_base_polytope_simplex_octahedron_truncated_tetrahedron():
    simplex = base_polytope(truncate(U24, 1))
    assert set(simplex.vertices) == perms_of((1, 0, 0, 0))

    octahedron = base_polytope(U24)
    assert set(octahedron.vertices) == perms_of((1, 1, 0, 0))
    simple, witness = is_simple(octahedron)
    assert not simple and witness is not None

    summed = base_polytope(truncation_sum(U24))
    assert set(summed.vertices) == perms_of((2, 1, 0, 0))
    assert len(summed.vertices) == 12
    assert is_simple(summed) == (True, None)
    assert is_smooth(summed) == (True, None)


def test_matroid_staircase_vertices_examples():
    assert matroid_staircase_vertices(U24) == perms_of((2, 1, 0, 0))
    free2 = SetFunction.uniform_matroid(2, 2)
    assert matroid_staircase_vertices(free2) == {(2, 1), (1, 2)}
    with_loop = SetFunction(2, [0, 1, 0, 1])  # element 2 is a loop, rank 1
    assert matroid_staircase_vertices(with_loop) == {(1, 0)}


def test_matroid_staircase_matches_base_polytope_random():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 6)
        f = random_matroid(rng, n, 4)
        assert matroid_staircase_vertices(f) == set(
            base_polytope(truncation_sum(f)).vertices
        )


def test_staircase_rejects_polymatroid_input():
    with pytest.raises(ValueError):
        matroid_staircase_vertices(SetFunction(2, [0, 2, 2, 4]))


def test_minkowski_octahedron_plus_simplex():
    summed = minkowski_sum(base_polytope(U24), base_polytope(truncate(U24, 1)))
    direct = base_polytope(truncation_sum(U24))
    assert summed.vertices == direct.vertices
    assert set(summed.inequalities) == set(direct.inequalities)
    assert summed.equations == direct.equations


def test_minkowski_with_point_translates():
    body = base_polytope(U24)
    origin = polytope_from_points([(0, 0, 0, 0)])
    assert minkowski_sum(body, origin).vertices == body.vertices
    shift = polytope_from_points([(1, 2, 3, 4)])
    moved = minkowski_sum(body, shift)
    assert set(moved.vertices) == {
        tuple(a + b for a, b in zip(v, (1, 2, 3, 4))) for v in body.vertices
    }


def test_minkowski_self_sum_dilates():
    simplex = base_polytope(truncate(U24, 1))
    doubled = minkowski_sum(simplex, simplex)
    assert set(doubled.vertices) == {tuple(2 * x for x in v) for v in simplex.vertices}


def test_minkowski_generic_fallback_path():
    # quadrilateral hulls that are not indicator-structured
    p = polytope_from_points([(0, 0), (2, 1), (1, 3)])
    q = polytope_from_points([(0, 0), (1, 0), (0, 1)])
    summed = minkowski_sum(p, q)
    expected = polytope_from_points(
        [tuple(a + b for a, b in zip(u, w)) for u in p.vertices for w in q.vertices]
    )
    assert summed.vertices == expected.vertices


def test_minkowski_guard(monkeypatch):
    monkeypatch.setattr(omegalab.polytope, "MAX_VERTEX_PRODUCT", 10)
    body = base_polytope(truncation_sum(U24))
    with pytest.raises(ResourceLimit):
        minkowski_sum(body, body)


def test_minkowski_fast_path_matches_brute_force_hull():
    from math import comb

    from omegalab.linalg import rank

    rng = random.Random(31337)
    count = 0
    while count < 15:
        n = rng.randint(2, 4)
        f = random_polymatroid(rng, n, 3)
        g = random_polymatroid(rng, n, 3)
        p = base_polytope(f) if rng.random() < 0.5 else independence_polytope(f)
        q = base_polytope(g) if rng.random() < 0.5 else independence_polytope(g)
        sums = sorted(
            {tuple(a + b for a, b in zip(u, w)) for u in p.vertices for w in q.vertices}
        )
        dim = rank([[a - b for a, b in zip(s, sums[0])] for s in sums[1:]])
        if comb(len(sums), dim) > 60000:
            continue
        fast = minkowski_sum(p, q)
        slow = polytope_from_points(sums)
        assert fast.vertices == slow.vertices
        assert set(fast.inequalities) == set(slow.inequalities)
        assert fast.equations == slow.equations
        count += 1


def test_minkowski_sum_equals_hull_of_sums_off_the_arrangement():
    # Facet normals that are (negated) indicator vectors do not make a normal
    # fan coarsen the coordinate/braid arrangement: the corner (1, 1, 1) is on
    # no edge parallel to e_i or e_i - e_j, and the segment's and triangle's
    # affine hulls have equations that are not indicator vectors.
    corner = polytope_from_points([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])
    segment = polytope_from_points([(1, 1, 2, 2), (2, 0, 1, 3)])
    triangle = polytope_from_points([(0, 0, 2, 2), (1, 2, 0, 2), (2, 1, 2, 0)])
    pairs = [(corner, polytope_from_points([(0, 0, 0)])), (segment, triangle)]
    rng = random.Random(515)
    for _ in range(20):
        n = rng.randint(1, 4)
        pairs.append(
            (
                polytope_from_points([tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(5)]),
                polytope_from_points([tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(3)]),
            )
        )
    for p, q in pairs:
        sums = [tuple(a + b for a, b in zip(u, w)) for u in p.vertices for w in q.vertices]
        assert minkowski_sum(p, q) == polytope_from_points(sums)


def test_minkowski_matches_sum_function_random():
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randint(2, 5)
        f = random_polymatroid(rng, n, 4)
        g = random_polymatroid(rng, n, 4)
        summed = minkowski_sum(base_polytope(f), base_polytope(g))
        assert set(summed.vertices) == set(base_polytope(f + g).vertices)


def test_lattice_points_simplex():
    simplex = base_polytope(truncate(U24, 1))
    assert set(lattice_points(simplex)) == perms_of((1, 0, 0, 0))


def test_lattice_points_hypersimplex():
    octahedron = base_polytope(U24)
    assert set(lattice_points(octahedron)) == perms_of((1, 1, 0, 0))


def test_lattice_points_equal_support_for_plane_cubic():
    h = parse_polynomial(PLANE_CUBIC_TEXT, X123)
    rho = rank_from_support(h.support())
    assert set(lattice_points(base_polytope(rho))) == set(h.support())


def test_lattice_points_guard(monkeypatch):
    monkeypatch.setattr(omegalab.polytope, "MAX_SCAN_CELLS", 3)
    body = base_polytope(truncation_sum(U24))
    with pytest.raises(ResourceLimit):
        lattice_points(body)


def test_faces_triangle():
    tri = independence_polytope(SetFunction.uniform_matroid(1, 2))
    fl = faces(tri)
    assert len(fl) == 7
    assert sorted(f.dim for f in fl) == [0, 0, 0, 1, 1, 1, 2]


def test_faces_octahedron_count():
    fl = faces(base_polytope(U24))
    by_dim = {}
    for f in fl:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 6, 1: 12, 2: 8, 3: 1}
    assert len(fl) == 27


def test_faces_segment_lattice_points():
    seg = polytope_from_points([(0,), (2,)])
    assert seg.inequalities == (((-1,), 0), ((1,), 2))
    fl = faces(seg)
    assert [(f.vertices, f.facets) for f in fl] == [
        (((0,),), frozenset({0})),
        (((2,),), frozenset({1})),
        (((0,), (2,)), frozenset()),
    ]
    assert lattice_points(seg) == [(0,), (1,), (2,)]


def test_face_facets_are_the_inequalities_tight_at_its_vertices():
    rng = random.Random(4242)
    for _ in range(25):
        n = rng.randint(2, 4)
        body = base_polytope(random_polymatroid(rng, n, 4))
        for face in faces(body):
            tight = {
                j
                for j, (a, b) in enumerate(body.inequalities)
                if all(sum(x * y for x, y in zip(a, v)) == b for v in face.vertices)
            }
            assert face.facets == tight


def test_face_dims_pinned_on_hypersimplices_and_summed_truncations():
    # f-vectors and SHA-256 of [(vertex_indices, dim), ...] in faces() order
    pins = {
        (3, 5, "base"): ([10, 30, 30, 10, 1], "52396cdfea0177b3426cf6f673fd50267aedb0efe7da2faa2ca5e8d0cd96f604"),
        (3, 5, "summed"): ([20, 40, 30, 10, 1], "325ff90de769f77d77281749b5fc5ee22a62da084fb655599e8518ef22c8e3a0"),
        (4, 6, "base"): ([15, 60, 80, 45, 12, 1], "89165011645956d105989aef3619f9bdd2103b499da8a7ff55b1c28f199615ca"),
        (4, 6, "summed"): (
            [120, 300, 290, 135, 27, 1],
            "d33ffaac6aab23c7fa1f669f87741e98958bc458752839e5a8a09a66921d4484",
        ),
    }
    for (d, n, which), (fvector, digest) in pins.items():
        rho = rank_from_support(elementary_symmetric(d, n).support())
        body = base_polytope(truncation_sum(rho, 1) if which == "summed" else rho)
        fl = faces(body)
        assert [sum(1 for f in fl if f.dim == k) for k in range(body.dim + 1)] == fvector
        listing = repr([(f.vertex_indices, f.dim) for f in fl]).encode()
        assert hashlib.sha256(listing).hexdigest() == digest
        for f in fl:
            v0 = f.vertices[0]
            diffs = [[a - b for a, b in zip(v, v0)] for v in f.vertices[1:]]
            assert f.dim == len(reference_rref(diffs, n)[1])


def test_hull_incidences_match_rank_reference():
    # clouds in 1-4 ambient dimensions, of every dimension up to the ambient
    # one, with centroids of 2-4 points added (chart coordinates are multiples
    # of 12): edge-interior, facet-interior and interior points, and repeats
    rng = random.Random(6061)
    dims_seen = set()
    non_vertices = 0
    for _ in range(220):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        chart = [tuple(12 * rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 3)):
            group = [rng.choice(chart) for _ in range(rng.randint(2, 4))]
            chart.append(tuple(sum(c) // len(group) for c in zip(*group)))
        embed = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        shift = [rng.randint(-3, 3) for _ in range(n)]
        pts = {
            tuple(s + sum(e * x for e, x in zip(row, c)) for row, s in zip(embed, shift))
            for c in chart
        }
        dim, _, vertices = _assert_matches_reference_hull(polytope_from_points(pts), pts)
        dims_seen.add(dim)
        non_vertices += len(pts) - len(vertices)
    assert dims_seen == {0, 1, 2, 3, 4} and non_vertices > 50


def test_polymatroid_and_sum_incidences_match_rank_reference():
    # greedy points and indicator candidates, of which many are not facets
    rng = random.Random(6062)
    for _ in range(60):
        n = rng.randint(1, 4)
        f, g = random_polymatroid(rng, n, 3), random_polymatroid(rng, n, 2)
        for body in (base_polytope(f), independence_polytope(f)):
            _assert_matches_reference_hull(body, body.vertices)
        if n == 4:
            continue  # the reference hull of a sum in dimension 4 is slow
        p, q = base_polytope(f), independence_polytope(g)
        sums = {tuple(a + b for a, b in zip(u, w)) for u in p.vertices for w in q.vertices}
        _assert_matches_reference_hull(minkowski_sum(p, q), sums)


def _assert_matches_reference_hull(body, pts):
    reference = dim, facet_sets, vertices = reference_hull(pts)
    assert body.dim == dim
    assert list(body.vertices) == vertices
    tight_sets = {
        frozenset(p for p in set(pts) if sum(x * y for x, y in zip(a, p)) == b)
        for a, b in body.inequalities
    }
    assert tight_sets == facet_sets and len(body.inequalities) == len(facet_sets)
    for face in faces(body):
        assert face.dim == reference_affine_rank(face.vertices)
    return reference


def test_cube_is_simple_and_smooth():
    cube = polytope_from_points([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert is_simple(cube) == (True, None)
    assert is_smooth(cube) == (True, None)


def test_skew_simplex_simple_but_not_smooth():
    body = polytope_from_points([(0, 0), (1, 0), (1, 2)])
    assert is_simple(body)[0]
    smooth, witness = is_smooth(body)
    assert not smooth and witness == (0, 0)


def test_derivative_support_sum_simple_not_smooth():
    h = parse_polynomial("x1*x2^2 + x3^3", X123)
    b1 = derivative_support(h, 1)
    b2 = derivative_support(h, 2)
    sums = {tuple(a + b for a, b in zip(p, q)) for p in b1 for q in b2}
    body = polytope_from_points(sums)
    assert is_simple(body)[0]
    assert not is_smooth(body)[0]


def test_summed_truncation_polytopes_smooth_random():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 5)
        f = random_polymatroid(rng, n, 4)
        body = base_polytope(truncation_sum(f))
        simple, _ = is_simple(body)
        smooth, _ = is_smooth(body)
        assert simple and smooth


def test_smooth_implies_simple_on_mixed_examples():
    examples = [
        base_polytope(U24),
        base_polytope(truncation_sum(U24)),
        polytope_from_points([(0, 0), (1, 0), (1, 2)]),
        polytope_from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ]
    for body in examples:
        if is_smooth(body)[0]:
            assert is_simple(body)[0]


def _smoothness_corpus(rng: random.Random, count: int) -> list:
    """Polymatroid base, independence and summed polytopes, full-dimensional
    hulls, and hulls of lattice points spanned by random integer generators,
    whose direction lattice often projects with index above 1."""
    out = []
    while len(out) < count:
        kind = len(out) % 4
        if kind == 0:
            f = random_polymatroid(rng, rng.randint(1, 4), 4)
            out += [base_polytope(f), independence_polytope(f), base_polytope(truncation_sum(f))]
        elif kind == 1:
            ambient = rng.randint(2, 3)
            size = rng.randint(1, 7)
            points = [tuple(rng.randint(0, 3) for _ in range(ambient)) for _ in range(size)]
            out.append(polytope_from_points(points))
        else:
            ambient = rng.randint(3, 4)
            rank = rng.randint(1, ambient - 1)
            gens = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(rank)]
            points = []
            for _ in range(rng.randint(2, 7)):
                c = [rng.randint(0, 2) for _ in gens]
                points.append(tuple(sum(x * g[j] for x, g in zip(c, gens)) for j in range(ambient)))
            out.append(polytope_from_points(points))
    return out


def _projection_index(body) -> int:
    """Index of the direction lattice's projection onto its pivot coordinates."""
    basis = linalg.integer_kernel_basis([a for a, _ in body.equations], body.ambient_dim)
    if not basis:
        return 1
    _, cols = reference_rref(basis)
    divisors = linalg.snf_divisors([[b[c] for c in cols] for b in basis])
    return prod(divisors)


def test_simplicity_and_smoothness_match_the_face_lattice_reference():
    rng = random.Random(2024)
    counts = Counter()
    for body in _smoothness_corpus(rng, 1200):
        simple, smooth = is_simple(body), is_smooth(body)
        assert simple == reference_is_simple(body), body
        assert smooth == reference_is_smooth(body), body
        counts["smooth" if smooth[0] else "simple" if simple[0] else "not simple"] += 1
        if smooth[0]:
            counts["smooth, index > 1"] += _projection_index(body) > 1
            counts["smooth, long edge"] += any(
                f.dim == 1 and gcd(*(a - b for a, b in zip(*f.vertices))) > 1
                for f in faces(body)
            )
    assert sum(counts[k] for k in ("smooth", "simple", "not simple")) >= 1200
    assert min(counts.values()) >= 40, counts


def _direct_sum(f: SetFunction, g: SetFunction) -> SetFunction:
    """f on the first f.n elements and g on the rest."""
    low = (1 << f.n) - 1
    return SetFunction(
        f.n + g.n, [f.values[m & low] + g.values[m >> f.n] for m in range(1 << f.n + g.n)]
    )


def _polymatroid_draw(rng: random.Random, kind: int) -> SetFunction:
    """Kind 0 a polymatroid, 1 a matroid, 2 a direct sum of two of either,
    3 the summed truncation of either."""
    def piece(n):
        return random_polymatroid(rng, n, 3) if rng.random() < 0.5 else random_matroid(rng, n, 3)

    if kind == 0:
        return random_polymatroid(rng, rng.randint(1, 5), 4)
    if kind == 1:
        return random_matroid(rng, rng.randint(1, 5), 3)
    if kind == 2:
        split = rng.randint(1, 4)
        return _direct_sum(piece(split), piece(rng.randint(1, 5 - split)))
    return truncation_sum(piece(rng.randint(1, 4)))


def test_simple_is_smooth_on_polymatroid_polytopes():
    # Every edge of a polymatroid polytope is parallel to some e_i or
    # e_i - e_j (Topkis 1984), so the certificate reads smoothness as simplicity.
    rng = random.Random(1984)
    counts = Counter()
    for draw in range(400):
        f = _polymatroid_draw(rng, draw % 4)
        base = base_polytope(f)
        counts["disconnected"] += f.n - base.dim >= 2  # n - dim is the component count
        counts["looped"] += any(f.values[1 << i] == 0 for i in range(f.n))
        for body in (base, independence_polytope(f)):
            simple = is_simple(body)
            assert is_smooth(body) == simple, f.values
            assert reference_is_smooth(body)[0] == simple[0], f.values
            counts["not simple"] += not simple[0]
    assert min(counts[k] for k in ("disconnected", "looped", "not simple")) >= 40, counts


def test_greedy_vertices_match_basic_feasible_points():
    from fractions import Fraction

    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(1, 4)
        f = random_polymatroid(rng, n, 3)
        for body in (independence_polytope(f), base_polytope(f)):
            basic = enumerate_basic_vertices(body)
            greedy = {tuple(Fraction(x) for x in v) for v in body.vertices}
            assert basic == greedy


def test_base_polytope_lattice_points_recover_mconvex_support():
    rng = random.Random(40)
    for _ in range(30):
        n = rng.randint(2, 5)
        d = rng.randint(1, 4)
        supp = random_mconvex_support(rng, n, d)
        rho = rank_from_support(supp)
        assert set(lattice_points(base_polytope(rho))) == set(supp)


def test_polytope_json_shape():
    body = base_polytope(U24)
    data = body.to_json_dict()
    assert set(data) == {"dim", "vertices", "inequalities", "equations"}
    assert data["vertices"] == sorted(data["vertices"])


def test_hull_ambient_guard():
    with pytest.raises(ResourceLimit):
        polytope_from_points([tuple([0] * 7), tuple([1] * 7)])


def _axiom_corpus(rng: random.Random, count: int):
    """Set functions on n = 0..6: random tables, perturbed sums of uniform-matroid
    ranks, sums less a 0/1 modular function (submodular, often not monotone),
    and sums with a nonzero value at the empty set."""
    for i in range(count):
        n = rng.randint(0, 6)
        kind = i % 4
        if kind == 0:
            yield SetFunction(n, [0] + [rng.randint(0, 4) for _ in range((1 << n) - 1)])
            continue
        values = [0] * (1 << n)
        for _ in range(rng.randint(1, 3)):
            rank = rng.randint(0, 3)
            values = [v + min(mask.bit_count(), rank) for mask, v in enumerate(values)]
        if kind == 1:
            values[rng.randrange(1 << n)] += rng.choice((-1, 1))
        elif kind == 2:
            weights = [rng.randint(0, 1) for _ in range(n)]
            values = [v - sum(w for j, w in enumerate(weights) if mask >> j & 1)
                      for mask, v in enumerate(values)]
        else:
            values[0] = rng.choice((-1, 1))
        yield SetFunction(n, values)


def test_polytopes_reject_exactly_the_non_polymatroids():
    only = Counter()  # non-polymatroids by the one axiom they break, when just one
    for f in _axiom_corpus(random.Random(909), 2000):
        report = is_polymatroid(f)
        for build, bases_only in ((base_polytope, True), (independence_polytope, False)):
            if report.ok:
                assert set(build(f).vertices) == reference_greedy_points(f, bases_only)
            else:
                with pytest.raises(ValueError):
                    build(f)
        axioms = {
            "normalized": report.is_normalized,
            "monotone": report.is_monotone,
            "submodular": report.is_submodular,
        }
        broken = [name for name, holds in axioms.items() if not holds]
        if len(broken) == 1:
            only[broken[0]] += 1
    assert set(only) == {"normalized", "monotone", "submodular"}
    assert min(only.values()) >= 50, only


NOT_SUBMODULAR = (  # the witness of SetFunction(2, [0, 1, 1, 3])
    r"^not a polymatroid: not submodular, f\(S\+i\) - f\(S\) < f\(S\+i\+j\) - f\(S\+j\) "
    r"at S=\[\], i=1, j=2$"
)
# the witness of SetFunction(2, [0, 1, 1, 0])
NOT_MONOTONE = r"^not a polymatroid: not monotone, f\(S\+i\) < f\(S\) at S=\[1\], i=2$"


def test_non_polymatroid_errors_name_the_axiom_or_inequality():
    with pytest.raises(ValueError, match=r"not a polymatroid: f\(empty set\) = 1, not 0"):
        independence_polytope(SetFunction(1, [1, 1]))
    with pytest.raises(ValueError, match=NOT_SUBMODULAR):
        base_polytope(SetFunction(2, [0, 1, 1, 3]))  # not submodular
    with pytest.raises(ValueError, match=NOT_MONOTONE):
        base_polytope(SetFunction(2, [0, 1, 1, 0]))  # not monotone


def test_independence_polytope_errors_name_the_axiom_and_witness():
    with pytest.raises(ValueError, match=NOT_SUBMODULAR):
        independence_polytope(SetFunction(2, [0, 1, 1, 3]))  # f(1) + f(2) < f(12) + f(empty)
    with pytest.raises(ValueError, match=NOT_MONOTONE):
        independence_polytope(SetFunction(2, [0, 1, 1, 0]))  # f(12) < f(1)


def _primitive(vec):
    """The positive multiple of a nonzero rational vector that is a primitive integer one."""
    scale = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _dot(a, p):
    return sum(x * y for x, y in zip(a, p))


def _dot_product_assembly(n, points, candidates):
    """(vertices, inequalities, equations) of the hull of the points, from a
    complete candidate set, each candidate evaluated by one dot product per
    point and each facet bound taken as a maximum over the points."""
    pts = sorted(set(points))
    diffs = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
    normals = map(_primitive, reference_kernel(diffs, n))
    equations = tuple(sorted((a, _dot(a, pts[0])) for a in normals))
    tight = {}
    for a, b in candidates:
        assert max(_dot(a, p) for p in pts) <= b
        on = frozenset(i for i, p in enumerate(pts) if _dot(a, p) == b)
        if on and len(on) < len(pts):
            tight.setdefault(on, a)
    facet_sets = [s for s in tight if not any(s < t for t in tight)]
    eq_rref, eq_pivots = reference_rref([a for a, _ in equations], n)
    inequalities = []
    for s in facet_sets:
        vec = [Fraction(x) for x in tight[s]]
        for row, pivot in zip(eq_rref, eq_pivots):
            factor = vec[pivot]
            vec = [x - factor * y for x, y in zip(vec, row)]
        a = _primitive(vec)
        inequalities.append((a, max(_dot(a, p) for p in pts)))
    vertices = []
    for i, p in enumerate(pts):
        meet = set(range(len(pts)))
        for s in facet_sets:
            if i in s:
                meet &= s
        if meet == {i}:
            vertices.append(p)
    return tuple(vertices), tuple(sorted(inequalities)), equations


def _brute_rank(points, n):
    return [
        max(sum(p[i] for i in range(n) if mask >> i & 1) for p in points)
        for mask in range(1 << n)
    ]


def test_rank_and_polymatroid_polytopes_match_dot_product_references():
    # seeded M-convex supports, their truncations and truncation sums: the
    # rank function of each truncation polytope's lattice points is the truncation
    rng = random.Random(1313)
    cases = [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)]
    checked = 0
    for n, d in cases:
        support = random_mconvex_support(rng, n, d)
        rho = rank_from_support(support)
        assert list(rho.values) == _brute_rank(support, n)
        functions = [truncate(rho, k) for k in range(d + 1)]
        functions += [truncation_sum(rho), truncation_sum(rho, 1)]
        for f in functions:
            supp = lattice_points(base_polytope(f))
            assert list(rank_from_support(supp).values) == _brute_rank(supp, n) == list(f.values)
            candidates = [
                (tuple(mask >> i & 1 for i in range(n)), f.values[mask])
                for mask in range(1, 1 << n)
            ]
            candidates += [(tuple(-int(i == j) for j in range(n)), 0) for i in range(n)]
            for build, bases_only in ((base_polytope, True), (independence_polytope, False)):
                body = build(f)
                reference = _dot_product_assembly(
                    n, reference_greedy_points(f, bases_only), candidates
                )
                assert (body.vertices, body.inequalities, body.equations) == reference, (f, build)
                checked += 1
    assert checked == 2 * sum(d + 3 for _, d in cases)


def test_facet_masks_are_the_vertices_tight_at_each_facet():
    rng = random.Random(91)
    bodies, with_interior = [], 0

    def summed(p, q):
        body = minkowski_sum(p, q)
        sums = {tuple(map(sum, zip(u, w))) for u in p.vertices for w in q.vertices}
        return body, len(sums) > len(body.vertices)

    for _ in range(25):
        n = rng.randint(1, 4)
        f, g = random_polymatroid(rng, n, 3), random_polymatroid(rng, n, 3)
        body, interior = summed(base_polytope(f), base_polytope(g))  # the arrangement path
        bodies += [base_polytope(f), independence_polytope(f), body]
        with_interior += interior
    for _ in range(25):
        n = rng.randint(1, 3)
        cloud = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        p = polytope_from_points(cloud)
        body, interior = summed(p, p)
        bodies += [p, body]
        with_interior += interior + (len(set(cloud)) > len(p.vertices))
    assert with_interior >= 40
    for body in bodies:
        assert len(body.facet_masks) == len(body.inequalities)
        for mask, (a, b) in zip(body.facet_masks, body.inequalities):
            tight = [i for i, v in enumerate(body.vertices) if sum(map(mul, a, v)) == b]
            assert mask == sum(1 << i for i in tight)
        assert "facet_masks" not in repr(body) and "facet_masks" not in body.to_json_dict()


def _greedy_walk_reference(f: SetFunction, bases_only: bool) -> omegalab.polytope.LatticePolytope:
    """B(f) or P(f) from the greedy points of all n! orders, one dot product per
    candidate x(S) <= f(S) or -x_i <= 0 and point, and facet masks rebuilt from
    the vertices tight at each facet."""
    n = f.n
    candidates = [(tuple(m >> i & 1 for i in range(n)), f.values[m]) for m in range(1, 1 << n)]
    candidates += [(tuple(-int(i == j) for j in range(n)), 0) for i in range(n)]
    points = reference_greedy_points(f, bases_only)
    vertices, inequalities, equations = _dot_product_assembly(n, points, candidates)
    masks = tuple(
        sum(1 << k for k, v in enumerate(vertices) if _dot(a, v) == b) for a, b in inequalities
    )
    return omegalab.polytope.LatticePolytope(
        n, vertices, inequalities, equations, n - len(equations), masks
    )


def test_polymatroid_polytopes_match_the_greedy_walk_reference():
    rng = random.Random(1970)
    counts = Counter()
    for draw in range(1000):
        f = _polymatroid_draw(rng, draw % 4)
        counts["summed truncation"] += draw % 4 == 3
        counts["n = 1"] += f.n == 1
        counts["rank 0"] += f.rank == 0
        counts["looped"] += any(f.values[1 << i] == 0 for i in range(f.n))
        for build, bases_only in ((base_polytope, True), (independence_polytope, False)):
            body, reference = build(f), _greedy_walk_reference(f, bases_only)
            assert body == reference, (build.__name__, f)
            assert body.facet_masks == reference.facet_masks, (build.__name__, f)
            if bases_only:
                counts["disconnected"] += body.dim < f.n - 1  # one equation per component
    assert min(counts.values()) >= 40, counts


def test_is_simple_matches_a_per_vertex_facet_count():
    rng = random.Random(2005)
    counts = Counter()
    for draw in range(1000):  # matroids of rank >= 2 give most of the polytopes that are not simple
        n = rng.randint(3, 6)
        f = random_matroid(rng, n, 4) if draw % 2 else random_polymatroid(rng, n, 5)
        for body in (base_polytope(f), independence_polytope(f), base_polytope(truncation_sum(f))):
            on = [sum(_dot(a, v) == b for a, b in body.inequalities) for v in body.vertices]
            witness = next((v for v, count in zip(body.vertices, on) if count != body.dim), None)
            assert is_simple(body) == (witness is None, witness), body
            counts["simple" if witness is None else "not simple"] += 1
    assert sum(counts.values()) >= 3000 and counts["not simple"] >= 300, counts
