"""The resource guards: each passes at its cap and raises its message one above it."""

import pytest

from omegalab.guards import (
    ResourceLimit,
    degree_guard,
    greedy_guard,
    ground_set_guard,
    partials_guard,
    toric_points_guard,
)


@pytest.mark.parametrize(
    "guard, at_cap, above, message",
    [
        (degree_guard, 12, 13, "degree guard: total degree 13 exceeds the cap 12"),
        (ground_set_guard, 20, 21, "ground-set guard: ground set of size 21 exceeds the cap 20"),
        (greedy_guard, 8, 9, "greedy enumeration capped at n <= 8"),
        # C(n+k-1, k) partials: C(10000, 1) at n = 10000, k = 1, and C(10001, 1) above
        (
            lambda n: partials_guard(n, 1),
            10_000,
            10_001,
            "partial-count guard: 10001 order-1 partials exceed the cap 10000",
        ),
        (toric_points_guard, 12, 13, "toric ideal capped at 12 points"),
    ],
)
def test_each_guard_passes_at_its_cap_and_raises_above_it(guard, at_cap, above, message):
    assert guard(at_cap) is None
    with pytest.raises(ResourceLimit) as excinfo:
        guard(above)
    assert str(excinfo.value) == message


def test_the_partial_count_is_a_binomial():
    partials_guard(0, 0)  # one order-0 partial, h itself, in no variables
    partials_guard(0, 5)  # none of higher order
    partials_guard(4, 13)  # C(16, 13) = 560
    with pytest.raises(ResourceLimit, match="^partial-count guard: 705432 order-11 partials"):
        partials_guard(12, 11)
