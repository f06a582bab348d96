"""The desk-scale size caps, each with the one function that checks it.

A guard raises ResourceLimit, naming itself and its cap, before the work it
bounds.  Callers surface it as an explicit "undecided" outcome or an error,
never as a mathematical verdict.  The one cap checked elsewhere is the
Groebner pair cap, a runtime budget counted per S-pair in `_buchberger`.
"""

from math import comb

MAX_CERTIFY_DEGREE = 12  # total degree: certify_smooth, is_lorentzian, hyperbolic_rank
MAX_GROUND_SET = 20  # n of any dense 2^n set-function table
MAX_GREEDY_GROUND_SET = 8  # n of a base or independence polytope's greedy enumeration
MAX_PARTIALS = 10_000  # the C(n+k-1, k) order-k partials in n variables
MAX_TORIC_POINTS = 12  # the points of a toric ideal's configuration


class ResourceLimit(RuntimeError):
    """A desk-scale guard was exceeded; the computation was not attempted."""


def degree_guard(d: int) -> None:
    if d > MAX_CERTIFY_DEGREE:
        raise ResourceLimit(f"degree guard: total degree {d} exceeds the cap {MAX_CERTIFY_DEGREE}")


def ground_set_guard(n: int) -> None:
    if n > MAX_GROUND_SET:
        raise ResourceLimit(
            f"ground-set guard: ground set of size {n} exceeds the cap {MAX_GROUND_SET}"
        )


def greedy_guard(n: int) -> None:
    if n > MAX_GREEDY_GROUND_SET:
        raise ResourceLimit(f"greedy enumeration capped at n <= {MAX_GREEDY_GROUND_SET}")


def partials_guard(nvars: int, k: int) -> None:
    count = comb(nvars + k - 1, k) if nvars else int(k == 0)
    if count > MAX_PARTIALS:
        raise ResourceLimit(
            f"partial-count guard: {count} order-{k} partials exceed the cap {MAX_PARTIALS}"
        )


def toric_points_guard(count: int) -> None:
    if count > MAX_TORIC_POINTS:
        raise ResourceLimit(f"toric ideal capped at {MAX_TORIC_POINTS} points")
