"""Shared resource guards.

Desk-scale caps never silently degrade results: exceeding one raises
ResourceLimit, which callers surface as an explicit "undecided" outcome or an
error, never as a mathematical verdict.
"""

# Total-degree cap of certify_smooth, is_lorentzian and hyperbolic_rank, whose
# work grows faster than the degree: above it they stop before any partial or
# expansion, the certificate as undecided and the others with ResourceLimit.
MAX_CERTIFY_DEGREE = 12


class ResourceLimit(RuntimeError):
    """A desk-scale guard was exceeded; the computation was not attempted."""


def degree_guard(d: int) -> str | None:
    """The degree guard's message when total degree d exceeds the cap."""
    if d > MAX_CERTIFY_DEGREE:
        return f"degree guard: total degree {d} exceeds the cap {MAX_CERTIFY_DEGREE}"
    return None
