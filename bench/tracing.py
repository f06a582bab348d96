"""Per-layer self time and call counts, recorded from outside the program.

The tracer replaces each listed public function of omegalab with a wrapper,
in its own module and in every omegalab module that imported it by name, so
that calls between modules go through the wrapper.  A call's self time is
its duration minus the time of the traced calls made inside it.  Totals are
kept in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from typing import Callable

# (module, function): the layer boundaries that per-layer metrics are named after.
TARGETS = (
    ("cli", "main"),
    ("poly", "parse_polynomial"),
    ("certify", "certify_smooth"),
    ("certify", "centre_disjoint"),
    ("certify", "oracle_centre_disjoint"),
    ("certify", "is_mconvex"),
    ("certify", "is_lorentzian"),
    ("setfunc", "rank_from_support"),
    ("derivatives", "all_partials"),
    ("derivatives", "derivative_space"),
    ("polytope", "base_polytope"),
    ("polytope", "faces"),
    ("polytope", "lattice_points"),
    ("polytope", "is_smooth"),
    ("groebner", "torus_feasible"),
    ("groebner", "buchberger_intdicts"),
    ("groebner", "normal_form"),
    ("groebner", "toric_ideal"),
    ("linalg", "rref"),
    ("linalg", "integer_lattice_coordinates"),
    ("linalg", "snf_divisors"),
    ("linalg", "char_poly"),
)

# torus_feasible is also reported split by the method that decided it.
TORUS = "groebner.torus_feasible"
TORUS_METHODS = {"linear-algebra": "linear", "groebner": "groebner"}
FACES = "polytope.faces"

SPANS = tuple(f"{m}.{f}" for m, f in TARGETS) + tuple(
    f"{TORUS}.{short}" for short in TORUS_METHODS.values()
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for span in SPANS:
        out[f"{span}_ms"] = "ms"
        out[f"{span}_calls"] = "count"
    out["polytope.faces_returned"] = "count"
    out["trace_overhead_s"] = "s"
    return out


class Tracer:
    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.self_s = {span: 0.0 for span in SPANS}
        self.calls = {span: 0 for span in SPANS}
        self.faces_returned = 0
        self._stack: list[list[float]] = []

    def _wrap(self, span: str, fn):
        stack = self._stack
        self_s, calls, clock = self.self_s, self.calls, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - children[0]
                self_s[span] += own
                calls[span] += 1
            if span == TORUS and result.method in TORUS_METHODS:
                split = f"{TORUS}.{TORUS_METHODS[result.method]}"
                self_s[split] += own
                calls[split] += 1
            elif span == FACES:
                self.faces_returned += len(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every imported omegalab module for the duration of the block."""
        modules = [
            m for name, m in sys.modules.items() if name == "omegalab" or name.startswith("omegalab.")
        ]
        patched = []
        try:
            for module_name, fn_name in TARGETS:
                home = sys.modules.get(f"omegalab.{module_name}")
                original = getattr(home, fn_name, None)
                if original is None:
                    print(f"trace: omegalab.{module_name}.{fn_name} not found", file=sys.stderr)
                    continue
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def metrics(self, factor: float) -> dict[str, float]:
        """Totals, with self times scaled by the speed factor of the traced pass."""
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}_ms"] = self.self_s[span] * factor * 1000.0
            out[f"{span}_calls"] = self.calls[span]
        out["polytope.faces_returned"] = self.faces_returned
        return out
