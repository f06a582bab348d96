"""Self-test of the benchmark, in a few seconds.

    python3 bench/selftest.py

Runs a reduced seeded pass of each workload through the same inputs, checks
and tracer as run.py, shows that the checks reject a wrong expected answer,
and that run.py reports exactly the metrics named in BENCHMARK.json.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys

import fixtures
import run
from meter import Meter
from tracing import Tracer, metric_units

SEED = 7
LIGHT_LADDER = {"plane", "singular", "smooth", "e(2,2)", "e(2,3)", "e(3,3)", "e(2,4)", "e(3,4)", "e(4,4)", "e(2,9)"}
LIGHT_PAIRS = {("plane", 1), ("plane", 2), ("e(2,3)", 1), ("e(3,4)", 1), ("e(3,4)", 2), ("e(4,4)", 3), ("singular", 2)}
SWEEP_QUADRICS = 10  # two per number of variables


def reduced_ops(pkg) -> dict[str, list[run.Op]]:
    """Light inputs only, each called once."""
    ladder = [op for op in run.ladder_inputs(pkg, SEED) if op.label in LIGHT_LADDER]
    oracle = [op for op in run.oracle_inputs(pkg, SEED) if (op.fixture.name, op.k) in LIGHT_PAIRS]
    sweep = run.sweep_inputs(pkg, SEED)[:SWEEP_QUADRICS]
    ops = {"ladder": ladder, "oracle": oracle, "sweep": sweep}
    for workload_ops in ops.values():
        for op in workload_ops:
            op.repeats = 1
    return ops


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pkg = run.import_program()
    ops = reduced_ops(pkg)
    meter = Meter()
    results = {}
    for workload, workload_ops in ops.items():
        tracer = Tracer(meter.now)
        with meter.sampling(), tracer.installed():
            done = run.one_pass(workload_ops, meter)
        tally = run.Tally()
        tally.add(done.results, run.WORKLOADS[workload][1])
        failed = {label for label, kind in tally.reported if kind == "failed"}
        assert tally.wrong == 0, f"{workload}: wrong answers"
        assert failed <= fixtures.GUARDED, f"{workload}: unexpected failures {failed}"
        assert tally.attempted == len(workload_ops)
        assert done.work_s > 0 and done.speed > 0
        results[workload] = {op.label: result for op, result in done.results}
        counts = tracer.metrics(done.speed)
        if workload == "sweep":
            assert counts["groebner.buchberger_intdicts_calls"] == 0, "sweep reached Buchberger"
            assert counts["groebner.torus_feasible.linear_calls"] > 0
        if workload == "oracle":
            assert counts["certify.oracle_centre_disjoint_calls"] == len(workload_ops) // 2
        print(f"selftest: {workload}: {tally.attempted} checked, failed {sorted(failed)}")

    # A check fed a wrong expected answer must fail.
    smooth_op = next(op for op in ops["ladder"] if op.label == "smooth")
    as_plane = run.Op("plane", fixtures.PLANE_CUBIC, smooth_op.run)
    assert not run.check_ladder(smooth_op, results["ladder"]["smooth"])
    assert run.check_ladder(as_plane, results["ladder"]["smooth"]), "plane check accepted the frustum"
    singular_quadric = fixtures.Fixture("q-singular", ("x1", "x2", "x3"), "1*x1^2 + 2*x1*x2 + 1*x2^2 + 1*x3^2")
    assert fixtures.hessian_determinant(singular_quadric) == 0
    certificate = next(c for c in results["sweep"].values() if c.verdict == "smooth-toric")
    assert run.check_sweep(run.Op("q-singular", singular_quadric, None), certificate)
    print("selftest: checks reject wrong expected answers")

    # The independent expectations agree with each other.
    for n in range(2, 7):
        for d in range(2, n + 1):
            support = list(fixtures.terms(fixtures.elementary_symmetric(d, n)))
            assert fixtures.summed_truncation_vertices(support) == fixtures.staircase_vertices(d, n)
    assert fixtures.summed_truncation_vertices(list(fixtures.terms(fixtures.SMOOTH_CUBIC))) == fixtures.FRUSTUM

    # Same seed, same inputs; the metric names match BENCHMARK.json.
    assert fixtures.sweep_quadrics(SEED) == fixtures.sweep_quadrics(SEED)
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(metric_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
