"""Benchmark of omegalab: one command, three workloads, every answer checked.

    python3 bench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

The program is imported from src/ of the checkout that holds this file.
Workloads (see README.md for why each was chosen):

  ladder  the CLI `certify --format json`, called in-process, on the paper's
          three cubics and the elementary symmetric ladder e(d,n);
  oracle  centre_disjoint and the toric-ideal oracle on 26 (fixture, k) pairs;
  sweep   certify_smooth on 240 seeded random M-convex quadrics.

A run imports the program and builds the inputs SETUP_REPEATS times, then
makes whole passes over the inputs until --seconds have gone by, and checks
every answer against fixtures.py.  Times are program work: each input's time
scaled by the machine's speed while it ran, as measured by meter.py.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 one more pass
runs under the tracer, the metrics are the per-layer ones, and the traced
totals are also written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import fixtures
from meter import Meter
from tracing import Tracer, metric_units

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
SCHEMA = "omegalab/1"
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "call_geomean_ms": "ms", "peak_rss_mb": "MB"}
EXIT_CODES = {"smooth-toric": 0, "criterion-fails": 1, "not-applicable": 2, "undecided": 3}


class Failed(Exception):
    """The operation gave no answer that could be checked."""


@dataclass
class Op:
    label: str
    fixture: fixtures.Fixture
    # Called with a CallTimer, through which it makes its one program call.
    run: Callable[["CallTimer"], object]
    k: int = 0
    repeats: int = 1


class CallTimer:
    """Times each program call on the given clock."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.seconds: list[float] = []

    def __call__(self, fn: Callable[[], object]):
        start = self.clock()
        try:
            return fn()
        finally:
            self.seconds.append(self.clock() - start)


# -- workloads: inputs --------------------------------------------------------------
# Program functions are looked up on their module at call time, so that the
# tracer's wrappers are the ones called.


def _cli_certify(pkg, argv: list[str], timed: CallTimer) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = timed(lambda: pkg.cli.main(argv))
    return code, out.getvalue(), err.getvalue()


def ladder_inputs(pkg, seed: int) -> list[Op]:
    """The fixtures are the paper's; the seed does not change them."""
    ops = []
    for name, repeats in fixtures.LADDER:
        f = fixtures.fixture(name)
        argv = ["certify", "--vars", ",".join(f.names), f.text, "--format", "json"]
        ops.append(Op(name, f, functools.partial(_cli_certify, pkg, argv), repeats=repeats))
    return ops


def _face_orbit(pkg, h, k: int, timed: CallTimer):
    return timed(lambda: pkg.centre_disjoint(h, k))


def _toric_ideal(pkg, h, k: int, timed: CallTimer) -> str:
    return timed(lambda: pkg.oracle_centre_disjoint(h, k))


def oracle_inputs(pkg, seed: int) -> list[Op]:
    """Both deciders on every pair, each its own op; the pairs do not depend on the seed."""
    parsed = {}
    ops = []
    for name, k, orbit_repeats, toric_repeats in fixtures.ORACLE_PAIRS:
        f = fixtures.fixture(name)
        if name not in parsed:
            parsed[name] = pkg.parse_polynomial(f.text, list(f.names))
        h = parsed[name]
        orbit = functools.partial(_face_orbit, pkg, h, k)
        toric = functools.partial(_toric_ideal, pkg, h, k)
        ops.append(Op(f"{name} k={k} face-orbit", f, orbit, k, orbit_repeats))
        ops.append(Op(f"{name} k={k} toric-ideal", f, toric, k, toric_repeats))
    return ops


def _certify(pkg, h, timed: CallTimer):
    return timed(lambda: pkg.certify_smooth(h))


def sweep_inputs(pkg, seed: int) -> list[Op]:
    ops = []
    for f in fixtures.sweep_quadrics(seed):
        h = pkg.parse_polynomial(f.text, list(f.names))
        ops.append(Op(f.name, f, functools.partial(_certify, pkg, h)))
    return ops


# -- workloads: checks --------------------------------------------------------------


def _vertex_set(points) -> frozenset:
    return frozenset(tuple(p) for p in points)


def check_ladder(op: Op, result) -> list[str]:
    code, stdout, stderr = result
    if not stdout.strip():
        raise Failed(f"exit {code} and no payload; stderr: {stderr.strip()}")
    payload = json.loads(stdout)
    errors = []
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema {payload.get('schema')!r}")
    verdict = payload.get("verdict")
    if code != EXIT_CODES.get(verdict):
        errors.append(f"exit code {code} for verdict {verdict!r}")
    if op.label in fixtures.GUARDED and verdict == "undecided":
        if "greedy" not in stdout:
            errors.append("undecided without naming the greedy-enumeration guard")
        return errors
    expected = fixtures.expected_certificate(op.label)
    if verdict != expected.verdict:
        errors.append(f"verdict {verdict!r}, expected {expected.verdict!r}")
    polytope = payload.get("polytope")
    vertices = None if polytope is None else _vertex_set(polytope["vertices"])
    if vertices != expected.vertices:
        errors.append(f"polytope vertices {sorted(vertices or ())}")
    reports = {r["k"]: r for r in payload.get("k_reports", [])}
    disjoint = {k: r["disjoint"] for k, r in reports.items()}
    if disjoint != expected.disjoint:
        errors.append(f"disjointness by order {disjoint}, expected {expected.disjoint}")
    for k, face in expected.witness.items():
        got = _vertex_set(reports.get(k, {}).get("witness_face") or ())
        if got != face:
            errors.append(f"k={k} witness face {sorted(got)}")
    if (payload.get("n"), payload.get("d")) != (len(op.fixture.names), _degree(op.fixture)):
        errors.append(f"n, d = {payload.get('n')}, {payload.get('d')}")
    return errors


def _degree(f: fixtures.Fixture) -> int:
    return sum(next(iter(fixtures.terms(f))))


def check_oracle(op: Op, result) -> list[str]:
    """Each decider must give the expected answer, so the two agree."""
    expected = fixtures.expected_certificate(op.fixture.name)
    want = expected.disjoint[op.k]
    answer = result if isinstance(result, str) else result.disjoint
    errors = []
    if answer != want:
        errors.append(f"answer {answer!r}, expected {want!r}")
    face = expected.witness.get(op.k)
    if face is not None and not isinstance(result, str) and _vertex_set(result.witness_face or ()) != face:
        errors.append(f"witness face {result.witness_face}")
    return errors


def check_sweep(op: Op, cert) -> list[str]:
    n = len(op.fixture.names)
    singular = fixtures.hessian_determinant(op.fixture) == 0
    want = "criterion-fails" if singular else "smooth-toric"
    errors = []
    if not cert.mconvex:
        errors.append("support reported not M-convex")
    if cert.verdict != want:
        errors.append(f"verdict {cert.verdict!r}, expected {want!r}")
    elif not singular and _vertex_set(cert.polytope.vertices) != fixtures.unit_vectors(n):
        errors.append(f"polytope vertices {cert.polytope.vertices}")
    return errors


WORKLOADS = {
    "ladder": (ladder_inputs, check_ladder),
    "oracle": (oracle_inputs, check_oracle),
    "sweep": (sweep_inputs, check_sweep),
}


# -- measuring ----------------------------------------------------------------------


def import_program():
    """A fresh import of omegalab from this checkout's src/."""
    for name in [n for n in sys.modules if n == "omegalab" or n.startswith("omegalab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("omegalab")
    importlib.import_module("omegalab.cli")
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise SystemExit(f"run.py: omegalab was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def setup(workload: str, seed: int, meter: Meter):
    """Import the program and build the inputs; returns program work in seconds."""
    meter.sample()
    start = meter.now()
    pkg = import_program()
    ops = WORKLOADS[workload][0](pkg, seed)
    end = meter.now()
    meter.sample()
    return (end - start) * meter.factor(start, end), ops


@dataclass
class Pass:
    # op label -> program work of one call, the mean over the op's repeats
    call_work: dict[str, float]
    program_s: float  # program time of the whole pass, repeats included, on the meter's clock
    speed: float  # mean speed factor over the pass, weighted by program time
    results: list[tuple[Op, object]]

    @property
    def work_s(self) -> float:
        """Program work of one call of every op, in seconds at nominal speed."""
        return sum(self.call_work.values())


def one_pass(ops: list[Op], meter: Meter) -> Pass:
    call_work, results = {}, []
    program_s = work_s = 0.0
    for op in ops:
        timed = CallTimer(meter.now)
        start = meter.now()
        for _ in range(op.repeats):
            try:
                results.append((op, op.run(timed)))
            except Exception as exc:  # an operation that raises counts as failed, the run goes on
                results.append((op, Failed(f"{type(exc).__name__}: {exc}")))
        end = meter.now()
        meter.sample()
        factor = meter.factor(start, end)
        program_s += end - start
        work_s += (end - start) * factor
        call_work[op.label] = statistics.fmean(timed.seconds) * factor
    return Pass(call_work, program_s, work_s / program_s, results)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reported: set = field(default_factory=set)

    def add(self, results: list[tuple[Op, object]], check) -> None:
        for op, result in results:
            self.attempted += 1
            try:
                if isinstance(result, Failed):
                    raise result
                errors = check(op, result)
            except Failed as exc:
                self.failed += 1
                self._note(op.label, "failed", [str(exc)])
                continue
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                errors = [f"malformed answer: {type(exc).__name__}: {exc}"]
            if errors:
                self.wrong += 1
                self._note(op.label, "wrong", errors)

    def _note(self, label: str, kind: str, messages: list[str]) -> None:
        if (label, kind) not in self.reported:
            self.reported.add((label, kind))
            print(f"{kind}: {label}: {'; '.join(messages)}", file=sys.stderr)


def geometric_mean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def write_trace(workload: str, seed: int, untraced: Pass, traced: Pass, tracer: Tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    record = {
        "workload": workload,
        "seed": seed,
        "untraced_work_s": untraced.work_s,
        "traced_work_s": traced.work_s,
        "metrics": tracer.metrics(traced.speed),
        "call_work_ms_untraced": {label: t * 1000.0 for label, t in untraced.call_work.items()},
    }
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "omegalab" / "__init__.py").is_file():
        print(f"run.py: no omegalab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    meter = Meter()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, ops = setup(args.workload, args.seed, meter)
        setups.append(seconds)
    check = WORKLOADS[args.workload][1]

    tally = Tally()
    passes: list[Pass] = []
    start = perf_counter()
    with meter.sampling():
        while not passes or perf_counter() - start < args.seconds:
            passes.append(one_pass(ops, meter))
            tally.add(passes[-1].results, check)
            passes[-1].results = []
    pass_s = statistics.fmean(p.work_s for p in passes)
    print(
        f"{args.workload}: {len(passes)} pass(es), program time "
        f"{[round(p.program_s, 3) for p in passes]} s, work {[round(p.work_s, 3) for p in passes]} s",
        file=sys.stderr,
    )

    if args.trace:
        tracer = Tracer(meter.now)
        with meter.sampling(), tracer.installed():
            traced = one_pass(ops, meter)
        tally.add(traced.results, check)
        write_trace(args.workload, args.seed, passes[-1], traced, tracer)
        values = tracer.metrics(traced.speed)
        values["trace_overhead_s"] = traced.work_s - pass_s
        units = metric_units()
    else:
        calls = [c for p in passes for c in p.call_work.values()]
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": pass_s,
            "call_geomean_ms": geometric_mean(calls) * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
