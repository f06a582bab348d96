"""The CLI's output bytes, pinned on the benchmark's fixtures.

`certify --format json` runs in-process on the ladder fixtures and on the
seed-1 sweep quadrics of bench/fixtures.py; `analyze` and `lorentzian` run
on the ladder fixtures.  All three also run on seeded variants with rational
and negative coefficients of 60 seed-3 sweep quadrics and of the ladder
fixtures of degree 2, or of degree 3 or 4 in at most 5 variables (random
coefficients on e(3,6) and up spend seconds in the order-1 Groebner call).  Each call's (exit code, stdout, stderr) is compared
with a SHA-256 digest in cli_digests.json.  A change that alters the output
by design rewrites that file with

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json
"""

import contextlib
import hashlib
import io
import json
import random
import types
from pathlib import Path

from omegalab.cli import main

from helpers import bench_fixtures

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"


def _rational_variants(fixtures: types.ModuleType, ladder: list) -> list:
    """Each coefficient c of a fixture becomes +-c*p/q, p and q in 1..7 and
    the sign negative with probability 1/4, from one seeded generator."""
    rng = random.Random(17)
    degree = {f: sum(next(iter(fixtures.terms(f)))) for f in ladder}
    bases = [f for f in ladder if degree[f] == 2 or degree[f] <= 4 and len(f.names) <= 5]
    bases += fixtures.sweep_quadrics(3)[:60]
    out = []
    for f in bases:
        chunks = []
        for exponent, c in fixtures.terms(f).items():
            sign = "-" if rng.random() < 0.25 else "+"
            monomial = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(f.names, exponent) if e
            )
            chunks.append(f"{sign} {c * rng.randint(1, 7)}/{rng.randint(1, 7)}*{monomial}")
        out.append(fixtures.Fixture(f"{f.name}~q", f.names, " ".join(chunks)))
    return out


def _calls():
    fixtures = bench_fixtures()
    ladder = [fixtures.fixture(name) for name, _ in fixtures.LADDER]
    variants = _rational_variants(fixtures, ladder)
    for command, inputs in (
        ("certify", ladder + fixtures.sweep_quadrics(1) + variants),
        ("analyze", ladder + variants),
        ("lorentzian", ladder + variants),
    ):
        for f in inputs:
            argv = [command, "--vars", ",".join(f.names), f.text, "--format", "json"]
            yield f"{command} {f.name}", argv


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict[str, str]:
    return {key: _digest(argv) for key, argv in _calls()}


def test_cli_output_bytes_match_the_pinned_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = digests()
    assert len(actual) == 20 + 240 + 20 + 20 + 3 * 75
    assert sorted(actual) == sorted(expected)
    changed = [key for key in actual if actual[key] != expected[key]]
    assert changed == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
