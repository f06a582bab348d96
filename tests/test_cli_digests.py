"""The CLI's output bytes, pinned on the benchmark's fixtures.

`certify --format json` runs in-process on the ladder fixtures and on the
seed-1 sweep quadrics of bench/fixtures.py; `analyze` and `lorentzian` run
on the ladder fixtures.  Each call's (exit code, stdout, stderr) is compared
with a SHA-256 digest in cli_digests.json.  A change that alters the output
by design rewrites that file with

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
import types
from pathlib import Path

from omegalab.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"


def _bench_fixtures() -> types.ModuleType:
    """bench/fixtures.py, executed without writing anything under bench/."""
    path = ROOT / "bench" / "fixtures.py"
    module = types.ModuleType("bench_fixtures")
    sys.modules[module.__name__] = module  # dataclasses looks the module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _calls():
    fixtures = _bench_fixtures()
    ladder = [fixtures.fixture(name) for name, _ in fixtures.LADDER]
    for command, inputs in (
        ("certify", ladder + fixtures.sweep_quadrics(1)),
        ("analyze", ladder),
        ("lorentzian", ladder),
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
    assert len(actual) == 20 + 240 + 20 + 20
    assert sorted(actual) == sorted(expected)
    changed = [key for key in actual if actual[key] != expected[key]]
    assert changed == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
