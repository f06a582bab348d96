"""Command-line interface: exit codes, JSON schema, error paths."""

import json

import pytest

from omegalab import SetFunction, truncation_sum
from omegalab.cli import main

from helpers import SINGULAR_CUBIC_TEXT, SMOOTH_CUBIC_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_smooth_exit_zero(capsys):
    code, out, _ = run(
        capsys, "certify", "--vars", "x1,x2,x3", "x1*x2+x1*x3+x2*x3"
    )
    assert code == 0
    assert "smooth-toric" in out
    assert "[[0, 0, 1], [0, 1, 0], [1, 0, 0]]" in out


def test_certify_json_formats_no_text_lines(capsys, monkeypatch):
    import omegalab.cli as cli

    lines = []
    monkeypatch.setattr(cli, "_certificate_lines", lambda *a: lines.append(a) or ["text"])
    code, out, _ = run(capsys, "certify", "--format", "json", "--vars", "x,y", "x*y")
    assert code == 0 and json.loads(out)["verdict"] == "smooth-toric" and lines == []
    code, out, _ = run(capsys, "certify", "--vars", "x,y", "x*y")
    assert code == 0 and out == "text\n" and len(lines) == 1


def test_certify_singular_cubic_exit_one(capsys, tmp_path):
    path = tmp_path / "cubic.poly"
    path.write_text(SINGULAR_CUBIC_TEXT + "\n")
    code, out, _ = run(capsys, "certify", "--vars", "w,x,y,z", "--file", str(path))
    assert code == 1
    assert "criterion-fails" in out
    assert "witness face" in out


def test_certify_not_applicable_exit_two(capsys):
    code, out, _ = run(capsys, "certify", "--vars", "x,y,z", "x*y^2 + z^3")
    assert code == 2
    assert "not-applicable" in out


def test_certify_without_input_is_usage_error(capsys):
    code, _, err = run(capsys, "certify")
    assert code == 64
    assert "error" in err


def test_certify_two_inputs_is_usage_error(capsys, tmp_path):
    path = tmp_path / "p.poly"
    path.write_text("x*y")
    code, _, err = run(
        capsys, "certify", "--vars", "x,y", "x*y", "--file", str(path)
    )
    assert code == 64


def test_parse_error_goes_to_stderr_with_position(capsys):
    code, _, err = run(capsys, "certify", "--vars", "x,y", "x + q*y")
    assert code == 64
    assert "position 4" in err
    for text, message in [
        ("x^²*y", "expected an integer (at position 2)"),
        ("x*2y", "unknown variable '2y' (at position 2)"),
    ]:
        code, out, err = run(capsys, "certify", "--vars", "x,y", text)
        assert (code, out, err) == (64, "", f"parse error: {message}\n"), text


def test_a_vars_entry_no_text_can_name_is_blamed_on_vars(capsys):
    code, out, err = run(capsys, "certify", "--vars", "x.1,y", "x.1*y")
    assert (code, out) == (64, "")
    assert err == "error: --vars: variable name 'x.1' is not a run of letters, digits and '_'\n"


def test_certify_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "certify",
        "--format",
        "json",
        "--vars",
        "w,x,y,z",
        SMOOTH_CUBIC_TEXT,
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "omegalab/1"
    assert data["verdict"] == "smooth-toric"
    assert data["polytope"]["vertices"] == sorted(data["polytope"]["vertices"])
    assert {r["k"] for r in data["k_reports"]} == {1, 2}


def test_certify_one_variable_is_a_point_with_no_facet(capsys):
    for text, d, top in (("x^2", 2, 1), ("x^3", 3, 3)):  # the summed rank d(d-1)/2
        code, out, _ = run(capsys, "certify", "--format", "json", "--vars", "x", text)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "smooth-toric"
        assert [r["disjoint"] for r in data["k_reports"]] == ["yes"] * (d - 1)
        assert data["polytope"] == {
            "dim": 0,
            "vertices": [[top]],
            "inequalities": [],
            "equations": [{"a": [1], "b": top}],
        }


def test_text_and_json_verdicts_agree(capsys):
    code_t, out_t, _ = run(capsys, "certify", "--vars", "w,x,y,z", SINGULAR_CUBIC_TEXT)
    code_j, out_j, _ = run(
        capsys, "certify", "--format", "json", "--vars", "w,x,y,z", SINGULAR_CUBIC_TEXT
    )
    assert code_t == code_j == 1
    assert json.loads(out_j)["verdict"] == "criterion-fails"
    assert "criterion-fails" in out_t


def test_polytope_matroid_truncated_tetrahedron(capsys):
    code, out, _ = run(
        capsys,
        "polytope",
        "--matroid",
        "12,13,14,23,24,34",
        "--function",
        "bar",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "omegalab/1"
    assert len(data["vertices"]) == 12
    assert data["simple"] is True and data["smooth"] is True


def test_polytope_base_octahedron_not_simple(capsys):
    code, out, _ = run(
        capsys,
        "polytope",
        "--matroid",
        "12,13,14,23,24,34",
        "--function",
        "base",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 6
    assert data["simple"] is False


def test_polytope_zero_setfunction(capsys):
    code, out, _ = run(
        capsys,
        "polytope",
        "--setfunction",
        '{"n": 2, "values": [0, 0, 0, 0]}',
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == [[0, 0]]


def test_polytope_rejects_non_polymatroid(capsys):
    code, _, err = run(
        capsys, "polytope", "--setfunction", '{"n": 2, "values": [0, 1, 1, 4]}'
    )
    assert code == 64
    assert "violating pair" in err


def test_mconvex_command(capsys):
    code, out, _ = run(capsys, "mconvex", "--vars", "x,y,z", "x*y^2 + z^3")
    assert code == 0
    assert "M-convex: False" in out


def test_lorentzian_command(capsys):
    code, out, _ = run(
        capsys, "lorentzian", "--format", "json", "--vars", "x1,x2,x3",
        "x1*x2+x1*x3+x2*x3",
    )
    assert code == 0
    assert json.loads(out)["is_lorentzian"] is True


def test_rank_command(capsys):
    code, out, _ = run(
        capsys,
        "rank",
        "--vars",
        "x1,x2,x3",
        "x1*x2+x1*x3+x2*x3",
        "--at",
        "1,1,1",
        "--dir",
        "1,0,0",
    )
    assert code == 0
    assert "rank: 1" in out


def test_rank_reads_a_negative_first_coordinate_of_at(capsys):
    # argparse took `-1,2` for an option and exited 64 with
    # "argument --at: expected one argument"
    args = ("rank", "--vars", "x,y", "x*y", "--dir", "1,1")
    assert run(capsys, *args, "--at", "-1,2") == (0, "rank: 2\n", "")
    assert run(capsys, *args, "--at=-1,2") == (0, "rank: 2\n", "")
    assert run(capsys, *args, "--at", "-1/2,-3") == (0, "rank: 2\n", "")
    # a value that is no point still reaches the point parser's message
    code, _, err = run(capsys, *args, "--at", "-1,a")
    assert code == 64 and err == "error: bad --at point '-1,a'; write e.g. 1,1,1\n"


def test_rank_reads_a_negative_first_coordinate_of_dir(capsys):
    args = ("rank", "--vars", "x,y", "x*y", "--at", "1,2")
    assert run(capsys, *args, "--dir", "-1,1") == (0, "rank: 2\n", "")
    assert run(capsys, *args, "--dir", "-1/2,-1") == (0, "rank: 2\n", "")
    # (1 - t)(2 + 0 t): the direction -1,0 meets x*y in degree 1
    assert run(capsys, *args, "--dir", "-1,0") == (0, "rank: 1\n", "")


def test_a_polynomial_text_that_starts_with_a_minus_is_the_positional(capsys):
    # argparse took "-x*y" for an unknown option and exited 64 with
    # "unrecognized arguments: -x*y"
    cases = [
        (("rank", "--vars", "x,y"), "-x*y", ("--at", "1,2", "--dir", "1,1")),
        (("rank", "--vars", "x,y"), "-x*y", ("--at", "-1,2", "--dir", "-1,1")),
        (("analyze", "--vars", "x,y"), "-x^2", ()),
        (("certify", "--vars", "x,y"), "-x*y", ("--format", "json")),
        (("certify", "--vars", "x,y"), "-2*x*y", ()),
        (("lorentzian", "--vars", "h,y"), "-h*y", ()),  # not the -h option
    ]
    for head, text, tail in cases:
        expected = run(capsys, *head, *tail, "--", text)
        assert expected[0] in (0, 1) and expected[2] == "", (text, expected)
        assert run(capsys, *head, text, *tail) == expected, (head, text)
        assert run(capsys, *head, *tail, text) == expected, (head, text)


def test_a_misspelt_option_still_exits_usage(capsys):
    code, err = usage_exit(capsys, "certify", "--vars", "x,y", "x*y", "--frmat", "json")
    assert code == 64 and "unrecognized arguments: --frmat json" in err
    code, err = usage_exit(capsys, "certify", "--vars", "x,y", "-x*y", "y^2")  # two texts
    assert code == 64 and "unrecognized arguments: -x*y" in err
    code, _ = usage_exit(capsys, "certify", "-h")  # a known option is still the option
    assert code == 0


def test_rank_stops_at_the_degree_guard(capsys):
    args = ("--vars", "x,y", "--at", "1,1", "--dir", "1,1", "--format", "json")
    code, out, _ = run(capsys, "rank", "x^11*y", *args)
    assert code == 0 and json.loads(out)["rank"] == 12
    code, out, err = run(capsys, "rank", "x^12*y", *args)
    detail = "degree guard: total degree 13 exceeds the cap 12"
    assert code == 3 and err == f"undecided: {detail}\n"
    assert json.loads(out) == {
        "schema": "omegalab/1",
        "command": "rank",
        "status": "undecided",
        "detail": detail,
    }


def test_rank_zero_line_is_input_error(capsys):
    code, _, err = run(
        capsys,
        "rank",
        "--vars",
        "x,y",
        "x^2 - y^2",
        "--at",
        "1,1",
        "--dir",
        "0,0",
    )
    assert code == 64


def test_certify_undecided_exit_three(capsys):
    code, out, _ = run(
        capsys,
        "certify",
        "--max-pairs",
        "1",
        "--vars",
        "w,x,y,z",
        SMOOTH_CUBIC_TEXT,
    )
    assert code == 3
    assert "undecided" in out


def test_certify_json_pair_cap_named_in_detail(capsys):
    code, out, _ = run(
        capsys,
        "certify",
        "--format",
        "json",
        "--max-pairs",
        "1",
        "--vars",
        "w,x,y,z",
        SMOOTH_CUBIC_TEXT,
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "undecided"
    undecided = [r for r in payload["k_reports"] if r["disjoint"] == "undecided"]
    assert undecided
    assert all("pair queue cap 1" in r["detail"] for r in undecided)


def test_certify_greedy_guard_named_in_detail(capsys):
    names = [f"x{i}" for i in range(1, 10)]
    text = " + ".join(f"{a}*{b}" for i, a in enumerate(names) for b in names[i + 1 :])
    code, out, _ = run(
        capsys, "certify", "--format", "json", "--vars", ",".join(names), text
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "undecided"
    assert payload["polytope"] is None
    (report,) = payload["k_reports"]
    assert report["k"] == 1
    assert report["disjoint"] == "undecided"
    assert "greedy enumeration capped at n <= 8" in report["detail"]
    code, out, _ = run(capsys, "certify", "--vars", ",".join(names), text)
    assert code == 3
    assert "disjoint=undecided (order-1 truncation polytope: greedy enumeration" in out


def test_certify_degree_guard_text_and_json(capsys):
    code, out, _ = run(capsys, "certify", "--vars", "x,y", "x^300*y^300")
    assert code == 3
    assert "verdict: undecided" in out
    assert "detail: degree guard: total degree 600 exceeds the cap 12" in out
    assert "M-convex support: not checked\n" in out
    code, out, _ = run(capsys, "certify", "--format", "json", "--vars", "x,y", "x^300*y^300")
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "undecided"
    assert payload["k_reports"] == [] and payload["polytope"] is None
    assert payload["detail"] == "degree guard: total degree 600 exceeds the cap 12"
    assert payload["mconvex"] is None


def test_certify_ground_set_guard_text_and_json(capsys):
    names = [f"x{i}" for i in range(1, 22)]
    text = " + ".join(f"x1*{v}" for v in names)
    detail = "ground-set guard: 21 variables exceed the cap 20"
    code, out, _ = run(capsys, "certify", "--format", "json", "--vars", ",".join(names), text)
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "undecided" and payload["detail"] == detail
    assert payload["k_reports"] == [] and payload["polytope"] is None
    code, out, _ = run(capsys, "certify", "--vars", ",".join(names), text)
    assert code == 3 and f"detail: {detail}" in out


def test_analyze_and_polytope_ground_set_guard_text_and_json(capsys):
    names = [f"x{i}" for i in range(1, 22)]
    text = " + ".join(f"x1*{v}" for v in names)
    detail = "ground set of size 21 exceeds the cap 20"
    for command in ("analyze", "polytope"):
        code, out, err = run(capsys, command, "--vars", ",".join(names), text)
        assert code == 3 and out == ""
        assert err == f"undecided: {detail}\n"
        code, out, _ = run(capsys, command, "--format", "json", "--vars", ",".join(names), text)
        assert code == 3
        assert json.loads(out) == {
            "schema": "omegalab/1",
            "command": command,
            "status": "undecided",
            "detail": detail,
        }


def test_probe_degree_guard_is_undecided(capsys):
    code, out, _ = run(
        capsys, "probe-smoothable", "--format", "json", "--vars", "x,y", "x^7*y^6", "--trials", "2"
    )
    assert code == 0
    assert json.loads(out)["counts"] == {"undecided": 2}


def test_analyze_and_lorentzian_degree_guard_text_and_json(capsys):
    detail = "degree guard: total degree 600 exceeds the cap 12"
    for command in ("analyze", "lorentzian"):
        code, out, err = run(capsys, command, "--vars", "x,y", "x^300*y^300")
        assert code == 3 and out == ""
        assert err == f"undecided: {detail}\n"
        code, out, _ = run(capsys, command, "--format", "json", "--vars", "x,y", "x^300*y^300")
        assert code == 3
        assert json.loads(out) == {
            "schema": "omegalab/1",
            "command": command,
            "status": "undecided",
            "detail": detail,
        }
    code, _, err = run(capsys, "lorentzian", "--vars", "x,y,z", "x^100*y^100*z^100")
    assert code == 3 and "total degree 300 exceeds the cap 12" in err


def test_probe_trials_cap_exits_usage(capsys):
    for fmt in ("text", "json"):
        code, out, err = run(
            capsys, "probe-smoothable", "--format", fmt, "--vars", "x,y", "x*y",
            "--trials", "10001",
        )
        assert code == 64 and out == ""
        assert err == "error: trials 10001 exceeds the cap 10000\n"


def test_certify_failed_self_check_prints_payload(capsys, monkeypatch):
    import omegalab.certify

    monkeypatch.setattr(omegalab.certify, "is_simple", lambda body: (False, body.vertices[0]))
    code, out, _ = run(capsys, "certify", "--format", "json", "--vars", "x,y,z", "x*y+x*z+y*z")
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "undecided" and payload["polytope"] is None
    assert payload["detail"].startswith("summed-truncation self-check")


def test_resource_limit_prints_json_payload(capsys):
    code, out, err = run(
        capsys, "polytope", "--matroid", "12,13", "--ground-set", "9", "--format", "json"
    )
    assert code == 3
    assert err == "undecided: greedy enumeration capped at n <= 8\n"
    assert json.loads(out) == {
        "schema": "omegalab/1",
        "command": "polytope",
        "status": "undecided",
        "detail": "greedy enumeration capped at n <= 8",
    }
    code, out, _ = run(capsys, "polytope", "--matroid", "12,13", "--ground-set", "9")
    assert code == 3 and out == ""


def test_probe_command(capsys):
    code, out, _ = run(
        capsys,
        "probe-smoothable",
        "--format",
        "json",
        "--vars",
        "x1,x2,x3",
        "x1*x2+x1*x3+x2*x3",
        "--trials",
        "3",
        "--seed",
        "5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["trials"] == 3
    assert data["counts"] == {"smooth-toric": 3}


def test_analyze_command(capsys):
    code, out, _ = run(
        capsys, "analyze", "--format", "json", "--vars", "x1,x2,x3",
        "x1^2*x2 + x1*x2^2 + x1^2*x3 + x1*x2*x3 + x2^2*x3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["mconvex"] is True
    assert data["k_spaces"][0]["m_k"] == 3
    assert data["k_spaces"][0]["num_monomials"] == 5
    assert data["k_spaces"][0]["centre_dim"] == 2


def test_matroid_element_outside_the_ground_set_exits_usage(capsys):
    code, out, err = run(
        capsys, "polytope", "--matroid", "13,23", "--ground-set", "2", "--format", "json"
    )
    assert code == 64 and out == ""
    assert err == "error: basis element 3 lies outside the ground set 1..2\n"


def test_polytope_reaches_the_greedy_guard_without_the_polymatroid_scan(capsys, monkeypatch):
    import omegalab.cli

    calls = []

    def counted(*args, _real=omegalab.cli.is_polymatroid, **kwargs):
        calls.append(args)
        return _real(*args, **kwargs)

    monkeypatch.setattr(omegalab.cli, "is_polymatroid", counted)
    code, out, err = run(
        capsys, "polytope", "--matroid", "12,13", "--ground-set", "20", "--format", "json"
    )
    assert code == 3 and json.loads(out)["status"] == "undecided"
    assert err == "undecided: greedy enumeration capped at n <= 8\n"
    assert calls == []
    # a non-polymatroid within the guard still names its violating pair
    code, _, err = run(capsys, "polytope", "--setfunction", '{"n": 2, "values": [0, 2, 2, 1]}')
    assert code == 64 and "violating pair" in err and len(calls) == 1
    code, _, err = run(
        capsys, "polytope", "--function", "bar", "--setfunction", '{"n": 2, "values": [0, 2, 0, 1]}'
    )
    assert code == 64 and "violating pair" in err and len(calls) == 2


def test_polytope_bar_builds_only_the_summed_polytope(capsys, monkeypatch):
    import omegalab.cli
    import omegalab.polytope

    built = []

    def counted(f, *args, _real=omegalab.polytope._polymatroid_polytope, **kwargs):
        built.append(f)
        return _real(f, *args, **kwargs)

    for module in (omegalab.cli, omegalab.polytope):  # whatever path reaches the greedy builder
        monkeypatch.setattr(module, "_polymatroid_polytope", counted)
    code, out, _ = run(
        capsys, "polytope", "--matroid", "12,13,14,23,24,34", "--function", "bar", "--format", "json"
    )
    assert code == 0 and len(json.loads(out)["vertices"]) == 12
    assert built == [truncation_sum(SetFunction.uniform_matroid(2, 4))]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    import omegalab.cli

    run(capsys, "rank", "--vars", "x,y", "x*y", "--at", "1,1", "--dir", "1,0")
    built = []
    real_init = omegalab.cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(omegalab.cli._Parser, "__init__", counted)
    for _ in range(3):
        code, out, _ = run(capsys, "rank", "--vars", "x,y", "x*y", "--at", "1,1", "--dir", "1,0")
        assert code == 0 and out == "rank: 1\n"
    assert built == []


def test_analyze_checks_mconvexity_once(capsys, monkeypatch):
    import omegalab.certify
    import omegalab.cli

    calls = []

    def counted(*args, _real=omegalab.certify.is_mconvex, **kwargs):
        calls.append(args)
        return _real(*args, **kwargs)

    for module in (omegalab.certify, omegalab.cli):
        monkeypatch.setattr(module, "is_mconvex", counted)
    e34 = "x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4"
    code, out, _ = run(capsys, "analyze", "--format", "json", "--vars", "x1,x2,x3,x4", e34)
    assert code == 0 and json.loads(out)["lorentzian"]["mconvex"] is True
    assert len(calls) == 1


def test_analyze_rejects_constant(capsys):
    code, _, err = run(capsys, "analyze", "--vars", "x", "3")
    assert code == 64


def usage_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_malformed_flag_value_exits_usage(capsys):
    code, err = usage_exit(capsys, "certify", "--vars", "x,y", "x*y", "--max-pairs", "abc")
    assert code == 64
    assert "usage:" in err
    assert "--max-pairs" in err


def test_unknown_flag_exits_usage(capsys):
    code, err = usage_exit(capsys, "certify", "--vars", "x,y", "x*y", "--jobs", "2")
    assert code == 64
    assert "unrecognized arguments: --jobs 2" in err


def test_max_pairs_only_on_the_groebner_commands(capsys):
    code, err = usage_exit(capsys, "mconvex", "--vars", "x,y", "x*y", "--max-pairs", "5")
    assert code == 64
    assert "unrecognized arguments: --max-pairs 5" in err
    for command in ("certify", "probe-smoothable"):
        code, _, _ = run(capsys, command, "--vars", "x,y", "x*y", "--max-pairs", "5")
        assert code == 0


def test_help_exits_zero(capsys):
    for argv in (("--help",), ("certify", "--help")):
        code, _ = usage_exit(capsys, *argv)
        assert code == 0


def test_max_pairs_must_be_positive(capsys):
    for value in ("-5", "0"):
        code, err = usage_exit(
            capsys, "certify", "--vars", "x,y", "x*y", "--max-pairs", value
        )
        assert code == 64
        assert f"argument --max-pairs: expected a positive integer, got '{value}'" in err


def test_trials_must_be_positive(capsys):
    for value in ("-3", "0"):
        code, err = usage_exit(
            capsys, "probe-smoothable", "--vars", "x,y", "x*y", "--trials", value
        )
        assert code == 64
        assert f"argument --trials: expected a positive integer, got '{value}'" in err


def test_no_command_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 64


def test_exit_codes_are_pure_verdict_function(capsys):
    # same verdict, inline vs file input, must map to the same exit code
    for argv, expected in [
        (("certify", "--vars", "x,y", "x*y"), 0),
        (("certify", "--vars", "w,x,y,z", SINGULAR_CUBIC_TEXT), 1),
        (("certify", "--vars", "x,y,z", "x*y^2 + z^3"), 2),
    ]:
        code, _, _ = run(capsys, *argv)
        assert code == expected


def test_polynomial_polytope_guards_fire_before_the_rank_table(capsys, monkeypatch):
    import omegalab.cli

    calls = []

    def counted(*args, _real=omegalab.cli.rank_from_support):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(omegalab.cli, "rank_from_support", counted)
    names = [f"x{i}" for i in range(1, 21)]
    e220 = " + ".join(f"{a}*{b}" for k, a in enumerate(names) for b in names[k + 1 :])
    code, out, err = run(capsys, "polytope", "--format", "json", "--vars", ",".join(names), e220)
    assert code == 3 and calls == []
    assert err == "undecided: greedy enumeration capped at n <= 8\n"
    assert json.loads(out)["detail"] == "greedy enumeration capped at n <= 8"
    # within the guards the table is built once
    code, out, _ = run(capsys, "polytope", "--vars", "x,y,z", "x*y + x*z + y*z")
    assert code == 0 and len(calls) == 1 and "3 vertices" in out


def test_matroid_greedy_guard_fires_before_the_rank_table(capsys, monkeypatch):
    from omegalab import SetFunction

    calls = []
    real = SetFunction.from_bases.__func__

    def counted(cls, *args):
        calls.append(args)
        return real(cls, *args)

    monkeypatch.setattr(SetFunction, "from_bases", classmethod(counted))
    code, out, err = run(
        capsys, "polytope", "--matroid", "12,13", "--ground-set", "20", "--format", "json"
    )
    assert code == 3 and calls == []
    assert err == "undecided: greedy enumeration capped at n <= 8\n"
    assert json.loads(out) == {
        "schema": "omegalab/1",
        "command": "polytope",
        "status": "undecided",
        "detail": "greedy enumeration capped at n <= 8",
    }
    # the basis-element range check still comes first, and within the guard
    # the table is built as before
    code, _, err = run(capsys, "polytope", "--matroid", "10,20", "--ground-set", "20")
    assert code == 64 and err == "error: basis element 0 lies outside the ground set 1..20\n"
    assert run(capsys, "polytope", "--matroid", "12,13,23")[0] == 0
    assert calls == [(3, [[1, 2], [1, 3], [2, 3]])]


def test_partial_count_guard_text_and_json(capsys):
    names = ",".join(f"x{i}" for i in range(1, 13))
    text = "*".join(f"x{i}" for i in range(1, 13))
    code, out, _ = run(capsys, "certify", "--format", "json", "--vars", names, text)
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "undecided" and payload["k_reports"] == []
    assert payload["detail"] == (
        "partial-count guard: 705432 order-11 partials exceed the cap 10000"
    )
    detail = "partial-count guard: 352716 order-10 partials exceed the cap 10000"
    for command in ("analyze", "lorentzian"):
        code, out, err = run(capsys, command, "--vars", names, text)
        assert code == 3 and out == "" and err == f"undecided: {detail}\n"
        code, out, _ = run(capsys, command, "--format", "json", "--vars", names, text)
        assert code == 3
        assert json.loads(out) == {
            "schema": "omegalab/1",
            "command": command,
            "status": "undecided",
            "detail": detail,
        }


@pytest.mark.parametrize(
    "text",
    [
        "[1,2]",
        "null",
        '{"n": 2, "values": 5}',
        '{"n": null, "values": []}',
        '{"n": 2, "values": [0, 1.7, 1, 2]}',
        '{"n": 2.9, "values": [0, 1, 1, 2]}',
        '{"n": true, "values": [0, 1]}',
        '{"n": 1, "values": [0, false]}',
    ],
)
def test_setfunction_json_of_the_wrong_shape_exits_usage(capsys, text):
    code, out, err = run(capsys, "polytope", "--setfunction", text)
    assert code == 64 and out == ""
    assert err.startswith("error: bad set function JSON: ") and err.count("\n") == 1


def test_ground_set_must_be_positive(capsys):
    for value in ("0", "-2"):
        code, err = usage_exit(
            capsys, "polytope", "--matroid", "12,13", f"--ground-set={value}"
        )
        assert code == 64
        assert f"argument --ground-set: expected a positive integer, got '{value}'" in err


def test_matroid_without_a_basis_exits_usage(capsys):
    for text in (",", " , "):
        code, out, err = run(capsys, "polytope", "--matroid", text)
        assert code == 64 and out == ""
        assert err == "error: at least one basis is required\n"


ONE_INPUT = "error: give only one of --matroid, --setfunction, or a polynomial\n"
GROUND_SET = "error: --ground-set applies to --matroid only\n"
VARS = "error: --vars applies to a polynomial only\n"
PAIR = '{"n": 2, "values": [0, 1, 1, 2]}'
# a quadric whose support rank function is not submodular
QUADRIC = ["--vars", "x1,x2,x3,x4,x5", "x3*x4 + x2*x3 + x1*x5 + x1*x2"]
NOT_POLYMATROID = "error: not a polymatroid: violating pair S=(1, 3), T=(1, 4)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--matroid", "12,13", "--setfunction", PAIR], ONE_INPUT),
        (["--matroid", "12", "--vars", "x,y", "x*y"], ONE_INPUT),
        (["--matroid", "12", "--vars", "x,y", "--file", "h.poly"], ONE_INPUT),
        (["--setfunction", PAIR, "--vars", "x,y", "x*y"], ONE_INPUT),
        (["--setfunction", PAIR, "--ground-set", "5"], GROUND_SET),
        (["--vars", "x,y", "x*y", "--ground-set", "2"], GROUND_SET),
        (["--matroid", "12", "--vars", "x,y"], VARS),
        (["--setfunction", PAIR, "--vars", "x,y,z", "--function", "bar"], VARS),
        (QUADRIC, NOT_POLYMATROID),
        ([*QUADRIC, "--function", "bar"], NOT_POLYMATROID),
        ([*QUADRIC, "--function", "independence"], NOT_POLYMATROID),
    ],
)
def test_polytope_conflicting_inputs_exit_usage(capsys, argv, message):
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "polytope", "--format", fmt, *argv)
        assert (code, out, err) == (64, "", message)


NOT_HOMOGENEOUS = ["--vars", "x,y", "x^2 + y"]
ABSENT_Z = ["--vars", "x,y,z", "x*y + y^2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--vars", ",", "x"], "--vars must list at least one variable"),
        (["certify", "--vars", "x,2y", "x*2y"], "--vars: variable name '2y' starts with a digit"),
        (["certify", "--vars", "x", "--file", "no-such.poly"], "cannot read no-such.poly: "),
        (["polytope", "--matroid", "12,1x"], "bad basis '1x'; write e.g. 12,13,14,23,24,34"),
        (["polytope"], "give --matroid, --setfunction, or a polynomial"),
        (["polytope", *NOT_HOMOGENEOUS], "polynomial input must be nonzero homogeneous"),
        (["mconvex", *NOT_HOMOGENEOUS], "mconvex needs a nonzero homogeneous polynomial"),
        (["probe-smoothable", *NOT_HOMOGENEOUS], "probe-smoothable needs a nonzero homogeneous polynomial"),
        (["rank", "--vars", "x,y", "x*y", "--at", "1,a", "--dir", "1,1"], "bad --at point '1,a'; write e.g. 1,1,1"),
        (["rank", "--vars", "x,y", "x*y", "--at", "1,1", "--dir", "1"], "--dir point needs 2 coordinates"),
        (["certify", *ABSENT_Z], "variable index 2 does not occur in the polynomial"),
        (["probe-smoothable", *ABSENT_Z], "variable index 2 does not occur in the support"),
    ],
)
def test_usage_errors_exit_64_with_their_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
