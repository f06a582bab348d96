"""Command-line front end.

Commands: analyze, certify, polytope, mconvex, lorentzian, rank,
probe-smoothable.  Polynomials are read inline or from a .poly file; the
variable order is declared with --vars.  Every JSON payload carries
"schema": "omegalab/1".

certify exit codes: 0 smooth-toric, 1 criterion-fails, 2 not-applicable,
3 undecided, 64 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import SCHEMA
from .certify import (
    SmoothnessCertificate,
    certify_smooth,
    is_lorentzian,
    is_mconvex,
    smoothable_probe,
)
from .derivatives import derivative_space
from .groebner import DEFAULT_MAX_PAIRS
from .guards import ResourceLimit, greedy_guard, ground_set_guard
from .poly import ParseError, Polynomial, parse_polynomial
from .polytope import _polymatroid_polytope, _require_polymatroid, is_simple
from .setfunc import (
    SetFunction,
    basis_masks,
    hyperbolic_rank,
    mask_to_set,
    rank_from_support,
    truncation_sum,
)

EXIT_SMOOTH = 0
EXIT_FAILS = 1
EXIT_NOT_APPLICABLE = 2
EXIT_UNDECIDED = 3
EXIT_USAGE = 64

VERDICT_EXIT_CODES = {
    "smooth-toric": EXIT_SMOOTH,
    "criterion-fails": EXIT_FAILS,
    "not-applicable": EXIT_NOT_APPLICABLE,
    "undecided": EXIT_UNDECIDED,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 64, not argparse's 2, which
    certify reserves for not-applicable.  Subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads a value that starts with '-' as an option unless it is a plain
        # number: `--at -1,2` becomes `--at=-1,2`, and a text such as "-x*y" moves behind `--`
        args = list(sys.argv[1:] if args is None else args)
        cut = args.index("--") if "--" in args else len(args)
        joined, texts = [], args[cut + 1 :]  # texts: what follows `--`, then the moved ones
        for arg in args[:cut]:
            if joined and joined[-1] in ("--at", "--dir") and re.match(r"-[\d.]", arg):
                joined[-1] += "=" + arg
            elif re.match(r"-[^-]", arg) and not self._negative_number_matcher.match(arg):
                (joined if arg in self._option_string_actions else texts).append(arg)
            else:
                joined.append(arg)
        return super().parse_known_args(joined + ["--"] * bool(texts) + texts, namespace)


def _positive_int(text: str) -> int:
    message = f"expected a positive integer, got {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < 1:
        raise argparse.ArgumentTypeError(message)
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("polynomial", nargs="?", help="inline polynomial text")
    parser.add_argument("--file", help="read the polynomial from this .poly file")
    parser.add_argument("--vars", help="comma-separated variable order, e.g. --vars x,y,z,w")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _read_polynomial(args) -> tuple[Polynomial, list[str], str]:
    if not args.vars:
        raise ValueError("--vars is required")
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if not names:
        raise ValueError("--vars must list at least one variable")
    sources = [s for s in (args.polynomial, args.file) if s]
    if len(sources) != 1:
        raise ValueError("give exactly one input: inline text or --file")
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read().strip()
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc}")
    else:
        text = args.polynomial
    try:
        return parse_polynomial(text, names), names, text
    except ValueError as exc:  # a ParseError blames the text, any other the variable order
        raise exc if isinstance(exc, ParseError) else ValueError(f"--vars: {exc}")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":  # streamed: the indented text of a large polytope is never held whole
        json.dump({"schema": SCHEMA, **payload}, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for line in text_lines:
            print(line)


def _cmd_certify(args) -> int:
    h, names, text = _read_polynomial(args)
    cert = certify_smooth(h, text=text, max_pairs=args.max_pairs)
    payload = {"command": "certify", **cert.to_json_dict()}
    _emit(args, payload, _certificate_lines(cert, names) if args.format == "text" else [])
    return VERDICT_EXIT_CODES[cert.verdict]


def _certificate_lines(cert: SmoothnessCertificate, names: list[str]) -> list[str]:
    lines = [
        f"polynomial: {cert.polynomial}",
        f"variables:  {', '.join(names)}",
        f"degree {cert.degree} in {cert.nvars} variables",
        f"M-convex support: {'not checked' if cert.mconvex is None else cert.mconvex}",
    ]
    if cert.lorentzian is not None:
        lines.append(f"Lorentzian: {cert.lorentzian.is_lorentzian}")
    for report in cert.k_reports:
        line = (
            f"k={report.k}: span dim {report.span_dim}, "
            f"{report.num_monomials} monomials, centre dim {report.centre_dim}, "
            f"disjoint={report.disjoint}"
        )
        if report.witness_face:
            line += f", witness face vertices {[list(v) for v in report.witness_face]}"
        elif report.detail:
            line += f" ({report.detail})"
        lines.append(line)
    lines.append(f"verdict: {cert.verdict}")
    if cert.detail:
        lines.append(f"detail: {cert.detail}")
    if cert.polytope is not None:
        lines.append(
            f"toric polytope: {len(cert.polytope.vertices)} vertices, dim {cert.polytope.dim}"
        )
        lines.append(f"vertices: {[list(v) for v in cert.polytope.vertices]}")
    return lines


def _cmd_analyze(args) -> int:
    h, names, text = _read_polynomial(args)
    if h.is_zero or not h.is_homogeneous or h.total_degree < 1:
        raise ValueError("analyze needs a nonzero homogeneous polynomial of degree >= 1")
    supp = sorted(h.support())
    rho = rank_from_support(supp)  # its ground-set guard first
    mcx, witness = is_mconvex(supp)
    payload: dict = {
        "command": "analyze",
        "polynomial": text,
        "n": h.nvars,
        "d": h.total_degree,
        "support": [list(e) for e in supp],
        "mconvex": mcx,
        "rho": {"n": rho.n, "values": list(rho.values)},
    }
    lines = [
        f"polynomial: {text}",
        f"degree {h.total_degree} in {h.nvars} variables, {len(supp)} terms",
        f"support: {[list(e) for e in supp]}",
        f"M-convex: {mcx}" + ("" if mcx else f" (witness {witness})"),
    ]
    rho_table = {
        ",".join(map(str, mask_to_set(mask))) or "{}": rho.values[mask]
        for mask in range(1 << h.nvars)
    }
    lines.append(f"rank table: {rho_table}")
    if h.total_degree >= 2:
        lor = is_lorentzian(h, mcx)
        payload["lorentzian"] = lor.to_json_dict()
        lines.append(f"Lorentzian: {lor.is_lorentzian}")
    per_k = []
    for k in range(1, max(h.total_degree, 1)):
        space = derivative_space(h, k)
        centre_dim = len(space.columns) - space.span_dimension
        per_k.append(
            {
                "k": k,
                "m_k": space.span_dimension,
                "num_monomials": len(space.columns),
                "centre_dim": centre_dim,
                "basis": [p.to_string(names) for p in space.basis],
            }
        )
        lines.append(
            f"k={k}: span dim {space.span_dimension}, {len(space.columns)} monomials, "
            f"centre dim {centre_dim}"
        )
        for p in space.basis:
            lines.append(f"    {p.to_string(names)}")
    payload["k_spaces"] = per_k
    _emit(args, payload, lines)
    return 0


def _parse_setfunction_arg(args) -> SetFunction:
    if args.matroid:
        chunks = [c.strip() for c in args.matroid.split(",") if c.strip()]
        bases = []
        for chunk in chunks:
            try:
                bases.append([int(ch) for ch in chunk])
            except ValueError:
                raise ValueError(f"bad basis {chunk!r}; write e.g. 12,13,14,23,24,34")
        n = args.ground_set or max((max(b) for b in bases), default=0)  # no basis: exits 64 below
        basis_masks(n, bases)  # a bad family exits 64 first
        greedy_guard(n)  # every polytope command stops here, before the 2^n table
        return SetFunction.from_bases(n, bases)
    try:
        return SetFunction.from_json(args.setfunction)
    except ValueError as exc:
        raise ValueError(f"bad set function JSON: {exc}")


def _cmd_polytope(args) -> int:
    given = [s for s in (args.matroid, args.setfunction, args.polynomial or args.file) if s]
    if not given:
        raise ValueError("give --matroid, --setfunction, or a polynomial")
    if len(given) > 1:
        raise ValueError("give only one of --matroid, --setfunction, or a polynomial")
    if args.ground_set and not args.matroid:
        raise ValueError("--ground-set applies to --matroid only")
    if args.vars and (args.matroid or args.setfunction):
        raise ValueError("--vars applies to a polynomial only")
    if args.matroid or args.setfunction:
        f = _parse_setfunction_arg(args)
    else:
        h, _, _ = _read_polynomial(args)
        if h.is_zero or not h.is_homogeneous:
            raise ValueError("polynomial input must be nonzero homogeneous")
        ground_set_guard(h.nvars)
        greedy_guard(h.nvars)  # both guards before rho's 2^n table
        f = rank_from_support(h.support())
    f = _require_polymatroid(f)  # the greedy guard, then the axiom scan
    f = truncation_sum(f) if args.function == "bar" else f  # a sum of polymatroids is one
    body = _polymatroid_polytope(f, bases_only=args.function != "independence")
    # every body is a polymatroid polytope, where simple is smooth
    simple, _ = is_simple(body)
    payload = {
        "command": "polytope",
        "function": args.function,
        **body.to_json_dict(),
        "simple": simple,
        "smooth": simple,
    }
    lines = [
        f"{args.function} polytope: dim {body.dim}, {len(body.vertices)} vertices, "
        f"{len(body.inequalities)} facets",
        f"vertices: {[list(v) for v in body.vertices]}",
        f"simple: {simple}",
        f"smooth: {simple}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_mconvex(args) -> int:
    h, _, text = _read_polynomial(args)
    if h.is_zero or not h.is_homogeneous:
        raise ValueError("mconvex needs a nonzero homogeneous polynomial")
    mcx, witness = is_mconvex(h.support())
    payload = {
        "command": "mconvex",
        "polynomial": text,
        "mconvex": mcx,
        "witness": [list(w) if isinstance(w, tuple) else w for w in witness]
        if witness
        else None,
    }
    lines = [f"M-convex: {mcx}"]
    if witness:
        x, y, i = witness
        lines.append(f"witness: x={list(x)}, y={list(y)}, index {i + 1} has no exchange")
    _emit(args, payload, lines)
    return 0


def _cmd_lorentzian(args) -> int:
    h, _, text = _read_polynomial(args)
    report = is_lorentzian(h)
    payload = {"command": "lorentzian", "polynomial": text, **report.to_json_dict()}
    lines = [
        f"nonnegative coefficients: {report.nonneg_coeffs}",
        f"M-convex support: {report.mconvex}",
        f"Hessian failures: {[list(m) for m in report.hessian_failures]}",
        f"Lorentzian: {report.is_lorentzian}",
    ]
    _emit(args, payload, lines)
    return 0


def _parse_point(text: str, n: int, what: str) -> list[Fraction]:
    try:
        values = [Fraction(ch.strip()) for ch in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad {what} {text!r}; write e.g. 1,1,1")
    if len(values) != n:
        raise ValueError(f"{what} needs {n} coordinates")
    return values


def _cmd_rank(args) -> int:
    h, _, text = _read_polynomial(args)
    base = _parse_point(args.at, h.nvars, "--at point")
    direction = _parse_point(args.direction, h.nvars, "--dir point")
    value = hyperbolic_rank(h, base, direction)
    payload = {"command": "rank", "polynomial": text, "rank": value}
    _emit(args, payload, [f"rank: {value}"])
    return 0


def _cmd_probe(args) -> int:
    h, _, text = _read_polynomial(args)
    if h.is_zero or not h.is_homogeneous:
        raise ValueError("probe-smoothable needs a nonzero homogeneous polynomial")
    report = smoothable_probe(
        h.support(), trials=args.trials, seed=args.seed, max_pairs=args.max_pairs
    )
    payload = {"command": "probe-smoothable", "polynomial": text, **report.to_json_dict()}
    lines = [
        f"trials: {report.trials} (seed {report.seed})",
        f"counts: {report.counts}",
    ]
    _emit(args, payload, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="omegalab",
        description="Exact smoothness certificates for gradient-map resolutions.",
    )
    sub = parser.add_subparsers(dest="command")

    p_certify = sub.add_parser("certify", help="run the full smoothness criterion")
    _add_common(p_certify)
    p_certify.set_defaults(func=_cmd_certify)

    p_analyze = sub.add_parser("analyze", help="support, rank table, Lorentzian, spans")
    _add_common(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_polytope = sub.add_parser("polytope", help="base/independence polytopes")
    _add_common(p_polytope)
    p_polytope.add_argument(
        "--function", choices=("base", "independence", "bar"), default="base"
    )
    p_polytope.add_argument(
        "--matroid", help='basis list, e.g. --matroid "12,13,14,23,24,34"'
    )
    p_polytope.add_argument("--setfunction", help='JSON {"n": ..., "values": [...]}')
    p_polytope.add_argument("--ground-set", type=_positive_int, help="ground-set size of --matroid")
    p_polytope.set_defaults(func=_cmd_polytope)

    p_mconvex = sub.add_parser("mconvex", help="exchange-axiom check of the support")
    _add_common(p_mconvex)
    p_mconvex.set_defaults(func=_cmd_mconvex)

    p_lorentzian = sub.add_parser("lorentzian", help="exact Lorentzian signature test")
    _add_common(p_lorentzian)
    p_lorentzian.set_defaults(func=_cmd_lorentzian)

    p_rank = sub.add_parser("rank", help="line degree at a base point and direction")
    _add_common(p_rank)
    p_rank.add_argument("--at", required=True, help="base point, e.g. --at 1,1,1")
    p_rank.add_argument("--dir", dest="direction", required=True, help="direction")
    p_rank.set_defaults(func=_cmd_rank)

    p_probe = sub.add_parser(
        "probe-smoothable", help="random-coefficient probe over a fixed support"
    )
    _add_common(p_probe)
    p_probe.add_argument("--trials", type=_positive_int, default=5)
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.set_defaults(func=_cmd_probe)

    for p in (p_certify, p_probe):  # the commands that run Groebner bases
        p.add_argument(
            "--max-pairs",
            type=_positive_int,
            default=DEFAULT_MAX_PAIRS,
            help="cap on the S-pairs one Groebner basis reduces, after Gebauer-Moeller"
            " pruning, before reporting undecided",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimit as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        payload = {"command": args.command, "status": "undecided", "detail": str(exc)}
        _emit(args, payload, [])
        return EXIT_UNDECIDED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
