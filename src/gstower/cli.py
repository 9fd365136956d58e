"""Command-line front end.

Every pipeline in the package is reachable through one subcommand.  Exit
codes: 0 = computed and all asserted properties hold, 1 = computed but a
checked property fails (INVALID sequence, VIOLATED inequality, a failed
group cross-check), 2 = input error.

Witnesses and thresholds are printed as exact fractions; table mode adds
a decimal approximation labeled as such.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .bounds import upper_caps
from .gs_check import (
    CheckMode,
    RelationProfile,
    check_inequality,
    classify_ztypes,
    strict_corollary_check,
)
from .group_lab import (
    BUILTIN_GROUPS,
    augmentation_powers,
    builtin_presentation,
    build_group,
    dimension_subgroups,
    fox_formula_holds,
    lazard_check,
    parse_group_file,
    verify_recursion,
)
from .jennings import DimensionSequence, jennings_transform
from .search import brute_force_infeasibility, min_order_search
from .validity import is_valid, mildness_defect

_CSV_COMMANDS = {"caps", "valid", "mildness", "minorder"}


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _pair(text: str) -> tuple[int, int]:
    vals = _int_list(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}")
    return vals  # type: ignore[return-value]


def _frac(x) -> str | None:
    return None if x is None else str(Fraction(x))


def _approx(x) -> str:
    return f"{float(x):.6g}"


@functools.cache  # built once per process, on first use
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gstower",
        description="Exact-arithmetic calculations around filtration "
        "inequalities for finite p-groups and pro-p order bounds.",
    )
    parser.add_argument("--json", action="store_true", help="shorthand for --format json")
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (csv only for sequence tables)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, body, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=body)  # main calls args.run(args)
        return sp

    sp = command("ztypes", _cmd_ztypes, "classify feasible odd level pairs for d=2, r=2")
    sp.add_argument("--max-level", type=int, default=21, metavar="N")

    sp = command("caps", _cmd_caps, "upper bounds for the dimension factors")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--ztype37", action="store_true", help="apply the level-(3,7) refinement at n=7")

    for name, body, help_text in (
        ("check", _cmd_check, "decide the presentation inequality for a sequence"),
        ("strict", _cmd_strict, "decide the strengthened inequality with the slack term"),
        ("mildness", _cmd_mildness, "print the defect sequence measuring failure of mildness"),
    ):
        sp = command(name, body, help_text)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--d", type=int, required=True)
        sp.add_argument("--levels", type=_int_list, required=True, metavar="L1,L2,...")
        sp.add_argument("--a", type=_int_list, required=True, metavar="A1,A2,...")
        if body is _cmd_check:
            sp.add_argument(
                "--mode",
                choices=("exact", "relaxed"),
                default="relaxed",
                help="exact multiplies through by the full filtration "
                "polynomial, whose degree grows like (p-1) * sum(n * a_n)",
            )

    sp = command("minorder", _cmd_minorder, "greedy minimal-sum search with violation trace")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--ab", type=_pair, default=(1, 1), metavar="A,B")

    sp = command("bruteforce", _cmd_bruteforce,
                 "confirm every capped sequence below a sum violates")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--sumlimit", type=int, required=True)
    sp.add_argument("--nmax", type=int, default=9)

    sp = command("valid", _cmd_valid, "full validity report for a dimension sequence")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=_int_list, required=True, metavar="A1,A2,...")
    sp.add_argument("--levels", type=_int_list, default=(3, 7), metavar="L1,L2")

    sp = command("grouplab", _cmd_grouplab, "measure a small p-group and cross-check the theory")
    sp.add_argument("--group", metavar="KIND", help=" | ".join(
        f"{name}:{arg}" if arg else name for name, (arg, _, _) in BUILTIN_GROUPS.items()))
    sp.add_argument("--p", type=int)
    sp.add_argument("--input", metavar="FILE", help="plain-text group file instead of a built-in")
    sp.add_argument(
        "--verify",
        metavar="CHECKS",
        help="comma list from jennings,lazard,recursion,fox (default: all that apply)",
    )
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (exit code, JSON payload, table lines,
# (csv header, rows) or None where csv is not offered); main prints
# ---------------------------------------------------------------------------

def _cmd_ztypes(args):
    pairs = sorted(classify_ztypes(args.max_level))
    lines = [f"feasible level pairs up to {args.max_level}:"]
    lines += [f"  ({m1},{m2})" for m1, m2 in pairs]
    return 0, {"max_level": args.max_level, "ztypes": [list(p) for p in pairs]}, lines, None


def _cmd_caps(args):
    profile = upper_caps(args.p, args.nmax, ztype_37=args.ztype37)
    caps = profile.as_list()
    lines = [
        f"caps for p = {args.p}, n <= {args.nmax}" + (" (with a_7 refinement)" if args.ztype37 else ""),
        "  n:   " + " ".join(f"{n:3d}" for n in range(1, len(caps) + 1)),
        "  cap: " + " ".join(f"{c:3d}" for c in caps),
    ]
    payload = {"p": args.p, "nmax": args.nmax, "ztype37": args.ztype37, "caps": caps}
    return 0, payload, lines, (("n", "cap"), enumerate(caps, start=1))


def _profile_and_sequence(args) -> tuple[RelationProfile, DimensionSequence]:
    profile = RelationProfile(args.d, tuple(args.levels))
    a = DimensionSequence.from_values(args.p, args.a)
    return profile, a


def _verdict(args, report, extra: dict, lines: list[str]):
    """The result of check or strict; the table prints the payload's
    witness strings."""
    payload = {
        "p": args.p,
        "d": args.d,
        "levels": list(args.levels),
        "a": list(args.a),
        "verdict": report.verdict.value,
        "witness": _frac(report.witness),
        "witness_value": _frac(report.witness_value),
        **extra,
    }
    lines.append(f"verdict: {report.verdict.value}")
    if report.witness is not None:
        lines.append(
            f"witness: t = {payload['witness']} (~{_approx(report.witness)}), "
            f"value = {payload['witness_value']} (~{_approx(report.witness_value)})"
        )
    return (0 if report.holds else 1), payload, lines, None


def _cmd_check(args):
    profile, a = _profile_and_sequence(args)
    mode = CheckMode.EXACT if args.mode == "exact" else CheckMode.RELAXED
    report = check_inequality(profile, a, mode)
    return _verdict(args, report, {"mode": mode.value}, [f"mode: {mode.value}"])


def _cmd_strict(args):
    profile, a = _profile_and_sequence(args)
    report = strict_corollary_check(profile, a)
    return _verdict(args, report, {"order_exponent": a.order_exponent}, [])


def _cmd_mildness(args):
    profile, a = _profile_and_sequence(args)
    defects = mildness_defect(a, profile)
    payload = {
        "p": args.p,
        "d": args.d,
        "levels": list(args.levels),
        "a": list(args.a),
        "e": list(defects),
        "horizon": len(defects),
    }
    lines = [
        f"defect sequence e_1..e_{len(defects)}:",
        "  " + " ".join(str(v) for v in defects),
    ]
    if defects and all(v == 0 for v in defects):
        lines.append("  mild: every defect vanishes")
    return 0, payload, lines, (("n", "defect"), enumerate(defects, start=1))


def _cmd_minorder(args):
    result = min_order_search(args.p, *args.ab)
    seq = result.sequence.as_list()
    trace = [
        {
            "a": list(step.sequence),
            "sum": step.total,
            "witness": _frac(step.witness),
            "witness_value": _frac(step.witness_value),
        }
        for step in result.violation_trace
    ]
    payload = {
        "p": args.p,
        "ab": list(result.ab),
        "a": seq,
        "min_sum": result.min_sum,
        "order_exponent": result.order_exponent_bound,
        "trace": trace,
    }
    lines = [
        f"first feasible sequence: {tuple(seq)}  (sum {result.min_sum})",
        f"order exponent bound: {result.order_exponent_bound}",
        f"violated stages: {len(trace)}",
    ]
    lines += [
        f"  sum {step.total:2d}  a = {step.sequence}  "
        f"violated at t = {row['witness']} (~{_approx(step.witness)})"
        for step, row in zip(result.violation_trace, trace)
    ]
    return 0, payload, lines, (("n", "a_n"), enumerate(seq, start=1))


def _cmd_bruteforce(args):
    result = brute_force_infeasibility(args.p, args.sumlimit, n_max=args.nmax)
    payload = {
        "p": args.p,
        "sumlimit": args.sumlimit,
        "nmax": args.nmax,
        "examined": result.examined,
        "all_violated": result.all_violated,
        "holds_examples": [list(s) for s in result.holds_examples],
        "full_decisions": result.full_decisions,
    }
    lines = [
        f"examined {result.examined} capped sequences with sum <= {args.sumlimit}",
        f"{result.full_decisions} needed the full positivity decision",
    ]
    if result.all_violated:
        lines.append("all violated the relaxed inequality")
    else:
        lines.append("sequences where the inequality HOLDS:")
        lines += [f"  {s}" for s in result.holds_examples]
    return (0 if result.all_violated else 1), payload, lines, None


def _cmd_valid(args):
    profile = RelationProfile(2, tuple(args.levels))
    a = DimensionSequence.from_values(args.p, args.a)
    report = is_valid(a, profile)
    payload = {
        "p": args.p,
        "levels": list(args.levels),
        "a": list(args.a),
        "verdict": report.verdict,
        "order_exponent": report.order_exponent,
        "first_failure": report.first_failure,
        "caps_ok": report.caps_ok,
        "e_nonnegative": report.e_nonnegative,
        "stabilized": report.stabilized,
        "horizon": report.horizon,
        "c_limit": report.c_limit,
        "e_limit": report.e_limit,
        "b": list(report.b),
        "c": list(report.c),
        "e": list(report.e),
    }
    last = len(report.c) - 1  # c_n is the order past N + 1
    rows = (
        (
            n,
            a.get(n) if n >= 1 else None,
            report.c[min(n, last)],
            report.e[n - 1] if n >= 1 else None,
        )
        for n in range(report.horizon + 1)
    )
    lines = [
        f"verdict: {report.verdict}",
        f"order exponent: {report.order_exponent} (order p^{report.order_exponent})",
    ]
    if report.first_failure:
        lines.append(f"first failure: {report.first_failure}")
    show = min(12, len(report.e))
    c = tuple(report.c[min(n, last)] for n in range(1, show + 1))
    lines.append(f"c_1..c_{show}: {c}  -> limit {report.c_limit}")
    lines.append(f"e_1..e_{show}: {report.e[:show]}  -> limit {report.e_limit}")
    return (0 if report.valid else 1), payload, lines, (("n", "a_n", "c_n", "e_n"), rows)


def _cmd_grouplab(args):
    if args.input:
        G, pres = parse_group_file(args.input)
        if args.p is not None and args.p != G.prime:
            raise ValueError(f"--p {args.p} disagrees with the file prime {G.prime}")
        kind = "file"
    else:
        if not args.group or args.p is None:
            raise ValueError("grouplab needs --group and --p, or --input FILE")
        G = pres = None
        kind = args.group
    available = ["jennings", "lazard", "recursion", "fox"]
    if args.verify is not None:
        checks = [tok.strip() for tok in args.verify.split(",") if tok.strip()]
        unknown = [tok for tok in checks if tok not in available]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        if not checks:
            raise ValueError(f"--verify names no check; choose from {','.join(available)}")
    else:
        checks = available if (pres is not None or not args.input) else ["jennings", "lazard"]

    if pres is None and ("recursion" in checks or "fox" in checks):
        if args.input:
            raise ValueError("recursion/fox checks need relators in the input file")
        pres = builtin_presentation(kind, args.p)
    if G is None:
        # a built-in presentation brings its table, so the group algebra
        # is filtered once
        G = pres.target if pres is not None else build_group(kind, args.p)

    chain, a = dimension_subgroups(G)
    c_measured = augmentation_powers(G)

    results: dict[str, bool] = {}
    if "jennings" in checks:
        # equal tuples: the same order and the same c_n
        results["jennings"] = jennings_transform(a).c == c_measured
    if "lazard" in checks:
        results["lazard"] = lazard_check(G).all_match
    if "recursion" in checks:
        results["recursion"] = verify_recursion(pres).ok
    if "fox" in checks:
        results["fox"] = fox_formula_holds(pres)

    ok = all(results.values())
    payload = {
        "p": G.prime,
        "kind": kind,
        "order": G.order,
        "order_exponent": a.order_exponent,
        "a": [[n, a.get(n)] for n in a.support],
        "c": list(c_measured),
        "levels": list(pres.levels) if pres is not None else None,
        "checks": results,
        "verdict": "HOLDS" if ok else "FAILED",
    }
    lines = [
        f"group: {kind}, p = {G.prime}, order = {G.order} (p^{a.order_exponent})",
        f"a support: {dict((n, a.get(n)) for n in a.support)}",
        f"c: {c_measured}",
    ]
    if pres is not None:
        lines.append(f"relator levels: {pres.levels}")
    lines += [
        f"  {name}: {'ok' if results[name] else 'FAILED'}" for name in available if name in results
    ]
    return (0 if ok else 1), payload, lines, None


def _refuse_unknown_global_options(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Name an unknown option that comes before the subcommand.

    argparse would take that option's value for the subcommand's name and
    report the value instead (for `--horizon-margin 8 valid`, an invalid
    choice '8')."""
    known = parser._option_string_actions
    words = iter(argv)
    for word in words:
        if not word.startswith("-"):
            return  # the subcommand
        name, eq, _ = word.partition("=")
        # argparse also takes a unique prefix of a long option
        matches = [key for key in known if key == name
                   or (name.startswith("--") and key.startswith(name))]
        if len(matches) != 1:
            parser.error(f"unrecognized global option: {name}")
        if known[matches[0]].nargs != 0 and not eq:
            next(words, None)  # the option's value


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    _refuse_unknown_global_options(parser, argv)
    args = parser.parse_args(argv)
    fmt = "json" if args.json else args.format
    if fmt == "csv" and args.command not in _CSV_COMMANDS:
        print(f"error: csv output is not available for {args.command}", file=sys.stderr)
        return 2
    # exact values of large targets print past Python's int-to-str limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code, payload, lines, csv = args.run(args)
        if fmt == "json":
            lines = [json.dumps(payload, indent=2)]
        elif fmt == "csv":
            header, rows = csv
            lines = [",".join(header)]
            lines += [",".join("" if v is None else str(v) for v in row) for row in rows]
        for line in lines:
            print(line)
        return code
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
