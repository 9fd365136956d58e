"""The operations of each workload and the checks on their results.

An operation is what one timed call into the library does: one decision
in `decide`, one CLI reproduction or validity report in `sweep`, one
(group, check) pair in `grouplab`.  Library functions are always looked
up through their module at call time, so that the traced pass sees the
wrapped bindings.

A measured pass runs in rounds (`rounds`): the long operations are dealt
out over the rounds in order, and every round also runs all the short
ones.  A short operation takes milliseconds, so one timing of it samples
the machine's speed over a moment; run in every round, its median rests
on samples spread over the whole run.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gstower.cli as cli
import gstower.group_lab as gl
import gstower.gs_check as gs
import gstower.jennings as jn
import gstower.series as sr
import gstower.validity as vd

from inputs import Decision, GroupInput, SweepInputs, expected_a, expected_levels
import tracing


@dataclass
class Op:
    """One timed call.  `check(result)` returns the problems found (empty
    when the result is right); `weight` is how many operations the call
    stands for (a brute-force sweep stands for every sequence it
    examines)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    weight: int = 1
    #: run in every round of a pass instead of once per pass
    short: bool = False
    #: scale its timings to the reference speed (see `speed`)
    scaled: bool = True


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

#: HOLDS verdicts are re-checked positive at k/GRID for k = 1 .. GRID - 1
GRID = 32


def rebuild_target(item: Decision) -> sr.ExactPoly:
    """The decided polynomial, rebuilt from public functions along a
    different path than the library's: the filtration polynomial is the
    product of the pn_inverse_poly factors instead of jennings_transform."""
    profile = gs.RelationProfile(item.d, item.levels)
    jp = sr.ExactPoly.one()
    for n, an in enumerate(item.a, start=1):
        jp = jp * jn.pn_inverse_poly(n, item.p) ** an
    target = gs.gs_lhs_poly(profile) * jp - sr.ExactPoly.one()
    if item.mode == "strict":
        order_exponent = sum(item.a)
        slack = Fraction(1 - profile.d + profile.r) * (1 - Fraction(1, item.p ** order_exponent))
        target = target - sr.ExactPoly.monomial(jp.degree + profile.max_level, slack) * jp
    return target


def check_decision(item: Decision, report, committed: str | None) -> list[str]:
    verdict = report.verdict.value
    problems = []
    if item.guaranteed and verdict != item.expected:
        problems.append(f"verdict {verdict}, construction guarantees {item.expected}")
    if committed is not None and verdict != committed:
        problems.append(f"verdict {verdict}, committed list says {committed}")
    target = rebuild_target(item)
    if verdict == "VIOLATED":
        w = report.witness
        if w is None or not 0 < w < 1:
            problems.append(f"witness {w} outside (0, 1)")
        elif target(w) > 0 or target(w) != report.witness_value:
            problems.append(f"witness {w} does not re-evaluate to the reported value <= 0")
    else:
        bad = [k for k in range(1, GRID) if target(Fraction(k, GRID)) <= 0]
        if bad:
            problems.append(f"HOLDS but not positive at {bad[0]}/{GRID}")
    return problems


def decide_ops(items: list[Decision], committed: list[str] | None) -> list[Op]:
    ops = []
    for i, item in enumerate(items):
        def run(item=item):
            profile = gs.RelationProfile(item.d, item.levels)
            a = jn.DimensionSequence.from_values(item.p, item.a)
            if item.mode == "strict":
                return gs.strict_corollary_check(profile, a)
            return gs.check_inequality(profile, a, gs.CheckMode.EXACT)

        def check(report, item=item, expected=committed[i] if committed else None):
            return check_decision(item, report, expected)

        # a VIOLATED verdict ends at the small-denominator scan in a few ms
        ops.append(Op(f"{i}:{item.mode}-p{item.p}", run, check,
                      short=item.expected == "VIOLATED"))
    return ops


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

#: pinned outputs of the order-bound reproduction
SWEEP_PINS = {
    "minorder": {"min_sum": 23, "order_exponent": 23, "a": [2, 1, 1, 1, 2, 2, 3, 5, 6]},
    "bruteforce-p11": {"examined": 46604, "all_violated": True, "holds_examples": []},
    "bruteforce-p13": {"examined": 450074, "all_violated": True, "holds_examples": []},
    "valid-p17": {"verdict": "VALID", "order_exponent": 50},
}


def _run_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json", *argv])
    return code, out.getvalue()


def check_cli(name: str, result) -> list[str]:
    code, text = result
    if code != 0:
        return [f"exit code {code}"]
    payload = json.loads(text)
    problems = [
        f"{key} = {payload.get(key)!r}, pinned {want!r}"
        for key, want in SWEEP_PINS[name].items()
        if payload.get(key) != want
    ]
    if name == "minorder":
        # every violated greedy stage must really be violated at its witness
        lhs = gs.gs_lhs_poly(gs.RelationProfile(2, (3, 7)))
        for stage in payload["trace"]:
            a = jn.DimensionSequence.from_values(11, stage["a"])
            if (lhs - gs.relaxed_product_poly(a))(Fraction(stage["witness"])) > 0:
                problems.append(f"stage {stage['a']} is positive at its witness")
    return problems


def check_validity(p: int, seq: tuple[int, ...], report) -> list[str]:
    """Invariants of a validity report, recomputed from its own fields."""
    problems = []
    order_exponent = sum(seq)
    if report.order_exponent != order_exponent or report.c[-1] != p ** order_exponent:
        problems.append("order exponent or c limit is wrong")
    if list(report.c) != [0, *itertools.accumulate(report.b)]:
        problems.append("c is not the partial sums of b")

    def c(n):
        return 0 if n <= 0 else report.c[n] if n < len(report.c) else report.c[-1]

    e = [c(n) - 2 * c(n - 1) - 1 + c(n - 3) + c(n - 7) for n in range(1, len(report.e) + 1)]
    if list(report.e) != e:
        problems.append("e does not follow the counting recursion")
    if not report.caps_ok:
        problems.append("a cap-respecting sequence failed the caps")
    ok = report.caps_ok and report.e_nonnegative and report.stabilized
    if (report.verdict == "VALID") != (ok and report.first_failure is None):
        problems.append("verdict disagrees with its own flags")
    return problems


#: the CLI calls that take tens of milliseconds or less
SHORT_COMMANDS = ("valid-p17",)


def sweep_ops(inputs: SweepInputs) -> list[Op]:
    ops = []
    for name, argv in inputs.commands:
        ops.append(Op(
            name,
            lambda argv=argv: _run_cli(argv),
            lambda result, name=name: check_cli(name, result),
            SWEEP_PINS[name].get("examined", 1),
            short=name in SHORT_COMMANDS,
        ))
    for i, (p, seq) in enumerate(inputs.validity):
        ops.append(Op(
            f"valid-{i}-p{p}",
            lambda p=p, seq=seq: vd.is_valid(jn.DimensionSequence.from_values(p, seq)),
            lambda report, p=p, seq=seq: check_validity(p, seq, report),
            short=True,
        ))
    return ops


# ---------------------------------------------------------------------------
# grouplab
# ---------------------------------------------------------------------------

#: groups up to this order take a fraction of a second for all four checks
SHORT_GROUP_ORDER = 49


def group_ops(g: GroupInput, tracer) -> list[Op]:
    """Four checks on one relabelled group, run in this order.  They share
    the table and the presentation through `state`, so a check whose
    predecessor raised fails too."""
    state: dict = {}
    short = len(g.mul) <= SHORT_GROUP_ORDER
    # The speed gauge's time does not follow the order-125 groups' checks,
    # which spend seconds in numpy calls on their matrices: over 150 s of
    # repeated passes, scaling widened the spread of their pass time from
    # 0.085 to 0.14 (a numpy-call gauge did no better), while it narrowed
    # that of the small groups' checks.  So only the small ones are scaled.
    flags = {"short": short, "scaled": short}

    def jennings():
        state.clear()
        with tracer.span(tracing.GL_BUILD):
            G = gl.FiniteGroupTable(g.p, g.mul, generators=g.generators)
        state["G"] = G
        c = gl.augmentation_powers(G)
        _, a = gl.dimension_subgroups(G)
        state["a"] = a
        data = jn.jennings_transform(a)
        return {
            "order": G.order,
            "a": a.as_dict(),
            "c": list(c),
            "transform_order": data.order,
            "transform_c": [data.c_at(n) for n in range(len(c))],
        }

    def check_jennings(r):
        problems = []
        if r["transform_order"] != r["order"] or r["transform_c"] != r["c"]:
            problems.append("measured filtration disagrees with jennings_transform")
        if r["a"] != expected_a(g.kind, g.p):
            problems.append(f"measured a {r['a']} != built-in {expected_a(g.kind, g.p)}")
        return problems

    def lazard():
        return gl.lazard_check(state["G"])

    def recursion():
        pres = gl.make_presentation(state["G"], g.generators, g.relators)
        state["pres"] = pres
        return pres.levels, gl.verify_recursion(pres)

    def check_recursion(r):
        levels, report = r
        problems = [] if report.ok else [f"recursion mismatches at n = {report.mismatches}"]
        if levels != expected_levels(g.kind, g.p):
            problems.append(f"relator levels {levels} != {expected_levels(g.kind, g.p)}")
        return problems

    def strict():
        return gs.strict_corollary_check(state["pres"].profile(), state["a"])

    return [
        Op(f"{g.label}/jennings", jennings, check_jennings, **flags),
        Op(f"{g.label}/lazard", lazard,
           lambda r: [] if r.all_match else ["product formula fails"], **flags),
        Op(f"{g.label}/recursion", recursion, check_recursion, **flags),
        Op(f"{g.label}/strict", strict,
           lambda r: [] if r.holds else [f"strict inequality VIOLATED at {r.witness}"],
           **flags),
    ]


def grouplab_ops(groups: list[GroupInput], tracer) -> list[Op]:
    return [op for g in groups for op in group_ops(g, tracer)]


def make_ops(workload: str, data, committed: list[str] | None, tracer) -> list[Op]:
    """The operations of one batch, in their plain order."""
    if workload == "decide":
        return decide_ops(data, committed)
    if workload == "sweep":
        return sweep_ops(data)
    return grouplab_ops(data, tracer)


# ---------------------------------------------------------------------------
# rounds of a measured pass
# ---------------------------------------------------------------------------

#: rounds per pass: enough that the short operations are sampled all
#: through a pass, few enough that repeating them costs a small share of
#: it (decide: 7 x 0.14 s on 9.5 s; sweep: 6 x 0.5 s on 15 s; grouplab:
#: 4 x 1 s on 14 s, on the 2-core machine the benchmark was written on)
ROUNDS = {"decide": 7, "sweep": 6, "grouplab": 4}


def rounds(workload: str, ops: list[Op]) -> list[list[int]]:
    """One measured pass as rounds of operation indices.  The long
    operations are dealt out in order, a contiguous slice per round, the
    first slice never empty, and each round then runs every short
    operation in order; so every operation runs at least once and the
    order within a group is kept."""
    n = ROUNDS[workload]
    long_ = [i for i, op in enumerate(ops) if not op.short]
    short = [i for i, op in enumerate(ops) if op.short]
    cuts = [-(-r * len(long_) // n) for r in range(n + 1)]  # ceil(r * L / n)
    return [long_[cuts[r]:cuts[r + 1]] + short for r in range(n)]
