"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_round, tail  # noqa: E402
from gstower.group_lab import build_group, builtin_presentation, dimension_subgroups  # noqa: E402
from gstower.gs_check import RelationProfile, gs_lhs_poly  # noqa: E402
from gstower.series import positive_on_open_unit_interval  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = inputs.digest(inputs.generate(workload, 7))
    assert first == inputs.digest(inputs.generate(workload, 7))
    assert first != inputs.digest(inputs.generate(workload, 8))


def test_decide_batch_shape():
    items = inputs.decide_inputs(7)
    holds = sum(item.expected == "HOLDS" for item in items)
    assert 0.4 < holds / len(items) < 0.5
    assert len(items) > 100  # enough for a tail percentile with ten samples beyond it
    for item in items:
        bound = inputs.STRICT_MAX_DEGREE if item.mode == "strict" else inputs.EXACT_MAX_DEGREE
        assert inputs.decided_degree(item.mode, item.p, item.levels, item.a) <= bound
    assert inputs.STRICT_MAX_DEGREE < inputs.EXACT_MAX_DEGREE
    assert inputs.PUBLISHED_STRICT[:5] == tuple(
        [items[-1].mode, items[-1].p, items[-1].d, items[-1].levels, items[-1].a])


@pytest.mark.parametrize("key", sorted(inputs.CALIBRATION))
def test_calibration_certificates(key):
    """The facts that make the decide verdicts known by construction."""
    p, levels = key
    floor, ceiling, witness = inputs.CALIBRATION[key]
    assert positive_on_open_unit_interval(gs_lhs_poly(RelationProfile(2, levels))).holds
    floor_item = inputs.Decision("exact", p, 2, levels, floor, "HOLDS")
    assert positive_on_open_unit_interval(workloads.rebuild_target(floor_item)).holds
    ceiling_item = inputs.Decision("exact", p, 2, levels, ceiling, "VIOLATED")
    assert workloads.rebuild_target(ceiling_item)(Fraction(witness)) <= 0


def test_forced_profile_fails_at_one_half():
    lhs = gs_lhs_poly(RelationProfile(3, inputs.FORCED_LEVELS))
    assert lhs(Fraction(1, 2)) < 0


def test_committed_verdicts_match_the_default_inputs():
    expected = json.loads((BENCH / "expected_decide.json").read_text())
    items = inputs.decide_inputs(inputs.DEFAULT_SEED)
    assert expected["digest"] == inputs.digest(items)
    assert expected["verdicts"] == [item.expected for item in items]


@pytest.mark.parametrize("p, kind", [(p, k) for p, k in inputs.GROUPS
                                     if len(inputs.group_table(k, p)[0]) <= 49])
def test_group_expectations_match_the_builtins(p, kind):
    G = build_group(kind, p)
    mul, gens = inputs.group_table(kind, p)
    assert (mul == G.mul).all() and gens == G.generators
    assert dimension_subgroups(G)[1].as_dict() == inputs.expected_a(kind, p)
    pres = builtin_presentation(kind, p)
    assert pres.relators == inputs.relator_words(kind, p)
    assert pres.levels == inputs.expected_levels(kind, p)


def test_relabelling_fixes_the_identity():
    for g in inputs.grouplab_inputs(3, smoke=True):
        assert g.perm[0] == 0 and sorted(g.perm) == list(range(len(g.perm)))
        assert (g.mul[0] == range(len(g.perm))).all()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_rounds_run_long_ops_once_and_short_ops_in_every_round(workload):
    ops = workloads.make_ops(workload, inputs.generate(workload, 3), None, tracing.NullTracer())
    schedule = workloads.rounds(workload, ops)
    long_ = [i for i, op in enumerate(ops) if not op.short]
    short = [i for i, op in enumerate(ops) if op.short]
    assert long_ and short
    assert [i for r in schedule for i in r if not ops[i].short] == long_
    assert all([i for i in r if ops[i].short] == short for r in schedule)


def test_gauge_is_read_around_every_operation():
    ops = [workloads.Op(str(i), lambda: time.sleep(0.02), lambda r: []) for i in range(20)]
    gauge = speed.Gauge()
    _, starts, times, _, errors = run_round(ops, list(range(20)), tracing.NullTracer(), gauge)
    assert len(starts) == len(times) == 20 and errors == [None] * 20
    assert gauge.readings[0][0] <= starts[0] and gauge.readings[-1][0] >= starts[-1] + times[-1]
    assert len(gauge.readings) >= 2 + 20 * 0.02 / speed.EVERY_S - 1
    assert all(gauge.around(t0, t0 + t) > 0 for t0, t in zip(starts, times))


def test_gauge_window_follows_the_operation_length():
    gauge = speed.Gauge()
    gauge.readings = [(0.0, 1.0), (5.0, 2.0), (5.2, 3.0), (10.0, 4.0), (20.0, 5.0)]
    assert gauge.around(5.1, 5.15) == 2.5  # short: the readings within EVERY_S
    assert gauge.around(5.1, 9.9) == 3.0  # long: one length either side


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    assert tail(values) == (89, 90.0)
    assert tail([3.0, 1.0])[0] == 3.0


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    record = json.loads(lines[-2])["record"]
    assert record["fail_frac"] == 0
    for key in ("commit", "python", "numpy", "cpu_count", "seed", "input_digest"):
        assert key in record
    assert all("samples" in m for m in record["metrics"].values())
    if not trace:
        # every timing metric also unscaled (memory is not scaled)
        assert set(record["raw_metrics"]) == set(result["metrics"]) - {"peak_rss_mb"}
        assert record["kernel_s"] > 0


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("grouplab", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
