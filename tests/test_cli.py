"""Command-line interface: output formats, exit codes, round trips."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gstower import group_lab
from gstower.cli import main
from gstower.group_lab import FiniteGroupTable, builtin_presentation

from test_group_lab import format_group_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert err == ""
    return code, json.loads(out)


def test_ztypes_table(capsys):
    code, out, _ = run(capsys, "ztypes", "--max-level", "21")
    assert code == 0
    assert "(3,3)" in out and "(3,5)" in out and "(3,7)" in out


def test_ztypes_json(capsys):
    code, payload = run_json(capsys, "ztypes")
    assert code == 0
    assert payload["ztypes"] == [[3, 3], [3, 5], [3, 7]]


def test_caps_json(capsys):
    code, payload = run_json(capsys, "caps", "--p", "11", "--nmax", "9")
    assert code == 0
    assert payload["caps"] == [2, 1, 1, 1, 2, 2, 4, 5, 8]
    code, payload = run_json(capsys, "caps", "--p", "11", "--nmax", "9", "--ztype37")
    assert payload["caps"][6] == 3


def test_caps_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "caps", "--p", "11", "--nmax", "3")
    assert code == 0
    assert out.splitlines() == ["n,cap", "1,2", "2,1", "3,1"]


def test_check_violated_exit_code(capsys):
    code, payload = run_json(
        capsys, "check", "--p", "11", "--d", "2", "--levels", "3,7", "--a", "2",
        "--mode", "relaxed",
    )
    assert code == 1
    assert payload["verdict"] == "VIOLATED"
    assert payload["witness"] == "1/2"
    assert "/" in payload["witness_value"] or payload["witness_value"].lstrip("-").isdigit()


@pytest.mark.parametrize("command, value", [
    (["check", "--mode", "exact"], "-659/512"),
    (["strict"], "-15865/12288"),
    (["check"], "-1/2"),
])
def test_a_target_negative_at_one_half_exits_1_with_its_value(capsys, command, value):
    code, payload = run_json(capsys, *command, "--p", "3", "--d", "3",
                             "--levels", "3,3,3", "--a", "1,1")
    assert code == 1
    assert (payload["verdict"], payload["witness"], payload["witness_value"]) == \
        ("VIOLATED", "1/2", value)


@pytest.mark.parametrize("argv", [
    ["check", "--mode", "exact", "--p", "3", "--d", "0", "--levels", "", "--a", ""],
    ["check", "--p", "3", "--d", "1", "--levels", "", "--a", "1"],
    ["strict", "--p", "3", "--d", "0", "--levels", "", "--a", ""],
])
def test_the_zero_target_exits_2(capsys, argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 2
    assert out == ""
    assert "positivity of the zero polynomial is undefined" in err


def test_check_holds_exit_code(capsys):
    code, payload = run_json(
        capsys, "check", "--p", "3", "--d", "1", "--levels", "3", "--a", "1",
    )
    assert code == 0
    assert payload["verdict"] == "HOLDS"
    assert payload["witness"] is None


def test_an_exact_value_past_the_int_to_str_limit_is_printed():
    # at p = 10007 the value at 1/2 has more than 4 300 digits, Python's
    # default limit for printing an int; a fresh interpreter has it set
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "gstower.cli", "--json", "check", "--mode", "exact",
         "--p", "10007", "--d", "3", "--levels", "3,3,3", "--a", "3"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert (done.returncode, done.stderr) == (1, "")
    payload = json.loads(done.stdout)
    assert (payload["verdict"], payload["witness"]) == ("VIOLATED", "1/2")
    assert len(payload["witness_value"]) > 4300


def test_the_int_to_str_limit_is_restored_after_a_command(capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str limit")
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "ztypes")[0] == 0
    assert sys.get_int_max_str_digits() == limit


def test_check_defaults_to_relaxed_mode(capsys):
    # the exact-mode polynomial degree grows like (p-1) * sum(n * a_n), so
    # relaxed must stay the default for the command to be usable on
    # realistic sequences
    code, payload = run_json(
        capsys, "check", "--p", "11", "--d", "2", "--levels", "3,7",
        "--a", "2,1,1,1,2,2,3,5,6",
    )
    assert code == 0
    assert payload["mode"] == "RELAXED"
    assert payload["verdict"] == "HOLDS"


def test_check_exact_mode_flag(capsys):
    code, payload = run_json(
        capsys, "check", "--p", "3", "--d", "1", "--levels", "3", "--a", "1",
        "--mode", "exact",
    )
    assert code == 0
    assert payload["mode"] == "EXACT"
    assert payload["verdict"] == "HOLDS"


def test_strict_subcommand(capsys):
    code, payload = run_json(
        capsys, "strict", "--p", "3", "--d", "1", "--levels", "3", "--a", "1",
    )
    assert code == 0
    assert payload["verdict"] == "HOLDS"
    assert payload["order_exponent"] == 1


def test_minorder_json_matches_published_values(capsys):
    code, payload = run_json(capsys, "minorder", "--p", "11", "--ab", "1,1")
    assert code == 0
    assert payload["a"] == [2, 1, 1, 1, 2, 2, 3, 5, 6]
    assert payload["min_sum"] == 23
    assert payload["order_exponent"] == 23
    assert payload["trace"][0]["witness"] == "1/2"


def test_minorder_table_mentions_witnesses(capsys):
    code, out, _ = run(capsys, "minorder", "--p", "11")
    assert code == 0
    assert "order exponent bound: 23" in out
    assert "violated at t = 1/2" in out


def test_bruteforce_small(capsys):
    code, payload = run_json(capsys, "bruteforce", "--p", "11", "--sumlimit", "8", "--nmax", "4")
    assert code == 0
    assert payload["all_violated"] is True
    assert payload["examined"] == 24  # 3*2*2*2 boxes, all within the sum
    assert payload["full_decisions"] == 0


def test_bruteforce_table_counts_full_decisions(capsys):
    code, out, _ = run(capsys, "bruteforce", "--p", "11", "--sumlimit", "8", "--nmax", "4")
    assert code == 0
    assert "0 needed the full positivity decision" in out


def test_negative_sumlimit_is_an_input_error(capsys):
    code, out, err = run(capsys, "--json", "bruteforce", "--p", "11", "--sumlimit", "-1")
    assert code == 2
    assert out == ""
    assert "sum limit" in err


def test_valid_published_example(capsys):
    code, payload = run_json(
        capsys, "valid", "--p", "17", "--a", "2,1,1,1,2,2,3,3,4,4,6,5,7,5,4",
    )
    assert code == 0
    assert payload["verdict"] == "VALID"
    assert payload["order_exponent"] == 50
    assert payload["c"][1] == 1
    assert payload["e"][:5] == [0, 0, 0, 0, 0]


def test_valid_json_roundtrip_is_stable(capsys):
    args = ("valid", "--p", "17", "--a", "2,1,1,1,2,2,3,3,4,4,6,5,7,5,4")
    _, first = run_json(capsys, *args)
    refed = ",".join(str(v) for v in first["a"])
    _, second = run_json(capsys, "valid", "--p", "17", "--a", refed)
    assert first == second


def test_valid_json_output_is_pinned(capsys):
    # SHA-256 of the payload printed by the sliding-window transform and
    # the per-index recursion: the output stays byte-identical
    code, out, _ = run(
        capsys, "--json", "valid", "--p", "17", "--a", "2,1,1,1,2,2,3,3,4,4,6,5,7,5,4",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "caeaa944245fc421e183bab8ce3027d485140373a1859ed94a22ecb00bed3bbb"
    )


def test_valid_csv_runs_to_the_horizon(capsys):
    code, out, _ = run(capsys, "--format", "csv", "valid", "--p", "3", "--a", "1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "n,a_n,c_n,e_n"
    assert len(lines) == 1 + 18  # n = 0..17, the JSON horizon
    assert lines[1] == "0,,0,"
    assert lines[4] == "3,0,3,-2"
    assert lines[-1] == "17,0,3,2"


def test_valid_table_prints_every_c_it_labels(capsys):
    # p = 2, a = (1): b = (1, 1) and c = (0, 1, 2), so c_n is the order 2
    # from n = 2 on.  The horizon is N + max level + margin = 1 + 2 + 8 = 11.
    code, out, _ = run(capsys, "valid", "--p", "2", "--a", "1", "--levels", "2,2")
    assert code == 1
    assert "c_1..c_11: (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2)  -> limit 2" in out.splitlines()


def test_invalid_sequence_exits_1(capsys):
    code, payload = run_json(capsys, "valid", "--p", "11", "--a", "2")
    assert code == 1
    assert payload["verdict"] == "INVALID"
    assert payload["first_failure"] == "e_3 = -1 is negative"


def test_mildness(capsys):
    code, payload = run_json(
        capsys, "mildness", "--p", "3", "--d", "1", "--levels", "3", "--a", "1",
    )
    assert code == 0
    assert payload["e"][:6] == [0, 0, 0, 0, 1, 2]


def test_mildness_reaches_the_terminal_defect_without_relations(capsys):
    # C_3 with d = 1 and no relation: the recursion's lag is 1, not 0, so
    # the horizon reaches e_4 = (r + 1 - d)|G| - 1 = -1, and it is not mild
    args = ("mildness", "--p", "3", "--d", "1", "--levels", "", "--a", "1")
    code, payload = run_json(capsys, *args)
    assert code == 0
    assert payload["e"] == [0, 0, 0, -1]
    code, out, _ = run(capsys, *args)
    assert "mild" not in out


def test_grouplab_builtin(capsys):
    code, payload = run_json(capsys, "grouplab", "--group", "heisenberg", "--p", "3")
    assert code == 0
    assert payload["order"] == 27
    assert payload["a"] == [[1, 2], [2, 1]]
    assert payload["checks"] == {
        "jennings": True, "lazard": True, "recursion": True, "fox": True,
    }
    assert payload["verdict"] == "HOLDS"


def test_grouplab_trivial_group_as_cyclic_and_elemab(capsys):
    # cyclic:0 and elemab:0 are both the trivial group: no generator and
    # no relator, so all four checks run on the empty presentation
    payloads = []
    for kind in ("cyclic:0", "elemab:0"):
        code, payload = run_json(capsys, "grouplab", "--group", kind, "--p", "3")
        assert code == 0
        assert payload["order"] == 1
        payloads.append(payload)
    assert payloads[0]["checks"] == payloads[1]["checks"] == {
        "jennings": True, "lazard": True, "recursion": True, "fox": True,
    }


def test_grouplab_builds_one_table(capsys, monkeypatch):
    built = []
    init = FiniteGroupTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroupTable, "__init__", counting_init)
    code, payload = run_json(capsys, "grouplab", "--group", "heisenberg", "--p", "3")
    assert code == 0
    assert payload["checks"]["recursion"] and payload["checks"]["fox"]
    assert len(built) == 1


def test_grouplab_fox_check_reads_the_fox_images(capsys, monkeypatch):
    # one wrong entry of the Fox images breaks sum_j W[i, j] (g_j - 1) = 0
    fox_images = group_lab._fox_images

    def corrupted(pres):
        W = fox_images(pres)
        W[0, 0, 0] = (W[0, 0, 0] + 1) % pres.target.prime
        return W

    monkeypatch.setattr(group_lab, "_fox_images", corrupted)
    code, payload = run_json(capsys, "grouplab", "--group", "heisenberg", "--p", "3",
                             "--verify", "fox")
    assert payload["checks"] == {"fox": False}
    assert payload["verdict"] == "FAILED"
    assert code == 1


def test_grouplab_input_file(tmp_path, capsys):
    pres = builtin_presentation("cyclic:1", 3)
    path = tmp_path / "c3.grp"
    path.write_text(format_group_file(pres.target, pres))
    code, payload = run_json(capsys, "grouplab", "--input", str(path))
    assert code == 0
    assert payload["order"] == 3
    assert payload["levels"] == [3]


def test_grouplab_unknown_check(capsys):
    code, _, err = run(capsys, "grouplab", "--group", "cyclic:1", "--p", "3",
                       "--verify", "jennings,magic")
    assert code == 2
    assert "unknown checks" in err


@pytest.mark.parametrize("checks", [" , ", ",", ""])
def test_grouplab_empty_check_list(capsys, checks):
    code, out, err = run(capsys, "grouplab", "--group", "cyclic:1", "--p", "3",
                         "--verify", checks)
    assert code == 2
    assert out == ""
    assert "names no check" in err


def test_grouplab_file_with_an_undeclared_relator(tmp_path, capsys):
    pres = builtin_presentation("cyclic:1", 3)
    path = tmp_path / "c3.grp"
    path.write_text(format_group_file(pres.target, pres) + "X1X1X1\n")
    code, out, err = run(capsys, "grouplab", "--input", str(path))
    assert code == 2
    assert "'X1X1X1'" in err


def test_grouplab_file_with_a_negative_generator_count(tmp_path, capsys):
    path = tmp_path / "c3.grp"
    path.write_text("3 1 -1\n3\n0 1 2\n1 2 0\n2 0 1\n0\n")
    code, out, err = run(capsys, "grouplab", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "negative generator count -1" in err


def test_grouplab_file_with_a_negative_relator_count(tmp_path, capsys):
    text = format_group_file(builtin_presentation("cyclic:1", 3).target)
    assert text.endswith("\n0\n")
    path = tmp_path / "c3.grp"
    path.write_text(text[:-2] + "-1\n")
    code, out, err = run(capsys, "grouplab", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "negative relator count -1" in err


def test_nonprime_is_an_input_error(capsys):
    code, _, err = run(capsys, "caps", "--p", "9", "--nmax", "4")
    assert code == 2
    assert "prime" in err


def test_out_of_range_nmax_is_an_input_error(capsys):
    code, _, err = run(capsys, "caps", "--p", "5", "--nmax", "4")
    assert code == 2


def test_csv_rejected_for_non_sequence_commands(capsys):
    code, _, err = run(capsys, "--format", "csv", "ztypes")
    assert code == 2
    assert "csv" in err


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
