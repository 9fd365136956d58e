"""Command-line interface: output formats, exit codes, round trips."""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gstower import cli, group_lab
from gstower.cli import main
from gstower.group_lab import FiniteGroupTable, builtin_presentation

from test_group_lab import format_group_file


def run(capsys, *argv):
    """(exit code, stdout, stderr), a usage error's SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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
    # from n = 2 on.  The horizon is N + max level + 8 = 1 + 2 + 8 = 11.
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


def test_horizon_margin_is_rejected(capsys):
    # the terminal defects are proven, so no flag sets how many are listed
    with pytest.raises(SystemExit) as exc:
        main(["--horizon-margin", "8", "valid", "--p", "17", "--a", "2,1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the usage error names the flag; its value is not taken for the subcommand
    assert "gstower: error: unrecognized global option: --horizon-margin" in err
    assert "invalid choice" not in err


@pytest.mark.parametrize("argv, name", [
    (["--format", "json", "--horizon-margin=8", "valid", "--p", "17", "--a", "2,1"],
     "--horizon-margin"),
    (["--json", "-x", "ztypes"], "-x"),
])
def test_an_unknown_global_option_is_named_in_the_usage_error(capsys, argv, name):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized global option: {name}" in err
    assert "invalid choice" not in err


def test_global_options_before_the_subcommand_still_parse(capsys):
    code, out, _ = run(capsys, "--format=csv", "mildness", "--p", "3", "--d", "1",
                       "--levels", "", "--a", "1")
    assert code == 0
    assert out.splitlines()[-1] == "4,-1"


def test_grouplab_builtin(capsys):
    code, payload = run_json(capsys, "grouplab", "--group", "heisenberg", "--p", "3")
    assert code == 0
    assert payload["order"] == 27
    assert payload["a"] == [[1, 2], [2, 1]]
    assert payload["checks"] == {
        "jennings": True, "lazard": True, "recursion": True, "fox": True,
    }
    assert payload["verdict"] == "HOLDS"


@pytest.mark.parametrize("kind", ["cyclic:", "elemab:", "heisenberg:"])
def test_grouplab_refuses_an_empty_argument(capsys, kind):
    # an empty argument after the colon is an input error, not the default
    code, out, err = run(capsys, "grouplab", "--group", kind, "--p", "3")
    assert code == 2
    assert out == ""
    assert f"unknown group kind {kind!r}" in err


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


@pytest.mark.parametrize("image", [3, 7, -1])
def test_grouplab_file_with_a_generator_image_outside_the_table(tmp_path, capsys, image):
    path = tmp_path / "c3.grp"
    path.write_text(f"3 1 1\n3\n0 1 2\n1 2 0\n2 0 1\n{image}\n0\n")
    code, out, err = run(capsys, "grouplab", "--input", str(path))
    assert code == 2
    assert out == ""
    assert f"generator {image} out of range 0..2" in err


@pytest.mark.parametrize("argv", [
    "caps --nmax 4",
    "check --d 2 --levels 3,7 --a 2,1",
    "strict --d 2 --levels 3,7 --a 2,1",
    "mildness --d 2 --levels 3,7 --a 2,1",
    "minorder",
    "bruteforce --sumlimit 4",
    "valid --a 2,1",
    "grouplab --group cyclic:1",
])
def test_nonprime_is_an_input_error(capsys, argv):
    # the library refuses p = 9; the command prints one line and nothing else
    code, out, err = run(capsys, *argv.split(), "--p", "9")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "prime" in err


def test_csv_is_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(cli, "build_group", refuse)
    monkeypatch.setattr(cli, "builtin_presentation", refuse)
    code, out, err = run(capsys, "--format", "csv", "grouplab", "--group", "cyclic:1", "--p", "3")
    assert code == 2
    assert out == ""
    assert err == "error: csv output is not available for grouplab\n"


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


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------

def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


#: every command-line example of the README, each optional flag without
#: and with, in table, JSON and (where allowed) CSV form: argv -> (exit
#: code, SHA-256 of stdout).  group.txt holds the Heisenberg group of
#: order 27 with its built-in relators
README_PINS = {
    "ztypes --max-level 21": (0, "0ab5117944aded0cbc63feacc704a0e64b54d12220adde46b00d51356b10c61e"),
    "--json ztypes --max-level 21": (0, "e070a90f5a31a436870b1ce8d20954ed1d80d7fe76a5a4953eab68074d6f5439"),
    "caps --p 11 --nmax 9": (0, "1ace932ab1c3187b1aa406563cc68f63fc13d8f92010e3d6df276ec4d38ed591"),
    "--json caps --p 11 --nmax 9": (0, "2080f0e8d68d3e1527bce5f9fed3f673c27dbf6d0094d3f505034c98c3eb3a0d"),
    "--format csv caps --p 11 --nmax 9": (0, "cacca0d059398a9fbbbbf5a0e951147385a698b2d2021396ff98d2db18f7be42"),
    "caps --p 11 --nmax 9 --ztype37": (0, "da4d72a86203b5fa9dca6034b03efbe794ee9799bcb33f021038af1c59771e36"),
    "--json caps --p 11 --nmax 9 --ztype37": (0, "19ff953a398fca146a136a8eeb4cf68f585d27b79b29efc3bbdf94d64dd209c6"),
    "--format csv caps --p 11 --nmax 9 --ztype37": (0, "616b959b8f8d757649812b8f98797f4e92681c41e05931bea4d80fe9d801ebfb"),
    "check --p 11 --d 2 --levels 3,7 --a 2,1,1,1,2,2,3,5,6": (0, "ff6780d1fe952674e3336d3df5f199bf0322134dfa1f8769bad989b28912feee"),
    "--json check --p 11 --d 2 --levels 3,7 --a 2,1,1,1,2,2,3,5,6": (0, "ce1cb05298290722f67c0f6fbb94e899a2cb0394ee6161ec30357fefadba480c"),
    "check --p 11 --d 2 --levels 3,7 --a 2,1,1,1,2,2,3,5,6 --mode exact": (0, "b973fff4d4b07ed51ca08030671caa0f9b42a62e8c0378b21496c3efb392acc0"),
    "--json check --p 11 --d 2 --levels 3,7 --a 2,1,1,1,2,2,3,5,6 --mode exact": (0, "41e312e7e8047ae5619bf696e7a25a66d788d39ba10b37f1a77ba6a582b56733"),
    "strict --p 3 --d 1 --levels 3 --a 1": (0, "3255e4bbe40afc08119a200867267be181bae85a818451961aab1e84b22e1387"),
    "--json strict --p 3 --d 1 --levels 3 --a 1": (0, "2e9e994ba0d8e26f3ab49b4d2d0321b03df396db3f8be4e17602146a2b924fb1"),
    "minorder --p 11 --ab 1,1": (0, "4e601b936aded1b29bfdbee6a44cee7dab6b881ace5cab233cb06397d1ab5df5"),
    "--json minorder --p 11 --ab 1,1": (0, "4b14c64f8e866caaa3a427c621fcd82e4b342e5f02419e9e988e5fcabf4cd556"),
    "--format csv minorder --p 11 --ab 1,1": (0, "40e1dfe8e30c3b29bae98c2f634fafdfa3f7bcffeee8a47488e9b92f995f9682"),
    "bruteforce --p 11 --sumlimit 22": (0, "9e35dd29a876ddbf9e4968679dd81b41f87e87dbdc046253159f05cda3b93114"),
    "--json bruteforce --p 11 --sumlimit 22": (0, "026614ac6057c1e572ab0daa6ea645a16e2446093c3dab03b11e71dd40cc979c"),
    "bruteforce --p 11 --sumlimit 22 --nmax 9": (0, "9e35dd29a876ddbf9e4968679dd81b41f87e87dbdc046253159f05cda3b93114"),
    "--json bruteforce --p 11 --sumlimit 22 --nmax 9": (0, "026614ac6057c1e572ab0daa6ea645a16e2446093c3dab03b11e71dd40cc979c"),
    "bruteforce --p 31 --sumlimit 22 --nmax 29": (0, "a27a5caa8ab6dc7752db2c5c28d685fafd63b9aa769e962b9ee52d2c7c3aa2da"),
    "--json bruteforce --p 31 --sumlimit 22 --nmax 29": (0, "8dba557fcb88fe70a5e71450f3405b286931966be04f7174eca67353e34ad5d3"),
    "valid --p 17 --a 2,1,1,1,2,2,3,3,4,4,6,5,7,5,4": (0, "68ae6cd853e25c1a90a1fc9e62bdc12d839bb7bbb6960bd1c68c3c0b4c102be9"),
    "--json valid --p 17 --a 2,1,1,1,2,2,3,3,4,4,6,5,7,5,4": (0, "caeaa944245fc421e183bab8ce3027d485140373a1859ed94a22ecb00bed3bbb"),
    "--format csv valid --p 17 --a 2,1,1,1,2,2,3,3,4,4,6,5,7,5,4": (0, "96ce97753fffed7467fe54f12b31b855d6847bd5b6da556425171ec9f12852b8"),
    "mildness --p 11 --d 2 --levels 3,7 --a 2,1,1,1,2,2,3,5,6": (0, "b5cca17a4396188ca656b4b95a7836b9059481f3713aad25a654181b53933289"),
    "--json mildness --p 11 --d 2 --levels 3,7 --a 2,1,1,1,2,2,3,5,6": (0, "f757bdc6df6e1c46cb80bb2b29791f2f8e279a9243d32c14e878cf813114b563"),
    "--format csv mildness --p 11 --d 2 --levels 3,7 --a 2,1,1,1,2,2,3,5,6": (0, "bb5722dfa27bf6dbfaf8d476355e139f9ad1d40c60cb3a2d8d99b75e6c1140e9"),
    "grouplab --group heisenberg --p 3": (0, "1588d4bfc705c333326fedc7b44e67d45c53aa9ed5d8bd1d43e5d6fa9d3b9280"),
    "--json grouplab --group heisenberg --p 3": (0, "a959bbdea3e99b1e53ac49c2454c2ddb14b0d80ffa9b817326e0fd4e609e3f4f"),
    "grouplab --group heisenberg --p 3 --verify jennings,lazard,recursion,fox": (0, "1588d4bfc705c333326fedc7b44e67d45c53aa9ed5d8bd1d43e5d6fa9d3b9280"),
    "--json grouplab --group heisenberg --p 3 --verify jennings,lazard,recursion,fox": (0, "a959bbdea3e99b1e53ac49c2454c2ddb14b0d80ffa9b817326e0fd4e609e3f4f"),
    "grouplab --input group.txt": (0, "d27812d8ea6078597b46a8eda7aa64d8c8bfd1d3cdaaef3d7d26f08aa1bce50e"),
    "--json grouplab --input group.txt": (0, "649be683ff0bb35a6cfaa83ac51b702bfafd3422b92062c1570e5c477c20a78d"),
    # outputs the README does not show: a VIOLATED witness, sequences
    # where the inequality holds, a cap failure and the "mild" line
    "check --p 11 --d 2 --levels 3,7 --a 2,1,1,1,2,2,3,5,5": (1, "ba23ce9eed4c1b23155b826cdf785bb1a8532872f3d7be1aef802676b4751e6b"),
    "--json check --p 11 --d 2 --levels 3,7 --a 2,1,1,1,2,2,3,5,5": (1, "4448e744fe758d355f16e0e7190b726164e830e807a0a6f0abdbda5492450959"),
    "strict --p 11 --d 2 --levels 3,7 --a 2,1,1,1,2,2,3,5,5": (1, "4d24d614e11f7c3cec0b3a8db204caa05694cc945891d840a0ba5931ee2d2480"),
    "--json strict --p 11 --d 2 --levels 3,7 --a 2,1,1,1,2,2,3,5,5": (1, "2beb2ed2b9c5645bc22f25aeb600266f423351eb577b8954a572be5f61a26b59"),
    "bruteforce --p 11 --sumlimit 24": (1, "ce7763b45e3a5ddcdfeeb0ed63785d936d29d1fa8e9df6b2ad22d621b178c3ba"),
    "--json bruteforce --p 11 --sumlimit 24": (1, "01e35912b516153cbafec5fcc96b38a5b4caf9d7f3308b3f1308ff00c7c8d373"),
    "valid --p 11 --a 3": (1, "5b8639653b346068366fe4afb7d474360b211a5dc2a33795d90df2c418820b45"),
    "--json valid --p 11 --a 3": (1, "6c4177a221737e7bf8df96fad6103adc5bf4bd8f1651667f601838c06bfd9639"),
    "--format csv valid --p 11 --a 3": (1, "736c2a4c1e8fc9e5dab0f4421bb4712434fa8e2392241c6a90391a43f0017b4c"),
    "mildness --p 3 --d 0 --levels= --a=": (0, "45fec663bfadd7f6db9ef5a6593f0571da80d5bca25debb71dea728e3120f272"),
}

#: --help and usage errors: argv -> (exit code, the stream written,
#: SHA-256 of what it holds); the other stream stays empty
USAGE_PINS = {
    "--help": (0, "out", "fdf0ffd226b6e1e8bdd9bac47c6e8e6c31408f428321e008cc3c5008ca827621"),
    "--frobnicate ztypes": (2, "err", "2cfcbdf76a9aefbdfe8be54a5180c0f8ff7e3c9c508c6c1820ea75f3b3d8cf2d"),
    "frobnicate": (2, "err", "10ccbcca8a9abbc6e432ee5de3bdfb4cee7024f956f528a86f04005612507316"),
    "check --p 11": (2, "err", "d7c133ab79e5066496ebbf771d73287e64a46ddf73a7c58144aa7c8c21409586"),
    "--format csv ztypes": (2, "err", "4e3889e7a07f4bd950ade822ffa56de1ee02716aec85730e2fc1f0cf24e5da7c"),
}


@pytest.mark.parametrize("argv", README_PINS)
def test_readme_example_output_is_pinned(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pres = builtin_presentation("heisenberg", 3)
    (tmp_path / "group.txt").write_text(format_group_file(pres.target, pres))
    code, out, err = run(capsys, *argv.split())
    assert err == ""
    assert (code, _sha256(out)) == README_PINS[argv]


@pytest.mark.parametrize("argv", USAGE_PINS)
def test_help_and_usage_errors_are_pinned(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    code, out, err = run(capsys, *argv.split())
    want_code, stream, digest = USAGE_PINS[argv]
    written, empty = (out, err) if stream == "out" else (err, out)
    assert (code, _sha256(written), empty) == (want_code, digest, "")


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    main(["ztypes", "--max-level", "5"])  # built by now, if not before
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in ("ztypes --max-level 5", "--json caps --p 5 --nmax 3", "frobnicate"):
        run(capsys, *argv.split())
    assert built == []
