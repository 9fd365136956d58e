"""The reproduction scripts under scripts/, run as a user runs them."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_group_oracle_report_passes_at_p3():
    # the script puts src/ on its own path, so it runs from a bare checkout
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "group_oracle_report.py"), "--primes", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "all cross-checks passed" in done.stdout.splitlines()


def test_reproduce_order_bound_default_run():
    # p = 11: the greedy minimum, then the sweep one below it
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_order_bound.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "minimal sum: 23 at a = (2,1,1,1,2,2,3,5,6)" in done.stdout.splitlines()
    assert "all violated: True" in done.stdout


@pytest.mark.parametrize(
    "args, reason",
    [
        (["--p", "7"], "error: the cap table requires a prime p >= 11"),
        (["--ab", "1"], "error: --ab takes two integers a,b, got '1'"),
    ],
)
def test_reproduce_order_bound_rejects_a_bad_argument_with_exit_2(args, reason):
    # exit 1 is reserved for a counterexample below the optimum
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_order_bound.py"), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.splitlines() == [reason]
    assert done.stdout == ""
