"""Smoke test of tools/pair_time.py: two trees loaded side by side, one pair
of a small stepping case and of a short analytic table."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pair_time():
    spec = importlib.util.spec_from_file_location("pair_time", ROOT / "tools" / "pair_time.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["pair_time"] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def test_one_pair_of_a_small_case(pair_time, capsys):
    start = time.perf_counter()
    old = pair_time.load_tree(ROOT / "src", "stochwave_pair_old")
    new = pair_time.load_tree(ROOT / "src", "stochwave_pair_new")
    assert old.stepper.WaveStepper is not new.stepper.WaveStepper  # two separate trees
    case = pair_time.Case("smoke", "lin-det-check", 8, 1, 1e-4, 50)
    (row,) = pair_time.time_cases(old, new, [case], reps=1)
    assert time.perf_counter() - start < 2.0
    assert row["case"] == "smoke /step" and row["old"] > 0 and row["new"] > 0
    assert row["ratio"] > 0
    assert row["old_q1"] == row["old_q3"] == row["old"]  # one pair: no spread
    assert row["new_q1"] == row["new_q3"] == row["new"]
    assert row["pairs"] == 1 and row["new_wins"] == (row["new"] < row["old"])
    assert row["claim_holds"] == (row["new"] < row["old"])
    assert "smoke /step" in capsys.readouterr().out


def test_one_pair_of_a_short_analytic_table(pair_time, capsys):
    old = pair_time.load_tree(ROOT / "src", "stochwave_pair_old")
    new = pair_time.load_tree(ROOT / "src", "stochwave_pair_new")
    run, steps = pair_time.analytic_run(new, T=0.005)
    assert steps == 4 * 50  # the preset's four levels, 50 steps of 1e-4
    table = run()
    assert table.mode == "spatial" and table.l2.shape == (4,)
    row = pair_time.time_analytic(old, new, reps=1, T=0.005)
    assert row["case"] == "analytic lin-det-check /step" and row["pairs"] == 1
    assert row["old"] > 0 and row["new"] > 0 and row["old"] < 1e-3  # per sample-step
    assert "analytic lin-det-check /step" in capsys.readouterr().out
    _, full_steps = pair_time.analytic_run(new)
    assert full_steps == 4 * 5000  # the ladder the benchmark's lin-det workload steps


def test_a_tree_without_the_package_is_refused(pair_time, tmp_path):
    with pytest.raises(SystemExit):
        pair_time.load_tree(tmp_path, "stochwave_missing")


def test_summary_quartiles_wins_and_claim(pair_time):
    old = [10.0, 11.0, 12.0, 13.0, 14.0] * 2  # median 12, quartiles 11 and 13
    faster = [x - 3.0 for x in old[:9]] + [old[9]]  # the last pair a tie
    row = pair_time.summary("claim", old, faster, per=2)
    assert (row["old_q1"], row["old"], row["old_q3"]) == (5.5, 6.0, 6.5)
    assert (row["new_q1"], row["new"], row["new_q3"]) == (4.0, 4.5, 5.0)
    assert row["new_wins"] == 9 and row["pairs"] == 10
    assert row["claim_holds"]  # 9/10 won, and the gap 1.5 exceeds the old IQR 1.0
    narrow = pair_time.summary("narrow", old, [x - 1.0 for x in old[:9]] + [15.0])
    assert narrow["new_wins"] == 9 and not narrow["claim_holds"]  # gap 1 < IQR 2
    lost = pair_time.summary("lost", old, [x - 3.0 for x in old[:8]] + [15.0, 15.0])
    assert lost["new_wins"] == 8 and not lost["claim_holds"]
