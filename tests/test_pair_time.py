"""Smoke test of tools/pair_time.py: two trees loaded side by side, one pair
of a small stepping case, of a short ladder march and of a short analytic
table, each row timed in a process of its own."""

import dataclasses
import importlib.util
import os
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
    case = pair_time.Case("smoke", "lin-det-check", (8,), 1, 1e-4, 50)
    (row,) = pair_time.time_cases(old, new, [case], reps=1)
    assert time.perf_counter() - start < 2.0
    assert row["case"] == "smoke /step" and row["old"] > 0 and row["new"] > 0
    assert row["ratio"] > 0
    assert row["old_q1"] == row["old_q3"] == row["old"]  # one pair: no spread
    assert row["new_q1"] == row["new_q3"] == row["new"]
    assert row["pairs"] == 1 and row["new_wins"] == (row["new"] < row["old"])
    assert row["claim_holds"] == (row["new"] < row["old"])
    assert "smoke /step" in capsys.readouterr().out


def test_a_row_is_timed_in_a_process_of_its_own(pair_time):
    old = pair_time.load_tree(ROOT / "src", "stochwave_pair_old")
    new = pair_time.load_tree(ROOT / "src", "stochwave_pair_new")
    case = pair_time.Case("apart", "lin-det-check", (8,), 1, 1e-4, 50)
    times = pair_time.run_apart(old, new, "case", dataclasses.asdict(case), reps=2)
    assert times["pid"] != os.getpid()
    assert len(times["old"]) == len(times["new"]) == 2
    assert min(times["old"] + times["new"]) > 0


def test_one_pair_of_a_short_ladder_march(pair_time, capsys):
    (ladder,) = [case for case in pair_time.CASES if len(case.levels) > 1]
    assert (ladder.preset, ladder.levels) == ("test1a", (4, 8, 16, 32, 64, 128))
    assert (ladder.samples, ladder.tau, ladder.steps) == (4, 1e-3, 500)
    old = pair_time.load_tree(ROOT / "src", "stochwave_pair_old")
    new = pair_time.load_tree(ROOT / "src", "stochwave_pair_new")
    short = dataclasses.replace(ladder, name="ladder smoke", steps=5)
    traj = pair_time.stepping_run(new, short)()
    assert traj.samples.tolist() == list(range(6 * 4))  # one run per level and sample
    (row,) = pair_time.time_cases(old, new, [short], reps=1)
    assert row["case"] == "ladder smoke /step" and row["pairs"] == 1
    assert row["old"] > 0 and row["new"] > 0
    assert "ladder smoke /step" in capsys.readouterr().out


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


def test_pairs_alternate_the_tree_that_runs_first(pair_time):
    order = []
    old, new = (lambda: order.append("old")), (lambda: order.append("new"))
    pair_time.pairs(old, new, reps=2)
    assert order[2:] == ["old", "new", "new", "old"]  # after one warm-up call each
    order.clear()
    pair_time.pairs(old, new, reps=2, new_first=True)
    assert order[2:] == ["new", "old", "old", "new"]


def test_a_losing_row_is_rerun_once_with_each_tree_first(pair_time, monkeypatch, capsys):
    fast, slow = [1.0] * 10, [2.0] * 10
    mixed = [1.0, 3.0] * 5  # the old tree wins 5 of 10 against ``[2.0] * 10``
    results = iter([(fast, slow), (mixed, slow), (fast, [2.0] * 9 + [0.5])])
    calls = []

    def fake_run_apart(old_tree, new_tree, kind, arg, reps, new_first=False):
        calls.append(new_first)
        t_old, t_new = next(results)
        return {"old": t_old, "new": t_new, "pid": 0}

    monkeypatch.setattr(pair_time, "run_apart", fake_run_apart)
    row = pair_time.time_row(None, None, "slower", "cli", [], reps=10)
    assert calls == [False, False, True]  # the first run, then old first, then new first
    assert row["loses"] and [r["loses"] for r in row["reruns"]] == [False, True]
    assert row["loss_holds"]  # two of the three runs lost
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert "2 of 3 runs lost" in verdict and "loss holds" in verdict
    assert "old won 10/10" in verdict and "old won 5/10" in verdict and "old won 9/10" in verdict

    results = iter([(fast, slow), (mixed, slow), (mixed, slow)])
    row = pair_time.time_row(None, None, "noise", "cli", [], reps=10)
    assert not row["loss_holds"]
    assert "1 of 3 runs lost" in capsys.readouterr().out.splitlines()[-1]

    results, calls[:] = iter([(slow, fast)]), []
    row = pair_time.time_row(None, None, "faster", "cli", [], reps=10)
    assert calls == [False] and "reruns" not in row  # a row that wins is not rerun
