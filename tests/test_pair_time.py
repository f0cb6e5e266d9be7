"""Smoke test of tools/pair_time.py: two trees loaded side by side, one pair
of a small stepping case."""

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
    assert "smoke /step" in capsys.readouterr().out


def test_a_tree_without_the_package_is_refused(pair_time, tmp_path):
    with pytest.raises(SystemExit):
        pair_time.load_tree(tmp_path, "stochwave_missing")
