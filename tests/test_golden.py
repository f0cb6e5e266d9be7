"""Golden regression: CSV data rows of eight desk-scale CLI runs.

``golden_rows.json`` holds the data rows (the CSV lines below the ``#``
header, which carries the manifest hash).  The rows of ``test1a``, ``test3a``
and ``lin-det-check`` were written by the Newton solver with
banded-Cholesky/PCG linear solves, before the chord solver replaced it; the
rows of ``test2`` by the per-sample chord solver, before samples were stepped
in batches; the rows of ``test1b``, ``test1c``, ``test3b`` and ``test3c`` by
the batched chord core at commit 75321ef, before the stability and rate
studies shared one Monte Carlo engine.  Each preset runs at its own master
seed, 20240901.

Tolerance, the same as the benchmark's output check: a value matches when it
is within a relative 1e-4 of the pinned one plus one unit in the last printed
digit; an ``*_order`` column (log2 of an error ratio, which errors within
1e-4 move by up to 2e-4/ln 2) matches within an absolute 3e-4 plus one unit
in its last digit.  A change of solver at the same Newton tolerance moves the
rows by ~1e-5; a change of discretization moves them by far more.
"""

import json
from pathlib import Path

import pytest

from stochwave.cli import main

RTOL = 1e-4
ORDER_ATOL = 3e-4
GOLDEN = json.loads((Path(__file__).parent / "golden_rows.json").read_text())


def _last_digit(s: str) -> float:
    """One unit in the last printed digit of a number like 1.25e-03 or 2.0772."""
    mantissa, _, exponent = s.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** ((int(exponent) if exponent else 0) - decimals)


def _field_matches(got: str, want: str, column: str) -> bool:
    if got == want:
        return True
    if not got or not want:
        return False
    x, y = float(got), float(want)
    slack = max(_last_digit(got), _last_digit(want))
    if column.endswith("_order"):
        return abs(x - y) <= ORDER_ATOL + slack
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + slack


def test_field_tolerance():
    assert _field_matches("1.000000000000e-02", "1.000090000000e-02", "l2")
    assert not _field_matches("1.000000000000e-02", "1.000200000000e-02", "l2")
    assert _field_matches("2.0772", "2.0775", "l2_order")
    assert not _field_matches("2.0772", "2.0777", "l2_order")
    assert not _field_matches("", "2.0772", "l2_order")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_rows_match_golden(name, tmp_path):
    run = GOLDEN[name]
    assert main(run["cli_args"] + ["--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(run["files"])
    for fname, want in run["files"].items():
        text = (tmp_path / fname).read_text()
        got = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(got) == len(want), fname
        assert got[0] == want[0], fname
        columns = want[0].split(",")
        for n, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
            gf, wf = g.split(","), w.split(",")
            assert len(gf) == len(wf), f"{fname} row {n}"
            for col, a, b in zip(columns, gf, wf):
                assert _field_matches(a, b, col), f"{fname} row {n} {col}: {a} != {b}"
