"""Smoke test of tools/traffic.py: the lines that a preset never runs."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traffic():
    spec = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["traffic"] = module
    spec.loader.exec_module(module)
    return module


def _body(function) -> set[int]:
    """The lines holding an instruction of the function, but its ``def``."""
    code = function.__code__
    return {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}


def test_lin_det_check_runs_the_chord_march_and_never_full_newton():
    traffic = _traffic()
    from stochwave.stepper import WaveStepper

    unreached = traffic.unreached(["lin-det-check"], samples=3)
    assert set(unreached) == {Path(m.__file__).name for m in traffic.MODULES}
    stepper = set(unreached["stepper.py"])
    newton, run = _body(WaveStepper._newton), _body(WaveStepper.run)
    assert newton and newton <= stepper
    assert max(run) not in stepper  # the march ran to its return
    assert len(run & stepper) < len(run) // 2
    assert traffic.ranges([3, 4, 6, 9], {3, 4, 6, 8, 9}) == ["3-6", "9"]
