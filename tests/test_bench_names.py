"""The benchmark under bench/ is kept frozen while the program changes, so
every stochwave name it imports or looks up must keep resolving."""

import ast
import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SCRIPTS = ["plan.py", "setup_probe.py", "run.py"]


def _imported_names(script: str) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from stochwave... import name`` in the
    script, and (module, None) for each ``import stochwave...``."""
    out = []
    for node in ast.walk(ast.parse((BENCH / script).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stochwave"):
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names if a.name.startswith("stochwave")]
    return out


@pytest.mark.parametrize("script", SCRIPTS)
def test_bench_imports_resolve(script):
    names = _imported_names(script)
    assert names, f"bench/{script} imports nothing from stochwave"
    for module, name in names:
        owner = importlib.import_module(module)
        assert name is None or hasattr(owner, name), f"{module}.{name}"


# Lookups the benchmark makes by attribute: run.py calls ``cli.main`` and
# wraps ``cli.run_experiment`` to read the result's energy residual, and its
# tracer wraps these functions where experiments and cli look them up.
ATTRIBUTES = {
    "stochwave.cli": ["main", "run_experiment", "validate_config"],
    "stochwave.experiments": [
        "convergence_table",
        "analytic_error_table",
        "run_ensemble",
        "subset_fraction",
        "validate_config",
    ],
}


def test_bench_attribute_lookups_resolve():
    for module, names in ATTRIBUTES.items():
        owner = importlib.import_module(module)
        for name in names:
            assert callable(getattr(owner, name, None)), f"{module}.{name}"
    from stochwave.experiments import ExperimentResult

    fields = {f.name for f in dataclasses.fields(ExperimentResult)}
    assert "max_energy_violation" in fields


# Tracer targets that no longer resolve and so are skipped: the CSV writers
# became ``write_csv``, ``noise_load`` left the stepper, the stepper's ledger
# computes H itself and nothing called ``hamiltonian``, so it left the
# program, the mesh builders are no longer looked up through these modules,
# and the rate study maps its batches through the ensemble's ``parallel_map``.
KNOWN_DEAD = {
    ("experiments", None, "write_rate_csv"),
    ("experiments", None, "write_stability_csv"),
    ("stepper", "WaveStepper", "noise_load"),
    ("stepper", None, "hamiltonian"),
    ("experiments", None, "build_interval_mesh"),
    ("experiments", None, "build_unit_square_tri_mesh"),
    ("metrics", None, "build_interval_mesh"),
    ("metrics", None, "build_unit_square_tri_mesh"),
    ("metrics", None, "refine_uniform"),
    ("metrics", None, "parallel_map"),
}


def _tracer_targets() -> list[tuple[str, str | None, str]]:
    """(module, class or None, attribute) of each entry of the tracer's
    ``_TARGETS`` list, read from its source."""
    for node in ast.parse((BENCH / "tracer.py").read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["_TARGETS"]:
            return [entry[:3] for entry in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracer.py defines no _TARGETS")


def _resolves(module: str, cls: str | None, attr: str) -> bool:
    """Whether the tracer finds the attribute to wrap, as it looks it up."""
    owner = importlib.import_module(f"stochwave.{module}")
    if cls is not None:
        owner = getattr(owner, cls, None)
    return owner is not None and attr in vars(owner)


def test_tracer_targets_resolve():
    # a missing target is skipped without a word and its metric reads 0,
    # so every target resolves but the known dead ones, which really are dead
    targets = _tracer_targets()
    assert KNOWN_DEAD <= set(targets)
    for target in targets:
        assert _resolves(*target) == (target not in KNOWN_DEAD), target


def _bench_module(monkeypatch, name: str):
    monkeypatch.syspath_prepend(str(BENCH))
    for module in ("plan", "setup_probe"):
        sys.modules.pop(module, None)
    return importlib.import_module(name)


def test_bench_plan_reads_every_preset(monkeypatch):
    """plan.py reads the fields of every study kind and the config."""
    from stochwave.experiments import PRESETS, preset_config

    plan = _bench_module(monkeypatch, "plan")
    for name in PRESETS:
        cfg = preset_config(name)
        assert plan.sample_steps(cfg) > 0 and plan.samples_attempted(cfg) > 0


def test_setup_probe_runs(capsys, monkeypatch):
    """setup_probe.py builds every space and stepper of a preset itself."""
    probe = _bench_module(monkeypatch, "setup_probe")
    probe.main(["--preset", "lin-det-check"])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["spaces"] == 4 and report["steppers"] == 4
