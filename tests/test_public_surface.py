"""Every name a stochwave module exports in ``__all__`` is one the program
uses: loaded somewhere in src/stochwave outside ``__init__.py``, imported by
the benchmark's scripts, or the console entry point.  A helper that only the
tests call belongs under tests/ (see oracles.py)."""

import ast
import importlib
import pkgutil
import tomllib
from pathlib import Path

import stochwave
from test_bench_names import SCRIPTS, _imported_names

ROOT = Path(__file__).resolve().parents[1]


def _loaded_names() -> set[str]:
    """Every name and attribute that the package's modules load."""
    names = set()
    for path in (ROOT / "src" / "stochwave").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def _entry_points() -> set[tuple[str, str]]:
    """(module, name) of each ``[project.scripts]`` entry point."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return {tuple(target.split(":")) for target in scripts.values()}


def test_every_exported_name_is_used_by_the_program():
    used = _loaded_names() | {name for s in SCRIPTS for _, name in _imported_names(s)}
    entry = _entry_points()
    unused = [
        f"{module.__name__}.{name}"
        for module in (
            importlib.import_module(f"stochwave.{info.name}")
            for info in pkgutil.iter_modules(stochwave.__path__)
        )
        for name in getattr(module, "__all__", ())
        if name not in used and (module.__name__, name) not in entry
    ]
    assert not unused, f"exported but used only outside the program: {unused}"
