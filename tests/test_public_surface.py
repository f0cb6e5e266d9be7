"""Every name a stochwave module exports in ``__all__`` is one the program
uses: loaded somewhere in src/stochwave outside ``__init__.py``, imported by
the benchmark's scripts, or the console entry point.  Every public method or
property of a class is loaded in the package or read by the benchmark, and
so is every field of a public class (a string constant of the package,
such as a CSV column looked up by ``getattr``, counts as a read).  A helper
that only the tests call belongs under tests/ (see oracles.py)."""

import ast
import importlib
import pkgutil
import tomllib
from pathlib import Path

import stochwave
from test_bench_names import BENCH, SCRIPTS, _imported_names

ROOT = Path(__file__).resolve().parents[1]


def _loaded_names(bare: bool = True) -> set[str]:
    """Every attribute that the package's modules load, and with ``bare``
    every bare name they load too."""
    names = set()
    for path in (ROOT / "src" / "stochwave").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name) and bare:
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


def _bench_reads() -> set[str]:
    """Attributes the benchmark's scripts load, and those its tracer wraps."""
    names = set()
    for script in SCRIPTS:
        for node in ast.walk(ast.parse((BENCH / script).read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    tracer = ast.parse((BENCH / "tracer.py").read_text()).body
    (targets,) = [
        n.value for n in tracer
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "_TARGETS"
    ]
    return names | {attribute for _, _, attribute, _ in ast.literal_eval(targets)}


def test_every_public_class_member_is_used_by_the_program():
    used = _loaded_names() | _bench_reads()
    unused = [
        f"{path.stem}.{cls.name}.{f.name}"
        for path in sorted((ROOT / "src" / "stochwave").glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_") and f.name not in used
    ]
    assert not unused, f"defined but used only outside the program: {unused}"


def _string_constants(paths) -> set[str]:
    """Every string constant in the given sources: names that the program
    reads through ``getattr`` (the stability CSV's column list) count."""
    return {
        node.value
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_every_public_class_field_is_read_by_the_program():
    """A field counts as read when the package or the benchmark loads an
    attribute of its name, or the package holds its name as a string.  A
    local variable of the same name is no read.  The guard matches names,
    not classes: a field passes when a same-named attribute of any other
    class is read."""
    sources = [p for p in (ROOT / "src" / "stochwave").glob("*.py") if p.name != "__init__.py"]
    # the tracer reads what a traced call returns (Trajectory.newton_iters)
    tracer = {
        node.attr
        for node in ast.walk(ast.parse((BENCH / "tracer.py").read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    read = _loaded_names(bare=False) | _bench_reads() | tracer | _string_constants(sources)
    unread = [
        f"{path.stem}.{cls.name}.{f.target.id}"
        for path in sorted(sources)
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for f in cls.body
        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
        and f.target.id not in read
    ]
    assert not unread, f"fields that neither the program nor the benchmark reads: {unread}"
