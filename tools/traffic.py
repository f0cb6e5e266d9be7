"""List the lines of stochwave that a set of presets never runs.

Usage, from the root of a source checkout:

    python3 tools/traffic.py [PRESET ...] [--samples N]

Each preset (default: all of them) runs through ``cli.main`` with
``--samples N`` (default 3) and one worker, in this process and under
``sys.settrace``; the outputs go to a temporary directory.  For each module
of ``src/stochwave`` it then prints the executable lines that no preset ran,
as ranges of consecutive executable lines.  A line is executable when the
code of a function, method, lambda or comprehension holds an instruction on
it; module and class bodies run at import, so their lines are not counted.
A function's ``def`` line counts as run when the function is called.  BLAS
runs on one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import stochwave  # noqa: E402
from stochwave.experiments import PRESETS  # noqa: E402

PACKAGE = Path(stochwave.__file__).parent
MODULES = [
    importlib.import_module(f"stochwave.{p.stem}")
    for p in sorted(PACKAGE.glob("*.py"))
    if p.stem != "__init__"
]


def executable_lines(module: types.ModuleType) -> set[int]:
    """The lines of the module that hold an instruction of some function."""
    path = Path(module.__file__)
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
            lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def reached_lines(presets: list[str], samples: int) -> dict[str, set[int]]:
    """Per module file name, the lines that the presets' CLI runs reached."""
    names = {m.__file__: Path(m.__file__).name for m in MODULES}
    reached = {name: set() for name in names.values()}

    def local(frame, event, arg):
        if event == "line":
            reached[names[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = names.get(frame.f_code.co_filename)
        if name is None:
            return None
        reached[name].add(frame.f_code.co_firstlineno)
        return local

    cli = importlib.import_module("stochwave.cli")
    previous = sys.gettrace()
    with tempfile.TemporaryDirectory() as tmp:
        for preset in presets:
            args = ["--preset", preset, "--samples", str(samples), "--threads", "1"]
            sys.settrace(calls)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main([*args, "--out", str(Path(tmp, preset))])
            finally:
                sys.settrace(previous)
            if rc != 0:
                raise RuntimeError(f"cli.main({args}) exited {rc}")
    return reached


def unreached(presets: list[str], samples: int = 3) -> dict[str, list[int]]:
    """Per module file name, the executable lines that no preset ran."""
    reached = reached_lines(presets, samples)
    return {
        Path(m.__file__).name: sorted(executable_lines(m) - reached[Path(m.__file__).name])
        for m in MODULES
    }


def ranges(lines: list[int], executable: set[int]) -> list[str]:
    """The lines as runs of consecutive executable lines, e.g. ``12-19``."""
    order = sorted(executable)
    position = {line: i for i, line in enumerate(order)}
    runs: list[list[int]] = []
    for line in lines:
        if runs and position[line] == position[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return [str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "presets", nargs="*", metavar="PRESET",
        help=f"presets to run (default: all of {', '.join(sorted(PRESETS))})",
    )
    p.add_argument("--samples", type=int, default=3, help="samples per preset (default 3)")
    args = p.parse_args(argv)
    unknown = sorted(set(args.presets) - set(PRESETS))
    if unknown:
        p.error(f"unknown preset(s): {', '.join(unknown)}")
    if args.samples < 1:
        p.error("--samples must be >= 1")
    presets = args.presets or sorted(PRESETS)
    lines = unreached(presets, args.samples)
    total = unrun = 0
    for module in MODULES:
        name = Path(module.__file__).name
        executable = executable_lines(module)
        total, unrun = total + len(executable), unrun + len(lines[name])
        spans = ", ".join(ranges(lines[name], executable)) or "-"
        print(f"{name}: {len(lines[name])} of {len(executable)} lines unreached: {spans}")
    print(f"all: {unrun} of {total} executable lines unreached by {', '.join(presets)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
