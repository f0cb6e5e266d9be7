"""Time two source trees of stochwave against each other in one process.

Usage, from the root of a source checkout:

    python3 tools/pair_time.py OLD_SRC NEW_SRC [--reps N]

OLD_SRC and NEW_SRC are directories that each hold a ``stochwave`` package
(for instance a checkout's ``src``).  Each tree is imported under its own
module name, so both live in this process and take turns: every pair runs
the old and the new tree once each, and the order flips from one pair to
the next, so a drift of the host's speed hits both alike.  Two kinds of
pairs are timed:

- ``WaveStepper.run`` on fixed stepping cases (the space, the stepper, the
  paths and the initial state are built before the clock starts), reported
  per sample-step;
- ``metrics.analytic_error_table`` on the ``lin-det-check`` preset's ladder,
  reported per sample-step: the stepping of that table with its spaces and
  error norms, but without the CSV and manifest writes of the CLI;
- whole ``cli.main`` calls on the benchmark's three workloads, written to a
  temporary directory.

For each case it prints each tree's median and quartiles, the median of the
per-pair ratios old / new (above 1: the new tree is faster) and the number
of pairs the new tree won (a tie counts for neither).  A speed claim holds
when the new tree wins at least nine tenths of the pairs and the gap
between the medians exceeds the old tree's interquartile range; each row
says whether it does.  BLAS runs on one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402


@dataclass(frozen=True)
class Case:
    """One stepping block: ``samples`` paths of a preset's problem on the mesh
    at ``level``, ``steps`` steps of size ``tau``."""

    name: str
    preset: str
    level: int
    samples: int
    tau: float
    steps: int
    paper_scale: bool = False


CASES = [
    Case("lin-det L64 S1", "lin-det-check", 64, 1, 1e-4, 5000),
    Case("test1a ref L128 S2", "test1a", 128, 2, 0.1 / 128, 512),
    Case("test3a L16 S4", "test3a", 16, 4, 0.01, 100),
    Case("test2 ref L512 S8 (400 steps)", "test2", 512, 8, 0.1 / 512, 400, paper_scale=True),
]

# The benchmark's workloads (bench/run.py), as CLI arguments.
WORKLOADS = {
    "rates-1d": ["--preset", "test1a", "--samples", "2"],
    "stability-2d": ["--preset", "test3a", "--h-level", "16", "--samples", "4"],
    "lin-det": ["--preset", "lin-det-check"],
}


def load_tree(src: str | Path, name: str):
    """Import the ``stochwave`` package under ``src`` as module ``name``."""
    pkg = Path(src).resolve() / "stochwave"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no stochwave package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]  # a tree loaded before under this name
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("cli", "experiments", "metrics", "noise", "stepper"):
        importlib.import_module(f"{name}.{sub}")
    return module


def stepping_run(tree, case: Case):
    """A no-argument callable that runs the case's block once."""
    problem = tree.experiments.preset_config(case.preset, case.paper_scale).problem()
    space = problem.spaces([case.level])[case.level]
    cfg = tree.stepper.SchemeConfig(
        tau=case.tau, n_steps=case.steps, scheme=problem.scheme,
        newton_abs_tol=problem.newton_abs_tol,
    )
    stepper = tree.stepper.WaveStepper(space, problem.drift, problem.diffusion, cfg)
    paths = [
        tree.noise.sample_path(problem.master_seed, k, case.steps, case.tau)
        for k in range(case.samples)
    ]
    init = tree.stepper.initial_state(space, problem.h1, problem.h2)
    return lambda: stepper.run(paths, init)


def analytic_run(tree, T: float | None = None):
    """A no-argument callable that makes the ``lin-det-check`` preset's
    analytic table once (up to time ``T`` if given), and its sample-steps."""
    cfg = tree.experiments.preset_config("lin-det-check")
    (study,) = cfg.studies
    if T is not None:
        study.T = T
    problem = cfg.problem()
    steps = len(study.levels) * round(study.T / study.tau)
    return (lambda: tree.metrics.analytic_error_table(problem, study)), steps


def cli_run(tree, args: list[str], out: Path):
    """A no-argument callable that makes one quiet CLI call."""

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = tree.cli.main([*args, "--seed", "1", "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"cli.main({args}) exited {rc}")

    return call


def pairs(old, new, reps: int) -> tuple[list[float], list[float]]:
    """Wall times of ``reps`` alternating pairs; odd pairs run new first."""
    old(), new()  # warm both
    times = {old: [], new: []}
    for i in range(reps):
        for fn in (old, new) if i % 2 == 0 else (new, old):
            t = time.perf_counter()
            fn()
            times[fn].append(time.perf_counter() - t)
    return times[old], times[new]


def quartiles(times: list[float]) -> tuple[float, float]:
    """First and third quartiles (linear interpolation, as numpy's default)."""
    if len(times) == 1:
        return times[0], times[0]
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, q3


def summary(name: str, old: list[float], new: list[float], per: int = 1) -> dict:
    """Each tree's median and quartiles (per ``per`` units), the median pair
    ratio old / new, the pairs the new tree won and whether a claim holds."""
    old_q1, old_q3 = (q / per for q in quartiles(old))
    new_q1, new_q3 = (q / per for q in quartiles(new))
    row = {
        "case": name,
        "old": statistics.median(old) / per,
        "new": statistics.median(new) / per,
        "old_q1": old_q1,
        "old_q3": old_q3,
        "new_q1": new_q1,
        "new_q3": new_q3,
        "ratio": statistics.median(a / b for a, b in zip(old, new)),
        "new_wins": sum(b < a for a, b in zip(old, new)),
        "pairs": len(old),
    }
    row["claim_holds"] = (
        row["new_wins"] >= 0.9 * row["pairs"] and row["old"] - row["new"] > old_q3 - old_q1
    )
    print(
        f"{name:32s} old {row['old']:.4g} s [{old_q1:.4g}, {old_q3:.4g}]  "
        f"new {row['new']:.4g} s [{new_q1:.4g}, {new_q3:.4g}]  "
        f"pair ratio {row['ratio']:.3f}  new won {row['new_wins']}/{row['pairs']}  "
        f"claim {'holds' if row['claim_holds'] else 'fails'}",
        flush=True,
    )
    return row


def time_cases(old_tree, new_tree, cases, reps: int) -> list[dict]:
    """Pairs of ``WaveStepper.run`` per case, reported per sample-step."""
    rows = []
    for case in cases:
        t_old, t_new = pairs(stepping_run(old_tree, case), stepping_run(new_tree, case), reps)
        rows.append(summary(case.name + " /step", t_old, t_new, case.samples * case.steps))
    return rows


def time_analytic(old_tree, new_tree, reps: int, T: float | None = None) -> dict:
    """Pairs of the ``lin-det-check`` analytic table, reported per sample-step."""
    (old, steps), (new, _) = analytic_run(old_tree, T), analytic_run(new_tree, T)
    t_old, t_new = pairs(old, new, reps)
    return summary("analytic lin-det-check /step", t_old, t_new, steps)


def time_workloads(old_tree, new_tree, workloads, reps: int) -> list[dict]:
    """Pairs of whole CLI calls per workload."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in workloads.items():
            t_old, t_new = pairs(
                cli_run(old_tree, args, Path(tmp, "old")),
                cli_run(new_tree, args, Path(tmp, "new")),
                reps,
            )
            rows.append(summary("cli " + name, t_old, t_new))
    return rows


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_src", help="directory holding the old stochwave package")
    p.add_argument("new_src", help="directory holding the new stochwave package")
    p.add_argument("--reps", type=int, default=10, help="pairs per case (default 10)")
    args = p.parse_args(argv)
    if args.reps < 1:
        p.error("--reps must be >= 1")
    old_tree = load_tree(args.old_src, "stochwave_old")
    new_tree = load_tree(args.new_src, "stochwave_new")
    time_cases(old_tree, new_tree, CASES, args.reps)
    time_analytic(old_tree, new_tree, args.reps)
    time_workloads(old_tree, new_tree, WORKLOADS, args.reps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
