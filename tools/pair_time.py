"""Time two source trees of stochwave against each other in interleaved pairs.

Usage, from the root of a source checkout:

    python3 tools/pair_time.py OLD_SRC NEW_SRC [--reps N]

OLD_SRC and NEW_SRC are directories that each hold a ``stochwave`` package
(for instance a checkout's ``src``).  Each row is timed in a fresh Python
process, so no row inherits the heap or the caches of the rows before it.
That process imports each tree under its own module name, so both live in
it and take turns: every pair runs the old and the new tree once each, and
the order flips from one pair to the next, so a drift of the host's speed
hits both alike.  The rows are:

- ``WaveStepper.run`` on fixed stepping cases (the space, the stepper, the
  paths and the initial state are built before the clock starts), reported
  per sample-step; a case of several levels steps their direct sum, so a
  sample-step there steps every level of the ladder;
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
says whether it does.  Ten pairs can read a loss of nine on code that did
not change, so a row whose old tree wins at least nine tenths of the pairs
is rerun alone, once with each tree first, and a verdict line names all
three runs: the loss holds when at least two of them lose.  BLAS runs on one
thread.
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
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402


@dataclass(frozen=True)
class Case:
    """One stepping block: ``samples`` paths of a preset's problem on the
    direct sum of the meshes at ``levels`` (one level: that mesh's space),
    ``steps`` steps of size ``tau``."""

    name: str
    preset: str
    levels: tuple[int, ...]
    samples: int
    tau: float
    steps: int
    paper_scale: bool = False


CASES = [
    Case("lin-det L64 S1", "lin-det-check", (64,), 1, 1e-4, 5000),
    Case("test1a ref L128 S2", "test1a", (128,), 2, 0.1 / 128, 512),
    Case("test3a L16 S4", "test3a", (16,), 4, 0.01, 100),
    Case("test2 ref L512 S8 (400 steps)", "test2", (512,), 8, 0.1 / 512, 400, paper_scale=True),
    # test1a's spatial ladder and its reference, whose runs of four samples
    # share columns: the march of a spatial rate block
    Case("test1a ladder L4-128 S4", "test1a", (4, 8, 16, 32, 64, 128), 4, 1e-3, 500),
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
    for sub in ("cli", "experiments", "fem", "metrics", "noise", "stepper"):
        importlib.import_module(f"{name}.{sub}")
    return module


def stepping_run(tree, case: Case):
    """A no-argument callable that runs the case's block once."""
    problem = tree.experiments.preset_config(case.preset, case.paper_scale).problem()
    spaces = problem.spaces(case.levels)
    space = tree.fem.direct_sum([spaces[level] for level in case.levels])
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


def pairs(old, new, reps: int, new_first: bool = False) -> tuple[list[float], list[float]]:
    """Wall times of ``reps`` alternating pairs; odd pairs run new first, or
    even pairs with ``new_first``."""
    old(), new()  # warm both
    times = {old: [], new: []}
    for i in range(reps):
        for fn in (new, old) if (i % 2 == 1) != new_first else (old, new):
            t = time.perf_counter()
            fn()
            times[fn].append(time.perf_counter() - t)
    return times[old], times[new]


# The fresh process of one row: it loads this file by its path (argv[1]),
# reads the row's job on stdin and prints its times as the last line.
_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("pair_time", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
sys.modules["pair_time"] = tool  # its dataclass looks its module up
spec.loader.exec_module(tool)
print(json.dumps(tool.run_job(json.load(sys.stdin))))
"""


def run_apart(old_tree, new_tree, kind: str, arg, reps: int, new_first: bool = False) -> dict:
    """The pairs of one row, timed in a fresh Python process that loads both
    trees anew (see `run_job`): ``{"old": [...], "new": [...], "pid": ...}``."""
    trees = [str(Path(tree.__file__).parents[1]) for tree in (old_tree, new_tree)]
    job = {"trees": trees, "kind": kind, "arg": arg, "reps": reps, "new_first": new_first}
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, __file__],
        input=json.dumps(job), capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"the {kind} row {arg} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def run_job(job: dict) -> dict:
    """Time one row's pairs in this process: a stepping ``case``, the
    ``analytic`` table (up to time ``arg``) or the ``cli`` arguments ``arg``."""
    old_tree = load_tree(job["trees"][0], "stochwave_old")
    new_tree = load_tree(job["trees"][1], "stochwave_new")
    kind, arg = job["kind"], job["arg"]
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "case":
            case = Case(**{**arg, "levels": tuple(arg["levels"])})
            old, new = stepping_run(old_tree, case), stepping_run(new_tree, case)
        elif kind == "analytic":
            old, new = analytic_run(old_tree, arg)[0], analytic_run(new_tree, arg)[0]
        else:
            old = cli_run(old_tree, arg, Path(tmp, "old"))
            new = cli_run(new_tree, arg, Path(tmp, "new"))
        t_old, t_new = pairs(old, new, job["reps"], job["new_first"])
    return {"old": t_old, "new": t_new, "pid": os.getpid()}


def quartiles(times: list[float]) -> tuple[float, float]:
    """First and third quartiles (linear interpolation, as numpy's default)."""
    if len(times) == 1:
        return times[0], times[0]
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, q3


def summary(name: str, old: list[float], new: list[float], per: int = 1) -> dict:
    """Each tree's median and quartiles (per ``per`` units), the median pair
    ratio old / new, the pairs each tree won, whether a claim holds and
    whether the row loses (the old tree won nine tenths of the pairs)."""
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
        "old_wins": sum(a < b for a, b in zip(old, new)),
        "pairs": len(old),
    }
    row["claim_holds"] = (
        row["new_wins"] >= 0.9 * row["pairs"] and row["old"] - row["new"] > old_q3 - old_q1
    )
    row["loses"] = row["old_wins"] >= 0.9 * row["pairs"]
    print(
        f"{name:32s} old {row['old']:.4g} s [{old_q1:.4g}, {old_q3:.4g}]  "
        f"new {row['new']:.4g} s [{new_q1:.4g}, {new_q3:.4g}]  "
        f"pair ratio {row['ratio']:.3f}  new won {row['new_wins']}/{row['pairs']}  "
        f"claim {'holds' if row['claim_holds'] else 'fails'}",
        flush=True,
    )
    return row


def time_row(old_tree, new_tree, name: str, kind: str, arg, reps: int, per: int = 1) -> dict:
    """The summary of one row's pairs.  A row that loses is rerun alone, once
    with each tree first; its summary then lists the reruns' summaries under
    ``reruns``, ``loss_holds`` says whether two of the three runs lost, and a
    verdict line names all three."""
    t = run_apart(old_tree, new_tree, kind, arg, reps)
    row = summary(name, t["old"], t["new"], per)
    if not row["loses"]:
        return row
    runs = [row]
    for first in ("old", "new"):
        t = run_apart(old_tree, new_tree, kind, arg, reps, new_first=first == "new")
        runs.append(summary(f"{name} (rerun, {first} first)", t["old"], t["new"], per))
    row["reruns"] = runs[1:]
    lost = sum(r["loses"] for r in runs)
    row["loss_holds"] = lost >= 2
    named = ", ".join(
        f"{label} {r['ratio']:.3f} (old won {r['old_wins']}/{r['pairs']})"
        for label, r in zip(("first run", "old first", "new first"), runs)
    )
    print(
        f"{name:32s} verdict: {lost} of 3 runs lost ({named}); "
        f"loss {'holds' if row['loss_holds'] else 'not confirmed'}",
        flush=True,
    )
    return row


def time_cases(old_tree, new_tree, cases, reps: int) -> list[dict]:
    """Pairs of ``WaveStepper.run`` per case, reported per sample-step."""
    return [
        time_row(
            old_tree, new_tree, case.name + " /step", "case", asdict(case), reps,
            case.samples * case.steps,
        )
        for case in cases
    ]


def time_analytic(old_tree, new_tree, reps: int, T: float | None = None) -> dict:
    """Pairs of the ``lin-det-check`` analytic table, reported per sample-step."""
    _, steps = analytic_run(new_tree, T)
    return time_row(old_tree, new_tree, "analytic lin-det-check /step", "analytic", T, reps, steps)


def time_workloads(old_tree, new_tree, workloads, reps: int) -> list[dict]:
    """Pairs of whole CLI calls per workload."""
    return [
        time_row(old_tree, new_tree, "cli " + name, "cli", args, reps)
        for name, args in workloads.items()
    ]


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
