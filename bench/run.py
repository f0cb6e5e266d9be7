"""Benchmark of the stochwave CLI: fixed workloads, end-to-end metrics, and a
traced per-layer breakdown.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload rates-1d --seed 1 --seconds 30 --trace 0

Each run calls ``stochwave.cli.main`` in this process, on the workload's
arguments plus ``--seed``, again and again for about ``--seconds``, and
reports medians over those calls.  Before measuring it makes one
untimed check call at a pinned seed, whose CSV data rows must match the rows
stored in ``bench/golden.json``; for rates-1d, a second check call through a
two-worker pool must write the same bytes.  Every measured call must write
the same bytes, and all of them run in this one process.

``--trace 0`` prints the end-to-end metrics: run_s, sample_steps_per_s,
setup_s (median of fresh-process set-ups, see setup_probe.py) and
peak_rss_mb.  ``--trace 1`` alternates untraced and traced calls and prints
the per-layer metrics of tracer.py plus the tracing overhead.  The last line
of standard output is one JSON object; the lines before it, and a report
under ``.bench_work/``, give the same figures for a reader, with the
environment, the output checks, the energy-residual contract and the
projected paper-scale cost.
"""

from __future__ import annotations

import os

# One BLAS thread per process, so the two-worker check call stays within two
# cores.  Set before numpy is imported; every child process inherits it.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH_DIR / "golden.json"

CHECK_SEED = 20240901  # the presets' own master seed
# Relative tolerance of the golden comparison.  Tightening the Newton
# tolerance from 1e-11 to 1e-13 moves the outputs by up to 2.4e-5, so a
# solver change at the same tolerance stays well inside it; a change of
# discretization moves them by far more.
RTOL = 1e-4
ENERGY_CONTRACT = 1e-8  # per-step energy residual / (1 + |H|)
SETUP_REPS = 7


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]  # stochwave CLI arguments, without --seed
    paper_presets: tuple[str, ...]  # presets whose paper-scale cost is projected
    # Worker count of one more untimed check call, through the process pool,
    # which must write the bytes of the one-worker check call (0: none).
    pool_check: int = 0

    def cli_args(self, seed: int, threads: int = 1) -> list[str]:
        extra = ["--threads", str(threads)] if threads > 1 else []
        return [*self.args, *extra, "--seed", str(seed)]


# Why each workload was chosen is recorded in BENCHMARK.json.  Every measured
# call runs in this one process, so a run measures one core.
WORKLOADS = {
    "rates-1d": Workload(("--preset", "test1a", "--samples", "2"), ("test1a", "test2"), pool_check=2),
    "stability-2d": Workload(("--preset", "test3a", "--h-level", "16", "--samples", "4"), ("test3a",)),
    "lin-det": Workload(("--preset", "lin-det-check"), ("lin-det-check",)),
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import stochwave from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "stochwave" / "__init__.py").is_file():
        fail(f"no stochwave sources under {SRC}; run from a full source checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import stochwave
    import stochwave.cli

    if Path(stochwave.__file__).resolve().parent != SRC / "stochwave":
        fail(f"imported stochwave from {stochwave.__file__}, not from {SRC}")
    return stochwave.cli


# ---------------------------------------------------------------------------
# CLI calls
# ---------------------------------------------------------------------------


@dataclass
class Call:
    args: list[str]
    rc: int
    run_s: float
    csv: dict[str, bytes]
    manifest: dict | None
    energy: float | None
    failures: int
    log: str
    layers: dict[str, float] = field(default_factory=dict)
    spans: dict[str, dict[str, float]] = field(default_factory=dict)


class Runner:
    """Calls stochwave.cli.main in this process and collects what it wrote."""

    def __init__(self, cli, tracer) -> None:
        self.cli = cli
        self.tracer = tracer
        self._result = None
        run_experiment = cli.run_experiment

        def capture(*args, **kwargs):
            # ExperimentResult carries the energy residual, which no file has
            self._result = run_experiment(*args, **kwargs)
            return self._result

        cli.run_experiment = capture

    def call(self, args: list[str], out_dir: Path, traced: bool = False) -> Call:
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [*args, "--out", str(out_dir)]
        self._result = None
        if traced:
            self.tracer.reset()
            self.tracer.install()
        gc.collect()
        log = io.StringIO()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                t0 = time.perf_counter()
                try:
                    if traced:
                        rc = self.tracer.call("cli.main", self.cli.main, argv)
                    else:
                        rc = self.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                run_s = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.remove()
        csv = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
        manifests = sorted(out_dir.glob("*_manifest.json"))
        manifest = json.loads(manifests[0].read_text()) if manifests else None
        result = self._result
        call = Call(
            args=argv,
            rc=rc,
            run_s=run_s,
            csv=csv,
            manifest=manifest,
            energy=None if result is None else float(result.max_energy_violation),
            failures=int(manifest["newton_failures"]) if manifest else 0,
            log=log.getvalue(),
        )
        if traced:
            call.spans = self.tracer.span_table()
            call.layers = self.tracer.layer_metrics()
            call.layers["experiments.csv_bytes"] = float(sum(len(b) for b in csv.values()))
            call.layers["trace.unattributed_s"] = call.spans["cli.main"]["self_s"]
        return call


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def data_rows(text: str) -> list[str]:
    """CSV lines without the comment header (which carries the manifest hash)."""
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _last_digit(s: str) -> float:
    """One unit in the last printed digit of a number like 1.25e-03 or 2.0772."""
    mantissa, _, exponent = s.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** ((int(exponent) if exponent else 0) - decimals)


def fields_match(got: str, want: str, column: str) -> bool:
    if got == want:
        return True
    try:
        x, y = float(got), float(want)
    except ValueError:
        return False
    slack = max(_last_digit(got), _last_digit(want))
    if column.endswith("_order"):
        # an order is log2 of an error ratio: errors within RTOL move it by
        # up to 2*RTOL/ln 2 < 3*RTOL
        return abs(x - y) <= 3 * RTOL + slack
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + slack


def compare_rows(got: list[str], want: list[str]) -> str | None:
    """None when the rows agree at RTOL, else the first difference."""
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    if got[0] != want[0]:
        return f"header {got[0]!r}, expected {want[0]!r}"
    columns = want[0].split(",")
    for n, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        gf, wf = g.split(","), w.split(",")
        if len(gf) != len(wf):
            return f"row {n} has {len(gf)} fields, expected {len(wf)}"
        for col, a, b in zip(columns, gf, wf):
            if not fields_match(a, b, col):
                return f"row {n} {col}: {a}, expected {b}"
    return None


class Checks:
    def __init__(self) -> None:
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, ok, detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.items if not ok)

    def call_ok(self, call: Call, label: str) -> bool:
        listed = set(call.manifest["outputs"]) if call.manifest else set()
        ok = call.rc == 0 and bool(call.csv) and listed == set(call.csv)
        detail = "" if ok else f"exit {call.rc}; {call.log.strip()[-300:]}"
        self.add(f"{label}: exit 0, manifest lists the CSVs", ok, detail)
        return ok

    def golden(self, call: Call, golden: dict[str, list[str]], label: str) -> None:
        if set(call.csv) != set(golden):
            self.add(f"{label}: CSV files", False, f"{sorted(call.csv)} != {sorted(golden)}")
            return
        for name, want in golden.items():
            diff = compare_rows(data_rows(call.csv[name].decode()), want)
            self.add(f"{label}: {name} rows within rtol {RTOL:g}", diff is None, diff or "")

    def same_bytes(self, call: Call, ref: Call, label: str) -> None:
        self.add(label, call.csv == ref.csv, "" if call.csv == ref.csv else "CSV bytes differ")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup(cli_args: list[str]) -> list[float]:
    """Set-up time of SETUP_REPS fresh processes, each timed from the inside."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), *cli_args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_context().get_start_method(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(runner: Runner, args: list[str], out_dir: Path, seconds: float, traced: bool):
    """Repeat the call for about `seconds`: stop once a further call, as long
    as the last one, would end more than half a call late.  When tracing,
    untraced and traced calls alternate, so both see the same machine."""
    plain: list[Call] = []
    traced_calls: list[Call] = []
    start = time.perf_counter()
    while True:
        plain.append(runner.call(args, out_dir))
        if traced:
            traced_calls.append(runner.call(args, out_dir, traced=True))
        unit = plain[-1].run_s + (traced_calls[-1].run_s if traced else 0.0)
        if time.perf_counter() - start + unit / 2 >= seconds:
            return plain, traced_calls


def layer_metrics(traced_calls: list[Call], untraced_run_s: float, energy: float) -> dict:
    """Per-layer figures: medians over the traced calls, plus tracing overhead."""
    from tracer import PER_LAYER

    def median(name):
        return statistics.median(c.layers.get(name, 0.0) for c in traced_calls)

    values = {name: median(name) for name, _ in PER_LAYER}
    traced_run_s = statistics.median(c.run_s for c in traced_calls)
    values.update(
        {
            "energy.residual_max": energy,
            "trace.run_s": traced_run_s,
            "trace.untraced_run_s": untraced_run_s,
            "trace.overhead_s": traced_run_s - untraced_run_s,
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="master seed of the measured calls (>= 0)")
    p.add_argument("--seconds", type=float, required=True, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = p.parse_args()
    if opts.seed < 0:
        fail("--seed must be >= 0")
    cli = load_program()

    import plan
    from tracer import Tracer

    wl = WORKLOADS[opts.workload]
    traced = bool(opts.trace)
    golden = json.loads(GOLDEN.read_text())["workloads"][opts.workload]["files"]
    args = wl.cli_args(opts.seed)
    cfg = plan.resolve_config(args)
    steps = plan.sample_steps(cfg)
    per_call_samples = plan.samples_attempted(cfg)
    work = WORK / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    runner = Runner(cli, Tracer())
    checks = Checks()
    env = environment()

    setup_times = [] if traced else measure_setup(args)

    # Untimed check call at the pinned seed; it also warms caches.  When
    # tracing, it runs traced, so the wrappers are shown to change nothing.
    check_calls = [runner.call(wl.cli_args(CHECK_SEED), work / "check", traced=traced)]
    check_ok = checks.call_ok(check_calls[0], "check call")
    if check_ok:
        checks.golden(check_calls[0], golden, f"check call (seed {CHECK_SEED})")
    if wl.pool_check:
        pooled = runner.call(wl.cli_args(CHECK_SEED, wl.pool_check), work / "check-pool", traced=traced)
        check_calls.append(pooled)
        label = f"{wl.pool_check}-worker check call"
        if checks.call_ok(pooled, label) and check_ok:
            checks.same_bytes(pooled, check_calls[0], f"{label} writes the bytes of the 1-worker one")

    plain, traced_calls = measure(runner, args, work / "measure", opts.seconds, traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured = plain + traced_calls
    for n, call in enumerate(measured):
        if checks.call_ok(call, f"measured call {n}") and n:
            checks.same_bytes(call, measured[0], f"measured call {n} writes the bytes of call 0")
    energies = [c.energy for c in measured if c.energy is not None]
    checks.add("energy residual read from ExperimentResult", len(energies) == len(measured))
    energy = max(energies, default=0.0)
    energy_ok = energy <= ENERGY_CONTRACT

    calls = check_calls + measured
    failed = checks.failed + sum(c.failures if c.rc == 0 else per_call_samples for c in calls)
    attempted = per_call_samples * len(calls) + len(checks.items)

    q1, run_s, q3 = quartiles([c.run_s for c in plain])
    rate = steps / run_s
    projection = {}
    for preset in wl.paper_presets:
        paper_steps = plan.sample_steps(plan.resolve_config(["--preset", preset, "--paper-scale"]))
        projection[preset] = {"sample_steps": paper_steps, "hours": paper_steps / rate / 3600.0}

    if traced:
        metrics = layer_metrics(traced_calls, run_s, energy)
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "sample_steps_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    report = {
        "workload": opts.workload,
        "cli_args": args,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "environment": env,
        "sample_steps_per_call": steps,
        "untraced_run_s": [c.run_s for c in plain],
        "traced_run_s": [c.run_s for c in traced_calls],
        "check_calls": [{"args": c.args, "run_s": c.run_s} for c in check_calls],
        "setup_s": setup_times,
        "peak_rss_mb": peak_rss_mb,
        "energy_residual_max": energy,
        "energy_contract": ENERGY_CONTRACT,
        "energy_within_contract": energy_ok,
        "paper_scale_projection": {
            "note": "computed projection: paper-scale sample-steps / measured sample_steps_per_s; "
            "test2's level-512 rows cost more per step than the measured level 128",
            **projection,
        },
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.items],
        "metrics": metrics,
        "spans": traced_calls[-1].spans if traced else {},
    }
    work.mkdir(parents=True, exist_ok=True)
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    for sub in ("check", "check-pool", "measure"):
        shutil.rmtree(work / sub, ignore_errors=True)

    pins = " ".join(f"{k}={v}" for k, v in env["thread_pins"].items())
    print(f"workload {opts.workload}: stochwave {' '.join(args)}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "thread_pins") + f", {pins}")
    print(
        f"calls: {len(plain)} untraced, {len(traced_calls)} traced; run_s median {run_s:.4f} s "
        f"(quartiles {q1:.4f}..{q3:.4f}); {steps} sample-steps per call"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if wl.pool_check:
        print(
            f"untimed check calls, one each: 1 worker {check_calls[0].run_s:.4f} s, "
            f"{wl.pool_check} workers {check_calls[1].run_s:.4f} s"
        )
    if traced:
        spans = traced_calls[-1].spans
        print(
            f"last traced call: self times of {len(spans)} span kinds sum to "
            f"{sum(r['self_s'] for r in spans.values()):.4f} s of its {traced_calls[-1].run_s:.4f} s; "
            f"{spans['cli.main']['self_s']:.4f} s is outside every traced layer"
        )
    print(
        f"energy_residual_max = {energy:.3e}: "
        + ("within" if energy_ok else "EXCEEDS")
        + f" the {ENERGY_CONTRACT:g} contract (reported as measured)"
    )
    for preset, proj in projection.items():
        print(
            f"paper-scale {preset}: {proj['sample_steps']:.3g} sample-steps, "
            f"{proj['hours']:.3g} h at this rate (computed projection)"
        )
    for name, ok, detail in checks.items:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}")
    print(f"checks: {len(checks.items) - checks.failed}/{len(checks.items)} passed; report {work / 'report.json'}")
    result = {"correct": checks.failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
