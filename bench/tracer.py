"""Per-layer tracing of stochwave, done from outside the program.

`Tracer.install()` wraps the functions each stochwave module offers, at the
name where the caller looks them up: ``stepper`` imports ``spd_solver``,
``assemble_weighted_mass`` and ``hamiltonian`` by name, so those are patched
in ``stochwave.stepper``; methods are patched on their class.
`Tracer.remove()` puts every original back.  Each wrapped call records a
span ``[name, start, end, parent]``; a span's self time is its duration minus
the durations of its direct children.  Counts are taken at the same
boundaries.  Forked worker processes inherit the wrappers, but their spans
stay in the worker, so only calls made in this process are reported.
"""

from __future__ import annotations

import functools
import importlib
import pickle
from collections import defaultdict
from time import perf_counter

# (module, class or None, attribute, span name).  A target that no longer
# exists is skipped, so the benchmark keeps running across refactors; its
# metrics then read 0.
_TARGETS = [
    ("cli", None, "validate_config", "experiments.validate"),
    ("cli", None, "run_experiment", "experiments.run"),
    ("experiments", None, "validate_config", "experiments.validate"),
    ("experiments", None, "write_rate_csv", "experiments.write_csv"),
    ("experiments", None, "write_stability_csv", "experiments.write_csv"),
    ("experiments", None, "convergence_table", "metrics.table"),
    ("experiments", None, "analytic_error_table", "metrics.table"),
    ("experiments", None, "run_ensemble", "ensemble.run"),
    ("experiments", None, "subset_fraction", "ensemble.subset_fraction"),
    ("experiments", None, "build_interval_mesh", "mesh.build"),
    ("experiments", None, "build_unit_square_tri_mesh", "mesh.build"),
    ("metrics", None, "build_interval_mesh", "mesh.build"),
    ("metrics", None, "build_unit_square_tri_mesh", "mesh.build"),
    ("metrics", None, "refine_uniform", "mesh.build"),
    ("ensemble", None, "build_interval_mesh", "mesh.build"),
    ("ensemble", None, "build_unit_square_tri_mesh", "mesh.build"),
    ("metrics", None, "parallel_map", "parallel.map"),
    ("ensemble", None, "parallel_map", "parallel.map"),
    ("metrics", None, "sample_path", "noise.sample_path"),
    ("ensemble", None, "sample_path", "noise.sample_path"),
    ("metrics", None, "coarsen", "noise.coarsen"),
    ("metrics", None, "transfer_matrix", "fem.transfer_matrix"),
    ("fem", "FeSpace", "__init__", "fem.space_build"),
    ("fem", None, "assemble_mass", "fem.space_build"),
    ("fem", None, "assemble_stiffness", "fem.space_build"),
    ("fem", "FeSpace", "values_at_qpoints", "fem.qpoint_eval"),
    ("fem", None, "spd_solver", "linsolve.factor"),
    ("stepper", None, "assemble_weighted_mass", "fem.jacobian_assembly"),
    ("stepper", None, "spd_solver", "linsolve.factor"),
    ("stepper", None, "hamiltonian", "stepper.hamiltonian"),
    ("stepper", "WaveStepper", "__init__", "stepper.init"),
    ("stepper", "WaveStepper", "run", "stepper.run"),
    ("stepper", "WaveStepper", "noise_load", "stepper.noise_load"),
    ("drift", "PolynomialDrift", "potential_quotient", "drift.quotient"),
    ("drift", "PolynomialDrift", "potential_quotient_da", "drift.quotient_da"),
    ("drift", "PolynomialDrift", "potential", "drift.potential"),
    ("diffusion", "Diffusion", "value", "diffusion.value"),
]

# Per-layer metrics in report order, with units.  Times are self times, except
# stepper.run_s, which includes its children.  parallel.map_s is the pool's
# own time: near 0 with one worker, start-up and waiting with more.  The
# batch a worker runs in this process counts to its caller's layer (metrics
# or ensemble).  The trace.* and energy.* entries are filled in by run.py.
PER_LAYER = [
    ("stepper.steps", "count"),
    ("stepper.newton_iters_per_step", "iter/step"),
    ("stepper.run_s", "s"),
    ("stepper.self_s", "s"),
    ("stepper.hamiltonian_s", "s"),
    ("stepper.noise_load_s", "s"),
    ("linsolve.factor_calls", "count"),
    ("linsolve.factor_s", "s"),
    ("linsolve.solve_calls", "count"),
    ("linsolve.solve_s", "s"),
    ("linsolve.solves_per_factor", "solve/factor"),
    ("linsolve.pcg_iters_per_solve", "iter/solve"),
    ("fem.jacobian_assembly_calls", "count"),
    ("fem.jacobian_assembly_s", "s"),
    ("fem.qpoint_evals", "count"),
    ("fem.qpoint_eval_s", "s"),
    ("fem.space_build_s", "s"),
    ("fem.transfer_matrix_s", "s"),
    ("drift.quotient_points", "count"),
    ("drift.quotient_s", "s"),
    ("drift.quotient_da_s", "s"),
    ("drift.potential_s", "s"),
    ("diffusion.value_s", "s"),
    ("noise.sample_path_s", "s"),
    ("noise.coarsen_s", "s"),
    ("metrics.self_s", "s"),
    ("ensemble.self_s", "s"),
    ("ensemble.subset_fraction_s", "s"),
    ("parallel.map_s", "s"),
    ("parallel.tasks", "count"),
    ("parallel.task_bytes", "B"),
    ("mesh.build_s", "s"),
    ("experiments.validate_s", "s"),
    ("experiments.write_csv_s", "s"),
    ("experiments.csv_bytes", "B"),
    ("experiments.self_s", "s"),
    ("energy.residual_max", "ratio"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
]

# Metrics that count work; they must repeat exactly for the same inputs.
COUNT_METRICS = [
    "stepper.steps",
    "stepper.newton_iters_per_step",
    "linsolve.factor_calls",
    "linsolve.solve_calls",
    "linsolve.pcg_iters_per_solve",
    "fem.qpoint_evals",
]


def _identity(obj):
    return obj


class _TracedBatch:
    """A batch function run in a span of its caller's layer.

    It pickles as the plain function, so worker processes run it untraced.
    """

    def __init__(self, traced, fn):
        self._traced = traced
        self._fn = fn

    def __call__(self, *args, **kwargs):
        return self._traced(*args, **kwargs)

    def __reduce__(self):
        return _identity, (self._fn,)


class _ModuleProxy:
    """Stands in for a module under one importer's name, overriding attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (the root of one traced CLI call)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            return result if after is None else after(result, args)

        return traced

    # -- counters taken at span boundaries -------------------------------------

    def _after_run(self, traj, args):
        self.counts["stepper.steps"] += traj.newton_iters.size
        self.counts["stepper.newton_iters"] += int(traj.newton_iters.sum())
        return traj

    def _after_factor(self, solve, args):
        return self._wrap("linsolve.solve", solve)

    def _after_quotient(self, values, args):
        self.counts["drift.quotient_points"] += values.size
        return values

    def _after_map(self, results, args):
        tasks = list(args[1])
        self.counts["parallel.tasks"] += len(tasks)
        self.counts["parallel.task_bytes"] += sum(len(pickle.dumps(t)) for t in tasks)
        return results

    def _map_wrapper(self, span: str, batch_span: str, parallel_map):
        traced_map = self._wrap(span, parallel_map, self._after_map)

        @functools.wraps(parallel_map)
        def traced(fn, *args, **kwargs):
            # the work a batch does in this process belongs to the caller
            batch = _TracedBatch(self._wrap(batch_span, fn), fn)
            return traced_map(batch, *args, **kwargs)

        return traced

    def _counting_cg(self, cg):
        counts = self.counts

        @functools.wraps(cg)
        def counted(*args, callback=None, **kwargs):
            def count(xk):
                counts["linsolve.pcg_iters"] += 1
                if callback is not None:
                    callback(xk)

            counts["linsolve.pcg_solves"] += 1
            return cg(*args, callback=count, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        after = {
            "stepper.run": self._after_run,
            "linsolve.factor": self._after_factor,
            "drift.quotient": self._after_quotient,
        }
        for module_name, cls_name, attr, span in _TARGETS:
            try:
                owner = importlib.import_module(f"stochwave.{module_name}")
            except ModuleNotFoundError:
                continue
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            if span == "parallel.map":
                wrapper = self._map_wrapper(span, f"{module_name}.batch", original)
            else:
                wrapper = self._wrap(span, original, after.get(span))
            self._set(owner, attr, wrapper)
        linsolve = importlib.import_module("stochwave.linsolve")
        spla = vars(linsolve).get("spla")
        if spla is not None and hasattr(spla, "cg"):
            self._set(linsolve, "spla", _ModuleProxy(spla, cg=self._counting_cg(spla.cg)))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive total and self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(table)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of PER_LAYER that the spans and counts give."""
        t = self.span_table()
        c = self.counts

        def calls(name):
            return t.get(name, {}).get("calls", 0)

        def total(name):
            return t.get(name, {}).get("total_s", 0.0)

        def own(*names):
            return sum(t.get(n, {}).get("self_s", 0.0) for n in names)

        return {
            "stepper.steps": c["stepper.steps"],
            "stepper.newton_iters_per_step": _ratio(
                c["stepper.newton_iters"], c["stepper.steps"]
            ),
            "stepper.run_s": total("stepper.run"),
            "stepper.self_s": own("stepper.run", "stepper.init"),
            "stepper.hamiltonian_s": own("stepper.hamiltonian"),
            "stepper.noise_load_s": own("stepper.noise_load"),
            "linsolve.factor_calls": calls("linsolve.factor"),
            "linsolve.factor_s": own("linsolve.factor"),
            "linsolve.solve_calls": calls("linsolve.solve"),
            "linsolve.solve_s": own("linsolve.solve"),
            "linsolve.solves_per_factor": _ratio(
                calls("linsolve.solve"), calls("linsolve.factor")
            ),
            "linsolve.pcg_iters_per_solve": _ratio(
                c["linsolve.pcg_iters"], c["linsolve.pcg_solves"]
            ),
            "fem.jacobian_assembly_calls": calls("fem.jacobian_assembly"),
            "fem.jacobian_assembly_s": own("fem.jacobian_assembly"),
            "fem.qpoint_evals": calls("fem.qpoint_eval"),
            "fem.qpoint_eval_s": own("fem.qpoint_eval"),
            "fem.space_build_s": own("fem.space_build"),
            "fem.transfer_matrix_s": own("fem.transfer_matrix"),
            "drift.quotient_points": c["drift.quotient_points"],
            "drift.quotient_s": own("drift.quotient"),
            "drift.quotient_da_s": own("drift.quotient_da"),
            "drift.potential_s": own("drift.potential"),
            "diffusion.value_s": own("diffusion.value"),
            "noise.sample_path_s": own("noise.sample_path"),
            "noise.coarsen_s": own("noise.coarsen"),
            "metrics.self_s": own("metrics.table", "metrics.batch"),
            "ensemble.self_s": own("ensemble.run", "ensemble.batch"),
            "ensemble.subset_fraction_s": own("ensemble.subset_fraction"),
            "parallel.map_s": own("parallel.map"),
            "parallel.tasks": c["parallel.tasks"],
            "parallel.task_bytes": c["parallel.task_bytes"],
            "mesh.build_s": own("mesh.build"),
            "experiments.validate_s": own("experiments.validate"),
            "experiments.write_csv_s": own("experiments.write_csv"),
            "experiments.self_s": own("experiments.run"),
        }
