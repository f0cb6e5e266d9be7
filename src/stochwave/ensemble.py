"""Monte Carlo engine: one problem spec, sample blocks and bit-stable statistics.

Every Monte Carlo study runs through the same pieces: a picklable
`ProblemSpec`, which builds the study's spaces and scheme configs and steps
every march (`ProblemSpec.march`: a `WaveStepper` on a space or direct sum,
run from the problem's initial data projected onto that same space), step
counts from `steps_for`, ladders checked by `ladder_problems`, and
`map_samples`, which runs a batch function over contiguous sample blocks
(spread over a process pool by `parallel_map` when threads > 1), orders the
per-sample records by index and accounts for failures.  The stability
ensemble (`run_ensemble`), the rate tables and the analytic table
(`metrics`) differ only in what they march and how they reduce it; each
Monte Carlo driver takes ``(problem, study, n_samples, threads)``.
Per-sample series are reduced in a fixed pairwise tree keyed by sample
index; since a sample's numbers do not depend on its batch, the aggregate is
identical for any worker count.  Sample paths come from per-index
counter-based streams.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .diffusion import Diffusion
from .drift import PolynomialDrift
from .fem import FeSpace
from .mesh import build_interval_mesh, build_unit_square_tri_mesh
from .noise import BrownianPath, sample_path
from .quadrature import interval_rule, triangle_rule
from .stepper import (
    BLOCK_POINTS, Observer, SchemeConfig, Trajectory, WaveStepper, initial_state,
)

__all__ = [
    "ProblemSpec",
    "StabilityStudy",
    "EnsembleStats",
    "EnsembleFailureError",
    "run_ensemble",
    "subset_fraction",
]

# A study fails as a whole when more than this fraction of its samples fail.
MAX_FAILURE_FRACTION = 0.10


def sample_blocks(n_samples: int, workers: int, points_per_sample: int) -> list[range]:
    """Contiguous index blocks, enough for every worker.

    A block holds at most BLOCK_POINTS // points_per_sample samples, so that
    the (nc, nq, S) quadrature arrays of its finest space, whose points the
    drivers pass (a rate table its reference's), stay within BLOCK_POINTS
    doubles; a spatial rate block's march adds its coarser rows to them.
    """
    size = max(1, min(BLOCK_POINTS // points_per_sample, -(-n_samples // max(1, workers))))
    return [range(i, min(i + size, n_samples)) for i in range(0, n_samples, size)]


class EnsembleFailureError(RuntimeError):
    """More than the tolerated fraction of samples failed to solve."""


def steps_for(T: float, tau: float) -> int:
    """The number of steps of size tau that make up T; ValueError unless it is whole."""
    ratio = T / tau if tau > 0 else math.nan
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or not math.isclose(n * tau, T, rel_tol=1e-9, abs_tol=0.0):
        raise ValueError(f"T={T} is not an integer multiple of tau={tau}")
    return n


def ladder_problems(
    mode: str, levels: Sequence[int], taus: Sequence[float], reference_extra_levels: int = 1
) -> list[str]:
    """Faults of a refinement ladder, each message led by the name of its field.

    ``mode="spatial"``: the mesh ``levels`` double at the single tau in
    ``taus``.  ``mode="temporal"``: the ``taus`` halve on the single mesh
    level.  An empty list means the ladder is runnable.
    """
    if mode not in ("spatial", "temporal"):
        return [f"mode: must be spatial or temporal, got {mode!r}"]
    problems = []
    if mode == "spatial":
        if len(taus) != 1:
            problems.append("taus: spatial mode expects a single tau")
        if not levels:
            problems.append("levels: the ladder is empty")
        elif any(b != 2 * a for a, b in zip(levels[:-1], levels[1:])):
            problems.append(f"levels: ladder entries must double: {list(levels)}")
    else:
        if len(levels) != 1:
            problems.append("levels: temporal mode expects a single level")
        if not taus:
            problems.append("taus: the ladder is empty")
        elif any(not math.isclose(a, 2 * b, rel_tol=1e-12) for a, b in zip(taus[:-1], taus[1:])):
            problems.append(f"taus: ladder entries must halve: {list(taus)}")
    if any(l < 1 for l in levels):
        problems.append(f"levels: must all be >= 1, got {list(levels)}")
    if reference_extra_levels < 1:
        problems.append(f"reference_extra_levels: must be >= 1, got {reference_extra_levels}")
    return problems


def quadrature_degree_for(degree: int, drift: PolynomialDrift) -> int:
    """Cell-rule exactness covering drift and potential integrands: r(q+1)."""
    return max(2 * degree, degree * (drift.q + 1))


@dataclass(frozen=True)
class ProblemSpec:
    """The problem every study of an experiment solves; must pickle.

    A study adds its mesh levels and time steps: `spaces` builds the former,
    `scheme_config` turns a step size and a final time into a `SchemeConfig`,
    and `march` steps paths on a space under such a config.
    """

    dimension: int
    degree: int
    drift: PolynomialDrift
    diffusion: Diffusion
    h1: Callable
    h2: Callable
    master_seed: int
    scheme: str
    newton_abs_tol: float

    @property
    def quad_degree(self) -> int:
        return quadrature_degree_for(self.degree, self.drift)

    def scheme_config(self, tau: float, T: float) -> SchemeConfig:
        """Steps of size tau up to time T; ValueError unless T/tau is whole."""
        return SchemeConfig(
            tau=tau, n_steps=steps_for(T, tau), scheme=self.scheme,
            newton_abs_tol=self.newton_abs_tol,
        )

    def spaces(self, levels: Sequence[int]) -> dict[int, FeSpace]:
        """Spaces at the given resolutions, each on its own uniform mesh.

        On a checked ladder and its reference every level is the coarsest
        one times a power of two, so each finer mesh refines the coarser
        ones and transfers between them are exact.
        """
        build = build_interval_mesh if self.dimension == 1 else build_unit_square_tri_mesh
        return {l: FeSpace(build(l), self.degree, self.quad_degree) for l in sorted(set(levels))}

    def march(
        self, space: FeSpace, cfg: SchemeConfig, paths: Sequence[BrownianPath],
        observe: Observer | None = None,
    ) -> Trajectory:
        """Step the paths as one batch on the space, or direct sum of spaces,
        from h1 and h2 projected onto it (see `WaveStepper.run`)."""
        stepper = WaveStepper(space, self.drift, self.diffusion, cfg)
        return stepper.run(paths, initial_state(space, self.h1, self.h2), observe)

    def points_per_sample(self, level: int) -> int:
        """Quadrature points of one sample's field on the mesh at this level."""
        rule = interval_rule if self.dimension == 1 else triangle_rule
        cells = level if self.dimension == 1 else 2 * level**2
        return cells * rule(self.quad_degree)[1].size


@dataclass
class StabilityStudy:
    """A moment-stability series: n_samples paths at one mesh level and step.

    ``kappa`` is the subset-fraction threshold (None: the 90th percentile of
    the per-sample maxima); the deterministic companion reruns the problem
    with zero noise.
    """

    level: int
    tau: float
    T: float
    kappa: float | None = None
    deterministic_companion: bool = True
    label: str = "stability"


@dataclass
class SampleRecord:
    """One sample's outcome: its series (as its batch function lays them out)
    and worst energy violation, or the message of its failure."""

    index: int
    series: tuple = ()
    violation: float = -np.inf
    failure: str | None = None


def parallel_map(fn: Callable, tasks: Sequence, workers: int) -> list:
    """Map fn over tasks, in-process when workers <= 1.

    ``fn`` and every task must pickle when workers > 1.  The pool has no more
    workers than tasks.  Output order always matches the task order, so
    downstream reductions are schedule-independent.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def map_samples(
    batch: Callable[[tuple], list[SampleRecord]],
    payload: tuple,
    n_samples: int,
    threads: int,
    points_per_sample: int,
) -> tuple[list[SampleRecord], int]:
    """Run ``batch((payload, block))`` over contiguous sample blocks.

    Returns the finished samples' records in index order and the number of
    failed samples.  Raises EnsembleFailureError when more than
    MAX_FAILURE_FRACTION of the samples failed, or all of them did.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    workers = max(1, threads)
    tasks = [(payload, block) for block in sample_blocks(n_samples, workers, points_per_sample)]
    records = sorted(
        (r for out in parallel_map(batch, tasks, workers) for r in out), key=lambda r: r.index
    )
    failed = [r for r in records if r.failure is not None]
    good = [r for r in records if r.failure is None]
    if len(failed) > MAX_FAILURE_FRACTION * n_samples or not good:
        names = ", ".join(str(r.index) for r in failed)
        raise EnsembleFailureError(
            f"{len(failed)}/{n_samples} samples failed (samples {names}); "
            f"first, sample {failed[0].index}: {failed[0].failure}"
        )
    return good, len(failed)


def _run_batch(task: tuple[tuple[ProblemSpec, StabilityStudy], range]) -> list[SampleRecord]:
    (problem, study), indices = task
    space = problem.spaces([study.level])[study.level]
    cfg = problem.scheme_config(study.tau, study.T)
    paths = [sample_path(problem.master_seed, idx, cfg.n_steps, cfg.tau) for idx in indices]
    traj = problem.march(space, cfg, paths)
    out = [SampleRecord(indices[pos], failure=str(exc)) for pos, exc in traj.failures.items()]
    violations = traj.max_energy_violation
    for row, pos in enumerate(traj.samples):
        series = (traj.l2sq[row], traj.h1sq[row], traj.dtl2sq[row], traj.hamiltonians[row])
        out.append(SampleRecord(indices[pos], series, float(violations[row])))
    return out


def tree_sum(stack: np.ndarray) -> np.ndarray:
    """Pairwise sum over axis 0 in a fixed order (bit-stable reduction)."""
    while stack.shape[0] > 1:
        m = (stack.shape[0] // 2) * 2
        head = stack[0:m:2] + stack[1:m:2]
        stack = head if m == stack.shape[0] else np.concatenate(
            [head, stack[m:]], axis=0
        )
    return stack[0]


@dataclass
class EnsembleStats:
    """Per-time-node sample statistics of one Monte Carlo run."""

    times: np.ndarray
    mean_l2sq: np.ndarray
    min_l2sq: np.ndarray
    max_l2sq: np.ndarray
    mean_h1sq: np.ndarray
    min_h1sq: np.ndarray
    max_h1sq: np.ndarray
    mean_dtl2sq: np.ndarray
    min_dtl2sq: np.ndarray
    max_dtl2sq: np.ndarray
    mean_H: np.ndarray
    mean_H2: np.ndarray
    mean_H4: np.ndarray
    n_samples: int
    n_failures: int
    max_energy_violation: float
    # per-sample series, one row per finished sample (for subset curves)
    sample_l2sq: np.ndarray = field(repr=False)
    sample_h1sq: np.ndarray = field(repr=False)


def run_ensemble(
    problem: ProblemSpec,
    study: StabilityStudy,
    n_samples: int,
    threads: int,
) -> EnsembleStats:
    """Run n_samples independent trajectories at the study's level and step,
    and aggregate statistics.

    The problem's ``h1``/``h2`` must pickle when threads > 1 (use the fields
    module).  The study's ``kappa``, companion and label are the caller's.
    """
    cfg = problem.scheme_config(study.tau, study.T)
    good, n_failed = map_samples(
        _run_batch, (problem, study), n_samples, threads,
        problem.points_per_sample(study.level),
    )
    l2, h1s, dt, H = (np.stack(series) for series in zip(*(r.series for r in good)))
    n = len(good)
    times = np.arange(cfg.n_steps + 1) * cfg.tau

    return EnsembleStats(
        times=times,
        mean_l2sq=tree_sum(l2) / n,
        min_l2sq=l2.min(axis=0),
        max_l2sq=l2.max(axis=0),
        mean_h1sq=tree_sum(h1s) / n,
        min_h1sq=h1s.min(axis=0),
        max_h1sq=h1s.max(axis=0),
        mean_dtl2sq=tree_sum(dt) / n,
        min_dtl2sq=dt.min(axis=0),
        max_dtl2sq=dt.max(axis=0),
        mean_H=tree_sum(H) / n,
        mean_H2=tree_sum(H * H) / n,
        mean_H4=tree_sum(H**4) / n,
        n_samples=n,
        n_failures=n_failed,
        max_energy_violation=max(r.violation for r in good),
        sample_l2sq=l2,
        sample_h1sq=h1s,
    )


def subset_fraction(h1_full_sq: np.ndarray, kappa: float) -> np.ndarray:
    """Fraction of samples whose running-max squared H1 norms stay below kappa.

    ``h1_full_sq`` is (n_samples, n_nodes) of ||u||_{L2}^2 + ||grad u||_{L2}^2
    for the discrete solution.  Returns the per-node fraction curve.
    """
    if not kappa >= 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    running = np.maximum.accumulate(h1_full_sq, axis=1)
    return (running <= kappa).mean(axis=0)
