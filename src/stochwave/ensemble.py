"""Monte Carlo driver: coupled sample trajectories and bit-stable statistics.

Samples run in contiguous index blocks, each stepped as one batch by
`WaveStepper.run`.  Workers return per-sample summaries which are reduced in
a fixed pairwise tree keyed by sample index; since a sample's numbers do not
depend on its batch, the aggregate is identical for any worker count.
Sample paths come from per-index counter-based streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diffusion import Diffusion
from .drift import PolynomialDrift
from .fem import FeSpace
from .mesh import build_interval_mesh, build_unit_square_tri_mesh
from .noise import sample_path
from .parallel import parallel_map
from .stepper import SchemeConfig, WaveStepper, initial_state

__all__ = ["EnsembleStats", "EnsembleFailureError", "run_ensemble", "subset_fraction"]

# Quadrature values per block: a batch holds at most BLOCK_POINTS // (quadrature
# points per sample) samples.  Measured per sample-step on one core (1D levels
# 128 and 512, 2D levels 8 and 16): the cost falls with the batch until its
# (nc, nq, S) arrays pass 2**14 doubles (128 KiB, glibc's default mmap
# threshold); beyond it every temporary is mapped afresh and its page faults
# make larger batches slower (2D level 16: 0.47 ms at S = 5, 0.66 ms at S = 16).
BLOCK_POINTS = 2**14


def sample_blocks(n_samples: int, workers: int, points_per_sample: int) -> list[range]:
    """Contiguous index blocks within BLOCK_POINTS, enough for every worker."""
    size = max(1, min(BLOCK_POINTS // points_per_sample, -(-n_samples // max(1, workers))))
    return [range(i, min(i + size, n_samples)) for i in range(0, n_samples, size)]


class EnsembleFailureError(RuntimeError):
    """More than the tolerated fraction of samples failed to solve."""


@dataclass(frozen=True)
class _EnsembleSpec:
    """Everything a worker needs to rebuild the problem; must pickle."""

    dimension: int
    resolution: int
    degree: int
    quad_degree: int
    drift: PolynomialDrift
    diffusion: Diffusion
    config: SchemeConfig
    h1: Callable
    h2: Callable
    master_seed: int

    def build_space(self) -> FeSpace:
        if self.dimension == 1:
            mesh = build_interval_mesh(self.resolution)
        else:
            mesh = build_unit_square_tri_mesh(self.resolution)
        return FeSpace(mesh, self.degree, self.quad_degree)


@dataclass
class _SampleSummary:
    index: int
    l2sq: np.ndarray | None = None
    h1sq: np.ndarray | None = None
    dtl2sq: np.ndarray | None = None
    hamiltonians: np.ndarray | None = None
    max_energy_violation: float = -np.inf
    failure: str | None = None


def _run_batch(task: tuple[_EnsembleSpec, range]) -> list[_SampleSummary]:
    spec, indices = task
    space = spec.build_space()
    stepper = WaveStepper(space, spec.drift, spec.diffusion, spec.config)
    paths = [
        sample_path(spec.master_seed, idx, spec.config.n_steps, spec.config.tau)
        for idx in indices
    ]
    traj = stepper.run(paths, initial_state(space, spec.h1, spec.h2))
    out = [
        _SampleSummary(index=indices[pos], failure=str(exc))
        for pos, exc in traj.failures.items()
    ]
    violations = traj.max_energy_violation
    for row, pos in enumerate(traj.samples):
        out.append(
            _SampleSummary(
                index=indices[pos],
                l2sq=traj.l2sq[row],
                h1sq=traj.h1sq[row],
                dtl2sq=traj.dtl2sq[row],
                hamiltonians=traj.hamiltonians[row],
                max_energy_violation=float(violations[row]),
            )
        )
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
    min_H: np.ndarray
    max_H: np.ndarray
    n_samples: int
    n_failures: int
    master_seed: int
    max_energy_violation: float
    # per-sample series, retained only on request (needed for subset curves)
    sample_l2sq: np.ndarray | None = field(default=None, repr=False)
    sample_h1sq: np.ndarray | None = field(default=None, repr=False)
    sample_dtl2sq: np.ndarray | None = field(default=None, repr=False)
    sample_H: np.ndarray | None = field(default=None, repr=False)


def run_ensemble(
    space: FeSpace,
    config: SchemeConfig,
    drift: PolynomialDrift,
    diffusion: Diffusion,
    h1: Callable,
    h2: Callable,
    n_samples: int,
    master_seed: int,
    threads: int = 1,
    retain_series: bool = False,
    max_failure_fraction: float = 0.10,
) -> EnsembleStats:
    """Run n_samples independent trajectories and aggregate statistics.

    ``h1``/``h2`` must pickle when threads > 1 (use the fields module).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    spec = _EnsembleSpec(
        dimension=space.mesh.dimension,
        resolution=space.mesh.resolution,
        degree=space.degree,
        quad_degree=space.quad_degree,
        drift=drift,
        diffusion=diffusion,
        config=config,
        h1=h1,
        h2=h2,
        master_seed=master_seed,
    )
    workers = max(1, threads)
    blocks = sample_blocks(n_samples, workers, space.wdet.size)
    tasks = [(spec, block) for block in blocks]
    summaries: list[_SampleSummary] = []
    for batch in parallel_map(_run_batch, tasks, workers):
        summaries.extend(batch)
    summaries.sort(key=lambda s: s.index)

    failures = [s for s in summaries if s.failure is not None]
    good = [s for s in summaries if s.failure is None]
    if len(failures) > max_failure_fraction * n_samples:
        raise EnsembleFailureError(
            f"{len(failures)}/{n_samples} samples failed; first: {failures[0].failure}"
        )
    if not good:
        raise EnsembleFailureError("all samples failed")

    l2 = np.stack([s.l2sq for s in good])
    h1s = np.stack([s.h1sq for s in good])
    dt = np.stack([s.dtl2sq for s in good])
    H = np.stack([s.hamiltonians for s in good])
    n = len(good)
    times = np.arange(config.n_steps + 1) * config.tau

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
        min_H=H.min(axis=0),
        max_H=H.max(axis=0),
        n_samples=n,
        n_failures=len(failures),
        master_seed=master_seed,
        max_energy_violation=max(s.max_energy_violation for s in good),
        sample_l2sq=l2 if retain_series else None,
        sample_h1sq=h1s if retain_series else None,
        sample_dtl2sq=dt if retain_series else None,
        sample_H=H if retain_series else None,
    )


def subset_fraction(
    h1_full_sq: np.ndarray,
    kappa: float,
    ref_h1_full_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Fraction of samples whose running-max squared H1 norms stay below kappa.

    ``h1_full_sq`` is (n_samples, n_nodes) of ||u||_{L2}^2 + ||grad u||_{L2}^2
    for the discrete solution; the optional reference series stands in for the
    strong solution.  Returns the per-node fraction curve.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    running = np.maximum.accumulate(h1_full_sq, axis=1)
    if ref_h1_full_sq is not None:
        running = running + np.maximum.accumulate(ref_h1_full_sq, axis=1)
    return (running <= kappa).mean(axis=0)
