"""Seeded scalar Brownian increments with exact coarsening.

Streams come from the counter-based Philox generator keyed by
(master_seed, sample_index) through a spawn key, so every sample's path is
independent of generation order and of how samples are distributed over
workers.  Refinement studies generate once at the finest step and coarsen
upward, which realizes the same Wiener path on every level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BrownianPath", "sample_path", "coarsen"]


@dataclass(frozen=True)
class BrownianPath:
    """Increments of a scalar Wiener process on a uniform grid of step tau."""

    tau: float
    increments: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]


def sample_path(
    master_seed: int, sample_index: int, n_steps: int, tau: float
) -> BrownianPath:
    """Draw n_steps iid N(0, tau) increments from the (seed, index) stream."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    ss = np.random.SeedSequence(master_seed, spawn_key=(sample_index,))
    gen = np.random.Generator(np.random.Philox(ss))
    inc = gen.normal(0.0, np.sqrt(tau), n_steps)
    return BrownianPath(tau, inc)


def coarsen(path: BrownianPath, factor: int) -> BrownianPath:
    """Sum consecutive groups of ``factor`` increments; tau scales by factor.

    Power-of-two factors reduce by repeated pairwise halving, so coarsening
    twice by 2 is bit-identical to coarsening once by 4.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if path.n_steps % factor != 0:
        raise ValueError(
            f"factor {factor} does not divide n_steps {path.n_steps}"
        )
    inc = path.increments
    remaining = factor
    while remaining % 2 == 0:
        inc = inc[0::2] + inc[1::2]
        remaining //= 2
    if remaining > 1:
        inc = inc.reshape(-1, remaining).sum(axis=1)
    return BrownianPath(path.tau * factor, inc)
