"""Initial-condition fields and closed-form comparison solutions.

These are small frozen dataclasses rather than lambdas so that experiment
configurations pickle cleanly into worker processes and serialize to JSON.
Fields are called as f(x) in 1D and f(x, y) in 2D with numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Constant", "CosineProduct", "TentBump", "LinearWaveSolution"]


@dataclass(frozen=True)
class Constant:
    value: float = 0.0

    def __call__(self, x, y=None):
        return np.full_like(np.asarray(x, dtype=float), self.value)


@dataclass(frozen=True)
class CosineProduct:
    """cos(kx pi x) in 1D, cos(kx pi x) cos(ky pi y) in 2D."""

    kx: int = 1
    ky: int = 0

    def __call__(self, x, y=None):
        out = np.cos(self.kx * np.pi * np.asarray(x, dtype=float))
        if y is not None and self.ky:
            out = out * np.cos(self.ky * np.pi * np.asarray(y, dtype=float))
        return out


@dataclass(frozen=True)
class TentBump:
    """max(0, 1 - slope |x - center|): a kinked initial velocity profile."""

    center: float = 0.5
    slope: float = 4.0

    def __call__(self, x, y=None):
        x = np.asarray(x, dtype=float)
        return np.maximum(0.0, 1.0 - self.slope * np.abs(x - self.center))


@dataclass(frozen=True)
class LinearWaveSolution:
    """u(x,t) = cos(k pi x) cos(k pi t): the zero-drift, zero-noise solution
    for the cosine initial displacement and zero initial velocity."""

    k: int = 1

    def value(self, x, t: float):
        return np.cos(self.k * np.pi * np.asarray(x)) * np.cos(self.k * np.pi * t)

    def dx(self, x, t: float):
        kp = self.k * np.pi
        return -kp * np.sin(kp * np.asarray(x)) * np.cos(kp * t)
