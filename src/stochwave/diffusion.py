"""Noise coefficients g(u): the Lipschitz family 0, c*u and sqrt(u^2 + epsilon)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Diffusion"]

_KINDS = ("zero", "linear", "smoothed_abs")


@dataclass(frozen=True)
class Diffusion:
    """g(u) from one of: 0, c*u, or sqrt(u^2 + epsilon)."""

    kind: str = "zero"
    c: float = 1.0
    epsilon: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown diffusion kind {self.kind!r}; expected {_KINDS}")
        if not (math.isfinite(self.c) and math.isfinite(self.epsilon)):
            raise ValueError(f"diffusion needs finite c and epsilon, got {self.c}, {self.epsilon}")
        if self.kind == "smoothed_abs" and not self.epsilon > 0:
            raise ValueError("smoothed_abs needs epsilon > 0")

    @classmethod
    def zero(cls) -> "Diffusion":
        return cls("zero")

    @classmethod
    def linear(cls, c: float = 1.0) -> "Diffusion":
        return cls("linear", c=float(c))

    @classmethod
    def smoothed_abs(cls, epsilon: float) -> "Diffusion":
        return cls("smoothed_abs", epsilon=float(epsilon))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def value(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(u)
        if self.kind == "linear":
            return self.c * u
        return np.sqrt(u * u + self.epsilon)
