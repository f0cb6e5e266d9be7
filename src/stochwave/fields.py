"""Initial-condition fields and closed-form comparison solutions.

These are small frozen dataclasses rather than lambdas so that experiment
configurations pickle cleanly into worker processes and serialize to JSON.
Fields are called as f(x) in 1D and f(x, y) in 2D with numpy arrays.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = ["Constant", "CosineProduct", "TentBump", "LinearWaveSolution", "field_to_config", "field_from_config"]


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


_FIELD_KINDS = {
    "constant": Constant,
    "zero": Constant,
    "cosine": CosineProduct,
    "tent": TentBump,
}


def field_to_config(f) -> dict:
    if isinstance(f, Constant):
        return {"kind": "zero"} if f.value == 0.0 else {"kind": "constant", "value": f.value}
    if isinstance(f, CosineProduct):
        return {"kind": "cosine", "kx": f.kx, "ky": f.ky}
    if isinstance(f, TentBump):
        return {"kind": "tent", "center": f.center, "slope": f.slope}
    raise ValueError(f"field {f!r} has no config form")


def field_from_config(cfg: dict):
    kind = cfg.get("kind")
    if kind not in _FIELD_KINDS:
        raise ValueError(f"unknown field kind {kind!r}; expected {sorted(_FIELD_KINDS)}")
    kwargs = {k: v for k, v in cfg.items() if k != "kind"}
    known = {f.name for f in dataclasses.fields(_FIELD_KINDS[kind])}
    if not known.issuperset(kwargs):
        raise ValueError(f"unknown field(s) {sorted(set(kwargs) - known)} of a {kind} field")
    return _FIELD_KINDS[kind](**kwargs)
