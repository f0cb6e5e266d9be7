"""Odd-degree polynomial drift nonlinearities and their admissibility checks.

A drift is f(u) = sum_{j=1}^{q} a_j u^j with q odd.  Its potential is
V(u) = -integral of f from 0 to u, which must dominate
(alpha/2 + (lambda/2) u^{q-1}) u^2 for the supplied structure constants.
The two-point quotient -(V(a)-V(b))/(a-b) is evaluated through a
division-free polynomial recurrence, so the diagonal a == b needs no
special casing and returns f(a) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PolynomialDrift", "FULLY_IMPLICIT", "MODIFIED_CN", "SCHEMES"]

FULLY_IMPLICIT = "implicit"
MODIFIED_CN = "mcn"
SCHEMES = (FULLY_IMPLICIT, MODIFIED_CN)


def _negative_point(coeffs: np.ndarray) -> tuple[float, float] | None:
    """A real u where the polynomial (coefficients by power) is negative, or None.

    A nonzero polynomial is bounded below only with an even degree and a
    positive leading coefficient, and then takes its minimum at a real root
    of its derivative.  Otherwise it is negative beyond all its real roots.
    A value counts as negative only beyond the rounding bound of its own
    Horner evaluation, so a bound met with equality passes.
    """
    pp = np.polynomial.polynomial
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if not c.size:
        return None
    if c.size % 2 == 0 or c[-1] < 0:  # odd degree or negative leading coefficient
        r = 2.0 * max([1.0, *np.abs(pp.polyroots(c))]) if c.size > 1 else 1.0
        u = r if c[-1] < 0 else -r
        return u, float(pp.polyval(u, c))
    # the real parts of complex roots are harmless extra candidates
    u = np.append(pp.polyroots(pp.polyder(c)).real if c.size > 2 else [], 0.0)
    vals = pp.polyval(u, c)
    slack = 4 * c.size * np.finfo(float).eps * pp.polyval(np.abs(u), np.abs(c))
    k = int(np.argmin(vals + slack))
    return (float(u[k]), float(vals[k])) if vals[k] + slack[k] < 0.0 else None


@dataclass(frozen=True)
class PolynomialDrift:
    """Coefficients a_1..a_q (constant in space) plus structure constants."""

    coeffs: tuple[float, ...] = (0.0,)
    alpha: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(a) for a in self.coeffs))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lam", float(self.lam))
        if not self.coeffs:
            raise ValueError("drift needs at least one coefficient")

    @property
    def q(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(a == 0.0 for a in self.coeffs)

    @property
    def is_linear(self) -> bool:
        return all(a == 0.0 for a in self.coeffs[1:])

    def value(self, u):
        """f(u) = sum a_j u^j, by Horner evaluation."""
        u = np.asarray(u, dtype=float)
        acc = np.zeros_like(u)
        for a in reversed(self.coeffs):
            acc = (acc + a) * u
        return acc

    def derivative(self, u):
        """f'(u) = sum j a_j u^{j-1}."""
        u = np.asarray(u, dtype=float)
        acc = np.zeros_like(u)
        for j in range(self.q, 0, -1):
            acc = acc * u + j * self.coeffs[j - 1]
        return acc

    def potential(self, u, out=None):
        """V(u) = -sum a_j/(j+1) u^{j+1}, by Horner evaluation from the top
        nonzero coefficient; zero coefficients add nothing and are skipped.
        Written into ``out`` if given (an array of u's shape that shares no
        memory with u), and returned."""
        u = np.asarray(u, dtype=float)
        acc = None
        for j in range(self.q, 0, -1):
            aj = self.coeffs[j - 1]
            if acc is not None:
                if aj != 0.0:
                    acc -= aj / (j + 1)
                acc *= u
            elif aj != 0.0:
                acc = np.multiply(-(aj / (j + 1)), u, out=out)
        if acc is None:
            if out is None:
                return np.zeros(u.shape)
            out.fill(0.0)
            return out
        acc *= u
        return acc

    def potential_quotient(self, a, b):
        """The two-point slope -(V(a)-V(b))/(a-b), division-free.

        Equals sum_j a_j/(j+1) sum_{k=0..j} a^k b^{j-k}; the inner sum s_j
        follows the recurrence s_j = b^j + a s_{j-1}.  The powers, the sums
        and the total are updated in place; the inputs are never written.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        s = a + b  # s_1
        total = None
        for j in range(1, self.q + 1):
            if j == 2:
                bpow = b * b
            elif j > 2:
                bpow *= b
            if j > 1:
                s *= a
                s += bpow
            aj = self.coeffs[j - 1]
            if aj == 0.0:
                continue
            if total is None:
                total = (aj / (j + 1)) * s
            else:
                total += (aj / (j + 1)) * s
        return np.zeros(s.shape) if total is None else total

    def potential_quotient_da(self, a, b):
        """Partial derivative of potential_quotient with respect to ``a``."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        s = np.ones(np.broadcast(a, b).shape)
        ds = np.zeros_like(s)
        bpow = np.ones_like(s)
        total = np.zeros_like(s)
        for j in range(1, self.q + 1):
            bpow = bpow * b
            ds = s + a * ds
            s = bpow + a * s
            aj = self.coeffs[j - 1]
            if aj != 0.0:
                total = total + (aj / (j + 1)) * ds
        return total

    # -- admissibility --------------------------------------------------------

    def _coercivity_gap_coeffs(self) -> np.ndarray:
        """Coefficients (by power of u) of V(u) - (alpha/2 + lam/2 u^{q-1}) u^2.

        Building the gap polynomial coefficient-wise keeps exact cancellation
        when the bound is attained with equality.
        """
        gap = np.zeros(self.q + 2)
        for j in range(1, self.q + 1):
            gap[j + 1] = -self.coeffs[j - 1] / (j + 1)
        gap[2] -= 0.5 * self.alpha
        gap[self.q + 1] -= 0.5 * self.lam
        return gap

    def validate(self, scheme: str) -> list[str]:
        """Run the admissibility checks for ``scheme``; return a list of
        violations (empty = ok).  An unknown scheme is the caller's to report."""
        constants = {"coefficients": self.coeffs, "alpha": (self.alpha,), "lambda": (self.lam,)}
        bad = [name for name, values in constants.items() if not np.all(np.isfinite(values))]
        if bad:
            return [f"drift {' and '.join(bad)} must be finite"]
        if self.q % 2 == 0:
            return [f"drift polynomial degree must be odd, got q={self.q}"]

        violations: list[str] = []
        witness = _negative_point(self._coercivity_gap_coeffs())
        if witness is not None:
            violations.append(
                "potential fails the coercivity bound "
                f"(alpha={self.alpha}, lambda={self.lam}) at u={witness[0]:g} "
                f"with gap {witness[1]:.3e}"
            )
        if scheme == FULLY_IMPLICIT:
            # convex potential: -f'(u) = -sum j a_j u^{j-1} >= 0
            curv = [-j * a for j, a in enumerate(self.coeffs, start=1)]
            witness = _negative_point(np.array(curv))
            if witness is not None:
                violations.append(
                    "fully implicit drift discretization requires a convex "
                    f"potential; second derivative is {witness[1]:.3e} at u={witness[0]:g}"
                )
        return violations
