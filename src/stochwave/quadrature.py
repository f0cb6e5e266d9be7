"""Quadrature rules on the reference interval [0,1] and reference triangle.

The reference triangle has vertices (0,0), (1,0), (0,1); triangle weights sum
to its area 1/2.  Every rule is exact for polynomials up to the requested
total degree.
"""

from __future__ import annotations

import numpy as np

__all__ = ["interval_rule", "triangle_rule"]


def interval_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0,1] exact for polynomials of the given degree."""
    n = max(1, (degree + 2) // 2)  # n-point GL is exact through degree 2n-1
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# Symmetric barycentric rules (weights normalised to sum 1; scaled by area below).
def _sym_triangle_points(degree: int) -> tuple[np.ndarray, np.ndarray]:
    if degree <= 2:
        bary = [(2 / 3, 1 / 6, 1 / 6), (1 / 6, 2 / 3, 1 / 6), (1 / 6, 1 / 6, 2 / 3)]
        wts = [1 / 3] * 3
    else:  # degree 3 and 4, the 6-point rule
        a, wa = 0.108103018168070, 0.223381589678011
        b, wb = 0.816847572980459, 0.109951743655322
        bary, wts = [], []
        for c, w in ((a, wa), (b, wb)):
            d = (1.0 - c) / 2.0
            bary += [(c, d, d), (d, c, d), (d, d, c)]
            wts += [w] * 3
    pts = np.array([(l1, l2) for (_, l1, l2) in bary])
    return pts, np.array(wts)


def _collapsed_triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    # Duffy map x = xi, y = eta*(1-xi): the integrand gains one degree in xi.
    x, wx = interval_rule(degree + 1)
    y, wy = interval_rule(degree)
    XI, ETA = np.meshgrid(x, y, indexing="ij")
    WX, WY = np.meshgrid(wx, wy, indexing="ij")
    pts = np.column_stack([XI.ravel(), (ETA * (1.0 - XI)).ravel()])
    wts = (WX * WY * (1.0 - XI)).ravel()
    return pts, wts


def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on the reference triangle exact for the given total degree.

    Symmetric 3- and 6-point rules are used through degree 4; higher degrees
    use a collapsed Gauss product, which is exact for any degree.  A space's
    cell rule has the degree `quadrature_degree_for` gives, which is even and
    at least 2 for every validated drift.
    """
    if degree <= 4:
        pts, wts = _sym_triangle_points(degree)
        return pts, 0.5 * wts
    return _collapsed_triangle_rule(degree)
