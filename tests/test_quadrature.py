import math

import numpy as np
import pytest

from stochwave.drift import MODIFIED_CN, PolynomialDrift
from stochwave.ensemble import quadrature_degree_for
from stochwave.quadrature import interval_rule, triangle_rule


@pytest.mark.parametrize("degree", range(13))
def test_interval_rule_exact_on_monomials(degree):
    x, w = interval_rule(degree)
    for k in range(degree + 1):
        assert np.dot(w, x**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)


def _tri_monomial_exact(a, b):
    # integral of x^a y^b over the triangle (0,0),(1,0),(0,1)
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 8, 12, 16, 24])
def test_triangle_rule_exact_on_monomials(degree):
    pts, w = triangle_rule(degree)
    assert w.sum() == pytest.approx(0.5, rel=1e-13)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.dot(w, pts[:, 0] ** a * pts[:, 1] ** b)
            assert val == pytest.approx(_tri_monomial_exact(a, b), rel=1e-12, abs=1e-15)


def test_triangle_points_inside():
    for degree in (2, 5, 9):
        pts, w = triangle_rule(degree)
        assert np.all(pts >= -1e-14)
        assert np.all(pts.sum(axis=1) <= 1 + 1e-14)


@pytest.mark.parametrize("q", range(1, 13))
def test_validated_drifts_need_even_cell_rules(q):
    # triangle_rule has no symmetric rule of degree 1 or 5: the cell rules
    # of the spaces a validated config builds have even degrees >= 2r
    drift = PolynomialDrift([0.0] * (q - 1) + [-1.0])
    if q % 2 == 0:
        assert drift.validate(MODIFIED_CN) == [f"drift polynomial degree must be odd, got q={q}"]
        return
    assert drift.validate(MODIFIED_CN) == []
    for r in (1, 2):
        degree = quadrature_degree_for(r, drift)
        assert degree % 2 == 0 and degree >= 2 * r
