import numpy as np
import pytest

from stochwave.diffusion import Diffusion


def test_linear_eval():
    g = Diffusion.linear(1.0)
    assert g.value(3.0) == pytest.approx(3.0)


def test_smoothed_abs_at_zero():
    g = Diffusion.smoothed_abs(0.01)
    assert g.value(0.0) == pytest.approx(0.1)


def test_zero_everywhere():
    g = Diffusion.zero()
    u = np.linspace(-5, 5, 11)
    assert np.all(g.value(u) == 0.0)
    assert g.is_zero


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Diffusion("cubic")


def test_smoothed_abs_needs_positive_epsilon():
    with pytest.raises(ValueError):
        Diffusion.smoothed_abs(0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Diffusion.smoothed_abs(np.nan),
        lambda: Diffusion.smoothed_abs(np.inf),
        lambda: Diffusion.linear(np.nan),
        lambda: Diffusion.linear(np.inf),
        lambda: Diffusion.linear(-np.inf),
    ],
    ids=["eps-nan", "eps-inf", "c-nan", "c-inf", "c-minus-inf"],
)
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "g",
    [Diffusion.zero(), Diffusion.linear(1.0), Diffusion.linear(-2.5),
     Diffusion.smoothed_abs(0.01), Diffusion.smoothed_abs(1.0)],
)
def test_lipschitz_bound_random_pairs(g):
    # |g'| <= |c| for the linear family; |u| / sqrt(u^2 + eps) < 1 for smoothed_abs
    rng = np.random.default_rng(0)
    a = rng.uniform(-50, 50, 2000)
    b = rng.uniform(-50, 50, 2000)
    L = {"zero": 0.0, "linear": abs(g.c), "smoothed_abs": 1.0}[g.kind]
    assert np.all(np.abs(g.value(a) - g.value(b)) <= L * np.abs(a - b) + 1e-12)


@pytest.mark.parametrize(
    "g",
    [Diffusion.zero(), Diffusion.linear(2.0), Diffusion.smoothed_abs(0.01),
     Diffusion.smoothed_abs(4.0)],
)
def test_growth_bound(g):
    # g(u)^2 <= C (1 + u^2): C = c^2 for the linear family, max(1, eps) for smoothed_abs
    rng = np.random.default_rng(1)
    u = rng.uniform(-100, 100, 2000)
    C = {"zero": 0.0, "linear": g.c * g.c, "smoothed_abs": max(1.0, g.epsilon)}[g.kind]
    assert np.all(g.value(u) ** 2 <= C * (1 + u * u) + 1e-12)
