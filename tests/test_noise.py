import numpy as np
import pytest

from stochwave.noise import coarsen, sample_path


def test_reproducible_bitwise():
    a = sample_path(42, 3, 1000, 0.01)
    b = sample_path(42, 3, 1000, 0.01)
    assert np.array_equal(a.increments, b.increments)


def test_different_indices_differ():
    a = sample_path(42, 0, 100, 0.01)
    b = sample_path(42, 1, 100, 0.01)
    assert not np.array_equal(a.increments, b.increments)


def test_mean_within_clt_bound():
    tau = 0.01
    n = 100_000
    path = sample_path(7, 0, n, tau)
    assert abs(path.increments.mean()) < 4 * np.sqrt(tau / n)


def test_variance_within_5_percent():
    tau = 0.01
    path = sample_path(8, 0, 100_000, tau)
    assert path.increments.var() == pytest.approx(tau, rel=0.05)


def test_cross_correlation_small():
    a = sample_path(9, 0, 10_000, 1.0).increments
    b = sample_path(9, 1, 10_000, 1.0).increments
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_invalid_args():
    with pytest.raises(ValueError):
        sample_path(0, 0, 0, 0.1)
    with pytest.raises(ValueError):
        sample_path(0, 0, 10, -1.0)


def test_coarsen_identity():
    path = sample_path(1, 0, 64, 0.5)
    same = coarsen(path, 1)
    assert np.array_equal(same.increments, path.increments)
    assert same.tau == path.tau


def test_coarsen_group_sums_bitwise():
    path = sample_path(2, 5, 64, 0.25)
    coarse = coarsen(path, 4)
    assert coarse.tau == 1.0
    assert coarse.n_steps == 16

    def pairwise_sum(chunk):
        # same fixed reduction order as the implementation contract
        vals = list(chunk)
        while len(vals) > 1:
            vals = [vals[i] + vals[i + 1] for i in range(0, len(vals), 2)]
        return vals[0]

    for k in range(16):
        expected = pairwise_sum(path.increments[4 * k : 4 * k + 4])
        assert coarse.increments[k] == expected  # bitwise


def test_coarsen_twice_equals_once_by_four():
    path = sample_path(3, 2, 128, 0.125)
    two_step = coarsen(coarsen(path, 2), 2)
    one_step = coarsen(path, 4)
    assert np.array_equal(two_step.increments, one_step.increments)
    assert two_step.tau == one_step.tau


def test_coarsen_preserves_endpoint():
    path = sample_path(4, 1, 4096, 1e-3)
    coarse = coarsen(path, 8)
    assert abs(path.increments.sum() - coarse.increments.sum()) < 1e-14


def test_coarsen_variance_scales():
    path = sample_path(5, 0, 200_000, 0.01)
    coarse = coarsen(path, 10)
    assert coarse.increments.var() == pytest.approx(0.1, rel=0.05)


def test_coarsen_rejects_bad_factor():
    path = sample_path(6, 0, 10, 0.1)
    with pytest.raises(ValueError):
        coarsen(path, 3)
    with pytest.raises(ValueError):
        coarsen(path, 0)
