import numpy as np
import pytest

import stochwave.ensemble
import stochwave.stepper
from stochwave.diffusion import Diffusion
from stochwave.drift import MODIFIED_CN, PolynomialDrift
from stochwave.ensemble import (
    BLOCK_POINTS,
    EnsembleFailureError,
    ProblemSpec,
    StabilityStudy,
    parallel_map,
    run_ensemble,
    sample_blocks,
    subset_fraction,
    tree_sum,
)
from stochwave.fem import FeSpace
from stochwave.fields import Constant, CosineProduct
from stochwave.linsolve import LinearSolveError
from stochwave.mesh import build_interval_mesh
from stochwave.metrics import quadrature_degree_for
from stochwave.noise import BrownianPath, sample_path
from stochwave.stepper import SchemeConfig, WaveStepper, initial_state
from stepping import run_states

CUBIC = PolynomialDrift([-1.0, 0.0, -1.0], alpha=1.0, lam=0.5)


def _setup_1d():
    space = FeSpace(build_interval_mesh(8), 1, quadrature_degree_for(1, CUBIC))
    cfg = SchemeConfig(tau=0.02, n_steps=10, newton_abs_tol=1e-13)
    return space, cfg


def _problem(diffusion, master_seed, h1=CosineProduct(kx=1), h2=Constant(0.0),
             dimension=1, newton_abs_tol=1e-13):
    """The P1 `mcn` problem with the cubic drift."""
    return ProblemSpec(
        dimension=dimension, degree=1, drift=CUBIC, diffusion=diffusion, h1=h1, h2=h2,
        master_seed=master_seed, scheme=MODIFIED_CN, newton_abs_tol=newton_abs_tol,
    )


# the run of `_setup_1d`: level 8, tau 0.02, 10 steps
STUDY_1D = StabilityStudy(level=8, tau=0.02, T=0.2)


def test_tree_sum_matches_plain_sum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((17, 5))
    assert np.allclose(tree_sum(x), x.sum(axis=0), rtol=1e-12)


def test_tree_sum_single():
    x = np.arange(6.0).reshape(1, 6)
    assert np.array_equal(tree_sum(x), x[0])


def test_single_deterministic_sample_equals_trajectory():
    space, cfg = _setup_1d()
    h1, h2 = CosineProduct(kx=1), Constant(0.0)
    stats = run_ensemble(_problem(Diffusion.zero(), 5, h1, h2), STUDY_1D, 1, threads=1)
    stepper = WaveStepper(space, CUBIC, Diffusion.zero(), cfg)
    traj = stepper.run([sample_path(5, 0, cfg.n_steps, cfg.tau)], initial_state(space, h1, h2))
    assert np.array_equal(stats.mean_l2sq, traj.l2sq[0])
    assert np.array_equal(stats.mean_H, traj.hamiltonians[0])
    assert stats.n_samples == 1


def test_zero_noise_envelopes_collapse():
    stats = run_ensemble(_problem(Diffusion.zero(), 1), STUDY_1D, 8, threads=1)
    assert np.array_equal(stats.min_l2sq, stats.max_l2sq)


def test_jensen_inequality_per_node():
    stats = run_ensemble(_problem(Diffusion.linear(1.0), 2), STUDY_1D, 16, threads=1)
    assert np.all(stats.mean_H2 >= stats.mean_H**2 - 1e-12)
    assert np.all(stats.mean_H4 >= stats.mean_H2**2 - 1e-12)


def test_envelopes_bracket_means():
    stats = run_ensemble(_problem(Diffusion.linear(1.0), 3), STUDY_1D, 16, threads=1)
    for lo, mid, hi in (
        (stats.min_l2sq, stats.mean_l2sq, stats.max_l2sq),
        (stats.min_h1sq, stats.mean_h1sq, stats.max_h1sq),
        (stats.min_dtl2sq, stats.mean_dtl2sq, stats.max_dtl2sq),
    ):
        assert np.all(lo <= mid + 1e-12)
        assert np.all(mid <= hi + 1e-12)


def test_bit_reproducible_across_worker_counts():
    problem = _problem(Diffusion.linear(1.0), 9)
    a = run_ensemble(problem, STUDY_1D, n_samples=12, threads=1)
    b = run_ensemble(problem, STUDY_1D, n_samples=12, threads=3)
    assert np.array_equal(a.mean_l2sq, b.mean_l2sq)
    assert np.array_equal(a.mean_H4, b.mean_H4)
    assert np.array_equal(a.max_h1sq, b.max_h1sq)


def test_ensemble_2d_runs():
    # level 4 of the unit square, tau 0.05, 4 steps
    problem = _problem(Diffusion.linear(1.0), 4, h1=CosineProduct(kx=1, ky=2), dimension=2)
    stats = run_ensemble(problem, StabilityStudy(level=4, tau=0.05, T=0.2), 4, threads=1)
    assert stats.n_failures == 0
    assert np.all(np.isfinite(stats.mean_H2))
    assert stats.max_energy_violation <= 1e-8


def test_failure_abort_above_threshold(monkeypatch):
    # a cap of 0 corrections forces every nonlinear sample to fail
    monkeypatch.setattr(stochwave.stepper, "NEWTON_MAX_ITER", 0)
    with pytest.raises(EnsembleFailureError):
        run_ensemble(
            _problem(Diffusion.linear(1.0), 6, newton_abs_tol=1e-11), STUDY_1D, 5, threads=1
        )


def _fail_linear_solves(monkeypatch, failing):
    """Give the samples ``failing`` a huge increment at step 3, which full
    Newton meets with a Jacobian made indefinite here; returns the paths."""

    def path(seed, idx, n_steps, tau):
        p = sample_path(seed, idx, n_steps, tau)
        if idx not in failing:
            return p
        inc = p.increments.copy()
        inc[3] = 1e3
        return BrownianPath(tau, inc)

    monkeypatch.setattr(stochwave.ensemble, "sample_path", path)
    monkeypatch.setattr(
        stochwave.stepper, "assemble_weighted_mass", lambda space, w: 1e30 * space.mass
    )
    return path


def test_linear_solve_failure_is_contained_per_sample(monkeypatch):
    # sample 1 meets a huge increment: its frozen correction is rejected and
    # full Newton meets a Jacobian made indefinite here (LinearSolveError),
    # while samples 0 and 2 of the same batch stay on the chord
    path = _fail_linear_solves(monkeypatch, (1,))
    space, cfg = _setup_1d()
    h1, h2 = CosineProduct(kx=1), Constant(0.0)
    monkeypatch.setattr(stochwave.ensemble, "MAX_FAILURE_FRACTION", 0.5)
    stats = run_ensemble(_problem(Diffusion.linear(1.0), 6, h1, h2), STUDY_1D, 3, threads=1)
    assert stats.n_failures == 1
    assert stats.n_samples == 2
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    with pytest.raises(LinearSolveError):
        run_states(stepper, path(6, 1, cfg.n_steps, cfg.tau), initial_state(space, h1, h2))
    kept = [
        stepper.run([sample_path(6, k, cfg.n_steps, cfg.tau)], initial_state(space, h1, h2))
        for k in (0, 2)
    ]
    assert np.array_equal(stats.mean_H, (kept[0].hamiltonians[0] + kept[1].hamiltonians[0]) / 2)


def test_failure_error_names_every_failed_sample(monkeypatch):
    _fail_linear_solves(monkeypatch, (1, 3))
    with pytest.raises(EnsembleFailureError) as exc_info:
        run_ensemble(_problem(Diffusion.linear(1.0), 6), STUDY_1D, 5, threads=1)
    assert str(exc_info.value) == (
        "2/5 samples failed (samples 1, 3); "
        "first, sample 1: non-positive diagonal entry; matrix is not SPD"
    )


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand in for the process pool: record each pool's size and map in
    this process, so no worker process is started."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(stochwave.ensemble, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_pool_has_no_more_workers_than_tasks(pool_sizes):
    assert parallel_map(abs, [-1, 2], 64) == [1, 2]
    assert parallel_map(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert parallel_map(abs, [-5], 64) == [5]  # one task runs without a pool
    assert pool_sizes == [2, 2]


def test_two_samples_on_many_workers_make_a_pool_of_two(pool_sizes):
    problem = _problem(Diffusion.linear(1.0), 2)
    wide = run_ensemble(problem, STUDY_1D, n_samples=2, threads=64)
    assert pool_sizes == [2]
    alone = run_ensemble(problem, STUDY_1D, n_samples=2, threads=1)
    assert np.array_equal(wide.sample_l2sq, alone.sample_l2sq)
    assert np.array_equal(wide.mean_H, alone.mean_H)


def test_sample_blocks_are_contiguous_and_capped():
    assert sample_blocks(4, 1, 100) == [range(0, 4)]
    assert sample_blocks(4, 2, 100) == [range(0, 2), range(2, 4)]
    assert sample_blocks(5, 3, 100) == [range(0, 2), range(2, 4), range(4, 5)]
    assert sample_blocks(3, 1, 2 * BLOCK_POINTS) == [range(0, 1), range(1, 2), range(2, 3)]
    blocks = sample_blocks(200, 1, 3072)  # 2D level 16, cubic drift
    assert all(len(b) == BLOCK_POINTS // 3072 for b in blocks[:-1])
    assert 0 < len(blocks[-1]) <= BLOCK_POINTS // 3072
    assert [i for b in blocks for i in b] == list(range(200))


def test_rejects_empty_ensemble():
    with pytest.raises(ValueError):
        run_ensemble(_problem(Diffusion.zero(), 0), STUDY_1D, 0, threads=1)


# ---------------------------------------------------------------------------
# Subset fractions
# ---------------------------------------------------------------------------

def test_subset_fraction_huge_kappa():
    rng = np.random.default_rng(10)
    series = rng.uniform(0.5, 2.0, (20, 15))
    assert np.all(subset_fraction(series, 1e12) == 1.0)


def test_subset_fraction_zero_kappa():
    rng = np.random.default_rng(11)
    series = rng.uniform(0.5, 2.0, (20, 15))
    assert np.all(subset_fraction(series, 0.0) == 0.0)


def test_subset_fraction_percentile():
    rng = np.random.default_rng(12)
    series = np.maximum.accumulate(rng.uniform(0.0, 1.0, (50, 30)), axis=1)
    kappa = float(np.percentile(series.max(axis=1), 90.0))
    frac = subset_fraction(series, kappa)
    assert 0.86 <= frac[-1] <= 0.94


def test_subset_fraction_monotone_in_kappa_and_time():
    rng = np.random.default_rng(13)
    series = rng.uniform(0.0, 2.0, (30, 20))
    f1 = subset_fraction(series, 0.8)
    f2 = subset_fraction(series, 1.2)
    assert np.all(f2 >= f1)  # nondecreasing in kappa
    assert np.all(np.diff(f1) <= 1e-15)  # nonincreasing along the run


def test_subset_fraction_rejects_negative_kappa():
    with pytest.raises(ValueError):
        subset_fraction(np.zeros((2, 2)), -1.0)


def test_subset_fraction_rejects_nan_kappa():
    # NaN compares False with everything, so a fraction below it would read 0
    with pytest.raises(ValueError):
        subset_fraction(np.zeros((2, 2)), np.nan)
