import numpy as np
import pytest

from stochwave.diffusion import Diffusion
from stochwave.drift import PolynomialDrift
from stochwave.fem import FeSpace
from stochwave.fields import Constant, CosineProduct, LinearWaveSolution
from stochwave.linsolve import LinearSolveError
from stochwave.mesh import build_interval_mesh, refine_uniform
from stochwave.metrics import (
    analytic_error_table,
    convergence_table,
    error_norms,
    quadrature_degree_for,
    sup_rms_errors,
)
from stochwave.noise import coarsen, sample_path
from stochwave.stepper import SchemeConfig, WaveStepper, initial_state

CUBIC = PolynomialDrift([-1.0, 0.0, -1.0], alpha=1.0, lam=0.5)
ZERO = PolynomialDrift([0.0])


def test_sup_rms_single_value():
    assert sup_rms_errors(np.array([[2.5]])) == pytest.approx(2.5)


def test_sup_rms_two_samples():
    # sqrt((9 + 16) / 2) at the worst node
    errs = np.array([[3.0], [4.0]])
    assert sup_rms_errors(errs) == pytest.approx(np.sqrt(12.5))


def test_sup_rms_dominates_each_node():
    rng = np.random.default_rng(0)
    errs = rng.uniform(0, 2, (10, 7))
    sup = sup_rms_errors(errs)
    per_node = np.sqrt((errs**2).mean(axis=0))
    assert np.all(sup >= per_node - 1e-12)


def test_error_norms_self_is_zero():
    space = FeSpace(build_interval_mesh(8), 1, quadrature_degree_for(1, CUBIC))
    cfg = SchemeConfig(tau=0.02, n_steps=5, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    path = sample_path(3, 0, 5, 0.02)
    traj = stepper.run(path, init, store_states=True)
    l2, h1, dt = error_norms(traj, traj, space, space, 0.02, 0.02)
    assert np.all(l2 == 0.0)
    assert np.all(h1 == 0.0)
    assert np.all(dt == 0.0)
    assert dt.shape[0] == 5  # starts at node 1


def test_error_norms_coupled_pair_quadrature_oracle():
    # single sample: the lifted error norm matches a dense-quadrature evaluation
    coarse_mesh = build_interval_mesh(4)
    fine_mesh = refine_uniform(coarse_mesh)
    coarse = FeSpace(coarse_mesh, 1, quadrature_degree_for(1, CUBIC))
    fine = FeSpace(fine_mesh, 1, quadrature_degree_for(1, CUBIC))
    tau = 0.02
    cfg = SchemeConfig(tau=tau, n_steps=4, newton_abs_tol=1e-13)
    path = sample_path(8, 0, 4, tau)
    sc = WaveStepper(coarse, CUBIC, Diffusion.linear(1.0), cfg)
    sf = WaveStepper(fine, CUBIC, Diffusion.linear(1.0), cfg)
    tc = sc.run(path, initial_state(coarse, CosineProduct(kx=1), Constant(0.0)), store_states=True)
    tf = sf.run(path, initial_state(fine, CosineProduct(kx=1), Constant(0.0)), store_states=True)
    l2, h1, dt = error_norms(tc, tf, coarse, fine, tau, tau)

    from stochwave.fem import evaluate

    n = 2  # check one interior node against brute-force quadrature
    xs, ws = np.polynomial.legendre.leggauss(50)
    acc = 0.0
    for cell in range(fine_mesh.n_cells):
        a = fine_mesh.vertices[fine_mesh.cells[cell, 0], 0]
        b = fine_mesh.vertices[fine_mesh.cells[cell, 1], 0]
        pts = 0.5 * (b - a) * (xs + 1) + a
        diff = evaluate(tc.states[n].u, pts[:, None]) - evaluate(
            tf.states[n].u, pts[:, None]
        )
        acc += 0.5 * (b - a) * np.dot(ws, diff**2)
    assert np.sqrt(acc) == pytest.approx(l2[n], abs=1e-10)


def test_error_norms_validates_tau_ratio():
    space = FeSpace(build_interval_mesh(4), 1)
    cfg = SchemeConfig(tau=0.02, n_steps=2)
    stepper = WaveStepper(space, ZERO, Diffusion.zero(), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    from stochwave.noise import BrownianPath

    traj = stepper.run(BrownianPath(0.02, np.zeros(2), 0, 0), init, store_states=True)
    with pytest.raises(ValueError):
        error_norms(traj, traj, space, space, 0.02, 0.015)


def test_error_norms_requires_states():
    space = FeSpace(build_interval_mesh(4), 1)
    cfg = SchemeConfig(tau=0.02, n_steps=2)
    stepper = WaveStepper(space, ZERO, Diffusion.zero(), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    from stochwave.noise import BrownianPath

    traj = stepper.run(BrownianPath(0.02, np.zeros(2), 0, 0), init)
    with pytest.raises(ValueError):
        error_norms(traj, traj, space, space, 0.02, 0.02)


def test_path_coupling_is_exact():
    # the protocol behind every table row: row paths are exact sums of the
    # reference path
    ref = sample_path(5, 2, 64, 0.01)
    row = coarsen(ref, 4)
    again = coarsen(coarsen(ref, 2), 2)
    assert np.array_equal(row.increments, again.increments)
    assert row.tau == pytest.approx(0.04)


def test_convergence_table_deterministic_linear_rates():
    # zero noise, zero drift: spatial orders approach r+1 / r / r+1
    table = convergence_table(
        mode="spatial",
        dimension=1,
        levels=[4, 8, 16],
        taus=[1e-3],
        T=0.01,
        drift=ZERO,
        diffusion=Diffusion.zero(),
        h1=CosineProduct(kx=1),
        h2=Constant(0.0),
        n_samples=1,
        master_seed=0,
        reference_extra_levels=2,
    )
    assert table.l2_orders[0] is None
    assert table.l2_orders[-1] == pytest.approx(2.0, abs=0.3)
    assert table.h1_orders[-1] == pytest.approx(1.0, abs=0.3)
    assert table.dtl2_orders[-1] == pytest.approx(2.0, abs=0.4)
    assert table.params[0] == 0.25


def test_convergence_table_temporal_small():
    table = convergence_table(
        mode="temporal",
        dimension=1,
        levels=[16],
        taus=[0.1, 0.05, 0.025],
        T=0.2,
        drift=CUBIC,
        diffusion=Diffusion.linear(1.0),
        h1=CosineProduct(kx=1),
        h2=Constant(0.0),
        n_samples=8,
        master_seed=1,
        reference_extra_levels=2,
        newton_abs_tol=1e-13,
    )
    assert table.params[1] == pytest.approx(0.05)
    assert np.all(table.l2[1:] < table.l2[:-1])  # errors shrink along the ladder
    assert table.n_failures == 0
    assert table.max_energy_violation <= 1e-8


def test_convergence_table_validates_ladders():
    common = dict(
        dimension=1, T=0.1, drift=ZERO, diffusion=Diffusion.zero(),
        h1=CosineProduct(kx=1), h2=Constant(0.0), n_samples=1, master_seed=0,
    )
    with pytest.raises(ValueError):
        convergence_table(mode="spatial", levels=[4, 12], taus=[0.01], **common)
    with pytest.raises(ValueError):
        convergence_table(mode="spatial", levels=[4, 8], taus=[0.01, 0.005], **common)
    with pytest.raises(ValueError):
        convergence_table(mode="temporal", levels=[8], taus=[0.1, 0.04], **common)
    with pytest.raises(ValueError):
        convergence_table(mode="sideways", levels=[4], taus=[0.01], **common)


def test_convergence_table_rejects_empty_sample_set():
    with pytest.raises(ValueError):
        convergence_table(
            mode="temporal", dimension=1, levels=[8], taus=[0.1, 0.05], T=0.2,
            drift=CUBIC, diffusion=Diffusion.linear(1.0),
            h1=CosineProduct(kx=1), h2=Constant(0.0), n_samples=0, master_seed=0,
        )


def test_convergence_table_contains_linear_solve_failure(monkeypatch):
    original = WaveStepper.run

    def run(self, path, initial, store_states=False):
        if path.sample_index == 1:
            raise LinearSolveError("singular factor")
        return original(self, path, initial, store_states)

    monkeypatch.setattr(WaveStepper, "run", run)
    table = convergence_table(
        mode="temporal", dimension=1, levels=[8], taus=[0.1, 0.05], T=0.2,
        drift=CUBIC, diffusion=Diffusion.linear(1.0),
        h1=CosineProduct(kx=1), h2=Constant(0.0),
        n_samples=3, master_seed=3, max_failure_fraction=0.5,
    )
    assert table.n_failures == 1
    assert table.n_samples == 2


def test_convergence_table_thread_determinism():
    kwargs = dict(
        mode="temporal", dimension=1, levels=[8], taus=[0.1, 0.05], T=0.2,
        drift=CUBIC, diffusion=Diffusion.linear(1.0),
        h1=CosineProduct(kx=1), h2=Constant(0.0),
        n_samples=6, master_seed=3, reference_extra_levels=1,
        newton_abs_tol=1e-13,
    )
    t1 = convergence_table(threads=1, **kwargs)
    t2 = convergence_table(threads=3, **kwargs)
    assert np.array_equal(t1.l2, t2.l2)
    assert np.array_equal(t1.dtl2, t2.dtl2)


def test_analytic_table_linear_wave():
    # keep the ladder coarse so the O(tau) part stays subdominant
    table = analytic_error_table(
        levels=[4, 8, 16],
        tau=1e-4,
        T=0.05,
        exact=LinearWaveSolution(k=1),
        drift=ZERO,
        diffusion=Diffusion.zero(),
        h1=CosineProduct(kx=1),
        h2=Constant(0.0),
    )
    assert table.l2_orders[-1] >= 1.8
    assert table.h1_orders[-1] == pytest.approx(1.0, abs=0.3)


def test_analytic_table_requires_zero_noise():
    with pytest.raises(ValueError):
        analytic_error_table(
            levels=[4], tau=0.01, T=0.1, exact=LinearWaveSolution(),
            drift=ZERO, diffusion=Diffusion.linear(1.0),
            h1=CosineProduct(kx=1), h2=Constant(0.0),
        )
