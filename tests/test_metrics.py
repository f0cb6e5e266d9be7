import numpy as np
import pytest

import stochwave.ensemble
import stochwave.metrics
import stochwave.stepper
from stochwave.diffusion import Diffusion
from stochwave.drift import MODIFIED_CN, PolynomialDrift
from stochwave.fem import DirectSum, FeSpace
from stochwave.fields import Constant, CosineProduct
from stochwave.ensemble import EnsembleFailureError, ProblemSpec
from stochwave.experiments import preset_config
from stochwave.mesh import build_interval_mesh, refine_uniform
from stochwave.metrics import (
    AnalyticStudy,
    RateStudy,
    analytic_error_table,
    convergence_table,
    quadrature_degree_for,
    sup_rms,
)
from stochwave.noise import BrownianPath, coarsen, sample_path
from stochwave.stepper import NewtonDivergedError, SchemeConfig, WaveStepper, initial_state
from oracles import error_norms, evaluate
from stepping import run_states

CUBIC = PolynomialDrift([-1.0, 0.0, -1.0], alpha=1.0, lam=0.5)
ZERO = PolynomialDrift([0.0])


def _problem(drift, diffusion, master_seed=0, newton_abs_tol=1e-11):
    """The 1D P1 `mcn` problem with cosine displacement at rest."""
    return ProblemSpec(
        dimension=1, degree=1, drift=drift, diffusion=diffusion,
        h1=CosineProduct(kx=1), h2=Constant(0.0), master_seed=master_seed,
        scheme=MODIFIED_CN, newton_abs_tol=newton_abs_tol,
    )


def test_sup_rms_single_value():
    assert sup_rms(np.array([[2.5]]) ** 2) == pytest.approx(2.5)


def test_sup_rms_two_samples():
    # sqrt((9 + 16) / 2) at the worst node
    errs = np.array([[3.0], [4.0]])
    assert sup_rms(errs**2) == pytest.approx(np.sqrt(12.5))


def test_sup_rms_dominates_each_node():
    rng = np.random.default_rng(0)
    errs = rng.uniform(0, 2, (10, 7))
    sup = sup_rms(errs**2)
    per_node = np.sqrt((errs**2).mean(axis=0))
    assert np.all(sup >= per_node - 1e-12)


def _run_states(stepper, path, init):
    """Run one path; return its (U, V) coefficient stacks, row n at node n."""
    return run_states(stepper, path, init)[1:]


# error_norms measures one stored pair with the rate tables' `_error_sq`

def test_error_norms_self_is_zero():
    space = FeSpace(build_interval_mesh(8), 1, quadrature_degree_for(1, CUBIC))
    cfg = SchemeConfig(tau=0.02, n_steps=5, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    path = sample_path(3, 0, 5, 0.02)
    states = _run_states(stepper, path, init)
    l2, h1, dt = error_norms(states, states, space, space, 0.02, 0.02)
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
    tc = _run_states(sc, path, initial_state(coarse, CosineProduct(kx=1), Constant(0.0)))
    tf = _run_states(sf, path, initial_state(fine, CosineProduct(kx=1), Constant(0.0)))
    l2, h1, dt = error_norms(tc, tf, coarse, fine, tau, tau)

    n = 2  # check one interior node against brute-force quadrature
    xs, ws = np.polynomial.legendre.leggauss(50)
    acc = 0.0
    for cell in range(fine_mesh.n_cells):
        a = fine_mesh.vertices[fine_mesh.cells[cell, 0], 0]
        b = fine_mesh.vertices[fine_mesh.cells[cell, 1], 0]
        pts = 0.5 * (b - a) * (xs + 1) + a
        diff = evaluate(coarse, tc[0][n], pts[:, None]) - evaluate(fine, tf[0][n], pts[:, None])
        acc += 0.5 * (b - a) * np.dot(ws, diff**2)
    assert np.sqrt(acc) == pytest.approx(l2[n], abs=1e-10)


@pytest.mark.parametrize("mode", ["spatial", "temporal"])
def test_rate_rows_match_error_norms_of_stored_states(mode):
    # the table reduces each row's errors node by node as the row runs; one
    # sample's rows must equal error_norms over the stored trajectories
    levels, taus = ([4, 8], [0.05]) if mode == "spatial" else ([8], [0.1, 0.05])
    table = convergence_table(
        _problem(CUBIC, Diffusion.linear(1.0), master_seed=4, newton_abs_tol=1e-13),
        RateStudy(mode=mode, levels=levels, taus=taus, T=0.2, reference_extra_levels=1),
        n_samples=1, threads=1,
    )
    quad = quadrature_degree_for(1, CUBIC)
    ref_level = 16 if mode == "spatial" else 8
    ref_tau = 0.05 if mode == "spatial" else 0.025
    meshes = {4: build_interval_mesh(4)}
    for level in (8, 16):
        meshes[level] = refine_uniform(meshes[level // 2])
    spaces = {level: FeSpace(mesh, 1, quad) for level, mesh in meshes.items()}
    h1, h2 = CosineProduct(kx=1), Constant(0.0)

    def states(level, tau, path):
        cfg = SchemeConfig(tau=tau, n_steps=round(0.2 / tau), newton_abs_tol=1e-13)
        stepper = WaveStepper(spaces[level], CUBIC, Diffusion.linear(1.0), cfg)
        return _run_states(stepper, path, initial_state(spaces[level], h1, h2))

    ref_path = sample_path(4, 0, round(0.2 / ref_tau), ref_tau)
    ref = states(ref_level, ref_tau, ref_path)
    for k, (level, tau) in enumerate(
        [(l, taus[0]) for l in levels] if mode == "spatial" else [(levels[0], t) for t in taus]
    ):
        factor = round(tau / ref_tau)
        path = coarsen(ref_path, factor) if factor > 1 else ref_path
        l2, h1_err, dt = error_norms(
            states(level, tau, path), ref, spaces[level], spaces[ref_level], tau, ref_tau
        )
        assert table.l2[k] == np.max(l2)
        assert table.h1[k] == np.max(h1_err)
        assert table.dtl2[k] == np.max(dt)


def test_a_rate_block_builds_one_space_and_stepper_per_march(monkeypatch):
    # test1a's ladders, two samples: the spatial rows and their reference
    # share one direct sum, which is both projected onto and stepped; a
    # temporal table marches its reference and each of its six rows on the
    # one plain space
    built = {"sums": 0, "steppers": 0}

    def counting(cls, key):
        init = cls.__init__

        def counted(self, *args):
            built[key] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)

    counting(DirectSum, "sums")
    counting(WaveStepper, "steppers")
    cfg = preset_config("test1a")
    spatial, temporal = cfg.studies
    want = {"spatial": {"sums": 1, "steppers": 1}, "temporal": {"sums": 0, "steppers": 7}}
    for study in (spatial, temporal):
        built.update(sums=0, steppers=0)
        table = convergence_table(cfg.problem(), study, n_samples=2, threads=1)
        assert table.n_samples == 2
        assert built == want[study.mode]


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
        _problem(ZERO, Diffusion.zero(), master_seed=0),
        RateStudy(
            mode="spatial", levels=[4, 8, 16], taus=[1e-3], T=0.01, reference_extra_levels=2
        ),
        n_samples=1, threads=1,
    )
    assert table.orders(table.l2)[0] is None
    assert table.orders(table.l2)[-1] == pytest.approx(2.0, abs=0.3)
    assert table.orders(table.h1)[-1] == pytest.approx(1.0, abs=0.3)
    assert table.orders(table.dtl2)[-1] == pytest.approx(2.0, abs=0.4)
    assert table.params[0] == 0.25


def test_convergence_table_temporal_small():
    table = convergence_table(
        _problem(CUBIC, Diffusion.linear(1.0), master_seed=1, newton_abs_tol=1e-13),
        RateStudy(
            mode="temporal", levels=[16], taus=[0.1, 0.05, 0.025], T=0.2,
            reference_extra_levels=2,
        ),
        n_samples=8, threads=1,
    )
    assert table.params[1] == pytest.approx(0.05)
    assert np.all(table.l2[1:] < table.l2[:-1])  # errors shrink along the ladder
    assert table.n_failures == 0
    assert table.max_energy_violation <= 1e-8


def test_convergence_table_validates_ladders():
    problem = _problem(ZERO, Diffusion.zero(), master_seed=0)

    def table(**study):
        return convergence_table(problem, RateStudy(T=0.1, **study), n_samples=1, threads=1)

    with pytest.raises(ValueError):
        table(mode="spatial", levels=[4, 12], taus=[0.01])
    with pytest.raises(ValueError):
        table(mode="spatial", levels=[4, 8], taus=[0.01, 0.005])
    with pytest.raises(ValueError):
        table(mode="temporal", levels=[8], taus=[0.1, 0.04])
    with pytest.raises(ValueError, match="single level"):
        table(mode="temporal", levels=[8, 16], taus=[0.1, 0.05])
    with pytest.raises(ValueError):
        table(mode="sideways", levels=[4], taus=[0.01])
    # a reference no finer than the finest row would make that row's error 0
    with pytest.raises(ValueError, match="reference_extra_levels"):
        table(mode="spatial", levels=[4, 8], taus=[0.01], reference_extra_levels=0)
    with pytest.raises(ValueError, match="reference_extra_levels"):
        table(mode="temporal", levels=[8], taus=[0.1, 0.05], reference_extra_levels=0)


def test_convergence_table_rejects_empty_sample_set():
    with pytest.raises(ValueError):
        convergence_table(
            _problem(CUBIC, Diffusion.linear(1.0), master_seed=0),
            RateStudy(mode="temporal", levels=[8], taus=[0.1, 0.05], T=0.2),
            n_samples=0, threads=1,
        )


def test_convergence_table_contains_linear_solve_failure(monkeypatch):
    # sample 1's reference path meets a huge increment: its frozen correction
    # is rejected and full Newton meets a Jacobian made indefinite here.  A
    # spatial table's rows share that path and march with the reference, so
    # the sample is dropped with its whole column; either way the other
    # samples keep the bits of a block in which nothing fails
    def path(seed, idx, n_steps, tau):
        p = sample_path(seed, idx, n_steps, tau)
        if idx != 1:
            return p
        inc = p.increments.copy()
        inc[3] = 1e3
        return BrownianPath(tau, inc)

    records = []
    batch = stochwave.metrics._rate_batch
    monkeypatch.setattr(
        stochwave.metrics, "_rate_batch", lambda task: records.append(batch(task)) or records[-1]
    )
    problem = _problem(CUBIC, Diffusion.linear(1.0), master_seed=3)
    for study in (
        RateStudy(mode="spatial", levels=[4, 8], taus=[0.05], T=0.2),
        RateStudy(mode="temporal", levels=[8], taus=[0.1, 0.05], T=0.2),
    ):
        records.clear()
        convergence_table(problem, study, n_samples=3, threads=1)
        with monkeypatch.context() as m:
            m.setattr(stochwave.metrics, "sample_path", path)
            m.setattr(
                stochwave.stepper, "assemble_weighted_mass", lambda space, w: 1e30 * space.mass
            )
            with pytest.raises(EnsembleFailureError, match="non-positive diagonal"):
                convergence_table(problem, study, n_samples=3, threads=1)
            m.setattr(stochwave.ensemble, "MAX_FAILURE_FRACTION", 0.5)
            table = convergence_table(problem, study, n_samples=3, threads=1)
        assert table.n_failures == 1
        assert table.n_samples == 2
        clean, failing = records[0], records[-1]
        assert [r.failure is None for r in failing] == [True, False, True]
        for pos in (0, 2):
            for want, got in zip(clean[pos].series, failing[pos].series, strict=True):
                assert all(np.array_equal(a, b) for a, b in zip(want, got, strict=True))


def test_a_block_whose_samples_all_fail_steps_no_row(monkeypatch):
    # no correction is allowed, so every reference run fails at its first
    # step; the temporal rows, which would march after it, never step
    marches = []
    march = ProblemSpec.march
    monkeypatch.setattr(
        ProblemSpec, "march", lambda self, space, cfg, *args: marches.append(cfg.tau)
        or march(self, space, cfg, *args)
    )
    monkeypatch.setattr(stochwave.stepper, "NEWTON_MAX_ITER", 0)
    study = RateStudy(mode="temporal", levels=[8], taus=[0.1, 0.05], T=0.2)
    with pytest.raises(EnsembleFailureError, match="2/2 samples failed"):
        convergence_table(_problem(CUBIC, Diffusion.linear(1.0)), study, n_samples=2, threads=1)
    assert marches == [0.025]  # the reference's alone


def test_convergence_table_thread_determinism():
    problem = _problem(CUBIC, Diffusion.linear(1.0), master_seed=3, newton_abs_tol=1e-13)
    study = RateStudy(
        mode="temporal", levels=[8], taus=[0.1, 0.05], T=0.2, reference_extra_levels=1
    )
    t1 = convergence_table(problem, study, n_samples=6, threads=1)
    t2 = convergence_table(problem, study, n_samples=6, threads=3)
    assert np.array_equal(t1.l2, t2.l2)
    assert np.array_equal(t1.dtl2, t2.dtl2)


def test_analytic_table_linear_wave():
    # keep the ladder coarse so the O(tau) part stays subdominant
    # the exact solution is LinearWaveSolution(k=1), read from h1
    table = analytic_error_table(
        _problem(ZERO, Diffusion.zero()), AnalyticStudy(levels=[4, 8, 16], tau=1e-4, T=0.05)
    )
    assert table.orders(table.l2)[-1] >= 1.8
    assert table.orders(table.h1)[-1] == pytest.approx(1.0, abs=0.3)


def test_analytic_table_does_not_depend_on_the_block_width(monkeypatch):
    # the table reduces one energy window per observer call: one node per
    # window, a few nodes per window, and the default window
    tables = []
    for points in (1, 2**9, stochwave.stepper.BLOCK_POINTS):
        monkeypatch.setattr(stochwave.stepper, "BLOCK_POINTS", points)
        table = analytic_error_table(
            _problem(ZERO, Diffusion.zero()), AnalyticStudy(levels=[8, 16], tau=1e-3, T=0.05)
        )
        tables.append(np.stack([table.l2, table.h1, table.dtl2]))
    assert all(np.array_equal(t, tables[0]) for t in tables[1:])


def test_analytic_table_levels_do_not_depend_on_the_other_levels():
    # each level marches as its own run and sums over its own points only
    problem = _problem(ZERO, Diffusion.zero())
    wide = analytic_error_table(problem, AnalyticStudy(levels=[8, 16, 32], tau=1e-3, T=0.05))
    narrow = analytic_error_table(problem, AnalyticStudy(levels=[16, 32], tau=1e-3, T=0.05))
    for name in ("l2", "h1", "dtl2"):
        assert np.array_equal(getattr(wide, name)[1:], getattr(narrow, name)), name


def test_analytic_table_raises_the_failure_of_its_march(monkeypatch):
    # no correction is allowed, so the march fails at its first step
    monkeypatch.setattr(stochwave.stepper, "NEWTON_MAX_ITER", 0)
    with pytest.raises(NewtonDivergedError, match="step 0"):
        analytic_error_table(
            _problem(ZERO, Diffusion.zero()), AnalyticStudy(levels=[4, 8], tau=1e-3, T=0.01)
        )


def test_analytic_table_validates_ladder():
    for levels in ([8, 12], [], [0, 0]):
        with pytest.raises(ValueError, match="levels"):
            analytic_error_table(
                _problem(ZERO, Diffusion.zero()), AnalyticStudy(levels=levels, tau=0.01, T=0.1)
            )


def test_analytic_table_requires_zero_noise():
    with pytest.raises(ValueError):
        analytic_error_table(
            _problem(ZERO, Diffusion.linear(1.0)), AnalyticStudy(levels=[4], tau=0.01, T=0.1)
        )
