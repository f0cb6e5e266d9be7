import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.linalg as spla

import stochwave.linsolve
import stochwave.stepper
from stochwave.diffusion import Diffusion
from stochwave.drift import PolynomialDrift
from stochwave.fem import DirectSum, FeSpace, assemble_weighted_mass
from stochwave.fields import Constant, CosineProduct, LinearWaveSolution, TentBump
from stochwave.linsolve import LinearSolveError
from stochwave.mesh import build_interval_mesh, build_unit_square_tri_mesh
from stochwave.metrics import quadrature_degree_for
from stochwave.noise import BrownianPath, sample_path
from stochwave.stepper import (
    CHORD_CONTRACTION,
    NEWTON_MAX_ITER,
    NEWTON_REL_TOL,
    POLISH_FRACTION,
    NewtonDivergedError,
    SchemeConfig,
    WaveStepper,
    initial_state,
)
from oracles import energy_series, evaluate, pointwise_load
from stepping import observed_nodes, one_step, run_states

CUBIC = PolynomialDrift([-1.0, 0.0, -1.0], alpha=1.0, lam=0.5)
DEG11 = PolynomialDrift([-1.0] + [0.0] * 9 + [-1.0], alpha=1.0, lam=1.0 / 6.0)
ZERO = PolynomialDrift([0.0])


def _space(n, drift=CUBIC, degree=1):
    return FeSpace(build_interval_mesh(n), degree, quadrature_degree_for(degree, drift))


def _zeros_path(tau, n):
    return BrownianPath(tau, np.zeros(n))


# ---------------------------------------------------------------------------
# Initial state
# ---------------------------------------------------------------------------

def test_initial_state_constants():
    space = _space(8)
    u, v = initial_state(space, Constant(1.0), Constant(0.0))
    assert np.abs(u - 1.0).max() < 1e-12
    assert np.abs(v).max() < 1e-12


def test_initial_state_cosine():
    space = _space(16)
    u, _ = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    xs = np.linspace(0, 1, 50)[:, None]
    vals = evaluate(space, u, xs)
    assert np.abs(vals - np.cos(np.pi * xs[:, 0])).max() < 5e-3


def test_initial_state_tent_projected():
    # the kinked profile is projected, not interpolated: it may overshoot nodes
    space = _space(16)
    _, v = initial_state(space, Constant(0.0), TentBump())
    assert v.max() > 0.9
    l2 = np.sqrt(v @ (space.mass @ v))
    assert l2 <= np.sqrt(1.0 / 6.0) + 1e-6  # ||tent||_L2 = sqrt(1/6)


# ---------------------------------------------------------------------------
# Single step
# ---------------------------------------------------------------------------

def test_linear_residual_converges_in_one_iteration():
    space = _space(8, ZERO)
    cfg = SchemeConfig(tau=0.01, n_steps=1)
    stepper = WaveStepper(space, ZERO, Diffusion.zero(), cfg)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    traj = stepper.run([_zeros_path(0.01, 1)], st)
    assert traj.newton_iters[0, 0] == 1


def test_zero_fixed_point_with_multiplicative_noise():
    # g(0)=0 and f(0)=0 keep the zero state invariant for any path
    space = _space(8)
    cfg = SchemeConfig(tau=0.05, n_steps=20)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    st = initial_state(space, Constant(0.0), Constant(0.0))
    traj = stepper.run([sample_path(99, 0, 20, 0.05)], st)
    assert traj.l2sq.max() < 1e-24


@pytest.mark.parametrize("scheme", ["mcn", "implicit"])
def test_single_step_matches_dense_nonlinear_oracle(scheme):
    # brute-force: assemble dense matrices, solve the nonlinear system with a
    # general-purpose root finder, compare coefficients
    drift = PolynomialDrift([-1.0], alpha=0.0, lam=1.0)  # f = -u (q = 1)
    space = _space(4, drift)
    tau = 0.05
    dW = 0.123
    cfg = SchemeConfig(tau=tau, n_steps=1, scheme=scheme)
    g = Diffusion.linear(1.0)
    stepper = WaveStepper(space, drift, g, cfg)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    u1, _ = one_step(stepper, st, dW)

    M = space.mass.toarray()
    K = space.stiffness.toarray()
    un, vn = st
    noise = M @ (g.value(un))  # g linear: g(u_h) stays in the space

    def drift_load(c):
        b = np.zeros_like(c)
        xs, ws = np.polynomial.legendre.leggauss(20)
        xs = 0.5 * (xs + 1)
        ws = 0.5 * ws
        mesh = space.mesh
        for cell in range(mesh.n_cells):
            a = mesh.vertices[mesh.cells[cell, 0], 0]
            bb = mesh.vertices[mesh.cells[cell, 1], 0]
            hx = bb - a
            basis = np.stack([1 - xs, xs], axis=-1)
            cvals = basis @ c[space.cell_dofs[cell]]
            uvals = basis @ un[space.cell_dofs[cell]]
            if scheme == "implicit":
                fv = drift.value(cvals)
            else:
                fv = drift.potential_quotient(cvals, uvals)
            for l, dof in enumerate(space.cell_dofs[cell]):
                b[dof] += hx * np.dot(ws, fv * basis[:, l])
        return b

    def residual(c):
        return (
            (M + tau * tau * K) @ c
            - tau * tau * drift_load(c)
            - M @ (un + tau * vn)
            - tau * dW * noise
        )

    sol = scipy.optimize.root(residual, un + tau * vn, tol=1e-13)
    assert sol.success
    assert np.abs(u1 - sol.x).max() < 1e-9


def test_step_rejects_nonfinite_increment():
    space = _space(4)
    cfg = SchemeConfig(tau=0.01, n_steps=1)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    with pytest.raises(ValueError):
        one_step(stepper, st, np.nan)


def test_newton_divergence_reports_step_and_history(monkeypatch):
    # a step that needs several iterations, capped at one
    monkeypatch.setattr(stochwave.stepper, "NEWTON_MAX_ITER", 1)
    space = _space(8)
    cfg = SchemeConfig(tau=0.5, n_steps=1, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.zero(), cfg)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    st[0][:] *= 3.0
    exc = stepper.run([_zeros_path(0.5, 1)], st).failures[0]
    assert isinstance(exc, NewtonDivergedError)
    assert exc.step == 0
    assert len(exc.residual_history) > 1


def test_nonfinite_residual_raises_at_once():
    # cubing 1e200 overflows: the predictor's residual is not finite
    space = _space(8)
    cfg = SchemeConfig(tau=0.01, n_steps=1)
    stepper = WaveStepper(space, CUBIC, Diffusion.zero(), cfg)
    st = initial_state(space, Constant(1e200), Constant(0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NewtonDivergedError) as exc_info:
            one_step(stepper, st, 0.0)
    assert len(exc_info.value.residual_history) == 1
    assert not np.isfinite(exc_info.value.residual_history[0])


def _full_newton_step(space, drift, g, cfg, state, dW):
    """Reference step: Newton with a freshly assembled Jacobian every iteration.

    Same predictor and stopping rule as the stepper, but no frozen Jacobian.
    """
    tau = cfg.tau
    M, K = space.mass, space.stiffness
    A = M + tau * tau * K
    un, vn = state
    unq = space.values_at_qpoints(un)
    rhs = M @ (un + tau * vn) + tau * dW * pointwise_load(space, g.value, un)
    if cfg.scheme == "implicit":
        f = drift.value
        df = drift.derivative
    else:
        f = lambda c: drift.potential_quotient(c, unq)  # noqa: E731
        df = lambda c: drift.potential_quotient_da(c, unq)  # noqa: E731

    def residual(c):
        load = pointwise_load(space, f, c)
        return A @ c - tau * tau * load - rhs

    c = un + tau * vn
    r = residual(c)
    tol = max(cfg.newton_abs_tol, NEWTON_REL_TOL * np.abs(r).max())
    for _ in range(NEWTON_MAX_ITER):
        if np.abs(r).max() <= tol:
            return c
        cq = space.values_at_qpoints(c)
        J = A - tau * tau * assemble_weighted_mass(space, df(cq))
        c = c - spla.spsolve(J.tocsc(), r)
        r = residual(c)
    raise AssertionError("reference Newton did not converge")


def _count_assemblies(monkeypatch):
    """The list that every Jacobian assembly (full Newton only) appends to."""
    assemblies = []

    def counted(space, weights):
        assemblies.append(1)
        return assemble_weighted_mass(space, weights)

    monkeypatch.setattr(stochwave.stepper, "assemble_weighted_mass", counted)
    return assemblies


@pytest.mark.parametrize("scheme", ["mcn", "implicit"])
@pytest.mark.parametrize("drift", [CUBIC, DEG11], ids=["cubic", "deg11"])
@pytest.mark.parametrize(
    "tau, amplitude, fallback", [(1e-3, 1.0, False), (0.1, 1.0, False), (0.5, 3.0, True)]
)
def test_chord_step_matches_full_newton(monkeypatch, scheme, drift, tau, amplitude, fallback):
    space = _space(16, drift)
    g = Diffusion.linear(1.0)
    cfg = SchemeConfig(tau=tau, n_steps=1, scheme=scheme)
    stepper = WaveStepper(space, drift, g, cfg)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.5))
    st[0][:] *= amplitude
    dW = 0.3 * np.sqrt(tau)
    assemblies = _count_assemblies(monkeypatch)
    u1, _ = one_step(stepper, st, dW)
    ref = _full_newton_step(space, drift, g, cfg, st, dW)
    assert np.abs(u1 - ref).max() <= 1e-9 * np.abs(ref).max()
    # the Newton fallback is the only path that assembles a Jacobian
    assert bool(assemblies) == fallback


# ---------------------------------------------------------------------------
# Batches: a sample's numbers do not depend on the samples stepped with it
# ---------------------------------------------------------------------------

SERIES = ("l2sq", "h1sq", "dtl2sq", "hamiltonians", "energy_residuals", "newton_iters")


def _assert_batch_matches_alone(stepper, paths, init):
    """Every finished sample of the batch equals its own run, bit for bit."""
    batch, nodes = observed_nodes(stepper, paths, init)
    for row, k in enumerate(batch.samples):
        alone, U, V = run_states(stepper, paths[k], init)
        for name in SERIES:
            assert np.array_equal(getattr(batch, name)[row], getattr(alone, name)[0]), name
        for n, (live, Ub, Vb) in enumerate(nodes):
            col = list(live).index(k)
            assert np.array_equal(Ub[:, col], U[n]) and np.array_equal(Vb[:, col], V[n])
    return batch


@pytest.mark.parametrize(
    "dimension, scheme, tau",
    [(1, "mcn", 0.01), (2, "mcn", 0.01), (1, "implicit", 0.01)],
    ids=["mcn-1d", "p1-2d", "implicit-1d"],
)
def test_sample_alone_equals_sample_in_batch(dimension, scheme, tau):
    if dimension == 1:
        space = _space(32)
        h1 = CosineProduct(kx=1)
    else:
        space = FeSpace(build_unit_square_tri_mesh(8), 1, quadrature_degree_for(1, CUBIC))
        h1 = CosineProduct(kx=1, ky=2)
    cfg = SchemeConfig(tau=tau, n_steps=10, scheme=scheme, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, h1, Constant(0.5))
    paths = [sample_path(11, k, 10, tau) for k in range(6)]
    batch = _assert_batch_matches_alone(stepper, paths, init)
    assert list(batch.samples) == list(range(6)) and not batch.failures
    assert batch.l2sq.shape == (6, 11) and batch.newton_iters.shape == (6, 10)


def test_batch_with_partial_newton_fallback_equals_samples_alone(monkeypatch):
    # degree-11 drift at a large step: some samples reject a frozen correction
    # and finish their step with full Newton, the others stay on the chord
    space = _space(16, DEG11)
    cfg = SchemeConfig(tau=0.2, n_steps=4, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, DEG11, Diffusion.linear(1.0), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.5))
    paths = [sample_path(11, k, 4, 0.2) for k in range(6)]
    assemblies = _count_assemblies(monkeypatch)
    fallback = []
    for path in paths:
        del assemblies[:]
        stepper.run([path], init)
        fallback.append(bool(assemblies))
    assert any(fallback) and not all(fallback)
    _assert_batch_matches_alone(stepper, paths, init)


@pytest.mark.parametrize("error", [NewtonDivergedError, LinearSolveError])
def test_failed_sample_is_dropped_and_leaves_batch_intact(monkeypatch, error):
    space = _space(8)
    cfg = SchemeConfig(tau=0.02, n_steps=10, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    paths = [sample_path(6, k, 10, 0.02) for k in range(5)]
    inc = paths[2].increments.copy()
    if error is NewtonDivergedError:
        inc[3] = 1e200  # the cubic drift overflows
    else:
        # the frozen correction is rejected, and full Newton meets a Jacobian
        # that is made indefinite here
        inc[3] = 1e3
        monkeypatch.setattr(
            stochwave.stepper, "assemble_weighted_mass", lambda space, w: 1e30 * space.mass
        )
    paths[2] = BrownianPath(0.02, inc)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = _assert_batch_matches_alone(stepper, paths, init)
        with pytest.raises(error):
            run_states(stepper, paths[2], init)
    assert list(batch.samples) == [0, 1, 3, 4]
    assert list(batch.failures) == [2] and isinstance(batch.failures[2], error)
    clean = stepper.run(paths[:2] + paths[3:], init)
    for name in SERIES:
        assert np.array_equal(getattr(batch, name), getattr(clean, name)), name


# ---------------------------------------------------------------------------
# Runs: each (member, sample) pair of a direct-sum march is its own march
# ---------------------------------------------------------------------------

def _assert_runs_match_own_marches(members, drift, g, cfg, paths, h1, h2=Constant(0.5)):
    """Every finished run of the march on the direct sum of the members equals
    its member's own march of the same paths, bit for bit, in its series and
    in every node the observer shows; returns the march."""
    space, S = DirectSum(members), len(paths)
    march, nodes = observed_nodes(
        WaveStepper(space, drift, g, cfg), paths, initial_state(space, h1, h2)
    )
    runs = len(members) * S
    assert march.newton_iters.shape == (runs - len(march.failures), cfg.n_steps)
    assert sorted(march.samples.tolist() + list(march.failures)) == list(range(runs))
    for m, member in enumerate(members):
        alone, alone_nodes = observed_nodes(
            WaveStepper(member, drift, g, cfg), paths, initial_state(member, h1, h2)
        )
        a, b = space.offsets[m], space.offsets[m + 1]
        for row, j in enumerate(march.samples):
            if j // S != m:
                continue
            (at,) = np.flatnonzero(alone.samples == j % S)
            for name in SERIES:
                assert np.array_equal(getattr(march, name)[row], getattr(alone, name)[at]), name
            for (live, U, V), (alone_live, Ua, Va) in zip(nodes, alone_nodes):
                col, alone_col = list(live).index(j % S), list(alone_live).index(j % S)
                assert np.array_equal(U[a:b, col], Ua[:, alone_col])
                assert np.array_equal(V[a:b, col], Va[:, alone_col])
    return march


def test_runs_of_a_direct_sum_equal_their_own_marches():
    # level 8, step 0: path 0 (seed 3) meets the tolerance below the polish
    # threshold after two corrections, path 1 (seed 0) above it and takes
    # the polish (see POLISH_CASES), so the block holds runs that skip and
    # runs that take it
    members = [_space(l) for l in (4, 8, 16, 32)]
    cfg = SchemeConfig(tau=0.01, n_steps=12)
    paths = [sample_path(3, 0, 12, 0.01), sample_path(0, 0, 12, 0.01), sample_path(11, 2, 12, 0.01)]
    march = _assert_runs_match_own_marches(
        members, CUBIC, Diffusion.linear(1.0), cfg, paths, CosineProduct(kx=1)
    )
    assert march.samples.tolist() == list(range(12)) and not march.failures
    assert march.newton_iters.shape == (12, 12)  # one row per run, member-major
    assert march.newton_iters[3:5, 0].tolist() == [2, 3]  # level 8: skipped, taken


def _one_fallback_case():
    # degree-11 drift at tau = 0.2 on levels 4 and 8: of the 12 runs only
    # level 4's run of sample 4 rejects a frozen correction, at one step
    members = [_space(l, DEG11) for l in (4, 8)]
    cfg = SchemeConfig(tau=0.2, n_steps=4, newton_abs_tol=1e-13)
    paths = [sample_path(11, k, 4, 0.2) for k in range(6)]
    return members, cfg, paths


def test_a_chord_rejection_runs_full_newton_on_its_run_only(monkeypatch):
    members, cfg, paths = _one_fallback_case()
    assembled = []

    def counted(space, weights):
        assembled.append(space.n_dofs)
        return assemble_weighted_mass(space, weights)

    monkeypatch.setattr(stochwave.stepper, "assemble_weighted_mass", counted)
    fallback = []
    for member in members:
        stepper = WaveStepper(member, DEG11, Diffusion.linear(1.0), cfg)
        init = initial_state(member, CosineProduct(kx=1), Constant(0.5))
        for path in paths:
            del assembled[:]
            stepper.run([path], init)
            fallback.append(len(assembled))
    assert [j for j, n in enumerate(fallback) if n] == [4]  # level 4, sample 4
    del assembled[:]
    march = _assert_runs_match_own_marches(
        members, DEG11, Diffusion.linear(1.0), cfg, paths, CosineProduct(kx=1)
    )
    # the march's full Newton is the level-4 run's, on its own space, as is
    # that of the level-4 march alone that follows it
    assert assembled == [members[0].n_dofs] * (2 * fallback[4])
    assert not march.failures


def test_a_failed_run_drops_its_column_and_leaves_the_others_intact(monkeypatch):
    # full Newton meets a Jacobian made indefinite here, so the one run that
    # falls back fails: its column ends, the level-8 run of sample 4 with it
    members, cfg, paths = _one_fallback_case()
    monkeypatch.setattr(
        stochwave.stepper, "assemble_weighted_mass", lambda space, w: 1e30 * space.mass
    )
    march = _assert_runs_match_own_marches(
        members, DEG11, Diffusion.linear(1.0), cfg, paths, CosineProduct(kx=1)
    )
    assert list(march.failures) == [4, 10]
    assert isinstance(march.failures[4], LinearSolveError)
    assert march.failures[10] is march.failures[4]
    clean = WaveStepper(DirectSum(members), DEG11, Diffusion.linear(1.0), cfg).run(
        paths[:4] + paths[5:], initial_state(DirectSum(members), CosineProduct(kx=1), Constant(0.5))
    )
    for name in SERIES:
        assert np.array_equal(getattr(march, name), getattr(clean, name)), name


def test_a_failed_sample_drops_its_column_from_every_member():
    members = [_space(l) for l in (4, 8, 16)]
    cfg = SchemeConfig(tau=0.02, n_steps=10, newton_abs_tol=1e-13)
    paths = [sample_path(6, k, 10, 0.02) for k in range(4)]
    inc = paths[2].increments.copy()
    inc[3] = 1e200  # the cubic drift overflows on every level
    paths[2] = BrownianPath(0.02, inc)
    with np.errstate(over="ignore", invalid="ignore"):
        march = _assert_runs_match_own_marches(
            members, CUBIC, Diffusion.linear(1.0), cfg, paths, CosineProduct(kx=1), Constant(0.0)
        )
    assert sorted(march.failures) == [2, 6, 10]
    assert all(isinstance(e, NewtonDivergedError) and e.step == 3 for e in march.failures.values())
    assert march.samples.tolist() == [0, 1, 3, 4, 5, 7, 8, 9, 11]


@pytest.mark.parametrize("case", ["1d-p2", "2d-p1"])
def test_runs_of_a_non_tridiagonal_direct_sum_equal_their_own_marches(monkeypatch, case):
    # SuperLU's ordering of the whole block-diagonal Jacobian would mix the
    # members' arithmetic: each member's own factor solves its rows
    if case == "1d-p2":
        members = [_space(l, degree=2) for l in (4, 8, 16)]
        h1 = CosineProduct(kx=1)
    else:
        q = quadrature_degree_for(1, CUBIC)
        members = [FeSpace(build_unit_square_tri_mesh(l), 1, q) for l in (2, 4, 8)]
        h1 = CosineProduct(kx=1, ky=2)
    factored = []
    superlu = stochwave.linsolve._superlu_solver

    def counted(A):
        factored.append(A.shape[0])
        return superlu(A)

    monkeypatch.setattr(stochwave.linsolve, "_superlu_solver", counted)
    cfg = SchemeConfig(tau=0.01, n_steps=8, newton_abs_tol=1e-13)
    paths = [sample_path(11, k, 8, 0.01) for k in range(3)]
    march = _assert_runs_match_own_marches(members, CUBIC, Diffusion.linear(1.0), cfg, paths, h1)
    assert march.newton_iters.shape == (9, 8) and not march.failures
    sizes = [m.n_dofs for m in members]
    assert factored[: len(sizes)] == sizes  # the march's frozen Jacobian, block by block


def _fix_window(monkeypatch, length):
    """Make every march book its energy series in windows of ``length`` steps."""

    class Fixed(stochwave.stepper._Ledger):
        def __init__(self, *args):
            super().__init__(*args)
            self.window = length

    monkeypatch.setattr(stochwave.stepper, "_Ledger", Fixed)


def _record_windows(monkeypatch):
    """The list that every march appends its ledger's window length to."""
    windows = []

    class Recorded(stochwave.stepper._Ledger):
        def __init__(self, *args):
            super().__init__(*args)
            windows.append(self.window)

    monkeypatch.setattr(stochwave.stepper, "_Ledger", Recorded)
    return windows


@pytest.mark.parametrize("dimension", [1, 2], ids=["mcn-cubic-1d", "p1-2d"])
def test_series_do_not_depend_on_the_window(monkeypatch, dimension):
    if dimension == 1:
        space, h1 = _space(32), CosineProduct(kx=1)
    else:
        space = FeSpace(build_unit_square_tri_mesh(4), 1, quadrature_degree_for(1, CUBIC))
        h1 = CosineProduct(kx=1, ky=2)
    N = 40
    cfg = SchemeConfig(tau=0.01, n_steps=N, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, h1, Constant(0.5))
    paths = [sample_path(11, k, N, 0.01) for k in range(3)]
    windows = _record_windows(monkeypatch)
    ref, ref_nodes = observed_nodes(stepper, paths, init)
    assert 1 < windows[0] < N  # the default window flushes inside the run
    for length in (1, N, N + 7):
        _fix_window(monkeypatch, length)
        traj, nodes = observed_nodes(stepper, paths, init)
        for name in SERIES:
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), (length, name)
        for got, want in zip(nodes, ref_nodes, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("length", [1, 4, None], ids=["window-1", "window-4", "default"])
def test_failure_inside_a_window_leaves_the_others_intact(monkeypatch, length):
    space = _space(8)
    cfg = SchemeConfig(tau=0.02, n_steps=12, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    paths = [sample_path(6, k, 12, 0.02) for k in range(5)]
    clean = stepper.run(paths[:2] + paths[3:], init)
    inc = paths[2].increments.copy()
    inc[5] = 1e200  # fails at step 5, the second step of the second 4-step window
    paths[2] = BrownianPath(0.02, inc)
    if length is not None:
        _fix_window(monkeypatch, length)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = _assert_batch_matches_alone(stepper, paths, init)
    assert list(batch.samples) == [0, 1, 3, 4] and list(batch.failures) == [2]
    assert batch.failures[2].step == 5
    for name in SERIES:
        assert np.array_equal(getattr(batch, name), getattr(clean, name)), name


@pytest.mark.parametrize("length", [1, None, 40, 47], ids=["window-1", "default", "N", "N+7"])
def test_observer_sees_every_node_once_in_order(monkeypatch, length):
    # sample 2 fails at step 13, inside the default window's second flush
    space, N = _space(32), 40
    cfg = SchemeConfig(tau=0.01, n_steps=N, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.5))
    paths = [sample_path(11, k, N, 0.01) for k in range(5)]
    inc = paths[2].increments.copy()
    inc[13] = 1e200
    paths[2] = BrownianPath(0.01, inc)

    def record():
        calls = []
        observe = lambda n0, live, U, V: calls.append((n0, live.copy(), U.copy(), V.copy()))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = stepper.run(paths, init, observe=observe)
        assert list(traj.failures) == [2] and traj.failures[2].step == 13
        return calls

    windows = _record_windows(monkeypatch)
    if length is not None:
        _fix_window(monkeypatch, length)
    calls = record()
    if length is None:
        assert 1 < windows[0] < 13  # the failure falls inside a later window
    _fix_window(monkeypatch, 1)
    ref = record()
    # node 0 alone, then one call per flush, with k nodes shown after n0
    assert calls[0][0] == 0 and len(calls[0][2]) == 1
    assert [n0 for n0, *_ in calls] == list(np.cumsum([0] + [len(U) for _, _, U, _ in calls[:-1]]))
    assert sum(len(U) for _, _, U, _ in calls) == N + 1
    # the flush before the drop shows the pre-drop live set, up to node 13
    for n0, live, U, V in calls:
        last = n0 + len(U) - 1
        assert list(live) == ([0, 1, 2, 3, 4] if last <= 13 else [0, 1, 3, 4])
        assert n0 > 13 or last <= 13
        assert U.shape == V.shape == (len(U), live.size, space.n_dofs)
    # every node carries the bits of the one-node-window run
    assert len(ref) == N + 1
    for n0, live, U, V in calls:
        for i in range(len(U)):
            m, ref_live, ref_U, ref_V = ref[n0 + i]
            assert m == n0 + i and np.array_equal(live, ref_live)
            assert np.array_equal(U[i], ref_U[0]) and np.array_equal(V[i], ref_V[0])


def test_windows_agree_across_a_drop_and_keep_only_live_rows(monkeypatch):
    # sample 1 fails at step 30, inside the second default window and the
    # first N-step one
    space, N, F = _space(16), 40, 30
    n = space.n_dofs
    cfg = SchemeConfig(tau=0.01, n_steps=N, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.5))
    paths = [sample_path(11, k, N, 0.01) for k in range(4)]
    clean = stepper.run(paths[:1] + paths[2:], init)
    inc = paths[1].increments.copy()
    inc[F] = 1e200
    paths[1] = BrownianPath(0.01, inc)
    kept = []

    class Checked(stochwave.stepper._Ledger):
        def drop(self, keep):
            super().drop(keep)
            last = tuple(x.copy() for x in self.last)
            kept.append((self.n0, self.live.copy(), last, self.window))

    runs = []
    for length in (1, None, N):
        monkeypatch.setattr(stochwave.stepper, "_Ledger", Checked)
        if length is not None:
            _fix_window(monkeypatch, length)
        with np.errstate(over="ignore", invalid="ignore"):
            traj, nodes = observed_nodes(stepper, paths, init)
        assert list(traj.failures) == [1] and traj.failures[1].step == F
        ((n0, live, last, window),) = kept[len(runs) :]
        # the last node's v, M v and K u after the drop, of the live samples only
        assert n0 == F and list(live) == [0, 2, 3]
        assert [x.shape for x in last] == [(n, 3)] * 3
        _, U, V = nodes[F]
        cols = [0, 2, 3]
        assert np.array_equal(last[0], V[:, cols])
        assert np.array_equal(last[1], stepper.mass_product(V[:, cols]))
        assert np.array_equal(last[2], stepper.W(U[:, cols])[2 * n : 3 * n])
        runs.append((traj, nodes, window))
    default = runs[1][2]
    assert [w for *_, w in runs] == [1, default, N] and 1 < default < F and F % default
    (ref, ref_nodes, _), *others = runs
    for traj, nodes, _ in others:
        for name in SERIES:
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
        for got, want in zip(nodes, ref_nodes, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for name in SERIES:  # nothing of the dropped sample reaches the others
        assert np.array_equal(getattr(ref, name), getattr(clean, name)), name


@pytest.mark.parametrize("length", [1, None, 40], ids=["window-1", "default", "N"])
def test_ledger_matches_plain_sums_over_the_observed_nodes(monkeypatch, length):
    # a noisy cubic run of two samples, the second dropped at step 35: the
    # survivor's series equal plain sums over the nodes the observer showed,
    # to 1e-12 of each norm and of max |H| for the energy residuals
    space, N, F = _space(32), 40, 35
    cfg = SchemeConfig(tau=0.01, n_steps=N, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.5))
    paths = [sample_path(11, k, N, 0.01) for k in range(2)]
    inc = paths[1].increments.copy()
    inc[F] = 1e200
    paths[1] = BrownianPath(0.01, inc)
    windows = _record_windows(monkeypatch)
    if length is not None:
        _fix_window(monkeypatch, length)
    with np.errstate(over="ignore", invalid="ignore"):
        traj, nodes = observed_nodes(stepper, paths, init)
    assert list(traj.samples) == [0] and list(traj.failures) == [1]
    assert 1 < windows[0] < F  # the default window, set before any fixed one
    U = np.array([u[:, list(live).index(0)] for live, u, _ in nodes])
    V = np.array([v[:, list(live).index(0)] for live, _, v in nodes])
    l2, h1, dt, H, resid = energy_series(stepper, paths[0].increments, U, V)
    for got, want in zip((traj.l2sq, traj.h1sq, traj.dtl2sq, traj.hamiltonians), (l2, h1, dt, H)):
        assert np.abs(got[0] - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(traj.energy_residuals[0] - resid).max() <= 1e-12 * np.abs(H).max()


def test_float_tests_on_an_exact_jacobian(monkeypatch):
    # f = -u makes J0 exact.  From a constant displacement at rest the
    # predictor of a path whose first increment is tau meets the tolerance
    # as it stands, and two 1e200 increments make another path's residual
    # overflow at its predictor.
    drift = PolynomialDrift([-1.0], alpha=0.0, lam=1.0)
    space, tau, N = _space(8, drift), 0.02, 10
    cfg = SchemeConfig(tau=tau, n_steps=N, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, drift, Diffusion.linear(1.0), cfg)
    init = initial_state(space, Constant(1.0), Constant(0.0))
    paths = [sample_path(4, k, N, tau) for k in range(4)]
    inc = paths[1].increments.copy()
    inc[0] = tau
    paths[1] = BrownianPath(tau, inc)
    inc = paths[2].increments.copy()
    inc[3:5] = 1e200
    paths[2] = BrownianPath(tau, inc)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = _assert_batch_matches_alone(stepper, paths, init)
        with pytest.raises(NewtonDivergedError) as exc_info:
            run_states(stepper, paths[2], init)
    assert list(batch.samples) == [0, 1, 3] and list(batch.failures) == [2]
    exc = batch.failures[2]
    assert isinstance(exc, NewtonDivergedError) and exc.step == 4
    assert len(exc.residual_history) == 1 and not np.isfinite(exc.residual_history[0])
    assert exc_info.value.step == 4
    assert batch.newton_iters[1, 0] == 0  # met the tolerance at the predictor
    assert batch.newton_iters[0, 0] == batch.newton_iters[2, 0] == 1
    clean = stepper.run(paths[:2] + paths[3:], init)
    for name in SERIES:
        assert np.array_equal(getattr(batch, name), getattr(clean, name)), name


class _Plain:
    """A product object that applies its matrix with a plain ``@`` and counts."""

    def __init__(self, product, calls, name):
        self.matrix, self.calls, self.name = product.matrix, calls, name
        self.shape = self.matrix.shape

    def __call__(self, x):
        self.calls[self.name] += 1
        return self.matrix @ x


def _plain_products(stepper):
    """Put a counting plain-``@`` wrapper behind every product object the
    stepper holds, and behind its space's Q; returns the call counts."""
    names = ("W", "mass_product", "load_product", "ledger_sums")
    calls = dict.fromkeys(names + ("qpoint_product",), 0)
    for name in names:
        setattr(stepper, name, _Plain(getattr(stepper, name), calls, name))
    space = stepper.space
    space.qpoint_product = _Plain(space.qpoint_product, calls, "qpoint_product")
    return calls


def _products_per_step(monkeypatch, stepper, paths, init):
    """The run's trajectory and, per step, the products it made, its drift
    evaluations ("drift") and the max-norms of the residuals it computed
    ("norms", one list per residual): with one-step windows the observer
    sees each node as soon as it is booked."""
    _fix_window(monkeypatch, 1)
    calls = _plain_products(stepper)
    calls["drift"], norms = 0, []
    drift_values, residual = stepper._drift_values, stepper._residual

    def counted(*args):
        calls["drift"] += 1
        return drift_values(*args)

    def logged(*args):
        R, rn = residual(*args)
        norms.append(rn.tolist())
        return R, rn

    stepper._drift_values, stepper._residual = counted, logged
    seen = []
    traj = stepper.run(paths, init, observe=lambda n0, *_: seen.append((dict(calls), len(norms))))
    assert len(seen) == traj.l2sq.shape[-1]
    steps = [
        {**{k: b[k] - a[k] for k in b}, "norms": norms[i:j]}
        for (a, i), (b, j) in zip(seen, seen[1:])
    ]
    return traj, steps


def test_linear_step_applies_the_operators_twice(monkeypatch):
    # the one exact correction's residual and the ledger's M v: the
    # predictor's product is extrapolated from the last two, and the
    # residual's stacked product also yields M c, K c and the quadrature
    # values whose drift load the residual subtracts
    drift = PolynomialDrift([-1.0], alpha=0.0, lam=1.0)
    space = _space(8, drift)
    cfg = SchemeConfig(tau=0.01, n_steps=3)
    stepper = WaveStepper(space, drift, Diffusion.zero(), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    traj, steps = _products_per_step(monkeypatch, stepper, [_zeros_path(0.01, 3)], init)
    assert traj.newton_iters.tolist() == [[1, 1, 1]]
    assert [d["W"] + d["mass_product"] for d in steps] == [2, 2, 2]
    assert [(d["load_product"], d["qpoint_product"]) for d in steps] == [(2, 0)] * 3
    assert [d["ledger_sums"] for d in steps] == [1, 1, 1]


def _tolerance(cfg, r0):
    return max(cfg.newton_abs_tol, NEWTON_REL_TOL * r0)


def test_cubic_common_round_costs_one_stacked_and_one_load_product(monkeypatch):
    # each correction's residual is one stacked product, which carries the
    # quadrature values, and one load of the drift; the predictor's product
    # is extrapolated, so its residual is a load alone; the polish, if due,
    # is one stacked product alone; the step adds the noise load, and the
    # ledger M v and one segment sum
    space = _space(8)
    cfg = SchemeConfig(tau=0.01, n_steps=6)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.5))
    paths = [sample_path(5, k, 6, 0.01) for k in range(2)]
    traj, steps = _products_per_step(monkeypatch, stepper, paths, init)
    assert not traj.failures
    assert np.array_equal(traj.newton_iters[1], traj.newton_iters[0])  # common rounds only
    polished = []
    for it, d in zip(traj.newton_iters[0], steps, strict=True):
        norms = d.pop("norms")
        tol = [_tolerance(cfg, r) for r in norms[0]]
        assert all(x <= t for x, t in zip(norms[-1], tol))
        (polish,) = {POLISH_FRACTION * t < x for x, t in zip(norms[-1], tol)}
        corrections = len(norms) - 1  # every residual but the predictor's
        assert corrections >= 1 and it == corrections + polish
        polished.append(polish)
        assert d == {
            "W": it,
            "mass_product": 1,
            "load_product": 2 + corrections,
            "ledger_sums": 1,
            "qpoint_product": 0,
            "drift": 1 + corrections,
        }
    assert any(polished)


# One sample, one step of the cubic: its chord iterates meet the tolerance
# after two corrections, at about 0.002 tol on path 3 and 0.37 tol on path 0.
POLISH_CASES = {"skips": (3, False), "takes": (0, True)}


def _one_step_cubic():
    space = _space(8)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), SchemeConfig(tau=0.01, n_steps=1))
    return stepper, initial_state(space, CosineProduct(kx=1), Constant(0.5))


@pytest.mark.parametrize("case", POLISH_CASES)
def test_polish_only_when_due(monkeypatch, case):
    seed, takes = POLISH_CASES[case]
    stepper, init = _one_step_cubic()
    traj, (d,) = _products_per_step(monkeypatch, stepper, [sample_path(seed, 0, 1, 0.01)], init)
    (r0,), *_, (r,) = d["norms"]
    tol = _tolerance(stepper.config, r0)
    assert r <= tol and (r > POLISH_FRACTION * tol) == takes
    corrections = len(d["norms"]) - 1
    assert corrections == 2 and traj.newton_iters[0, 0] == corrections + takes
    # the polish is one frozen solve and one stacked product: no drift, no load
    assert d["W"] == corrections + takes
    assert d["drift"] == 1 + corrections and d["load_product"] == 2 + corrections


def test_polish_skip_and_take_in_one_batch_equal_their_runs_alone():
    stepper, init = _one_step_cubic()
    paths = [sample_path(seed, 0, 1, 0.01) for seed, _ in POLISH_CASES.values()]
    batch = _assert_batch_matches_alone(stepper, paths, init)
    assert list(batch.newton_iters[:, 0]) == [2, 3]


def test_iteration_cap_inside_a_parted_batch(monkeypatch):
    # capped at two corrections: path 0 meets the tolerance with its polish
    # still due, path 3 meets it without, and an increment of 1 leaves its
    # column at about 1.7 tol, above it, so the columns part at the cap
    monkeypatch.setattr(stochwave.stepper, "NEWTON_MAX_ITER", 2)
    stepper, init = _one_step_cubic()
    over = BrownianPath(0.01, np.array([1.0]))
    paths = [sample_path(0, 0, 1, 0.01), over, sample_path(3, 0, 1, 0.01)]
    _, (d,) = _products_per_step(monkeypatch, stepper, paths, init)
    norms = d["norms"]  # the predictor's and the two corrections' residuals
    assert d["W"] == 2  # the polish still due at the cap is not taken
    batch = _assert_batch_matches_alone(stepper, paths, init)
    # the column over the tolerance is dropped with its step and history
    assert list(batch.samples) == [0, 2] and list(batch.failures) == [1]
    exc, history = batch.failures[1], [r[1] for r in norms]
    assert isinstance(exc, NewtonDivergedError) and exc.step == 0
    assert exc.residual_history == history
    assert history[-1] > _tolerance(stepper.config, history[0])
    with pytest.raises(NewtonDivergedError) as alone:
        run_states(stepper, over, init)
    assert alone.value.step == 0 and alone.value.residual_history == history
    # a column whose only pending correction at the cap is the polish is done
    for col, due in ((0, True), (2, False)):
        r0, _, r2 = (r[col] for r in norms)
        tol = _tolerance(stepper.config, r0)
        assert r2 <= tol and (r2 > POLISH_FRACTION * tol) == due
    assert list(batch.newton_iters[:, 0]) == [2, 2]


def test_partial_round_with_a_rejection_and_a_polish_due(monkeypatch):
    # At step 2, in the fourth round, sample 25's frozen correction is
    # rejected and it finishes with full Newton.  In the fifth, over samples
    # 13 and 14 alone, 14's is rejected while 13 meets the tolerance with its
    # polish due: one column of a partial block is written back, and 13 then
    # takes its polish alone.
    space = _space(16)
    cfg = SchemeConfig(tau=0.5, n_steps=3, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, CosineProduct(kx=1), Constant(0.5))
    init[0][:] *= 0.5
    paths = [sample_path(11, k, 3, 0.5) for k in (13, 14, 25)]
    traj, steps = _products_per_step(monkeypatch, stepper, paths, init)
    assert traj.newton_iters.tolist() == [[8, 7, 6], [8, 8, 5], [7, 9, 5]]
    norms = steps[2]["norms"]  # predictor, four rounds, Newton, a round, Newton
    assert [len(r) for r in norms] == [3, 3, 3, 3, 3, 1, 1, 2, 1]
    (r0, *_), r4, (x13, x14) = norms[0], norms[4], norms[7]
    tol = _tolerance(cfg, r0)
    assert POLISH_FRACTION * tol < x13 <= tol and x14 > CHORD_CONTRACTION * r4[1]
    _assert_batch_matches_alone(stepper, paths, init)
    # reversed, 13's column is not its position among the round's columns
    _assert_batch_matches_alone(stepper, paths[::-1], init)


@pytest.mark.parametrize("dimension", [1, 2], ids=["mcn-cubic-1d", "p1-2d"])
def test_kernel_products_match_plain_matmul(dimension):
    if dimension == 1:
        space, h1 = _space(16), CosineProduct(kx=1)
    else:
        space = FeSpace(build_unit_square_tri_mesh(4), 1, quadrature_degree_for(1, CUBIC))
        h1 = CosineProduct(kx=1, ky=2)
    cfg = SchemeConfig(tau=0.02, n_steps=15, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    init = initial_state(space, h1, Constant(0.5))
    paths = [sample_path(13, k, 15, 0.02) for k in range(3)]
    ref, ref_nodes = observed_nodes(stepper, paths, init)
    calls = _plain_products(stepper)
    traj, nodes = observed_nodes(stepper, paths, init)
    assert calls["W"] > 0 and calls["load_product"] > 0
    for name in SERIES:
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
    for got, want in zip(nodes, ref_nodes, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def test_linear_wave_tracks_exact_solution():
    exact = LinearWaveSolution(k=1)
    errs = []
    for n in (8, 16, 32):
        space = _space(n, ZERO)
        tau = 1e-4  # small enough that the O(tau) part stays subdominant
        N = 500
        cfg = SchemeConfig(tau=tau, n_steps=N)
        stepper = WaveStepper(space, ZERO, Diffusion.zero(), cfg)
        st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
        _, U, _ = run_states(stepper, _zeros_path(tau, N), st)
        xs = np.linspace(0, 1, 101)[:, None]
        err = np.abs(
            evaluate(space, U[-1], xs) - exact.value(xs[:, 0], tau * N)
        ).max()
        errs.append(err)
    assert errs[2] < errs[1] < errs[0]
    assert errs[1] / errs[2] > 3.0  # near O(h^2)


@pytest.mark.parametrize("scheme", ["mcn", "implicit"])
def test_hamiltonian_nonincreasing_without_noise(scheme):
    space = _space(16)
    cfg = SchemeConfig(tau=0.02, n_steps=50, scheme=scheme)
    stepper = WaveStepper(space, CUBIC, Diffusion.zero(), cfg)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    traj = stepper.run([_zeros_path(0.02, 50)], st)
    assert np.all(np.diff(traj.hamiltonians[0]) <= 1e-10)


def test_hamiltonian_zero_state():
    space = _space(8)
    st = initial_state(space, Constant(0.0), Constant(0.0))
    stepper = WaveStepper(space, CUBIC, Diffusion.zero(), SchemeConfig(tau=0.01, n_steps=3))
    traj = stepper.run([_zeros_path(0.01, 3)], st)
    assert np.abs(traj.hamiltonians).max() == pytest.approx(0.0, abs=1e-14)


def test_hamiltonian_cosine_analytic_value():
    # 0.5 |grad u|^2 + (V(u), 1) for u ~ cos(pi x):
    # pi^2/4 + (1/4 + 3/32) using integrals of cos^2 and cos^4
    space = _space(64)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    stepper = WaveStepper(space, CUBIC, Diffusion.zero(), SchemeConfig(tau=0.01, n_steps=1))
    traj = stepper.run([_zeros_path(0.01, 1)], st)
    H = traj.hamiltonians[0, 0]
    expected = np.pi**2 / 4 + 0.25 + 3.0 / 32.0
    assert H == pytest.approx(expected, rel=0.01)
    # the stepper's H is half the reported norms plus the quadrature potential
    u, v = st
    pot = np.sum(space.wdet * CUBIC.potential(space.values_at_qpoints(u)))
    kinetic, gradient = v @ (space.mass @ v), u @ (space.stiffness @ u)
    assert H == pytest.approx(0.5 * kinetic + 0.5 * gradient + pot, rel=1e-14)
    assert (traj.dtl2sq[0, 0], traj.h1sq[0, 0]) == pytest.approx((kinetic, gradient), rel=1e-14)


def test_hamiltonian_coercivity_lower_bound():
    # validated drift: H >= (alpha/2) ||u||^2 at every node of a noisy run
    space = _space(32)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    cfg = SchemeConfig(tau=0.01, n_steps=20, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    traj = stepper.run([sample_path(5, 0, 20, 0.01)], st)
    assert np.all(traj.hamiltonians >= 0.5 * CUBIC.alpha * traj.l2sq)


@pytest.mark.parametrize("scheme", ["mcn", "implicit"])
def test_pathwise_energy_inequality_with_noise(scheme):
    space = _space(16)
    cfg = SchemeConfig(tau=0.01, n_steps=40, scheme=scheme, newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    for k in range(5):
        traj = stepper.run([sample_path(7, k, 40, 0.01)], st)
        assert traj.max_energy_violation[0] <= 1e-8


def test_modified_cn_energy_identity_tight():
    # the potential part cancels exactly for the quotient discretization
    space = _space(16)
    cfg = SchemeConfig(tau=0.01, n_steps=30, scheme="mcn", newton_abs_tol=1e-13)
    stepper = WaveStepper(space, CUBIC, Diffusion.linear(1.0), cfg)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    traj = stepper.run([sample_path(21, 0, 30, 0.01)], st)
    scale = 1.0 + np.abs(traj.hamiltonians[0, :-1])
    assert np.abs(traj.energy_residuals[0] / scale).max() <= 1e-8


def test_deterministic_runs_seed_independent():
    space = _space(8)
    cfg = SchemeConfig(tau=0.01, n_steps=20)
    stepper = WaveStepper(space, CUBIC, Diffusion.zero(), cfg)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    _, U1, _ = run_states(stepper, sample_path(1, 0, 20, 0.01), st)
    _, U2, _ = run_states(stepper, sample_path(2, 5, 20, 0.01), st)
    assert U1.shape == (21, space.n_dofs)
    assert np.array_equal(U1, U2)


def test_mixed_primal_equivalence():
    # reconstruct the primal two-step residual from the mixed states
    space = _space(8)
    tau = 0.02
    cfg = SchemeConfig(tau=tau, n_steps=10, newton_abs_tol=1e-13)
    drift = CUBIC
    g = Diffusion.linear(1.0)
    stepper = WaveStepper(space, drift, g, cfg)
    st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
    path = sample_path(3, 0, 10, tau)
    _, U, V = run_states(stepper, path, st)
    M = space.mass
    K = space.stiffness
    for n in range(1, cfg.n_steps):
        u_pp = U[n] - tau * V[n]  # u^{n-1} reconstruction
        assert np.abs(u_pp - U[n - 1]).max() < 1e-12
        fvals = pointwise_load(
            space,
            lambda a, b: drift.potential_quotient(a, b),
            U[n + 1],
            U[n],
        )
        gvals = pointwise_load(space, g.value, U[n])
        res = (
            M @ ((U[n + 1] - 2 * U[n] + u_pp) / tau)
            + tau * (K @ U[n + 1])
            - tau * fvals
            - gvals * path.increments[n]
        )
        assert np.abs(res).max() < 1e-9


def test_run_validates_path_shape():
    space = _space(4)
    cfg = SchemeConfig(tau=0.01, n_steps=5)
    stepper = WaveStepper(space, CUBIC, Diffusion.zero(), cfg)
    st = initial_state(space, Constant(0.0), Constant(0.0))
    with pytest.raises(ValueError):
        stepper.run([_zeros_path(0.01, 4)], st)
    with pytest.raises(ValueError):
        stepper.run([_zeros_path(0.02, 5)], st)


def test_run_rejects_an_empty_batch():
    space = _space(4)
    stepper = WaveStepper(space, CUBIC, Diffusion.zero(), SchemeConfig(tau=0.01, n_steps=5))
    st = initial_state(space, Constant(0.0), Constant(0.0))
    with pytest.raises(ValueError, match="at least one path"):
        stepper.run([], st)


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(tau=-1.0, n_steps=5)
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.1, n_steps=0)
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.1, n_steps=5, scheme="leapfrog")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_config_rejects_nonfinite_tau_and_tolerance(value):
    # a NaN tolerance would accept every predictor: max(nan, x) is nan and
    # no residual compares above it
    with pytest.raises(ValueError, match="tau"):
        SchemeConfig(tau=value, n_steps=5)
    with pytest.raises(ValueError, match="newton_abs_tol"):
        SchemeConfig(tau=0.1, n_steps=5, newton_abs_tol=value)
