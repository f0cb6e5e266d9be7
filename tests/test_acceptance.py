"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The expensive Monte Carlo tables are computed once in module-scoped fixtures
and shared by the criteria that inspect them.
"""

import json
import time

import numpy as np
import pytest
import scipy.optimize

from stochwave.diffusion import Diffusion
from stochwave.drift import MODIFIED_CN, PolynomialDrift
from stochwave.ensemble import ProblemSpec, StabilityStudy, run_ensemble
from stochwave.experiments import config_to_dict, preset_config, run_experiment
from stochwave.fem import FeSpace, load_vector, l2_project
from stochwave.fields import Constant, CosineProduct
from stochwave.mesh import build_interval_mesh
from stochwave.metrics import (
    AnalyticStudy,
    RateStudy,
    analytic_error_table,
    convergence_table,
    quadrature_degree_for,
)
from stochwave.noise import coarsen, sample_path
from stochwave.stepper import SchemeConfig, WaveStepper, initial_state
from stepping import one_step

CUBIC = PolynomialDrift([-1.0, 0.0, -1.0], alpha=1.0, lam=0.5)
DEG11 = PolynomialDrift([-1.0] + [0.0] * 9 + [-1.0], alpha=1.0, lam=1.0 / 6.0)
SEED = 20240901
THREADS = 2
SAMPLES = 200

_ENERGY_TOL = 1e-8


def _problem(drift, diffusion, h1=CosineProduct(kx=1), dimension=1, newton_abs_tol=1e-13):
    """The P1 `mcn` problem at the acceptance seed, initial velocity zero."""
    return ProblemSpec(
        dimension=dimension, degree=1, drift=drift, diffusion=diffusion, h1=h1,
        h2=Constant(0.0), master_seed=SEED, scheme=MODIFIED_CN,
        newton_abs_tol=newton_abs_tol,
    )


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table1():
    """Spatial ladder, f = -u - u^3, g = u (rate-table configuration 1)."""
    return _timed(
        lambda: convergence_table(
            _problem(CUBIC, Diffusion.linear(1.0)),
            RateStudy(
                mode="spatial", levels=[4, 8, 16, 32, 64], taus=[1e-3], T=0.01,
                reference_extra_levels=1,
            ),
            n_samples=SAMPLES, threads=THREADS,
        )
    )


@pytest.fixture(scope="module")
def table2():
    """Temporal ladder, f = -u - u^3, g = u (rate-table configuration 2)."""
    return _timed(
        lambda: convergence_table(
            _problem(CUBIC, Diffusion.linear(1.0)),
            RateStudy(
                mode="temporal", levels=[128], taus=[0.1 / 2**k for k in range(6)], T=0.4,
                reference_extra_levels=2,
            ),
            n_samples=SAMPLES, threads=THREADS,
        )
    )


@pytest.fixture(scope="module")
def table6():
    """Temporal ladder with g = sqrt(u^2 + 0.01) (half-order configuration)."""
    return _timed(
        lambda: convergence_table(
            _problem(CUBIC, Diffusion.smoothed_abs(0.01)),
            RateStudy(
                mode="temporal", levels=[128], taus=[0.1 / 2**k for k in range(6)], T=0.4,
                reference_extra_levels=2,
            ),
            n_samples=SAMPLES, threads=THREADS,
        )
    )


@pytest.fixture(scope="module")
def table3():
    """Spatial ladder with the degree-11 drift (robustness configuration)."""
    return _timed(
        lambda: convergence_table(
            _problem(DEG11, Diffusion.linear(1.0)),
            RateStudy(
                mode="spatial", levels=[4, 8, 16, 32, 64], taus=[1e-3], T=0.01,
                reference_extra_levels=1,
            ),
            n_samples=SAMPLES, threads=THREADS,
        )
    )


@pytest.fixture(scope="module")
def stability2d():
    """2D moment-stability ensemble, f = -u - u^3, g = u."""
    return _timed(
        lambda: run_ensemble(
            _problem(CUBIC, Diffusion.linear(1.0), h1=CosineProduct(kx=1, ky=2), dimension=2),
            StabilityStudy(level=8, tau=0.01, T=1.0),  # 100 steps
            SAMPLES, threads=THREADS,
        )
    )


# ---------------------------------------------------------------------------
# Criterion 1: analytic linear check
# ---------------------------------------------------------------------------

def test_criterion_1_analytic_linear_check():
    table, elapsed = _timed(
        # the exact solution is LinearWaveSolution(k=1), read from h1
        lambda: analytic_error_table(
            _problem(PolynomialDrift([0.0]), Diffusion.zero(), newton_abs_tol=1e-11),
            AnalyticStudy(levels=[8, 16, 32, 64], tau=1e-4, T=0.5),
        )
    )
    l2o = table.orders(table.l2)[-1]
    h1o = table.orders(table.h1)[-1]
    ok = l2o >= 1.8 and abs(h1o - 1.0) <= 0.3 and elapsed < 60
    _report(
        "criterion 1",
        ok,
        f"analytic check: L2 order {l2o:.3f} (>= 1.8), "
        f"H1 order {h1o:.3f} (1.0 +- 0.3), runtime {elapsed:.1f}s (< 60s)",
    )


def _finest_orders(table):
    """The L2, H1 and d_t orders of the finest pair."""
    return tuple(table.orders(e)[-1] for e in (table.l2, table.h1, table.dtl2))


# ---------------------------------------------------------------------------
# Criterion 2: spatial rates, cubic drift
# ---------------------------------------------------------------------------

def test_criterion_2_spatial_rates(table1):
    table, elapsed = table1
    got = _finest_orders(table)
    want = (2.005, 1.001, 2.004)
    ok = all(abs(g - w) <= 0.3 for g, w in zip(got, want)) and elapsed < 300
    _report(
        "criterion 2",
        ok,
        f"spatial orders at finest pair {tuple(round(g, 3) for g in got)} "
        f"vs {want} +- 0.3, runtime {elapsed:.0f}s (< 300s)",
    )


# ---------------------------------------------------------------------------
# Criterion 3: temporal rates, cubic drift
# ---------------------------------------------------------------------------

def test_criterion_3_temporal_rates(table2):
    table, elapsed = table2
    got = _finest_orders(table)
    ok = all(0.7 <= g <= 1.3 for g in got) and elapsed < 600
    _report(
        "criterion 3",
        ok,
        f"temporal orders at finest pair {tuple(round(g, 3) for g in got)} "
        f"all in [0.7, 1.3], runtime {elapsed:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# Criterion 4: half-order loss with the smoothed-absolute diffusion
# ---------------------------------------------------------------------------

def test_criterion_4_half_order_loss(table6):
    table, elapsed = table6
    l2o, h1o, dto = _finest_orders(table)
    ok = dto < 0.75 and l2o >= 0.85 and h1o >= 0.85 and elapsed < 600
    _report(
        "criterion 4",
        ok,
        f"smoothed-abs diffusion: d_t order {dto:.3f} (< 0.75 expected), "
        f"L2 {l2o:.3f} / H1 {h1o:.3f} (>= 0.85), runtime {elapsed:.0f}s; "
        "see README, 'Acceptance criterion 4': a reference only two halvings "
        "finer makes the finest pair read log2(7/3) = 1.222 for a true order of 1",
    )


# ---------------------------------------------------------------------------
# Criterion 5: degree-11 drift robustness
# ---------------------------------------------------------------------------

def test_criterion_5_degree11_robustness(table3):
    table, elapsed = table3
    got = _finest_orders(table)
    want = (2.0, 1.0, 2.0)
    ok = (
        table.n_failures == 0
        and all(abs(g - w) <= 0.3 for g, w in zip(got, want))
    )
    _report(
        "criterion 5",
        ok,
        f"degree-11 drift: {table.n_failures} Newton failures, spatial orders "
        f"{tuple(round(g, 3) for g in got)} vs {want} +- 0.3, "
        f"runtime {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 6: pathwise energy inequality
# ---------------------------------------------------------------------------

def test_criterion_6_pathwise_energy(table1, table2, table6, table3):
    worst = max(t.max_energy_violation for t, _ in (table1, table2, table6, table3))

    # zero-noise monotonicity for both drift discretizations
    space = FeSpace(build_interval_mesh(32), 1, quadrature_degree_for(1, CUBIC))
    monotone = True
    from stochwave.noise import BrownianPath

    for scheme in ("mcn", "implicit"):
        cfg = SchemeConfig(tau=0.01, n_steps=100, scheme=scheme, newton_abs_tol=1e-13)
        stepper = WaveStepper(space, CUBIC, Diffusion.zero(), cfg)
        st = initial_state(space, CosineProduct(kx=1), Constant(0.0))
        traj = stepper.run([BrownianPath(0.01, np.zeros(100))], st)
        monotone &= bool(np.all(np.diff(traj.hamiltonians[0]) <= 1e-10))

    ok = worst <= _ENERGY_TOL and monotone
    _report(
        "criterion 6",
        ok,
        f"per-step energy residual max {worst:.2e} <= 1e-8 over every "
        f"sample/step of criteria 2-5; zero-noise energy monotone for both "
        f"discretizations: {monotone}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: higher-moment boundedness (2D)
# ---------------------------------------------------------------------------

def test_criterion_7_moment_boundedness(stability2d):
    stats, elapsed = stability2d
    h2_ratio = stats.mean_H2.max() / stats.mean_H2[1]
    h4_ratio = stats.mean_H4.max() / stats.mean_H4[1]
    finite = bool(
        np.all(np.isfinite(stats.mean_H4))
        and np.all(np.isfinite(stats.max_h1sq))
        and stats.n_failures == 0
    )
    ok = h2_ratio <= 10 and h4_ratio <= 10 and finite
    _report(
        "criterion 7",
        ok,
        f"2D ensemble: max E[H^2] / value at n=1 = {h2_ratio:.3f}, "
        f"max E[H^4] ratio = {h4_ratio:.3f} (<= 10), all samples finite: "
        f"{finite}, runtime {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 8: oracle suite
# ---------------------------------------------------------------------------

def test_criterion_8_oracle_suite():
    t0 = time.perf_counter()
    details = []

    # (a) hand-computed 1D P1 mass/stiffness rows
    space = FeSpace(build_interval_mesh(4), 1)
    M = space.mass.toarray()
    K = space.stiffness.toarray()
    h = 0.25
    a_ok = (
        abs(M[2, 1] - h / 6) < 1e-14
        and abs(M[2, 2] - 2 * h / 3) < 1e-14
        and abs(M[0, 0] - h / 3) < 1e-14
        and abs(K[2, 1] + 1 / h) < 1e-14
        and abs(K[2, 2] - 2 / h) < 1e-14
    )
    details.append(f"(a) assembly rows {'ok' if a_ok else 'BAD'}")

    # (b) drift quotient against the difference quotient, 1e4 random pairs
    rng = np.random.default_rng(0)
    a = rng.uniform(-4, 4, 10_000)
    b = rng.uniform(-4, 4, 10_000)
    keep = np.abs(a - b) > 1e-3
    a, b = a[keep], b[keep]
    q = CUBIC.potential_quotient(a, b)
    oracle = -(CUBIC.potential(a) - CUBIC.potential(b)) / (a - b)
    diag = rng.uniform(-5, 5, 1000)
    b_ok = bool(
        np.allclose(q, oracle, rtol=1e-12, atol=1e-12)
        and np.allclose(
            CUBIC.potential_quotient(diag, diag), CUBIC.value(diag), rtol=1e-12
        )
    )
    details.append(f"(b) drift quotient {'ok' if b_ok else 'BAD'}")

    # (c) coarsening group sums, bitwise
    path = sample_path(SEED, 0, 256, 1e-3)
    coarse = coarsen(path, 4)

    def pairwise(chunk):
        vals = list(chunk)
        while len(vals) > 1:
            vals = [vals[i] + vals[i + 1] for i in range(0, len(vals), 2)]
        return vals[0]

    c_ok = all(
        coarse.increments[k] == pairwise(path.increments[4 * k : 4 * k + 4])
        for k in range(coarse.n_steps)
    )
    details.append(f"(c) coarsen bitwise {'ok' if c_ok else 'BAD'}")

    # (d) one step against a dense brute-force nonlinear solve (h = 1/4)
    drift = PolynomialDrift([-1.0])
    space4 = FeSpace(build_interval_mesh(4), 1, quadrature_degree_for(1, drift))
    tau, dW = 0.05, 0.123
    d_ok = True
    for scheme in ("mcn", "implicit"):
        cfg = SchemeConfig(tau=tau, n_steps=1, scheme=scheme)
        g = Diffusion.linear(1.0)
        stepper = WaveStepper(space4, drift, g, cfg)
        st = initial_state(space4, CosineProduct(kx=1), Constant(0.0))
        u1, _ = one_step(stepper, st, dW)
        Md = space4.mass.toarray()
        Kd = space4.stiffness.toarray()
        un, vn = st
        # f = -u: the implicit load is -c, the quotient load is -(c + un)/2
        w_new, w_old = (-0.5, -0.5) if scheme == "mcn" else (-1.0, 0.0)

        def residual(c):
            fload = Md @ (w_new * c + w_old * un)
            return (
                (Md + tau * tau * Kd) @ c
                - tau * tau * fload
                - Md @ (un + tau * vn)
                - tau * dW * (Md @ un)
            )

        sol = scipy.optimize.root(residual, un + tau * vn, tol=1e-12)
        d_ok &= bool(sol.success and np.abs(u1 - sol.x).max() < 1e-9)
    details.append(f"(d) dense step oracle {'ok' if d_ok else 'BAD'}")

    # (e) projection residual orthogonality
    space16 = FeSpace(build_interval_mesh(16), 1, quad_degree=24)
    field = lambda x: np.cos(np.pi * x)
    u = l2_project(space16, field)
    resid = load_vector(space16, field) - space16.mass @ u
    e_ok = bool(np.abs(resid).max() < 1e-10)
    details.append(f"(e) projection orthogonality {'ok' if e_ok else 'BAD'}")

    elapsed = time.perf_counter() - t0
    ok = a_ok and b_ok and c_ok and d_ok and e_ok and elapsed < 30
    _report(
        "criterion 8",
        ok,
        "; ".join(details) + f"; runtime {elapsed:.1f}s (< 30s)",
    )


# ---------------------------------------------------------------------------
# Criterion 9: determinism across worker counts
# ---------------------------------------------------------------------------

def test_criterion_9_thread_determinism(tmp_path):
    outputs = {}
    for threads in (1, 2):
        cfg = preset_config("test1a")
        cfg.n_samples = 8  # documented --samples override, desk-scale ladders
        cfg.threads = threads
        out = tmp_path / f"t{threads}"
        run_experiment(cfg, out)
        outputs[threads] = {
            f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))
        }
    same = outputs[1] == outputs[2]

    # stability preset too (different aggregation path)
    stab = {}
    for threads in (1, 2):
        cfg = preset_config("test3a")
        cfg.n_samples = 6
        cfg.threads = threads
        cfg.studies[0].T = 0.1
        out = tmp_path / f"s{threads}"
        run_experiment(cfg, out)
        stab[threads] = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
    same_stab = stab[1] == stab[2]

    ok = same and same_stab and len(outputs[1]) == 2 and len(stab[1]) == 2
    _report(
        "criterion 9",
        ok,
        f"CSV bytes identical across worker counts: rate preset {same}, "
        f"stability preset {same_stab}",
    )
