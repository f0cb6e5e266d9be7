"""Error norms against coupled fine references and convergence-rate tables.

The reference protocol: no closed-form solution exists for the nonlinear
stochastic problem, so each sample is rerun on a reference discretization a
few refinement levels beyond the finest table row, driven by the same
Brownian path (exact coarsening keeps the coupling).  Errors are measured on
the reference space; rates, not absolute magnitudes, are the reproducible
quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ensemble import (
    ProblemSpec,
    SampleRecord,
    ladder_problems,
    map_samples,
    quadrature_degree_for,
    tree_sum,
)
from .fem import CsrProduct, FeSpace, direct_sum, transfer_matrix
from .fields import Constant, CosineProduct, LinearWaveSolution
from .noise import BrownianPath, coarsen, sample_path
from .stepper import WaveStepper, column_sums, initial_state

__all__ = [
    "RateStudy",
    "AnalyticStudy",
    "ErrorTable",
    "sup_rms",
    "convergence_table",
    "analytic_problems",
    "analytic_error_table",
    "quadrature_degree_for",
]


# ---------------------------------------------------------------------------
# Per-node error norms
# ---------------------------------------------------------------------------

def _error_sq(
    E: CsrProduct | None,
    Uc: np.ndarray,
    Vc: np.ndarray,
    Ur: np.ndarray,
    Vr: np.ndarray,
    MK: CsrProduct,
    M: CsrProduct,
) -> np.ndarray:
    """Squared (L2, H1-seminorm, velocity L2) errors, one triple per column.

    The columns of the coarse blocks Uc, Vc are lifted to the reference space
    by E (None when the spaces coincide) and compared with the matching
    columns of Ur, Vr.  MK is the stacked [M; K] of the reference space and
    M its mass.  Returns shape (3, n_columns).  The velocity error is
    each solution's own difference quotient compared at a shared node.  With
    equal time steps this is identical to differencing the displacement
    error at consecutive nodes; across step sizes it avoids the
    Brownian-bridge mismatch that a cross-step difference quotient would
    inject at every node.
    """
    if E is not None:
        Uc, Vc = E(Uc), E(Vc)
    eu, ev = Uc - Ur, Vc - Vr
    n = eu.shape[0]
    MKeu = MK(eu)
    return column_sums(np.stack([eu * MKeu[:n], eu * MKeu[n:], ev * M(ev)], axis=1))


def _error_products(space: FeSpace) -> tuple[CsrProduct, CsrProduct]:
    """The stacked [M; K] and M products that `_error_sq` measures with."""
    M = space.mass
    return CsrProduct(sp.vstack([M, space.stiffness], format="csr")), CsrProduct(M)


def sup_rms(squared: np.ndarray) -> float:
    """sup over nodes of the root mean square over samples.

    ``squared`` holds per-sample per-node squared error norms, shape
    (n_samples, n_nodes), summed over samples in `tree_sum` order.
    """
    return float(np.sqrt(np.max(tree_sum(squared) / squared.shape[0])))


# ---------------------------------------------------------------------------
# Rate tables
# ---------------------------------------------------------------------------

@dataclass
class RateStudy:
    """A halving ladder: mesh ``levels`` at the single tau in ``taus``
    (spatial), or the ``taus`` on the single mesh level (temporal), against a
    reference ``reference_extra_levels`` refinements or halvings finer."""

    mode: str  # "spatial" | "temporal"
    levels: list[int]
    taus: list[float]
    T: float
    reference_extra_levels: int = 1
    label: str = "rates"


@dataclass
class AnalyticStudy:
    """Spatial rates against the closed-form solution of the linear problem."""

    levels: list[int]
    tau: float
    T: float
    label: str = "analytic_rates"


@dataclass
class ErrorTable:
    """Rows of (refinement parameter, three errors) plus observed orders."""

    mode: str  # "spatial" | "temporal"
    params: np.ndarray  # h (spatial) or tau (temporal) per row
    l2: np.ndarray
    h1: np.ndarray
    dtl2: np.ndarray
    n_samples: int
    reference: str
    max_energy_violation: float
    n_failures: int

    def orders(self, errors: np.ndarray) -> list[float | None]:
        out: list[float | None] = [None]
        for prev, curr in zip(errors[:-1], errors[1:]):
            out.append(float(np.log2(prev / curr)))
        return out


def _rate_batch(task: tuple[tuple, range]) -> list[SampleRecord]:
    """Per-sample squared error series for every table row (one sample block).

    The payload is the problem and the (level, scheme config) pairs of the
    reference and the rows.  The block steps the reference first and keeps
    the nodes some row reads.  The rows that share a scheme config (a
    spatial ladder's) then step the samples still running as one march on
    the direct sum of their spaces, and each temporal row as a march of its
    own; every row reduces its errors to per-node norms as it goes, so no
    row's states are stored.
    """
    (problem, ((ref_level, ref_cfg), *rows)), indices = task
    S = len(indices)
    spaces = problem.spaces([l for l, _ in rows] + [ref_level])
    ref_space = spaces[ref_level]
    MKref, Mref = _error_products(ref_space)
    inits = {}

    def initial(levels):
        if levels not in inits:
            space = direct_sum([spaces[l] for l in levels])
            inits[levels] = initial_state(space, problem.h1, problem.h2)
        return inits[levels]

    factors = [round(cfg.tau / ref_cfg.tau) for _, cfg in rows]
    stride = math.gcd(*factors)
    shape = (ref_cfg.n_steps // stride + 1, S, ref_space.n_dofs)
    Ur, Vr = np.empty(shape), np.empty(shape)

    def keep(n0, live, U, V):
        first = -n0 % stride  # the window's first node that a row reads
        m = (n0 + first) // stride
        U, V = U[first::stride], V[first::stride]
        Ur[m : m + len(U), live] = U
        Vr[m : m + len(V), live] = V

    ref_paths = [
        sample_path(problem.master_seed, idx, ref_cfg.n_steps, ref_cfg.tau) for idx in indices
    ]
    violation = np.full(S, -np.inf)
    failure: dict[int, str] = {}

    def absorb(traj, alive):
        # a run of the march is one (row, sample) pair, row-major
        np.maximum.at(violation, alive[traj.samples % alive.size], traj.max_energy_violation)
        for run in sorted(traj.failures):  # the first row a sample fails on names it
            failure.setdefault(int(alive[run % alive.size]), str(traj.failures[run]))

    ref_stepper = WaveStepper(ref_space, problem.drift, problem.diffusion, ref_cfg)
    absorb(ref_stepper.run(ref_paths, initial((ref_level,)), observe=keep), np.arange(S))
    groups: dict = {}  # the rows of each scheme config, in row order
    for i, (_, cfg) in enumerate(rows):
        groups.setdefault(cfg, []).append(i)
    errs = [None] * len(rows)
    for cfg, group in groups.items():
        alive = np.array([p for p in range(S) if p not in failure], dtype=np.int64)
        if not alive.size:
            break
        levels = tuple(rows[i][0] for i in group)
        members = [spaces[l] for l in levels]
        space = direct_sum(members)
        lifts = [
            None if m is ref_space else CsrProduct(transfer_matrix(m, ref_space))
            for m in members
        ]
        for i in group:
            errs[i] = np.empty((3, S, cfg.n_steps + 1))
        factor = factors[group[0]]

        def compare(n0, live, U, V):
            # one column per (node, sample) of the window, node-major
            k, s = U.shape[:2]
            pos = alive[live]
            at = np.ix_(np.arange(n0, n0 + k) * (factor // stride), pos)
            Urc, Vrc = (X.reshape(k * s, -1).T for X in (Ur[at], Vr[at]))
            for i, E, a, b in zip(group, lifts, space.offsets, space.offsets[1:]):
                Uc, Vc = (X[..., a:b].reshape(k * s, -1).T for X in (U, V))
                sq = _error_sq(E, Uc, Vc, Urc, Vrc, MKref, Mref)
                errs[i][:, pos, n0 : n0 + k] = sq.reshape(3, k, s).transpose(0, 2, 1)

        # coupling contract: every row path is the exactly-summed reference path
        paths = [coarsen(ref_paths[p], factor) if factor > 1 else ref_paths[p] for p in alive]
        assert all(math.isclose(p.tau, cfg.tau, rel_tol=1e-12) for p in paths)
        stepper = WaveStepper(space, problem.drift, problem.diffusion, cfg)
        absorb(stepper.run(paths, initial(levels), observe=compare), alive)
    # a row is left unstepped only when every sample has failed
    return [
        SampleRecord(
            idx,
            tuple((e[0, pos], e[1, pos], e[2, pos, 1:]) for e in errs if e is not None),
            float(violation[pos]),
            failure.get(pos),
        )
        for pos, idx in enumerate(indices)
    ]


def convergence_table(
    problem: ProblemSpec,
    study: RateStudy,
    n_samples: int,
    threads: int,
) -> ErrorTable:
    """Coupled-reference convergence study over the study's halving ladder.

    Spatial mode: rows iterate over the mesh levels at the single tau; the
    reference refines the finest mesh ``reference_extra_levels`` times.
    Temporal mode: rows iterate over the taus on the single mesh level; the
    reference halves the finest tau as often.
    """
    mode, extra = study.mode, study.reference_extra_levels
    levels = [int(l) for l in study.levels]
    taus = [float(t) for t in study.taus]
    problems = ladder_problems(mode, levels, taus, extra)
    if problems:
        raise ValueError("; ".join(problems))
    if mode == "spatial":
        row_keys = [(l, taus[0]) for l in levels]
        ref_level, ref_tau = levels[-1] * 2**extra, taus[0]
    else:
        row_keys = [(levels[0], t) for t in taus]
        ref_level, ref_tau = levels[0], taus[-1] / 2**extra

    runs = tuple(
        (l, problem.scheme_config(t, study.T)) for l, t in [(ref_level, ref_tau), *row_keys]
    )
    good, n_failed = map_samples(
        _rate_batch, (problem, runs), n_samples, threads,
        problem.points_per_sample(ref_level),
    )
    l2, h1_err, dtl2 = (
        np.array([sup_rms(np.stack([r.series[k][j] for r in good])) for k in range(len(row_keys))])
        for j in range(3)
    )
    if mode == "spatial":
        # the mesh size is the cell diameter: 1/l in 1D, sqrt(2)/l in 2D
        h = np.sqrt(2.0) if problem.dimension == 2 else 1.0
        params = np.array([h / l for l in levels])
        reference = (
            f"same-path run at level {ref_level} "
            f"({extra} extra refinement(s)), tau={ref_tau:g}"
        )
    else:
        params = np.array(taus)
        reference = (
            f"same-path run at tau={ref_tau:g} "
            f"({extra} extra halving(s)), level {ref_level}"
        )
    return ErrorTable(
        mode=mode,
        params=params,
        l2=l2,
        h1=h1_err,
        dtl2=dtl2,
        n_samples=len(good),
        reference=reference,
        max_energy_violation=float(max(r.violation for r in good)),
        n_failures=n_failed,
    )


# ---------------------------------------------------------------------------
# Analytic-reference study (deterministic linear sanity check)
# ---------------------------------------------------------------------------

def analytic_problems(problem: ProblemSpec) -> list[str]:
    """Why the closed-form solution does not solve this problem; empty if it does."""
    problems = []
    if not problem.drift.is_zero or not problem.diffusion.is_zero:
        problems.append("analytic study requires zero drift and diffusion")
    if not (
        problem.dimension == 1
        and isinstance(problem.h1, CosineProduct)
        and problem.h2 == Constant(0.0)
    ):
        problems.append("the closed-form solution needs dimension 1, a cosine h1 and a zero h2")
    return problems


def analytic_error_table(problem: ProblemSpec, study: AnalyticStudy) -> ErrorTable:
    """Spatial convergence against the closed-form solution, in 1D.

    With zero drift and noise, cosine initial displacement and zero initial
    velocity, the solution is `LinearWaveSolution` with the cosine's
    frequency.  Errors are quadrature norms of u_h - u on each level's own
    space, along one path whose increments are all 0.
    """
    problems = analytic_problems(problem) + ladder_problems("spatial", study.levels, [study.tau])
    if problems:
        raise ValueError("; ".join(problems))
    exact = LinearWaveSolution(k=problem.h1.kx)
    levels, tau = study.levels, study.tau
    cfg = problem.scheme_config(tau, study.T)
    n_steps = cfg.n_steps
    spaces = problem.spaces(levels)
    members = [spaces[l] for l in levels]
    space = direct_sum(members)
    # every level's cells, with their dofs shifted to the level's rows, and
    # quadrature points and weights, one row per point in the order of the
    # direct sum's Q
    cell_dofs = np.concatenate([m.cell_dofs + a for m, a in zip(members, space.offsets)])
    grad_phys = np.concatenate([m.grad_phys[..., 0] for m in members])
    xq = np.concatenate([m.qpoints[..., 0].ravel() for m in members])[:, None]
    w = np.concatenate([m.wdet.ravel() for m in members])[:, None]
    points = np.cumsum([0] + [m.wdet.size for m in members])
    worst = np.zeros((3, len(levels)))  # per level, the largest squared L2, H1, d_t errors
    before = None  # the error values of the node before the window

    def quadrature(vals: np.ndarray) -> np.ndarray:
        """Per level and node, the weighted sum of its points' values: each
        sum over a contiguous row of that level's points, so the bits do not
        depend on the other levels or nodes (see `column_sums`)."""
        rows = np.ascontiguousarray((vals * w).T)
        return np.array([rows[:, a:b].sum(axis=1) for a, b in zip(points[:-1], points[1:])])

    def reduce(n0, live, Un, Vn):
        nonlocal before
        k = Un.shape[0]
        U = Un[:, 0].T  # one column per node
        times = np.arange(n0, n0 + k) * tau
        e_val = space.qpoint_product(U) - exact.value(xq, times)
        grad = np.einsum("cln,clq->cqn", U[cell_dofs], grad_phys).reshape(-1, k)
        e_grad = grad - exact.dx(xq, times)
        joined = e_val if before is None else np.concatenate([before, e_val], axis=1)
        de = np.diff(joined, axis=1) / tau
        before = e_val[:, -1:]
        for row, e in zip(worst, (e_val, e_grad, de)):
            if e.shape[1]:  # node 0 alone has no step
                np.maximum(row, quadrature(e * e).max(axis=1), out=row)

    # all levels march as one column: a run per level, one path of zero increments
    stepper = WaveStepper(space, problem.drift, problem.diffusion, cfg)
    path = BrownianPath(tau, np.zeros(n_steps))
    traj = stepper.run([path], initial_state(space, problem.h1, problem.h2), observe=reduce)
    if traj.failures:
        raise traj.failures[min(traj.failures)]
    l2, h1_err, dtl2 = np.sqrt(worst)
    violation = np.max(traj.max_energy_violation)

    return ErrorTable(
        mode="spatial",
        params=np.array([1.0 / l for l in levels]),
        l2=l2,
        h1=h1_err,
        dtl2=dtl2,
        n_samples=1,
        reference=f"closed-form solution {exact!r}",
        max_energy_violation=float(violation),
        n_failures=0,
    )
