"""Error norms against coupled fine references and convergence-rate tables.

The reference protocol: no closed-form solution exists for the nonlinear
stochastic problem, so each sample is rerun on a reference discretization a
few refinement levels beyond the finest table row, driven by the same
Brownian path (exact coarsening keeps the coupling).  Errors are measured on
the reference space; rates, not absolute magnitudes, are the reproducible
quantity.  The reference is one more run of a sample block: a spatial
ladder's rows march with it on one direct sum, a temporal ladder's rows one
by one after it, and each row is compared with it a window at a time.
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
from .fem import CsrProduct, FeSpace, direct_sum, segment_sums, transfer_matrix
from .fields import Constant, CosineProduct, LinearWaveSolution
from .noise import BrownianPath, coarsen, sample_path

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
    sums: CsrProduct,
) -> np.ndarray:
    """Squared (L2, H1-seminorm, velocity L2) errors, one triple per column.

    The columns of the coarse blocks Uc, Vc are lifted to the reference space
    by E (None when the spaces coincide) and compared with the matching
    columns of Ur, Vr.  MK is the stacked [M; K] of the reference space and
    M its mass, and ``sums`` adds up each column's three blocks of products
    in row order.  Returns shape (3, n_columns).  The velocity error is each
    solution's own difference quotient compared at a shared node.  With
    equal time steps this is identical to differencing the displacement
    error at consecutive nodes; across step sizes it avoids the
    Brownian-bridge mismatch that a cross-step difference quotient would
    inject at every node.
    """
    if E is not None:
        Uc, Vc = E(Uc), E(Vc)
    eu, ev = Uc - Ur, Vc - Vr
    products = np.concatenate([MK(eu), M(ev)])  # the rows of M eu, K eu and M ev
    products *= np.concatenate([eu, eu, ev])
    return sums(products)


def _error_products(space: FeSpace) -> tuple[CsrProduct, CsrProduct, CsrProduct]:
    """`_error_sq`'s stacked [M; K] and M products and the sums of its products."""
    M, n = space.mass, space.n_dofs
    MK = CsrProduct(sp.vstack([M, space.stiffness], format="csr"))
    return MK, CsrProduct(M), segment_sums(np.ones(3 * n), np.arange(4) * n)


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
    runs: the reference is run 0, the rows follow.  The runs that share a
    scheme config step the samples still running as one march on the direct
    sum of their spaces, the reference's config first and the reference the
    first member of its sum: a spatial block is one march, a temporal block
    the reference's march and one per row.  In the reference's march the
    observer first keeps the window's nodes that some row reads; then, in
    every march, it compares each row with the kept nodes and reduces its
    errors to per-node norms, so no row's states are stored.
    """
    (problem, runs), indices = task
    ref_level, ref_cfg = runs[0]
    S = len(indices)
    spaces = problem.spaces([l for l, _ in runs])
    ref_space = spaces[ref_level]
    products = _error_products(ref_space)
    stride = math.gcd(*(round(cfg.tau / ref_cfg.tau) for _, cfg in runs[1:]))
    shape = (ref_cfg.n_steps // stride + 1, S, ref_space.n_dofs)
    Ur, Vr = np.empty(shape), np.empty(shape)
    ref_paths = [
        sample_path(problem.master_seed, idx, ref_cfg.n_steps, ref_cfg.tau) for idx in indices
    ]
    violation = np.full(S, -np.inf)
    failure: dict[int, str] = {}
    errs = {i: np.empty((3, S, cfg.n_steps + 1)) for i, (_, cfg) in enumerate(runs[1:], 1)}
    for cfg in dict.fromkeys(c for _, c in runs):  # each scheme config, in run order
        group = [i for i, (_, c) in enumerate(runs) if c == cfg]
        alive = np.array([p for p in range(S) if p not in failure], dtype=np.int64)
        if not alive.size:
            break
        members = [spaces[runs[i][0]] for i in group]
        space = direct_sum(members)
        keeps = group[0] == 0  # the reference's march, which keeps what the rows read
        rows = [
            (i, None if m is ref_space else CsrProduct(transfer_matrix(m, ref_space)), a, b)
            for i, m, a, b in zip(group, members, space.offsets, space.offsets[1:])
        ][keeps:]
        factor = round(cfg.tau / ref_cfg.tau)

        def observe(n0, live, U, V):
            k, s = U.shape[:2]
            pos = alive[live]
            if keeps:
                first = -n0 % stride  # the window's first node that a row reads
                m = (n0 + first) // stride
                kept = U[first::stride, :, : ref_space.n_dofs]
                Ur[m : m + len(kept), pos] = kept
                Vr[m : m + len(kept), pos] = V[first::stride, :, : ref_space.n_dofs]
            if not rows:
                return
            # one column per (node, sample) of the window, node-major
            at = np.ix_(np.arange(n0, n0 + k) * (factor // stride), pos)
            Urc, Vrc = (X.reshape(k * s, -1).T for X in (Ur[at], Vr[at]))
            for i, E, a, b in rows:
                Uc, Vc = (X[..., a:b].reshape(k * s, -1).T for X in (U, V))
                sq = _error_sq(E, Uc, Vc, Urc, Vrc, *products)
                errs[i][:, pos, n0 : n0 + k] = sq.reshape(3, k, s).transpose(0, 2, 1)

        # every row path is the exactly-summed reference path
        paths = [coarsen(ref_paths[p], factor) if factor > 1 else ref_paths[p] for p in alive]
        traj = problem.march(space, cfg, paths, observe)
        # a run of the march is one (member, sample) pair, member-major
        np.maximum.at(violation, alive[traj.samples % alive.size], traj.max_energy_violation)
        for run in sorted(traj.failures):  # the first run a sample fails on names it
            failure.setdefault(int(alive[run % alive.size]), str(traj.failures[run]))
    # a row is left unstepped only when every sample has failed
    return [
        SampleRecord(
            idx,
            tuple((e[0, pos], e[1, pos], e[2, pos, 1:]) for e in errs.values()),
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
        # the mesh size is the cell diameter: 1/l in 1D, sqrt(2)/l in 2D
        h = np.sqrt(2.0) if problem.dimension == 2 else 1.0
        params = np.array([h / l for l in levels])
        reference = (
            f"same-path run at level {ref_level} "
            f"({extra} extra refinement(s)), tau={ref_tau:g}"
        )
    else:
        row_keys = [(levels[0], t) for t in taus]
        ref_level, ref_tau = levels[0], taus[-1] / 2**extra
        params = np.array(taus)
        reference = (
            f"same-path run at tau={ref_tau:g} "
            f"({extra} extra halving(s)), level {ref_level}"
        )
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
    space, along one path whose increments are all 0.  All levels march as
    one direct sum.  A window of nodes takes one product by the stacked
    [Q; G] (values and x-derivatives at the points) and one that sums each
    (error kind, level) over that level's weighted points in point order, so
    a level's numbers depend neither on the other levels nor on the window.
    """
    problems = analytic_problems(problem) + ladder_problems("spatial", study.levels, [study.tau])
    if problems:
        raise ValueError("; ".join(problems))
    exact = LinearWaveSolution(k=problem.h1.kx)
    levels, tau = study.levels, study.tau
    cfg = problem.scheme_config(tau, study.T)
    spaces = problem.spaces(levels)
    space = direct_sum([spaces[l] for l in levels])
    n_q = space.wdet.size
    G = space.point_matrix(space.grad_phys[..., 0].transpose(0, 2, 1))  # d/dx at the points
    values_and_dx = CsrProduct(sp.vstack([space.qpoint_product.matrix, G], format="csr"))
    # row (kind, level) sums the level's weighted points of the kind's block
    L, points = len(levels), space.point_offsets
    weighted_sums = segment_sums(
        np.tile(space.wdet.ravel(), 3),
        np.concatenate([points[:-1], n_q + points[:-1], 2 * n_q + points]),
    )
    xq = space.qpoints.reshape(-1, 1)  # one row per point, in the order of Q
    worst = np.zeros((3, L))  # per level, the largest squared L2, H1, d_t errors
    before = np.empty(n_q)  # the value error of the node before the window
    buffer = np.empty(0)

    def reduce(n0, live, Un, Vn):
        nonlocal buffer
        k = Un.shape[0]
        if buffer.size < 3 * n_q * k:
            buffer = np.empty(3 * n_q * k)
        errors = buffer[: 3 * n_q * k].reshape(3 * n_q, k)
        e_val, e_dx, e_dt = errors[:n_q], errors[n_q : 2 * n_q], errors[2 * n_q :]
        times = np.arange(n0, n0 + k) * tau
        at_points = values_and_dx(Un[:, 0].T)  # one column per node
        np.subtract(at_points[:n_q], exact.value(xq, times), out=e_val)
        np.subtract(at_points[n_q:], exact.dx(xq, times), out=e_dx)
        np.subtract(e_val[:, 1:], e_val[:, :-1], out=e_dt[:, 1:])
        if n0:
            np.subtract(e_val[:, 0], before, out=e_dt[:, 0])
        else:  # node 0 alone has no step: a zero raises no maximum
            e_dt[:, 0] = 0.0
        e_dt /= tau
        before[:] = e_val[:, -1]
        errors *= errors
        np.maximum(worst, weighted_sums(errors).max(axis=1).reshape(3, L), out=worst)

    # all levels march as one column: a run per level, one path of zero increments
    traj = problem.march(space, cfg, [BrownianPath(tau, np.zeros(cfg.n_steps))], reduce)
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
