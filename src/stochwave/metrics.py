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
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .diffusion import Diffusion
from .drift import MODIFIED_CN, PolynomialDrift
from .ensemble import EnsembleFailureError, sample_blocks, tree_sum
from .fem import FeSpace, transfer_matrix
from .mesh import Mesh, build_interval_mesh, build_unit_square_tri_mesh, refine_uniform
from .noise import BrownianPath, coarsen, sample_path
from .parallel import parallel_map
from .quadrature import interval_rule, triangle_rule
from .stepper import SchemeConfig, WaveStepper, column_sums, initial_state

__all__ = [
    "ErrorTable",
    "error_norms",
    "sup_rms_errors",
    "convergence_table",
    "analytic_error_table",
    "quadrature_degree_for",
]


def quadrature_degree_for(degree: int, drift: PolynomialDrift) -> int:
    """Cell-rule exactness covering drift and potential integrands: r(q+1)."""
    return max(2 * degree, degree * (drift.q + 1))


def _steps_for(T: float, tau: float) -> int:
    n = round(T / tau)
    if n < 1 or not math.isclose(n * tau, T, rel_tol=1e-9, abs_tol=0.0):
        raise ValueError(f"T={T} is not an integer multiple of tau={tau}")
    return n


# ---------------------------------------------------------------------------
# Per-node error norms
# ---------------------------------------------------------------------------

def _error_sq(
    E: sp.csr_matrix | None,
    Uc: np.ndarray,
    Vc: np.ndarray,
    Ur: np.ndarray,
    Vr: np.ndarray,
    M: sp.csr_matrix,
    K: sp.csr_matrix,
) -> np.ndarray:
    """Squared (L2, H1-seminorm, velocity L2) errors, one triple per column.

    The columns of the coarse blocks Uc, Vc are lifted to the reference space
    by E (None when the spaces coincide) and compared with the matching
    columns of Ur, Vr.  Returns shape (3, n_columns).  The velocity error is
    each solution's own difference quotient compared at a shared node.  With
    equal time steps this is identical to differencing the displacement
    error at consecutive nodes; across step sizes it avoids the
    Brownian-bridge mismatch that a cross-step difference quotient would
    inject at every node.
    """
    if E is not None:
        Uc, Vc = E @ Uc, E @ Vc
    eu, ev = Uc - Ur, Vc - Vr
    return column_sums(np.stack([eu * (M @ eu), eu * (K @ eu), ev * (M @ ev)], axis=1))


def error_norms(
    coarse: tuple[np.ndarray, np.ndarray],
    ref: tuple[np.ndarray, np.ndarray],
    coarse_space: FeSpace,
    ref_space: FeSpace,
    tau_coarse: float,
    tau_ref: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node (L2, H1-seminorm, d_t L2) error norms of one coupled pair.

    ``coarse`` and ``ref`` are (U, V) coefficient stacks, row n holding the
    displacement or velocity at time node n.  The coarse solution is lifted
    to the reference space.  The d_t series is the mixed-form velocity error
    at the shared nodes, starting at node 1.
    """
    factor = round(tau_coarse / tau_ref)
    if factor < 1 or not math.isclose(factor * tau_ref, tau_coarse, rel_tol=1e-9):
        raise ValueError(f"tau_ref={tau_ref} must divide tau_coarse={tau_coarse}")
    (Uc, Vc), (Ur, Vr) = coarse, ref
    Ur, Vr = Ur[::factor], Vr[::factor]
    if Uc.shape[0] != Ur.shape[0]:
        raise ValueError("trajectories do not cover the same time span")
    E = None
    if coarse_space is not ref_space:
        if not ref_space.mesh.descends_from(coarse_space.mesh):
            raise ValueError("reference mesh does not descend from the coarse mesh")
        E = transfer_matrix(coarse_space, ref_space)
    l2sq, h1sq, dtl2sq = _error_sq(
        E, Uc.T, Vc.T, Ur.T, Vr.T, ref_space.mass, ref_space.stiffness
    )
    return np.sqrt(l2sq), np.sqrt(h1sq), np.sqrt(dtl2sq[1:])


def sup_rms_errors(errors: np.ndarray) -> float:
    """sup over nodes of the root mean square over samples.

    ``errors`` holds per-sample per-node error norms, shape (n_samples, n_nodes).
    """
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    mean_sq = tree_sum(errors * errors) / errors.shape[0]
    return float(np.sqrt(np.max(mean_sq)))


# ---------------------------------------------------------------------------
# Rate tables
# ---------------------------------------------------------------------------

@dataclass
class ErrorTable:
    """Rows of (refinement parameter, three errors) plus observed orders."""

    mode: str  # "spatial" | "temporal"
    params: np.ndarray  # h (spatial) or tau (temporal) per row
    l2: np.ndarray
    h1: np.ndarray
    dtl2: np.ndarray
    n_samples: int
    master_seed: int
    reference: str
    max_energy_violation: float
    n_failures: int

    def orders(self, errors: np.ndarray) -> list[float | None]:
        out: list[float | None] = [None]
        for prev, curr in zip(errors[:-1], errors[1:]):
            out.append(float(np.log2(prev / curr)))
        return out

    @property
    def l2_orders(self):
        return self.orders(self.l2)

    @property
    def h1_orders(self):
        return self.orders(self.h1)

    @property
    def dtl2_orders(self):
        return self.orders(self.dtl2)


@dataclass(frozen=True)
class _RateSpec:
    mode: str
    dimension: int
    degree: int
    quad_degree: int
    row_levels: tuple[int, ...]
    row_taus: tuple[float, ...]
    ref_level: int
    ref_tau: float
    T: float
    drift: PolynomialDrift
    diffusion: Diffusion
    scheme: str
    newton_abs_tol: float
    newton_rel_tol: float
    newton_max_iter: int
    h1: Callable
    h2: Callable
    master_seed: int

    def config_for(self, tau: float) -> SchemeConfig:
        return SchemeConfig(
            tau=tau,
            n_steps=_steps_for(self.T, tau),
            scheme=self.scheme,
            newton_abs_tol=self.newton_abs_tol,
            newton_rel_tol=self.newton_rel_tol,
            newton_max_iter=self.newton_max_iter,
        )


def _build_mesh(dimension: int, resolution: int) -> Mesh:
    if dimension == 1:
        return build_interval_mesh(resolution)
    return build_unit_square_tri_mesh(resolution)


def _space_chain(spec: _RateSpec) -> dict[int, FeSpace]:
    """Spaces at every needed resolution, linked by refinement lineage."""
    levels = sorted(set(spec.row_levels) | {spec.ref_level})
    mesh = _build_mesh(spec.dimension, levels[0])
    meshes = {levels[0]: mesh}
    while mesh.resolution < levels[-1]:
        mesh = refine_uniform(mesh)
        meshes[mesh.resolution] = mesh
    missing = [l for l in levels if l not in meshes]
    if missing:
        raise ValueError(f"ladder levels {missing} are not reachable by halving")
    return {l: FeSpace(meshes[l], spec.degree, spec.quad_degree) for l in levels}


def _rate_batch(task: tuple[_RateSpec, range]) -> list[dict]:
    """Per-sample squared error series for every table row (one sample block).

    The block steps the reference first and keeps the nodes some row reads;
    each row then steps the samples still running and reduces its errors to
    per-node norms as it goes, so no row's states are stored.
    """
    spec, indices = task
    S = len(indices)
    spaces = _space_chain(spec)
    ref_space = spaces[spec.ref_level]
    Mref, Kref = ref_space.mass, ref_space.stiffness
    ref_cfg = spec.config_for(spec.ref_tau)
    inits = {spec.ref_level: initial_state(ref_space, spec.h1, spec.h2)}
    factors = [round(tau / spec.ref_tau) for tau in spec.row_taus]
    stride = math.gcd(*factors)
    shape = (ref_cfg.n_steps // stride + 1, ref_space.n_dofs, S)
    Ur, Vr = np.empty(shape), np.empty(shape)

    def keep(n, live, U, V):
        if n % stride == 0:
            Ur[n // stride][:, live] = U
            Vr[n // stride][:, live] = V

    ref_paths = [
        sample_path(spec.master_seed, idx, ref_cfg.n_steps, spec.ref_tau) for idx in indices
    ]
    violation = np.full(S, -np.inf)
    failure: dict[int, str] = {}

    def absorb(traj, alive):
        done = alive[traj.samples]
        violation[done] = np.maximum(violation[done], traj.max_energy_violation)
        failure.update((int(alive[k]), str(exc)) for k, exc in traj.failures.items())

    ref_stepper = WaveStepper(ref_space, spec.drift, spec.diffusion, ref_cfg)
    absorb(ref_stepper.run(ref_paths, inits[spec.ref_level], observe=keep), np.arange(S))
    rows = []
    for level, tau, factor in zip(spec.row_levels, spec.row_taus, factors):
        alive = np.array([p for p in range(S) if p not in failure], dtype=np.int64)
        if not alive.size:
            break
        space = spaces[level]
        cfg = spec.config_for(tau)
        if level not in inits:
            inits[level] = initial_state(space, spec.h1, spec.h2)
        E = None if space is ref_space else transfer_matrix(space, ref_space)
        err = np.empty((3, S, cfg.n_steps + 1))

        def compare(n, live, U, V):
            pos = alive[live]
            m = n * factor // stride
            err[:, pos, n] = _error_sq(E, U, V, Ur[m][:, pos], Vr[m][:, pos], Mref, Kref)

        # coupling contract: every row path is the exactly-summed reference path
        paths = [coarsen(ref_paths[p], factor) if factor > 1 else ref_paths[p] for p in alive]
        assert all(math.isclose(p.tau, cfg.tau, rel_tol=1e-12) for p in paths)
        stepper = WaveStepper(space, spec.drift, spec.diffusion, cfg)
        absorb(stepper.run(paths, inits[level], observe=compare), alive)
        rows.append(err)

    return [
        {
            "index": idx,
            "rows": [(e[0, pos], e[1, pos], e[2, pos, 1:]) for e in rows],
            "violation": float(violation[pos]),
            "failure": failure.get(pos),
        }
        for pos, idx in enumerate(indices)
    ]


def convergence_table(
    *,
    mode: str,
    dimension: int,
    levels: Sequence[int],
    taus: Sequence[float],
    T: float,
    drift: PolynomialDrift,
    diffusion: Diffusion,
    h1: Callable,
    h2: Callable,
    n_samples: int,
    master_seed: int,
    degree: int = 1,
    scheme: str = MODIFIED_CN,
    reference_extra_levels: int = 1,
    threads: int = 1,
    newton_abs_tol: float = 1e-11,
    newton_rel_tol: float = 1e-10,
    newton_max_iter: int = 30,
    max_failure_fraction: float = 0.10,
) -> ErrorTable:
    """Coupled-reference convergence study over a halving ladder.

    ``mode="spatial"``: rows iterate over mesh ``levels`` at the single tau in
    ``taus``; the reference refines the finest mesh ``reference_extra_levels``
    times.  ``mode="temporal"``: rows iterate over the ``taus`` ladder on the
    single mesh level; the reference halves the finest tau.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    levels = [int(l) for l in levels]
    taus = [float(t) for t in taus]
    if mode == "spatial":
        if len(taus) != 1:
            raise ValueError("spatial mode expects a single tau")
        for a, b in zip(levels[:-1], levels[1:]):
            if b != 2 * a:
                raise ValueError(f"spatial ladder must halve h: {levels}")
        row_levels = tuple(levels)
        row_taus = tuple(taus * len(levels))
        ref_level = levels[-1] * 2**reference_extra_levels
        ref_tau = taus[0]
    elif mode == "temporal":
        if len(levels) != 1:
            raise ValueError("temporal mode expects a single mesh level")
        for a, b in zip(taus[:-1], taus[1:]):
            if not math.isclose(a, 2 * b, rel_tol=1e-12):
                raise ValueError(f"temporal ladder must halve tau: {taus}")
        row_levels = tuple(levels * len(taus))
        row_taus = tuple(taus)
        ref_level = levels[0]
        ref_tau = taus[-1] / 2**reference_extra_levels
    else:
        raise ValueError(f"mode must be 'spatial' or 'temporal', got {mode!r}")

    spec = _RateSpec(
        mode=mode,
        dimension=dimension,
        degree=degree,
        quad_degree=quadrature_degree_for(degree, drift),
        row_levels=row_levels,
        row_taus=row_taus,
        ref_level=ref_level,
        ref_tau=ref_tau,
        T=T,
        drift=drift,
        diffusion=diffusion,
        scheme=scheme,
        newton_abs_tol=newton_abs_tol,
        newton_rel_tol=newton_rel_tol,
        newton_max_iter=newton_max_iter,
        h1=h1,
        h2=h2,
        master_seed=master_seed,
    )
    workers = max(1, threads)
    rule = interval_rule if dimension == 1 else triangle_rule
    ref_cells = ref_level if dimension == 1 else 2 * ref_level**2
    ref_points = ref_cells * rule(spec.quad_degree)[1].size
    tasks = [(spec, block) for block in sample_blocks(n_samples, workers, ref_points)]
    records: list[dict] = []
    for batch in parallel_map(_rate_batch, tasks, workers):
        records.extend(batch)
    records.sort(key=lambda r: r["index"])

    failures = [r for r in records if r["failure"] is not None]
    good = [r for r in records if r["failure"] is None]
    if len(failures) > max_failure_fraction * n_samples or not good:
        raise EnsembleFailureError(
            f"{len(failures)}/{n_samples} samples failed; "
            f"first: {failures[0]['failure']}"
        )

    n_rows = len(row_levels)
    l2 = np.empty(n_rows)
    h1_err = np.empty(n_rows)
    dtl2 = np.empty(n_rows)
    for k in range(n_rows):
        l2sq = np.stack([r["rows"][k][0] for r in good])
        h1sq = np.stack([r["rows"][k][1] for r in good])
        dtsq = np.stack([r["rows"][k][2] for r in good])
        n = len(good)
        l2[k] = np.sqrt(np.max(tree_sum(l2sq) / n))
        h1_err[k] = np.sqrt(np.max(tree_sum(h1sq) / n))
        dtl2[k] = np.sqrt(np.max(tree_sum(dtsq) / n))

    if mode == "spatial":
        params = np.array(
            [np.sqrt(2.0) / l if dimension == 2 else 1.0 / l for l in row_levels]
        )
        reference = (
            f"same-path run at level {ref_level} "
            f"({reference_extra_levels} extra refinement(s)), tau={ref_tau:g}"
        )
    else:
        params = np.array(row_taus)
        reference = (
            f"same-path run at tau={ref_tau:g} "
            f"({reference_extra_levels} extra halving(s)), level {ref_level}"
        )
    return ErrorTable(
        mode=mode,
        params=params,
        l2=l2,
        h1=h1_err,
        dtl2=dtl2,
        n_samples=len(good),
        master_seed=master_seed,
        reference=reference,
        max_energy_violation=float(max(r["violation"] for r in good)),
        n_failures=len(failures),
    )


# ---------------------------------------------------------------------------
# Analytic-reference study (deterministic linear sanity check)
# ---------------------------------------------------------------------------

def analytic_error_table(
    *,
    levels: Sequence[int],
    tau: float,
    T: float,
    exact,
    drift: PolynomialDrift,
    diffusion: Diffusion,
    h1: Callable,
    h2: Callable,
    degree: int = 1,
    scheme: str = MODIFIED_CN,
    master_seed: int = 0,
    newton_abs_tol: float = 1e-11,
) -> ErrorTable:
    """Spatial convergence against a closed-form solution (zero noise).

    ``exact`` provides value(x, t) and dx(x, t).  Errors are quadrature norms
    of u_h - u on each level's own space.
    """
    if not diffusion.is_zero:
        raise ValueError("analytic study requires the zero diffusion")
    n_steps = _steps_for(T, tau)
    cfg = SchemeConfig(
        tau=tau, n_steps=n_steps, scheme=scheme, newton_abs_tol=newton_abs_tol
    )
    mesh = _build_mesh(1, int(levels[0]))
    l2 = []
    h1_err = []
    dtl2 = []
    violation = -np.inf
    for level in levels:
        while mesh.resolution < level:
            mesh = refine_uniform(mesh)
        if mesh.resolution != level:
            raise ValueError(f"ladder level {level} not reachable by halving")
        space = FeSpace(mesh, degree, quadrature_degree_for(degree, drift))
        stepper = WaveStepper(space, drift, diffusion, cfg)
        U = np.empty((space.n_dofs, n_steps + 1))  # one column per time node

        def keep(n, live, Un, Vn):
            U[:, n] = Un[:, 0]

        path = BrownianPath(tau, np.zeros(n_steps), master_seed, 0)
        traj = stepper.run(path, initial_state(space, h1, h2), observe=keep)
        violation = max(violation, traj.max_energy_violation)

        xq = space.qpoints[..., 0, None]  # (nc, nq, 1)
        times = np.arange(n_steps + 1) * tau
        e_val = space.values_at_qpoints(U) - exact.value(xq, times)
        grad = np.einsum("cln,clq->cqn", U[space.cell_dofs], space.grad_phys[..., 0])
        e_grad = grad - exact.dx(xq, times)
        w = space.wdet
        l2sq = np.einsum("cqn,cq->n", e_val * e_val, w)
        h1sq = np.einsum("cqn,cq->n", e_grad * e_grad, w)
        de = np.diff(e_val, axis=2) / tau
        dtsq = np.einsum("cqn,cq->n", de * de, w)
        l2.append(np.sqrt(np.max(l2sq)))
        h1_err.append(np.sqrt(np.max(h1sq)))
        dtl2.append(np.sqrt(np.max(dtsq)))

    return ErrorTable(
        mode="spatial",
        params=np.array([1.0 / l for l in levels]),
        l2=np.array(l2),
        h1=np.array(h1_err),
        dtl2=np.array(dtl2),
        n_samples=1,
        master_seed=master_seed,
        reference=f"closed-form solution {exact!r}",
        max_energy_violation=float(violation),
        n_failures=0,
    )
