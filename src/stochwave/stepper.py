"""The fully discrete two-step scheme in mixed (u, v) form, stepped in batches.

One step solves the nonlinear algebraic system

    R(c) = (M + tau^2 K) c - tau^2 b_drift(c) - M (u^n + tau v^n) - tau b_g dW = 0

for the new displacement coefficients c, where b_drift carries either the
fully implicit drift f(c) or the two-point potential quotient against u^n,
and b_g is the load of g(u^n).  Afterwards v^{n+1} = (c - u^n)/tau, which
keeps the two-step history u^{n-1} = u^n - tau v^n implicit in the state.

The solver is the chord method (Kelley, *Iterative Methods for Linear and
Nonlinear Equations*, SIAM 1995, ch. 5): starting from the explicit predictor
u^n + tau v^n, every correction reuses one factor of the Jacobian frozen at
the zero state, J0 = M + tau^2 K - tau^2 w(0, 0) M, made once per stepper
(w is the pointwise drift derivative: f' for `implicit`, the quotient's
derivative in its first argument for `mcn`).  For a linear drift J0 is the
exact Jacobian.  Otherwise chord iterates converge only linearly, so the
iterate that first meets the tolerance gets one more frozen correction;
stopping at the tolerance leaves rate-table rows ~1e-4 away from Newton's.
A frozen correction that does not cut the residual by CHORD_CONTRACTION is
rejected, and the step continues from the last accepted iterate with full
Newton, which assembles and factors the analytic Jacobian on every
iteration.  So every step that Newton alone solves is still solved.

Batches.  `WaveStepper.run` advances S samples (Brownian paths) from one
initial state as a single block of coefficients, shape (n_dofs, S), one
column per sample, so each sparse product, quadrature evaluation and frozen
solve serves the whole block at once.  Per-sample masks decide which columns
take a further chord correction (residual above tolerance, or the extra
correction still due) and which pass the CHORD_CONTRACTION test; a sample
whose frozen correction is rejected finishes the step alone with full Newton.
A sample that diverges, meets a non-finite residual or a LinearSolveError is
dropped from the block and reported; the others go on.  The quadrature
values of the accepted iterate are carried forward as the next step's u^n
values, and H, the norms and the energy residual come from the same M u,
K u and M v products.

Batch independence: a sample's numbers are bit-identical whether it steps
alone or inside any batch, so that outputs do not depend on how samples are
split over workers.  Every operation is either column-wise in exact
arithmetic order (sparse products, SuperLU solves with several right-hand
sides, elementwise maps, max-norms) or a sum through `column_sums`, which
reduces each column on its own contiguous copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .diffusion import Diffusion
from .drift import FULLY_IMPLICIT, MODIFIED_CN, SCHEMES, PolynomialDrift
from .fem import FeFunction, FeSpace, assemble_weighted_mass, l2_project
from .linsolve import LinearSolveError, spd_solver
from .noise import BrownianPath

__all__ = [
    "SchemeConfig",
    "State",
    "Trajectory",
    "WaveStepper",
    "NewtonDivergedError",
    "column_sums",
    "initial_state",
    "hamiltonian",
]

# A frozen correction must shrink the residual's max-norm at least this much
# to be accepted.
CHORD_CONTRACTION = 0.1

# observe(n, live, U, V): node index, batch positions of the samples still
# running, and their (n_dofs, len(live)) displacement and velocity blocks.
Observer = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]


class NewtonDivergedError(RuntimeError):
    """A step's nonlinear solve did not converge or met a non-finite residual.

    Usually tau is too large or the drift invalid.
    """

    def __init__(self, step: int, residual_history: list[float]):
        self.step = step
        self.residual_history = residual_history
        super().__init__(
            f"Newton diverged at step {step}; residual history {residual_history}"
        )


@dataclass(frozen=True)
class SchemeConfig:
    """Time discretization parameters.  T = n_steps * tau."""

    tau: float
    n_steps: int
    scheme: str = MODIFIED_CN
    newton_abs_tol: float = 1e-11
    newton_rel_tol: float = 1e-10
    newton_max_iter: int = 30

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if min(self.newton_abs_tol, self.newton_rel_tol) <= 0:
            raise ValueError("tolerances must be positive")

    @property
    def duration(self) -> float:
        return self.tau * self.n_steps


@dataclass
class State:
    """Solution pair at time node n: displacement u and difference velocity v."""

    n: int
    u: FeFunction
    v: FeFunction


@dataclass
class Trajectory:
    """Per-node norm and energy series of sample paths, plus diagnostics.

    For one path every series is 1-D.  For a batch each series has one row
    per finished sample, in batch order; ``samples`` holds their batch
    positions and ``failures`` maps the position of every dropped sample to
    its error.  ``newton_iters`` holds, per step, the number of accepted
    corrections: frozen-Jacobian (chord) and full-Newton ones alike, the
    extra chord correction included; rejected frozen corrections are not
    counted.
    """

    times: np.ndarray
    l2sq: np.ndarray
    h1sq: np.ndarray
    dtl2sq: np.ndarray
    hamiltonians: np.ndarray
    energy_residuals: np.ndarray  # one per step
    newton_iters: np.ndarray
    samples: np.ndarray | None = None
    failures: dict[int, Exception] = field(default_factory=dict)

    @property
    def max_energy_violation(self):
        """max_n r_n / (1 + |H_n|) per sample: stays <= ~1e-8 for an admissible scheme."""
        scale = 1.0 + np.abs(self.hamiltonians[..., :-1])
        return np.max(self.energy_residuals / scale, axis=-1)


def column_sums(X: np.ndarray) -> np.ndarray:
    """Sums over axis 0, one per remaining index, each from its own contiguous copy.

    numpy sums a contiguous row pairwise but a strided column sequentially,
    and a lone column counts as contiguous; summing rows of the transposed
    copy gives every column the same bits whatever else shares the block.
    """
    rows = np.ascontiguousarray(X.reshape(X.shape[0], -1).T)
    return rows.sum(axis=1).reshape(X.shape[1:])


def initial_state(space: FeSpace, h1: Callable, h2: Callable) -> State:
    """Project the initial displacement and velocity onto the space."""
    return State(0, l2_project(space, h1), l2_project(space, h2))


def hamiltonian(
    space: FeSpace, drift: PolynomialDrift, u: FeFunction, v: FeFunction
) -> float:
    """Discrete energy: half the kinetic and gradient norms plus the potential."""
    kin = 0.5 * float(v.coeffs @ (space.mass @ v.coeffs))
    grad = 0.5 * float(u.coeffs @ (space.stiffness @ u.coeffs))
    pot = float(np.sum(space.wdet * drift.potential(space.values_at_qpoints(u.coeffs))))
    return kin + grad + pot


class WaveStepper:
    """Advances the scheme on a fixed space; immutable after construction."""

    def __init__(
        self,
        space: FeSpace,
        drift: PolynomialDrift,
        diffusion: Diffusion,
        config: SchemeConfig,
    ):
        self.space = space
        self.drift = drift
        self.diffusion = diffusion
        self.config = config
        self._tau2 = config.tau * config.tau
        self.M = space.mass
        self.K = space.stiffness
        self.A = (self.M + self._tau2 * self.K).tocsr()
        w0 = self._jacobian_weight(np.zeros(1), np.zeros(1))[0]
        self._frozen_solve = spd_solver(self.A - self._tau2 * w0 * self.M)
        self._frozen_is_exact = drift.is_linear

    # -- pointwise drift terms at quadrature points ---------------------------

    def _drift_values(self, cq: np.ndarray, unq: np.ndarray) -> np.ndarray:
        if self.config.scheme == FULLY_IMPLICIT:
            return self.drift.value(cq)
        return self.drift.potential_quotient(cq, unq)

    def _jacobian_weight(self, cq: np.ndarray, unq: np.ndarray) -> np.ndarray:
        if self.config.scheme == FULLY_IMPLICIT:
            return self.drift.derivative(cq)
        return self.drift.potential_quotient_da(cq, unq)

    def _residual(
        self, C: np.ndarray, rhs: np.ndarray, unq: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """R(C) per column, and C's quadrature values when the drift needs them."""
        R = self.A @ C
        Cq = None
        if not self.drift.is_zero:
            Cq = self.space.values_at_qpoints(C)
            R -= self._tau2 * self.space.qpoint_load(self._drift_values(Cq, unq))
        R -= rhs
        return R, Cq

    # -- one step of a block ----------------------------------------------------

    def _solve(
        self, step: int, C: np.ndarray, rhs: np.ndarray, unq: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, dict[int, Exception]]:
        """Solve R(c) = 0 for every column of the predictor block C, in place.

        Returns the solutions, their quadrature values, the accepted
        corrections per column and the errors of the columns that failed.
        """
        cfg = self.config
        R, Cq = self._residual(C, rhs, unq)
        rnorm = np.max(np.abs(R), axis=0)
        tol = np.maximum(cfg.newton_abs_tol, cfg.newton_rel_tol * rnorm)
        iters = np.zeros(C.shape[1], dtype=np.int64)
        polish = np.zeros(C.shape[1], dtype=bool)  # the extra correction is due
        failed = ~np.isfinite(rnorm)
        rounds = [(np.arange(C.shape[1]), rnorm.copy())]  # accepted residual norms

        def history(j: int) -> list[float]:
            return [float(v[c == j][0]) for c, v in rounds if (c == j).any()]

        errors: dict[int, Exception] = {
            j: NewtonDivergedError(step, history(j)) for j in np.flatnonzero(failed)
        }
        while True:
            act = np.flatnonzero(~failed & ((rnorm > tol) | polish))
            spent = iters[act] >= cfg.newton_max_iter
            if spent.any():
                for j in act[spent & ~polish[act]]:  # polished columns already meet tol
                    errors[j] = NewtonDivergedError(step, history(j))
                    failed[j] = True
                polish[act[spent]] = False
                act = act[~spent]
            if not act.size:
                break
            cols = slice(None) if act.size == C.shape[1] else act  # a view when full
            trial = C[:, cols] + self._frozen_solve(-R[:, cols])
            sub_unq = None if unq is None else unq[..., cols]
            Rt, Tq = self._residual(trial, rhs[:, cols], sub_unq)
            rt = np.max(np.abs(Rt), axis=0)
            # written so that a NaN residual also rejects the frozen correction
            accept = polish[cols] | (rt <= CHORD_CONTRACTION * rnorm[cols])
            rounds.append((act[accept], rt[accept]))
            ok = accept & np.isfinite(rt)
            if ok.all():
                j, ok = cols, slice(None)
            else:
                for j in act[accept & ~ok]:
                    errors[j] = NewtonDivergedError(step, history(j))
                    failed[j] = True
                j = act[ok]
            polish[j] = ~(polish[j] | self._frozen_is_exact) & (rt[ok] <= tol[j])
            C[:, j], R[:, j], rnorm[j] = trial[:, ok], Rt[:, ok], rt[ok]
            if Cq is not None:
                Cq[..., j] = Tq[..., ok]
            iters[j] += 1
            for j in act[~accept]:  # continues alone with full Newton
                s = slice(j, j + 1)
                hist = history(j)
                try:
                    iters[j] += self._newton(
                        step, C[:, s], R[:, s], tol[j], iters[j], hist,
                        rhs[:, s], None if unq is None else unq[..., s],
                        None if Cq is None else Cq[..., s],
                    )
                except (NewtonDivergedError, LinearSolveError) as exc:
                    errors[j] = exc
                    failed[j] = True
                rnorm[j] = hist[-1]
        return C, Cq, iters, errors

    def _newton(
        self,
        step: int,
        c: np.ndarray,
        r: np.ndarray,
        tol: float,
        iters: int,
        history: list[float],
        rhs: np.ndarray,
        unq: np.ndarray | None,
        cq: np.ndarray | None,
    ) -> int:
        """Full Newton on one column from its last accepted iterate.

        Updates the (n_dofs, 1) views c, r and cq in place; returns the
        number of corrections taken.
        """
        cfg = self.config
        taken = 0
        while history[-1] > tol:
            if iters + taken >= cfg.newton_max_iter:
                raise NewtonDivergedError(step, history)
            if cq is None:  # zero drift: J0 is the exact Jacobian
                solve = self._frozen_solve
            else:
                w = self._jacobian_weight(cq[..., 0], unq[..., 0])
                solve = spd_solver(self.A - self._tau2 * assemble_weighted_mass(self.space, w))
            trial = c + solve(-r)
            r_new, q_new = self._residual(trial, rhs, unq)
            history.append(float(np.max(np.abs(r_new))))
            if not math.isfinite(history[-1]):
                raise NewtonDivergedError(step, history)
            c[...], r[...] = trial, r_new
            if cq is not None:
                cq[...] = q_new
            taken += 1
        return taken

    # -- stepping ----------------------------------------------------------------

    def step(self, state: State, dW: float) -> State:
        """One step of one sample: a batch of one through the stepping core."""
        nodes: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def keep(n, live, U, V):
            nodes[n] = (U, V)

        traj = self._march(state, np.array([[dW]], dtype=float), keep)
        if traj.failures:
            raise traj.failures[0]
        U, V = nodes[1]
        return State(
            state.n + 1, FeFunction(self.space, U[:, 0]), FeFunction(self.space, V[:, 0])
        )

    def run(
        self,
        paths: BrownianPath | Sequence[BrownianPath],
        initial: State,
        observe: Observer | None = None,
    ) -> Trajectory:
        """Advance from the initial state across one path or a batch of paths.

        A batch steps as one block.  With one path a failed solve raises and
        the series are 1-D; with a sequence of paths a failed sample is
        dropped and reported in ``Trajectory.failures``.  ``observe``, if
        given, is called at every node n = 0..N (see ``Observer``); its
        arrays are shared with the stepper and must not be modified.
        """
        cfg = self.config
        single = isinstance(paths, BrownianPath)
        batch = [paths] if single else list(paths)
        for path in batch:
            if path.n_steps != cfg.n_steps:
                raise ValueError(
                    f"path has {path.n_steps} steps, config expects {cfg.n_steps}"
                )
            if not np.isclose(path.tau, cfg.tau, rtol=1e-12, atol=0.0):
                raise ValueError(f"path tau {path.tau} != config tau {cfg.tau}")
        dW = np.array([p.increments for p in batch], dtype=float).reshape(-1, cfg.n_steps)
        traj = self._march(initial, dW, observe)
        if not single:
            return traj
        if traj.failures:
            raise traj.failures[0]
        return Trajectory(
            traj.times, traj.l2sq[0], traj.h1sq[0], traj.dtl2sq[0],
            traj.hamiltonians[0], traj.energy_residuals[0], traj.newton_iters[0],
        )

    def _march(
        self, initial: State, dW: np.ndarray, observe: Observer | None
    ) -> Trajectory:
        """Step S samples from one initial state over increments dW (S, N)."""
        space, cfg = self.space, self.config
        M, K, tau = self.M, self.K, cfg.tau
        S, N = dW.shape
        bad = np.argwhere(~np.isfinite(dW))
        if bad.size:
            raise ValueError(f"non-finite Brownian increment at step {initial.n + bad[0, 1]}")
        noisy = not self.diffusion.is_zero
        needs_q = noisy or not self.drift.is_zero

        l2sq, h1sq, dtl2sq, H = (np.empty((S, N + 1)) for _ in range(4))
        resid = np.empty((S, N))
        iters = np.zeros((S, N), dtype=np.int64)
        failures: dict[int, Exception] = {}
        live = np.arange(S)

        U = np.repeat(initial.u.coeffs[:, None], S, axis=1)
        V = np.repeat(initial.v.coeffs[:, None], S, axis=1)
        uq = space.values_at_qpoints(U) if needs_q else None
        MU, KU, MV = M @ U, K @ U, M @ V
        l2sq[:, 0], h1sq[:, 0], dtl2sq[:, 0] = column_sums(
            np.stack([U * MU, U * KU, V * MV], axis=1)
        )
        H[:, 0] = self._energy(h1sq[:, 0], dtl2sq[:, 0], uq)
        if observe is not None:
            observe(0, live, U, V)

        for n in range(N):
            if not live.size:
                break
            dw = dW[live, n]
            rhs = MU + tau * MV
            if noisy:
                noise = space.qpoint_load(self.diffusion.value(uq))
                rhs += noise * (tau * dw)
            C, Cq, it, errors = self._solve(initial.n + n, U + tau * V, rhs, uq)
            if errors:
                keep = np.ones(live.size, dtype=bool)
                for j, exc in errors.items():
                    failures[int(live[j])] = exc
                    keep[j] = False
                live, dw, it, C, U, V, MU, KU, MV = (
                    live[keep], dw[keep], it[keep], C[:, keep], U[:, keep],
                    V[:, keep], MU[:, keep], KU[:, keep], MV[:, keep],
                )
                if noisy:
                    noise = noise[:, keep]
                if Cq is not None:
                    Cq = Cq[..., keep]
                if not live.size:
                    break
            if needs_q and Cq is None:
                Cq = space.values_at_qpoints(C)
            V1 = (C - U) / tau
            MU1, KU1, MV1 = M @ C, K @ C, M @ V1
            terms = [C * MU1, C * KU1, V1 * MV1, (V1 - V) * (MV1 - MV), (C - U) * (KU1 - KU)]
            if noisy:
                terms.append(noise * V1)
            sums = column_sums(np.stack(terms, axis=1))
            l2sq[live, n + 1], h1sq[live, n + 1], dtl2sq[live, n + 1] = sums[:3]
            H1 = self._energy(sums[1], sums[2], Cq)
            gain = sums[5] * dw if noisy else 0.0
            resid[live, n] = H1 - H[live, n] + 0.5 * sums[3] + 0.5 * sums[4] - gain
            H[live, n + 1] = H1
            iters[live, n] = it
            U, V, uq, MU, KU, MV = C, V1, Cq, MU1, KU1, MV1
            if observe is not None:
                observe(n + 1, live, U, V)

        done = np.array([k for k in range(S) if k not in failures], dtype=np.int64)
        return Trajectory(
            np.arange(N + 1) * tau,
            l2sq[done],
            h1sq[done],
            dtl2sq[done],
            H[done],
            resid[done],
            iters[done],
            samples=done,
            failures=failures,
        )

    def _energy(
        self, h1sq: np.ndarray, dtl2sq: np.ndarray, uq: np.ndarray | None
    ) -> np.ndarray:
        """H = half the kinetic and gradient norms plus the potential, per column."""
        H = 0.5 * dtl2sq + 0.5 * h1sq
        if not self.drift.is_zero:
            pot = self.space.wdet[..., None] * self.drift.potential(uq)
            H = H + column_sums(pot.reshape(self.space.wdet.size, -1))
        return H
