"""The fully discrete two-step scheme in mixed (u, v) form.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diffusion import Diffusion
from .drift import FULLY_IMPLICIT, MODIFIED_CN, SCHEMES, PolynomialDrift
from .fem import FeFunction, FeSpace, assemble_weighted_mass, l2_project, _scatter_vector
from .linsolve import spd_solver
from .noise import BrownianPath

__all__ = [
    "SchemeConfig",
    "State",
    "Trajectory",
    "WaveStepper",
    "NewtonDivergedError",
    "initial_state",
    "hamiltonian",
]

# A frozen correction must shrink the residual's max-norm at least this much
# to be accepted.
CHORD_CONTRACTION = 0.1


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
    """Per-node norm and energy series of one sample path, plus diagnostics.

    ``newton_iters`` holds, per step, the number of accepted corrections:
    frozen-Jacobian (chord) and full-Newton ones alike, the extra chord
    correction included; rejected frozen corrections are not counted.
    """

    times: np.ndarray
    l2sq: np.ndarray
    h1sq: np.ndarray
    dtl2sq: np.ndarray
    hamiltonians: np.ndarray
    energy_residuals: np.ndarray  # one per step
    newton_iters: np.ndarray
    states: list[State] | None = field(default=None, repr=False)

    @property
    def max_energy_violation(self) -> float:
        """max_n r_n / (1 + |H_n|): stays <= ~1e-8 for an admissible scheme."""
        scale = 1.0 + np.abs(self.hamiltonians[:-1])
        return float(np.max(self.energy_residuals / scale))


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
        tau = config.tau
        self.M = space.mass
        self.K = space.stiffness
        self.A = (self.M + tau * tau * self.K).tocsr()
        w0 = self._jacobian_weight(np.zeros(1), np.zeros(1))[0]
        self._frozen_solve = spd_solver(self.A - tau * tau * w0 * self.M)
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

    def _drift_load(self, cq: np.ndarray, unq: np.ndarray) -> np.ndarray:
        vals = self._drift_values(cq, unq)
        local = np.einsum("cq,iq->ci", self.space.wdet * vals, self.space.phi)
        return _scatter_vector(self.space, local)

    # -- stepping --------------------------------------------------------------

    def noise_load(self, u: FeFunction) -> np.ndarray:
        """Load vector of g(u) against the basis."""
        vals = self.diffusion.value(self.space.values_at_qpoints(u.coeffs))
        local = np.einsum("cq,iq->ci", self.space.wdet * vals, self.space.phi)
        return _scatter_vector(self.space, local)

    def step(self, state: State, dW: float) -> State:
        new_state, _, _ = self._step_full(state, dW)
        return new_state

    def _step_full(self, state: State, dW: float) -> tuple[State, int, np.ndarray]:
        space, cfg = self.space, self.config
        tau = cfg.tau
        if not np.isfinite(dW):
            raise ValueError(f"non-finite Brownian increment at step {state.n}")

        un = state.u.coeffs
        vn = state.v.coeffs
        noise_vec = self.noise_load(state.u)
        rhs = self.M @ (un + tau * vn) + (tau * dW) * noise_vec
        unq = space.values_at_qpoints(un)
        tau2 = tau * tau

        def residual(c: np.ndarray) -> np.ndarray:
            cq = space.values_at_qpoints(c)
            return self.A @ c - tau2 * self._drift_load(cq, unq) - rhs

        c = un + tau * vn  # explicit predictor
        r = residual(c)
        rnorm = float(np.max(np.abs(r)))
        tol = max(cfg.newton_abs_tol, cfg.newton_rel_tol * rnorm)
        history = [rnorm]
        if not math.isfinite(rnorm):
            raise NewtonDivergedError(state.n, history)
        iters = 0
        newton = False  # set once a frozen correction is rejected
        polish = False  # the next correction is the extra one after chord converged
        while rnorm > tol or polish:
            if iters >= cfg.newton_max_iter:
                if polish:  # c already meets the tolerance
                    break
                raise NewtonDivergedError(state.n, history)
            if newton:
                cq = space.values_at_qpoints(c)
                D = assemble_weighted_mass(space, self._jacobian_weight(cq, unq))
                delta = spd_solver(self.A - tau2 * D)(-r)
            else:
                delta = self._frozen_solve(-r)
            trial = c + delta
            r_trial = residual(trial)
            rnorm_trial = float(np.max(np.abs(r_trial)))
            # written so that a NaN residual also rejects the frozen correction
            if not (newton or polish or rnorm_trial <= CHORD_CONTRACTION * rnorm):
                newton = True
                continue
            history.append(rnorm_trial)
            if not math.isfinite(rnorm_trial):
                raise NewtonDivergedError(state.n, history)
            polish = not (newton or polish or self._frozen_is_exact) and rnorm_trial <= tol
            c, r, rnorm = trial, r_trial, rnorm_trial
            iters += 1

        v_new = (c - un) / tau
        new_state = State(state.n + 1, FeFunction(space, c), FeFunction(space, v_new))
        return new_state, iters, noise_vec

    def run(
        self,
        path: BrownianPath,
        initial: State,
        store_states: bool = False,
    ) -> Trajectory:
        """Advance from the initial state across the whole path."""
        cfg = self.config
        if path.n_steps != cfg.n_steps:
            raise ValueError(
                f"path has {path.n_steps} steps, config expects {cfg.n_steps}"
            )
        if not np.isclose(path.tau, cfg.tau, rtol=1e-12, atol=0.0):
            raise ValueError(f"path tau {path.tau} != config tau {cfg.tau}")

        N = cfg.n_steps
        tau = cfg.tau
        times = np.arange(N + 1) * tau
        l2sq = np.empty(N + 1)
        h1sq = np.empty(N + 1)
        dtl2sq = np.empty(N + 1)
        H = np.empty(N + 1)
        resid = np.empty(N)
        iters = np.empty(N, dtype=np.int64)
        states = [initial] if store_states else None

        def norms(s: State) -> tuple[float, float, float]:
            uu = float(s.u.coeffs @ (self.M @ s.u.coeffs))
            gg = float(s.u.coeffs @ (self.K @ s.u.coeffs))
            vv = float(s.v.coeffs @ (self.M @ s.v.coeffs))
            return uu, gg, vv

        state = initial
        l2sq[0], h1sq[0], dtl2sq[0] = norms(state)
        H[0] = hamiltonian(self.space, self.drift, state.u, state.v)
        for n in range(N):
            new_state, it, noise_vec = self._step_full(state, float(path.increments[n]))
            l2sq[n + 1], h1sq[n + 1], dtl2sq[n + 1] = norms(new_state)
            H[n + 1] = hamiltonian(self.space, self.drift, new_state.u, new_state.v)
            dv = new_state.v.coeffs - state.v.coeffs
            du = new_state.u.coeffs - state.u.coeffs
            gain = float(noise_vec @ new_state.v.coeffs) * float(path.increments[n])
            resid[n] = (
                H[n + 1]
                - H[n]
                + 0.5 * float(dv @ (self.M @ dv))
                + 0.5 * float(du @ (self.K @ du))
                - gain
            )
            iters[n] = it
            if store_states:
                states.append(new_state)
            state = new_state
        return Trajectory(times, l2sq, h1sq, dtl2sq, H, resid, iters, states)
