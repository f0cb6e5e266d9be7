"""The fully discrete two-step scheme in mixed (u, v) form, stepped in batches.

One step solves the nonlinear algebraic system

    R(c) = (M + tau^2 K) c - tau^2 b_drift(c) - M (u^n + D^n) - tau b_g dW = 0

for the new displacement coefficients c, where D^n = u^n - u^{n-1} is the
last step (D^0 = tau v^0), b_drift carries either the fully implicit drift
f(c) or the two-point potential quotient against u^n, and b_g is the load of
g(u^n).  The march carries this two-step recurrence as it stands: u^n, D^n
and the products W u^n and W u^{n-1} with the stacked operator W (below).
The velocity v^{n+1} = D^{n+1}/tau is a difference quotient that only the
energy ledger forms, a window at a time.

The solver is the chord method (Kelley, *Iterative Methods for Linear and
Nonlinear Equations*, SIAM 1995, ch. 5): starting from the explicit predictor
u^n + D^n, a column meets the tolerance when max |R| is at most
max(newton_abs_tol, NEWTON_REL_TOL times the predictor's max |R|), and it
fails when NEWTON_MAX_ITER corrections leave it above.  Every correction
reuses one factor of the Jacobian frozen at the zero state,
J0 = M + tau^2 K - tau^2 w(0, 0) M, made once per stepper
(w is the pointwise drift derivative: f' for `implicit`, the quotient's
derivative in its first argument for `mcn`).  For a linear drift J0 is the
exact Jacobian.  Otherwise chord iterates converge only linearly, so the
iterate that first meets the tolerance gets one more frozen correction,
the polish: stopping at the tolerance leaves rate-table rows ~1e-4 away
from Newton's.  An iterate whose residual is already at most
POLISH_FRACTION of the tolerance gains nothing from it and skips it.
Nothing reads the residual after the polish, so the polish is a frozen
solve and one product with W (below) alone: no drift quotient, no load and
no max-norm.  A frozen correction that does not cut the residual by
CHORD_CONTRACTION is rejected, and the step continues from the last
accepted iterate with full Newton, which assembles and factors the
analytic Jacobian on every iteration.  So every step that Newton alone solves is still solved.

Batches.  `WaveStepper.run` advances S samples (Brownian paths) from one
initial coefficient pair (u^0, v^0) as a single block of coefficients,
shape (n_dofs, S), one column per sample, so each sparse product,
quadrature evaluation and frozen solve serves the whole block at once.  The
residual is one product with the stacked operator W = [A; M; K],
A = M + tau^2 K, joined by the quadrature evaluation Q when the drift or
the noise reads point values: one product per iterate yields R's linear
part, M c, K c and c's quadrature values, so the iterate a column accepts
brings all four along and no step evaluates Q on its own.  Each row of W is
summed exactly as in its own operator, so these are the bits that separate
products would give.  W is linear, so the predictor's product needs no
product of its own: it is (P - Pprev) + P, and the right-hand side is
its M rows plus tau dW times the noise load.  A step of a linear drift
without noise makes one operator product, the correction's residual; the
ledger adds one mass product and one segment sum per window.  Every product
calls scipy's compiled CSR kernel directly (`CsrProduct`), with the
arguments ``A @ X`` would pass it, so only the dispatch of ``@`` is saved,
and every bit stays as ``@`` makes it.

Runs.  The space is a direct sum of member spaces that share the scheme
config and the paths: a `fem.DirectSum`, such as the meshes of a spatial
ladder, or a plain space, the direct sum of itself alone, which steps by the
same code.  A direct sum is itself a `fem.FeSpace`, on its members' cells
stacked in member order, so the stepper reads its operators, its quadrature
weights, their split by member (``point_offsets``) and its initial
projection from the space alone.  The block has sum(n_dofs) rows, and each
(member, sample) pair is a *run*, numbered member-major: member m's sample s
is run m S + s.  Every test above, and every record of the march, is a run's
own: its max-norm (over its member's rows), tolerance, contraction test,
polish, full-Newton fallback, iteration count, failure and energy ledger.
Every operator assembled on the stacked cells is block-diagonal, so a
product, the drift and the ledger's segment sums give each run the bits of
its member's own march.  A round corrects the columns that hold an active
run; the other runs of those columns get rows of zeros in the residual, so
the shared frozen solve gives them exactly zero corrections (see
`linsolve.spd_solver` for the block-diagonal factor), and their rows are not
written back.  A run that falls back to full Newton takes it on this
stepper's own operators: its Jacobian is assembled on its member alone and
factored with the member's block of A (with a zero drift the frozen factor
is exact, and the residual's other rows are zeroed as in a round), each
iterate's product and residual cover its whole column, and only its rows are
written back.  A failed run ends its column: the column is dropped, and the
column's other runs are reported with its error.  The one exception to
bit-identical runs is a tridiagonal direct sum in which a correction
overflows: 0 times inf puts a NaN into a neighbouring member.

Rounds.  The active runs are those above the tolerance or with the polish
due.  A round gives each of them one frozen correction, so every active run
has taken the same number of corrections, and one count serves the
iteration cap.  The correction trial = C - solve(R) equals
C + solve(-R) bit for bit because both solvers of `linsolve` (LAPACK's
tridiagonal solve in 1D P1, SuperLU otherwise) are sign-symmetric.
The round's tests compare the runs' norms as Python floats (``tolist``), so
a block of a few runs pays no numpy call for them.  An active run's norm is
finite (a non-finite predictor norm makes its tolerance infinite or fails
the comparison), so a correction that passes the contraction test is finite
too.  A run that takes its polish is done, whatever its residual; a round
in which every active run polishes computes none.  When every run of the
round's columns is active and accepts, the trial replaces the columns
whole; otherwise only the accepted runs are written back, and a run whose
correction is rejected finishes the step alone with full Newton.  A run
that diverges, meets a non-finite residual or a LinearSolveError is dropped
from the block with its column and reported with its residual history,
which is rebuilt from the rounds' records only then; the others go on.  The quadrature values of the accepted
iterate are carried forward as the next step's u^n values.

Energy bookkeeping.  The time loop only solves.  A `_Ledger` books each
node by reference to the step's own arrays.  A flush forms V = D/tau and
M V for the window's nodes with one mass product, writes u.Mu, u.Ku, v.Mv,
dv.dMv, du.dKu, V(u) at the quadrature points and g.v into one array, and
reduces every (node, sample) column with one segment-sum product: the L2,
H1 and d_t norms, H and the energy-identity residuals at once.  The window
holds at most BLOCK_POINTS doubles (and at least one step); it is flushed
when full, before a failed sample is dropped, and at the end of the run.
An observer (see ``Observer``) sees node 0 when the march starts, then
each flushed window whole, as views of the ledger's stacks.

Batch independence: a sample's numbers are bit-identical whether it steps
alone or inside any batch, so that outputs do not depend on how samples are
split over workers; a run's likewise whether its member steps alone or in
any direct sum.  Every operation is column-wise in exact arithmetic
order: sparse products (the segment sums among them), solves with several
right-hand sides (tridiagonal LAPACK or SuperLU, each column alone),
elementwise maps and max-norms.  Neither the window length nor the moment
of a flush enters any sum, so the numbers do not depend on the window
either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .diffusion import Diffusion
from .drift import FULLY_IMPLICIT, MODIFIED_CN, SCHEMES, PolynomialDrift
from .fem import CsrProduct, FeSpace, assemble_weighted_mass, l2_project, segment_sums
from .linsolve import LinearSolveError, spd_solver
from .noise import BrownianPath

__all__ = [
    "SchemeConfig",
    "Trajectory",
    "WaveStepper",
    "NewtonDivergedError",
    "initial_state",
]

# A frozen correction must shrink the residual's max-norm at least this much
# to be accepted.
CHORD_CONTRACTION = 0.1

# A column meets the tolerance when its residual's max-norm is at most
# max(newton_abs_tol, NEWTON_REL_TOL * the predictor's), and is dropped when
# NEWTON_MAX_ITER accepted corrections leave it above.
NEWTON_REL_TOL = 1e-10
NEWTON_MAX_ITER = 30

# A chord iterate that meets the tolerance takes one more frozen correction
# (the polish) unless its residual is already at most this fraction of it.
POLISH_FRACTION = 0.01

# Doubles per working block.  Measured per sample-step on one core (1D levels
# 128 and 512, 2D levels 8 and 16): the cost falls with the batch until its
# (nc, nq, S) arrays pass 2**14 doubles (128 KiB, glibc's default mmap
# threshold); beyond it every temporary is mapped afresh and its page faults
# make larger batches slower (2D level 16: 0.47 ms at S = 5, 0.66 ms at S = 16).
# The ensemble sizes its batches by it, and a march its energy window.
BLOCK_POINTS = 2**14

# observe(n0, live, U, V): a window of k consecutive nodes n0..n0+k-1, the
# batch positions of the samples still running, and their displacements and
# velocities, of shape (k, len(live), n_dofs).  It sees node 0 alone when
# the march starts and then every window of the energy ledger as it is
# flushed, so each node of a march reaches it once and in order; a window
# ends before any sample is dropped, so ``live`` holds for all its nodes.
# U and V are transposed, strided views of the ledger's node-major stacks
# of the window: valid during the call only, and not to be written.
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

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        # a NaN tolerance would accept every predictor, since no norm exceeds it
        if not (math.isfinite(self.newton_abs_tol) and self.newton_abs_tol > 0):
            raise ValueError(
                f"newton_abs_tol must be finite and positive, got {self.newton_abs_tol}"
            )


@dataclass
class Trajectory:
    """Per-node norm and energy series of a batch of sample paths, plus diagnostics.

    Each series has one row per finished run, in run order: member m's
    sample s is run m S + s for S paths (on a plain space, runs are
    samples).  ``samples`` holds the finished runs' numbers and ``failures``
    maps every dropped run to its error, in the order they were dropped.  ``newton_iters`` holds, per step, the
    number of accepted corrections: frozen-Jacobian (chord) and full-Newton
    ones alike, the polish included where it was taken (see
    POLISH_FRACTION); rejected frozen corrections are not counted.
    """

    l2sq: np.ndarray
    h1sq: np.ndarray
    dtl2sq: np.ndarray
    hamiltonians: np.ndarray
    energy_residuals: np.ndarray  # one per step
    newton_iters: np.ndarray
    samples: np.ndarray
    failures: dict[int, Exception]

    @property
    def max_energy_violation(self):
        """max_n r_n / (1 + |H_n|) per run: stays <= ~1e-8 for an admissible scheme."""
        scale = 1.0 + np.abs(self.hamiltonians[..., :-1])
        return np.max(self.energy_residuals / scale, axis=-1)


def initial_state(space: FeSpace, h1: Callable, h2: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients (u^0, v^0) of the initial displacement and velocity
    projected onto the space: of a direct sum, onto each member (its mass
    matrix is block-diagonal, see `fem.DirectSum`)."""
    return l2_project(space, h1), l2_project(space, h2)


class WaveStepper:
    """Advances the scheme on a fixed space or direct sum of spaces.

    Immutable after construction: a march, full Newton included, builds no
    operator but the Jacobian of a run that falls back to it.
    """

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
        M = space.mass
        self.A = (M + self._tau2 * space.stiffness).tocsr()
        self._drift_is_zero = drift.is_zero
        self._noisy = not diffusion.is_zero
        self._needs_q = self._noisy or not self._drift_is_zero
        # W c = [A c; M c; K c], then c's quadrature values Q c when the drift
        # or the noise reads them: each row is summed as in A, M, K or Q alone
        blocks = [self.A, M, space.stiffness]
        if self._needs_q:
            blocks.append(space.qpoint_product.matrix)
        self.W = CsrProduct(sp.vstack(blocks, format="csr"))
        self.mass_product = CsrProduct(M)
        self.load_product = space.load_product
        offsets, points = space.offsets, space.point_offsets
        self._members = len(offsets) - 1
        self._starts = offsets[:-1]
        # per member: its rows of a coefficient block, of the products W c
        # (its rows of A c, M c, K c and Q c) and of the quadrature values
        spans = [(offsets, i * space.n_dofs) for i in range(3)]
        spans += [(points, 3 * space.n_dofs)] if self._needs_q else []
        self._rows = [
            (
                slice(offsets[m], offsets[m + 1]),
                np.concatenate([np.arange(b[m], b[m + 1]) + shift for b, shift in spans]),
                slice(points[m], points[m + 1]),
            )
            for m in range(self._members)
        ]
        # the ledger's column sums of u.Mu, u.Ku, v.Mv, (w V(u_q),) dv.dMv,
        # du.dKu (and g.v): row r, one per block of its products and member,
        # sums the member's rows of the block, entries bounds[r]:bounds[r + 1]
        ones = (np.diff(offsets), np.ones(space.n_dofs))
        weights = (np.diff(points), space.wdet.ravel())
        blocks = [ones] * 3 + ([] if self._drift_is_zero else [weights]) + [ones] * (2 + self._noisy)
        self.ledger_sums = segment_sums(
            np.concatenate([values for _, values in blocks]),
            np.cumsum([0, *np.concatenate([size for size, _ in blocks])]),
        )
        w0 = self._jacobian_weight(np.zeros(1), np.zeros(1))[0]
        self._frozen_solve = spd_solver(self.A - self._tau2 * w0 * M, offsets)
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
        self, P: np.ndarray, rhs: np.ndarray, unq: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """R(C) of the iterate C whose product W C is P, and each run's max |R|.

        Rows 3 n_dofs on of P hold C's quadrature values, one row per point,
        when the drift or the noise needs them; ``unq`` holds u^n's likewise.
        P is not written.  The norms are run-major: member m's norm of column
        s is entry m * S + s.  A run's norm is NaN if its residual holds a NaN.
        """
        n = rhs.shape[0]
        if self._drift_is_zero:
            R = P[:n] - rhs
        else:
            R = P[:n] - self._tau2 * self.load_product(self._drift_values(P[3 * n :], unq))
            R -= rhs
        return R, np.maximum.reduceat(np.abs(R), self._starts, axis=0).ravel()

    # -- one step of a block ----------------------------------------------------

    def _solve(
        self, step: int, C: np.ndarray, P: np.ndarray, rhs: np.ndarray, unq: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, list[int], dict[int, Exception]]:
        """Solve R(c) = 0 for every run of the predictor block C, whose
        product W C is P; C and P may be written.

        Returns the solutions, their products W c, the accepted corrections
        per run and the errors of the runs that failed, runs numbered
        member-major (member m's column s is run m * S + s).
        """
        S = C.shape[1]
        k = self._members
        R, rn = self._residual(P, rhs, unq)
        r = rn.tolist()  # each run's last accepted residual norm
        tol = [max(self.config.newton_abs_tol, NEWTON_REL_TOL * x) for x in r]
        act = [j for j in range(k * S) if r[j] > tol[j]]  # the active runs, all finite
        errors: dict[int, Exception] = {}
        if len(act) < k * S:  # the others meet the tolerance or are not finite
            errors = {
                j: NewtonDivergedError(step, [x]) for j, x in enumerate(r) if not math.isfinite(x)
            }
        rounds = [(range(k * S), rn)]  # each round's runs and residual norms
        iters = [0] * (k * S)
        polish = [False] * (k * S)  # polish[j]: run j's extra frozen correction is due
        due = 0  # polishes due among the active runs
        taken = 0  # corrections taken by every active run
        while act:
            if taken >= NEWTON_MAX_ITER:  # a run whose polish is due meets tol
                for j in act:
                    if polish[j]:
                        iters[j] = taken
                    else:
                        errors[j] = NewtonDivergedError(step, _history(rounds, j))
                break
            # the round's columns: every run of a column shares its correction
            cols = range(S) if len(act) == k * S else sorted({j % S for j in act})
            full = len(cols) == S
            Rc = R if full else R[:, cols]
            # the other runs of those columns are done: rows of zeros give
            # them exactly zero corrections, and their rows are not written back
            idle = len(act) < k * len(cols)
            if idle:
                going_on = set(act)
                for i, c in enumerate(cols):
                    for m in range(k):
                        if m * S + c not in going_on:
                            Rc[self._rows[m][0], i] = 0.0
            trial = (C if full else C[:, cols]) - self._frozen_solve(Rc)
            taken += 1
            Pt = self.W(trial)
            if due == len(act):  # all polish, and nothing reads the polish's residual
                Rt = new = None
            else:
                if full:
                    Rt, rt = self._residual(Pt, rhs, unq)
                else:
                    Rt, rt = self._residual(Pt, rhs[:, cols], None if unq is None else unq[:, cols])
                new = rt.tolist()  # member-major over the round's columns
                if idle:  # keep the active runs' norms, in act's order
                    place = {c: i for i, c in enumerate(cols)}
                    new = [new[j // S * len(cols) + place[j % S]] for j in act]
            going, ok, rejected = [], [], []  # runs; positions in act
            due = 0
            for i, j in enumerate(act):
                if polish[j]:  # done, whatever its residual
                    ok.append(i)
                    iters[j] = taken
                elif new[i] <= CHORD_CONTRACTION * r[j]:
                    ok.append(i)
                    r[j] = x = new[i]
                    if x > tol[j]:
                        going.append(j)
                    elif not self._frozen_is_exact and POLISH_FRACTION * tol[j] < x:
                        polish[j] = True
                        due += 1
                        going.append(j)
                    else:
                        iters[j] = taken
                else:
                    rejected.append(i)
            # only the runs going on read R again, and a polish round has none
            if rejected or idle:
                for i in ok:
                    m, c = divmod(act[i], S)
                    rows, wrows, _ = self._rows[m]
                    p = c if full else cols.index(c)
                    C[rows, c], P[wrows, c] = trial[rows, p], Pt[wrows, p]
                    if Rt is not None:
                        R[rows, c] = Rt[rows, p]
            elif full:
                C, P, R = trial, Pt, Rt
            else:
                C[:, cols], P[:, cols] = trial, Pt
                if Rt is not None:
                    R[:, cols] = Rt
            for i in rejected:  # continues alone with full Newton
                j = act[i]
                try:
                    iters[j] = taken - 1 + self._newton(
                        step, j, C, P, R, rhs, unq, tol[j], taken - 1, _history(rounds, j)
                    )
                except (NewtonDivergedError, LinearSolveError) as exc:
                    errors[j] = exc
            rounds.append((act, new))
            act = going
        return C, P, iters, errors

    def _newton(
        self, step: int, j: int, C: np.ndarray, P: np.ndarray, R: np.ndarray,
        rhs: np.ndarray, unq: np.ndarray | None, tol: float, iters: int, history: list[float],
    ) -> int:
        """Full Newton on run j from its last accepted iterate.

        Corrects only the run's rows of its column, with the Jacobian of its
        member, assembled on the member alone.  Each iterate's product W x
        and residual are formed on the whole column, whose other rows keep
        their values; only the run's rows of C, P = W C and R(C) are written
        back.  Returns the number of corrections taken.
        """
        m, c = divmod(j, C.shape[1])
        rows, wrows, qrows = self._rows[m]
        member, A = self.space.members[m], self.A[rows, rows]
        n = C.shape[0]
        s = slice(c, c + 1)
        x, p, r = C[:, s].copy(), P[:, s], R[:, s]
        b, uq = rhs[:, s], None if unq is None else unq[:, s]
        taken = 0
        while history[-1] > tol:
            if iters + taken >= NEWTON_MAX_ITER:
                raise NewtonDivergedError(step, history)
            if self._drift_is_zero:  # J0 is the exact Jacobian
                run_r = np.zeros_like(r)  # zero rows solve to zero corrections
                run_r[rows] = r[rows]
                x = x - self._frozen_solve(run_r)
            else:
                w = self._jacobian_weight(p[3 * n :][qrows, 0], uq[qrows, 0])
                weighted = assemble_weighted_mass(member, w.reshape(member.wdet.shape))
                x[rows] -= spd_solver(A - self._tau2 * weighted)(r[rows])
            p = self.W(x)
            r, rn = self._residual(p, b, uq)
            history.append(float(rn[m]))
            if not math.isfinite(history[-1]):
                raise NewtonDivergedError(step, history)
            taken += 1
        C[rows, c], P[wrows, c], R[rows, c] = x[rows, 0], p[wrows, 0], r[rows, 0]
        return taken

    # -- stepping ----------------------------------------------------------------

    def run(
        self,
        paths: Sequence[BrownianPath],
        initial: tuple[np.ndarray, np.ndarray],
        observe: Observer | None = None,
    ) -> Trajectory:
        """Step the batch of paths as one block from the initial coefficients
        (u^0, v^0), of all members for a direct sum (see `initial_state`).

        A run whose solve fails is dropped with its column and reported in
        ``Trajectory.failures``; the others go on.  ``observe``, if given,
        sees the nodes n = 0..N a window at a time (see ``Observer``).
        """
        cfg = self.config
        tau = cfg.tau
        paths = list(paths)
        if not paths:
            raise ValueError("run needs at least one path")
        for path in paths:
            if path.n_steps != cfg.n_steps:
                raise ValueError(
                    f"path has {path.n_steps} steps, config expects {cfg.n_steps}"
                )
            if not np.isclose(path.tau, tau, rtol=1e-12, atol=0.0):
                raise ValueError(f"path tau {path.tau} != config tau {tau}")
        dW = np.array([p.increments for p in paths], dtype=float)
        S, N = dW.shape
        bad = np.argwhere(~np.isfinite(dW))
        if bad.size:
            raise ValueError(f"non-finite Brownian increment at step {bad[0, 1]}")
        failures: dict[int, Exception] = {}
        k = self._members

        u0, v0 = initial
        U = np.repeat(u0[:, None], S, axis=1)
        V = np.repeat(v0[:, None], S, axis=1)
        n = U.shape[0]
        D = tau * V  # u^0 - u^{-1}
        P, Pprev = self.W(U), self.W(U - D)  # W u^n, W u^{n-1}
        ledger = _Ledger(self, dW, U, V, P, observe)
        live = ledger.live

        noise = None
        for step in range(N):
            uq = P[3 * n :] if self._needs_q else None
            Pc = P - Pprev  # W D, and then the predictor's product W (u^n + D)
            Pc += P
            if self._noisy:
                noise = self.load_product(self.diffusion.value(uq))
                # member 0's runs hold the increments, one per column
                rhs = Pc[n : 2 * n] + noise * (tau * ledger.dW[: live.size, step])
            else:
                rhs = Pc[n : 2 * n].copy()  # the solve may write Pc
            C, P1, it, errors = self._solve(step, U + D, Pc, rhs, uq)
            if errors:
                ends = {}  # the first failed run of each column ends it
                for j in sorted(errors):
                    ends.setdefault(j % live.size, errors[j])
                cols = np.ones(live.size, dtype=bool)
                cols[list(ends)] = False
                keep = np.tile(cols, k)  # the runs that go on
                for j in np.flatnonzero(~keep):
                    failures[int(ledger.runs[j])] = errors.get(j, ends[j % live.size])
                ledger.drop(keep)
                live = ledger.live
                if not live.size:
                    break
                it = np.asarray(it)[keep]
                C, P1 = C[:, cols], P1[:, cols]
                U, P = U[:, cols], P[:, cols]
                if self._noisy:
                    noise = noise[:, cols]
            D = C - U
            ledger.book(C, D, P1, noise, it)
            U, Pprev, P = C, P, P1

        ledger.flush()
        done = ledger.runs
        series, resid, iters = ledger.series, ledger.resid, ledger.iters
        if failures:  # otherwise every row is kept, and nothing is copied
            series, resid, iters = series[:, done], resid[done], iters[done]
        return Trajectory(*series, resid, iters, samples=done, failures=failures)


class _Ledger:
    """The norm and energy series of one march, reduced a window at a time.

    ``held`` keeps, per node not yet reduced, references to the step's own
    arrays: u, its step D, the rows of W u below A u's (M u, K u and the
    quadrature values) and, with noise, the load of g(u_prev) that drove
    the step.  Nothing writes them after their step, so booking copies
    nothing.  A flush joins each kind into a node-major stack, column i S + s
    holding node i of sample s, and sums every product block of its columns
    with one product by ``WaveStepper.ledger_sums``, one row per member.  Of
    the last node it keeps v, M v and K u (``last``) and H (``H_last``) for
    the next flush to difference against.  The series, the residuals, the
    iteration counts, ``H_last`` and the increments ``dW`` are indexed by
    run, as in `Trajectory`; ``runs`` lists the runs still going on, ``rows``
    indexes their series (all of them until a column is dropped) and
    ``live`` lists the batch positions of the columns that hold them.  The
    observer, if any, sees node 0 at once and every later node at the flush
    that reduces it.
    """

    def __init__(self, stepper: WaveStepper, dW, U, V, P, observe: Observer | None):
        S, N = dW.shape
        self.n = n = U.shape[0]
        self.members = k = stepper._members
        self.tau = stepper.config.tau
        self.dW = np.tile(dW, (k, 1))
        self.runs = np.arange(k * S)
        self.live = np.arange(S)
        self.rows = slice(None)
        self.observe = observe
        self.series = np.empty((4, k * S, N + 1))  # l2sq, h1sq, dtl2sq, H per node
        self.resid = np.empty((k * S, N))
        self.iters = np.zeros((k * S, N), dtype=np.int64)
        self.mass_product = stepper.mass_product
        self.sums = stepper.ledger_sums
        self.potential = None if stepper._drift_is_zero else stepper.drift.potential
        self.noisy = stepper._noisy
        # held per node and sample: u, D, the rows of W u below A u's and the
        # noise load
        per_node = P.shape[0] + n * (2 if self.noisy else 1)
        self.window = max(1, min(N, BLOCK_POINTS // (S * per_node) - 1))
        self.held, self.held_iters = [], []
        self.n0 = 0  # the node of ``last``
        MV = self.mass_product(V)
        E = np.zeros((self.sums.shape[1], S))  # the step rows stay zero
        sums = self.sums(self._fill(E, U, P[n:], V, MV)).reshape(-1, k * S)
        H = self._hamiltonian(sums)
        self.series[:3, :, 0], self.series[3, :, 0] = sums[:3], H
        self.last, self.H_last = (V, MV, P[2 * n : 3 * n]), H
        if observe is not None:
            observe(0, self.live, U.T[None], V.T[None])

    def _fill(self, E, U, B, V, MV):
        """Write u.Mu, u.Ku, v.Mv and, with a drift, V(u) at the quadrature
        points into the first row blocks of E, where B holds M u, K u and the
        quadrature values; returns E."""
        n = self.n
        np.multiply(U, B[:n], out=E[:n])
        np.multiply(U, B[n : 2 * n], out=E[n : 2 * n])
        np.multiply(V, MV, out=E[2 * n : 3 * n])
        if self.potential is not None:
            self.potential(B[2 * n :], out=E[3 * n : 3 * n + B.shape[0] - 2 * n])
        return E

    def _hamiltonian(self, sums):
        """H = |v|_M^2 / 2 + |u|_K^2 / 2 + the quadrature of V(u), per column."""
        H = 0.5 * sums[2] + 0.5 * sums[1]
        if self.potential is not None:
            H += sums[3]
        return H

    def book(self, C, D, P, noise, iters) -> None:
        """Hold a step's node and its runs' accepted corrections; flush when full."""
        node = (C, D, P[self.n :])
        self.held.append(node if noise is None else node + (noise,))
        self.held_iters.extend(iters)
        if len(self.held) >= self.window:
            self.flush()

    def flush(self) -> None:
        """Reduce the held nodes into the series; keep the last one's rows."""
        k, n = len(self.held), self.n
        if not k:
            return
        held = self.held
        U, D, B, *G = held[0] if k == 1 else (np.concatenate(X, axis=1) for X in zip(*held))
        S = U.shape[1] // k
        V = D / self.tau
        MV = self.mass_product(V)
        E = self._fill(np.empty((self.sums.shape[1], k * S)), U, B, V, MV)
        # the step rows: dv.dMv, du.dKu and, with noise, g.v
        m = E.shape[0] - n * (3 if self.noisy else 2)
        dV, dKU, dMV = E[m : m + n], E[m + n : m + 2 * n], np.empty(V.shape)
        KU = B[n : 2 * n]
        for d, X, x0 in zip((dV, dMV, dKU), (V, MV, KU), self.last):
            np.subtract(X[:, :S], x0, out=d[:, :S])
            np.subtract(X[:, S:], X[:, :-S], out=d[:, S:])
        dV *= dMV
        dKU *= D
        if self.noisy:
            np.multiply(G[0], V, out=E[m + 2 * n :])
        # per kind of sum, run and node
        sums = self.sums(E).reshape(-1, self.members, k, S).transpose(0, 1, 3, 2)
        sums = sums.reshape(len(sums), -1, k)
        H = self._hamiltonian(sums)
        a, b = self.n0 + 1, self.n0 + k + 1
        self.series[:3, self.rows, a:b] = sums[:3]
        self.series[3][self.rows, a:b] = H
        j = len(sums) - (3 if self.noisy else 2)
        H_prev = np.concatenate([self.H_last[:, None], H[:, :-1]], axis=1)
        resid = H - H_prev + 0.5 * sums[j] + 0.5 * sums[j + 1]
        if self.noisy:
            resid -= sums[j + 2] * self.dW[:, a - 1 : b - 1]
        self.resid[self.rows, a - 1 : b - 1] = resid
        self.iters[self.rows, a - 1 : b - 1] = np.array(self.held_iters).reshape(k, -1).T
        self.last, self.H_last = (V[:, -S:], MV[:, -S:], KU[:, -S:]), H[:, -1]
        self.held, self.held_iters = [], []
        self.n0 = b - 1
        if self.observe is not None:
            shown = (X.reshape(n, k, S).transpose(1, 2, 0) for X in (U, V))
            self.observe(a, self.live, *shown)

    def drop(self, keep: np.ndarray) -> None:
        """Flush, then keep only the runs of the run mask ``keep``, which
        holds or ends each column's runs together."""
        self.flush()
        cols = keep[: self.live.size]  # member 0's runs, one per column
        self.live = self.live[cols]
        self.runs = self.rows = self.runs[keep]
        self.dW = self.dW[keep]
        self.last = tuple(x[:, cols] for x in self.last)
        self.H_last = self.H_last[keep]


def _history(rounds: list[tuple[Sequence[int], Sequence[float]]], j: int) -> list[float]:
    """Column j's residual norms, one per round it took part in."""
    return [float(v[c.index(j)]) for c, v in rounds if j in c]
