"""Reference helpers that the tests measure the program against: point
evaluation, the load of a pointwise function of states, and the error norms
of one stored coupled pair."""

import numpy as np

from stochwave.fem import CsrProduct, _basis_1d, _basis_tri, _locate, transfer_matrix
from stochwave.metrics import _error_products, _error_sq


def evaluate(space, u: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the function with coefficients u at arbitrary points of the domain."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    cell, loc = _locate(space.mesh, points)
    if space.mesh.dimension == 1:
        basis = _basis_1d(space.degree, loc[:, 0])
    else:
        basis = _basis_tri(space.degree, loc[:, 0], loc[:, 1])
    return np.einsum("pl,pl->p", u[space.cell_dofs[cell]], basis)


def pointwise_load(space, fn, *states: np.ndarray) -> np.ndarray:
    """b[i] = integral of fn(state values at x) phi_i(x), by the space's
    quadrature: fn maps the quadrature values of the states (coefficient
    vectors) to the load's."""
    vals = fn(*(space.values_at_qpoints(s) for s in states))
    return space.load_product(vals.reshape(-1))


def energy_series(stepper, dW, U, V):
    """One sample's squared L2, H1 and d_t norms and H per node, and its
    energy-identity residual per step, by plain sums over its node stacks.

    ``U`` and ``V`` hold the sample's nodes, row n holding node n, and
    ``dW`` its increments.  H = |v|_M^2/2 + |u|_K^2/2 + the quadrature of
    the drift's potential; the residual of step n is H_{n+1} - H_n +
    |v_{n+1} - v_n|_M^2/2 + |u_{n+1} - u_n|_K^2/2 - (g(u_n), v_{n+1}) dW_n.
    """
    space, drift = stepper.space, stepper.drift
    M, K = space.mass.toarray(), space.stiffness.toarray()
    l2 = np.einsum("ni,ij,nj->n", U, M, U)
    h1 = np.einsum("ni,ij,nj->n", U, K, U)
    dt = np.einsum("ni,ij,nj->n", V, M, V)
    potential = [np.sum(space.wdet * drift.potential(space.values_at_qpoints(u))) for u in U]
    H = 0.5 * dt + 0.5 * h1 + np.array(potential)
    dU, dV = np.diff(U, axis=0), np.diff(V, axis=0)
    noise = np.array(
        [pointwise_load(space, stepper.diffusion.value, u) for u in U[:-1]]
    )
    resid = (
        np.diff(H)
        + 0.5 * np.einsum("ni,ij,nj->n", dV, M, dV)
        + 0.5 * np.einsum("ni,ij,nj->n", dU, K, dU)
        - np.einsum("ni,ni->n", noise, V[1:]) * dW
    )
    return l2, h1, dt, H, resid


def error_norms(coarse, ref, coarse_space, ref_space, tau_coarse, tau_ref):
    """Per-node (L2, H1-seminorm, d_t L2) error norms of one coupled pair.

    ``coarse`` and ``ref`` are (U, V) coefficient stacks, row n holding node
    n; tau_ref must divide tau_coarse and both must span the same time.  The
    coarse solution is lifted to the reference space and measured as the
    rate tables measure it.  The d_t series starts at node 1.
    """
    factor = round(tau_coarse / tau_ref)
    (Uc, Vc), (Ur, Vr) = coarse, ref
    Ur, Vr = Ur[::factor], Vr[::factor]
    E = None
    if coarse_space is not ref_space:
        E = CsrProduct(transfer_matrix(coarse_space, ref_space))
    l2sq, h1sq, dtl2sq = _error_sq(E, Uc.T, Vc.T, Ur.T, Vr.T, *_error_products(ref_space))
    return np.sqrt(l2sq), np.sqrt(h1sq), np.sqrt(dtl2sq[1:])
