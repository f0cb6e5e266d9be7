"""Test helpers that step through `WaveStepper.run` and read its observer,
and plain reference versions of the drift kernels the stepper calls."""

import numpy as np

from stochwave.noise import BrownianPath


def observed_nodes(stepper, paths, init):
    """Run the batch of paths from the initial coefficients (u0, v0); return
    the trajectory and, per node n, the (live, U, V) the observer showed, U
    and V as (n_dofs, len(live)) copies.

    Checks the window contract on the way: every window starts at the node
    after the last one seen, so each node arrives exactly once and in order.
    """
    nodes = []

    def keep(n0, live, U, V):
        assert n0 == len(nodes) and U.shape == V.shape == (len(U), live.size, init[0].size)
        nodes.extend((live.copy(), u.T.copy(), v.T.copy()) for u, v in zip(U, V))

    return stepper.run(paths, init, observe=keep), nodes


def run_states(stepper, path, init):
    """Run a batch of one path; return the trajectory and the path's (U, V)
    coefficient stacks, row n holding node n.  Raises the path's error if
    it fails."""
    traj, nodes = observed_nodes(stepper, [path], init)
    if traj.failures:
        raise traj.failures[0]
    assert len(nodes) == traj.l2sq.shape[-1]
    return traj, np.array([u[:, 0] for _, u, _ in nodes]), np.array([v[:, 0] for _, _, v in nodes])


def one_step(stepper, state, dW: float):
    """The coefficients (u1, v1) after one step of one sample from (u0, v0)
    (a stepper configured for one step): a batch of one through the
    stepping core."""
    path = BrownianPath(stepper.config.tau, np.array([dW], dtype=float))
    _, U, V = run_states(stepper, path, state)
    return U[1], V[1]


def reference_potential(drift, u):
    """V(u) = -sum a_j/(j+1) u^{j+1} by plain Horner evaluation from zero."""
    u = np.asarray(u, dtype=float)
    acc = np.zeros_like(u)
    for j in range(drift.q, 0, -1):
        acc = (acc - drift.coeffs[j - 1] / (j + 1)) * u
    return acc * u


def reference_potential_quotient(drift, a, b):
    """-(V(a)-V(b))/(a-b) through the recurrence s_j = b^j + a s_{j-1},
    summed into a zero total."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    bpow = b
    s = a + b
    total = np.zeros(s.shape)
    for j in range(1, drift.q + 1):
        if j > 1:
            bpow = bpow * b
            s *= a
            s += bpow
        aj = drift.coeffs[j - 1]
        if aj != 0.0:
            total += (aj / (j + 1)) * s
    return total
