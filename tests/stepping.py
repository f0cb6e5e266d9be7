"""Test helpers that step through `WaveStepper.run` and read its observer."""

import numpy as np

from stochwave.fem import FeFunction
from stochwave.noise import BrownianPath
from stochwave.stepper import State


def observed_nodes(stepper, paths, init):
    """Run; return the trajectory and, per node n, the (live, U, V) the
    observer showed, U and V as (n_dofs, len(live)) copies.

    Checks the window contract on the way: every window starts at the node
    after the last one seen, so each node arrives exactly once and in order.
    """
    nodes = []

    def keep(n0, live, U, V):
        assert n0 == len(nodes) and U.shape == V.shape == (len(U), live.size, init.u.coeffs.size)
        nodes.extend((live.copy(), u.T.copy(), v.T.copy()) for u, v in zip(U, V))

    return stepper.run(paths, init, observe=keep), nodes


def run_states(stepper, path, init):
    """Run one path; return the trajectory and its (U, V) coefficient stacks,
    row n holding node n."""
    traj, nodes = observed_nodes(stepper, path, init)
    assert len(nodes) == traj.l2sq.shape[-1]
    return traj, np.array([u[:, 0] for _, u, _ in nodes]), np.array([v[:, 0] for _, _, v in nodes])


def one_step(stepper, state: State, dW: float) -> State:
    """One step of one sample (a stepper configured for one step): a batch
    of one through the stepping core."""
    path = BrownianPath(stepper.config.tau, np.array([dW], dtype=float), 0, 0)
    _, U, V = run_states(stepper, path, state)
    space = stepper.space
    return State(state.n + 1, FeFunction(space, U[1]), FeFunction(space, V[1]))
