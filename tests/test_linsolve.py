import numpy as np
import pytest
import scipy.sparse as sp

from stochwave.fem import FeSpace
from stochwave.linsolve import LinearSolveError, spd_solver
from stochwave.mesh import build_interval_mesh, build_unit_square_tri_mesh


@pytest.mark.parametrize(
    "mesh", [build_interval_mesh(32), build_unit_square_tri_mesh(8)], ids=["1d", "2d"]
)
def test_solve_matches_dense(mesh):
    space = FeSpace(mesh, 1, 2)
    A = space.mass + 0.01 * space.stiffness
    b = np.random.default_rng(0).standard_normal(space.n_dofs)
    solve = spd_solver(A)
    x = np.linalg.solve(A.toarray(), b)
    assert np.abs(solve(b) - x).max() <= 1e-12 * np.abs(x).max()
    assert np.abs(solve(2 * b) - 2 * x).max() <= 1e-12 * np.abs(x).max()  # reusable


def test_singular_matrix_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(LinearSolveError):
        spd_solver(A)


def test_nonpositive_diagonal_raises():
    A = sp.csr_matrix(np.array([[2.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(LinearSolveError):
        spd_solver(A)
