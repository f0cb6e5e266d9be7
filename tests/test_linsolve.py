import numpy as np
import pytest
import scipy.sparse as sp

import stochwave.linsolve
from stochwave.fem import FeSpace
from stochwave.linsolve import LinearSolveError, _superlu_solver, spd_solver
from stochwave.mesh import build_interval_mesh, build_unit_square_tri_mesh


def _frozen_jacobian(space: FeSpace, tau: float) -> sp.csr_matrix:
    """The stepper's J0 = M + tau^2 K - tau^2 w M for a drift with w(0, 0) = -1."""
    M = space.mass
    return (M + tau**2 * space.stiffness).tocsr() + tau**2 * M


def _only_path(monkeypatch, path: str) -> None:
    """Make the solver path other than ``path`` fail if it is taken."""
    other = {"tridiagonal": "_superlu_solver", "superlu": "_tridiagonal_solver"}[path]

    def refuse(A):
        raise AssertionError(f"{other} taken; the {path} path was expected")

    monkeypatch.setattr(stochwave.linsolve, other, refuse)


# (space, path): 1D P1 is tridiagonal; 2D P1 and 1D P2 (bandwidth 2) are not
SPACES = {
    "1d": (lambda: FeSpace(build_interval_mesh(32), 1, 2), "tridiagonal"),
    "1d-p2": (lambda: FeSpace(build_interval_mesh(16), 2, 4), "superlu"),
    "2d": (lambda: FeSpace(build_unit_square_tri_mesh(8), 1, 2), "superlu"),
}


@pytest.fixture(params=list(SPACES))
def system(request, monkeypatch):
    """An SPD operator, its solve by the path its structure selects, and a
    right-hand-side block."""
    make, path = SPACES[request.param]
    space = make()
    A = space.mass + 0.01 * space.stiffness
    _only_path(monkeypatch, path)
    R = np.random.default_rng(1).standard_normal((space.n_dofs, 5))
    return A, spd_solver(A), R


def test_solve_matches_dense(system):
    A, solve, _ = system
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x = np.linalg.solve(A.toarray(), b)
    assert np.abs(solve(b) - x).max() <= 1e-12 * np.abs(x).max()
    assert np.abs(solve(2 * b) - 2 * x).max() <= 1e-12 * np.abs(x).max()  # reusable


@pytest.mark.parametrize("level", [8, 64, 512])
def test_tridiagonal_matches_superlu(level, monkeypatch):
    A = _frozen_jacobian(FeSpace(build_interval_mesh(level), 1, 2), 0.1 / level)
    R = np.random.default_rng(level).standard_normal((level + 1, 8))
    want = _superlu_solver(A)(R)
    _only_path(monkeypatch, "tridiagonal")
    got = spd_solver(A)(R)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_block_solve_is_bit_identical_to_single_columns(system):
    _, solve, R = system
    X = solve(R)
    for j in range(R.shape[1]):
        assert np.array_equal(X[:, j], solve(R[:, j].copy()))
        assert np.array_equal(X[:, j : j + 1], solve(R[:, j : j + 1].copy()))


def test_solve_is_sign_symmetric(system):
    _, solve, R = system
    assert np.array_equal(-solve(-R), solve(R))


def test_solve_accepts_vectors_and_column_views_without_writing(system):
    _, solve, R = system
    before = R.copy()
    X = solve(R)
    for b, want in [
        (R[:, 2], X[:, 2]),  # (n,), strided
        (R[:, 2].copy(), X[:, 2]),  # (n,), contiguous
        (R[:, 2:3], X[:, 2:3]),  # (n, 1) column view, as full Newton passes it
        (R[:, 2:3].copy(), X[:, 2:3]),  # (n, 1), contiguous
        (R[:, [0, 3]], X[:, [0, 3]]),  # (n, S) gathered columns
        (np.asfortranarray(R), X),
    ]:
        x = solve(b)
        assert x.shape == b.shape and np.array_equal(x, want)
    assert np.array_equal(R, before)
    b = R[:, 1:2].copy()
    solve(b)
    assert np.array_equal(b, before[:, 1:2])


def test_singular_matrix_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(LinearSolveError):
        spd_solver(A)
    # wider than tridiagonal, with a positive diagonal: SuperLU finds it singular
    A = sp.csr_matrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
    with pytest.raises(LinearSolveError, match="sparse factorisation failed"):
        spd_solver(A)


def test_nonpositive_diagonal_raises():
    A = sp.csr_matrix(np.array([[2.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(LinearSolveError):
        spd_solver(A)


@pytest.mark.parametrize(
    "path, matrix",
    [
        ("tridiagonal", [[1.0, 2.0, 0.0], [2.0, 1.0, 2.0], [0.0, 2.0, 1.0]]),  # indefinite
        ("superlu", [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]]),  # indefinite
        ("superlu", [[1, 1, 0, 0], [1, 1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 1.0]]),  # zero pivot
        # a zero diagonal pivot makes SuperLU pivot off the diagonal, and every
        # entry of U's diagonal comes out 1: only the permutation tells
        ("superlu", [[1, 0, 0, -1], [0, 1, 2, -1], [0, 2, 0.5, -1], [-1, -1, -1, 2.0]]),
    ],
)
def test_indefinite_matrix_raises_on_each_path(path, matrix, monkeypatch):
    A = sp.csr_matrix(np.array(matrix))
    assert np.all(A.diagonal() > 0)  # the diagonal alone does not tell
    entered = []
    name = {"tridiagonal": "_tridiagonal_solver", "superlu": "_superlu_solver"}[path]
    real = getattr(stochwave.linsolve, name)
    monkeypatch.setattr(stochwave.linsolve, name, lambda A: entered.append(1) or real(A))
    with pytest.raises(LinearSolveError, match="not SPD"):
        spd_solver(A)
    assert entered


@pytest.mark.parametrize(
    "matrix",
    [
        [[np.nan, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]],  # tridiagonal, diagonal
        [[2.0, np.inf, 0.0], [np.inf, 2.0, 0.5], [0.0, 0.5, 2.0]],  # tridiagonal, off-diagonal
        [[2.0, 0.0, np.nan], [0.0, 2.0, 0.0], [np.nan, 0.0, 2.0]],  # wider band
        [[np.nan, 0.0, 0.5], [0.0, 2.0, 0.0], [0.5, 0.0, 2.0]],  # wider band, diagonal
    ],
)
def test_non_finite_matrix_raises(matrix):
    with pytest.raises(LinearSolveError, match="non-finite"):
        spd_solver(sp.csr_matrix(np.array(matrix)))


@pytest.mark.parametrize("case", list(SPACES))
def test_block_diagonal_solve_equals_each_blocks_own(case, monkeypatch):
    # a direct sum's operator, its blocks named by their offsets: each block's
    # rows get the bits of the block's own factor, and rows of zeros solve to
    # exact zeros whatever the other blocks hold
    make, path = SPACES[case]
    blocks = [make(), make(), make()]
    mats = [s.mass + 0.01 * (i + 1) * s.stiffness for i, s in enumerate(blocks)]
    offsets = np.cumsum([0] + [A.shape[0] for A in mats])
    _only_path(monkeypatch, path)
    solve = spd_solver(sp.block_diag(mats, format="csr"), offsets)
    R = np.random.default_rng(3).standard_normal((offsets[-1], 4))
    R[offsets[1] : offsets[2], 1] = 0.0
    X = solve(R)
    for A, a, b in zip(mats, offsets[:-1], offsets[1:]):
        assert np.array_equal(X[a:b], spd_solver(A)(R[a:b]))
    assert np.array_equal(X[offsets[1] : offsets[2], 1], np.zeros(offsets[2] - offsets[1]))
    assert not np.signbit(X[offsets[1] : offsets[2], 1]).any()
