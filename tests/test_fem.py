import numpy as np
import pytest
import scipy.sparse as sp

from stochwave.diffusion import Diffusion
from stochwave.drift import PolynomialDrift
from stochwave.fem import (
    CsrProduct,
    DirectSum,
    FeSpace,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    direct_sum,
    l2_project,
    load_vector,
    transfer_matrix,
)
from stochwave.fields import CosineProduct, TentBump
from stochwave.mesh import build_interval_mesh, build_unit_square_tri_mesh, refine_uniform
from stochwave.noise import BrownianPath
from stochwave.stepper import SchemeConfig, WaveStepper, initial_state
from oracles import evaluate, pointwise_load


def _dense_load_oracle(space, field, n_gauss=50):
    """Load vector by brute-force composite Gauss quadrature, 1D P1/P2."""
    x, w = np.polynomial.legendre.leggauss(n_gauss)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    b = np.zeros(space.n_dofs)
    mesh = space.mesh
    for c in range(mesh.n_cells):
        a = mesh.vertices[mesh.cells[c, 0], 0]
        bb = mesh.vertices[mesh.cells[c, 1], 0]
        hx = bb - a
        pts = a + hx * x
        vals = field(pts)
        if space.degree == 1:
            basis = np.stack([1 - x, x], axis=-1)
        else:
            basis = np.stack(
                [(1 - x) * (1 - 2 * x), x * (2 * x - 1), 4 * x * (1 - x)], axis=-1
            )
        for l, dof in enumerate(space.cell_dofs[c]):
            b[dof] += hx * np.dot(w, vals * basis[:, l])
    return b


# ---------------------------------------------------------------------------
# Assembly oracles
# ---------------------------------------------------------------------------

def test_mass_rows_1d_p1():
    space = FeSpace(build_interval_mesh(4), 1)
    M = space.mass.toarray()
    h = 0.25
    assert abs(M[2, 1] - h / 6) < 1e-14
    assert abs(M[2, 2] - 2 * h / 3) < 1e-14
    assert abs(M[2, 3] - h / 6) < 1e-14
    assert abs(M[0, 0] - h / 3) < 1e-14
    assert abs(M[4, 4] - h / 3) < 1e-14


def test_stiffness_rows_1d_p1():
    space = FeSpace(build_interval_mesh(4), 1)
    K = space.stiffness.toarray()
    h = 0.25
    assert abs(K[2, 1] + 1 / h) < 1e-14
    assert abs(K[2, 2] - 2 / h) < 1e-14
    assert abs(K[2, 3] + 1 / h) < 1e-14


def test_mass_row_sums_partition_of_unity():
    space = FeSpace(build_interval_mesh(8), 1)
    M = space.mass
    row_sums = np.asarray(M.sum(axis=1)).ravel()
    # row sum = integral of phi_i; total = measure of the domain
    assert abs(row_sums.sum() - 1.0) < 1e-12
    ones = np.ones(space.n_dofs)
    assert abs(ones @ (M @ ones) - 1.0) < 1e-12


def test_mass_total_2d():
    space = FeSpace(build_unit_square_tri_mesh(1), 1)
    assert abs(space.mass.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_matrices_symmetric_and_pd(dim, degree):
    mesh = build_interval_mesh(5) if dim == 1 else build_unit_square_tri_mesh(3)
    space = FeSpace(mesh, degree)
    M, K = space.mass, space.stiffness
    assert abs(M - M.T).max() == 0.0
    assert abs(K - K.T).max() == 0.0
    np.linalg.cholesky(M.toarray())  # positive definite
    evals = np.linalg.eigvalsh(K.toarray())
    assert evals.min() > -1e-12  # positive semidefinite


@pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_stiffness_kernel_constants(dim, degree):
    mesh = build_interval_mesh(6) if dim == 1 else build_unit_square_tri_mesh(2)
    space = FeSpace(mesh, degree)
    assert np.abs(space.stiffness @ np.ones(space.n_dofs)).max() < 1e-12


@pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_partition_of_unity_at_qpoints(dim, degree):
    mesh = build_interval_mesh(3) if dim == 1 else build_unit_square_tri_mesh(2)
    space = FeSpace(mesh, degree)
    ones = np.ones(space.n_dofs)
    vals = space.values_at_qpoints(ones)
    assert np.abs(vals - 1.0).max() < 1e-12


def test_stiffness_energy_quadratic():
    # coeffs of the interpolant of x^2: energy -> integral (2x)^2 = 4/3
    space = FeSpace(build_interval_mesh(64), 1)
    c = space.dof_coords[:, 0] ** 2
    energy = c @ (space.stiffness @ c)
    assert energy == pytest.approx(4.0 / 3.0, abs=5e-4)  # O(h^2) interpolation gap


def test_stiffness_energy_quadratic_p2_exact():
    space = FeSpace(build_interval_mesh(4), 2)
    c = space.dof_coords[:, 0] ** 2  # the nodal interpolant of x^2
    energy = c @ (space.stiffness @ c)
    assert energy == pytest.approx(4.0 / 3.0, rel=1e-13)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_project_constant():
    space = FeSpace(build_interval_mesh(5), 1)
    u = l2_project(space, lambda x: np.full_like(x, 3.5))
    assert np.abs(u - 3.5).max() < 1e-12


def test_project_idempotent_on_members():
    space = FeSpace(build_interval_mesh(8), 1)
    hat = np.zeros(space.n_dofs)
    hat[3] = 1.0
    proj = l2_project(space, lambda x: evaluate(space, hat, x[:, None]))
    assert np.abs(proj - hat).max() < 1e-12


def test_project_cos_matches_dense_oracle():
    space = FeSpace(build_interval_mesh(4), 1, quad_degree=30)
    field = lambda x: np.cos(np.pi * x)
    u = l2_project(space, field)
    b = _dense_load_oracle(space, field)
    expected = np.linalg.solve(space.mass.toarray(), b)
    assert np.abs(u - expected).max() < 1e-10


def test_project_residual_orthogonality():
    # |(field - P_h field, phi_i)| <= 1e-10 ||field||
    space = FeSpace(build_interval_mesh(16), 1, quad_degree=24)
    field = lambda x: np.cos(np.pi * x)
    u = l2_project(space, field)
    residual = load_vector(space, field) - space.mass @ u
    assert np.abs(residual).max() < 1e-10


def test_project_does_not_expand_l2_norm():
    space = FeSpace(build_interval_mesh(32), 1, quad_degree=20)
    field = lambda x: np.cos(3 * np.pi * x) + 0.5 * x
    u = l2_project(space, field)
    # ||f||^2 = 1/2 + 1/12 + 2 (g, 0.5 x) with the cross term -2/(9 pi^2)
    exact_norm = np.sqrt(0.5 + 1.0 / 12.0 - 2.0 / (9 * np.pi**2))
    # ||P_h f|| <= ||f|| up to quadrature tolerance
    assert np.sqrt(u @ (space.mass @ u)) <= exact_norm + 1e-8


# ---------------------------------------------------------------------------
# Discrete Laplacian: the weak Laplacian -M^{-1} K of the mass and stiffness
# ---------------------------------------------------------------------------

def _laplacian(space, z):
    return space.mass_solve(-(space.stiffness @ z))


def test_laplacian_of_constant_is_zero():
    space = FeSpace(build_interval_mesh(6), 1)
    y = _laplacian(space, np.full(space.n_dofs, 2.0))
    assert np.abs(y).max() < 1e-12


def test_laplacian_negative_semidefinite():
    rng = np.random.default_rng(3)
    space = FeSpace(build_unit_square_tri_mesh(3), 1)
    z = rng.standard_normal(space.n_dofs)
    assert _laplacian(space, z) @ (space.mass @ z) <= 1e-12


def test_laplacian_weak_identity():
    # (Lap_h u, w) + (grad u, grad w) = 0 for all basis w: mass_solve inverts M
    rng = np.random.default_rng(4)
    space = FeSpace(build_interval_mesh(9), 2)
    u = rng.standard_normal(space.n_dofs)
    gap = space.mass @ _laplacian(space, u) + space.stiffness @ u
    assert np.abs(gap).max() < 1e-10


def test_laplacian_eigenvalue_cos():
    space = FeSpace(build_interval_mesh(64), 1)
    z = l2_project(space, lambda x: np.cos(np.pi * x))
    rayleigh = (_laplacian(space, z) @ (space.mass @ z)) / (z @ (space.mass @ z))
    assert rayleigh == pytest.approx(-np.pi**2, rel=0.05)


# ---------------------------------------------------------------------------
# Pointwise loads: the load product of quadrature-point values
# ---------------------------------------------------------------------------

def test_pointwise_load_identity_gives_mass_action():
    rng = np.random.default_rng(5)
    space = FeSpace(build_interval_mesh(7), 1)
    u = rng.standard_normal(space.n_dofs)
    b = pointwise_load(space, lambda v: v, u)
    assert np.abs(b - space.mass @ u).max() < 1e-13


def test_pointwise_load_constant_one():
    space = FeSpace(build_unit_square_tri_mesh(2), 1)
    u = np.zeros(space.n_dofs)
    b = pointwise_load(space, lambda v: np.ones_like(v), u)
    assert b.sum() == pytest.approx(1.0, rel=1e-12)


def test_pointwise_load_cubic_vs_quadrature_oracle():
    space = FeSpace(build_interval_mesh(2), 1, quad_degree=4)
    hat = np.zeros(space.n_dofs)
    hat[1] = 1.0
    b = pointwise_load(space, lambda v: v**3, hat)

    def cubed(x):
        vals = np.where(x <= 0.5, 2 * x, 2 * (1 - x))
        return vals**3

    expected = _dense_load_oracle(space, cubed)
    assert np.abs(b - expected).max() < 1e-14


def test_pointwise_load_two_states():
    rng = np.random.default_rng(6)
    space = FeSpace(build_interval_mesh(5), 1, quad_degree=4)
    u = rng.standard_normal(space.n_dofs)
    v = rng.standard_normal(space.n_dofs)
    b = pointwise_load(space, lambda a, c: a * c, u, v)
    oracle = _dense_load_oracle(
        space,
        lambda x: evaluate(space, u, x[:, None]) * evaluate(space, v, x[:, None]),
    )
    assert np.abs(b - oracle).max() < 1e-13


# ---------------------------------------------------------------------------
# Norms: the mass and stiffness quadratic forms
# ---------------------------------------------------------------------------

def _sq_norms(space, c):
    """Squared L2 norm and H1 seminorm of coefficients c."""
    return c @ (space.mass @ c), c @ (space.stiffness @ c)


def test_norms_constant():
    space = FeSpace(build_interval_mesh(5), 1)
    l2sq, h1sq = _sq_norms(space, np.ones(space.n_dofs))
    assert l2sq == pytest.approx(1.0, rel=1e-12)
    # the quadratic form cancels to rounding
    assert h1sq == pytest.approx(0.0, abs=1e-14)


def test_h1_seminorm_linear_exact():
    space = FeSpace(build_interval_mesh(6), 1)
    assert _sq_norms(space, space.dof_coords[:, 0])[1] == pytest.approx(1.0, rel=1e-13)


def test_l2_norm_matches_mass_quadratic_form():
    # the series a run reports at node 0 are the quadratic forms of its state
    rng = np.random.default_rng(7)
    space = FeSpace(build_unit_square_tri_mesh(2), 2)
    u, v = (rng.standard_normal(space.n_dofs) for _ in range(2))
    stepper = WaveStepper(space, PolynomialDrift([0.0]), Diffusion.zero(), SchemeConfig(0.01, 1))
    traj = stepper.run([BrownianPath(0.01, np.zeros(1))], (u, v))
    l2sq, h1sq = _sq_norms(space, u)
    assert traj.l2sq[0, 0] == pytest.approx(l2sq, rel=1e-13)
    assert traj.h1sq[0, 0] == pytest.approx(h1sq, rel=1e-13)
    assert traj.dtl2sq[0, 0] == pytest.approx(_sq_norms(space, v)[0], rel=1e-13)


# ---------------------------------------------------------------------------
# Direct sums
# ---------------------------------------------------------------------------

def _assert_same_csr(A, B):
    A, B = sp.csr_matrix(A), sp.csr_matrix(B)
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


@pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1)])
def test_direct_sum_operators_apply_each_members_own(dim, degree):
    build = build_interval_mesh if dim == 1 else build_unit_square_tri_mesh
    members = [FeSpace(build(l), degree, 2 * degree + 2) for l in (2, 4, 8)]
    space = DirectSum(members)
    assert isinstance(space, FeSpace)
    assert space.members == tuple(members)
    assert list(space.offsets) == list(np.cumsum([0] + [m.n_dofs for m in members]))
    assert space.n_dofs == sum(m.n_dofs for m in members)
    # the operators of the stacked cells are the block-diagonal ones, entry for entry
    for operator in (
        lambda m: m.mass,
        lambda m: m.stiffness,
        lambda m: m.qpoint_product.matrix,
        lambda m: m.load_product.matrix,
    ):
        _assert_same_csr(operator(space), sp.block_diag([operator(m) for m in members]))
    X = np.random.default_rng(5).standard_normal((space.n_dofs, 3))
    Y = np.random.default_rng(6).standard_normal((space.load_product.shape[1], 3))
    # point_offsets split the quadrature points by member
    q = space.point_offsets
    split = np.split(space.wdet.ravel(), q[1:-1])
    assert q[0] == 0 and q[-1] == space.wdet.size and len(split) == len(members)
    assert all(np.array_equal(w, m.wdet.ravel()) for w, m in zip(split, members))
    for m, a, b, qa, qb in zip(members, space.offsets, space.offsets[1:], q, q[1:]):
        # every row is its member's row, summed in the same order
        assert np.array_equal((space.mass @ X)[a:b], m.mass @ X[a:b])
        assert np.array_equal((space.stiffness @ X)[a:b], m.stiffness @ X[a:b])
        assert np.array_equal(space.qpoint_product(X)[qa:qb], m.qpoint_product(X[a:b]))
        assert np.array_equal(space.load_product(Y)[a:b], m.load_product(Y[qa:qb]))
    weights = np.random.default_rng(8).uniform(0.5, 2.0, space.wdet.shape)
    cells = np.cumsum([0] + [m.wdet.shape[0] for m in members])
    _assert_same_csr(
        assemble_weighted_mass(space, weights),
        sp.block_diag(
            [assemble_weighted_mass(m, weights[a:b]) for m, a, b in zip(members, cells, cells[1:])]
        ),
    )
    # the sum's mass solve is block by block, so each member's projection
    # keeps the bits of its own (SuperLU orders a whole 2D sum otherwise)
    h1, h2 = CosineProduct(kx=1, ky=2), TentBump()
    u0, v0 = initial_state(space, h1, h2)
    for got, h in ((u0, h1), (v0, h2)):
        assert np.array_equal(got, np.concatenate([l2_project(m, h) for m in members]))


def test_a_space_of_degree_3_is_refused():
    with pytest.raises(ValueError, match="degree must be 1 or 2, got 3"):
        FeSpace(build_interval_mesh(4), 3)


def test_a_direct_sum_of_unlike_members_is_refused():
    p1 = FeSpace(build_interval_mesh(4), 1)
    for other in (
        FeSpace(build_interval_mesh(4), 2),  # another degree
        FeSpace(build_interval_mesh(8), 1, 6),  # another cell rule
        FeSpace(build_unit_square_tri_mesh(2), 1),  # another dimension
    ):
        with pytest.raises(ValueError, match="members differ"):
            DirectSum([p1, other])
    with pytest.raises(ValueError, match="at least one member"):
        DirectSum([])


def test_a_plain_space_is_the_direct_sum_of_itself():
    space = FeSpace(build_interval_mesh(4), 1)
    assert space.members == (space,)
    assert list(space.offsets) == [0, space.n_dofs]
    assert list(space.point_offsets) == [0, space.wdet.size]
    assert direct_sum([space]) is space
    assert isinstance(direct_sum([space, space]), DirectSum)


# ---------------------------------------------------------------------------
# Nested transfer
# ---------------------------------------------------------------------------

def test_transfer_constant():
    coarse = FeSpace(build_interval_mesh(2), 1)
    fine = FeSpace(refine_uniform(coarse.mesh), 1)
    v = transfer_matrix(coarse, fine) @ np.full(coarse.n_dofs, 2.5)
    assert np.abs(v - 2.5).max() < 1e-14


def test_transfer_hat_preserves_l2_norm():
    coarse = FeSpace(build_interval_mesh(2), 1)
    fine = FeSpace(refine_uniform(coarse.mesh), 1)
    hat = np.zeros(coarse.n_dofs)
    hat[1] = 1.0
    v = transfer_matrix(coarse, fine) @ hat
    assert abs(np.sqrt(_sq_norms(fine, v)[0]) - np.sqrt(_sq_norms(coarse, hat)[0])) < 1e-12


@pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_transfer_random_isometry(dim, degree):
    rng = np.random.default_rng(11)
    mesh = build_interval_mesh(4) if dim == 1 else build_unit_square_tri_mesh(2)
    coarse = FeSpace(mesh, degree)
    fine_mesh = refine_uniform(refine_uniform(mesh))
    fine = FeSpace(fine_mesh, degree)
    u = rng.standard_normal(coarse.n_dofs)
    v = transfer_matrix(coarse, fine) @ u
    for a, b in zip(_sq_norms(fine, v), _sq_norms(coarse, u)):
        assert abs(np.sqrt(a) - np.sqrt(b)) < 1e-12
    # pointwise agreement at the fine quadrature points
    pts = fine.qpoints.reshape(-1, dim)
    got = fine.values_at_qpoints(v).ravel()
    assert np.abs(got - evaluate(coarse, u, pts)).max() < 1e-12


def test_initial_coefficients_length_check():
    space = FeSpace(build_interval_mesh(4), 1)
    stepper = WaveStepper(space, PolynomialDrift([0.0]), Diffusion.zero(), SchemeConfig(0.01, 1))
    with pytest.raises(ValueError):
        stepper.run([BrownianPath(0.01, np.zeros(1))], (np.zeros(3), np.zeros(3)))


# ---------------------------------------------------------------------------
# Kernel products
# ---------------------------------------------------------------------------

def _products(dim):
    """The stepper's stacked [A; M; K; Q], Q and the load operator of a space."""
    mesh = build_interval_mesh(8) if dim == 1 else build_unit_square_tri_mesh(4)
    space = FeSpace(mesh, 1, 4)
    drift = PolynomialDrift([-1.0, 0.0, -1.0], alpha=1.0, lam=0.5)
    stepper = WaveStepper(space, drift, Diffusion.linear(1.0), SchemeConfig(0.01, 4))
    return {"W": stepper.W, "Q": space.qpoint_product, "load": space.load_product}


def _blocks(n):
    """Dense inputs of every layout the products meet."""
    rng = np.random.default_rng(3)
    block = rng.standard_normal((n, 5))
    return {
        "vector": rng.standard_normal(n),
        "column": rng.standard_normal((n, 1)),
        "c-order": block,
        "f-order": np.asfortranarray(block),
        "column-view": block[:, 2],
        "column-block-view": block[:, 2:3],
        "strided-column": rng.standard_normal((2 * n, 1))[::2],
        "strided-block": block[:, ::2],
    }


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", ["W", "Q", "load"])
def test_kernel_product_is_bit_identical_to_matmul(dim, name):
    product = _products(dim)[name]
    for layout, X in _blocks(product.shape[1]).items():
        got, want = product(X), product.matrix @ X
        assert got.shape == want.shape and got.dtype == want.dtype, layout
        assert np.array_equal(got, want), layout


def test_kernel_product_rejects_a_block_it_would_overrun():
    product = _products(1)["W"]
    n = product.shape[1]
    bad = [
        np.ones(n - 1),
        np.ones(n + 1),
        np.ones((n - 1, 3)),
        np.ones((n, 2)).T,
        np.ones((n, 2, 2)),
        np.ones(n, dtype=np.float32),
        np.ones((n, 3), dtype=np.int64),
        np.ones(n, dtype=complex),
    ]
    for X in bad:
        with pytest.raises(ValueError):
            product(X)
    with pytest.raises(ValueError):
        CsrProduct(product.matrix.astype(np.float32))
