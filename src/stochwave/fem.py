"""Lagrange finite element spaces on structured meshes.

Provides P1/P2 spaces, mass/stiffness/load assembly, L2 projection and the
exact transfer matrix between nested meshes.  Neumann boundary conditions
are natural: no dof is ever constrained.  `DirectSum` stacks the coefficient
vectors of several spaces into one, with block-diagonal operators, so that
one march can step them all.  `CsrProduct` applies a sparse operator to a
dense block through scipy's compiled CSR kernel, without the dispatch of
``@``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .linsolve import spd_solver
from .mesh import Mesh
from .quadrature import interval_rule, triangle_rule

__all__ = [
    "CsrProduct",
    "DirectSum",
    "FeSpace",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_weighted_mass",
    "direct_sum",
    "load_vector",
    "l2_project",
    "transfer_matrix",
]


# ---------------------------------------------------------------------------
# Reference bases
# ---------------------------------------------------------------------------

def _basis_1d(degree: int, xi: np.ndarray) -> np.ndarray:
    """Values of the local basis at reference coords, shape (npts, n_local)."""
    xi = np.asarray(xi)
    if degree == 1:
        return np.stack([1.0 - xi, xi], axis=-1)
    # local order: left vertex, right vertex, midpoint
    return np.stack(
        [(1.0 - xi) * (1.0 - 2.0 * xi), xi * (2.0 * xi - 1.0), 4.0 * xi * (1.0 - xi)],
        axis=-1,
    )


def _basis_grad_1d(degree: int, xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi)
    if degree == 1:
        return np.stack([-np.ones_like(xi), np.ones_like(xi)], axis=-1)
    return np.stack([4.0 * xi - 3.0, 4.0 * xi - 1.0, 4.0 - 8.0 * xi], axis=-1)


def _basis_tri(degree: int, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    lam = (1.0 - xi - eta, xi, eta)
    if degree == 1:
        return np.stack(lam, axis=-1)
    l0, l1, l2 = lam
    # local order: three vertices, then midpoints of edges (0,1), (1,2), (2,0)
    return np.stack(
        [
            l0 * (2.0 * l0 - 1.0),
            l1 * (2.0 * l1 - 1.0),
            l2 * (2.0 * l2 - 1.0),
            4.0 * l0 * l1,
            4.0 * l1 * l2,
            4.0 * l2 * l0,
        ],
        axis=-1,
    )


def _basis_grad_tri(degree: int, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi)
    npts = xi.shape[0]
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if degree == 1:
        return np.broadcast_to(dlam, (npts, 3, 2)).copy()
    lam = np.stack([1.0 - xi - eta, xi, eta], axis=-1)  # (npts, 3)
    grads = np.empty((npts, 6, 2))
    for i in range(3):
        grads[:, i, :] = (4.0 * lam[:, i, None] - 1.0) * dlam[i]
    for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        grads[:, 3 + k, :] = 4.0 * (lam[:, i, None] * dlam[j] + lam[:, j, None] * dlam[i])
    return grads


def _eval_field(field: Callable, points: np.ndarray) -> np.ndarray:
    """Call a user field f(x) or f(x, y) on an (npts, dim) coordinate array."""
    if points.shape[1] == 1:
        vals = field(points[:, 0])
    else:
        vals = field(points[:, 0], points[:, 1])
    return np.broadcast_to(np.asarray(vals, dtype=float), (points.shape[0],))


# ---------------------------------------------------------------------------
# Sparse products
# ---------------------------------------------------------------------------

_FLOAT64 = np.dtype(np.float64)


class CsrProduct:
    """X -> A @ X for a fixed float64 CSR matrix A, straight through the kernel.

    Calls scipy's ``csr_matvec`` for one column and ``csr_matvecs`` for a
    block, with the arguments and zeroed output that ``A @ X`` passes them
    (scipy's ``_matmul_vector`` and ``_matmul_multivector``), so every bit
    equals ``A @ X``; only the per-call dispatch of ``@`` is skipped.  X is
    a 1-D vector or an (n, S) block of any memory layout; the kernel reads
    the buffer of a C-contiguous X as it is and of any other a C-contiguous
    copy, and writes straight into an output of X's shape.  The kernel reads
    X without bounds checks, so its length and dtype are checked here.
    """

    __slots__ = ("matrix", "shape", "_csr")

    def __init__(self, matrix: sp.spmatrix):
        A = sp.csr_matrix(matrix)
        if A.dtype != _FLOAT64:
            raise ValueError(f"operator must be float64, got {A.dtype}")
        self.matrix = A
        self.shape = A.shape
        self._csr = (A.indptr, A.indices, A.data)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        m, n = self.shape
        shape = X.shape
        if X.dtype != _FLOAT64 or not 0 < len(shape) < 3 or shape[0] != n:
            raise ValueError(
                f"cannot apply a {m}x{n} operator to a {X.dtype} array of shape {shape}"
            )
        if not X.flags.c_contiguous:
            X = np.ascontiguousarray(X)
        if len(shape) == 1 or shape[1] == 1:
            y = np.zeros((m,) + shape[1:])
            _sparsetools.csr_matvec(m, n, *self._csr, X, y)
            return y
        Y = np.zeros((m, shape[1]))
        _sparsetools.csr_matvecs(m, n, shape[1], *self._csr, X, Y)
        return Y


# ---------------------------------------------------------------------------
# Space
# ---------------------------------------------------------------------------

class FeSpace:
    """Continuous P_r Lagrange space (r in {1, 2}) over a structured mesh.

    Tabulates reference basis values, physical gradients, and quadrature
    weights once at construction; everything downstream is vectorized over
    (cell, quadrature point).  ``quad_degree`` is the polynomial degree the
    cell rule integrates exactly; it must cover every nonlinearity evaluated
    through this space (degree r*q products for a degree-q drift).
    """

    def __init__(self, mesh: Mesh, degree: int = 1, quad_degree: int | None = None):
        if degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {degree}")
        if quad_degree is None:
            quad_degree = 2 * degree
        quad_degree = max(quad_degree, 2 * degree)
        self.mesh = mesh
        self.degree = degree
        self.quad_degree = quad_degree
        if mesh.dimension == 1:
            self._init_interval()
        else:
            self._init_triangles()

    # -- construction -------------------------------------------------------

    def _init_interval(self) -> None:
        mesh, r = self.mesh, self.degree
        n = mesh.n_cells
        xi, w = interval_rule(self.quad_degree)
        nq = xi.size
        if r == 1:
            self.n_dofs = n + 1
            self.cell_dofs = mesh.cells.copy()
            self.dof_coords = mesh.vertices.copy()
        else:
            # interleave vertices and cell midpoints so dofs ascend in x
            self.n_dofs = 2 * n + 1
            verts = mesh.cells[:, 0]
            self.cell_dofs = np.column_stack([2 * verts, 2 * verts + 2, 2 * verts + 1])
            coords = np.empty(self.n_dofs)
            coords[0::2] = mesh.vertices[:, 0]
            coords[1::2] = (2 * np.arange(n) + 1) / (2.0 * mesh.resolution)
            self.dof_coords = coords[:, None]

        a = mesh.vertices[mesh.cells[:, 0], 0]
        b = mesh.vertices[mesh.cells[:, 1], 0]
        lengths = b - a
        self.phi = _basis_1d(r, xi).T  # (nl, nq)
        dphi = _basis_grad_1d(r, xi).T  # (nl, nq)
        self.wdet = np.outer(lengths, w)  # (nc, nq)
        self.grad_phys = (dphi[None, :, :] / lengths[:, None, None])[..., None]
        self.qpoints = (a[:, None] + np.outer(lengths, xi))[..., None]

    def _init_triangles(self) -> None:
        mesh, r = self.mesh, self.degree
        pts, w = triangle_rule(self.quad_degree)
        xi, eta = pts[:, 0], pts[:, 1]
        nq = xi.size
        nc = mesh.n_cells

        if r == 1:
            self.n_dofs = mesh.n_vertices
            self.cell_dofs = mesh.cells.copy()
            self.dof_coords = mesh.vertices.copy()
        else:
            edges: dict[tuple[int, int], int] = {}
            cell_edges = np.empty((nc, 3), dtype=np.int64)
            for c, tri in enumerate(mesh.cells):
                for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
                    key = (min(tri[i], tri[j]), max(tri[i], tri[j]))
                    cell_edges[c, k] = edges.setdefault(key, len(edges))
            nv = mesh.n_vertices
            self.n_dofs = nv + len(edges)
            self.cell_dofs = np.column_stack([mesh.cells, nv + cell_edges])
            coords = np.empty((self.n_dofs, 2))
            coords[:nv] = mesh.vertices
            for (i, j), e in edges.items():
                coords[nv + e] = 0.5 * (mesh.vertices[i] + mesh.vertices[j])
            self.dof_coords = coords

        p0 = mesh.vertices[mesh.cells[:, 0]]
        p1 = mesh.vertices[mesh.cells[:, 1]]
        p2 = mesh.vertices[mesh.cells[:, 2]]
        jac = np.stack([p1 - p0, p2 - p0], axis=-1)  # (nc, 2, 2) columns = edges
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv_t = np.empty_like(jac)  # inverse transpose of the Jacobian
        inv_t[:, 0, 0] = jac[:, 1, 1]
        inv_t[:, 0, 1] = -jac[:, 1, 0]
        inv_t[:, 1, 0] = -jac[:, 0, 1]
        inv_t[:, 1, 1] = jac[:, 0, 0]
        inv_t /= det[:, None, None]

        self.phi = _basis_tri(r, xi, eta).T  # (nl, nq)
        dref = _basis_grad_tri(r, xi, eta)  # (nq, nl, 2)
        self.wdet = np.outer(np.abs(det), w)
        # grad_phys[c, l, q, :] = inv_t[c] @ dref[q, l, :]
        self.grad_phys = np.einsum("cde,qle->clqd", inv_t, dref)
        ref = np.column_stack([xi, eta])
        self.qpoints = p0[:, None, :] + np.einsum("cde,qe->cqd", jac, ref)

    @property
    def members(self) -> tuple[FeSpace]:
        """A plain space is the direct sum of itself alone."""
        return (self,)

    @property
    def offsets(self) -> np.ndarray:
        """Its dof offsets as the direct sum of itself alone."""
        return np.array([0, self.n_dofs])

    # -- cached operators ----------------------------------------------------

    @cached_property
    def _scatter_ij(self) -> tuple[np.ndarray, np.ndarray]:
        nl = self.cell_dofs.shape[1]
        rows = np.repeat(self.cell_dofs, nl, axis=1).ravel()
        cols = np.tile(self.cell_dofs, (1, nl)).ravel()
        return rows, cols

    def _scatter_matrix(self, local: np.ndarray) -> sp.csr_matrix:
        rows, cols = self._scatter_ij
        A = sp.coo_matrix(
            (local.ravel(), (rows, cols)), shape=(self.n_dofs, self.n_dofs)
        )
        return A.tocsr()

    @cached_property
    def mass(self) -> sp.csr_matrix:
        return assemble_mass(self)

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        return assemble_stiffness(self)

    @cached_property
    def mass_solve(self) -> Callable[[np.ndarray], np.ndarray]:
        return spd_solver(self.mass)

    @cached_property
    def qpoint_product(self) -> CsrProduct:
        """Q with (Q c)[cell * nq + q] = value of c at quadrature point q of cell."""
        nc, nl = self.cell_dofs.shape
        nq = self.phi.shape[1]
        rows = np.broadcast_to(np.arange(nc * nq).reshape(nc, nq, 1), (nc, nq, nl))
        cols = np.broadcast_to(self.cell_dofs[:, None, :], (nc, nq, nl))
        vals = np.broadcast_to(self.phi.T, (nc, nq, nl))
        return CsrProduct(
            sp.coo_matrix(
                (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(nc * nq, self.n_dofs)
            ).tocsr()
        )

    @cached_property
    def load_product(self) -> CsrProduct:
        """Q^T scaled by the quadrature weights: the load of point values."""
        Q = self.qpoint_product.matrix.tocoo()
        data = Q.data * self.wdet.ravel()[Q.row]
        return CsrProduct(sp.coo_matrix((data, (Q.col, Q.row)), shape=Q.shape[::-1]).tocsr())

    # -- evaluation ----------------------------------------------------------

    def values_at_qpoints(self, coeffs: np.ndarray) -> np.ndarray:
        """Function values at all quadrature points.

        Shape (nc, nq) for one coefficient vector; (nc, nq, S) for an
        (n_dofs, S) block with one sample per column.  Each column's values
        are the same bits whatever the other columns hold.
        """
        return self.qpoint_product(coeffs).reshape(self.wdet.shape + coeffs.shape[1:])


class DirectSum:
    """The direct sum of finite element spaces, one coefficient vector for all.

    Member i's coefficients are rows ``offsets[i]:offsets[i + 1]`` of the
    vector, and its quadrature points follow those of the members before it.
    The mass, stiffness, quadrature-value (Q) and load operators are
    block-diagonal: each row holds its member's row, shifted, with its
    entries in the same order, so every product row is summed exactly as in
    the member's own operator.  A plain `FeSpace` is the direct sum of
    itself alone (see `direct_sum`).
    """

    def __init__(self, members: Sequence[FeSpace]):
        self.members = tuple(members)
        self.offsets = np.cumsum([0] + [m.n_dofs for m in self.members])
        self.n_dofs = int(self.offsets[-1])

    def _block_diag(self, operator: Callable[[FeSpace], sp.spmatrix]) -> sp.csr_matrix:
        return sp.block_diag([operator(m) for m in self.members], format="csr")

    @cached_property
    def mass(self) -> sp.csr_matrix:
        return self._block_diag(lambda m: m.mass)

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        return self._block_diag(lambda m: m.stiffness)

    @cached_property
    def qpoint_product(self) -> CsrProduct:
        return CsrProduct(self._block_diag(lambda m: m.qpoint_product.matrix))

    @cached_property
    def load_product(self) -> CsrProduct:
        return CsrProduct(self._block_diag(lambda m: m.load_product.matrix))


def direct_sum(spaces: Sequence[FeSpace]) -> FeSpace | DirectSum:
    """The direct sum of the spaces: the space itself when there is one."""
    return spaces[0] if len(spaces) == 1 else DirectSum(spaces)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _symmetrize(local: np.ndarray) -> np.ndarray:
    # floating-point products are not associative across index order; averaging
    # with the transpose makes A[i,j] == A[j,i] bit-exact after scattering
    return 0.5 * (local + local.transpose(0, 2, 1))


def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    """M[i,j] = integral of phi_i phi_j."""
    local = np.einsum("cq,iq,jq->cij", space.wdet, space.phi, space.phi)
    return space._scatter_matrix(_symmetrize(local))


def assemble_weighted_mass(space: FeSpace, weights: np.ndarray) -> sp.csr_matrix:
    """Mass matrix with an extra scalar weight given at quadrature points (nc, nq)."""
    local = np.einsum("cq,iq,jq->cij", space.wdet * weights, space.phi, space.phi)
    return space._scatter_matrix(_symmetrize(local))


def assemble_stiffness(space: FeSpace) -> sp.csr_matrix:
    """K[i,j] = integral of grad phi_i . grad phi_j."""
    local = np.einsum(
        "cq,ciqd,cjqd->cij", space.wdet, space.grad_phys, space.grad_phys
    )
    return space._scatter_matrix(_symmetrize(local))


def load_vector(space: FeSpace, field: Callable) -> np.ndarray:
    """b[i] = integral of field(x) phi_i(x) for a pointwise coordinate field."""
    pts = space.qpoints.reshape(-1, space.mesh.dimension)
    return space.load_product(_eval_field(field, pts))


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def l2_project(space: FeSpace, field: Callable) -> np.ndarray:
    """Coefficients c of the best L2 approximation: solve M c = (field, phi_i)."""
    return space.mass_solve(load_vector(space, field))


# ---------------------------------------------------------------------------
# Nested transfer
# ---------------------------------------------------------------------------

def _locate(mesh: Mesh, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells containing the points and local reference coordinates."""
    res = mesh.resolution
    if mesh.dimension == 1:
        t = points[:, 0] * res
        k = np.clip(np.floor(t).astype(np.int64), 0, res - 1)
        xi = np.clip(t - k, 0.0, 1.0)
        return k, xi[:, None]
    tx = points[:, 0] * res
    ty = points[:, 1] * res
    i = np.clip(np.floor(tx).astype(np.int64), 0, res - 1)
    j = np.clip(np.floor(ty).astype(np.int64), 0, res - 1)
    xi = np.clip(tx - i, 0.0, 1.0)
    eta = np.clip(ty - j, 0.0, 1.0)
    lower = xi >= eta
    cell = 2 * (j * res + i) + np.where(lower, 0, 1)
    # reference coords on the two triangle orientations of the lattice square
    loc_xi = np.where(lower, xi - eta, xi)
    loc_eta = np.where(lower, eta, eta - xi)
    return cell, np.column_stack([loc_xi, loc_eta])


def transfer_matrix(coarse: FeSpace, fine: FeSpace) -> sp.csr_matrix:
    """Prolongation E with (E c)_p = u_c(fine dof point p); exact by nesting."""
    pts = fine.dof_coords
    cell, loc = _locate(coarse.mesh, pts)
    if coarse.mesh.dimension == 1:
        basis = _basis_1d(coarse.degree, loc[:, 0])
    else:
        basis = _basis_tri(coarse.degree, loc[:, 0], loc[:, 1])
    npts, nl = basis.shape
    rows = np.repeat(np.arange(npts), nl)
    cols = coarse.cell_dofs[cell].ravel()
    return sp.coo_matrix(
        (basis.ravel(), (rows, cols)), shape=(fine.n_dofs, coarse.n_dofs)
    ).tocsr()
