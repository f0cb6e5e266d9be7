"""Structured meshes of the unit interval and unit square with nested refinement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh",
    "build_interval_mesh",
    "build_unit_square_tri_mesh",
    "refine_uniform",
]


@dataclass(frozen=True)
class Mesh:
    """A uniform partition of (0,1)^d, d in {1,2}.

    1D cells are vertex-index pairs, 2D cells are counterclockwise vertex-index
    triples obtained by splitting each lattice square along the same diagonal.
    ``resolution`` is the number of cells per side, so vertices sit exactly on
    the lattice k/resolution.  Meshes are immutable.
    """

    dimension: int
    vertices: np.ndarray  # (n_vertices, dimension)
    cells: np.ndarray  # (n_cells, dimension + 1) int
    resolution: int

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]


def build_interval_mesh(n_cells: int) -> Mesh:
    """Uniform mesh of (0,1) with ``n_cells`` cells of length 1/n_cells."""
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    vertices = (np.arange(n_cells + 1, dtype=float) / n_cells)[:, None]
    cells = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    return Mesh(1, vertices, cells.astype(np.int64), n_cells)


def build_unit_square_tri_mesh(n_per_side: int) -> Mesh:
    """Triangulation of (0,1)^2: n_per_side^2 squares of side 1/n_per_side,
    each split by the lower-left to upper-right diagonal into two triangles."""
    if n_per_side < 1:
        raise ValueError(f"n_per_side must be >= 1, got {n_per_side}")
    n = n_per_side
    xs = np.arange(n + 1, dtype=float) / n
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])  # index = j*(n+1) + i

    cells = np.empty((2 * n * n, 3), dtype=np.int64)
    k = 0
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            cells[k] = (v00, v10, v11)  # lower triangle
            cells[k + 1] = (v00, v11, v01)  # upper triangle
            k += 2
    return Mesh(2, vertices, cells, n)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Halve every cell: 1D bisection, 2D split into 4 congruent children.

    The finer mesh is built on the doubled lattice, so the coarse vertex
    coordinates are reproduced bit-identically (k/n == 2k/(2n) in IEEE
    arithmetic).
    """
    build = build_interval_mesh if mesh.dimension == 1 else build_unit_square_tri_mesh
    return build(2 * mesh.resolution)
