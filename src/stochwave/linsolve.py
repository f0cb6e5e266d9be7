"""Sparse-direct solver for the symmetric positive definite systems of assembly.

Every matrix is factored once with SuperLU and the factor serves any number
of right-hand sides.  The systems here are small (129 dofs for 1D level 128,
at most ~1.1k dofs in 2D), so a direct factor is cheap in both dimensions.
The matrices are SPD, so the factorisation uses a symmetric fill-reducing
ordering and keeps the diagonal pivots.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["LinearSolveError", "spd_solver"]


class LinearSolveError(RuntimeError):
    """A symmetric positive definite factorisation failed."""


def spd_solver(A: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the SPD matrix ``A`` once and return its reusable solve callable."""
    if np.any(A.diagonal() <= 0):
        raise LinearSolveError("non-positive diagonal entry; matrix is not SPD")
    try:
        lu = spla.splu(
            sp.csc_matrix(A),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise LinearSolveError(f"sparse factorisation failed: {exc}") from exc
    return lu.solve
