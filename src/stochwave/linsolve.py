"""Direct solver for the symmetric positive definite systems of assembly.

Every matrix is factored once and the factor serves any number of
right-hand sides, as a vector or an (n, S) block of any memory layout; the
argument is never written.  The path depends on the matrix's nonzeros:

- Tridiagonal (every stored entry has |i - j| <= 1: 1D P1 operators such as
  the stepper's frozen Jacobian, a full-Newton Jacobian or the mass matrix):
  LAPACK's ``dpttrf`` factors A = L D L^T from the diagonal and the
  subdiagonal, and ``dpttrs`` solves with it.  Its fixed cost per solve is a
  fraction of SuperLU's, which dominates a small 1D step.
- Any other matrix (2D, and 1D P2 with its bandwidth 2): SuperLU with a
  symmetric fill-reducing ordering and the diagonal pivots kept.  A LAPACK
  band factor (``dpbtrf``/``dpbtrs``) solved a level-512 P2 system with 8
  right-hand sides about twice as slowly as SuperLU, and gained nothing at
  level 128 (2-vCPU x86 host, BLAS on one thread).

Both solves treat each column alone with the same operations, so a block
gives every column the bits it would get alone, and negating the right-hand
side negates the solution bit for bit.

A block-diagonal matrix (the operators of a `fem.DirectSum`) may name its
diagonal blocks by their row offsets.  A tridiagonal one is still factored
whole: its coupling entries between blocks are exact zeros, so every pivot
and every solved row of a block is the one its own factor gives, and rows of
zeros solve to exact zeros.  Any other is factored block by block and each
factor solves its own rows, since SuperLU's ordering of the whole would mix
the blocks' arithmetic.  `spd_solver` raises
`LinearSolveError` for a non-finite entry, a non-positive diagonal entry or
a matrix that is not positive definite on either path: ``dpttrf`` reports a
non-positive pivot, and SuperLU's pivots (the diagonal of U, with the rows
permuted as the columns) must all be positive.  The matrix is taken to be
symmetric; the tridiagonal path reads only its subdiagonal.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

__all__ = ["LinearSolveError", "spd_solver"]


class LinearSolveError(RuntimeError):
    """A symmetric positive definite factorisation failed."""


def spd_solver(
    A: sp.spmatrix, blocks: Sequence[int] | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the SPD matrix ``A`` once and return its reusable solve callable.

    ``blocks``, if given, are the row offsets (0 first, the size last) of the
    diagonal blocks of a block-diagonal ``A``.
    """
    A = A.tocsr()
    if not np.isfinite(A.data).all():
        raise LinearSolveError("non-finite entry; matrix is not SPD")
    if np.any(A.diagonal() <= 0):
        raise LinearSolveError("non-positive diagonal entry; matrix is not SPD")
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    if np.all(np.abs(A.indices - rows) <= 1):
        return _tridiagonal_solver(A)
    if blocks is None or len(blocks) <= 2:
        return _superlu_solver(A)
    parts = [
        (slice(a, b), _superlu_solver(A[a:b, a:b])) for a, b in zip(blocks[:-1], blocks[1:])
    ]

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.empty(b.shape)
        for rows, part in parts:
            x[rows] = part(b[rows])
        return x

    return solve


def _tridiagonal_solver(A: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    d, e, info = lapack.dpttrf(A.diagonal(), A.diagonal(-1))
    if info != 0:
        raise LinearSolveError(f"pivot {info} is not positive; matrix is not SPD")

    def solve(b: np.ndarray) -> np.ndarray:
        x, info = lapack.dpttrs(d, e, b)
        if info != 0:
            raise LinearSolveError(f"dpttrs: argument {-info} is invalid")
        return x

    return solve


def _superlu_solver(A: sp.spmatrix) -> Callable[[np.ndarray], np.ndarray]:
    # imported here, so a process whose systems are all tridiagonal (1D P1)
    # never loads SuperLU, ARPACK and PROPACK (about 2 MB of resident memory)
    import scipy.sparse.linalg as spla

    try:
        lu = spla.splu(
            sp.csc_matrix(A),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise LinearSolveError(f"sparse factorisation failed: {exc}") from exc
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)):
        raise LinearSolveError("non-positive pivot; matrix is not SPD")
    return lu.solve
