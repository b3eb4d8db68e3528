"""Dense complex-matrix kernel for small bipartite states.

Partial trace, partial transpose, purity and the positive-partial-transpose
(PPT) test.  Each kernel works on arrays of shape (..., d, d); a single
matrix is a batch with no leading axes.

Index convention: the row/column index of the composite space is
``i_A * dim_b + i_B`` (subsystem A is the slow index).  All bipartite
operations below use this convention.
"""

from __future__ import annotations

import numpy as np

PPT_TOL = 1e-13


class ShapeMismatch(ValueError):
    """Bipartition inconsistent with the matrix dimension."""


def _check_bipartition(dim: int, dims: tuple[int, int]) -> tuple[int, int]:
    m, n = int(dims[0]), int(dims[1])
    if m < 1 or n < 1:
        raise ShapeMismatch(f"subsystem dimensions must be positive, got {dims}")
    if m * n != dim:
        raise ShapeMismatch(f"bipartition {m}x{n} does not factor dimension {dim}")
    return m, n


def partial_transpose_batch(rhos: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Partial transpose over subsystem B of matrices of shape (..., d, d).

    Entry ((i,j),(k,l)) of the result equals entry ((i,l),(k,j)) of rho,
    with the first index of each pair running over A.  The transpose over
    A is the full transpose of this one.
    """
    m, n = _check_bipartition(rhos.shape[-1], dims)
    T = rhos.reshape(rhos.shape[:-2] + (m, n, m, n))
    return np.ascontiguousarray(np.swapaxes(T, -1, -3)).reshape(rhos.shape)


# one matrix is a batch with no leading axes
partial_transpose = partial_transpose_batch


def partial_trace_batch(rhos: np.ndarray, dims: tuple[int, int],
                        keep: str = "A") -> np.ndarray:
    """Reduced matrices on the kept subsystem, shape (..., d_keep, d_keep)."""
    m, n = _check_bipartition(rhos.shape[-1], dims)
    T = rhos.reshape(rhos.shape[:-2] + (m, n, m, n))
    if keep == "A":
        return np.einsum("...ijkj->...ik", T)
    if keep == "B":
        return np.einsum("...ijil->...jl", T)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def purity_batch(rhos: np.ndarray) -> np.ndarray:
    """tr(rho^2) of matrices of shape (..., d, d)."""
    return np.einsum("...ij,...ji->...", rhos, rhos).real


def min_pt_eigenvalue_batch(rhos: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose over B, shape (...).

    The state is PPT when this is >= -PPT_TOL; PPT equals separability for
    m*n <= 6 (Peres-Horodecki), for larger systems it is necessary only.
    """
    return np.linalg.eigvalsh(partial_transpose_batch(rhos, dims))[..., 0]
