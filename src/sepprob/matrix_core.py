"""Dense complex-matrix kernel for small bipartite states.

Hermitian eigenvalues, partial trace, partial transpose, purity and the
positive-partial-transpose (PPT) test.  Each kernel works on arrays of
shape (..., d, d); a single matrix is a batch with no leading axes.

Index convention: the row/column index of the composite space is
``i_A * dim_b + i_B`` (subsystem A is the slow index).  All bipartite
operations below use this convention.
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-10
PPT_TOL = 1e-13


class NonHermitianInput(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class ShapeMismatch(ValueError):
    """Bipartition inconsistent with the matrix dimension."""


def _square(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def _check_bipartition(dim: int, dims: tuple[int, int]) -> tuple[int, int]:
    m, n = int(dims[0]), int(dims[1])
    if m < 1 or n < 1:
        raise ShapeMismatch(f"subsystem dimensions must be positive, got {dims}")
    if m * n != dim:
        raise ShapeMismatch(f"bipartition {m}x{n} does not factor dimension {dim}")
    return m, n


def check_density_matrix(rho: np.ndarray, herm_tol: float = 1e-12,
                         trace_tol: float = 1e-12, psd_tol: float = 1e-10) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and numerically PSD."""
    rho = _square(rho)
    if np.abs(rho - rho.conj().T).max() > herm_tol:
        raise NonHermitianInput("density matrix is not Hermitian")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace is {tr}, expected 1")
    wmin = np.linalg.eigvalsh(rho)[0]
    if wmin < -psd_tol:
        raise ValueError(f"minimum eigenvalue {wmin} below -{psd_tol}")


def hermitian_eigenvalues(M: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix of dimension <= 16, ascending."""
    M = _square(M)
    if M.shape[0] > 16:
        raise ShapeMismatch("kernel is restricted to dimensions <= 16")
    scale = max(np.abs(M).max(), 1.0)
    if np.abs(M - M.conj().T).max() > tol * scale:
        raise NonHermitianInput("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(M)


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
