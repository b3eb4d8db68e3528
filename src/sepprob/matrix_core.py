"""Dense complex-matrix kernel for small bipartite states.

Partial trace, partial transpose, purity and the positive-partial-transpose
(PPT) test.  Each kernel works on arrays of shape (..., d, d); a single
matrix is a batch with no leading axes.

partial_trace_batch and purity_batch sum in a fixed index order with one
IEEE operation per step, like the PPT kernel below, so a sample's result
has the same bits whatever batch or memory layout it comes in.  On the
batch-last states of random_states.state_batch every entry they read is a
contiguous row over the batch.

Index convention: the row/column index of the composite space is
``i_A * dim_b + i_B`` (subsystem A is the slow index).  All bipartite
operations below use this convention.

The PPT test needs only the smallest eigenvalue of rho^Gamma, for d <= 9
or so.  A LAPACK call per matrix (``eigvalsh``) spends most of its time on
call overhead at that size, so ``min_pt_eigenvalue_batch`` runs the
classical route batch-wide instead, with the batch on the last, contiguous
axis of every array:

1. Householder reduction of rho^Gamma to a real symmetric tridiagonal
   matrix (Golub & Van Loan, Matrix Computations, 8.3): a Hermitian matrix
   has the spectrum of the real tridiagonal matrix whose off-diagonal is
   the modulus of its Householder off-diagonal.
2. Bisection on the Gershgorin bracket, testing each midpoint by the signs
   of the LDL^T pivots (Sturm count; Barth, Martin & Wilkinson, Numer.
   Math. 9, 386 (1967)).

The Householder step is backward stable and the bracket is at most
2||rho^Gamma|| wide, so the result is within a few ulps of ||rho^Gamma||
of the exact eigenvalue, as LAPACK's is (measured against eigvalsh: at
most 3e-15 * max(1, ||rho^Gamma||)).  The arithmetic is on separate real and
imaginary float planes: every operation is one correctly rounded IEEE
operation on each sample's own entries, so a sample's result is the same
bits whatever batch it is computed in (numpy's complex multiply uses fused
multiply-adds in some loops and not in others).
"""

from __future__ import annotations

import math

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


def _pt_view(rhos: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Partial transposes over B as a view of shape (..., m, n, m, n)."""
    m, n = _check_bipartition(rhos.shape[-1], dims)
    return np.swapaxes(rhos.reshape(rhos.shape[:-2] + (m, n, m, n)), -1, -3)


def partial_transpose_batch(rhos: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Partial transpose over subsystem B of matrices of shape (..., d, d).

    Entry ((i,j),(k,l)) of the result equals entry ((i,l),(k,j)) of rho,
    with the first index of each pair running over A.  The transpose over
    A is the full transpose of this one.
    """
    return np.ascontiguousarray(_pt_view(rhos, dims)).reshape(rhos.shape)


# one matrix is a batch with no leading axes
partial_transpose = partial_transpose_batch


def partial_trace_batch(rhos: np.ndarray, dims: tuple[int, int],
                        keep: str = "A") -> np.ndarray:
    """Reduced matrices on the kept subsystem, shape (..., d_keep, d_keep),
    in the memory order of rhos.  The traced-out blocks are added in index
    order, one complex add per entry, so a sample's result has the same
    bits in any batch."""
    m, n = _check_bipartition(rhos.shape[-1], dims)
    T = rhos.reshape(rhos.shape[:-2] + (m, n, m, n))
    if keep == "A":
        blocks = [T[..., :, j, :, j] for j in range(n)]
    elif keep == "B":
        blocks = [T[..., i, :, i, :] for i in range(m)]
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    out = blocks[0].copy(order="K")
    for block in blocks[1:]:
        out += block
    return out


def entry_planes(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of matrices (..., d, d) as views of shape
    (d, d, ...): entry [i, j] of each is the batch of rho_ij."""
    return tuple(np.moveaxis(p, (-2, -1), (0, 1)) for p in (rhos.real, rhos.imag))


def purity_batch(rhos: np.ndarray) -> np.ndarray:
    """tr(rho^2) of matrices of shape (..., d, d): the sum over i, j in order
    of Re(rho_ij rho_ji), one real multiply or add per operation, so a
    sample's result has the same bits in any batch."""
    re, im = entry_planes(rhos)
    acc = np.zeros(rhos.shape[:-2])
    for i in range(rhos.shape[-1]):
        for j in range(rhos.shape[-1]):
            acc += re[i, j] * re[j, i]
            acc -= im[i, j] * im[j, i]
    return acc[()]


# The Gershgorin bracket is at most 2||T|| wide, so after 53 halvings its
# midpoint is within 2^-53 ||T|| of the smallest eigenvalue of T.
_BISECTIONS = 53


def _pt_planes(rhos: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the partial transposes over B, each of
    shape (d, d, B) with the B matrices of the flattened batch last; on
    batch-last input the copy reads contiguous rows."""
    d, batch = rhos.shape[-1], math.prod(rhos.shape[:-2])
    pt = np.moveaxis(_pt_view(rhos.reshape((batch, d, d)), dims), 0, -1)
    re, im = np.empty(pt.shape), np.empty(pt.shape)
    np.copyto(re, pt.real)
    np.copyto(im, pt.imag)
    return re.reshape(d, d, batch), im.reshape(d, d, batch)


def _tridiagonal(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder tridiagonalisation of Hermitian matrices re + i*im of
    shape (d, d, B): the diagonal (d, B) and the squared off-diagonal
    moduli (d-1, B) of a unitarily similar tridiagonal matrix.

    Reads the lower triangle and the real diagonal only, like eigvalsh,
    and overwrites them.  Step k maps the column x below the diagonal to
    -phase(x_0)||x|| e_1 with H = I - v v^H, ||v||^2 = 2, and the trailing
    block A to H A H = A - v q^H - q v^H, q = A v - (v^H A v / 2) v.
    Where x = 0, v = 0 and H = I.
    """
    d, batch = re.shape[0], re.shape[2]
    im.reshape(d * d, batch)[::d + 1] = 0.0
    e2 = np.empty((max(d - 1, 0), batch))
    for k in range(d - 2):
        size = d - 1 - k
        xr, xi = re[k + 1:, k], im[k + 1:, k]
        sq = xr * xr
        sq += xi * xi
        np.copyto(e2[k], sq[0])
        for row in sq[1:]:
            e2[k] += row
        norm, a0 = np.sqrt(e2[k]), np.sqrt(sq[0])
        # v = (x + phase(x_0) ||x|| e_1) / sqrt(||x|| (||x|| + |x_0|)),
        # with v = 0 where x = 0 and phase 1 where x_0 = 0
        scale = norm * (norm + a0)
        scale += scale == 0
        scale = 1.0 / np.sqrt(scale)
        zero = a0 == 0
        a0 += zero
        phase_r, phase_i = (xr[0] + zero) / a0, xi[0] / a0
        vr, vi = xr * scale, xi * scale
        scale *= norm
        vr[0] += phase_r * scale
        vi[0] += phase_i * scale
        # p = A v over the lower triangle: A_ij for i >= j, conj(A_ji) above
        ar, ai = re[k + 1:, k + 1:], im[k + 1:, k + 1:]
        pr, pi = np.zeros((size, batch)), np.zeros((size, batch))
        for j in range(size):
            col_re, col_im = ar[j:, j], ai[j:, j]
            pr[j:] += col_re * vr[j]
            pr[j:] -= col_im * vi[j]
            pi[j:] += col_re * vi[j]
            pi[j:] += col_im * vr[j]
            row_re, row_im = ar[j, :j], ai[j, :j]
            pr[:j] += row_re * vr[j]
            pr[:j] += row_im * vi[j]
            pi[:j] += row_re * vi[j]
            pi[:j] -= row_im * vr[j]
        vp = vr * pr
        vp += vi * pi
        half = vp[0].copy()
        for row in vp[1:]:
            half += row
        half *= 0.5
        qr, qi = pr - half * vr, pi - half * vi
        # A -= v q^H + q v^H, lower triangle
        for i in range(size):
            row_re, row_im = ar[i, :i + 1], ai[i, :i]
            row_re -= vr[i] * qr[:i + 1]
            row_re -= vi[i] * qi[:i + 1]
            row_re -= qr[i] * vr[:i + 1]
            row_re -= qi[i] * vi[:i + 1]
            row_im -= vi[i] * qr[:i]
            row_im += vr[i] * qi[:i]
            row_im -= qi[i] * vr[:i]
            row_im += qr[i] * vi[:i]
    if d > 1:
        e2[d - 2] = re[d - 1, d - 2] ** 2 + im[d - 1, d - 2] ** 2
    return re.reshape(d * d, batch)[::d + 1].copy(), e2


def _lowest_eigenvalue(diag: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the real symmetric tridiagonal matrices with
    diagonal diag (d, B) and squared off-diagonal e2 (d-1, B).

    Bisection between the lowest Gershgorin bound and the smallest
    diagonal entry.  T - s*I is positive definite, that is s lies below
    every eigenvalue, iff every pivot of its LDL^T factorisation
    q_0 = d_0 - s, q_i = (d_i - s) - e2_{i-1} / q_{i-1} is > 0 (Sylvester's
    law of inertia).  A zero pivot is itself <= 0, so the inf or nan it
    leads to further down needs no guard: fmin skips nan.
    """
    e = np.sqrt(e2)
    radius = np.zeros_like(diag)
    radius[1:] += e
    radius[:-1] += e
    lo = (diag - radius).min(axis=0)
    width = diag.min(axis=0) - lo
    q, ratio, step = np.empty_like(diag), np.empty_like(lo), np.empty_like(lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_BISECTIONS):
            width *= 0.5
            mid = lo + width
            np.subtract(diag, mid, out=q)
            for i in range(1, len(diag)):
                np.divide(e2[i - 1], q[i - 1], out=ratio)
                q[i] -= ratio
            np.copyto(step, np.fmin.reduce(q, axis=0) > 0)
            step *= width
            lo += step
    return lo + 0.5 * width


def min_pt_eigenvalue_batch(rhos: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose over B, shape (...).

    The state is PPT when this is >= -PPT_TOL; PPT equals separability for
    m*n <= 6 (Peres-Horodecki), for larger systems it is necessary only.
    Raises LinAlgError on non-finite entries, and on entries beyond about
    1e150 in modulus, whose squares overflow.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # such input is refused below
        diag, e2 = _tridiagonal(*_pt_planes(rhos, dims))
    if not (np.isfinite(diag).all() and np.isfinite(e2).all()):
        raise np.linalg.LinAlgError("partial transpose has non-finite or overflowing entries")
    return _lowest_eigenvalue(diag, e2).reshape(rhos.shape[:-2])[()]
