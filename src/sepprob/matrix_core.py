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
2. Ten halvings of the Gershgorin bracket, testing each midpoint by the
   signs of the LDL^T pivots (Sturm count; Barth, Martin & Wilkinson,
   Numer. Math. 9, 386 (1967)), then Newton's method on the
   characteristic polynomial from the bracket's lower end, on the same
   pivots: x <- x - 1/sum_i q_i'/q_i.  Below the smallest eigenvalue a
   Newton step of a polynomial with only real roots never passes it, so
   the iterates rise to it from below.  A Sturm test just above
   x + tol, tol the width 53 halvings would leave, certifies each
   sample; the few that four steps leave uncertified finish the 53
   halvings.

The Householder step is backward stable.  The Gershgorin bracket is at
most 2||rho^Gamma|| wide, so 53 halvings leave it within 2^-52
||rho^Gamma||, and a certified Newton result lies in [x, x + tol] up to
the rounding of one Sturm test: either way the result is within a few
ulps of ||rho^Gamma|| of the exact eigenvalue, as LAPACK's is (measured
against eigvalsh: at most 3e-15 * max(1, ||rho^Gamma||)).  Newton's
rounding cannot carry x past the eigenvalue by more than that: on a
positive definite T - x I every term of sum_i q_i'/q_i is negative, so
the sum is accurate to a few ulps relative.  The arithmetic is on
separate real and imaginary float planes: every operation is one
correctly rounded IEEE operation on each sample's own entries, so a
sample's result is the same bits whatever batch it is computed in
(numpy's complex multiply uses fused multiply-adds in some loops and not
in others), and whether it takes the bisection's finish depends on its
own entries only.

The large arrays of a call come from a Workspace (below): one per pass
of runner._range_stats, that is per lane of a run, lets every sub-batch
after the first reuse pages already mapped.  Without one, each call makes
its own.
"""

from __future__ import annotations

import math
import mmap

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
                        keep: str = "A", *, out: np.ndarray | None = None) -> np.ndarray:
    """Reduced matrices on the kept subsystem, shape (..., d_keep, d_keep),
    in the memory order of rhos, or written into out.  The traced-out
    blocks are added in index order, one complex add per entry, so a
    sample's result has the same bits in any batch."""
    m, n = _check_bipartition(rhos.shape[-1], dims)
    T = rhos.reshape(rhos.shape[:-2] + (m, n, m, n))
    if keep == "A":
        blocks = [T[..., :, j, :, j] for j in range(n)]
    elif keep == "B":
        blocks = [T[..., i, :, i, :] for i in range(m)]
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    if out is None:
        out = np.empty_like(blocks[0])  # in the memory order of rhos
    np.copyto(out, blocks[0])
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


class Workspace:
    """Float buffers that the batch kernels of one sub-batch borrow, so that
    the next sub-batch writes into pages it already has instead of fresh
    ones.  A caller makes one per run of sub-batches and drops it after.

    take(slot, *shapes) returns one view per shape into the slot's buffer.
    The views of one call do not overlap one another; those of a later call
    on the same slot overlap them, so a phase takes a slot only once the
    phase before it is done with what it took there.  Nothing a public
    function returns lives in a workspace.  A slot grows to the largest call
    it has seen.  The slots and their phases, in the order they run:

    - "rows": state_batch's normals and gammas, then its column
      accumulators; min_pt_eigenvalue_batch's tridiagonal matrices and
      Householder row blocks;
    - "planes": state_batch's factor planes; record_batch's reduced states;
      the planes of rho^Gamma, then the eigenvalue stage's buffers.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, slot: str, *shapes: tuple[int, ...], dtype=float) -> list[np.ndarray]:
        per = np.dtype(dtype).itemsize // 8
        sizes = [math.prod(shape) * per for shape in shapes]
        # every view starts a multiple of 64 bytes into the page-aligned
        # buffer
        starts = [0]
        for size in sizes:
            starts.append(starts[-1] + -(-size // 8) * 8)
        buf = self._buffers.get(slot)
        if buf is None or buf.size < starts[-1]:
            # an anonymous map of its own, not heap memory: it goes back to
            # the system with the workspace, and the heap that the returned
            # states and the histograms share neither fragments around it
            # nor moves its mmap threshold for it
            buf = self._buffers[slot] = np.frombuffer(mmap.mmap(-1, 8 * max(starts[-1], 1)))
        return [buf[a:a + size].view(dtype).reshape(shape)
                for a, size, shape in zip(starts, sizes, shapes)]


def _tridiagonal(re: np.ndarray, im: np.ndarray,
                 workspace: Workspace) -> tuple[np.ndarray, np.ndarray]:
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
    block = (max(d - 1, 0), batch)
    diag, e2, *rows, (norm, scale, phase_r, phase_i, half) = workspace.take(
        "rows", (d, batch), *[block] * 7, (5, batch))
    im.reshape(d * d, batch)[::d + 1] = 0.0
    for k in range(d - 2):
        size = d - 1 - k
        # sq holds |x|^2, then v^H p; p becomes q in place
        sq, t, vr, vi, pr, pi = (a[:size] for a in rows)
        xr, xi = re[k + 1:, k], im[k + 1:, k]
        np.multiply(xr, xr, out=sq)
        sq += np.multiply(xi, xi, out=t)
        # row by row, here and for v^H p, not np.sum: at B = 1 numpy sums pairwise
        np.copyto(e2[k], sq[0])
        for row in sq[1:]:
            e2[k] += row
        np.sqrt(e2[k], out=norm)
        a0 = np.sqrt(sq[0], out=sq[0])
        # v = (x + phase(x_0) ||x|| e_1) / sqrt(||x|| (||x|| + |x_0|)),
        # with v = 0 where x = 0 and phase 1 where x_0 = 0
        np.add(norm, a0, out=scale)
        scale *= norm
        scale += scale == 0
        np.divide(1.0, np.sqrt(scale, out=scale), out=scale)
        zero = a0 == 0
        a0 += zero
        np.divide(np.add(xr[0], zero, out=phase_r), a0, out=phase_r)
        np.divide(xi[0], a0, out=phase_i)
        np.multiply(xr, scale, out=vr)
        np.multiply(xi, scale, out=vi)
        scale *= norm
        vr[0] += np.multiply(phase_r, scale, out=phase_r)
        vi[0] += np.multiply(phase_i, scale, out=phase_i)
        # p = A v over the lower triangle: A_ij for i >= j, conj(A_ji) above
        ar, ai = re[k + 1:, k + 1:], im[k + 1:, k + 1:]
        pr.fill(0.0)
        pi.fill(0.0)
        for j in range(size):
            col_re, col_im, tc = ar[j:, j], ai[j:, j], t[j:]
            pr[j:] += np.multiply(col_re, vr[j], out=tc)
            pr[j:] -= np.multiply(col_im, vi[j], out=tc)
            pi[j:] += np.multiply(col_re, vi[j], out=tc)
            pi[j:] += np.multiply(col_im, vr[j], out=tc)
            row_re, row_im, tr = ar[j, :j], ai[j, :j], t[:j]
            pr[:j] += np.multiply(row_re, vr[j], out=tr)
            pr[:j] += np.multiply(row_im, vi[j], out=tr)
            pi[:j] += np.multiply(row_re, vi[j], out=tr)
            pi[:j] -= np.multiply(row_im, vr[j], out=tr)
        vp = np.multiply(vr, pr, out=sq)
        vp += np.multiply(vi, pi, out=t)
        np.copyto(half, vp[0])
        for row in vp[1:]:
            half += row
        half *= 0.5
        qr = np.subtract(pr, np.multiply(half, vr, out=t), out=pr)
        qi = np.subtract(pi, np.multiply(half, vi, out=t), out=pi)
        # A -= v q^H + q v^H, lower triangle
        for i in range(size):
            row_re, row_im, tr = ar[i, :i + 1], ai[i, :i], t[:i + 1]
            row_re -= np.multiply(vr[i], qr[:i + 1], out=tr)
            row_re -= np.multiply(vi[i], qi[:i + 1], out=tr)
            row_re -= np.multiply(qr[i], vr[:i + 1], out=tr)
            row_re -= np.multiply(qi[i], vi[:i + 1], out=tr)
            tr = t[:i]
            row_im -= np.multiply(vi[i], qr[:i], out=tr)
            row_im += np.multiply(vr[i], qi[:i], out=tr)
            row_im -= np.multiply(qi[i], vr[:i], out=tr)
            row_im += np.multiply(qr[i], vi[:i], out=tr)
    if d > 1:
        e2[d - 2] = re[d - 1, d - 2] ** 2 + im[d - 1, d - 2] ** 2
    np.copyto(diag, re.reshape(d * d, batch)[::d + 1])
    return diag, e2


# The Gershgorin bracket is at most 2||T|| wide, so after 53 halvings it is
# 2^-53 of that wide: the tolerance of the eigenvalue stage.  Every sample
# takes the first _HALVINGS of them, then _NEWTON_STEPS Newton steps; a
# sample that Newton leaves uncertified takes the remaining halvings.
_BISECTIONS = 53
_HALVINGS = 10
_NEWTON_STEPS = 4


def _pivots(diag, e2, x, q, ratio, u=None, s=None) -> None:
    """The LDL^T pivots of T - x I into q: q_0 = d_0 - x and
    q_i = (d_i - x) - e2_{i-1} / q_{i-1}.  With u and s, also
    s = sum_i q_i' / q_i = d/dx log det(T - x I), from q_0' = -1 and
    q_i' = -1 + (e2_{i-1} / q_{i-1}) q_{i-1}' / q_{i-1}."""
    np.subtract(diag, x, out=q)
    if s is not None:
        np.divide(-1.0, q[0], out=u)
        np.copyto(s, u)
    for i in range(1, len(diag)):
        np.divide(e2[i - 1], q[i - 1], out=ratio)
        q[i] -= ratio
        if s is not None:
            ratio *= u
            ratio -= 1.0
            np.divide(ratio, q[i], out=u)
            s += u


def _bisect(diag, e2, lo, width, steps, q, ratio, step) -> None:
    """steps halvings of the brackets [lo, lo + width], in place."""
    for _ in range(steps):
        width *= 0.5
        np.add(lo, width, out=step)
        _pivots(diag, e2, step, q, ratio)
        np.fmin.reduce(q, axis=0, out=step)
        np.greater(step, 0.0, out=step)
        step *= width
        lo += step


def _lowest_eigenvalue(diag: np.ndarray, e2: np.ndarray,
                       workspace: Workspace) -> np.ndarray:
    """Smallest eigenvalue l_1 of the real symmetric tridiagonal matrices
    with diagonal diag (d, B) and squared off-diagonal e2 (d-1, B), by step
    2 of the module docstring.

    T - s*I is positive definite, that is s < l_1, iff every pivot of its
    LDL^T factorisation is > 0 (Sylvester's law of inertia).  A zero pivot
    is itself <= 0, so the inf or nan it leads to further down needs no
    guard: fmin skips nan.  Newton steps only from a tested y < l_1, to
    y + 1/sum_j 1/(l_j - y) <= l_1; a sample whose test at y fails has l_1
    in [x, y] and keeps x.
    """
    d, batch = diag.shape
    q, radius, lo, width, tol, y, s, u, ratio = workspace.take(
        "planes", (d, batch), (d, batch), *[(batch,)] * 7)
    e = np.sqrt(e2, out=q[:d - 1])
    radius.fill(0.0)
    radius[1:] += e
    radius[:-1] += e
    np.min(np.subtract(diag, radius, out=radius), axis=0, out=lo)
    np.min(diag, axis=0, out=width)
    width -= lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _bisect(diag, e2, lo, width, _HALVINGS, q, ratio, s)
        np.multiply(width, 2.0 ** (_HALVINGS - _BISECTIONS), out=tol)
        x = lo.copy()
        # _NEWTON_STEPS tests with a step, then one test alone
        for newton in (True,) * _NEWTON_STEPS + (False,):
            np.nextafter(np.add(x, tol, out=y), np.inf, out=y)
            _pivots(diag, e2, y, q, ratio, *((u, s) if newton else ()))
            below = np.fmin.reduce(q, axis=0) > 0  # y < l_1
            if newton:  # x <- y - 1/s where y < l_1
                np.divide(-1.0, s, out=s)
                np.copyto(x, np.add(y, s, out=s), where=below)
        retry = np.flatnonzero(below)  # not certified
        if retry.size:
            sub_lo, sub_width = lo[retry], width[retry]
            _bisect(diag[:, retry], e2[:, retry], sub_lo, sub_width,
                    _BISECTIONS - _HALVINGS, q[:, :retry.size], ratio[:retry.size],
                    s[:retry.size])
            x[retry] = sub_lo + 0.5 * sub_width
    return x


def min_pt_eigenvalue_batch(rhos: np.ndarray, dims: tuple[int, int], *,
                            workspace: Workspace | None = None) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose over B, shape (...).

    The state is PPT when this is >= -PPT_TOL; PPT equals separability for
    m*n <= 6 (Peres-Horodecki), for larger systems it is necessary only.
    Raises LinAlgError on non-finite entries, and on entries beyond about
    1e150 in modulus, whose squares overflow.
    """
    ws = Workspace() if workspace is None else workspace
    d, batch = rhos.shape[-1], math.prod(rhos.shape[:-2])
    # the real and imaginary planes of rho^Gamma, the flattened batch last;
    # on batch-last input the copy reads contiguous rows
    pt = np.moveaxis(_pt_view(rhos.reshape((batch, d, d)), dims), 0, -1)
    re, im = ws.take("planes", pt.shape, pt.shape)
    np.copyto(re, pt.real)
    np.copyto(im, pt.imag)
    with np.errstate(invalid="ignore", over="ignore"):  # such input is refused below
        diag, e2 = _tridiagonal(re.reshape(d, d, batch), im.reshape(d, d, batch), ws)
    if not (np.isfinite(diag).all() and np.isfinite(e2).all()):
        raise np.linalg.LinAlgError("partial transpose has non-finite or overflowing entries")
    return _lowest_eigenvalue(diag, e2, ws).reshape(rhos.shape[:-2])[()]
