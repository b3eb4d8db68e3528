"""Reproducible sampling of random density matrices.

A state of the random induced measure with ancilla dimension k is
rho = G G^dag / tr(G G^dag), G an n x k Ginibre matrix (independent complex
Gaussian entries, real and imaginary parts standard normal); k = n is the
Hilbert-Schmidt case.  States are not built from G but from the triangular
factor L of G G^dag = L L^dag, which has the same law as a matrix (complex
Bartlett decomposition: Bartlett, Proc. R. Soc. Edinb. 53, 260 (1933);
Goodman, Ann. Math. Stat. 34, 152 (1963)).  L is lower trapezoidal,
n x r with r = min(n, k), and its entries are independent:

- below the diagonal (j < min(i, r)), L_ij is a complex normal like G's;
- on the diagonal (i < r), L_ii = sqrt(2 Gamma(k - i)), real and positive,
  since |L_ii|^2 is chi-square with 2(k - i) degrees of freedom.

rho = L L^dag / sum |L_ij|^2.  A sample draws m = sum_i min(i, r) complex
normals and r gammas, against nk complex normals for G.

state_batch builds rho from the real and imaginary planes of the scaled
factor, each (n, r, count) with the batch last, by plain multiplies and
adds in a fixed order, and makes no BLAS call.  It returns the (count, n, n)
view of an (n, n, count) complex array, so every entry of rho is a
contiguous row over the batch, which is what the kernels downstream read.
Each entry above the diagonal is written as the exact conjugate of the one
below and the diagonal is real: every state is exactly Hermitian, and has
the same bits in any batch.

The draws, the factor's planes and the column sums live in the buffers of
a matrix_core.Workspace.  runner._range_stats makes one per pass, that is
per lane of a run (the whole run on one worker, one pool task for the
whole run on more), passes it to every sub-batch of the pass and then
drops it, so after the first sub-batch these arrays fault in no fresh
pages; a call given none makes its own.  rho itself never lives in a
workspace: callers keep the states a call returns, so each call returns
a fresh array.  No workspace is cached at module level.

Reproducibility: samples are grouped into fixed chunks of CHUNK_SAMPLES.
Chunk c of master seed s has two substreams,
Generator(SFC64(SeedSequence([s, c, sub]))): sub 0 holds the normals
(standard_normal, numpy's ziggurat) and sub 1 the gammas (standard_gamma).
Sample ``off`` of a chunk takes

- normals [off*2m, (off+1)*2m) of substream 0: the real and imaginary
  parts, interleaved, of L's below-diagonal entries in row-major order;
- gammas [off*r, (off+1)*r) of substream 1, drawn with shapes
  k, k-1, ..., k-r+1 in that order, one per diagonal entry.

The state for a given (master_seed, sample_index) is therefore
bit-identical no matter how index ranges are split across workers.

Both the ziggurat and the gamma sampler consume a variable number of raw
draws, so a sample's draws can only be reached by generating its chunk of
each substream from the start: a call that begins mid-chunk regenerates
that chunk's prefix on both, up to one chunk of draws.  STREAM_VERSION
names this format and the arithmetic that turns draws into rho (version 1
was Box-Muller on keyed uniforms, version 2 Ginibre matrices on one Philox
stream per chunk, version 3 these draws with rho from a batched matmul of
L by L^dag); it is part of every run's config hash.

ginibre_batch draws full Ginibre matrices from substream 0 of the same
chunks (2nk normals per sample, real and imaginary parts interleaved,
row-major); the sampling path does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .matrix_core import Workspace

CHUNK_SAMPLES = 4096
# the draw format above; a change to it bumps this, never a setting
STREAM_VERSION = 4


@dataclass(frozen=True)
class MeasureSpec:
    """The induced measure on n x n states with ancilla dimension k."""
    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("dimensions must be >= 1")


def hilbert_schmidt(n: int) -> MeasureSpec:
    return MeasureSpec(n=n, k=n)


def _draws(master_seed: int, sub: int, start: int, out: np.ndarray, draw) -> np.ndarray:
    """Fill out, of shape (count, per_sample), with the draws of samples
    [start, start+count) on substream sub; draw(rng, a) fills a
    (rows, per_sample) array."""
    count, per_sample = out.shape
    i, end = start, start + count
    while i < end:
        chunk, off = divmod(i, CHUNK_SAMPLES)
        take = min(end - i, CHUNK_SAMPLES - off)
        rng = Generator(SFC64(SeedSequence([master_seed, chunk, sub])))
        if off:
            draw(rng, np.empty((off, per_sample)))  # the chunk's prefix
        draw(rng, out[i - start:i - start + take])
        i += take
    return out


def _normals(master_seed: int, start: int, out: np.ndarray) -> np.ndarray:
    """Standard normals of samples [start, start+count) on substream 0."""
    return _draws(master_seed, 0, start, out, lambda rng, a: rng.standard_normal(out=a))


def ginibre_batch(n: int, k: int, master_seed: int, start: int,
                  count: int) -> np.ndarray:
    """Ginibre matrices for sample indices [start, start+count), shape (count, n, k)."""
    z = _normals(master_seed, start, np.empty((count, 2 * n * k)))
    return z.view(complex).reshape(count, n, k)


def state_batch(measure: MeasureSpec, master_seed: int, start: int,
                count: int, *, workspace: Workspace | None = None) -> np.ndarray:
    """Density matrices for sample indices [start, start+count), shape
    (count, n, n): the view of a fresh (n, n, count) array, whose every
    entry is one contiguous row over the batch.  The draws, the factor's
    planes and the column sums go through the workspace's buffers.

    rho_ij = sum_{k <= min(i, j)} Lh_ik conj(Lh_jk) for i >= j, summed over k
    in order by plain multiplies and adds on the real and imaginary planes
    of Lh (no BLAS call), so a state has the same bits in any batch; the
    entry above the diagonal is the exact conjugate and the diagonal is
    real, so every state is exactly Hermitian.
    """
    ws = Workspace() if workspace is None else workspace
    n, k = measure.n, measure.k
    r = min(n, k)
    widths = [min(i, r) for i in range(n)]
    m = sum(widths)
    z, g = ws.take("rows", (count, 2 * m), (count, r))
    _normals(master_seed, start, z)
    shapes = np.arange(k, k - r, -1, dtype=float)
    _draws(master_seed, 1, start, g, lambda rng, a: rng.standard_gamma(shapes, out=a))
    g *= 2.0
    # rho = Lh Lh^dag with Lh = L / sqrt(sum |L_ij|^2); the sum is at least
    # |L_00|^2 = 2 Gamma(k), which Marsaglia-Tsang never returns as 0 for
    # k >= 2; for k = 1 the exponential ziggurat gives 0 with p ~ 2^-53, and
    # the sum is 0 only if the sample's 2(n-1) normals are all 0 as well
    s = 1.0 / np.sqrt(np.einsum("si,si->s", z, z) + g.sum(axis=1))
    # the real and imaginary planes of Lh, (2, n, r, count); the loop below
    # reads no entry above the diagonal
    planes, = ws.take("planes", (2, n, r, count))
    parts = z.reshape(count, m, 2).transpose(2, 1, 0)  # (2, m, count) view
    pos = 0
    for i, w in enumerate(widths):
        np.multiply(parts[:, pos:pos + w], s, out=planes[:, i, :w])
        pos += w
    lr, li = planes
    diag = lr.reshape(n * r, count)[:r * (r + 1):r + 1]  # L_ii, i < r
    np.sqrt(g.T, out=diag)
    diag *= s
    li.reshape(n * r, count)[:r * (r + 1):r + 1] = 0.0
    rho = np.empty((n, n, count), dtype=complex)
    # the draws are used up: the column sums take their rows
    sum_re, sum_im, tmp = ws.take("rows", (n, count), (n, count), (n, count))
    for j in range(n):
        # column j on and below the diagonal
        acc_re, acc_im, t = sum_re[:n - j], sum_im[:n - j], tmp[:n - j]
        acc_re.fill(0.0)
        acc_im.fill(0.0)
        for kk in range(min(j + 1, r)):
            a_re, a_im = lr[j:, kk], li[j:, kk]
            b_re, b_im = lr[j, kk], li[j, kk]
            acc_re += np.multiply(a_re, b_re, out=t)
            acc_re += np.multiply(a_im, b_im, out=t)
            acc_im += np.multiply(a_im, b_re, out=t)
            acc_im -= np.multiply(a_re, b_im, out=t)
        # the conjugate row first: the column then writes the diagonal's
        # imaginary part as the +0 that acc_im holds there
        rho.real[j, j:] = acc_re
        np.negative(acc_im, out=rho.imag[j, j:])
        rho.real[j:, j] = acc_re
        rho.imag[j:, j] = acc_im
    return rho.transpose(2, 0, 1)
