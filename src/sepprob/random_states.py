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
names this format (version 1 was Box-Muller on keyed uniforms, version 2
Ginibre matrices on one Philox stream per chunk); it is part of every
run's config hash.

ginibre_batch draws full Ginibre matrices from substream 0 of the same
chunks (2nk normals per sample, real and imaginary parts interleaved,
row-major); the sampling path does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

CHUNK_SAMPLES = 4096
# the draw format above; a change to it bumps this, never a setting
STREAM_VERSION = 3


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


def induced(n: int, k: int) -> MeasureSpec:
    return MeasureSpec(n=n, k=k)


def _draws(master_seed: int, sub: int, start: int, count: int, per_sample: int,
           draw) -> np.ndarray:
    """Draws of samples [start, start+count) on substream sub, shape
    (count, per_sample); draw(rng, out) fills a (rows, per_sample) array."""
    out = np.empty((count, per_sample))
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


def _normals(master_seed: int, start: int, count: int, per_sample: int) -> np.ndarray:
    """Standard normals of samples [start, start+count) on substream 0."""
    return _draws(master_seed, 0, start, count, per_sample,
                  lambda rng, a: rng.standard_normal(out=a))


def ginibre_batch(n: int, k: int, master_seed: int, start: int,
                  count: int) -> np.ndarray:
    """Ginibre matrices for sample indices [start, start+count), shape (count, n, k)."""
    return _normals(master_seed, start, count, 2 * n * k).view(complex).reshape(count, n, k)


def state_batch(measure: MeasureSpec, master_seed: int, start: int,
                count: int) -> np.ndarray:
    """Density matrices for sample indices [start, start+count), shape (count, n, n)."""
    n, k = measure.n, measure.k
    r = min(n, k)
    widths = [min(i, r) for i in range(n)]
    z = _normals(master_seed, start, count, 2 * sum(widths))
    shapes = np.arange(k, k - r, -1, dtype=float)
    g = _draws(master_seed, 1, start, count, r,
               lambda rng, a: rng.standard_gamma(shapes, out=a))
    g *= 2.0
    # rho = Lh Lh^dag with Lh = L / sqrt(sum |L_ij|^2); the sum is at least
    # |L_00|^2 = 2 Gamma(k), which Marsaglia-Tsang never returns as 0 for
    # k >= 2; for k = 1 the exponential ziggurat gives 0 with p ~ 2^-53, and
    # the sum is 0 only if the sample's 2(n-1) normals are all 0 as well
    s = 1.0 / np.sqrt(np.einsum("si,si->s", z, z) + g.sum(axis=1))
    z *= s[:, None]
    zc = z.view(complex)
    L = np.zeros((count, n, r), dtype=complex)
    idx = np.arange(r)
    L.real[:, idx, idx] = np.sqrt(g) * s[:, None]
    pos = 0
    for i, w in enumerate(widths):
        L[:, i, :w] = zc[:, pos:pos + w]
        pos += w
    return L @ L.conj().transpose(0, 2, 1)
