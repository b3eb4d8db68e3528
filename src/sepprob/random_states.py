"""Reproducible sampling of random density matrices.

States are built from Ginibre matrices G (independent complex Gaussian
entries, real and imaginary parts standard normal) as rho = G G^dag / tr.
With an n x k Ginibre matrix this realizes the random induced measure with
ancilla dimension k; k = n is the Hilbert-Schmidt case.

Reproducibility: the stream is counter-based (Philox).  Samples are grouped
into fixed chunks of CHUNK_SAMPLES; chunk c of master seed s is the normal
stream Generator(Philox(key=[s, c])).standard_normal (numpy's ziggurat),
with the key an unsigned 64-bit pair.  Sample ``off`` of a chunk takes
normals [off*2nk, (off+1)*2nk) of it: the first nk are the real parts of G
in row-major (n, k) order, the last nk the imaginary parts.  The state for
a given (master_seed, sample_index) is therefore bit-identical no matter
how index ranges are split across workers.

The ziggurat draws a variable number of raw Philox outputs per normal, so a
sample's normals can only be reached by generating its chunk from the
start: a call that begins mid-chunk regenerates that chunk's prefix, up to
one chunk of normals.  STREAM_VERSION names this format (version 1 was
Box-Muller on keyed uniforms); it is part of every run's config hash.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

CHUNK_SAMPLES = 4096
# the draw format above; a change to it bumps this, never a setting
STREAM_VERSION = 2


@dataclass(frozen=True)
class MeasureSpec:
    """System dimension n, ancilla dimension k, and a measure label."""
    n: int
    k: int
    label: str  # "hs" or "induced"

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("dimensions must be >= 1")
        if self.label == "hs" and self.k != self.n:
            raise ValueError("Hilbert-Schmidt measure requires k == n")
        if self.label not in ("hs", "induced"):
            raise ValueError(f"unknown measure label {self.label!r}")


def hilbert_schmidt(n: int) -> MeasureSpec:
    return MeasureSpec(n=n, k=n, label="hs")


def induced(n: int, k: int) -> MeasureSpec:
    return MeasureSpec(n=n, k=k, label="induced")


def _normals(master_seed: int, start: int, count: int,
             per_sample: int) -> np.ndarray:
    """Standard normals of samples [start, start+count), shape (count, per_sample)."""
    out = np.empty((count, per_sample))
    i, end = start, start + count
    while i < end:
        chunk, off = divmod(i, CHUNK_SAMPLES)
        take = min(end - i, CHUNK_SAMPLES - off)
        # a list key is cast through int64 and garbles seeds >= 2**63
        key = np.array([master_seed, chunk], dtype=np.uint64)
        rng = Generator(Philox(key=key))
        if off:
            rng.standard_normal(off * per_sample)  # the chunk's prefix
        rng.standard_normal(out=out[i - start:i - start + take].reshape(-1))
        i += take
    return out


def ginibre_batch(n: int, k: int, master_seed: int, start: int,
                  count: int) -> np.ndarray:
    """Ginibre matrices for sample indices [start, start+count), shape (count, n, k)."""
    nk = n * k
    z = _normals(master_seed, start, count, 2 * nk)
    G = np.empty((count, n, k), dtype=complex)
    G.real = z[:, :nk].reshape(count, n, k)
    G.imag = z[:, nk:].reshape(count, n, k)
    return G


def state_batch(measure: MeasureSpec, master_seed: int, start: int,
                count: int) -> np.ndarray:
    """Density matrices for sample indices [start, start+count), shape (count, n, n)."""
    G = ginibre_batch(measure.n, measure.k, master_seed, start, count)
    # tr(G G^dag) is the sum of squares of the sample's 2nk normals; it is 0
    # only if all of them are exactly 0 (p <= 2^-208 for nk >= 2)
    z = G.view(np.float64)
    tr = np.einsum("sij,sij->s", z, z)
    M = G @ G.conj().transpose(0, 2, 1)
    M /= tr[:, None, None]
    return M
