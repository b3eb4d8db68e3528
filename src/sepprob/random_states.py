"""Reproducible sampling of random density matrices.

States are built from Ginibre matrices G (independent complex Gaussian
entries, real and imaginary parts standard normal) as rho = G G^dag / tr.
With an n x k Ginibre matrix this realizes the random induced measure with
ancilla dimension k; k = n is the Hilbert-Schmidt case.

Reproducibility: the stream is counter-based (Philox).  Samples are grouped
into fixed chunks of CHUNK_SAMPLES; chunk c of master seed s is keyed
Philox(key=[s, c]) and each sample occupies a fixed run of uniforms inside
its chunk.  The state for a given (master_seed, sample_index) is therefore
bit-identical no matter how index ranges are split across workers.

Normals come from Box-Muller applied to the keyed uniforms, so uniform
consumption per sample is fixed (2*n*k doubles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

CHUNK_SAMPLES = 4096


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


def _chunk_uniforms(master_seed: int, chunk: int, skip: int, count: int) -> np.ndarray:
    key = np.array([np.uint64(master_seed), np.uint64(chunk)], dtype=np.uint64)
    rng = Generator(Philox(key=key))
    if skip:
        rng.random(skip)
    return rng.random(count)


def _uniforms(master_seed: int, start: int, count: int,
              per_sample: int) -> np.ndarray:
    """Uniforms for samples [start, start+count), concatenated."""
    out = np.empty(count * per_sample)
    pos = 0
    i = start
    end = start + count
    while i < end:
        chunk, off = divmod(i, CHUNK_SAMPLES)
        take = min(end - i, CHUNK_SAMPLES - off)
        out[pos:pos + take * per_sample] = _chunk_uniforms(
            master_seed, chunk, off * per_sample, take * per_sample)
        pos += take * per_sample
        i += take
    return out


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from consecutive uniform pairs; same shape as u."""
    u1 = u[..., 0::2]
    u2 = u[..., 1::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))
    ang = (2.0 * np.pi) * u2
    z = np.empty_like(u)
    z[..., 0::2] = r * np.cos(ang)
    z[..., 1::2] = r * np.sin(ang)
    return z


def ginibre_batch(n: int, k: int, master_seed: int, start: int,
                  count: int) -> np.ndarray:
    """Ginibre matrices for sample indices [start, start+count), shape (count, n, k)."""
    per = 2 * n * k
    u = _uniforms(master_seed, start, count, per).reshape(count, per)
    z = _box_muller(u)
    return (z[:, :n * k] + 1j * z[:, n * k:]).reshape(count, n, k)


def state_batch(measure: MeasureSpec, master_seed: int, start: int,
                count: int) -> np.ndarray:
    """Density matrices for sample indices [start, start+count), shape (count, n, n)."""
    G = ginibre_batch(measure.n, measure.k, master_seed, start, count)
    M = G @ G.conj().transpose(0, 2, 1)
    # tr > 0 unless every Box-Muller radius of a draw is 0 (p <= 2^-212)
    tr = np.trace(M, axis1=1, axis2=2).real
    return M / tr[:, None, None]
