"""su(d) generator basis, coherence (generalized Bloch) vectors, Casimir
invariants and the two-qubit correlation invariant.

Every invariant a run records is a closed form in the power traces tr rho^2,
tr rho_A^2, tr rho_B^2 and, on a qutrit side, tr rho^3; the generator basis,
coherence vectors and d-tensor define those invariants and check them, and
the sampling path never builds them.  The power traces read each entry of
a Hermitian state once, summing over distinct index sets of its diagonal
and lower triangle:

    tr rho^2 = sum_i rho_ii^2 + 2 sum_{i>j} |rho_ij|^2,
    tr rho^3 = sum_i rho_ii^3 + 3 sum_{q>p} (rho_pp + rho_qq) |rho_qp|^2
               + 6 sum_{r>q>p} Re(conj(rho_qp) conj(rho_rq) rho_rp),

which is 7 terms of tr rho^3 on a qutrit instead of 27 products.

Basis order is frozen: symmetric off-diagonal generators in lexicographic
(j,k) order (j<k), then the antisymmetric ones in the same order, then the
d-1 diagonal generators.  For d=2 this is (sigma_x, sigma_y, sigma_z); for
d=3 it is (l1, l4, l6, l2, l5, l7, l3, l8) in standard Gell-Mann numbering.

Radius normalization: radius = |n| / sqrt(2(d-1)/d), so pure states sit at
exactly 1 for every d.  The cubic invariant is evaluated on the same
unit-normalized vector, giving |c3| <= 1/sqrt(3) for qutrits.

Every function takes states of shape (..., d, d); a single state is a batch
with no leading axes.

axis_labels names the invariants a run records for a shape and AXIS_RANGES
gives the [lo, hi] each is binned over; a run's histograms are built from
these two alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import matrix_core as mc


def radius_scale(d: int) -> float:
    """|n| of a pure d-level state: sqrt(2(d-1)/d)."""
    return np.sqrt(2.0 * (d - 1) / d)


@lru_cache(maxsize=None)
def su_basis(d: int) -> np.ndarray:
    """The d^2-1 generalized Gell-Mann generators of su(d), tr(l_a l_b) =
    2 delta_ab, in the frozen order above: a read-only (d^2-1, d, d) array."""
    mats = []
    pairs = list(combinations(range(d), 2))
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = m[k, j] = 1.0
        mats.append(m)
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = -1j
        m[k, j] = 1j
        mats.append(m)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag).astype(complex) * np.sqrt(2.0 / (l * (l + 1))))
    arr = np.array(mats, dtype=complex).reshape(d * d - 1, d, d)
    arr.setflags(write=False)
    return arr


def coherence_vectors_batch(rhos: np.ndarray) -> np.ndarray:
    """Coherence vectors n_a = tr(rho l_a) of states (..., d, d), shape (..., d^2-1)."""
    return np.einsum("...ij,aji->...a", rhos, su_basis(rhos.shape[-1])).real


@dataclass(frozen=True, eq=False)
class DTensor:
    """Totally symmetric d_abc = (1/4) tr({l_a, l_b} l_c), stored sparsely.

    entries maps canonically sorted index triples to values.
    """
    entries: dict

    def value(self, a: int, b: int, c: int) -> float:
        return self.entries.get(tuple(sorted((a, b, c))), 0.0)


@lru_cache(maxsize=None)
def d_tensor(d: int) -> DTensor:
    """Symmetric structure constants of su(d) for the module's basis."""
    lam = su_basis(d)
    m = len(lam)
    entries = {}
    for a in range(m):
        for b in range(a, m):
            anti = lam[a] @ lam[b] + lam[b] @ lam[a]
            for c in range(b, m):
                v = 0.25 * np.einsum("ij,ji->", anti, lam[c]).real
                if abs(v) > 1e-12:
                    entries[(a, b, c)] = float(v)
    return DTensor(entries=entries)


def cubic_casimir_batch(rhos: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """c3 = sum_abc d_abc nhat_a nhat_b nhat_c of Hermitian states (..., d, d)
    with quadratic Casimir c2: with rho = I/d + n.l/2, |n|^2 = c2
    radius_scale(d)^2 and tr rho^3 = 1/d^2 + 3|n|^2/(2d) + (1/4) sum_abc
    d_abc n_a n_b n_c.  0 for d = 1, where su(1) has no generators.

    tr rho^3 is summed over distinct index sets of the diagonal and lower
    triangle, sum_i rho_ii^3 + 3 sum_{q>p} (rho_pp + rho_qq) |rho_qp|^2
    + 6 sum_{r>q>p} Re(conj(rho_qp) conj(rho_rq) rho_rp), each sum in index
    order with one real multiply or add per operation, so a sample's result
    has the same bits in any batch."""
    d = rhos.shape[-1]
    if d == 1:
        return np.zeros(rhos.shape[:-2])[()]
    re, im = mc.entry_planes(rhos)
    tr3, pairs, triples, t, u = (np.zeros(rhos.shape[:-2]) for _ in range(5))
    for r in range(d):
        np.multiply(re[r, r], re[r, r], out=t)
        tr3 += np.multiply(t, re[r, r], out=t)
        for q in range(r):
            np.multiply(re[r, q], re[r, q], out=t)
            t += np.multiply(im[r, q], im[r, q], out=u)
            t *= np.add(re[q, q], re[r, r], out=u)
            pairs += t
            for p in range(q):
                # Re(x y) z_re + Im(x y) z_im for x = rho_qp, y = rho_rq, z = rho_rp
                np.multiply(re[q, p], re[r, q], out=t)
                t -= np.multiply(im[q, p], im[r, q], out=u)
                triples += np.multiply(t, re[r, p], out=t)
                np.multiply(re[q, p], im[r, q], out=t)
                t += np.multiply(im[q, p], re[r, q], out=u)
                triples += np.multiply(t, im[r, p], out=t)
    pairs *= 3.0
    tr3 += pairs
    triples *= 6.0
    tr3 += triples
    n2 = c2 * radius_scale(d) ** 2
    return 4.0 * (tr3 - 1.0 / d ** 2 - 1.5 * n2 / d) / radius_scale(d) ** 3


def fano_correlation_invariant_batch(rhos: np.ndarray, c2_a: np.ndarray,
                                     c2_b: np.ndarray) -> np.ndarray:
    """Sum of squares |t|^2 of the Fano correlation matrix of two-qubit states
    rho = (I + a.s x I + I x b.s + t_ij s_i x s_j)/4 with c2_a = |a|^2 and
    c2_b = |b|^2, from 4 tr rho^2 = 1 + |a|^2 + |b|^2 + |t|^2."""
    if rhos.shape[-2:] != (4, 4):
        raise mc.ShapeMismatch(f"expected 4x4 states, got shape {rhos.shape}")
    return np.clip(4.0 * mc.purity_batch(rhos) - 1.0 - c2_a - c2_b, 0.0, None)


def quadratic_casimir_batch(red: np.ndarray) -> np.ndarray:
    """Squared normalized Bloch radius (purity - 1/d)/(1 - 1/d) of states
    (..., d, d), clipped to [0, 1]: rounding takes a pure state's purity to
    as much as 1 + 1.3e-15, which would otherwise leave its axes' range."""
    d = red.shape[-1]
    if d == 1:
        return np.zeros(red.shape[:-2])
    return np.clip((mc.purity_batch(red) - 1.0 / d) / (1.0 - 1.0 / d), 0.0, 1.0)


# [lo, hi] of every axis label, wide enough for every state:
# - radii and quadratic Casimirs are 0 for the maximally mixed state and 1
#   for a pure one;
# - |c3| <= 1/sqrt(3) on a qutrit;
# - C002 = |t|^2 = 4 tr rho^2 - 1 - c2_A - c2_B <= 3, with tr rho^2 <= 1.
AXIS_RANGES = {
    "r_A": (0.0, 1.0),
    "R_B": (0.0, 1.0),
    "c2_A": (0.0, 1.0),
    "c2_B": (0.0, 1.0),
    "c3_A": (-1.0, 1.0),
    "c3_B": (-1.0, 1.0),
    "C002": (0.0, 3.0),
}


def axis_labels(dims: tuple[int, int]) -> list[str]:
    """Invariant axes recorded for an m x n bipartition: the radii and
    quadratic Casimirs always, c3 of each qutrit side, C002 for two qubits."""
    m, n = dims
    labels = ["r_A", "R_B", "c2_A", "c2_B"]
    if m == 3:
        labels.append("c3_A")
    if n == 3:
        labels.append("c3_B")
    if (m, n) == (2, 2):
        labels.append("C002")
    return labels


def record_batch(rhos: np.ndarray, dims: tuple[int, int]) -> dict:
    """PPT flags ("ppt") and one array per axis_labels(dims) entry of
    bipartite states (..., m*n, m*n).  The reduced states and the PPT
    kernel's arrays live in the calling thread's buffers
    (matrix_core.take_buffers); the reduced states are done with before the
    kernel takes them over."""
    m, n, lead = *dims, rhos.shape[:-2]
    # batch-last, like the states of random_states.state_batch
    rho_a, rho_b = (np.moveaxis(t, (0, 1), (-2, -1)) for t in mc.take_buffers(
        "planes", (m, m, *lead), (n, n, *lead), dtype=complex))
    mc.partial_trace_batch(rhos, dims, "A", out=rho_a)
    mc.partial_trace_batch(rhos, dims, "B", out=rho_b)
    c2_a = quadratic_casimir_batch(rho_a)
    c2_b = quadratic_casimir_batch(rho_b)
    derived = {
        "r_A": lambda: np.sqrt(c2_a),
        "R_B": lambda: np.sqrt(c2_b),
        "c2_A": lambda: c2_a,
        "c2_B": lambda: c2_b,
        "c3_A": lambda: cubic_casimir_batch(rho_a, c2_a),
        "c3_B": lambda: cubic_casimir_batch(rho_b, c2_b),
        "C002": lambda: fano_correlation_invariant_batch(rhos, c2_a, c2_b),
    }
    out = {lb: derived[lb]() for lb in axis_labels(dims)}
    out["ppt"] = mc.min_pt_eigenvalue_batch(rhos, dims) >= -mc.PPT_TOL
    return out
