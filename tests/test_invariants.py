from itertools import permutations

import numpy as np
import pytest

from sepprob import invariants as inv
from sepprob import matrix_core as mc
from sepprob.random_states import hilbert_schmidt, state_batch
from conftest import (bell_psi_minus, haar_unitary, loop_partial_transpose,
                      random_density)

# position of standard Gell-Mann lambda_i in the module's frozen basis order
GM = {1: 0, 2: 3, 3: 6, 4: 1, 5: 4, 6: 2, 7: 5, 8: 7}

# the standard su(3) d-symbol table, keyed by Gell-Mann indices
SU3_D_TABLE = {
    (1, 1, 8): 1 / np.sqrt(3), (2, 2, 8): 1 / np.sqrt(3),
    (3, 3, 8): 1 / np.sqrt(3), (8, 8, 8): -1 / np.sqrt(3),
    (4, 4, 8): -1 / (2 * np.sqrt(3)), (5, 5, 8): -1 / (2 * np.sqrt(3)),
    (6, 6, 8): -1 / (2 * np.sqrt(3)), (7, 7, 8): -1 / (2 * np.sqrt(3)),
    (1, 4, 6): 0.5, (1, 5, 7): 0.5, (2, 5, 6): 0.5, (3, 4, 4): 0.5,
    (3, 5, 5): 0.5, (2, 4, 7): -0.5, (3, 6, 6): -0.5, (3, 7, 7): -0.5,
}


class TestSuBasis:
    def test_d2_is_pauli(self):
        b = inv.su_basis(2)
        sx = [[0, 1], [1, 0]]
        sy = [[0, -1j], [1j, 0]]
        sz = [[1, 0], [0, -1]]
        for got, want in zip(b.matrices, (sx, sy, sz)):
            assert np.array_equal(got, np.array(want, dtype=complex))

    def test_d3_count_and_last_diagonal(self):
        b = inv.su_basis(3)
        assert len(b.matrices) == 8
        assert np.allclose(b.matrices[-1], np.diag([1, 1, -2]) / np.sqrt(3),
                           atol=1e-15)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_orthonormality_and_tracelessness(self, d):
        lam = inv.su_basis(d).matrices
        assert len(lam) == d * d - 1
        gram = np.einsum("aij,bji->ab", lam, lam).real
        assert np.abs(gram - 2 * np.eye(d * d - 1)).max() < 1e-12
        assert np.abs(np.trace(lam, axis1=1, axis2=2)).max() < 1e-12
        assert np.abs(lam - np.conj(np.swapaxes(lam, 1, 2))).max() == 0

    def test_unsupported_dimension(self):
        for d in (1, 9):
            with pytest.raises(inv.UnsupportedDimension):
                inv.su_basis(d)


def gell_mann_vector(rho: np.ndarray) -> np.ndarray:
    """n_a = tr(rho l_a), one generator at a time."""
    return np.array([np.trace(rho @ lam).real
                     for lam in inv.su_basis(rho.shape[0]).matrices])


def gell_mann_radius(rho: np.ndarray) -> float:
    d = rho.shape[0]
    return 0.0 if d == 1 else np.linalg.norm(gell_mann_vector(rho)) / inv.radius_scale(d)


def cubic_casimir_oracle(rho: np.ndarray) -> float:
    """c3 = sum_abc d_abc nhat_a nhat_b nhat_c over the sparse d-tensor entries."""
    d = rho.shape[0]
    nhat = gell_mann_vector(rho) / inv.radius_scale(d)
    return sum(len(set(permutations((a, b, c)))) * val * nhat[a] * nhat[b] * nhat[c]
               for (a, b, c), val in inv.d_tensor(d).entries.items())


def fano_oracle(rho: np.ndarray) -> float:
    sig = inv.su_basis(2).matrices
    return sum(np.trace(rho @ np.kron(a, b)).real ** 2 for a in sig for b in sig)


def record_oracle(rho: np.ndarray, dims: tuple[int, int]) -> dict:
    """Per-state invariants by index loops and eigvalsh."""
    m, n = dims
    T = rho.reshape(m, n, m, n)
    rho_a = sum(T[:, j, :, j] for j in range(n))
    rho_b = sum(T[i, :, i, :] for i in range(m))
    pt = loop_partial_transpose(rho, m, n)
    out = {"r_a": gell_mann_radius(rho_a), "r_b": gell_mann_radius(rho_b),
           "ppt": np.linalg.eigvalsh(pt)[0] >= -mc.PPT_TOL}
    if m == 3:
        out["c3_a"] = cubic_casimir_oracle(rho_a)
    if n == 3:
        out["c3_b"] = cubic_casimir_oracle(rho_b)
    if dims == (2, 2):
        out["c002"] = fano_oracle(rho)
    return out


class TestCoherenceVector:
    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            n = inv.coherence_vectors_batch(np.eye(d) / d, inv.su_basis(d))
            assert np.abs(n).max() < 1e-14

    def test_pure_qutrit(self):
        n = inv.coherence_vectors_batch(np.diag([1.0, 0, 0]), inv.su_basis(3))
        want = np.zeros(8)
        want[GM[3]] = 1.0
        want[GM[8]] = 1 / np.sqrt(3)
        assert np.allclose(n, want, atol=1e-14)
        assert abs(np.linalg.norm(n) / inv.radius_scale(3) - 1.0) < 1e-12

    def test_qubit_diagonal(self):
        n = inv.coherence_vectors_batch(np.diag([0.75, 0.25]), inv.su_basis(2))
        assert np.allclose(n, [0, 0, 0.5], atol=1e-14)
        assert abs(np.linalg.norm(n) / inv.radius_scale(2) - 0.5) < 1e-14

    def test_radius_is_one_iff_pure(self, rng):
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        pure = np.outer(psi, psi.conj())
        assert abs(gell_mann_radius(pure) - 1) < 1e-8
        assert gell_mann_radius(random_density(rng, 3)) < 1 - 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(mc.ShapeMismatch):
            inv.coherence_vectors_batch(np.eye(2) / 2, inv.su_basis(3))

    def test_radius_purity_identity(self, rng):
        # radius^2 == (purity - 1/d)/(1 - 1/d): coherence-vector route vs
        # purity route compute the same quadratic Casimir
        for d in (2, 3, 4):
            basis = inv.su_basis(d)
            rhos = state_batch(hilbert_schmidt(d), 7 + d, 0, 10_000)
            nv = inv.coherence_vectors_batch(rhos, basis)
            r2_vec = (nv ** 2).sum(axis=1) / inv.radius_scale(d) ** 2
            pur = np.einsum("sij,sji->s", rhos, rhos).real
            r2_pur = (pur - 1 / d) / (1 - 1 / d)
            assert np.abs(r2_vec - r2_pur).max() < 1e-10


class TestDTensor:
    def test_su2_vanishes(self):
        assert inv.d_tensor(2).entries == {}

    def test_su3_golden_table(self):
        dt = inv.d_tensor(3)
        # every tabulated symbol, under the index map into the frozen order
        for (i, j, k), want in SU3_D_TABLE.items():
            assert abs(dt.value(GM[i], GM[j], GM[k]) - want) < 1e-12
        # and nothing outside the table (up to permutation) is nonzero
        canon = {tuple(sorted((GM[i], GM[j], GM[k]))) for i, j, k in SU3_D_TABLE}
        assert set(dt.entries) == canon

    def test_trace_formula(self):
        for d in (3, 4):
            lam = inv.su_basis(d).matrices
            dt = inv.d_tensor(d)
            m = d * d - 1
            for a in range(m):
                for b in range(m):
                    for c in range(m):
                        want = 0.25 * np.trace(
                            (lam[a] @ lam[b] + lam[b] @ lam[a]) @ lam[c]).real
                        assert abs(dt.value(a, b, c) - want) < 1e-12


class TestCubicCasimir:
    def test_maximally_mixed(self):
        assert abs(inv.cubic_casimir_batch(np.eye(3) / 3)) < 1e-14

    def test_pure_qutrit(self):
        assert abs(inv.cubic_casimir_batch(np.diag([1.0, 0, 0])) - 1 / np.sqrt(3)) < 1e-12

    def test_qubit_always_zero(self, rng):
        # su(2) has no d-tensor; the closed form cancels to rounding
        assert inv.d_tensor(2).entries == {}
        rhos = random_density(rng, 2, batch=20)
        assert np.abs(inv.cubic_casimir_batch(rhos)).max() < 1e-14

    def test_closed_form_matches_d_tensor_oracle(self):
        rhos = state_batch(hilbert_schmidt(3), 9, 0, 20_000)
        got = inv.cubic_casimir_batch(rhos)
        want = np.array([cubic_casimir_oracle(rho) for rho in rhos])
        assert np.abs(got - want).max() < 1e-12

    def test_batch_matches_scalar(self):
        # one state is a batch with no leading axes
        rhos = state_batch(hilbert_schmidt(3), 9, 0, 200)
        got = inv.cubic_casimir_batch(rhos)
        grid = inv.cubic_casimir_batch(rhos.reshape(10, 20, 3, 3))
        assert np.array_equal(grid.ravel(), got)
        for i in range(200):
            assert abs(inv.cubic_casimir_batch(rhos[i]) - got[i]) < 1e-15

    def test_bound_on_random_qutrits(self):
        rhos = state_batch(hilbert_schmidt(3), 33, 0, 100_000)
        c3 = inv.cubic_casimir_batch(rhos)
        assert np.abs(c3).max() <= 1 / np.sqrt(3) + 1e-9

    def test_unitary_covariance(self, rng):
        basis = inv.su_basis(3)
        for _ in range(50):
            rho = random_density(rng, 3)
            U = haar_unitary(rng, 3)
            rot = U @ rho @ U.conj().T
            n0 = inv.coherence_vectors_batch(rho, basis)
            n1 = inv.coherence_vectors_batch(rot, basis)
            assert abs(np.linalg.norm(n0) - np.linalg.norm(n1)) < 1e-10
            assert abs(inv.cubic_casimir_batch(rho) - inv.cubic_casimir_batch(rot)) < 1e-10


class TestFanoCorrelationInvariant:
    def test_maximally_mixed(self):
        assert abs(inv.fano_correlation_invariant_batch(np.eye(4) / 4)) < 1e-14

    def test_bell(self):
        assert abs(inv.fano_correlation_invariant_batch(bell_psi_minus()) - 3.0) < 1e-12

    def test_product_state(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        sig = inv.su_basis(2).matrices
        ra = np.einsum("ij,aji->a", a, sig).real
        rb = np.einsum("ij,aji->a", b, sig).real
        want = np.dot(ra, ra) * np.dot(rb, rb)
        got = inv.fano_correlation_invariant_batch(np.kron(a, b))
        assert abs(got - want) < 1e-12

    def test_range_on_random_states(self):
        rhos = state_batch(hilbert_schmidt(4), 21, 0, 100_000)
        c = inv.fano_correlation_invariant_batch(rhos)
        assert c.min() >= 0.0
        assert c.max() <= 3.0 + 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(mc.ShapeMismatch):
            inv.fano_correlation_invariant_batch(np.eye(6) / 6)


class TestRecord:
    def test_maximally_mixed_2x3(self):
        r = inv.record_batch(np.eye(6) / 6, (2, 3))
        assert r["r_a"] == 0.0 and r["r_b"] == 0.0
        assert abs(r["c3_b"]) < 1e-14
        assert r["ppt"] and "c002" not in r

    def test_pure_product_2x3(self, rng):
        psi_a = np.array([1.0, 0])
        psi_b = np.array([0, 1.0, 0])
        rho = np.kron(np.outer(psi_a, psi_a), np.outer(psi_b, psi_b)).astype(complex)
        r = inv.record_batch(rho, (2, 3))
        assert abs(r["r_a"] - 1) < 1e-12 and abs(r["r_b"] - 1) < 1e-12
        assert r["ppt"]

    def test_bell_2x2(self):
        r = inv.record_batch(bell_psi_minus(), (2, 2))
        assert not r["ppt"]
        assert abs(r["c002"] - 3.0) < 1e-12
        assert "c3_b" not in r

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_batch_matches_scalar(self, dims):
        d = dims[0] * dims[1]
        rhos = state_batch(hilbert_schmidt(d), 13, 0, 100)
        out = inv.record_batch(rhos, dims)
        for i in range(100):
            r = record_oracle(rhos[i], dims)
            assert out["ppt"][i] == r.pop("ppt")
            for key, want in r.items():
                assert abs(out[key][i] - want) < 1e-10, key
            assert abs(out["c2_a"][i] - r["r_a"] ** 2) < 1e-10

    def test_c2_is_radius_squared(self):
        rhos = state_batch(hilbert_schmidt(6), 3, 0, 1_000)
        out = inv.record_batch(rhos, (2, 3))
        assert np.abs(out["c2_a"] - out["r_a"] ** 2).max() < 1e-12
        assert np.abs(out["c2_b"] - out["r_b"] ** 2).max() < 1e-12

    def test_pt_insensitivity(self):
        # invariants of the reduced states are unchanged by partial transpose
        rhos = state_batch(hilbert_schmidt(6), 29, 0, 10_000)
        pt = mc.partial_transpose_batch(rhos, (2, 3))
        a = inv.record_batch(rhos, (2, 3))
        b = inv.record_batch(pt, (2, 3))
        for key in ("r_a", "r_b", "c2_a", "c2_b", "c3_b"):
            assert np.abs(a[key] - b[key]).max() < 1e-10
