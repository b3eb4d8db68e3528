import numpy as np
import pytest

from sepprob import matrix_core as mc
from conftest import bell_psi_minus, random_density


def werner(p: float) -> np.ndarray:
    return p * bell_psi_minus() + (1 - p) * np.eye(4) / 4


class TestHermitianEigenvalues:
    def test_diagonal(self):
        w = mc.hermitian_eigenvalues(np.diag([0.25, 0.75]))
        assert np.allclose(w, [0.25, 0.75], atol=1e-14)

    def test_pauli_x(self):
        w = mc.hermitian_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_bell_partial_transpose_spectrum(self):
        pt = mc.partial_transpose(bell_psi_minus(), (2, 2))
        w = mc.hermitian_eigenvalues(pt)
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_ascending_order(self, rng):
        for d in (3, 6, 9):
            M = random_density(rng, d) * d  # unnormalized Hermitian
            w = mc.hermitian_eigenvalues(M)
            assert np.all(np.diff(w) >= 0)

    def test_non_hermitian_rejected(self):
        M = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(mc.NonHermitianInput):
            mc.hermitian_eigenvalues(M)

    def test_dimension_cap(self):
        with pytest.raises(mc.ShapeMismatch):
            mc.hermitian_eigenvalues(np.eye(17))

    def test_charpoly_root_oracle(self, rng):
        # independent route: Newton-identity characteristic polynomial
        # coefficients + companion-matrix root finding
        def charpoly_roots(M):
            d = M.shape[0]
            p, P = [], np.eye(d, dtype=complex)
            for _ in range(d):
                P = P @ M
                p.append(np.trace(P))
            e = [1.0 + 0j]
            for k in range(1, d + 1):
                e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1]
                             for i in range(1, k + 1)) / k)
            coeffs = np.array([(-1) ** k * e[k] for k in range(d + 1)])
            return np.sort(np.roots(coeffs).real)

        count = 0
        for d in range(2, 10):
            for _ in range(125):
                G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                M = (G + G.conj().T) / (2 * np.sqrt(d))
                assert np.abs(mc.hermitian_eigenvalues(M) - charpoly_roots(M)).max() < 1e-9
                count += 1
        assert count == 1000


class TestPartialTranspose:
    def test_diagonal_unchanged(self, rng):
        rho = np.diag(rng.random(6))
        rho /= np.trace(rho)
        assert np.array_equal(mc.partial_transpose(rho, (2, 3)), rho)

    def test_bell_min_eigenvalue(self):
        pt = mc.partial_transpose(bell_psi_minus(), (2, 2))
        assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12

    def test_product_state_factorizes(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        got = mc.partial_transpose(np.kron(a, b), (2, 3))
        assert np.allclose(got, np.kron(a, b.T), atol=1e-14)
        # rho^{T_A} = (rho^{T_B})^T
        assert np.allclose(got.T, np.kron(a.T, b), atol=1e-14)

    def test_involution_exact(self, rng):
        rhos = random_density(rng, 6, batch=10_000)
        pt = mc.partial_transpose_batch(rhos, (2, 3))
        back = mc.partial_transpose_batch(pt, (2, 3))
        assert np.array_equal(back, rhos)
        # any leading shape: a (100, 100) grid and one matrix agree entrywise
        grid = mc.partial_transpose_batch(rhos.reshape(100, 100, 6, 6), (2, 3))
        assert np.array_equal(grid.reshape(pt.shape), pt)
        assert np.array_equal(mc.partial_transpose(rhos[7], (2, 3)), pt[7])

    def test_norm_preservation(self, rng):
        # tr(rho^2) == tr((rho^TB)^2) for 1e4 states of each tested shape
        for dims in ((2, 2), (2, 3), (3, 3), (2, 4)):
            d = dims[0] * dims[1]
            rhos = random_density(rng, d, batch=10_000)
            pt = mc.partial_transpose_batch(rhos, dims)
            diff = np.abs(mc.purity_batch(rhos) - mc.purity_batch(pt))
            assert diff.max() <= 1e-12

    def test_reduced_state_insensitive(self, rng):
        rhos = random_density(rng, 6, batch=2_000)
        pt = mc.partial_transpose_batch(rhos, (2, 3))
        ra = mc.partial_trace_batch(rhos, (2, 3), "A")
        ra_pt = mc.partial_trace_batch(pt, (2, 3), "A")
        assert np.abs(ra - ra_pt).max() <= 1e-12

    def test_pt_spectrum_sums_to_one(self, rng):
        rhos = random_density(rng, 6, batch=2_000)
        w = np.linalg.eigvalsh(mc.partial_transpose_batch(rhos, (2, 3)))
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(mc.ShapeMismatch):
            mc.partial_transpose(np.eye(6) / 6, (2, 4))

    def test_dim_one_subsystem_is_full_transpose(self, rng):
        rho = random_density(rng, 3)
        got = mc.partial_transpose(rho, (1, 3))
        assert np.allclose(got, rho.T, atol=0)


class TestPartialTrace:
    def test_maximally_mixed(self):
        red = mc.partial_trace_batch(np.eye(6) / 6, (2, 3), "A")
        assert np.allclose(red, np.eye(2) / 2, atol=1e-14)

    def test_product_state(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        got = mc.partial_trace_batch(np.kron(a, b), (2, 3), "B")
        assert np.allclose(got, b, atol=1e-13)

    def test_bell_reduction(self):
        red = mc.partial_trace_batch(bell_psi_minus(), (2, 2), "A")
        assert np.allclose(red, np.eye(2) / 2, atol=1e-14)

    def test_reduced_is_density(self, rng):
        rho = random_density(rng, 6)
        for keep in ("A", "B"):
            mc.check_density_matrix(mc.partial_trace_batch(rho, (2, 3), keep))

    def test_loop_oracle_any_leading_shape(self, rng):
        rhos = random_density(rng, 6, batch=60).reshape(3, 20, 6, 6)
        T = rhos.reshape(3, 20, 2, 3, 2, 3)
        want_a = sum(T[..., :, j, :, j] for j in range(3))
        want_b = sum(T[..., i, :, i, :] for i in range(2))
        assert np.allclose(mc.partial_trace_batch(rhos, (2, 3), "A"), want_a, atol=1e-15)
        assert np.allclose(mc.partial_trace_batch(rhos, (2, 3), "B"), want_b, atol=1e-15)


class TestPurity:
    def test_maximally_mixed(self):
        for d in (2, 3, 6):
            assert abs(mc.purity_batch(np.eye(d) / d) - 1 / d) < 1e-14

    def test_pure_projector(self):
        assert abs(mc.purity_batch(np.diag([1.0, 0, 0])) - 1.0) < 1e-14

    def test_diag(self):
        assert abs(mc.purity_batch(np.diag([0.75, 0.25])) - 5 / 8) < 1e-14


def is_ppt(rho, dims):
    wmin = mc.min_pt_eigenvalue_batch(rho, dims)
    return wmin >= -mc.PPT_TOL, wmin


class TestIsPpt:
    def test_maximally_mixed(self):
        flag, wmin = is_ppt(np.eye(4) / 4, (2, 2))
        assert flag and abs(wmin - 0.25) < 1e-14

    def test_bell(self):
        flag, wmin = is_ppt(bell_psi_minus(), (2, 2))
        assert not flag and abs(wmin + 0.5) < 1e-12

    @pytest.mark.parametrize("p,expect", [(0.5, False), (0.25, True)])
    def test_werner(self, p, expect):
        flag, wmin = is_ppt(werner(p), (2, 2))
        assert flag == expect
        assert abs(wmin - (1 - 3 * p) / 4) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(mc.ShapeMismatch):
            is_ppt(np.eye(6) / 6, (2, 2))
