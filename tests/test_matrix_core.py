import numpy as np
import pytest

from sepprob import matrix_core as mc
from conftest import bell_psi_minus, loop_partial_transpose, random_density


def werner(p: float) -> np.ndarray:
    return p * bell_psi_minus() + (1 - p) * np.eye(4) / 4


def check_density_matrix(rho: np.ndarray, tol: float = 1e-12) -> None:
    """Fail unless rho is Hermitian, unit-trace and numerically PSD."""
    assert np.abs(rho - rho.conj().T).max() <= tol
    assert abs(np.trace(rho) - 1.0) <= tol
    assert np.linalg.eigvalsh(rho)[0] >= -1e-10


class TestHermitianEigenvalues:
    """The one eigenvalue the kernel computes: the bottom of the spectrum of
    rho^Gamma.  With dims (d, 1) the partial transpose is the identity map."""

    def test_diagonal(self):
        M = np.array([np.diag([0.25, 0.75]), np.diag([0.75, 0.25])])
        w = mc.min_pt_eigenvalue_batch(M, (2, 1))
        assert np.allclose(w, [0.25, 0.25], atol=1e-14)

    def test_pauli_x(self):
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        for dims in ((2, 1), (1, 2)):
            assert abs(mc.min_pt_eigenvalue_batch(X, dims) + 1.0) < 1e-14

    def test_bell_partial_transpose_spectrum(self):
        # rho^Gamma has spectrum {-1/2, 1/2, 1/2, 1/2}; (rho^Gamma)^Gamma = rho
        # is a projector with spectrum {0, 0, 0, 1}
        pt = mc.partial_transpose(bell_psi_minus(), (2, 2))
        w = mc.min_pt_eigenvalue_batch(np.stack([bell_psi_minus(), pt]), (2, 2))
        assert np.allclose(w, [-0.5, 0.0], atol=1e-12)

    def test_ascending_order(self, rng):
        # no Rayleigh quotient of rho^Gamma lies below its smallest eigenvalue
        for dims in ((1, 3), (2, 3), (3, 3)):
            d = dims[0] * dims[1]
            M = random_density(rng, d, batch=200) * d  # unnormalized Hermitian
            w = mc.min_pt_eigenvalue_batch(M, dims)
            pt = mc.partial_transpose_batch(M, dims)
            x = rng.standard_normal((200, d)) + 1j * rng.standard_normal((200, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            quotient = np.einsum("bi,bij,bj->b", x.conj(), pt, x).real
            assert np.all(w <= quotient + 1e-12)
            assert np.all(w[:, None] <= np.diagonal(pt, axis1=1, axis2=2).real + 1e-12)

    def test_charpoly_root_oracle(self, rng):
        # independent route: loop partial transpose, then Newton-identity
        # characteristic polynomial coefficients + companion-matrix roots
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
        for m, n in ((2, 2), (2, 3), (2, 4), (3, 3)):
            d = m * n
            G = rng.standard_normal((250, d, d)) + 1j * rng.standard_normal((250, d, d))
            M = (G + np.conj(np.swapaxes(G, -1, -2))) / (2 * np.sqrt(d))
            got = mc.min_pt_eigenvalue_batch(M, (m, n))
            for M_i, w in zip(M, got):
                assert abs(w - charpoly_roots(loop_partial_transpose(M_i, m, n))[0]) < 1e-9
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
            check_density_matrix(mc.partial_trace_batch(rho, (2, 3), keep))

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
