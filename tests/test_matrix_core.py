import numpy as np
import pytest

from sepprob import matrix_core as mc
from sepprob.random_states import MeasureSpec, hilbert_schmidt, state_batch
from conftest import bell_psi_minus, haar_unitary, loop_partial_transpose, random_density


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


def oracle_spectrum(rhos, dims):
    """Full spectra of the partial transposes, by LAPACK (test oracle only)."""
    return np.linalg.eigvalsh(mc.partial_transpose_batch(rhos, dims))


def random_hermitian(rng, d, batch):
    G = rng.standard_normal((batch, d, d)) + 1j * rng.standard_normal((batch, d, d))
    return (G + np.conj(np.swapaxes(G, -1, -2))) / 2


def maximally_entangled(m, n):
    psi = np.zeros(m * n)
    for i in range(min(m, n)):
        psi[i * n + i] = 1.0
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi).astype(complex)


class TestMinEigenvalueAgreesWithLapack:
    """The Householder + bisection kernel against np.linalg.eigvalsh."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4), (3, 3)])
    def test_hilbert_schmidt_states(self, dims):
        d = dims[0] * dims[1]
        for start in range(0, 200_000, 20_000):
            rhos = state_batch(hilbert_schmidt(d), 77, start, 20_000)
            got = mc.min_pt_eigenvalue_batch(rhos, dims)
            w = oracle_spectrum(rhos, dims)
            scale = np.maximum(1.0, np.abs(w).max(axis=1))
            assert np.all(np.abs(got - w[:, 0]) <= 1e-14 * scale)
            assert np.array_equal(got >= -mc.PPT_TOL, w[:, 0] >= -mc.PPT_TOL)

    def test_induced_states(self):
        rhos = state_batch(MeasureSpec(6, 4), 78, 0, 50_000)
        got = mc.min_pt_eigenvalue_batch(rhos, (2, 3))
        w = oracle_spectrum(rhos, (2, 3))
        assert np.abs(got - w[:, 0]).max() <= 1e-14
        assert np.array_equal(got >= -mc.PPT_TOL, w[:, 0] >= -mc.PPT_TOL)

    @pytest.mark.parametrize("shift", [1e-12, -1e-12, 4e-13, -4e-13])
    def test_werner_at_the_boundary(self, shift):
        p = 1 / 3 + shift
        got = mc.min_pt_eigenvalue_batch(werner(p), (2, 2))
        assert np.sign(got) == np.sign(1 - 3 * p)
        assert abs(got - (1 - 3 * p) / 4) < 1e-15

    def test_degenerate_spectra(self, rng):
        for m, n in ((2, 2), (2, 3), (3, 3), (2, 4)):
            d = m * n
            # rho^Gamma of a maximally entangled state: -1/min(m, n), repeated
            got = mc.min_pt_eigenvalue_batch(maximally_entangled(m, n), (m, n))
            assert abs(got + 1 / min(m, n)) < 1e-15
            # diagonal states are their own partial transpose: exact
            diag = rng.random((50, d))
            diag /= diag.sum(axis=1, keepdims=True)
            states = np.einsum("bi,ij->bij", diag, np.eye(d)) + 0j
            assert np.array_equal(mc.min_pt_eigenvalue_batch(states, (m, n)),
                                  diag.min(axis=1))
            assert mc.min_pt_eigenvalue_batch(np.eye(d) / d, (m, n)) == 1 / d
            # pure product states: rank-one rho^Gamma, eigenvalue 0 (d - 1 times)
            a = rng.standard_normal((50, m)) + 1j * rng.standard_normal((50, m))
            b = rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))
            psi = (a[:, :, None] * b[:, None, :]).reshape(50, d)
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            states = psi[:, :, None] * psi[:, None, :].conj()
            got = mc.min_pt_eigenvalue_batch(states, (m, n))
            assert np.abs(got).max() <= 1e-15

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_unnormalised_scales(self, rng, scale):
        for dims in ((2, 2), (2, 3), (3, 3)):
            M = random_hermitian(rng, dims[0] * dims[1], 2_000) * scale
            got = mc.min_pt_eigenvalue_batch(M, dims)
            w = oracle_spectrum(M, dims)
            norm = np.abs(w).max(axis=1)
            assert np.all(np.abs(got - w[:, 0]) <= 1e-14 * norm)


class TestMinEigenvalueEdgeCases:
    def test_two_by_two_closed_form(self, rng):
        # d = 2: no Householder step, bisection on the matrix itself
        M = random_hermitian(rng, 2, 1_000)
        a, c, b = M[:, 0, 0].real, M[:, 1, 1].real, M[:, 1, 0]
        want = (a + c) / 2 - np.hypot((a - c) / 2, np.abs(b))
        for dims in ((2, 1), (1, 2)):
            got = mc.min_pt_eigenvalue_batch(M, dims)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(M).max()

    def test_one_householder_step(self, rng):
        M = random_hermitian(rng, 3, 1_000)
        w = oracle_spectrum(M, (1, 3))
        got = mc.min_pt_eigenvalue_batch(M, (1, 3))
        assert np.all(np.abs(got - w[:, 0]) <= 1e-14 * np.abs(w).max(axis=1))

    def test_one_by_one(self):
        assert mc.min_pt_eigenvalue_batch(np.array([[2.5 + 0j]]), (1, 1)) == 2.5

    def test_zero_columns_make_no_reflection(self, rng):
        # dims (d, 1): the partial transpose is the identity, so the matrix is
        # the kernel's input as written
        d = 6
        tri = np.zeros((200, d, d), dtype=complex)
        idx = np.arange(d)
        tri[:, idx, idx] = rng.standard_normal((200, d))
        off = rng.standard_normal((200, d - 1)) + 1j * rng.standard_normal((200, d - 1))
        off[:50] = 0  # diagonal: every column below the diagonal is zero
        off[50:100, 2] = 0  # block diagonal: one zero column mid-way
        tri[:, idx[1:], idx[:-1]] = off
        tri[:, idx[:-1], idx[1:]] = off.conj()
        # a column whose first entry below the diagonal is zero but not the rest
        tri[100:150, 1, 0] = tri[100:150, 0, 1] = 0
        tri[100:150, 3, 0] = 0.5j
        tri[100:150, 0, 3] = -0.5j
        got = mc.min_pt_eigenvalue_batch(tri, (d, 1))
        w = np.linalg.eigvalsh(tri)
        assert np.all(np.abs(got - w[:, 0]) <= 1e-14 * np.abs(w).max(axis=1))
        assert np.array_equal(got[:50], tri[:50, idx, idx].real.min(axis=1))

    def test_leading_shapes(self, rng):
        rhos = random_density(rng, 6, batch=6)
        flat = mc.min_pt_eigenvalue_batch(rhos, (2, 3))
        grid = mc.min_pt_eigenvalue_batch(rhos.reshape(2, 3, 6, 6), (2, 3))
        assert grid.shape == (2, 3)
        assert np.array_equal(grid.reshape(6), flat)
        one = mc.min_pt_eigenvalue_batch(rhos[4], (2, 3))
        assert np.ndim(one) == 0 and one == flat[4]
        assert mc.min_pt_eigenvalue_batch(rhos[:0], (2, 3)).shape == (0,)

    def test_real_and_read_only_input(self, rng):
        rhos = random_density(rng, 6, batch=100)
        want = mc.min_pt_eigenvalue_batch(rhos, (2, 3))
        sym = rhos.real.copy()
        sym.setflags(write=False)
        rhos.setflags(write=False)
        assert np.array_equal(mc.min_pt_eigenvalue_batch(rhos, (2, 3)), want)
        w = oracle_spectrum(sym, (2, 3))
        assert np.abs(mc.min_pt_eigenvalue_batch(sym, (2, 3)) - w[:, 0]).max() <= 1e-14
        assert mc.min_pt_eigenvalue_batch(np.eye(4) / 4, (2, 2)) == 0.25

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        d, idx = 6, np.tril_indices(6)
        for i, j in zip(*idx):
            rhos = np.stack([np.eye(d) / d] * 3).astype(complex)
            rhos[1, i, j] = bad
            rhos[1, j, i] = np.conj(bad)
            with pytest.raises(np.linalg.LinAlgError):
                mc.min_pt_eigenvalue_batch(rhos, (2, 3))
        # a ValueError, so the CLI reports it and exits 1
        assert issubclass(np.linalg.LinAlgError, ValueError)


def tridiagonal_oracle(diag, e2):
    """Smallest eigenvalue and norm of each tridiagonal matrix (diag (d, B),
    squared off-diagonal (d-1, B)), by LAPACK."""
    d, batch = diag.shape
    T = np.zeros((batch, d, d))
    i = np.arange(d)
    T[:, i, i] = diag.T
    T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = np.sqrt(e2.T)
    w = np.linalg.eigvalsh(T)
    return w[:, 0], np.abs(w).max(axis=1)


def with_spectrum(rng, spectrum, batch=64):
    """Tridiagonals unitarily similar to U diag(spectrum) U^H, U Haar, by the
    kernel's own Householder step."""
    d = len(spectrum)
    U = np.array([haar_unitary(rng, d) for _ in range(batch)])
    A = np.moveaxis((U * spectrum) @ U.conj().transpose(0, 2, 1), 0, -1)
    diag, e2 = mc._tridiagonal(A.real.copy(), A.imag.copy(), mc.Workspace())
    return diag.copy(), e2.copy()


class TestLowestEigenvalue:
    """The eigenvalue stage on tridiagonals chosen to be hard for it: within
    the module docstring's few ulps of ||T|| of eigvalsh's value, like the
    plain bisection, which these cases also hold to (8 ulps; measured at
    most 5.3 for either)."""

    def check(self, diag, e2):
        got = mc._lowest_eigenvalue(diag, e2, mc.Workspace())
        want, norm = tridiagonal_oracle(diag, e2)
        assert np.all(np.abs(got - want) <= 8 * np.spacing(1.0) * norm)
        return got

    @pytest.mark.parametrize("gap", 10.0 ** -np.arange(3, 16))
    def test_small_gaps(self, rng, gap):
        self.check(*with_spectrum(rng, np.array([0.1, 0.1 + gap, 0.3, 0.5, 0.8, 1.0])))

    def test_exact_multiplicities_take_the_bisection(self, rng, monkeypatch):
        # two or three copies of one block, split by e2 = 0: l_1 is double or
        # triple, Newton only halves its distance each step, and every
        # sample finishes by bisection
        finished = []
        bisect = mc._bisect

        def spy(diag, e2, lo, width, steps, *buffers):
            if steps == mc._BISECTIONS - mc._HALVINGS:
                finished.append(lo.size)
            bisect(diag, e2, lo, width, steps, *buffers)

        monkeypatch.setattr(mc, "_bisect", spy)
        block, e = rng.standard_normal((4, 64)), rng.standard_normal((3, 64)) ** 2
        cut = np.zeros((1, 64))
        self.check(np.concatenate([block] * 2), np.concatenate([e, cut, e]))
        self.check(np.concatenate([block] * 3), np.concatenate([e, cut, e, cut, e]))
        assert finished == [64, 64]

    def test_decoupled_blocks(self, rng):
        diag, e2 = rng.standard_normal((7, 64)), rng.standard_normal((6, 64)) ** 2
        e2[rng.random(e2.shape) < 0.4] = 0.0
        self.check(diag, e2)
        # a diagonal matrix: the Gershgorin bound is the answer, exactly
        assert np.array_equal(self.check(diag, 0.0 * e2), diag.min(axis=0))

    @pytest.mark.parametrize("every", [1, 2], ids=["all", "alternate"])
    def test_tiny_off_diagonal(self, rng, every):
        diag, e2 = rng.standard_normal((7, 64)), rng.standard_normal((6, 64)) ** 2
        e2[::every] = 1e-300
        self.check(diag, e2)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_scales(self, rng, scale):
        diag, e2 = rng.standard_normal((7, 64)), rng.standard_normal((6, 64)) ** 2
        self.check(scale * diag, scale ** 2 * e2)

    @pytest.mark.parametrize("order", [1, -1], ids=["decreasing", "increasing"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_graded(self, rng, order, sign):
        d = 9
        diag = np.repeat(sign * 10.0 ** -np.arange(d)[::order, None], 64, axis=1)
        e2 = (10.0 ** -(np.arange(d - 1)[::order, None] + 0.5)) ** 2 * rng.random((d - 1, 64))
        self.check(diag, e2)


class TestMinEigenvalueBatchLayout:
    """Sample i's eigenvalue has the same bits in any batch that holds it."""

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_bit_identical_across_layouts(self, dims):
        d = dims[0] * dims[1]
        rhos = state_batch(hilbert_schmidt(d), 5, 0, 8192)
        whole = mc.min_pt_eigenvalue_batch(rhos, dims)
        assert np.array_equal(mc.min_pt_eigenvalue_batch(rhos[1001:4096], dims),
                              whole[1001:4096])
        alone = [mc.min_pt_eigenvalue_batch(rhos[i], dims) for i in range(3, 8192, 409)]
        assert np.array_equal(alone, whole[3::409])


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
