import numpy as np
import pytest
from numpy.random import Generator, Philox

from sepprob import random_states as rs
from sepprob.stats import chi2_sf


class TestMeasureSpec:
    def test_hs_requires_k_equal_n(self):
        with pytest.raises(ValueError):
            rs.MeasureSpec(n=6, k=9, label="hs")

    def test_constructors(self):
        assert rs.hilbert_schmidt(6) == rs.MeasureSpec(6, 6, "hs")
        assert rs.induced(6, 9).k == 9

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            rs.induced(0, 3)


class TestDeterminism:
    def test_same_key_same_matrix(self):
        G1 = rs.ginibre_batch(4, 5, 123, 77, 1)
        G2 = rs.ginibre_batch(4, 5, 123, 77, 1)
        assert np.array_equal(G1, G2)

    def test_batch_matches_singles_across_chunk_boundary(self):
        start = rs.CHUNK_SAMPLES - 5
        batch = rs.ginibre_batch(2, 3, 99, start, 10)
        for i in range(10):
            single = rs.ginibre_batch(2, 3, 99, start + i, 1)
            assert np.array_equal(batch[i], single[0])

    def test_partition_independence(self):
        # any split of an index range reproduces the same states bit-for-bit
        m = rs.hilbert_schmidt(4)
        whole = rs.state_batch(m, 5, 0, 10_000)
        pieces = [rs.state_batch(m, 5, s, c)
                  for s, c in ((0, 1_000), (1_000, 3_500), (4_500, 5_500))]
        assert np.array_equal(np.concatenate(pieces), whole)

    def test_different_seeds_differ(self):
        a = rs.state_batch(rs.hilbert_schmidt(4), 1, 0, 1)
        b = rs.state_batch(rs.hilbert_schmidt(4), 2, 0, 1)
        assert not np.allclose(a, b)


def ginibre_oracle(n, k, seed, start, count):
    """Each sample rebuilt on its own from the documented stream format."""
    nk = n * k
    out = []
    for i in range(start, start + count):
        chunk, off = divmod(i, rs.CHUNK_SAMPLES)
        key = np.array([seed, chunk], dtype=np.uint64)
        z = Generator(Philox(key=key)).standard_normal((off + 1) * 2 * nk)[off * 2 * nk:]
        out.append((z[:nk] + 1j * z[nk:]).reshape(n, k))
    return np.array(out)


class TestStreamFormat:
    @pytest.mark.parametrize("n,k,seed,start,count", [
        (2, 3, 99, 1000, 5),                           # mid-chunk start
        (2, 3, 99, rs.CHUNK_SAMPLES - 3, 6),           # across a chunk boundary
        (3, 5, 7, 2 * rs.CHUNK_SAMPLES + 17, 4),       # induced, odd nk
        (4, 4, 2 ** 64 - 1, rs.CHUNK_SAMPLES - 1, 2),  # seed >= 2**63
    ])
    def test_matches_oracle(self, n, k, seed, start, count):
        want = ginibre_oracle(n, k, seed, start, count)
        assert np.array_equal(rs.ginibre_batch(n, k, seed, start, count), want)
        M = want @ want.conj().transpose(0, 2, 1)
        M /= np.trace(M, axis1=1, axis2=2).real[:, None, None]
        rhos = rs.state_batch(rs.MeasureSpec(n, k, "hs" if n == k else "induced"),
                              seed, start, count)
        assert np.abs(rhos - M).max() < 1e-15


class TestGinibreDistribution:
    def test_scalar_moments(self):
        z = rs.ginibre_batch(1, 1, 2024, 0, 1_000_000).ravel()
        n = len(z)
        # each real component is standard normal
        assert abs(z.mean()) < 4 / np.sqrt(n)  # |mean| of either part, 4 sigma
        assert abs(np.mean(np.abs(z) ** 2) - 2.0) < 0.02

    def test_rectangular_entry_variance(self):
        G = rs.ginibre_batch(6, 9, 11, 0, 100_000)
        assert G.shape == (100_000, 6, 9)
        var = np.mean(np.abs(G) ** 2)
        assert abs(var - 2.0) < 0.02


class TestSampleState:
    def test_trivial_one_dimensional(self):
        rho = rs.state_batch(rs.induced(1, 4), 3, 0, 1)
        assert np.allclose(rho, [[[1.0]]], atol=1e-15)

    def test_density_invariants(self):
        rhos = rs.state_batch(rs.hilbert_schmidt(6), 17, 0, 2_000)
        assert np.abs(np.trace(rhos, axis1=1, axis2=2) - 1).max() < 1e-12
        assert np.abs(rhos - np.conj(np.swapaxes(rhos, 1, 2))).max() < 1e-12
        assert np.linalg.eigvalsh(rhos).min() >= -1e-12

    def test_mean_purity_hs_6(self):
        # E[tr rho^2] = (n+k)/(nk+1) for the induced measure; cross-check the
        # constant with an independently constructed Ginibre sampler first.
        n_samp = 200_000
        rng = np.random.default_rng(8)
        G = rng.standard_normal((n_samp, 6, 6)) + 1j * rng.standard_normal((n_samp, 6, 6))
        M = G @ np.conj(np.swapaxes(G, 1, 2))
        M /= np.trace(M, axis1=1, axis2=2).real[:, None, None]
        oracle = np.einsum("sij,sji->s", M, M).real
        expect = 12 / 37
        assert abs(oracle.mean() - expect) < 4 * oracle.std() / np.sqrt(n_samp)

        rhos = rs.state_batch(rs.hilbert_schmidt(6), 41, 0, n_samp)
        pur = np.einsum("sij,sji->s", rhos, rhos).real
        assert abs(pur.mean() - expect) < 4 * pur.std() / np.sqrt(n_samp)

    def test_induced_more_mixed_than_hs(self):
        hs = rs.state_batch(rs.hilbert_schmidt(6), 5, 0, 50_000)
        ind = rs.state_batch(rs.induced(6, 9), 5, 0, 50_000)
        p_hs = np.einsum("sij,sji->s", hs, hs).real.mean()
        p_ind = np.einsum("sij,sji->s", ind, ind).real.mean()
        assert p_ind < p_hs

    def test_unitary_invariance_distribution(self):
        # the first diagonal entry of U rho U^dag is distributed like that of
        # an independent batch of rho; two-sample chi-square on 20 bins
        n_samp = 100_000
        a = rs.state_batch(rs.hilbert_schmidt(4), 100, 0, n_samp)
        b = rs.state_batch(rs.hilbert_schmidt(4), 200, 0, n_samp)
        rng = np.random.default_rng(1)
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        Q, R = np.linalg.qr(G)
        U = Q * (np.diag(R) / np.abs(np.diag(R)))
        rot = U @ b @ U.conj().T
        x = a[:, 0, 0].real
        y = rot[:, 0, 0].real
        edges = np.linspace(0, 1, 21)
        ha, _ = np.histogram(x, edges)
        hb, _ = np.histogram(y, edges)
        keep = (ha + hb) > 20
        chi2 = (((ha - hb) ** 2)[keep] / (ha + hb)[keep]).sum()
        p = chi2_sf(chi2, int(keep.sum()) - 1)
        assert p > 0.01
