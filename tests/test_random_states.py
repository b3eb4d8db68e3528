import hashlib

import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence

from sepprob import random_states as rs
from sepprob.stats import chi2_sf


class TestMeasureSpec:
    def test_constructors(self):
        assert rs.hilbert_schmidt(6) == rs.MeasureSpec(6, 6)
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
        for measure in (rs.hilbert_schmidt(6), rs.induced(6, 2), rs.induced(3, 7)):
            batch = rs.state_batch(measure, 99, start, 10)
            for i in range(10):
                single = rs.state_batch(measure, 99, start + i, 1)
                assert np.array_equal(batch[i], single[0])

    def test_partition_independence(self):
        # any split of an index range reproduces the same states bit-for-bit:
        # splits inside a chunk (1000, 4500, 4501) and across its end (4096)
        for measure in (rs.hilbert_schmidt(4), rs.induced(6, 2), rs.induced(3, 7)):
            whole = rs.state_batch(measure, 5, 0, 10_000)
            pieces = [rs.state_batch(measure, 5, s, c) for s, c in
                      ((0, 1_000), (1_000, 3_500), (4_500, 1), (4_501, 5_499))]
            assert np.array_equal(np.concatenate(pieces), whole), measure

    def test_different_seeds_differ(self):
        a = rs.state_batch(rs.hilbert_schmidt(4), 1, 0, 1)
        b = rs.state_batch(rs.hilbert_schmidt(4), 2, 0, 1)
        assert not np.allclose(a, b)


def substream(seed, chunk, sub):
    return Generator(SFC64(SeedSequence([seed, chunk, sub])))


def bartlett_oracle(n, k, seed, start, count):
    """Each sample's factor L, (count, n, min(n, k)), rebuilt on its own from
    the documented stream format, entry by entry."""
    r = min(n, k)
    m = sum(min(i, r) for i in range(n))
    shapes = [k - i for i in range(r)]
    out = np.zeros((count, n, r), dtype=complex)
    for s, idx in enumerate(range(start, start + count)):
        chunk, off = divmod(idx, rs.CHUNK_SAMPLES)
        z = substream(seed, chunk, 0).standard_normal((off + 1) * 2 * m)[off * 2 * m:]
        g = substream(seed, chunk, 1).standard_gamma(shapes * (off + 1))[off * r:]
        pos = 0
        for i in range(n):
            for j in range(min(i, r)):
                out[s, i, j] = complex(z[pos], z[pos + 1])
                pos += 2
            if i < r:
                out[s, i, i] = np.sqrt(2.0 * g[i])
        assert pos == 2 * m
    return out


def ginibre_oracle(n, k, seed, start, count):
    """Each sample's Ginibre matrix rebuilt on its own from normal substream 0."""
    nk = n * k
    out = []
    for i in range(start, start + count):
        chunk, off = divmod(i, rs.CHUNK_SAMPLES)
        z = substream(seed, chunk, 0).standard_normal((off + 1) * 2 * nk)[off * 2 * nk:]
        out.append((z[0::2] + 1j * z[1::2]).reshape(n, k))
    return np.array(out)


class TestStreamFormat:
    @pytest.mark.parametrize("n,k,seed,start,count", [
        (2, 3, 99, 1000, 5),                           # mid-chunk start
        (2, 3, 99, rs.CHUNK_SAMPLES - 3, 6),           # across a chunk boundary
        (3, 5, 7, 2 * rs.CHUNK_SAMPLES + 17, 4),       # induced, k > n
        (4, 4, 2 ** 64 - 1, rs.CHUNK_SAMPLES - 1, 2),  # seed >= 2**63
        (6, 2, 7, rs.CHUNK_SAMPLES - 2, 4),            # induced, k < n
        (6, 6, 1, 4090, 12),                           # the fingerprinted states
    ])
    def test_matches_oracle(self, n, k, seed, start, count):
        L = bartlett_oracle(n, k, seed, start, count)
        M = L @ L.conj().transpose(0, 2, 1)
        M /= (np.abs(L) ** 2).sum(axis=(1, 2))[:, None, None]
        rhos = rs.state_batch(rs.MeasureSpec(n, k), seed, start, count)
        assert np.abs(rhos - M).max() < 1e-15
        want = ginibre_oracle(n, k, seed, start, count)
        assert np.array_equal(rs.ginibre_batch(n, k, seed, start, count), want)

    def test_fingerprint(self):
        # the sha256 of a few states across a chunk boundary under each stream
        # version: a change to the draw format, or to the arithmetic that
        # builds a state from its draws, fails here unless STREAM_VERSION moves
        digests = {3: "023c8942198b416233df5ec839efaa7fd1a83586d4f923d38ee3e124d9f5908d",
                   4: "cde9fbc0c2666c4ae72a3e63717aeb74e39aeb8dcaec050a3b7ce159c002a4d6"}
        rhos = rs.state_batch(rs.hilbert_schmidt(6), 1, 4090, 12)
        assert hashlib.sha256(rhos.tobytes()).hexdigest() == digests[rs.STREAM_VERSION]


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

    @pytest.mark.parametrize("n,k", [(4, 4), (6, 6), (9, 9), (6, 2), (3, 7)])
    def test_exactly_hermitian(self, n, k):
        # each entry above the diagonal is the conjugate of the one below,
        # bit for bit, and the diagonal's imaginary part is +0
        rhos = rs.state_batch(rs.MeasureSpec(n, k), 3, 4000, 200)
        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        i, j = np.tril_indices(n, -1)
        assert np.array_equal(bits(rhos[:, i, j].conj()), bits(rhos[:, j, i]))
        assert not bits(rhos.imag[:, range(n), range(n)]).any()

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


def power_traces(rhos):
    """tr rho^2 and tr rho^3 of each state."""
    sq = rhos @ rhos
    return (np.einsum("sij,sji->s", rhos, rhos).real,
            np.einsum("sij,sji->s", sq, rhos).real)


class TestLaw:
    """The states follow the induced measure: moments against their exact
    values and against states built from full Ginibre matrices."""

    # (n, k) and sample counts; (6, 170) sits at the n*max(n, k) cap
    CASES = [(4, 4, 200_000), (6, 6, 200_000), (6, 2, 200_000), (6, 17, 200_000),
             (9, 9, 100_000), (6, 170, 200_000)]

    @pytest.mark.parametrize("n,k,count", CASES)
    def test_mean_state(self, n, k, count):
        rhos = rs.state_batch(rs.induced(n, k), 31, 0, count)
        mean = rhos.mean(axis=0)
        # a complex entry's std is the rms of |x - mean|, at least either part's
        err = rhos.std(axis=0) / np.sqrt(count)
        assert (np.abs(mean - np.eye(n) / n) < 4.5 * err + 1e-15).all()

    @pytest.mark.parametrize("n,k,count", CASES)
    def test_power_trace_means(self, n, k, count):
        nk = n * k
        want2 = (n + k) / (nk + 1)
        want3 = (n * n + k * k + 3 * nk + 1) / ((nk + 1) * (nk + 2))
        tr2, tr3 = power_traces(rs.state_batch(rs.induced(n, k), 32, 0, count))
        for got, want in ((tr2, want2), (tr3, want3)):
            assert abs(got.mean() - want) < 4 * got.std() / np.sqrt(count)

    @pytest.mark.parametrize("n,k", [(6, 6), (6, 2), (3, 7)])
    def test_entry_second_moments_match_ginibre(self, n, k):
        # E|rho_ij|^2 entry by entry, against G G^dag / tr from ginibre_batch
        count = 100_000
        G = rs.ginibre_batch(n, k, 33, 0, count)
        M = G @ G.conj().transpose(0, 2, 1)
        M /= np.trace(M, axis1=1, axis2=2).real[:, None, None]
        a = np.abs(rs.state_batch(rs.induced(n, k), 34, 0, count)) ** 2
        b = np.abs(M) ** 2
        se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / count)
        assert (np.abs(a.mean(axis=0) - b.mean(axis=0)) < 4.5 * se).all()
