import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from sepprob import invariants as inv
from sepprob import matrix_core as mc
from sepprob.random_states import STREAM_VERSION, MeasureSpec, hilbert_schmidt, state_batch
from sepprob.runner import ExperimentConfig, RunState
from conftest import (bell_psi_minus, haar_unitary, in_fresh_thread, joined,
                      loop_partial_transpose, random_density)

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
        for got, want in zip(b, (sx, sy, sz)):
            assert np.array_equal(got, np.array(want, dtype=complex))

    def test_d3_count_and_last_diagonal(self):
        b = inv.su_basis(3)
        assert len(b) == 8
        assert np.allclose(b[-1], np.diag([1, 1, -2]) / np.sqrt(3),
                           atol=1e-15)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_orthonormality_and_tracelessness(self, d):
        lam = inv.su_basis(d)
        assert len(lam) == d * d - 1
        gram = np.einsum("aij,bji->ab", lam, lam).real
        assert np.abs(gram - 2 * np.eye(d * d - 1)).max() < 1e-12
        assert np.abs(np.trace(lam, axis1=1, axis2=2)).max() < 1e-12
        assert np.abs(lam - np.conj(np.swapaxes(lam, 1, 2))).max() == 0
        # su(1) has no generators, and the max of its empty Gram matrix would raise
        assert inv.su_basis(1).shape == (0, 1, 1)


def gell_mann_vector(rho: np.ndarray) -> np.ndarray:
    """n_a = tr(rho l_a), one generator at a time."""
    return np.array([np.trace(rho @ lam).real
                     for lam in inv.su_basis(rho.shape[0])])


def gell_mann_radius(rho: np.ndarray) -> float:
    d = rho.shape[0]
    return 0.0 if d == 1 else np.linalg.norm(gell_mann_vector(rho)) / inv.radius_scale(d)


def cubic_casimir_oracle(rho: np.ndarray) -> float:
    """c3 = sum_abc d_abc nhat_a nhat_b nhat_c over the sparse d-tensor entries."""
    d = rho.shape[0]
    nhat = gell_mann_vector(rho) / inv.radius_scale(d)
    return sum(len(set(permutations((a, b, c)))) * val * nhat[a] * nhat[b] * nhat[c]
               for (a, b, c), val in inv.d_tensor(d).entries.items())


def c3(rhos: np.ndarray) -> np.ndarray:
    """cubic_casimir_batch given the states' own quadratic Casimir."""
    return inv.cubic_casimir_batch(rhos, inv.quadratic_casimir_batch(rhos))


def fano(rhos: np.ndarray) -> np.ndarray:
    """fano_correlation_invariant_batch given the reduced states' c2."""
    c2 = [inv.quadratic_casimir_batch(mc.partial_trace_batch(rhos, (2, 2), keep))
          for keep in "AB"]
    return inv.fano_correlation_invariant_batch(rhos, *c2)


def fano_oracle(rho: np.ndarray) -> float:
    sig = inv.su_basis(2)
    return sum(np.trace(rho @ np.kron(a, b)).real ** 2 for a in sig for b in sig)


def record_oracle(rho: np.ndarray, dims: tuple[int, int]) -> dict:
    """Per-state invariants by index loops and eigvalsh."""
    m, n = dims
    T = rho.reshape(m, n, m, n)
    rho_a = sum(T[:, j, :, j] for j in range(n))
    rho_b = sum(T[i, :, i, :] for i in range(m))
    pt = loop_partial_transpose(rho, m, n)
    out = {"r_A": gell_mann_radius(rho_a), "R_B": gell_mann_radius(rho_b),
           "ppt": np.linalg.eigvalsh(pt)[0] >= -mc.PPT_TOL}
    if m == 3:
        out["c3_A"] = cubic_casimir_oracle(rho_a)
    if n == 3:
        out["c3_B"] = cubic_casimir_oracle(rho_b)
    if dims == (2, 2):
        out["C002"] = fano_oracle(rho)
    return out


class TestCoherenceVector:
    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            n = inv.coherence_vectors_batch(np.eye(d) / d)
            assert np.abs(n).max() < 1e-14

    def test_pure_qutrit(self):
        n = inv.coherence_vectors_batch(np.diag([1.0, 0, 0]))
        want = np.zeros(8)
        want[GM[3]] = 1.0
        want[GM[8]] = 1 / np.sqrt(3)
        assert np.allclose(n, want, atol=1e-14)
        assert abs(np.linalg.norm(n) / inv.radius_scale(3) - 1.0) < 1e-12

    def test_qubit_diagonal(self):
        n = inv.coherence_vectors_batch(np.diag([0.75, 0.25]))
        assert np.allclose(n, [0, 0, 0.5], atol=1e-14)
        assert abs(np.linalg.norm(n) / inv.radius_scale(2) - 0.5) < 1e-14

    def test_radius_is_one_iff_pure(self, rng):
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        pure = np.outer(psi, psi.conj())
        assert abs(gell_mann_radius(pure) - 1) < 1e-8
        assert gell_mann_radius(random_density(rng, 3)) < 1 - 1e-6

    def test_radius_purity_identity(self, rng):
        # radius^2 == (purity - 1/d)/(1 - 1/d): coherence-vector route vs
        # purity route compute the same quadratic Casimir
        for d in (2, 3, 4):
            rhos = state_batch(hilbert_schmidt(d), 7 + d, 0, 10_000)
            nv = inv.coherence_vectors_batch(rhos)
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
            lam = inv.su_basis(d)
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
        assert abs(c3(np.eye(3) / 3)) < 1e-14

    def test_pure_qutrit(self):
        assert abs(c3(np.diag([1.0, 0, 0])) - 1 / np.sqrt(3)) < 1e-12

    def test_qubit_always_zero(self, rng):
        # su(2) has no d-tensor; the closed form cancels to rounding
        assert inv.d_tensor(2).entries == {}
        rhos = random_density(rng, 2, batch=20)
        assert np.abs(c3(rhos)).max() < 1e-14

    def test_closed_form_matches_d_tensor_oracle(self):
        rhos = state_batch(hilbert_schmidt(3), 9, 0, 20_000)
        got = c3(rhos)
        want = np.array([cubic_casimir_oracle(rho) for rho in rhos])
        assert np.abs(got - want).max() < 1e-12

    def test_closed_form_matches_d_tensor_oracle_at_d4(self):
        # four index triples r > q > p, where a qutrit has one
        rhos = state_batch(hilbert_schmidt(4), 9, 0, 2_000)
        want = np.array([cubic_casimir_oracle(rho) for rho in rhos])
        assert np.abs(c3(rhos) - want).max() < 1e-12

    def test_batch_matches_scalar(self):
        # one state is a batch with no leading axes
        rhos = state_batch(hilbert_schmidt(3), 9, 0, 200)
        got = c3(rhos)
        grid = c3(rhos.reshape(10, 20, 3, 3))
        assert np.array_equal(grid.ravel(), got)
        for i in range(200):
            assert abs(c3(rhos[i]) - got[i]) < 1e-15

    @pytest.mark.parametrize("d", range(1, 10))
    def test_matches_einsum_trace(self, d):
        # tr rho^3 from all d^3 products, through the closed form of the docstring
        rhos = state_batch(hilbert_schmidt(d), 3, 0, 500)
        c2 = inv.quadratic_casimir_batch(rhos)
        got = inv.cubic_casimir_batch(rhos, c2)
        if d == 1:
            assert np.array_equal(got, np.zeros(500))
            return
        tr3 = np.einsum("bij,bjk,bki->b", rhos, rhos, rhos).real
        scale = inv.radius_scale(d)
        want = 4.0 * (tr3 - 1.0 / d ** 2 - 1.5 * c2 * scale ** 2 / d) / scale ** 3
        assert np.abs(got - want).max() < 1e-12

    def test_random_pure_qutrits(self, rng):
        psi = rng.standard_normal((1000, 3)) + 1j * rng.standard_normal((1000, 3))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        rhos = np.einsum("bi,bj->bij", psi, psi.conj())
        assert np.abs(c3(rhos) - 1 / np.sqrt(3)).max() < 1e-12

    def test_bound_on_random_qutrits(self):
        rhos = state_batch(hilbert_schmidt(3), 33, 0, 100_000)
        assert np.abs(c3(rhos)).max() <= 1 / np.sqrt(3) + 1e-9

    def test_unitary_covariance(self, rng):
        for _ in range(50):
            rho = random_density(rng, 3)
            U = haar_unitary(rng, 3)
            rot = U @ rho @ U.conj().T
            n0 = inv.coherence_vectors_batch(rho)
            n1 = inv.coherence_vectors_batch(rot)
            assert abs(np.linalg.norm(n0) - np.linalg.norm(n1)) < 1e-10
            assert abs(c3(rho) - c3(rot)) < 1e-10


class TestFanoCorrelationInvariant:
    def test_maximally_mixed(self):
        assert abs(fano(np.eye(4) / 4)) < 1e-14

    def test_bell(self):
        assert abs(fano(bell_psi_minus()) - 3.0) < 1e-12

    def test_product_state(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        sig = inv.su_basis(2)
        ra = np.einsum("ij,aji->a", a, sig).real
        rb = np.einsum("ij,aji->a", b, sig).real
        want = np.dot(ra, ra) * np.dot(rb, rb)
        got = fano(np.kron(a, b))
        assert abs(got - want) < 1e-12

    def test_range_on_random_states(self):
        rhos = state_batch(hilbert_schmidt(4), 21, 0, 100_000)
        c = fano(rhos)
        assert c.min() >= 0.0
        assert c.max() <= 3.0 + 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(mc.ShapeMismatch):
            inv.fano_correlation_invariant_batch(np.eye(6) / 6, 0.0, 0.0)


class TestRecord:
    def test_maximally_mixed_2x3(self):
        r = inv.record_batch(np.eye(6) / 6, (2, 3))
        assert r["r_A"] == 0.0 and r["R_B"] == 0.0
        assert abs(r["c3_B"]) < 1e-14
        assert r["ppt"] and "C002" not in r

    def test_pure_product_2x3(self, rng):
        psi_a = np.array([1.0, 0])
        psi_b = np.array([0, 1.0, 0])
        rho = np.kron(np.outer(psi_a, psi_a), np.outer(psi_b, psi_b)).astype(complex)
        r = inv.record_batch(rho, (2, 3))
        assert abs(r["r_A"] - 1) < 1e-12 and abs(r["R_B"] - 1) < 1e-12
        assert r["ppt"]

    def test_bell_2x2(self):
        r = inv.record_batch(bell_psi_minus(), (2, 2))
        assert not r["ppt"]
        assert abs(r["C002"] - 3.0) < 1e-12
        assert "c3_B" not in r

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
            assert abs(out["c2_A"][i] - r["r_A"] ** 2) < 1e-10

    def test_c2_is_radius_squared(self):
        rhos = state_batch(hilbert_schmidt(6), 3, 0, 1_000)
        out = inv.record_batch(rhos, (2, 3))
        assert np.abs(out["c2_A"] - out["r_A"] ** 2).max() < 1e-12
        assert np.abs(out["c2_B"] - out["R_B"] ** 2).max() < 1e-12

    def test_pt_insensitivity(self):
        # invariants of the reduced states are unchanged by partial transpose
        rhos = state_batch(hilbert_schmidt(6), 29, 0, 10_000)
        pt = mc.partial_transpose_batch(rhos, (2, 3))
        a = inv.record_batch(rhos, (2, 3))
        b = inv.record_batch(pt, (2, 3))
        for key in ("r_A", "R_B", "c2_A", "c2_B", "c3_B"):
            assert np.abs(a[key] - b[key]).max() < 1e-10

    @pytest.mark.parametrize("dims", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
    def test_keys_are_axis_labels(self, tmp_path, dims):
        d = dims[0] * dims[1]
        rec = inv.record_batch(state_batch(hilbert_schmidt(d), 4, 0, 16), dims)
        assert list(rec) == [*inv.axis_labels(dims), "ppt"]
        cfg = ExperimentConfig(dim_a=dims[0], dim_b=dims[1], out_dir=str(tmp_path))
        assert list(RunState.fresh(cfg).hists) == inv.axis_labels(dims)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_values_inside_axis_ranges(self, rng, dims):
        # HS states, pure states (ancilla 1), product states of pure factors
        # and the maximally mixed state all land inside every axis
        d = dims[0] * dims[1]
        products = [np.kron(*(np.outer(v, v.conj()) for v in
                              (haar_unitary(rng, dims[0])[0], haar_unitary(rng, dims[1])[0])))
                    for _ in range(20)]
        rhos = np.concatenate([state_batch(hilbert_schmidt(d), 5, 0, 2_000),
                               state_batch(MeasureSpec(d, 1), 5, 0, 2_000),
                               products, [np.eye(d) / d]])
        rec = inv.record_batch(rhos, dims)
        for lb in inv.axis_labels(dims):
            lo, hi = inv.AXIS_RANGES[lb]
            assert lo <= rec[lb].min() and rec[lb].max() <= hi + 1e-12, lb

    @pytest.mark.parametrize("dim_a", [2, 3])
    def test_pure_reduced_states_stay_in_range(self, dim_a):
        # with ancilla 1 every state is pure, and so is rho_A when dim_b = 1:
        # c2 and r rounded above 1 would land in the overflow tally instead
        # of the closed last bin
        dims = (dim_a, 1)
        rec = inv.record_batch(state_batch(MeasureSpec(dim_a, 1), 1, 0, 20_000), dims)
        cfg = ExperimentConfig(dim_a=dim_a, dim_b=1, k=1)
        for lb, axis in cfg.axes().items():
            assert axis.indices(rec[lb])[1].all(), lb
        assert (rec["c2_A"] == 1.0).mean() > 0.5

    def test_c002_matches_pauli_sum(self, rng):
        a, b = random_density(rng, 2), random_density(rng, 2)
        rhos = np.concatenate([state_batch(hilbert_schmidt(4), 17, 0, 10_000),
                               [bell_psi_minus(), np.kron(a, b), np.eye(4) / 4]])
        got = inv.record_batch(rhos, (2, 2))["C002"]
        want = np.array([fano_oracle(rho) for rho in rhos])
        assert np.abs(got - want).max() < 1e-13

    def test_sampling_path_builds_no_basis(self):
        # a fresh interpreter: the su_basis cache is empty unless record_batch fills it
        code = ("from sepprob import invariants as inv\n"
                "from sepprob.random_states import hilbert_schmidt, state_batch\n"
                "inv.record_batch(state_batch(hilbert_schmidt(4), 1, 0, 64), (2, 2))\n"
                "print(inv.su_basis.cache_info().currsize)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout == "0\n"


class TestRecordBatchLayout:
    """A sample's flag and axes have the same bits in any batch and memory
    layout that holds it: alone, in a slice of a sub-batch, in the whole
    sub-batch as state_batch returns it, and in a C-ordered copy of it."""

    @pytest.mark.parametrize("dims,k", [((2, 2), 4), ((2, 3), 6), ((3, 3), 9), ((2, 3), 9)],
                             ids=["hs-2x2", "hs-2x3", "hs-3x3", "induced-2x3-k9"])
    def test_bit_identical_across_layouts(self, dims, k):
        measure = MeasureSpec(dims[0] * dims[1], k)
        rhos = state_batch(measure, 5, 0, 8192)
        whole = inv.record_batch(rhos, dims)
        parts = [(inv.record_batch(np.ascontiguousarray(rhos), dims), slice(None)),
                 (inv.record_batch(rhos[1001:4096], dims), slice(1001, 4096))]
        parts += [(inv.record_batch(state_batch(measure, 5, i, 1), dims), slice(i, i + 1))
                  for i in range(1001, 4096, 619)]
        for rec, where in parts:
            assert list(rec) == list(whole)
            for lb, values in whole.items():
                assert np.array_equal(rec[lb], values[where]), (lb, where)


def sampled(measure, dims, start, count):
    """The states of [start, start+count), their record and their lowest
    partial-transpose eigenvalues, by this thread's kernel buffers."""
    rhos = state_batch(measure, 9, start, count)
    return rhos, inv.record_batch(rhos, dims), mc.min_pt_eigenvalue_batch(rhos, dims)


class TestWorkspace:
    """Consecutive sub-batches through one thread's warm kernel buffers, as
    a one-worker pass or a pool worker draws them, get the bits that a fresh
    thread gets; no array a call returns lives in the buffers, and threads
    sampling at once do not share them."""

    @pytest.mark.parametrize("dims,k", [((2, 2), 4), ((2, 3), 6), ((3, 3), 9), ((2, 4), 8),
                                        ((2, 3), 2), ((2, 3), 9)],
                             ids=["hs-2x2", "hs-2x3", "hs-3x3", "hs-2x4",
                                  "induced-2x3-k2", "induced-2x3-k9"])
    def test_bit_identical_to_the_default_path(self, dims, k):
        measure = MeasureSpec(dims[0] * dims[1], k)
        kept, start = [], 100
        for count in (8192, 848, 1):
            rhos, rec, lowest = sampled(measure, dims, start, count)
            fresh_rhos, want, fresh_lowest = in_fresh_thread(
                lambda: sampled(measure, dims, start, count))
            assert np.array_equal(rhos, fresh_rhos)
            kept.append((rhos, rhos.copy()))
            assert list(rec) == list(want)
            for lb, values in want.items():
                assert np.array_equal(rec[lb], values), (lb, count)
            assert np.array_equal(lowest, fresh_lowest)
            start += count
        # the kernel and the later sub-batches left every returned state as it was
        for rhos, copy in kept:
            assert np.array_equal(rhos, copy)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_a_warm_sub_batch_allocates_its_states_and_little_else(self, dims):
        # the buffers are anonymous maps, which tracemalloc does not see:
        # a view taken before the warm sub-batch shows that they stay
        measure = hilbert_schmidt(dims[0] * dims[1])
        inv.record_batch(state_batch(measure, 9, 0, 8192), dims)
        kept = [mc.take_buffers(slot, (1,))[0] for slot in ("rows", "planes")]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rhos = state_batch(measure, 9, 8192, 8192)
            inv.record_batch(rhos, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= rhos.nbytes + 2 ** 20
        for view, slot in zip(kept, ("rows", "planes")):
            assert np.shares_memory(view, mc.take_buffers(slot, (1,))[0]), slot

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_threads_sampling_at_once_get_their_own_bits(self, dims):
        # more threads than cores draw different ranges at the same time,
        # sub-batch by sub-batch, switching often, each into its own buffers
        measure = hilbert_schmidt(dims[0] * dims[1])
        ranges = [(0, 3 * 8192), (10 ** 6 + 77, 3 * 8192), (5 * 8192 + 3, 3 * 8192)]
        barrier = threading.Barrier(len(ranges))

        def draw(start, count, together):
            if together:
                barrier.wait()
            return [sampled(measure, dims, lo, min(8192, start + count - lo))
                    for lo in range(start, start + count, 8192)]

        alone = [in_fresh_thread(lambda: draw(*r, False)) for r in ranges]
        together = [None] * len(ranges)

        def run(i):
            together[i] = draw(*ranges[i], True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            joined([threading.Thread(target=run, args=(i,)) for i in range(len(ranges))])
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(together, alone):
            assert len(got) == len(want) == 3
            for (rhos, rec, lowest), (w_rhos, w_rec, w_lowest) in zip(got, want):
                assert np.array_equal(rhos, w_rhos)
                assert np.array_equal(lowest, w_lowest)
                for lb, values in w_rec.items():
                    assert np.array_equal(rec[lb], values), lb


def test_ppt_flags_pinned():
    # the sha256 of the packed PPT flags of 10^5 HS states per shape under
    # each stream version: a change to the PPT kernel that moves any flag
    # fails here
    digests = {4: {(2, 2): "63044ad4b74738076b7a773a499b545429e95d1fe41eea735c5f2961c460187c",
                   (2, 3): "42dbe1eb1b4574baaaa7743feb885be4d0a574c3553b13228eb6fb5b7cc9e1fa",
                   (3, 3): "fb272581b52744cde13bed5bfdf8df16a3a1bd1b04b9f8b97b14dc145655518b"}}
    n = 10 ** 5
    for dims, digest in digests[STREAM_VERSION].items():
        measure = hilbert_schmidt(dims[0] * dims[1])
        flags = np.concatenate([
            inv.record_batch(state_batch(measure, 2024, lo, min(8192, n - lo)), dims)["ppt"]
            for lo in range(0, n, 8192)])
        assert hashlib.sha256(np.packbits(flags).tobytes()).hexdigest() == digest, dims
