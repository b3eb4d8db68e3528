import csv
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from conftest import packed
from sepprob import stats as st
from sepprob.runner import MAX_BINS, ExperimentConfig


def unit_axis(label: str = "x", bins: int = 100) -> st.Axis:
    return st.Axis(label, 0.0, 1.0, bins)


def rand_hist(rng, axis=None, n=5000):
    axis = axis or unit_axis("r_A")
    h = st.HistogramPair(axis=axis)
    h.accumulate_many(rng.random(n) * 1.2 - 0.1, rng.random(n) < 0.3)
    return h


def wilson_oracle(hits: int, total: int, level: float = 0.95) -> tuple[float, float]:
    """The Wilson bounds as ratio_with_ci computed them one Python count pair
    at a time, before the array form."""
    p = hits / total
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2 * total)) / denom
    half = z * np.sqrt(p * (1.0 - p) / total + z2 / (4 * total * total)) / denom
    lo = 0.0 if hits == 0 else float(max(center - half, 0.0))
    hi = 1.0 if hits == total else float(min(center + half, 1.0))
    return lo, hi


def axis_csv_oracle(h: st.HistogramPair, path) -> None:
    """HistogramPair.to_csv as a csv.writer row per bin with a scalar
    Wilson interval, the writer the array form replaced."""
    edges = h.axis.edges()
    with open(path, "w", newline="") as fh:
        fh.write(f"# axis={h.axis.label} lo={h.axis.lo} hi={h.axis.hi}"
                 f" bins={h.axis.bins}\n")
        fh.write(f"# out_total={h.out_total} out_hits={h.out_hits}\n")
        w = csv.writer(fh)
        w.writerow(["bin_lo", "bin_hi", "total", "hits", "p_hat", "ci_lo", "ci_hi"])
        for i in range(h.axis.bins):
            row = [f"{edges[i]:.10g}", f"{edges[i + 1]:.10g}",
                   int(h.total[i]), int(h.hits[i])]
            if h.total[i] > 0:
                lo, hi = wilson_oracle(int(h.hits[i]), int(h.total[i]))
                row += [f"{int(h.hits[i]) / int(h.total[i]):.10g}", f"{lo:.10g}",
                        f"{hi:.10g}"]
            else:
                row += ["", "", ""]
            w.writerow(row)


def joint_csv_oracle(j: st.JointHistogram, path) -> None:
    """JointHistogram.to_csv as a csv.writer row per occupied cell."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# axis_x={j.axis_x.label} axis_y={j.axis_y.label}"
                 f" bins={j.axis_x.bins}x{j.axis_y.bins}\n")
        fh.write(f"# out_total={j.out_total} out_hits={j.out_hits}\n")
        w = csv.writer(fh)
        w.writerow(["xbin", "ybin", "total", "hits"])
        for i in range(j.axis_x.bins):
            for k in range(j.axis_y.bins):
                if j.total[i, k] or j.hits[i, k]:
                    w.writerow([i, k, int(j.total[i, k]), int(j.hits[i, k])])


def counts_histogram(shape: tuple[int, ...], total=None, hits=None):
    """A histogram with one cell per entry of an array of the given shape:
    a HistogramPair for one dimension, a JointHistogram for two."""
    axes = [unit_axis(f"x{i}", bins) for i, bins in enumerate(shape)]
    if len(shape) == 1:
        return st.HistogramPair(axes[0], total, hits)
    return st.JointHistogram(*axes, total, hits)


def encoded(total: np.ndarray, hits: np.ndarray) -> dict:
    """encode_histogram of a histogram holding these counts and no overflow."""
    return st.encode_histogram(counts_histogram(total.shape, total, hits))


def decoded(d: dict, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(total, hits) of the given shape holding the counts decode_histogram
    reads from d, with no overflow where d names none."""
    h = counts_histogram(shape)
    st.decode_histogram(h, {"out_total": 0, "out_hits": 0, **d})
    return h.total, h.hits


def edge_counts(rng, n: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """(total, hits) with empty bins, hits = 0, hits = total and totals up to top."""
    total = rng.integers(0, top, n, endpoint=True)
    total[rng.random(n) < 0.2] = 0
    fixed = [top, 1, 0][:n]
    total[:len(fixed)] = fixed
    hits = rng.integers(0, total, endpoint=True)
    kind = rng.integers(0, 3, n)
    hits = np.where(kind == 0, 0, np.where(kind == 1, total, hits))
    return total.astype(np.int64), hits.astype(np.int64)


class TestAxis:
    def test_defaults(self):
        # the axes a run bins over at the default bin count
        axes = {**ExperimentConfig(dim_a=2, dim_b=2).axes(),
                **ExperimentConfig(dim_a=2, dim_b=3).axes()}
        assert axes["r_A"] == st.Axis("r_A", 0.0, 1.0, 100)
        assert axes["c3_B"] == st.Axis("c3_B", -1.0, 1.0, 100)
        assert axes["C002"] == st.Axis("C002", 0.0, 3.0, 100)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            st.Axis("x", 1.0, 0.0, 10)

    def test_bin_examples(self):
        ax = unit_axis("r_A")
        idx, ok = ax.indices(np.array([0.0, 1.0, 0.505]))
        assert ok.all()
        assert list(idx) == [0, 99, 50]

    def test_out_of_range(self):
        ax = unit_axis("r_A")
        _, ok = ax.indices(np.array([-0.01, 1.01, 0.5]))
        assert list(ok) == [False, False, True]


class TestHistogramPair:
    def test_accumulate_and_conservation(self, rng):
        h = rand_hist(rng, n=5000)
        assert int(h.total.sum()) + h.out_total == 5000

    def test_hits_bounded_by_total(self, rng):
        h = rand_hist(rng)
        assert np.all(h.hits <= h.total)
        assert np.all(h.hits >= 0)

    def test_merge_identity(self, rng):
        h = rand_hist(rng)
        empty = st.HistogramPair(axis=h.axis)
        m = h.merge(empty)
        assert np.array_equal(m.total, h.total)
        assert np.array_equal(m.hits, h.hits)
        assert m.out_total == h.out_total

    def test_merge_commutative_associative(self, rng):
        h1, h2, h3 = (rand_hist(rng) for _ in range(3))
        ab = h1.merge(h2)
        ba = h2.merge(h1)
        assert np.array_equal(ab.total, ba.total)
        assert np.array_equal(ab.hits, ba.hits)
        left = h1.merge(h2).merge(h3)
        right = h1.merge(h2.merge(h3))
        assert np.array_equal(left.total, right.total)
        assert int(left.total.sum()) + left.out_total == 3 * 5000

    def test_axis_mismatch(self, rng):
        h = rand_hist(rng)
        other = st.HistogramPair(axis=st.Axis("C002", 0.0, 3.0, 100))
        with pytest.raises(st.AxisMismatch):
            h.merge(other)

    def test_csv_roundtrip(self, rng, tmp_path):
        h = rand_hist(rng)
        path = tmp_path / "h.csv"
        h.to_csv(path)
        back = st.HistogramPair.from_csv(path)
        assert back.axis == h.axis
        assert np.array_equal(back.total, h.total)
        assert np.array_equal(back.hits, h.hits)
        assert back.out_total == h.out_total

    @pytest.mark.parametrize("top", [1, 7, 1000, 10 ** 6, 10 ** 12])
    def test_csv_bytes_match_per_row_oracle(self, rng, tmp_path, top):
        for bins, lo, hi in ((1, 0.0, 1.0), (37, -1.0, 1.0), (500, 0.0, 3.0)):
            total, hits = edge_counts(rng, bins, top)
            h = st.HistogramPair(axis=st.Axis("x", lo, hi, bins), total=total, hits=hits,
                                 out_total=int(rng.integers(0, 10 ** 9)), out_hits=0)
            h.to_csv(tmp_path / "h.csv")
            axis_csv_oracle(h, tmp_path / "oracle.csv")
            assert (tmp_path / "h.csv").read_bytes() == \
                (tmp_path / "oracle.csv").read_bytes(), (top, bins)

    @pytest.mark.parametrize("row", ["0,0.01,5,25", "0,0.01,-3,0", "0,0.01,5,-1"],
                             ids=["hits_above_total", "negative_total", "negative_hits"])
    def test_from_csv_refuses_bad_counts(self, rng, tmp_path, row):
        path = tmp_path / "h.csv"
        rand_hist(rng).to_csv(path)
        lines = path.read_text().splitlines()
        lines[3] = row + ",,,"
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="malformed axis CSV"):
            st.HistogramPair.from_csv(path)


class TestRatioWithCi:
    def test_paper_interval_qubit_qutrit(self):
        est = st.ratio_with_ci(2_699_590, 10 ** 8, 0.999, "wald")
        assert abs(est.p_hat - 0.0269959) < 1e-12
        assert abs(est.ci_lo - 0.0269426) < 1e-6
        assert abs(est.ci_hi - 0.0270492) < 1e-6

    def test_paper_interval_two_qutrit(self):
        est = st.ratio_with_ci(10_218, 10 ** 8, 0.95, "wald")
        assert abs(est.ci_lo - 0.000100199) < 1e-7
        assert abs(est.ci_hi - 0.000104161) < 1e-7

    def test_wilson_zero_count(self):
        for total in (100, 1000, 10 ** 7):
            est = st.ratio_with_ci(0, total, 0.95, "wilson")
            assert est.p_hat == 0.0
            assert est.ci_lo == 0.0
            assert est.ci_hi > 0.0
            full = st.ratio_with_ci(total, total, 0.95, "wilson")
            assert full.ci_hi == 1.0 and full.ci_lo < 1.0

    def test_wilson_brackets_estimate(self, rng):
        for _ in range(50):
            total = int(rng.integers(1, 10_000))
            hits = int(rng.integers(0, total + 1))
            est = st.ratio_with_ci(hits, total, 0.95, "wilson")
            assert 0.0 <= est.ci_lo <= est.p_hat + 1e-12
            assert est.p_hat - 1e-12 <= est.ci_hi <= 1.0

    def test_empty_cell(self):
        with pytest.raises(st.EmptyCell):
            st.ratio_with_ci(0, 0)

    @pytest.mark.parametrize("level", [0.95, 0.999, 0.5])
    def test_wilson_arrays_match_scalar_oracle_bitwise(self, rng, level):
        total, hits = edge_counts(rng, 4000, 10 ** 12)
        small_total, small_hits = edge_counts(rng, 4000, 50)
        total, hits = np.r_[total, small_total], np.r_[hits, small_hits]
        occupied = total > 0
        pairs = list(zip(hits[occupied].tolist(), total[occupied].tolist()))
        want = [[(s / t).hex(), *(x.hex() for x in wilson_oracle(s, t, level))]
                for s, t in pairs]
        arrays = st.wilson_interval(hits[occupied], total[occupied], level)
        assert [[x.hex() for x in row] for row in zip(*(a.tolist() for a in arrays))] \
            == want
        ests = [st.ratio_with_ci(s, t, level) for s, t in pairs]
        assert [[e.p_hat.hex(), e.ci_lo.hex(), e.ci_hi.hex()] for e in ests] == want


class TestChi2:
    def test_against_mpmath_oracle(self):
        # even and odd dof up to MAX_BINS - 1, past the largest a flatness test
        # over a MAX_BINS-bin axis can give (MAX_BINS - 2)
        mp = pytest.importorskip("mpmath")
        dofs = (1, 2, 5, 17, 60, 97, 98, 120, 200, 997, 998, MAX_BINS - 2, MAX_BINS - 1)
        with mp.workdps(40):
            for dof in dofs:
                for x in np.geomspace(1e-3 * dof, 8 * dof, 25):
                    x = float(x)
                    want = mp.gammainc(mp.mpf(dof) / 2, mp.mpf(x) / 2, mp.inf,
                                       regularized=True)
                    if want < mp.mpf("1e-300"):
                        continue
                    rel = abs((st.chi2_sf(x, dof) - want) / want)
                    assert rel <= 1e-11, (dof, x, float(rel))

    def test_exact_cases(self):
        for dof in (1, 2, 3, 98, MAX_BINS - 1):
            assert st.chi2_sf(0.0, dof) == 1.0
        for x in (1e-300, 1e-9, 0.3, 1.0, 7.5, 100.0, 1400.0, 1e5):
            assert st.chi2_sf(x, 2) == math.exp(-x / 2)
            assert st.chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))

    @pytest.mark.parametrize("x, dof", [(-1e-9, 3), (-1.0, 2), (math.nan, 5),
                                        (math.inf, 5), (1.0, 0), (1.0, -2), (1.0, 2.5)])
    def test_rejects_bad_arguments(self, x, dof):
        with pytest.raises(ValueError):
            st.chi2_sf(x, dof)

    def test_scipy_not_imported(self):
        # the p-value is computed without scipy, so importing sepprob must not
        # pay scipy's import time
        src = Path(st.__file__).resolve().parents[1]
        code = "import sys, sepprob, sepprob.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestFlatnessTest:
    def test_null_distribution(self):
        # equal proportions: chi2/dof near 1 on average, p not extreme
        rng = np.random.default_rng(5)
        ratios, ps = [], []
        for _ in range(50):
            ax = st.Axis("x", 0, 1, 40)
            h = st.HistogramPair(axis=ax,
                                 total=np.full(40, 20_000, dtype=np.int64),
                                 hits=rng.binomial(20_000, 0.25, 40).astype(np.int64))
            chi2, dof, p = st.flatness_test(h, min_total=1000)
            ratios.append(chi2 / dof)
            ps.append(p)
        assert 0.7 < np.mean(ratios) < 1.3
        assert min(ps) > 1e-6 or sorted(ps)[1] > 1e-4

    def test_two_bin_pearson(self):
        # closed-form 2x2 Pearson: N(ad-bc)^2 / row/col products = 380.95;
        # the third bin is the excluded boundary bin and is empty
        ax = st.Axis("x", 0, 1, 3)
        h = st.HistogramPair(axis=ax,
                             total=np.array([1000, 1000, 0], dtype=np.int64),
                             hits=np.array([500, 900, 0], dtype=np.int64))
        chi2, dof, p = st.flatness_test(h, min_total=100)
        want = 2000 * (500 * 100 - 500 * 900) ** 2 / (1000 * 1000 * 1400 * 600)
        assert abs(chi2 - want) < 1e-9
        assert dof == 1
        assert p < 1e-10

    def test_rejects_nonuniform(self):
        rng = np.random.default_rng(6)
        ax = st.Axis("x", 0, 1, 50)
        probs = np.linspace(0.1, 0.4, 50)
        h = st.HistogramPair(axis=ax,
                             total=np.full(50, 10_000, dtype=np.int64),
                             hits=rng.binomial(10_000, probs).astype(np.int64))
        _, _, p = st.flatness_test(h, min_total=1000)
        assert p < 1e-10

    def test_min_total_filter_and_insufficient(self):
        ax = st.Axis("x", 0, 1, 4)
        h = st.HistogramPair(axis=ax,
                             total=np.array([5, 5, 5, 5], dtype=np.int64),
                             hits=np.array([1, 2, 3, 4], dtype=np.int64))
        with pytest.raises(st.InsufficientData):
            st.flatness_test(h, min_total=1000)

    def test_min_total_below_one_refused(self):
        # min_total 0 would let empty bins into the sum and give chi2 = nan
        ax = st.Axis("x", 0, 1, 4)
        h = st.HistogramPair(axis=ax,
                             total=np.array([5, 0, 5, 5], dtype=np.int64),
                             hits=np.array([1, 0, 3, 4], dtype=np.int64))
        for min_total in (0, -1):
            with pytest.raises(ValueError, match="min_total"):
                st.flatness_test(h, min_total=min_total)


class TestFitScale:
    def test_self_fit(self):
        ax = unit_axis("r_A")
        x = ax.midpoints()
        model = x ** 2 * (1 - x ** 2) ** 16
        h = st.HistogramPair(axis=ax, total=np.round(7e7 * model).astype(np.int64),
                             hits=np.zeros(100, dtype=np.int64))
        # residual threshold at 1e6 counts keeps integer rounding below 1e-6
        scale, resid = st.fit_scale(h, 2, 16, min_total=10 ** 6)
        assert abs(scale - 7e7) / 7e7 < 1e-6
        assert resid < 1e-6

    def test_scaled_with_noise(self, rng):
        ax = unit_axis("r_A")
        x = ax.midpoints()
        model = x ** 2 * (1 - x ** 2) ** 16
        lam = 5e6 * model
        h = st.HistogramPair(axis=ax, total=rng.poisson(lam).astype(np.int64),
                             hits=np.zeros(100, dtype=np.int64))
        scale, resid = st.fit_scale(h, 2, 16, min_total=10_000)
        assert abs(scale - 5e6) / 5e6 < 0.01
        assert resid < 0.05

    def test_restricted_range(self):
        ax = unit_axis("R_B")
        x = ax.midpoints()
        model = np.where(x <= 0.5, x ** 7 * (1 - x ** 2) ** 32, 0.0)
        h = st.HistogramPair(axis=ax, total=np.round(1e9 * model).astype(np.int64),
                             hits=np.zeros(100, dtype=np.int64))
        scale, resid = st.fit_scale(h, 7, 32, fit_range=(0.0, 0.5))
        assert abs(scale - 1e9) / 1e9 < 1e-4

    def test_insufficient(self):
        ax = unit_axis("r_A")
        h = st.HistogramPair(axis=ax)
        with pytest.raises(st.InsufficientData):
            st.fit_scale(h, 2, 16)


class TestJointHistogram:
    def make(self, rng, n=20_000):
        j = st.JointHistogram(axis_x=unit_axis("r_A"),
                              axis_y=unit_axis("R_B"))
        xs = rng.random(n)
        ys = rng.random(n)
        ppt = rng.random(n) < 0.2
        j.accumulate_many(xs, ys, ppt)
        return j, xs, ys, ppt

    def test_marginals_match_1d(self, rng):
        j, xs, ys, ppt = self.make(rng)
        hx = st.HistogramPair(axis=j.axis_x)
        hx.accumulate_many(xs, ppt)
        assert np.array_equal(j.total.sum(axis=1), hx.total)
        assert np.array_equal(j.hits.sum(axis=1), hx.hits)

    def test_empty_cells(self):
        j = st.JointHistogram(axis_x=unit_axis("r_A"),
                              axis_y=unit_axis("R_B"))
        assert not j.total.any() and not j.hits.any()
        with pytest.raises(st.EmptyCell):
            st.ratio_with_ci(int(j.hits[0, 0]), int(j.total[0, 0]))

    def test_point_mass(self):
        j = st.JointHistogram(axis_x=unit_axis("r_A"),
                              axis_y=unit_axis("R_B"))
        j.accumulate_many(np.zeros(10), np.zeros(10), np.ones(10, dtype=bool))
        assert j.total[0, 0] == 10 and j.total.sum() == 10

    def test_merge_and_mismatch(self, rng):
        j1, *_ = self.make(rng)
        j2, *_ = self.make(rng)
        m = j1.merge(j2)
        assert m.total.sum() == j1.total.sum() + j2.total.sum()
        other = st.JointHistogram(axis_x=st.Axis("C002", 0.0, 3.0, 100),
                                  axis_y=unit_axis("R_B"))
        with pytest.raises(st.AxisMismatch):
            j1.merge(other)

    def test_csv(self, rng, tmp_path):
        j, *_ = self.make(rng, n=500)
        # out-of-range samples reach the header, never a cell row
        j.accumulate_many(np.array([-0.5, 0.5, 1.5]), np.array([0.5, 2.0, 0.5]),
                          np.array([True, False, True]))
        path = tmp_path / "joint.csv"
        j.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[1] == "# out_total=3 out_hits=2"
        assert lines[2] == "xbin,ybin,total,hits"
        rows = [ln.split(",") for ln in lines[3:]]
        assert sum(int(r[2]) for r in rows) == 500

        # byte-for-byte against a cell-by-cell loop
        joint_csv_oracle(j, tmp_path / "oracle.csv")
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_csv_across_row_slices(self, rng, tmp_path):
        # more occupied cells than one formatting slice, and counts up to 10**12
        total, hits = edge_counts(rng, 200 * 200, 10 ** 12)
        j = st.JointHistogram(axis_x=unit_axis("r_A", 200),
                              axis_y=unit_axis("R_B", 200),
                              total=total.reshape(200, 200), hits=hits.reshape(200, 200))
        assert (j.total > 0).sum() > 3 * st.CSV_SLICE_ROWS
        j.to_csv(tmp_path / "joint.csv")
        joint_csv_oracle(j, tmp_path / "oracle.csv")
        assert (tmp_path / "joint.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestCountCodec:
    def test_roundtrip_keeps_only_occupied_cells(self):
        total = np.array([[0, 3, 2], [0, 0, 0], [1, 0, 5]], dtype=np.int64)
        hits = np.array([[0, 1, 2], [0, 0, 0], [0, 0, 5]], dtype=np.int64)
        enc = encoded(total, hits)
        assert enc == {"index": packed([1, 2, 6, 8], 1), "total": packed([3, 2, 1, 5], 1),
                       "hits": packed([1, 2, 0, 5], 1), "out_total": 0, "out_hits": 0}
        back_total, back_hits = decoded(enc, (3, 3))
        assert np.array_equal(back_total, total) and np.array_equal(back_hits, hits)
        empty = encoded(np.zeros(4, np.int64), np.zeros(4, np.int64))
        assert empty == {"index": "u1:", "total": "u1:", "hits": "u1:",
                         "out_total": 0, "out_hits": 0}
        assert not decoded(empty, (4,))[0].any()

    @pytest.mark.parametrize("top, width", [
        (0, 1), (255, 1), (256, 2), (65535, 2), (65536, 4), (2 ** 32 - 1, 4),
        (2 ** 32, 8), (2 ** 63 - 1, 8)])
    def test_narrowest_width_roundtrip(self, top, width):
        values = np.array([0, top // 3, top, 1], dtype=np.int64)
        text = st.pack_counts(values)
        assert text == packed(values, width)
        back = st.unpack_counts(text, "total")
        assert back.dtype == np.int64 and np.array_equal(back, values)
        assert st.pack_counts(values[:0]) == "u1:"
        assert st.unpack_counts(f"u{width}:", "total").size == 0

    def test_roundtrip_at_every_width(self):
        cells = 70_000   # flat indices past 65535 need four bytes
        for top in (255, 256, 65535, 65536, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1):
            total = np.zeros(cells, dtype=np.int64)
            total[[0, 5, 255, 256, 65535, 65536, cells - 1]] = [1, top, 7, top, 1, 2, top]
            hits = total // 2
            enc = encoded(total, hits)
            back_total, back_hits = decoded(enc, (cells,))
            assert np.array_equal(back_total, total) and np.array_equal(back_hits, hits)
            assert enc["index"].startswith("u4:")

    @pytest.mark.parametrize("counts", [
        {"index": packed([0, 1], 1), "total": "f8:" + packed([1.5, 2.0], 8)[3:],
         "hits": packed([0, 0], 1)},
        {"index": packed([0, 1], 1), "total": True, "hits": packed([0, 0], 1)},
        {"index": [packed([0], 1), packed([1], 1)], "total": packed([1, 2], 1),
         "hits": packed([0, 0], 1)},
        {"index": packed([0, 1], 1), "total": packed([1, 2], 1), "hits": packed([0], 1)},
        {"index": packed([2 ** 64 - 1, 1], 8), "total": packed([1, 2], 1),
         "hits": packed([0, 0], 1)},
        {"index": packed([0, 4], 1), "total": packed([1, 2], 1), "hits": packed([0, 0], 1)},
        {"index": packed([1, 1], 1), "total": packed([1, 2], 1), "hits": packed([0, 0], 1)},
        {"index": packed([0, 1], 1)[3:], "total": packed([1, 2], 1),
         "hits": packed([0, 0], 1)},
        {"total": packed([0, 0, 0, 1], 1), "hits": packed([0, 0, 0, 1], 1)},
        {"index": packed([0, 1], 1), "total": packed([2 ** 63, 2], 8),
         "hits": packed([0, 0], 1)},
        {"index": packed([0, 1], 1), "total": packed([1, 2], 1),
         "hits": packed([2 ** 63, 0], 8)},
        {"index": packed([0, 1], 1), "total": packed([1, 2], 1), "hits": packed([1, 3], 1)},
        {"index": [0, 1], "total": [1, 2], "hits": [0, 0]},
        {"index": packed([0, 1], 1), "total": "u1:AQI", "hits": packed([0, 0], 1)},
        {"index": packed([0, 1], 1), "total": "u1:AQ!C", "hits": packed([0, 0], 1)},
        {"index": packed([0, 1], 1), "total": "u1:AQ\u00e9=", "hits": packed([0, 0], 1)},
        {"index": packed([0, 1], 1), "total": "u3:AQIDBAUG", "hits": packed([0, 0], 1)},
        {"index": packed([0, 1], 1), "total": "u2:AQID", "hits": packed([0, 0], 1)}],
        ids=["float", "bool", "nested", "lengths", "negative", "past_end",
             "repeated", "not_a_list", "dense", "negative_total", "negative_hits",
             "hits_above_total", "list_format", "bad_padding", "bad_base64_char",
             "non_ascii", "unknown_width", "ragged_bytes"])
    def test_malformed_counts_rejected(self, counts):
        with pytest.raises(ValueError):
            decoded(counts, (2, 2))
