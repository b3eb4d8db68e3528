"""Mergeable binned counters, binomial ratio estimation with confidence
intervals, chi-square flatness testing and radial-density model fitting.

Binning convention: bins are half-open [lo + i*w, lo + (i+1)*w) except the
last, which is closed so the pure-state boundary (radius 1) is
representable.  Values outside [lo, hi] go to overflow tallies and are
never silently dropped.
"""

from __future__ import annotations

import base64
import csv
from dataclasses import dataclass, replace
from math import erfc, exp, isfinite, lgamma, log, sqrt
from statistics import NormalDist

import numpy as np


# rows JointHistogram.to_csv formats per call: slices this small keep the
# temporary ints and strings from raising a process's peak RSS over repeated
# exports (4096 did, by about 2 MB over 14 runs of a 500-bin two-qubit export)
CSV_SLICE_ROWS = 1024


class AxisMismatch(ValueError):
    """Histogram operation across incompatible axes."""


class EmptyCell(ValueError):
    """Ratio requested for a bin with zero total count."""


class InsufficientData(ValueError):
    """Too few qualifying bins for the requested analysis."""


@dataclass(frozen=True)
class Axis:
    label: str
    lo: float
    hi: float
    bins: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"axis bounds must satisfy lo < hi, got {self.lo}, {self.hi}")
        if self.bins < 1:
            raise ValueError("axis needs at least one bin")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def edges(self) -> np.ndarray:
        return self.lo + np.arange(self.bins + 1) * self.width

    def midpoints(self) -> np.ndarray:
        return self.lo + (np.arange(self.bins) + 0.5) * self.width

    def indices(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(bin indices, in-range mask); values == hi land in the last bin."""
        values = np.asarray(values, dtype=float)
        ok = (values >= self.lo) & (values <= self.hi)
        # out-of-range values, NaN and +-inf among them, are binned as lo:
        # numpy warns on casting a non-finite float
        binned = np.where(ok, values, self.lo)
        idx = np.floor((binned - self.lo) / self.width).astype(np.int64)
        np.clip(idx, 0, self.bins - 1, out=idx)
        return idx, ok


# little-endian unsigned widths a count array is stored at, narrowest first
COUNT_WIDTHS = {tag: np.dtype(f"<{tag}") for tag in ("u1", "u2", "u4", "u8")}


def pack_counts(values: np.ndarray) -> str:
    """"<width>:<base64>" of non-negative integers: their little-endian bytes
    at the narrowest width in COUNT_WIDTHS that holds their maximum."""
    top = int(values.max()) if values.size else 0
    tag, dtype = next((tag, dtype) for tag, dtype in COUNT_WIDTHS.items()
                      if top <= np.iinfo(dtype).max)
    return f"{tag}:{base64.b64encode(values.astype(dtype).tobytes()).decode('ascii')}"


def unpack_counts(text, name: str) -> np.ndarray:
    """The int64 array pack_counts wrote; ValueError unless text is such a
    string whose values fit in an int64."""
    if type(text) is not str:
        raise ValueError(f"counts {name!r} must be a '<width>:<base64>' string")
    tag, _, data = text.partition(":")
    dtype = COUNT_WIDTHS.get(tag)
    if dtype is None:
        raise ValueError(f"counts {name!r} have unknown width {tag!r}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:   # binascii.Error, or a non-ASCII character
        raise ValueError(f"counts {name!r} are not base64: {exc}") from exc
    if len(raw) % dtype.itemsize:
        raise ValueError(f"counts {name!r} hold {len(raw)} bytes, "
                         f"not a multiple of {dtype.itemsize}")
    values = np.frombuffer(raw, dtype=dtype)
    if values.size and values.max() > np.iinfo(np.int64).max:
        raise ValueError(f"counts {name!r} exceed the int64 range")
    return values.astype(np.int64)


def read_count(d: dict, name: str) -> int:
    """d[name] if it is an int >= 0 and not a bool; ValueError otherwise."""
    value = d[name]
    if type(value) is not int or value < 0:
        raise ValueError(f"{name!r} must be an integer >= 0, got {value!r}")
    return value


def _edge_text(axis: Axis) -> list[str]:
    """The bin edges of axis as the axis CSV writes them."""
    return [f"{e:.10g}" for e in axis.edges().tolist()]


def _count(h, flat: np.ndarray, ok: np.ndarray, ppt: np.ndarray) -> None:
    """Add a batch to histogram h from each sample's flat cell index (valid
    where ok), in-range mask and PPT flag; the rest go to the overflow tallies.
    An indexed add in place: cost and memory follow the batch, not the cells."""
    ppt = np.asarray(ppt, dtype=bool)
    hit = ok & ppt
    np.add.at(h.total.reshape(-1), flat[ok], 1)
    np.add.at(h.hits.reshape(-1), flat[hit], 1)
    h.out_total += ok.size - int(np.count_nonzero(ok))
    h.out_hits += int(np.count_nonzero(ppt)) - int(np.count_nonzero(hit))


def _merged(h, other):
    """A copy of h, on h's axes, holding the counts of h and other summed."""
    return replace(h, total=h.total + other.total, hits=h.hits + other.hits,
                   out_total=h.out_total + other.out_total,
                   out_hits=h.out_hits + other.out_hits)


@dataclass
class HistogramPair:
    """Bin counts of (all, PPT-positive) samples over one invariant axis."""
    axis: Axis
    total: np.ndarray = None
    hits: np.ndarray = None
    out_total: int = 0
    out_hits: int = 0

    def __post_init__(self):
        if self.total is None:
            self.total = np.zeros(self.axis.bins, dtype=np.int64)
        if self.hits is None:
            self.hits = np.zeros(self.axis.bins, dtype=np.int64)

    def accumulate_many(self, values: np.ndarray, ppt: np.ndarray) -> None:
        _count(self, *self.axis.indices(values), ppt)

    def merge(self, other: "HistogramPair") -> "HistogramPair":
        if self.axis != other.axis:
            raise AxisMismatch(f"cannot merge {self.axis} with {other.axis}")
        return _merged(self, other)

    def to_csv(self, path) -> None:
        edges = _edge_text(self.axis)
        occupied = self.total > 0
        p_hat, ci_lo, ci_hi = (a.tolist() for a in wilson_interval(
            self.hits[occupied], self.total[occupied]))
        estimates = iter(zip(p_hat, ci_lo, ci_hi))
        rows = [f"{edges[i]},{edges[i + 1]},{t},{h},"
                + ("%.10g,%.10g,%.10g\r\n" % next(estimates) if t > 0 else ",,\r\n")
                for i, (t, h) in enumerate(zip(self.total.tolist(), self.hits.tolist()))]
        with open(path, "w", newline="") as fh:
            fh.write(f"# axis={self.axis.label} lo={self.axis.lo} hi={self.axis.hi}"
                     f" bins={self.axis.bins}\n")
            fh.write(f"# out_total={self.out_total} out_hits={self.out_hits}\n")
            fh.write("bin_lo,bin_hi,total,hits,p_hat,ci_lo,ci_hi\r\n")
            fh.write("".join(rows))

    @classmethod
    def from_csv(cls, path) -> "HistogramPair":
        with open(path) as fh:
            lines = fh.read().splitlines()
        try:
            meta = {}
            for ln in lines:
                if ln.startswith("#"):
                    meta.update(kv.split("=") for kv in ln[1:].split())
            rows = [r for r in csv.reader(ln for ln in lines if not ln.startswith("#"))]
            body = rows[1:]
            if not body:
                raise ValueError("no data rows")
            lo = float(body[0][0])
            hi = float(body[-1][1])
            axis = Axis(label=meta.get("axis", "?"), lo=lo, hi=hi, bins=len(body))
            # rows missing, or edges off the even grid, would re-grid the counts
            edges = _edge_text(axis)
            if any(r[:2] != edges[i:i + 2] for i, r in enumerate(body)):
                raise ValueError(f"bin edges are not those of {len(body)} even bins "
                                 f"from {body[0][0]} to {body[-1][1]}")
            total = np.array([int(r[2]) for r in body], dtype=np.int64)
            hits = np.array([int(r[3]) for r in body], dtype=np.int64)
            out_total, out_hits = (int(meta.get(k, 0)) for k in ("out_total", "out_hits"))
            # 0 <= hits <= total also keeps every total >= 0
            if np.any((hits < 0) | (hits > total)):
                raise ValueError("counts must satisfy 0 <= hits <= total in every bin")
            if not 0 <= out_hits <= out_total:
                raise ValueError(f"need 0 <= out_hits <= out_total, "
                                 f"got {out_hits}, {out_total}")
            return cls(axis=axis, total=total, hits=hits,
                       out_total=out_total, out_hits=out_hits)
        except (IndexError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed axis CSV {path}: {exc}") from exc


@dataclass
class JointHistogram:
    """2-D bin counts of (all, PPT-positive) samples over two invariant axes."""
    axis_x: Axis
    axis_y: Axis
    total: np.ndarray = None
    hits: np.ndarray = None
    out_total: int = 0
    out_hits: int = 0

    def __post_init__(self):
        shape = (self.axis_x.bins, self.axis_y.bins)
        if self.total is None:
            self.total = np.zeros(shape, dtype=np.int64)
        if self.hits is None:
            self.hits = np.zeros(shape, dtype=np.int64)

    def accumulate_many(self, xs: np.ndarray, ys: np.ndarray, ppt: np.ndarray) -> None:
        ix, okx = self.axis_x.indices(xs)
        iy, oky = self.axis_y.indices(ys)
        _count(self, ix * self.axis_y.bins + iy, okx & oky, ppt)

    def merge(self, other: "JointHistogram") -> "JointHistogram":
        if self.axis_x != other.axis_x or self.axis_y != other.axis_y:
            raise AxisMismatch("cannot merge joint histograms with different axes")
        return _merged(self, other)

    def to_csv(self, path) -> None:
        """One row per nonempty cell, x-major."""
        i, j = np.nonzero(self.total | self.hits)
        columns = (i, j, self.total[i, j], self.hits[i, j])
        with open(path, "w", newline="") as fh:
            fh.write(f"# axis_x={self.axis_x.label} axis_y={self.axis_y.label}"
                     f" bins={self.axis_x.bins}x{self.axis_y.bins}\n")
            fh.write(f"# out_total={self.out_total} out_hits={self.out_hits}\n")
            fh.write("xbin,ybin,total,hits\r\n")
            for start in range(0, len(i), CSV_SLICE_ROWS):
                rows = np.stack([c[start:start + CSV_SLICE_ROWS] for c in columns], axis=1)
                fh.write("%d,%d,%d,%d\r\n" * len(rows) % tuple(rows.ravel().tolist()))


def encode_histogram(h: HistogramPair | JointHistogram) -> dict:
    """The counts of a histogram, without its axes: the flat index of every
    cell where total or hits is non-zero, in increasing order, with its
    counts, each array packed by pack_counts, and the overflow tallies."""
    total, hits = h.total.ravel(), h.hits.ravel()
    index = np.flatnonzero(total | hits)
    return {"index": pack_counts(index), "total": pack_counts(total[index]),
            "hits": pack_counts(hits[index]),
            "out_total": h.out_total, "out_hits": h.out_hits}


def decode_histogram(h: HistogramPair | JointHistogram, d: dict) -> None:
    """Fill the empty histogram h with the counts encode_histogram wrote to d.

    Raises ValueError unless each of the three count arrays unpacks, they
    have equal length, the indices increase strictly within the cells of
    h's axes and 0 <= hits <= total holds in every cell and in the
    overflow tallies.
    """
    index, cell_total, cell_hits = (unpack_counts(d.get(k), k)
                                    for k in ("index", "total", "hits"))
    if not len(index) == len(cell_total) == len(cell_hits):
        raise ValueError("counts 'index', 'total' and 'hits' differ in length")
    if len(index) and (index[-1] >= h.total.size or np.any(index[1:] <= index[:-1])):
        raise ValueError(f"count indices must increase strictly within [0, {h.total.size})")
    if np.any(cell_hits > cell_total):
        raise ValueError("counts must satisfy 0 <= hits <= total in every cell")
    h.total.reshape(-1)[index] = cell_total
    h.hits.reshape(-1)[index] = cell_hits
    h.out_total, h.out_hits = read_count(d, "out_total"), read_count(d, "out_hits")
    if h.out_hits > h.out_total:
        raise ValueError(f"out_hits {h.out_hits} exceeds out_total {h.out_total}")


@dataclass(frozen=True)
class RatioEstimate:
    p_hat: float
    ci_lo: float
    ci_hi: float


def wilson_interval(hits, total, level: float = 0.95
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_hat, ci_lo, ci_hi) of the Wilson score interval, elementwise over
    arrays (or scalars) of counts with 0 <= hits <= total and total > 0.

    Counts are taken as float64, so they are exact below 2**53.
    """
    hits = np.asarray(hits, dtype=float)
    total = np.asarray(total, dtype=float)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    z2 = z * z
    p = hits / total
    denom = 1.0 + z2 / total
    center = (p + z2 / (2 * total)) / denom
    half = z * np.sqrt(p * (1.0 - p) / total + z2 / (4 * total * total)) / denom
    # the exact bounds at hits = 0 and hits = total; rounding misses them
    lo = np.where(hits == 0, 0.0, np.maximum(center - half, 0.0))
    hi = np.where(hits == total, 1.0, np.minimum(center + half, 1.0))
    return p, lo, hi


def ratio_with_ci(hits: int, total: int, level: float = 0.95,
                  method: str = "wilson") -> RatioEstimate:
    """Binomial proportion with a Wald or Wilson score interval.

    Wilson is the default (well-behaved near p = 0); Wald reproduces
    plainly-printed z*sqrt(p(1-p)/n) intervals.
    """
    if total <= 0:
        raise EmptyCell("ratio undefined for total = 0")
    if not 0 <= hits <= total:
        raise ValueError(f"need 0 <= hits <= total, got {hits}/{total}")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    p = hits / total
    if method == "wald":
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        half = z * np.sqrt(p * (1.0 - p) / total)
        return RatioEstimate(p, float(p - half), float(p + half))
    if method == "wilson":
        _, lo, hi = wilson_interval(hits, total, level)
        return RatioEstimate(p, float(lo), float(hi))
    raise ValueError(f"unknown method {method!r}")


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability of the chi-square distribution, the regularized
    upper incomplete gamma function Q(a, h) at a = dof/2, h = x/2.

    For integer dof, Q is a finite sum of positive terms:
        even dof: Q = sum_{k < a} e^-h h^k / k!
        odd dof:  Q = erfc(sqrt h) + sum_{k < a - 1/2} e^-h h^(k+1/2) / Gamma(k + 3/2)
    Neighbouring terms differ by the factor h / (k + off), off = 0 or 1/2, so
    the sum starts at its largest term (one exp and one lgamma, which keeps
    the tails from underflowing early) and walks outwards until the terms
    stop counting.  No term cancels another.
    """
    if not (isinstance(dof, int) and dof >= 1):
        raise ValueError(f"dof must be an integer >= 1, got {dof!r}")
    if not (isfinite(x) and x >= 0.0):
        raise ValueError(f"x must be finite and >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    h = x / 2.0
    off = 0.5 * (dof % 2)
    terms = dof // 2
    q = erfc(sqrt(h)) if off else 0.0
    if not terms:
        return q
    peak = min(terms - 1, max(0, int(h - off)))
    t_peak = exp((peak + off) * log(h) - h - lgamma(peak + off + 1.0))
    acc = t = t_peak
    for k in range(peak, 0, -1):
        t *= (k + off) / h
        acc += t
        if t <= acc * 1e-17:
            break
    t = t_peak
    for k in range(peak + 1, terms):
        t *= h / (k + off)
        acc += t
        if t <= acc * 1e-17:
            break
    return min(q + acc, 1.0)


def flatness_test(h: HistogramPair, min_total: int = 1000) -> tuple[float, int, float]:
    """Pearson chi-square homogeneity test of the per-bin proportions.

    Restricted to bins with total >= min_total; the top boundary bin is
    excluded (the invariance claim is for the half-open interval below the
    pure-state boundary).  Returns (chi2, dof, p_value).  min_total below 1
    would let empty bins into the sum and is refused with ValueError.
    """
    if min_total < 1:
        raise ValueError(f"min_total must be >= 1, got {min_total}")
    total = h.total.astype(float)
    hits = h.hits.astype(float)
    mask = h.total >= min_total
    mask[-1] = False
    if mask.sum() < 2:
        raise InsufficientData("need at least 2 bins with total >= min_total")
    t = total[mask]
    s = hits[mask]
    p = s.sum() / t.sum()
    if p <= 0.0 or p >= 1.0:
        raise InsufficientData("pooled proportion is degenerate (0 or 1)")
    chi2 = float((((s - t * p) ** 2) / (t * p * (1.0 - p))).sum())
    dof = int(mask.sum()) - 1
    return chi2, dof, chi2_sf(chi2, dof)


def fit_scale(h: HistogramPair, a: float, b: float,
              fit_range: tuple[float, float] | None = None,
              min_total: int = 100) -> tuple[float, float]:
    """Least-squares scale of the radial model x^a (1 - x^2)^b to bin totals.

    The model is evaluated at bin midpoints (exact integration differs by
    far less than Monte Carlo noise at 100 bins).  Returns (scale,
    max_rel_residual) where the residual is max |t_i - s*m_i| / (s*m_i)
    over fitted bins with total >= min_total.
    """
    lo, hi = fit_range if fit_range is not None else (h.axis.lo, h.axis.hi)
    x = h.axis.midpoints()
    in_range = (x >= lo) & (x <= hi)
    m = np.zeros_like(x)
    valid = in_range & (np.abs(x) ** 2 < 1.0)
    m[valid] = np.abs(x[valid]) ** a * (1.0 - x[valid] ** 2) ** b
    sel = valid & (m > 0)
    if sel.sum() < 2:
        raise InsufficientData("fewer than 2 bins in the fit range")
    t = h.total[sel].astype(float)
    mm = m[sel]
    scale = float((t * mm).sum() / (mm * mm).sum())
    resid_sel = sel & (h.total >= min_total)
    if not resid_sel.any():
        raise InsufficientData(f"no bins with total >= {min_total} in range")
    tr = h.total[resid_sel].astype(float)
    mr = scale * m[resid_sel]
    max_rel = float(np.max(np.abs(tr - mr) / mr))
    return scale, max_rel
