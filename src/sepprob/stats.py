"""Mergeable binned counters, binomial ratio estimation with confidence
intervals, chi-square flatness testing and radial-density model fitting.

Binning convention: bins are half-open [lo + i*w, lo + (i+1)*w) except the
last, which is closed so the pure-state boundary (radius 1) is
representable.  Values outside [lo, hi] go to overflow tallies and are
never silently dropped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from math import erfc, exp, isfinite, lgamma, log, sqrt
from statistics import NormalDist

import numpy as np


# rows JointHistogram.to_csv renders per slice: the slice's row matrix,
# keep-mask and column temporaries stay under 2 MB, and on a 57k-row 500-bin
# two-qubit joint no other size rendered faster (1024 took 1.8 times as long)
CSV_SLICE_ROWS = 8192


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


# little-endian unsigned widths a count block is stored at, narrowest first
COUNT_WIDTHS = {tag: np.dtype(f"<{tag}") for tag in ("u1", "u2", "u4", "u8")}

# cells occupied_cells compares at a time: its boolean temporary takes at most
# 128 KiB and each array of flat indices it yields at most 1 MiB, 64 rows of
# a joint at MAX_BINS
OCCUPIED_BLOCK_CELLS = 2 ** 17


def pack_counts(values: np.ndarray) -> np.ndarray:
    """Non-negative integers as little-endian unsigned integers at the
    narrowest width in COUNT_WIDTHS that holds their maximum."""
    top = int(values.max()) if values.size else 0
    return values.astype(next(dtype for dtype in COUNT_WIDTHS.values()
                              if top <= np.iinfo(dtype).max))


def unpack_counts(data, at: int, tag, count: int, name: str) -> tuple[np.ndarray, int]:
    """(values, end): a read-only view of the count values of the block
    pack_counts wrote at byte `at` of data at width tag, and the byte after
    the block.  ValueError unless tag is a width in COUNT_WIDTHS, data holds
    the block and its values fit in an int64."""
    dtype = COUNT_WIDTHS.get(tag) if type(tag) is str else None
    if dtype is None:
        raise ValueError(f"counts {name!r} have unknown width {tag!r}")
    end = at + count * dtype.itemsize
    if end > len(data):
        raise ValueError(f"counts {name!r} need {end - at} bytes, "
                         f"only {len(data) - at} remain")
    values = np.frombuffer(data, dtype, count, at)
    if dtype.itemsize == 8 and count and values.max() > np.iinfo(np.int64).max:
        raise ValueError(f"counts {name!r} exceed the int64 range")
    return values, end


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
        """One row per occupied cell, x-major, rendered by _csv_rows."""
        total, hits, ybins = self.total.reshape(-1), self.hits.reshape(-1), self.axis_y.bins
        with open(path, "wb") as fh:
            fh.write(f"# axis_x={self.axis_x.label} axis_y={self.axis_y.label}"
                     f" bins={self.axis_x.bins}x{self.axis_y.bins}\n"
                     f"# out_total={self.out_total} out_hits={self.out_hits}\n"
                     "xbin,ybin,total,hits\r\n".encode())
            for cells in occupied_cells(self.total):
                for start in range(0, len(cells), CSV_SLICE_ROWS):
                    flat = cells[start:start + CSV_SLICE_ROWS]
                    x = flat // ybins
                    fh.write(_csv_rows([x, flat - x * ybins, total[flat], hits[flat]]))


def occupied_cells(total: np.ndarray):
    """The flat indices of the cells where total > 0, in increasing order,
    as one array per block of whole rows of at most OCCUPIED_BLOCK_CELLS
    cells.  hits <= total in every cell, so these are the occupied cells;
    a boolean comparison finds them several times faster than a scan of
    the int64 counts, and per block it needs no bins**2 temporary."""
    rows = total.reshape(len(total), -1)
    step = max(1, OCCUPIED_BLOCK_CELLS // rows.shape[1])
    for start in range(0, len(rows), step):
        cells = np.flatnonzero(rows[start:start + step] > 0)
        cells += start * rows.shape[1]
        yield cells


def _csv_rows(columns: list[np.ndarray]) -> np.ndarray:
    """The ASCII bytes "%d,%d,...,%d\\r\\n" % row for each row of equal-length,
    non-empty columns of non-negative integers, as a uint8 array.

    Each column's digits fill a block of a row matrix as wide as its largest
    value, right-aligned, by repeated division by 10 at the column's narrowest
    unsigned width; a comma, or the closing CR LF, follows each block.  A
    keep-mask drops the leading zeros, and one boolean gather joins the rows.
    """
    tops = [int(c.max()) for c in columns]
    widths = [len(str(top)) for top in tops]
    rows = np.empty((len(columns[0]), sum(widths) + len(columns) + 1), np.uint8)
    keep = np.ones(rows.shape, bool)
    end = 0
    for column, top, width in zip(columns, tops, widths):
        value = column.astype(np.min_scalar_type(top))
        for k in range(end + width - 1, end - 1, -1):
            quotient = value // 10
            rows[:, k] = value - 10 * quotient + ord("0")
            # the digit left of k is a leading zero once nothing is left
            if k > end:
                np.not_equal(quotient, 0, out=keep[:, k - 1])
            value = quotient
        rows[:, end + width] = ord(",")
        end += width + 1
    rows[:, -2:] = (ord("\r"), ord("\n"))
    return rows[keep]


# the count blocks of a histogram, in the order they are stored
COUNT_BLOCKS = ("gaps", "total", "hits")


def encode_histogram(h: HistogramPair | JointHistogram) -> tuple[dict, list[np.ndarray]]:
    """The counts of a histogram, without its axes, as a checkpoint header
    entry and the three count blocks it describes.

    The blocks list the occupied cells (total > 0; hits <= total in every
    cell) in increasing flat index: their index gaps (the first index + 1,
    then the differences, all >= 1), their totals and their hits, each
    packed by pack_counts.  The entry holds the number of occupied cells
    as "cells", each block's width under the block's name and the overflow
    tallies.  Each block of rows is packed as it is found, so no int64
    array of all the occupied cells is made.
    """
    total, hits = h.total.reshape(-1), h.hits.reshape(-1)
    pieces = {name: [] for name in COUNT_BLOCKS}
    prev, cells = -1, 0
    for index in occupied_cells(h.total):
        if index.size:
            for name, values in zip(COUNT_BLOCKS, (np.diff(index, prepend=prev),
                                                   total[index], hits[index])):
                pieces[name].append(pack_counts(values))
            prev, cells = int(index[-1]), cells + index.size
    entry, blocks = {"cells": cells}, []
    for name, parts in pieces.items():
        # each part is at its own narrowest width: the widest holds them all
        dtype = max((p.dtype for p in parts), key=lambda d: d.itemsize,
                    default=COUNT_WIDTHS["u1"])
        entry[name] = f"u{dtype.itemsize}"
        blocks.append(np.concatenate(parts, dtype=dtype) if parts else np.empty(0, dtype))
    entry.update(out_total=h.out_total, out_hits=h.out_hits)
    return entry, blocks


def decode_histogram(h: HistogramPair | JointHistogram, d: dict, data, at: int) -> int:
    """Fill the empty histogram h with the counts encode_histogram described
    by the header entry d and wrote as blocks at byte `at` of data; return
    the byte after its blocks.

    Raises ValueError unless d is such an entry, each of the three blocks
    unpacks, the index gaps put the cells in strictly increasing order
    within the cells of h's axes and 0 <= hits <= total holds in every cell
    and in the overflow tallies.
    """
    if type(d.get("index")) is str:
        raise ValueError("counts stored as base64 strings in the JSON body, the "
                         "layout before count blocks, are not read; rerun the run")
    if "cells" not in d:
        raise ValueError("histogram entry has no 'cells'")
    cells, size = read_count(d, "cells"), h.total.size
    blocks = {}
    for name in COUNT_BLOCKS:
        blocks[name], at = unpack_counts(data, at, d.get(name), cells, name)
    gaps, total, hits = blocks.values()
    if cells and (gaps.min() < 1 or gaps.max() > size):
        raise ValueError(f"count index gaps must lie in [1, {size}]")
    # at most cells * size, far inside the int64 range
    index = np.cumsum(gaps, dtype=np.int64)
    index -= 1
    if cells and index[-1] >= size:
        raise ValueError(f"count indices run past the last cell, {size - 1}")
    if np.any(hits > total):
        raise ValueError("counts must satisfy 0 <= hits <= total in every cell")
    h.total.reshape(-1)[index] = total
    h.hits.reshape(-1)[index] = hits
    h.out_total, h.out_hits = read_count(d, "out_total"), read_count(d, "out_hits")
    if h.out_hits > h.out_total:
        raise ValueError(f"out_hits {h.out_hits} exceeds out_total {h.out_total}")
    return at


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
