"""Experiment orchestration: config, sampling by cells and the one counting
loop, checkpoint/resume, report assembly and CSV export.

A run's remaining sample indices are cut into cells on one global grid of
SUB_BATCH samples.  Sampling makes one record per cell, and the caller's
process counts every record into the run state in sample order, in one
loop that saves a checkpoint at each block edge.  One worker draws the
cells in process as they are counted; with more, each cell is one task of
a process pool, and the parent reads the tasks' results in the order it
submitted them.  A sample's record does not depend on the cell it is
computed in, so no result depends on worker count, block edges or
scheduling order.

A checkpoint is a line with the sha256 hex digest of the bytes after it,
then one JSON object: the config and its hash, the sample and PPT counts
and all histogram counts, each count array packed as little-endian binary
in base64 (stats.encode_histogram).  The axes of the histograms are not
stored: the config defines them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import MISSING, asdict, dataclass, field, fields
from math import isfinite
from pathlib import Path

import numpy as np

from .invariants import AXIS_RANGES, axis_labels, record_batch
from .matrix_core import release_buffers
from .random_states import CHUNK_SAMPLES, STREAM_VERSION, MeasureSpec, state_batch
from .stats import (Axis, HistogramPair, JointHistogram, InsufficientData,
                    decode_histogram, encode_histogram, fit_scale, flatness_test,
                    ratio_with_ci, read_count)

# samples per cell of the run's grid, cut at multiples of it in the global
# sample index: only a run's first cell, at a resume point, can start
# mid-chunk, and no chunk is split between two cells
SUB_BATCH = 2 * CHUNK_SAMPLES

# the r_A x R_B joint holds two bins**2 int64 layers: 64 MiB at this cap
MAX_BINS = 2048
# a pool starts all of its workers at its first submit under fork, and
# under spawn or forkserver one at each submit that finds none idle
MAX_WORKERS = 256
# n <= 32 at this cap on n*max(n, k).  At n = 32 a worker's kernel buffers hold
# per sample at most n(n-1) normals and n gammas in its rows (8 B per
# matrix entry) and the two float n x n planes of rho^Gamma, which the
# factor's planes and the reduced states fit into (16 B); each sub-batch
# adds its complex n x n states (16 B): 8192 * 1024 * 40 B = 320 MiB.  k
# adds only gamma shapes, no memory; the cap still bounds it.
MAX_MATRIX_ENTRIES = 1024


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class ConfigHashMismatch(RuntimeError):
    """Checkpoint was written by a different configuration."""


class CorruptCheckpoint(RuntimeError):
    """Checkpoint file failed its checksum or has an unreadable body."""


@dataclass
class ExperimentConfig:
    dim_a: int
    dim_b: int
    # ancilla dimension of the induced measure; None means dim_a*dim_b, which
    # is the Hilbert-Schmidt measure
    k: int | None = None
    samples: int = 1_000_000
    seed: int = 0
    bins: int = 100
    workers: int = 1
    checkpoint_every: int = 2_000_000
    out_dir: str = "results"

    def __post_init__(self):
        # every field is an int (k may be None) but out_dir; a bool is no int here
        for name, value in vars(self).items():
            kind = str if name == "out_dir" else int
            if type(value) is not kind and not (name == "k" and value is None):
                raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
        n = self.dim_a * self.dim_b
        if self.dim_a < 1 or self.dim_b < 1 or n < 2:
            raise ConfigError(f"invalid shape {self.dim_a}x{self.dim_b}")
        if self.k is None:
            self.k = n
        elif self.k < 1:
            raise ConfigError(f"ancilla dimension k must be >= 1, got {self.k}")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(f"workers must be in [1, {MAX_WORKERS}], got {self.workers}")
        if n * max(n, self.k) > MAX_MATRIX_ENTRIES:
            raise ConfigError(f"n*max(n, k) must be <= {MAX_MATRIX_ENTRIES}, "
                              f"got n={n}, k={self.k}")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        if not 1 <= self.bins <= MAX_BINS:
            raise ConfigError(f"bins must be in [1, {MAX_BINS}], got {self.bins}")

    @property
    def n(self) -> int:
        return self.dim_a * self.dim_b

    def axes(self) -> dict[str, Axis]:
        return {lb: Axis(lb, *AXIS_RANGES[lb], self.bins)
                for lb in axis_labels((self.dim_a, self.dim_b))}

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict, **overrides) -> "ExperimentConfig":
        """The config d describes, each override replacing d's value."""
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        merged = {**d, **overrides}
        unknown = set(merged) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in merged]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        return cls(**merged)

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except RecursionError as exc:
                raise ConfigError(f"config {path} nests too deeply to parse") from exc
        return cls.from_dict(d, **overrides)

    def config_hash(self) -> str:
        ident = {"dim_a": self.dim_a, "dim_b": self.dim_b, "k": self.k,
                 "samples": self.samples, "seed": self.seed, "bins": self.bins,
                 "stream_version": STREAM_VERSION}
        blob = json.dumps(ident, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class RunState:
    """Merged accumulation state; n_total is the resume point."""
    n_total: int
    n_ppt: int
    elapsed: float
    hists: dict[str, HistogramPair]
    joint: JointHistogram

    @classmethod
    def fresh(cls, cfg: ExperimentConfig) -> "RunState":
        axes = cfg.axes()
        return cls(n_total=0, n_ppt=0, elapsed=0.0,
                   hists={lb: HistogramPair(axis=ax) for lb, ax in axes.items()},
                   joint=JointHistogram(axis_x=axes["r_A"], axis_y=axes["R_B"]))

    def to_dict(self) -> dict:
        return {"n_total": self.n_total, "n_ppt": self.n_ppt, "elapsed": self.elapsed,
                "histograms": {lb: encode_histogram(h) for lb, h in self.hists.items()},
                "joint": encode_histogram(self.joint)}

    @classmethod
    def from_dict(cls, d: dict, cfg: ExperimentConfig) -> "RunState":
        """The state to_dict wrote, on the histogram axes cfg defines;
        ValueError unless its histogram labels are cfg's, in order, and the
        totals and hits of every histogram sum to n_total and n_ppt.  Keys
        that to_dict does not write are ignored."""
        state = cls.fresh(cfg)
        bodies = d["histograms"]
        if list(bodies) != list(state.hists):
            raise ValueError(f"histogram axes {list(bodies)} differ from those of "
                             f"its config, {list(state.hists)}")
        n_total, n_ppt = read_count(d, "n_total"), read_count(d, "n_ppt")
        if not n_ppt <= n_total <= cfg.samples:
            raise ValueError(f"need n_ppt <= n_total <= samples, got "
                             f"{n_ppt}, {n_total}, {cfg.samples}")
        elapsed = d["elapsed"]
        if type(elapsed) not in (int, float) or not (isfinite(elapsed) and elapsed >= 0):
            raise ValueError(f"elapsed must be a finite number >= 0, got {elapsed!r}")
        state.n_total, state.n_ppt, state.elapsed = n_total, n_ppt, elapsed
        for lb, h in state.hists.items():
            decode_histogram(h, bodies[lb])
        decode_histogram(state.joint, d["joint"])
        # each histogram counts every sample once, in a cell or its overflow
        for lb, h in [*state.hists.items(), ("joint", state.joint)]:
            sums = (_count_sum(h.total) + h.out_total, _count_sum(h.hits) + h.out_hits)
            if sums != (n_total, n_ppt):
                raise ValueError(f"{lb} counts sum to (total, hits) = {sums}, "
                                 f"not (n_total, n_ppt) = {(n_total, n_ppt)}")
        return state


def _count_sum(counts: np.ndarray) -> int:
    """Exact sum of non-negative int64 counts: a uint64 sum where the
    maximum shows that it cannot wrap, Python ints where it could."""
    if counts.size and int(counts.max()) * counts.size >= 2 ** 64:
        return sum(counts.tolist())
    return int(counts.sum(dtype=np.uint64))


def _cells(start: int, end: int):
    """(lo, hi) of the cells of [start, end), in order: cell i is
    [b * SUB_BATCH, (b + 1) * SUB_BATCH) with b = start // SUB_BATCH + i,
    cut to the range.  No list of cells is ever built."""
    b = start // SUB_BATCH
    while (lo := max(b * SUB_BATCH, start)) < end:
        yield lo, min((b + 1) * SUB_BATCH, end)
        b += 1


def _record(cfg: ExperimentConfig, lo: int, hi: int) -> tuple[int, int, dict]:
    """(lo, hi, record) of the samples [lo, hi) of cfg's run; a pool task.
    The states are a fresh array, freed as soon as they are recorded."""
    rhos = state_batch(MeasureSpec(cfg.n, cfg.k), cfg.seed, lo, hi - lo)
    return lo, hi, record_batch(rhos, (cfg.dim_a, cfg.dim_b))


def _cell_records(cfg: ExperimentConfig, start: int):
    """(lo, hi, record) for each cell of [start, cfg.samples), in order,
    drawn in this thread, which gives its kernel buffers back when the pass
    ends."""
    try:
        for lo, hi in _cells(start, cfg.samples):
            yield _record(cfg, lo, hi)
    finally:
        release_buffers()


def _range_stats(cfg: ExperimentConfig, state: RunState, records, checkpoint) -> None:
    """Count records, (lo, hi, record) in sample order from state.n_total,
    into state, calling checkpoint() at each edge state.n_total + i *
    checkpoint_every and at cfg.samples.  A record that straddles an edge
    is counted in two slices.  No other code knows the edges."""
    edge = min(state.n_total + cfg.checkpoint_every, cfg.samples)
    for lo, hi, rec in records:
        at = lo
        while at < hi:
            # count up to the end of the record or the next edge in it
            stop = min(hi, edge)
            rows = slice(at - lo, stop - lo)
            ppt = rec["ppt"][rows]
            state.n_total += stop - at
            state.n_ppt += int(ppt.sum())
            for lb, h in state.hists.items():
                h.accumulate_many(rec[lb][rows], ppt)
            state.joint.accumulate_many(rec["r_A"][rows], rec["R_B"][rows], ppt)
            if stop == edge:
                checkpoint()
                edge = min(edge + cfg.checkpoint_every, cfg.samples)
            at = stop
        del rec, ppt  # free this record before the next is drawn


def _pool_records(cfg: ExperimentConfig, start: int):
    """The records of [start, cfg.samples) in sample order, one pool task
    per cell; a worker keeps its kernel buffers for its life.  At most
    cfg.workers + 1 cells, the executor's own call-queue depth, are
    submitted and not yet yielded.  A task's error, or
    BrokenProcessPool for a worker that died, is raised here; once the
    caller stops, by an error or by closing this generator, the cells not
    yet started are cancelled and the pool shuts down.  A future is only
    read with result(): the benchmark's traced pool times that call and
    gives its futures no other method."""
    pool, window = ProcessPoolExecutor(cfg.workers), deque()
    try:
        for lo, hi in _cells(start, cfg.samples):
            window.append(pool.submit(_record, cfg, lo, hi))
            if len(window) > cfg.workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    n_total: int
    n_ppt: int
    overall: dict
    flatness: dict
    fits: dict
    wall_time: float
    samples_per_sec: float
    hists: dict[str, HistogramPair] = field(repr=False, default=None)
    joint: JointHistogram = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(),
                "config_hash": self.config.config_hash(),
                "stream_version": STREAM_VERSION, "software": software_stack(),
                "n_total": self.n_total, "n_ppt": self.n_ppt,
                "overall": self.overall, "flatness": self.flatness,
                "fits": self.fits, "wall_time": self.wall_time,
                "samples_per_sec": self.samples_per_sec}


def software_stack() -> dict:
    """The interpreter, numpy and BLAS versions a report was produced with,
    and the number of CPUs the process may run on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    # sched_getaffinity exists only on Linux
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpus": cpus}


def _report_fits(cfg: ExperimentConfig, hists: dict) -> dict:
    """Radial-density model fits where a model is known for the shape."""
    fits = {}
    if cfg.dim_a == 2:
        # rho_A = tr_B rho is an induced qubit state with ancilla dim_b*k, whose
        # Bloch radius has density r^2 (1 - r^2)^(dim_b*k - 2) (Zyczkowski and
        # Sommers, J. Phys. A 34, 7111 (2001))
        a, b = 2, cfg.dim_b * cfg.k - 2
        try:
            scale, resid = fit_scale(hists["r_A"], a, b)
            fits["r_A"] = {"a": a, "b": b, "range": [0.0, 1.0],
                           "scale": scale, "max_rel_residual": resid}
        except InsufficientData:
            pass
    # the paper's model for the qutrit of the qubit-qutrit HS state, an
    # induced qutrit with ancilla 12
    if (cfg.dim_a, cfg.dim_b, cfg.k) == (2, 3, 6):
        try:
            scale, resid = fit_scale(hists["R_B"], 7, 32, fit_range=(0.0, 0.5))
            fits["R_B"] = {"a": 7, "b": 32, "range": [0.0, 0.5],
                           "scale": scale, "max_rel_residual": resid}
        except InsufficientData:
            pass
    return fits


def assemble_report(cfg: ExperimentConfig, state: RunState) -> ExperimentReport:
    overall = {}
    if state.n_total:
        for level, method in ((0.95, "wilson"), (0.999, "wald")):
            est = ratio_with_ci(state.n_ppt, state.n_total, level, method)
            overall[f"{method}_{level}"] = {"p_hat": est.p_hat, "ci_lo": est.ci_lo,
                                            "ci_hi": est.ci_hi}
    flatness = {}
    for lb, h in state.hists.items():
        try:
            chi2, dof, p = flatness_test(h)
            flatness[lb] = {"chi2": chi2, "dof": dof, "p_value": p}
        except InsufficientData:
            flatness[lb] = None
    rate = state.n_total / state.elapsed if state.elapsed > 0 else 0.0
    return ExperimentReport(config=cfg, n_total=state.n_total, n_ppt=state.n_ppt,
                            overall=overall, flatness=flatness,
                            fits=_report_fits(cfg, state.hists),
                            wall_time=state.elapsed, samples_per_sec=rate,
                            hists=state.hists, joint=state.joint)


def checkpoint_path(out_dir) -> Path:
    return Path(out_dir) / "checkpoint.json"


def save_checkpoint(cfg: ExperimentConfig, state: RunState) -> Path:
    path = checkpoint_path(cfg.out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = json.dumps({"config": cfg.to_dict(), "config_hash": cfg.config_hash(),
                       **state.to_dict()}).encode()
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    return path


def load_checkpoint(path, cfg: ExperimentConfig | None = None
                    ) -> tuple[ExperimentConfig, RunState]:
    """Load a checkpoint; verify its digest and, if cfg is given, its hash."""
    try:
        digest, _, body = Path(path).read_bytes().partition(b"\n")
    except OSError as exc:
        raise CorruptCheckpoint(f"cannot read checkpoint {path}: {exc}") from exc
    if digest != hashlib.sha256(body).hexdigest().encode():
        raise CorruptCheckpoint(f"checksum mismatch in {path}")
    try:
        payload = json.loads(body)
        ck_cfg = ExperimentConfig.from_dict(payload["config"])
        ck_hash = payload["config_hash"]
        state = RunState.from_dict(payload, ck_cfg)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise CorruptCheckpoint(f"unreadable checkpoint body in {path}: "
                                f"{type(exc).__name__}: {exc}") from exc
    # the digest holds, so a hash that disagrees with the file's own config
    # was computed under another STREAM_VERSION: those draws differ
    if ck_hash != ck_cfg.config_hash():
        raise ConfigHashMismatch(
            f"checkpoint {path} was written under another sampling stream "
            f"(this is stream version {STREAM_VERSION})")
    if cfg is not None and cfg.config_hash() != ck_hash:
        raise ConfigHashMismatch(
            "checkpoint was written by a different configuration")
    return ck_cfg, state


def run_experiment(cfg: ExperimentConfig, state: RunState | None = None,
                   progress: bool = False) -> ExperimentReport:
    """Run (or continue) the sampling experiment described by cfg, saving a
    resumable checkpoint after every block of checkpoint_every samples.
    state is counted in place: after an exception it may hold part of a
    block, so resume from the checkpoint, not from it."""
    if state is None:
        state = RunState.fresh(cfg)
    base, t0 = state.elapsed, time.perf_counter()

    def checkpoint():
        # wall time, checkpoint writes included: a pool's workers sample on
        state.elapsed = base + (time.perf_counter() - t0)
        save_checkpoint(cfg, state)
        if progress:
            rate = state.n_total / max(state.elapsed, 1e-9)
            try:
                print(f"  {state.n_total}/{cfg.samples} samples, "
                      f"{state.n_ppt} PPT, {rate:,.0f} samples/s", flush=True)
            except BrokenPipeError:
                # the reader has gone; the run goes on, and stdout from here
                # on, the unflushed line too, goes to the null device
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)

    if state.n_total < cfg.samples:
        draw = _cell_records if cfg.workers == 1 else _pool_records
        with closing(draw(cfg, state.n_total)) as records:
            _range_stats(cfg, state, records, checkpoint)
    return assemble_report(cfg, state)


def export(report: ExperimentReport, out_dir=None) -> list[Path]:
    """Write report.json, per-axis CSVs, the joint CSV and a MANIFEST, and
    remove the files that the directory's previous MANIFEST lists and this
    export does not write, such as the c3 CSVs of a qutrit run before a
    qubit run in one directory.  Only plain file names in it count."""
    out = Path(out_dir if out_dir is not None else report.config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "MANIFEST"
    listed = manifest.read_text().splitlines() if manifest.is_file() else []
    written = []

    def _write(name, writer):
        p = out / name
        writer(p)
        written.append(p)

    _write("report.json",
           lambda p: p.write_text(json.dumps(report.to_dict(), indent=2)))
    for lb, h in report.hists.items():
        _write(f"{lb}.csv", h.to_csv)
    _write("joint_r_R.csv", report.joint.to_csv)
    lines = []
    for p in written:
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        lines.append(f"{digest}  {p.name}")
    manifest.write_text("\n".join(lines) + "\n")
    written.append(manifest)
    for name in {ln.partition("  ")[2] for ln in listed} - {p.name for p in written}:
        if Path(name).name == name and (out / name).is_file():
            (out / name).unlink()
    return written
