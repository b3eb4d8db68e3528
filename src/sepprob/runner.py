"""Experiment orchestration: config, worker lanes over the sample-index
grid, checkpoint/resume, report assembly and CSV export.

A run's remaining sample indices are cut into sub-batches on one global
grid and dealt to W lanes: lane w samples the sub-batches numbered
b = w (mod W) in one pass.  One worker is lane 0 of 1, counted in place
into the run state with a checkpoint at each block edge.  With more
workers each lane is one pool task for the whole run; at every edge it
passes it sends the parent its counts since the last one, and the parent
merges each block's counts with commutative sums and saves the checkpoint
once every lane has passed its edge, while the lanes sample on.  A
sample's record does not depend on the batch it is computed in, so no
result depends on worker count, block edges or scheduling order.

A checkpoint is a line with the sha256 hex digest of the bytes after it,
then one JSON object: the config and its hash, the sample and PPT counts
and all histogram counts, each count array packed as little-endian binary
in base64 (stats.encode_histogram).  The axes of the histograms are not
stored: the config defines them.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import MISSING, asdict, dataclass, field, fields
from math import isfinite
from pathlib import Path
from queue import Empty

import numpy as np

from .invariants import AXIS_RANGES, axis_labels, record_batch
from .matrix_core import Workspace
from .random_states import CHUNK_SAMPLES, STREAM_VERSION, MeasureSpec, state_batch
from .stats import (Axis, HistogramPair, JointHistogram, InsufficientData,
                    decode_histogram, encode_histogram, fit_scale, flatness_test,
                    ratio_with_ci, read_count)

# samples per vectorized sub-batch; sub-batches are cut at multiples of it
# in the global sample index, so only a run's first one, at a resume point,
# can start mid-chunk, and every lane draws whole chunks
SUB_BATCH = 2 * CHUNK_SAMPLES
# seconds the parent of a pool waits for a lane's message before it checks
# whether a lane has raised or its worker has died
LANE_POLL_S = 0.1

# the r_A x R_B joint holds two bins**2 int64 layers: 64 MiB at this cap
MAX_BINS = 2048
# a pool forks all of its workers at the first submit
MAX_WORKERS = 256
# n <= 32 at this cap on n*max(n, k).  At n = 32 a worker's workspace holds
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

    def merge(self, part: "RunState") -> None:
        """Add the counts of a part (a lane's counts in one block) to this state."""
        self.n_total += part.n_total
        self.n_ppt += part.n_ppt
        for lb, h in self.hists.items():
            self.hists[lb] = h.merge(part.hists[lb])
        self.joint = self.joint.merge(part.joint)

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


def _range_stats(cfg: ExperimentConfig, start: int, count: int,
                 part: RunState | None = None, at_edge=None,
                 lane: int = 0, lanes: int = 1, halt=None) -> RunState:
    """Count into part, a fresh RunState if None, the samples of lane
    `lane` of `lanes` over the indices [start, start + count): the
    sub-batches numbered b = lane (mod lanes) of the range, cut on the
    global SUB_BATCH grid.  The defaults count the whole range.

    With at_edge, at_edge(upto) runs each time the lane has counted all of
    its samples below upto and has passed an edge start + i *
    checkpoint_every (the last is the end) since the last call: at an edge
    inside a sub-batch, with upto that edge; for edges between two of its
    sub-batches, just before it draws the next, with upto where that one
    starts, or the end after its last.  So the samples counted between two
    calls lie in one block.  On one lane every edge falls inside a
    sub-batch: at_edge runs once per edge.  Only the counting of a
    sub-batch that straddles an edge is split, by slicing its records; its
    kernels run once.

    The lane returns before its next sub-batch once halt (an Event) is
    set, without a last at_edge call.  One workspace serves every
    sub-batch, so after the first they reuse its buffers instead of
    faulting in fresh pages; it lives for this call only.  The states of a
    sub-batch are a fresh array, freed as soon as they are recorded."""
    if part is None:
        part = RunState.fresh(cfg)
    measure = MeasureSpec(cfg.n, cfg.k)
    dims = (cfg.dim_a, cfg.dim_b)
    end = start + count
    every = cfg.checkpoint_every

    def edge_after(at):
        # the first edge above index at; end + 1 once the end is passed
        return min(start + ((at - start) // every + 1) * every, end) if at < end else end + 1

    first_cut = (start // SUB_BATCH + 1) * SUB_BATCH
    cuts = [start, *range(first_cut, end, SUB_BATCH), end]
    edge = edge_after(start) if at_edge is not None else end + 1
    workspace = Workspace()
    for lo, hi in list(zip(cuts, cuts[1:]))[lane::lanes]:
        if halt is not None and halt.is_set():
            return part
        if edge <= lo:
            at_edge(lo)
            edge = edge_after(lo)
        rec = record_batch(state_batch(measure, cfg.seed, lo, hi - lo, workspace=workspace),
                           dims, workspace=workspace)
        at = lo
        while at < hi:
            # count up to the end of the sub-batch or the next edge in it
            stop = min(hi, edge)
            rows = slice(at - lo, stop - lo)
            ppt = rec["ppt"][rows]
            part.n_total += stop - at
            part.n_ppt += int(ppt.sum())
            for lb, h in part.hists.items():
                h.accumulate_many(rec[lb][rows], ppt)
            part.joint.accumulate_many(rec["r_A"][rows], rec["R_B"][rows], ppt)
            if stop == edge:
                at_edge(edge)
                edge = edge_after(edge)
            at = stop
        del rec, ppt  # free this sub-batch before drawing the next
    if edge <= end:
        at_edge(end)
    return part


def _lane(cfg: ExperimentConfig, start: int, lane: int, send, halt=None) -> None:
    """Lane `lane` of cfg.workers over [start, cfg.samples), as a pool task
    runs it: at each at_edge(upto) of its pass it calls send((lane, upto,
    delta)), with delta its counts since the last message as
    RunState.to_dict writes them, or None if it counted nothing since."""
    part = RunState.fresh(cfg)

    def ship(upto):
        send((lane, upto, part.to_dict() if part.n_total else None))
        part.n_total = part.n_ppt = 0
        for h in [*part.hists.values(), part.joint]:
            h.total[...] = 0
            h.hits[...] = 0
            h.out_total = h.out_hits = 0

    _range_stats(cfg, start, cfg.samples - start, part, ship, lane, cfg.workers, halt)


# a pool worker's lane queue and halt event, set by _join_pool
_pool_link = None


def _join_pool(queue, halt) -> None:
    global _pool_link
    # a worker exits without flushing what the parent no longer reads (it
    # reads every message of a run that ends normally), so a full pipe
    # cannot hold up its exit
    queue.cancel_join_thread()
    _pool_link = queue, halt


def _pool_lane(cfg: ExperimentConfig, start: int, lane: int) -> None:
    queue, halt = _pool_link
    _lane(cfg, start, lane, queue.put, halt)


def _run_lanes(cfg: ExperimentConfig, state: RunState, checkpoint) -> None:
    """Count [state.n_total, cfg.samples) into state on cfg.workers pool
    lanes, calling checkpoint() at each edge state.n_total + i *
    checkpoint_every and at the end, once every lane has passed it.

    A lane's error, or BrokenProcessPool for a worker that died, ends the
    run; on any error the lanes stop before their next sub-batch and the
    pool is shut down before it propagates."""
    start, every = state.n_total, cfg.checkpoint_every
    ctx = multiprocessing.get_context()
    queue, halt = ctx.Queue(), ctx.Event()
    # how far each lane has counted all of its samples, and the deltas of
    # blocks not yet saved, by block number; a delta's samples lie in the
    # block its lane had reached at its previous message
    passed = [start] * cfg.workers
    pending: dict[int, list[dict]] = {}
    with ProcessPoolExecutor(cfg.workers, mp_context=ctx, initializer=_join_pool,
                             initargs=(queue, halt)) as pool:
        lanes = [pool.submit(_pool_lane, cfg, start, w) for w in range(cfg.workers)]
        try:
            while state.n_total < cfg.samples:
                for f in lanes:  # raises a lane's error
                    try:
                        f.result(timeout=0)
                    except FutureTimeout:
                        pass
                try:
                    lane, upto, delta = queue.get(timeout=LANE_POLL_S)
                except Empty:
                    continue
                if delta is not None:
                    pending.setdefault((passed[lane] - start) // every, []).append(delta)
                passed[lane] = upto
                edge = min(state.n_total + every, cfg.samples)
                while min(passed) >= edge > state.n_total:
                    for d in pending.pop((state.n_total - start) // every, ()):
                        state.merge(RunState.from_dict(d, cfg))
                    if state.n_total != edge:  # never save a block with counts missing
                        raise RuntimeError(f"the lanes' counts below {edge} "
                                           f"hold {state.n_total} samples")
                    checkpoint()
                    edge = min(edge + every, cfg.samples)
        finally:
            halt.set()


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
    t0 = time.perf_counter()

    def checkpoint():
        # elapsed leaves out the checkpoint write and the progress line,
        # though a pool's lanes sample on meanwhile
        nonlocal t0
        state.elapsed += time.perf_counter() - t0
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
        t0 = time.perf_counter()

    if state.n_total < cfg.samples and cfg.workers == 1:
        _range_stats(cfg, state.n_total, cfg.samples - state.n_total, state,
                     lambda upto: checkpoint())
    elif state.n_total < cfg.samples:
        _run_lanes(cfg, state, checkpoint)
    return assemble_report(cfg, state)


def export(report: ExperimentReport, out_dir=None) -> list[Path]:
    """Write report.json, per-axis CSVs, the joint CSV and a MANIFEST."""
    out = Path(out_dir if out_dir is not None else report.config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    manifest = out / "MANIFEST"
    manifest.write_text("\n".join(lines) + "\n")
    written.append(manifest)
    return written
