#!/usr/bin/env python3
"""Benchmark for sepprob: sampling throughput, set-up time and checkpoint I/O.

    python3 sepbench/run.py --workload hs-2x3 --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports the package from
./src and nothing else.  One experiment is what `sepprob sample` and then
`sepprob report` do: run_experiment, export, then load_checkpoint,
assemble_report and export again from the checkpoint.  Every experiment's
outputs go through the gates in gates.py.

--trace 0  Measures the set-up time of fresh interpreters, then repeats the
           workload's experiment on seed-derived inputs (one new seed per
           experiment) until --seconds have passed, and reports the
           end-to-end metrics as trimmed means over experiments (set-up
           time as the median over its probes).
--trace 1  Alternates an untraced and a traced one-worker experiment on the
           same inputs, and for a multi-worker workload adds a pool pass
           traced at runner level only, until --seconds have passed.  It
           reports the per-layer metrics as medians over traced experiments
           and counts from the first one, which repeat exactly for a seed.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Exit status is 0 when
every gate passed, 1 when one failed, 2 when the package is not found.

    python3 sepbench/run.py --write-benchmark-json

rewrites BENCHMARK.json at the checkout root from the declarations below;
sepbench/selftest.py checks the gates, the span arithmetic and that file.
"""

from __future__ import annotations

import os

# One BLAS thread per process, pool workers included (they inherit the
# environment).  OpenBLAS reads these when numpy loads, so set them first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gates
from spans import Tracer, layer_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

RUN_SECONDS = 35
SETUP_PROBES = 7
TRIM = 0.1
SUBSAMPLE = 48
# |min eigenvalue of rho^Gamma| below this counts as near the PPT boundary:
# the share of samples a sign-only PPT test would have to re-check
NEAR_BOUNDARY_MARGIN = 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, int]
    workers: int
    bins: int
    samples: int             # per experiment
    checkpoint_every: int
    # PPT probability and the half-width of its acceptance band (0 if exact)
    reference: tuple[float, float] | None
    why: str


# 2x4 is left out: it exercises no layer these three miss.
WORKLOADS = {w.name: w for w in (
    Workload("hs-2x3", (2, 3), 1, 100, 100_000, 100_000, (0.02700, 0.00021),
             "qubit-qutrit HS, the paper's headline system: 1 worker, 100 bins, one "
             "checkpoint; time goes to normals and the 6x6 eigvalsh, I/O is under 1%"),
    Workload("hs-3x3-w2", (3, 3), 2, 100, 150_000, 50_000, (1.022e-4, 0.41e-4),
             "two-qutrit HS on 2 worker processes: largest matrices, both c3 axes, "
             "almost no PPT hits; the only workload through pool dispatch, pickling, merge"),
    Workload("hs-2x2-ckpt", (2, 2), 1, 500, 100_000, 20_000, (8 / 33, 0.0),
             "two-qubit HS, 500 bins, a checkpoint every 20k samples, export and resume: "
             "cheap 4x4 kernel, 24% PPT; checkpoint I/O and histograms show here"),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


# The bounds on times are wide because a shared 2-vCPU VM drifts in speed by
# about 10% over tens of seconds, which no statistic within one run removes.
END_TO_END = [
    Metric("samples_per_s", "samples/s", "higher", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("resume_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

PER_LAYER = [Metric(*m) for m in (
    ("random_states.ginibre_batch.us_per_sample", "us", "lower"),
    ("random_states.state_batch.self_us_per_sample", "us", "lower"),
    ("matrix_core.min_pt_eigenvalue_batch.self_us_per_sample", "us", "lower"),
    ("matrix_core.partial_transpose_batch.us_per_sample", "us", "lower"),
    ("matrix_core.partial_trace_batch.us_per_sample", "us", "lower"),
    ("matrix_core.purity_batch.us_per_sample", "us", "lower"),
    ("invariants.record_batch.self_us_per_sample", "us", "lower"),
    ("invariants.coherence_vectors_batch.us_per_sample", "us", "lower"),
    ("invariants.cubic_casimir_batch.us_per_sample", "us", "lower"),
    ("invariants.fano_correlation_invariant_batch.us_per_sample", "us", "lower"),
    ("stats.HistogramPair.accumulate_many.us_per_sample", "us", "lower"),
    ("stats.JointHistogram.accumulate_many.us_per_sample", "us", "lower"),
    ("stats.merge.ms_per_call", "ms", "lower"),
    ("stats.ratio_with_ci.calls", "count", "lower"),
    ("runner.save_checkpoint.ms_per_call", "ms", "lower"),
    ("runner.save_checkpoint.calls", "count", "lower"),
    ("runner.save_checkpoint.bytes", "bytes", "lower"),
    ("runner.load_checkpoint.ms", "ms", "lower"),
    ("runner.export.ms", "ms", "lower"),
    ("runner.export.bytes", "bytes", "lower"),
    ("runner.assemble_report.ms", "ms", "lower"),
    ("runner.range_stats.self_us_per_sample", "us", "lower"),
    ("runner.pool.wait_s", "s", "lower"),
    ("runner.worker_busy_frac", "fraction", "higher"),
    ("runner.serial_frac", "fraction", "lower"),
    # counts that repeat exactly for a given seed
    ("matrix_core.min_pt_eigenvalue_batch.eigensolves", "count", "lower"),
    # Fixed by the workload and the seed, like the outputs: a change in one
    # of these means the outputs changed, not a gain or a loss, whatever
    # direction it declares.  The gates, not these, judge the outputs.
    ("runner.run_experiment.samples", "count", "higher"),
    ("matrix_core.ppt_frac", "fraction", "higher"),
    ("matrix_core.near_boundary_frac", "fraction", "lower"),
    ("matrix_core.near_boundary.count", "count", "lower"),
    ("stats.out_of_range_frac", "fraction", "lower"),
    ("stats.out_of_range.count", "count", "lower"),
    # computed from the sizes of array arguments and results, not measured
    ("random_states.ginibre_batch.computed_bytes_per_sample", "bytes", "lower"),
    ("random_states.state_batch.computed_bytes_per_sample", "bytes", "lower"),
    ("matrix_core.min_pt_eigenvalue_batch.computed_bytes_per_sample", "bytes", "lower"),
    ("invariants.record_batch.computed_bytes_per_sample", "bytes", "lower"),
    # the tracer's own cost, and the time no layer span covers
    ("trace.samples_per_s_untraced", "samples/s", "higher"),
    ("trace.samples_per_s_traced", "samples/s", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
)]
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}

# span names whose array traffic is reported as computed bytes per sample
COMPUTED_BYTES = ("random_states.ginibre_batch", "random_states.state_batch",
                  "matrix_core.min_pt_eigenvalue_batch", "invariants.record_batch")


def benchmark_spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "sepbench/run.py"],
        "paths": ["sepbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


# ---------------------------------------------------------------- one experiment

@dataclass
class Experiment:
    seed: int
    workers: int
    samples: int = 0
    run_s: float = 0.0        # run_experiment
    wall_s: float = 0.0       # run_experiment + export
    resume_s: float = 0.0     # load_checkpoint + assemble_report + export
    child_cpu_s: float = 0.0  # CPU time of pool workers that ended during the run
    n_ppt: int = 0
    out_of_range: int = 0
    n_hists: int = 0
    csv_digest: str = ""
    failures: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


def experiment_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0] >> 1)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def resume(run_dir: Path, out_dir: Path) -> list[Path]:
    """What `sepprob report` does: re-emit the outputs from the checkpoint."""
    from sepprob import runner

    cfg, state = runner.load_checkpoint(runner.checkpoint_path(run_dir))
    return runner.export(runner.assemble_report(cfg, state), out_dir)


def verify(wl: Workload, exp: Experiment, report, run_files, resumed_files) -> list[str]:
    """Per-experiment gates; the pooled p_hat gate runs once per invocation."""
    from sepprob import invariants, random_states

    run_dir, resumed_dir = Path(run_files[0]).parent, Path(resumed_files[0]).parent
    fails = gates.conservation(report)
    fails += gates.manifest_verifies(run_dir) + gates.manifest_verifies(resumed_dir)
    fails += gates.identical_outputs(run_files, resumed_files)
    idx = np.random.default_rng([exp.seed, 1]).choice(exp.samples, SUBSAMPLE, replace=False)
    measure = random_states.hilbert_schmidt(wl.dims[0] * wl.dims[1])
    states = gates.with_ppt_mixtures(np.concatenate(
        [random_states.state_batch(measure, exp.seed, int(i), 1) for i in idx]))
    fails += gates.ppt_subsample(states, invariants.record_batch(states, wl.dims)["ppt"],
                                 wl.dims)
    return fails


def experiment(wl: Workload, seed: int, workers: int, work: Path,
               traced: bool = False) -> Experiment:
    """One experiment and its gates.  Never raises: an error is a failure.

    Untraced, only the experiment and resume spans are recorded.
    """
    from sepprob import runner

    tracer = Tracer()
    exp = Experiment(seed=seed, workers=workers, samples=wl.samples, tracer=tracer)
    try:
        cfg = runner.ExperimentConfig(
            dim_a=wl.dims[0], dim_b=wl.dims[1], samples=wl.samples, seed=seed,
            bins=wl.bins, workers=workers, checkpoint_every=wl.checkpoint_every,
            out_dir=str(work / "run"))
        with tracer:
            if traced:
                install_spans(tracer, kernel=workers == 1)
            cpu0 = _children_cpu()
            with tracer.span("experiment"):
                t0 = time.perf_counter()
                report = runner.run_experiment(cfg)
                t1 = time.perf_counter()
                run_files = runner.export(report)
                t2 = time.perf_counter()
            exp.child_cpu_s = _children_cpu() - cpu0
            with tracer.span("resume"):
                t3 = time.perf_counter()
                resumed_files = resume(work / "run", work / "resumed")
                t4 = time.perf_counter()
        exp.run_s, exp.wall_s, exp.resume_s = t1 - t0, t2 - t0, t4 - t3
        exp.n_ppt = report.n_ppt
        hists = [*report.hists.values(), report.joint]
        exp.out_of_range = sum(h.out_total for h in hists)
        exp.n_hists = len(hists)
        exp.csv_digest = hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted(run_files) if p.suffix == ".csv")).hexdigest()
        exp.failures = verify(wl, exp, report, run_files, resumed_files)
    except Exception as exc:  # the benchmark reports a failed experiment and goes on
        traceback.print_exc(file=sys.stderr)
        exp.failures = [f"raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in exp.failures:
        print(f"GATE FAILED (seed {seed}, {workers} workers): {msg}", file=sys.stderr)
    return exp


# ---------------------------------------------------------------- tracing

def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    return 0


def _count_bytes(name):
    def on_call(tracer, args, out):
        tracer.counts[f"{name}.computed_bytes"] += _array_bytes(args) + _array_bytes(out)
    return on_call


def _on_min_eig(tracer, args, out):
    from sepprob import matrix_core

    _count_bytes("matrix_core.min_pt_eigenvalue_batch")(tracer, args, out)
    tracer.counts["eigensolves"] += len(out)
    tracer.counts["near_boundary"] += int((np.abs(out) < NEAR_BOUNDARY_MARGIN).sum())
    tracer.counts["ppt"] += int((out >= -matrix_core.PPT_TOL).sum())


def _on_save_checkpoint(tracer, args, path):
    tracer.counts["checkpoint_bytes"] += Path(path).stat().st_size


def _on_export(tracer, args, paths):
    tracer.counts["export_bytes"] += sum(Path(p).stat().st_size for p in paths)


class _WaitTimedFuture:
    """Future proxy whose result() is recorded as a runner.pool.wait span."""

    def __init__(self, future, tracer: Tracer):
        self._future, self._tracer = future, tracer

    def result(self, timeout=None):
        with self._tracer.span("runner.pool.wait"):
            return self._future.result(timeout)


def _wait_timed_pool(tracer: Tracer):
    class WaitTimedPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return _WaitTimedFuture(super().submit(fn, *args, **kwargs), tracer)
    return WaitTimedPool


def install_spans(tracer: Tracer, kernel: bool) -> None:
    """Wrap the package's public functions for the tracer's lifetime.

    ``kernel`` adds the per-sample layers; leave it off when sampling runs
    in pool workers, whose spans would stay in the child processes.
    """
    from sepprob import invariants, matrix_core, random_states, runner, stats

    w = tracer.wrap
    w(runner, "run_experiment", "runner.run_experiment")
    w(runner, "save_checkpoint", "runner.save_checkpoint", _on_save_checkpoint)
    w(runner, "load_checkpoint", "runner.load_checkpoint")
    w(runner, "assemble_report", "runner.assemble_report")
    w(runner, "export", "runner.export", _on_export)
    w(stats.HistogramPair, "merge", "stats.merge")
    w(stats.JointHistogram, "merge", "stats.merge")
    w(stats, "ratio_with_ci", "stats.ratio_with_ci")
    w(runner, "ratio_with_ci", "stats.ratio_with_ci")
    if not kernel:
        tracer.replace(runner, "ProcessPoolExecutor", _wait_timed_pool(tracer))
        return
    # runner imported state_batch and record_batch by name: wrap its copies
    w(runner, "_range_stats", "runner.range_stats")
    w(runner, "state_batch", "random_states.state_batch",
      _count_bytes("random_states.state_batch"))
    w(random_states, "ginibre_batch", "random_states.ginibre_batch",
      _count_bytes("random_states.ginibre_batch"))
    w(runner, "record_batch", "invariants.record_batch",
      _count_bytes("invariants.record_batch"))
    for fn in ("partial_trace_batch", "purity_batch", "partial_transpose_batch"):
        w(matrix_core, fn, f"matrix_core.{fn}")
    w(matrix_core, "min_pt_eigenvalue_batch", "matrix_core.min_pt_eigenvalue_batch",
      _on_min_eig)
    for fn in ("coherence_vectors_batch", "cubic_casimir_batch",
               "fano_correlation_invariant_batch"):
        w(invariants, fn, f"invariants.{fn}")
    w(stats.HistogramPair, "accumulate_many", "stats.HistogramPair.accumulate_many")
    w(stats.JointHistogram, "accumulate_many", "stats.JointHistogram.accumulate_many")


def kernel_metrics(exp: Experiment) -> dict[str, float]:
    """Per-layer figures of one traced one-worker experiment."""
    spans, counts, n = exp.tracer.spans, exp.tracer.counts, exp.samples
    run = layer_totals(spans, root="experiment")
    every = layer_totals(spans)

    def total_us(name):
        return run[name].total_s / n * 1e6 if name in run else 0.0

    def self_us(name):
        return run[name].self_s / n * 1e6 if name in run else 0.0

    def ms_per_call(totals, name):
        t = totals.get(name)
        return t.total_s / t.calls * 1e3 if t else 0.0

    root = run["experiment"]
    unattributed = root.self_s + run["runner.run_experiment"].self_s
    m = {
        "random_states.ginibre_batch.us_per_sample": total_us("random_states.ginibre_batch"),
        "random_states.state_batch.self_us_per_sample": self_us("random_states.state_batch"),
        "matrix_core.min_pt_eigenvalue_batch.self_us_per_sample":
            self_us("matrix_core.min_pt_eigenvalue_batch"),
        "invariants.record_batch.self_us_per_sample": self_us("invariants.record_batch"),
        "runner.range_stats.self_us_per_sample": self_us("runner.range_stats"),
        "stats.merge.ms_per_call": ms_per_call(run, "stats.merge"),
        "stats.ratio_with_ci.calls": run["stats.ratio_with_ci"].calls,
        "runner.save_checkpoint.ms_per_call": ms_per_call(run, "runner.save_checkpoint"),
        "runner.save_checkpoint.calls": run["runner.save_checkpoint"].calls,
        "runner.save_checkpoint.bytes": counts["checkpoint_bytes"],
        "runner.load_checkpoint.ms": ms_per_call(every, "runner.load_checkpoint"),
        "runner.export.ms": ms_per_call(every, "runner.export"),
        "runner.export.bytes": counts["export_bytes"] / every["runner.export"].calls,
        "runner.assemble_report.ms": ms_per_call(every, "runner.assemble_report"),
        "matrix_core.ppt_frac": counts["ppt"] / n,
        "matrix_core.near_boundary_frac": counts["near_boundary"] / n,
        "stats.out_of_range_frac": exp.out_of_range / (n * exp.n_hists),
        "runner.run_experiment.samples": n,
        "matrix_core.min_pt_eigenvalue_batch.eigensolves": counts["eigensolves"],
        "matrix_core.near_boundary.count": counts["near_boundary"],
        "stats.out_of_range.count": exp.out_of_range,
        "trace.unattributed_frac": unattributed / root.total_s,
    }
    for name in ("matrix_core.partial_transpose_batch", "matrix_core.partial_trace_batch",
                 "matrix_core.purity_batch", "invariants.coherence_vectors_batch",
                 "invariants.cubic_casimir_batch",
                 "invariants.fano_correlation_invariant_batch",
                 "stats.HistogramPair.accumulate_many",
                 "stats.JointHistogram.accumulate_many"):
        m[f"{name}.us_per_sample"] = total_us(name)
    for name in COMPUTED_BYTES:
        m[f"{name}.computed_bytes_per_sample"] = counts[f"{name}.computed_bytes"] / n
    return m


# a one-worker run has no pool: nothing waits on one, and all of it is serial
NO_POOL = {"runner.pool.wait_s": 0.0, "runner.worker_busy_frac": 0.0,
           "runner.serial_frac": 1.0}


def pool_metrics(exp: Experiment) -> dict[str, float]:
    """Pool figures of one multi-worker experiment traced at runner level."""
    wait = layer_totals(exp.tracer.spans).get("runner.pool.wait")
    wait_s = wait.total_s if wait else 0.0
    return {"runner.pool.wait_s": wait_s,
            "runner.worker_busy_frac": exp.child_cpu_s / (exp.workers * exp.run_s),
            "runner.serial_frac": 1.0 - wait_s / exp.run_s}


# ---------------------------------------------------------------- set-up

def setup_once(wl: Workload, workers: int) -> float:
    """Seconds from starting a fresh interpreter until it is ready to sample."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
           str(wl.dims[0]), str(wl.dims[1]), str(workers)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def peak_rss_mb() -> float:
    """Largest ru_maxrss of this process and of its waited-for children."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# ---------------------------------------------------------------- environment

def environment(workers: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "cpu": cpu,
            "nproc": available_cpus(), "workers": workers, "git_commit": commit}


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the machine's CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7], sum(ticks)) if len(ticks) > 7 else None


# ---------------------------------------------------------------- the two modes

def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest TRIM share of the values.

    On a shared VM an experiment's times fall on a fast or a slow level,
    which switch every few seconds.  A run's median jumps between the two
    levels as their shares pass one half; a trimmed mean follows the shares
    smoothly and still drops the rare stall.
    """
    v = sorted(values)
    k = int(TRIM * len(v))
    return statistics.fmean(v[k:len(v) - k])


def end_to_end(wl: Workload, seed: int, seconds: float, work: Path, workers: int):
    import setup_probe

    setup = [setup_once(wl, workers) for _ in range(SETUP_PROBES)]
    setup_probe.warm_up(wl.dims)
    exps = []
    deadline = time.perf_counter() + seconds
    while not exps or time.perf_counter() < deadline:
        i = len(exps)
        exps.append(experiment(wl, experiment_seed(seed, i), workers, work / f"e{i}"))
    ok = [e for e in exps if not e.failures]
    series = {"samples_per_s": [e.samples / e.run_s for e in ok],
              "wall_s": [e.wall_s for e in ok],
              "resume_s": [e.resume_s for e in ok]}
    metrics = {name: trimmed_mean(v) for name, v in series.items() if v}
    metrics["setup_s"] = statistics.median(setup)
    for name, values in {**series, "setup_s": setup}.items():
        if values:
            q1, med, q3 = _quartiles(values)
            stat = "median" if name == "setup_s" else f"trimmed mean; median {med:.6g}"
            print(f"{name} = {metrics[name]:.6g} {UNITS[name]} ({stat}, "
                  f"quartiles {q1:.6g}, {q3:.6g}; n={len(values)})")
    metrics["peak_rss_mb"] = peak_rss_mb()
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    return metrics, exps


def traced(wl: Workload, seed: int, seconds: float, work: Path, workers: int):
    import setup_probe

    setup_probe.warm_up(wl.dims)
    plain, kernel, pooled = [], [], []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        i = len(plain)
        s = experiment_seed(seed, i)
        if i % 2:  # alternate which side runs first
            kernel.append(experiment(wl, s, 1, work / f"k{i}", traced=True))
            plain.append(experiment(wl, s, 1, work / f"p{i}"))
        else:
            plain.append(experiment(wl, s, 1, work / f"p{i}"))
            kernel.append(experiment(wl, s, 1, work / f"k{i}", traced=True))
        if workers > 1:
            pooled.append(experiment(wl, s, workers, work / f"w{i}", traced=True))
    exps = plain + kernel + pooled
    ok_kernel = [e for e in kernel if not e.failures]
    if not ok_kernel:
        return {}, exps
    per_exp = [kernel_metrics(e) for e in ok_kernel]
    metrics = {name: statistics.median(m[name] for m in per_exp) for name in per_exp[0]}
    metrics.update({k: v for k, v in per_exp[0].items() if UNITS[k] in ("count", "bytes")})
    pool = [pool_metrics(e) for e in pooled if not e.failures] if workers > 1 else [NO_POOL]
    for name in pool[0] if pool else ():
        metrics[name] = statistics.median(m[name] for m in pool)
    untraced = statistics.median(e.samples / e.run_s for e in plain if not e.failures)
    with_spans = statistics.median(e.samples / e.run_s for e in ok_kernel)
    metrics["trace.samples_per_s_untraced"] = untraced
    metrics["trace.samples_per_s_traced"] = with_spans
    metrics["trace.overhead_frac"] = 1.0 - with_spans / untraced
    return metrics, exps


def determinism(exps: list[Experiment]) -> list[str]:
    """Experiments on the same seed agree, whatever their workers or tracing."""
    seen: dict[int, tuple] = {}
    fails = []
    for e in exps:
        if e.failures:
            continue
        key = (e.samples, e.n_ppt, e.csv_digest)
        if seen.setdefault(e.seed, key) != key:
            fails.append(f"seed {e.seed}: {e.workers}-worker or traced experiment "
                         f"differs from another on the same inputs")
    return fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not 0 <= args.seed < 2 ** 63 or args.seconds <= 0:
        ap.error("need 0 <= --seed < 2**63 and --seconds > 0")
    if not (SRC / "sepprob" / "__init__.py").is_file():
        print(f"error: no sepprob package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sepprob

    if not Path(sepprob.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: sepprob was imported from {sepprob.__file__}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    workers = min(wl.workers, available_cpus())
    print(json.dumps({"env": environment(workers), "workload": wl.name,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    work = ROOT / ".sepbench_work" / str(os.getpid())
    ticks0 = cpu_ticks()
    try:
        mode = traced if args.trace else end_to_end
        metrics, exps = mode(wl, args.seed, args.seconds, work, workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # time the hypervisor gave this machine's vCPUs to others: the main
        # source of run-to-run spread on a shared VM
        print(f"cpu steal during the run = "
              f"{(ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]):.4f} of vCPU time")
    failed = sum(1 for e in exps if e.failures)
    problems = determinism(exps)
    if wl.reference is not None:
        # pooled over distinct inputs: repeated seeds are not new evidence
        counts = {e.seed: (e.n_ppt, e.samples) for e in exps if not e.failures}
        if counts:
            n_ppt = sum(k for k, _ in counts.values())
            n_total = sum(n for _, n in counts.values())
            print(f"p_hat = {n_ppt / n_total:.6g} ({n_ppt} of {n_total} distinct samples; "
                  f"reference {wl.reference[0]:.6g} +/- {wl.reference[1]:.2g})")
            problems += gates.p_hat_within(n_ppt, n_total, *wl.reference)
    for msg in problems:
        print(f"GATE FAILED: {msg}", file=sys.stderr)
    if problems:  # a pooled gate speaks for every experiment in the pool
        failed = len(exps)
    declared = END_TO_END if args.trace == 0 else PER_LAYER
    missing = [m.name for m in declared if m.name not in metrics]
    correct = failed == 0 and not missing
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
    print(f"failed_frac = {failed / len(exps):.6g} ({failed} of {len(exps)} experiments)")
    if args.trace:
        for m in declared:
            if m.name in metrics:
                print(f"{m.name} = {metrics[m.name]:.6g} {m.unit}")
    result = {"correct": correct, "attempted": len(exps), "failed": failed,
              "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                          for m in declared if m.name in metrics}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
