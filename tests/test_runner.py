import base64
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import platform
import re
import signal
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import packed
from sepprob import cli
from sepprob import runner as rn
from sepprob.stats import HistogramPair, encode_histogram


AXIS_CSV_HEADER = "bin_lo,bin_hi,total,hits,p_hat,ci_lo,ci_hi\n"


def small_cfg(tmp_path, **kw):
    base = dict(dim_a=2, dim_b=3, samples=20_000, seed=7,
                out_dir=str(tmp_path / "run"), checkpoint_every=10 ** 7)
    base.update(kw)
    return rn.ExperimentConfig(**base)


def hist_state_dict(report):
    return {lb: encode_histogram(h) for lb, h in report.hists.items()}


def run_interrupted(monkeypatch, cfg, blocks: int) -> None:
    """Run cfg, failing with an injected fault at the save after `blocks`
    checkpoint blocks, which leaves a resumable checkpoint."""
    real = rn.save_checkpoint
    calls = []

    def fail_after_blocks(*args):
        calls.append(args)
        if len(calls) > blocks:
            raise RuntimeError("injected fault")
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(rn, "save_checkpoint", fail_after_blocks)
        with pytest.raises(RuntimeError, match="injected"):
            rn.run_experiment(cfg)


# a two-lane run whose fault comes at the sub-batch [24576, 32768) of lane
# 1, after the checkpoint at 20000 and before lane 1 passes 30000
FAULT_RUN = dict(dim_b=2, samples=45_000, seed=5, checkpoint_every=10_000)
FAULT_AT, FAULT_EDGE = 3 * rn.SUB_BATCH, 20_000


def pool_fault_run(fault: str, out_dir: str) -> None:
    """Run FAULT_RUN on two workers with a fault injected: a lane that
    raises ("raise") or whose worker exits ("exit") at FAULT_AT once the
    checkpoint at FAULT_EDGE is on disk, or a failed third save ("save").
    Prints the error and how many child processes are left; meant for a
    subprocess, since a run that hangs would hang its process."""
    cfg = rn.ExperimentConfig(dim_a=2, workers=2, out_dir=out_dir, **FAULT_RUN)
    real = rn.state_batch

    def faulty(measure, seed, start, count, **kw):
        if start == FAULT_AT:
            ck = rn.checkpoint_path(out_dir)
            deadline = time.monotonic() + 60
            while not (ck.exists() and rn.load_checkpoint(ck)[1].n_total == FAULT_EDGE):
                assert time.monotonic() < deadline, "no checkpoint at FAULT_EDGE"
                time.sleep(0.01)
            if fault == "exit":
                os._exit(3)
            raise RuntimeError("injected lane fault")
        return real(measure, seed, start, count, **kw)

    monkeypatch = pytest.MonkeyPatch()
    error = None
    if fault == "save":
        run_interrupted(monkeypatch, cfg, blocks=2)
        error = "RuntimeError: injected fault"
    else:
        # set before the pool forks, so the lanes inherit it
        monkeypatch.setattr(rn, "state_batch", faulty)
        try:
            rn.run_experiment(cfg)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    print(json.dumps({"error": error, "children": len(multiprocessing.active_children())}))


def without_elapsed(body: bytes) -> bytes:
    """A checkpoint body with its elapsed time, the one value a rerun
    changes, taken out."""
    return re.sub(rb'"elapsed": [^,]*, ', b"", body)


def read_payload(ck) -> dict:
    """The JSON body of a checkpoint file, after its digest line."""
    return json.loads(ck.read_bytes().partition(b"\n")[2])


def with_parent_axes(payload: dict, cfg) -> dict:
    """A checkpoint body in the earlier layout, which stored every histogram's
    axis beside its counts."""
    axes = {lb: asdict(ax) for lb, ax in cfg.axes().items()}
    return {**payload,
            "histograms": {lb: {"axis": axes[lb], **h}
                           for lb, h in payload["histograms"].items()},
            "joint": {"axis_x": axes["r_A"], "axis_y": axes["R_B"], **payload["joint"]}}


def with_next_index(payload: dict) -> dict:
    """A checkpoint body as written before n_total became the resume point:
    the same keys plus next_index, equal to n_total, after config_hash."""
    head = {k: payload[k] for k in ("config", "config_hash")}
    return {**head, "next_index": payload["n_total"], **payload}


def write_parent_format(path, cfg, state):
    """A checkpoint as the earlier format wrote it: one JSON object whose
    "checksum" key is the sha256 of the sorted-key dump of the rest."""
    payload = {"config": cfg.to_dict(), "config_hash": cfg.config_hash(),
               **state.to_dict()}
    payload["checksum"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    path.write_text(json.dumps(payload))


def with_parent_config(payload: dict) -> dict:
    """A checkpoint body as written while the config also held the measure
    name and the symmetrize switch."""
    cfg = payload["config"]
    measure = "hs" if cfg["k"] == cfg["dim_a"] * cfg["dim_b"] else "induced"
    return {**payload, "config": {**cfg, "measure": measure, "symmetrize": False}}


def write_with_digest(path, body: bytes):
    """A checkpoint whose digest line matches the given body."""
    path.write_bytes(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)


def unpacked(text: str) -> list[int]:
    """The integers of one count-codec string."""
    width, _, data = text.partition(":")
    return np.frombuffer(base64.b64decode(data), dtype=f"<{width}").tolist()


@st.composite
def run_states(draw, out_dir):
    """A valid config writing to out_dir and a state with arbitrary counts
    that obey 0 <= hits <= total and n_ppt <= n_total <= samples, and in
    every histogram sum to n_total (totals) and n_ppt (hits)."""
    dim_a, dim_b = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]))
    cfg = rn.ExperimentConfig(
        dim_a=dim_a, dim_b=dim_b, k=draw(st.none() | st.integers(1, 64)),
        samples=draw(st.integers(1, 2 ** 62)), seed=draw(st.integers(0, 2 ** 64 - 1)),
        bins=draw(st.integers(1, 12)), workers=draw(st.integers(1, 64)),
        checkpoint_every=draw(st.integers(1, 2 ** 40)), out_dir=out_dir)
    state = rn.RunState.fresh(cfg)
    state.n_total = draw(st.integers(0, cfg.samples))
    state.n_ppt = draw(st.integers(0, state.n_total))
    state.elapsed = draw(st.floats(0.0, 1e9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    for h in [*state.hists.values(), state.joint]:
        # the PPT and the other samples, each spread over the cells and,
        # last, the overflow
        slots = h.total.size + 1
        hits = rng.multinomial(state.n_ppt, rng.dirichlet(np.ones(slots)))
        total = hits + rng.multinomial(state.n_total - state.n_ppt,
                                       rng.dirichlet(np.ones(slots)))
        h.total[...] = total[:-1].reshape(h.total.shape)
        h.hits[...] = hits[:-1].reshape(h.hits.shape)
        h.out_total, h.out_hits = int(total[-1]), int(hits[-1])
    return cfg, state


@pytest.fixture(scope="module")
def ck_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("checkpoints"))


@pytest.fixture(scope="module")
def whole_range(tmp_path_factory):
    cfg = small_cfg(tmp_path_factory.mktemp("range"), dim_b=2, samples=10 ** 6)
    start, count = 5_000, 3 * rn.SUB_BATCH + 123
    return cfg, start, count, rn._range_stats(cfg, start, count)


@pytest.fixture(scope="module")
def fault_run_outputs(tmp_path_factory):
    """CSVs and checkpoint body (elapsed taken out) of FAULT_RUN run
    straight through, by worker count."""
    outputs = {}
    for workers in (1, 2):
        cfg = rn.ExperimentConfig(dim_a=2, workers=workers, **FAULT_RUN,
                                  out_dir=str(tmp_path_factory.mktemp("straight")))
        rn.export(rn.run_experiment(cfg))
        outputs[workers] = outputs_of(cfg.out_dir)
    return outputs


def outputs_of(out_dir) -> tuple[dict, bytes]:
    """The CSVs of a run directory and its checkpoint body without elapsed
    and with out_dir blanked."""
    csvs = {p.name: p.read_bytes() for p in Path(out_dir).glob("*.csv")}
    body = rn.checkpoint_path(out_dir).read_bytes().partition(b"\n")[2]
    return csvs, without_elapsed(body).replace(json.dumps(str(out_dir)).encode(), b'""')


class TestConfig:
    def test_rejects_zero_samples(self, tmp_path):
        with pytest.raises(rn.ConfigError):
            small_cfg(tmp_path, samples=0)

    def test_rejects_bad_measure(self, tmp_path):
        # k alone names the measure; the retired measure and symmetrize keys
        # are refused, not converted
        for key, value in (("measure", "hs"), ("measure", "bures"), ("symmetrize", False)):
            with pytest.raises(rn.ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
                rn.ExperimentConfig.from_dict({"dim_a": 2, "dim_b": 3, key: value})

    def test_hs_fixes_k(self, tmp_path):
        # k = None is the HS measure, k = dim_a*dim_b; any other k >= 1 is induced
        assert small_cfg(tmp_path).k == 6
        assert small_cfg(tmp_path, k=9).k == 9

    def test_hs_is_induced_with_k_n(self, tmp_path):
        # one measure, one field and one config hash
        hs, k_n = small_cfg(tmp_path), small_cfg(tmp_path, k=6)
        assert hs == k_n and hs.config_hash() == k_n.config_hash()
        assert list(hs.to_dict()) == ["dim_a", "dim_b", "k", "samples", "seed", "bins",
                                      "workers", "checkpoint_every", "out_dir"]

    def test_induced_needs_k(self, tmp_path):
        for k in (0, -1):
            with pytest.raises(rn.ConfigError, match="k must be >= 1"):
                small_cfg(tmp_path, k=k)
        assert small_cfg(tmp_path, k=1).k == 1

    def test_axis_labels_by_shape(self, tmp_path):
        assert list(small_cfg(tmp_path).axes()) == \
            ["r_A", "R_B", "c2_A", "c2_B", "c3_B"]
        assert list(small_cfg(tmp_path, dim_b=2).axes()) == \
            ["r_A", "R_B", "c2_A", "c2_B", "C002"]
        assert list(small_cfg(tmp_path, dim_a=3).axes()) == \
            ["r_A", "R_B", "c2_A", "c2_B", "c3_A", "c3_B"]

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dim_a": 2, "dim_b": 3, "samples": 500,
                                    "seed": 3, "out_dir": str(tmp_path / "o")}))
        cfg = rn.ExperimentConfig.from_file(path, samples=900)
        assert cfg.samples == 900 and cfg.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(rn.ConfigError):
            rn.ExperimentConfig.from_dict({"dim_a": 2, "dim_b": 2, "bogus": 1})

    def test_bins_cap(self, tmp_path):
        small_cfg(tmp_path, bins=rn.MAX_BINS)
        with pytest.raises(rn.ConfigError, match="bins must be in"):
            small_cfg(tmp_path, bins=rn.MAX_BINS + 1)

    def test_workers_cap(self, tmp_path):
        small_cfg(tmp_path, workers=rn.MAX_WORKERS)
        with pytest.raises(rn.ConfigError, match="workers must be in"):
            small_cfg(tmp_path, workers=rn.MAX_WORKERS + 1)

    def test_matrix_size_cap(self, tmp_path):
        # n*max(n, k) bounds the state (n x n) and, through n <= 32, the
        # workspace; k itself adds no memory
        cap = rn.MAX_MATRIX_ENTRIES
        small_cfg(tmp_path, dim_b=2, k=cap // 4)
        for dims, k in (((2, 2), cap // 4 + 1), ((3, 11), 1)):
            with pytest.raises(rn.ConfigError, match="n\\*max\\(n, k\\) must be"):
                small_cfg(tmp_path, dim_a=dims[0], dim_b=dims[1], k=k)

    def test_hash_sensitivity(self, tmp_path):
        a = small_cfg(tmp_path)
        b = small_cfg(tmp_path, seed=8)
        c = small_cfg(tmp_path, workers=4)  # workers do not affect identity
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == c.config_hash()


class TestRunExperiment:
    def test_conservation_and_counts(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rep = rn.run_experiment(cfg)
        assert rep.n_total == cfg.samples
        assert 0 <= rep.n_ppt <= rep.n_total
        for h in rep.hists.values():
            assert int(h.total.sum()) + h.out_total == cfg.samples
        assert rep.joint.total.sum() + rep.joint.out_total == cfg.samples

    def test_joint_marginals_match_axis_hists(self, tmp_path):
        rep = rn.run_experiment(small_cfg(tmp_path))
        assert np.array_equal(rep.joint.total.sum(axis=1), rep.hists["r_A"].total)
        assert np.array_equal(rep.joint.hits.sum(axis=1), rep.hists["r_A"].hits)
        assert np.array_equal(rep.joint.total.sum(axis=0), rep.hists["R_B"].total)

    def test_worker_count_independence(self, tmp_path, monkeypatch):
        # lanes of one sub-batch each, a lane with none, and lanes of two
        # sub-batches with edges inside and between them, also resumed from
        # the save at 3001, off the SUB_BATCH grid
        for samples, workers, every in ((10_000, 2, 10 ** 7), (10_001, 3, 10 ** 7),
                                        (30_000, 2, 3_001), (30_000, 3, 3_001)):
            cfgs = [small_cfg(tmp_path / f"{samples}-{every}-{w}", samples=samples,
                              workers=w, checkpoint_every=every) for w in (1, workers)]
            reps = [rn.run_experiment(c) for c in cfgs]
            if every == 3_001:
                run_interrupted(monkeypatch, cfgs[1], blocks=1)
                _, state = rn.load_checkpoint(rn.checkpoint_path(cfgs[1].out_dir), cfgs[1])
                assert state.n_total == 3_001
                reps.append(rn.run_experiment(cfgs[1], state=state))
            for rep in reps[1:]:
                assert rep.n_ppt == reps[0].n_ppt
                assert hist_state_dict(rep) == hist_state_dict(reps[0])
                assert encode_histogram(rep.joint) == encode_histogram(reps[0].joint)

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(cuts=st.lists(st.integers(5_001, 5_000 + 3 * rn.SUB_BATCH + 122),
                         max_size=4, unique=True))
    def test_range_stats_split_equals_whole(self, whole_range, cuts):
        # an unaligned range whose sub-batches start mid-chunk, cut anywhere
        cfg, start, count, whole = whole_range
        bounds = [start, *sorted(cuts), start + count]
        merged = rn.RunState.fresh(cfg)
        for lo, hi in zip(bounds, bounds[1:]):
            merged.merge(rn._range_stats(cfg, lo, hi - lo))
        assert merged.to_dict() == whole.to_dict()
        for h in merged.hists.values():
            assert int(h.total.sum()) + h.out_total == count

    def test_checkpoint_every_independence(self, tmp_path):
        # blocks that end on, before and after chunk boundaries
        reps = [rn.run_experiment(small_cfg(tmp_path / str(every), samples=10_000,
                                            checkpoint_every=every))
                for every in (10 ** 7, rn.SUB_BATCH, 3_001)]
        for rep in reps[1:]:
            assert rep.n_ppt == reps[0].n_ppt
            assert hist_state_dict(rep) == hist_state_dict(reps[0])
            assert encode_histogram(rep.joint) == encode_histogram(reps[0].joint)

    @pytest.mark.parametrize("every, workers", [
        pytest.param(every, workers, id=f"{every}" + (f"-w{workers}" if workers > 1 else ""))
        for workers in (1, 2, 3) for every in (3_001, rn.SUB_BATCH, 20_000)])
    def test_each_checkpoint_counts_its_prefix(self, tmp_path, monkeypatch, every,
                                               workers):
        # edges inside sub-batches, on their ends, across several of them
        # and, with more lanes, between a lane's sub-batches: each save holds
        # the counts of [0, edge) exactly
        cfg = small_cfg(tmp_path, dim_b=2, samples=45_000, checkpoint_every=every,
                        workers=workers)
        real, saved = rn.save_checkpoint, []

        def keep(c, state):
            saved.append(state.to_dict())
            return real(c, state)

        monkeypatch.setattr(rn, "save_checkpoint", keep)
        rn.run_experiment(cfg)
        edges = [*range(every, cfg.samples, every), cfg.samples]
        assert [d["n_total"] for d in saved] == edges
        no_edges = replace(cfg, checkpoint_every=10 ** 7)
        for d, edge in zip(saved, edges):
            want = rn._range_stats(no_edges, 0, edge).to_dict()
            assert {**d, "elapsed": 0.0} == want

    def test_one_worker_sub_batches_on_the_grid(self, tmp_path, monkeypatch):
        # blocks of 20000 once cut 17 sub-batches, 9 of them short
        cfg = small_cfg(tmp_path, dim_b=2, samples=100_000, checkpoint_every=20_000)
        real, calls = rn.state_batch, []

        def spy(measure, seed, start, count, **kw):
            calls.append((start, count))
            return real(measure, seed, start, count, **kw)

        monkeypatch.setattr(rn, "state_batch", spy)
        rn.run_experiment(cfg)
        assert len(calls) == -(-cfg.samples // rn.SUB_BATCH) == 13
        assert all(start % rn.SUB_BATCH == 0 for start, _ in calls)
        assert [count for _, count in calls[:-1]] == [rn.SUB_BATCH] * 12
        assert calls[-1] == (12 * rn.SUB_BATCH, cfg.samples - 12 * rn.SUB_BATCH)

    def test_lanes_partition_the_grid(self, tmp_path, monkeypatch):
        # three lanes from a resume point off the grid, with edges inside
        # and between their sub-batches, run here one after another
        cfg = small_cfg(tmp_path, dim_b=2, samples=80_000, workers=3,
                        checkpoint_every=7_001)
        start = 5_000
        cuts = [start, *range(rn.SUB_BATCH, cfg.samples, rn.SUB_BATCH), cfg.samples]
        cells = list(zip(cuts, cuts[1:]))
        real, draws = rn.state_batch, []

        def spy(measure, seed, lo, count, **kw):
            draws.append((lo, lo + count))
            return real(measure, seed, lo, count, **kw)

        monkeypatch.setattr(rn, "state_batch", spy)
        merged = rn.RunState.fresh(cfg)
        edges = range(start + 7_001, cfg.samples, 7_001)
        for lane in range(3):
            draws.clear()
            messages = []
            rn._lane(cfg, start, lane, messages.append)
            assert draws == cells[lane::3]
            assert all(lo % rn.SUB_BATCH == 0 for lo, _ in draws if lo != start)
            edges_inside = sum(lo < e < hi for e in edges for lo, hi in draws)
            assert len(messages) <= len(draws) + edges_inside + 1
            assert [m[0] for m in messages] == [lane] * len(messages)
            uptos = [m[1] for m in messages]
            assert uptos == sorted(uptos) and uptos[-1] == cfg.samples
            for _, _, delta in messages:
                # an empty delta is sent as None
                assert delta is None or delta["n_total"] > 0
                if delta is not None:
                    merged.merge(rn.RunState.from_dict(delta, cfg))
        assert merged.to_dict() == rn._range_stats(cfg, start, cfg.samples - start).to_dict()

    @pytest.mark.parametrize("k, b", [(2, 4), (4, 10)])
    def test_induced_qubit_radius_fit(self, tmp_path, k, b):
        # rho_A of an induced 2x3 state is an induced qubit state with ancilla
        # 3k: r^2 (1 - r^2)^(3k - 2); the HS exponent 16 left residuals near 34
        rep = rn.run_experiment(small_cfg(tmp_path, k=k, samples=50_000, seed=3))
        fit = rep.fits["r_A"]
        assert (fit["a"], fit["b"]) == (2, b)
        assert fit["max_rel_residual"] < 0.3

    @pytest.mark.parametrize("shape, k, fitted", [
        ((2, 3), 6, ["r_A", "R_B"]), ((2, 3), 9, ["r_A"]), ((3, 3), None, []),
        ((3, 3), 6, [])], ids=["2x3-k6", "2x3-k9", "3x3-hs", "3x3-k6"])
    def test_qutrit_radius_fit_only_for_its_system(self, tmp_path, shape, k, fitted):
        # the paper's R^7 (1 - R^2)^32 was drawn for the qutrit of the 2x3 HS
        # state; a 3x3 HS run once reported a fit to it, 2x3 induced:6 none
        cfg = small_cfg(tmp_path, dim_a=shape[0], dim_b=shape[1], k=k)
        state = rn.RunState.fresh(cfg)
        for h in state.hists.values():
            h.total[:] = 10 ** 4
        assert list(rn.assemble_report(cfg, state).fits) == fitted

    def test_two_qubit_probability_sane(self, tmp_path):
        rep = rn.run_experiment(small_cfg(tmp_path, dim_b=2, samples=50_000))
        p = rep.overall["wilson_0.95"]["p_hat"]
        assert abs(p - 8 / 33) < 0.015


class TestCheckpointResume:
    def test_interrupted_equals_uninterrupted(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path, samples=30_000, checkpoint_every=10_000)
        run_interrupted(monkeypatch, cfg, blocks=2)
        ck = rn.checkpoint_path(cfg.out_dir)
        _, state = rn.load_checkpoint(ck, cfg)
        assert state.n_total == 20_000
        resumed = rn.run_experiment(cfg, state=state)

        cfg2 = small_cfg(tmp_path / "uninterrupted", samples=30_000,
                         checkpoint_every=10_000)
        straight = rn.run_experiment(cfg2)
        assert resumed.n_ppt == straight.n_ppt
        assert hist_state_dict(resumed) == hist_state_dict(straight)
        assert encode_histogram(resumed.joint) == encode_histogram(straight.joint)

    def test_fault_in_straddling_sub_batch_resumes_identically(self, tmp_path,
                                                               monkeypatch):
        # the third sub-batch, [16384, 24576), straddles the edge at 20000:
        # a fault there leaves the checkpoint at 10000, and the resumed run
        # writes the bytes of a straight one
        cfg = small_cfg(tmp_path, samples=30_000, checkpoint_every=10_000)
        ck = rn.checkpoint_path(cfg.out_dir)
        rn.export(rn.run_experiment(cfg))
        straight = {p.name: p.read_bytes() for p in Path(cfg.out_dir).glob("*.csv")}
        straight_body = without_elapsed(ck.read_bytes().partition(b"\n")[2])
        for p in Path(cfg.out_dir).iterdir():
            p.unlink()

        real, calls = rn.record_batch, []

        def fail_third(*args, **kw):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("injected fault")
            return real(*args, **kw)

        with monkeypatch.context() as m:
            m.setattr(rn, "record_batch", fail_third)
            with pytest.raises(RuntimeError, match="injected"):
                rn.run_experiment(cfg)
        _, state = rn.load_checkpoint(ck, cfg)
        assert state.n_total == 10_000
        rn.export(rn.run_experiment(cfg, state=state))
        resumed = {p.name: p.read_bytes() for p in Path(cfg.out_dir).glob("*.csv")}
        assert sorted(resumed) == sorted(straight)
        for name, data in straight.items():
            assert resumed[name] == data, name
        assert without_elapsed(ck.read_bytes().partition(b"\n")[2]) == straight_body

    @pytest.mark.parametrize("fault, error", [
        ("raise", "RuntimeError: injected lane fault"),
        ("exit", "BrokenProcessPool: "),
        ("save", "RuntimeError: injected fault")], ids=["raise", "exit", "save"])
    def test_pool_fault_ends_run_at_last_edge(self, tmp_path, fault_run_outputs,
                                             fault, error):
        # a lane's error, a dead worker or a failed save in the parent ends a
        # two-lane run with that error and no process left, the checkpoint
        # at the last edge both lanes passed; resuming from it on one or two
        # workers writes the bytes of a straight run
        out = tmp_path / "faulty"
        code = f"import test_runner; test_runner.pool_fault_run({fault!r}, {str(out)!r})"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env,
                              start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=120)
            finally:
                # a run that hangs, its pool workers too
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 0, stderr.decode()
        result = json.loads(stdout.splitlines()[-1])
        assert result["error"].startswith(error) and result["children"] == 0
        ck = rn.checkpoint_path(out)
        cfg, state = rn.load_checkpoint(ck)
        assert state.n_total == FAULT_EDGE
        want = rn._range_stats(cfg, 0, FAULT_EDGE).to_dict()
        assert {**state.to_dict(), "elapsed": 0.0} == want
        saved = ck.read_bytes()
        for workers in (1, 2):
            ck.write_bytes(saved)
            cfg_w = replace(cfg, workers=workers)
            rn.export(rn.run_experiment(cfg_w, state=rn.load_checkpoint(ck, cfg_w)[1]))
            assert outputs_of(out) == fault_run_outputs[workers], workers

    def test_altered_seed_rejected(self, tmp_path):
        cfg = small_cfg(tmp_path, samples=5_000)
        rn.run_experiment(cfg)
        with pytest.raises(rn.ConfigHashMismatch):
            rn.load_checkpoint(rn.checkpoint_path(cfg.out_dir),
                               small_cfg(tmp_path, samples=5_000, seed=99))

    def test_other_stream_version_refused(self, tmp_path, monkeypatch, capsys):
        cfg = small_cfg(tmp_path, samples=4_000, checkpoint_every=2_000)
        with monkeypatch.context() as m:
            m.setattr(rn, "STREAM_VERSION", rn.STREAM_VERSION - 1)
            old_hash = cfg.config_hash()
            run_interrupted(monkeypatch, cfg, blocks=1)
        assert cfg.config_hash() != old_hash
        ck = rn.checkpoint_path(cfg.out_dir)
        with pytest.raises(rn.ConfigHashMismatch, match="another sampling stream"):
            rn.load_checkpoint(ck, cfg)
        with pytest.raises(rn.ConfigHashMismatch):
            rn.load_checkpoint(ck)
        assert cli.main(["sample", "--shape", "2x3", "--samples", "4000", "--seed", "7",
                         "--out", cfg.out_dir, "--resume"]) == 1
        assert "another sampling stream" in capsys.readouterr().err

    def test_corrupt_checkpoint(self, tmp_path):
        cfg = small_cfg(tmp_path, samples=5_000)
        rn.run_experiment(cfg)
        ck = rn.checkpoint_path(cfg.out_dir)
        data = ck.read_bytes()
        pos = data.index(b'"n_ppt": ') + len(b'"n_ppt": ')
        digit = b"8" if data[pos:pos + 1] == b"9" else b"9"
        ck.write_bytes(data[:pos] + digit + data[pos + 1:])
        with pytest.raises(rn.CorruptCheckpoint):
            rn.load_checkpoint(ck)

    def test_parent_format_refused(self, tmp_path):
        cfg = small_cfg(tmp_path, samples=2_000)
        rn.run_experiment(cfg)
        ck = rn.checkpoint_path(cfg.out_dir)
        _, state = rn.load_checkpoint(ck, cfg)
        write_parent_format(ck, cfg, state)
        with pytest.raises(rn.CorruptCheckpoint):
            rn.load_checkpoint(ck)

    def test_one_serialisation_per_save_and_load(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path, samples=2_000)
        rn.run_experiment(cfg)
        _, state = rn.load_checkpoint(rn.checkpoint_path(cfg.out_dir), cfg)
        dumped, loaded = [], []
        dumps, loads = json.dumps, json.loads
        monkeypatch.setattr(json, "dumps", lambda o, **kw: dumped.append(o) or dumps(o, **kw))
        monkeypatch.setattr(json, "loads", lambda b, **kw: loaded.append(b) or loads(b, **kw))
        rn.save_checkpoint(cfg, state)
        rn.load_checkpoint(rn.checkpoint_path(cfg.out_dir), cfg)
        assert sum("histograms" in o for o in dumped) == 1
        assert len(loaded) == 1

    def test_checkpoint_size_follows_occupied_cells(self, tmp_path):
        # the dense form of this run's 500 x 500 joint took 1.52 MB
        cfg = small_cfg(tmp_path, dim_b=2, samples=2_000, bins=500)
        rn.run_experiment(cfg)
        assert rn.checkpoint_path(cfg.out_dir).stat().st_size < 150_000

    def test_nearly_full_joint_smaller_than_dense(self, tmp_path):
        # flat index lists once made such a checkpoint larger than the dense form
        cfg = small_cfg(tmp_path, dim_b=2, samples=100_000, bins=8)
        rn.run_experiment(cfg)
        ck = rn.checkpoint_path(cfg.out_dir)
        payload = read_payload(ck)
        state = rn.load_checkpoint(ck, cfg)[1]
        assert (state.joint.total > 0).mean() >= 0.9

        def dense(d, h):
            sparse = ("index", "total", "hits")
            return {**{k: v for k, v in d.items() if k not in sparse},
                    "total": h.total.ravel().tolist(), "hits": h.hits.ravel().tolist()}

        dense_payload = {**payload, "joint": dense(payload["joint"], state.joint),
                         "histograms": {lb: dense(d, state.hists[lb])
                                        for lb, d in payload["histograms"].items()}}
        # the digest line is 64 hex digits and a newline
        dense_size = 65 + len(json.dumps(dense_payload).encode())
        assert ck.stat().st_size < dense_size

    @pytest.mark.parametrize("damage", ["extra_axis", "missing_axis", "axes_out_of_order"])
    def test_axes_must_match_config(self, tmp_path, capsys, monkeypatch, damage):
        cfg = small_cfg(tmp_path, dim_b=2, samples=4_000, checkpoint_every=2_000)
        run_interrupted(monkeypatch, cfg, blocks=1)
        ck = rn.checkpoint_path(cfg.out_dir)
        payload = read_payload(ck)
        hists = payload["histograms"]
        if damage == "extra_axis":
            hists["extra"] = hists["r_A"]
        elif damage == "missing_axis":
            del hists["C002"]
        else:
            payload["histograms"] = {"R_B": hists.pop("R_B"), **hists}
        write_with_digest(ck, json.dumps(payload).encode())
        with pytest.raises(rn.CorruptCheckpoint, match="histogram axes"):
            rn.load_checkpoint(ck, cfg)
        assert cli.main(["sample", "--shape", "2x2", "--samples", "4000", "--seed", "7",
                         "--checkpoint-every", "2000", "--out", cfg.out_dir,
                         "--resume"]) == 2
        assert "histogram axes" in capsys.readouterr().err

    def test_body_holds_counts_not_axes(self, tmp_path):
        cfg = small_cfg(tmp_path, samples=2_000)
        rn.run_experiment(cfg)
        payload = read_payload(rn.checkpoint_path(cfg.out_dir))
        keys = ["index", "total", "hits", "out_total", "out_hits"]
        assert list(payload["histograms"]) == list(cfg.axes())
        for body in [*payload["histograms"].values(), payload["joint"]]:
            assert list(body) == keys

    def test_parent_layout_resumes_to_identical_files(self, tmp_path, monkeypatch, capsys):
        # a body that also holds each histogram's axis loads with the same
        # counts: keys a histogram body does not use are ignored
        cfg = small_cfg(tmp_path, dim_b=2, samples=6_000, checkpoint_every=2_000, bins=50)
        args = ["sample", "--shape", "2x2", "--samples", "6000", "--seed", "7",
                "--bins", "50", "--checkpoint-every", "2000", "--out", cfg.out_dir]
        out = Path(cfg.out_dir)
        assert cli.main(args) == 0
        straight = {p.name: p.read_bytes() for p in out.iterdir()}

        run_interrupted(monkeypatch, cfg, blocks=1)
        ck = rn.checkpoint_path(cfg.out_dir)
        write_with_digest(ck, json.dumps(with_parent_axes(read_payload(ck), cfg)).encode())
        assert cli.main([*args, "--resume"]) == 0
        assert "resuming from sample index 2000" in capsys.readouterr().out
        resumed = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(resumed) == sorted(straight)
        for name in straight:
            if name.endswith(".csv"):
                assert resumed[name] == straight[name], name
        reports = [json.loads(files["report.json"]) for files in (straight, resumed)]
        for report in reports:
            del report["wall_time"], report["samples_per_sec"]
        assert reports[0] == reports[1]

        # re-exporting a finished run from the earlier layout changes no byte
        write_with_digest(ck, json.dumps(with_parent_axes(read_payload(ck), cfg)).encode())
        assert cli.main(["report", "--in", cfg.out_dir, "--out", str(tmp_path / "re")]) == 0
        for name, data in resumed.items():
            if name != "checkpoint.json":
                assert (tmp_path / "re" / name).read_bytes() == data, name

    def test_next_index_body_resumes_to_identical_files(self, tmp_path, monkeypatch,
                                                        capsys):
        # bodies written before n_total became the resume point also hold
        # next_index; it is never read
        cfg = small_cfg(tmp_path, dim_b=2, samples=6_000, checkpoint_every=2_000, bins=50)
        args = ["sample", "--shape", "2x2", "--samples", "6000", "--seed", "7",
                "--bins", "50", "--checkpoint-every", "2000", "--out", cfg.out_dir]
        out = Path(cfg.out_dir)
        assert cli.main(args) == 0
        straight = {p.name: p.read_bytes() for p in out.iterdir()}
        ck = rn.checkpoint_path(cfg.out_dir)
        assert "next_index" not in read_payload(ck)

        run_interrupted(monkeypatch, cfg, blocks=1)
        write_with_digest(ck, json.dumps(with_next_index(read_payload(ck))).encode())
        assert cli.main([*args, "--resume"]) == 0
        assert "resuming from sample index 2000" in capsys.readouterr().out
        resumed = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(resumed) == sorted(straight)
        for name in straight:
            if name.endswith(".csv"):
                assert resumed[name] == straight[name], name
        reports = [json.loads(files["report.json"]) for files in (straight, resumed)]
        for report in reports:
            del report["wall_time"], report["samples_per_sec"]
        assert reports[0] == reports[1]

        write_with_digest(ck, json.dumps(with_next_index(read_payload(ck))).encode())
        assert cli.main(["report", "--in", cfg.out_dir, "--out", str(tmp_path / "re")]) == 0
        for name, data in resumed.items():
            if name != "checkpoint.json":
                assert (tmp_path / "re" / name).read_bytes() == data, name

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_checkpoint_roundtrip_property(self, ck_dir, data):
        cfg, state = data.draw(run_states(ck_dir))
        back_cfg, back = rn.load_checkpoint(rn.save_checkpoint(cfg, state), cfg)
        assert back_cfg == cfg
        assert back.to_dict() == state.to_dict()

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_damaged_checkpoint_property(self, ck_dir, data):
        # any single flipped byte, or any cut, fails the digest
        cfg, state = data.draw(run_states(ck_dir))
        path = rn.save_checkpoint(cfg, state)
        blob = path.read_bytes()
        pos = data.draw(st.integers(0, len(blob) - 1))
        if data.draw(st.booleans()):
            flip = data.draw(st.integers(1, 255))
            path.write_bytes(blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:])
        else:
            path.write_bytes(blob[:pos])
        with pytest.raises(rn.CorruptCheckpoint):
            rn.load_checkpoint(path)

    def test_failed_block_leaves_resumable_checkpoint(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path, samples=30_000, checkpoint_every=10_000)
        run_interrupted(monkeypatch, cfg, blocks=1)
        _, state = rn.load_checkpoint(rn.checkpoint_path(cfg.out_dir), cfg)
        assert state.n_total == 10_000
        resumed = rn.run_experiment(cfg, state=state)

        straight = rn.run_experiment(small_cfg(tmp_path / "straight", samples=30_000,
                                               checkpoint_every=10_000))
        assert resumed.n_ppt == straight.n_ppt
        assert hist_state_dict(resumed) == hist_state_dict(straight)
        assert encode_histogram(resumed.joint) == encode_histogram(straight.joint)

    def test_resume_of_completed_run(self, tmp_path):
        cfg = small_cfg(tmp_path, samples=5_000)
        first = rn.run_experiment(cfg)
        _, state = rn.load_checkpoint(rn.checkpoint_path(cfg.out_dir), cfg)
        again = rn.run_experiment(cfg, state=state)
        assert again.n_total == first.n_total == 5_000
        assert hist_state_dict(again) == hist_state_dict(first)


class TestExport:
    def test_qubit_qutrit_files(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rep = rn.run_experiment(cfg)
        rn.export(rep)
        out = tmp_path / "run"
        for name in ("report.json", "r_A.csv", "R_B.csv", "c2_A.csv",
                     "c2_B.csv", "c3_B.csv", "joint_r_R.csv", "MANIFEST"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["n_total"] == cfg.samples
        assert report["config_hash"] == cfg.config_hash()
        assert report["stream_version"] == rn.STREAM_VERSION
        software = report["software"]
        assert sorted(software) == ["blas", "cpus", "numpy", "python"]
        assert software["cpus"] == (len(os.sched_getaffinity(0))
                                    if hasattr(os, "sched_getaffinity") else os.cpu_count())
        assert software["python"] == platform.python_version()
        assert software["numpy"] == np.__version__
        assert isinstance(software["blas"], str) and software["blas"]

    def test_cpus_without_sched_getaffinity(self, tmp_path, monkeypatch):
        # os.sched_getaffinity exists only on Linux; elsewhere every report
        # once ended in an AttributeError
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert rn.software_stack()["cpus"] == os.cpu_count()
        cfg = small_cfg(tmp_path, samples=1_000)
        assert cli.main(["sample", "--shape", "2x3", "--samples", "1000", "--seed", "7",
                         "--out", cfg.out_dir]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["software"]["cpus"] == os.cpu_count()

    def test_manifest_checksums(self, tmp_path):
        cfg = small_cfg(tmp_path, samples=2_000)
        rn.export(rn.run_experiment(cfg))
        out = tmp_path / "run"
        for line in (out / "MANIFEST").read_text().splitlines():
            digest, name = line.split()
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_joint_export_counts_each_sample_once(self, tmp_path):
        # joint_r_R.csv of a square shape was once written as J + J^T, which
        # counts every sample twice
        cfg = small_cfg(tmp_path, dim_a=3, dim_b=3, samples=4_000)
        rep = rn.run_experiment(cfg)
        rn.export(rep)
        out = tmp_path / "run"
        lines = (out / "joint_r_R.csv").read_text().splitlines()
        out_total = int(lines[1].split()[1].removeprefix("out_total="))
        assert sum(int(ln.split(",")[2]) for ln in lines[3:]) + out_total == cfg.samples
        joint = out / "joint.csv"
        rep.joint.to_csv(joint)
        assert (out / "joint_r_R.csv").read_bytes() == joint.read_bytes()
        assert not (out / "R_sym.csv").exists()

    @pytest.mark.parametrize("bins", [1, 100, rn.MAX_BINS])
    @pytest.mark.parametrize("shape", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_every_axis_csv_loads(self, tmp_path, rng, shape, bins):
        # counts in every axis and overflow, on every bin edge an export writes
        cfg = small_cfg(tmp_path, dim_a=shape[0], dim_b=shape[1], bins=bins)
        state = rn.RunState.fresh(cfg)
        n = 3_000
        ppt = rng.random(n) < 0.3
        for h in state.hists.values():
            lo, hi = h.axis.lo, h.axis.hi
            h.accumulate_many(np.concatenate([rng.uniform(lo - 0.1, hi + 0.1, n - 2 - bins),
                                              h.axis.edges()[:-1], [lo, hi]]), ppt)
        state.n_total, state.n_ppt = n, int(ppt.sum())
        names = {p.name for p in rn.export(rn.assemble_report(cfg, state))}
        expected = {f"{lb}.csv": h for lb, h in state.hists.items()}
        assert names == {*expected, "report.json", "joint_r_R.csv", "MANIFEST"}
        for name, h in expected.items():
            back = HistogramPair.from_csv(Path(cfg.out_dir) / name)
            assert back.axis == h.axis, name
            assert np.array_equal(back.total, h.total) and np.array_equal(back.hits, h.hits)
            assert (back.out_total, back.out_hits) == (h.out_total, h.out_hits)

    def test_creates_missing_out_dir(self, tmp_path):
        cfg = small_cfg(tmp_path, samples=1_000,
                        out_dir=str(tmp_path / "deep" / "nested"))
        rn.export(rn.run_experiment(cfg))
        assert (tmp_path / "deep" / "nested" / "report.json").exists()


class TestCli:
    def test_formula_subcommand(self, capsys):
        assert cli.main(["formula", "--alpha", "1"]) == 0
        out = capsys.readouterr().out
        assert "0.24242424242424" in out

    def test_formula_underflow(self, capsys):
        assert cli.main(["formula", "--alpha", "1000"]) == 0
        assert "P(1000) = 0  (1 terms)  (underflows the double range)" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("args, underflows", [
        (["--alpha", "805", "--tol", "1e-30"], False), (["--alpha", "1e200"], True),
        (["--alpha", "1e308"], True), (["--alpha", "1.7976931348623157e308"], True)],
        ids=["tol_underflows", "q_poly_overflows", "lgamma_overflows", "float_max"])
    def test_formula_extreme_input(self, capsys, args, underflows):
        # each of these once ended in a traceback
        assert cli.main(["formula", *args]) == 0
        out = capsys.readouterr().out
        value = float(out.split(" = ")[1].split()[0])
        assert math.isfinite(value) and (value == 0.0) == underflows
        assert out.endswith("  (underflows the double range)\n") == underflows

    def test_formula_bad_alpha(self, capsys):
        assert cli.main(["formula", "--alpha", "-2"]) == 1

    @pytest.mark.parametrize("args", [
        ["--alpha", "nan"], ["--alpha", "inf"],
        ["--alpha", "1", "--tol", "nan"], ["--alpha", "1", "--tol", "inf"]],
        ids=["alpha_nan", "alpha_inf", "tol_nan", "tol_inf"])
    def test_formula_non_finite_exit_code(self, capsys, args):
        assert cli.main(["formula", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", [
        "", AXIS_CSV_HEADER, AXIS_CSV_HEADER + "0,0.5\n",
        AXIS_CSV_HEADER + "0,0.5,20,100,5,1,1\n0.5,1,20,5,0.25,0.1,0.5\n",
        AXIS_CSV_HEADER + "0,0.5,-20,0,,,\n0.5,1,20,5,0.25,0.1,0.5\n",
        "# out_total=3 out_hits=4\n" + AXIS_CSV_HEADER
        + "0,0.5,20,5,0.25,0.1,0.5\n0.5,1,20,5,0.25,0.1,0.5\n",
        AXIS_CSV_HEADER + "0,0.25,20,5,0.25,0.1,0.5\n0.75,1,20,5,0.25,0.1,0.5\n",
        AXIS_CSV_HEADER + "0,0.4,20,5,0.25,0.1,0.5\n0.4,1,20,5,0.25,0.1,0.5\n"],
        ids=["empty", "header_only", "short_row", "hits_above_total", "negative_total",
             "out_hits_above_total", "gap", "uneven_edges"])
    def test_analyze_malformed_csv_exit_code(self, tmp_path, capsys, text):
        # the count cases once parsed and printed a chi-square result, exit 0
        (tmp_path / "r_A.csv").write_text(text)
        assert cli.main(["analyze", "--in", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed axis CSV") and "r_A.csv" in err

    @pytest.mark.parametrize("min_total", ["0", "-5"])
    def test_analyze_min_total_below_one_exit_code(self, tmp_path, capsys, min_total):
        # empty bins in the chi-square sum once printed chi2=nan and exited 0
        cfg = small_cfg(tmp_path, samples=3_000)
        rn.export(rn.run_experiment(cfg))
        assert cli.main(["analyze", "--in", cfg.out_dir,
                         "--flatness-min-total", min_total]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "min_total" in captured.err
        assert "nan" not in captured.out

    def test_sample_analyze_report_cycle(self, tmp_path, capsys):
        out = str(tmp_path / "cli_run")
        rc = cli.main(["sample", "--shape", "2x3", "--measure", "hs",
                       "--samples", "20000", "--seed", "11", "--out", out])
        assert rc == 0
        assert "n_total=20000" in capsys.readouterr().out

        rc = cli.main(["analyze", "--in", out, "--flatness-min-total", "200",
                       "--fit", "2,16,0,1", "--axis", "r_A"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "r_A.csv" in text and "max_rel_residual" in text

        rc = cli.main(["report", "--in", out, "--out", str(tmp_path / "re")])
        assert rc == 0
        names = sorted(p.name for p in (tmp_path / "re").iterdir())
        assert "report.json" in names
        for name in names:
            assert (tmp_path / "re" / name).read_bytes() == \
                (tmp_path / "cli_run" / name).read_bytes(), name

    def test_sample_resume_cli(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "resume_run")
        cfg = rn.ExperimentConfig(dim_a=2, dim_b=2, samples=10_000, seed=3,
                                  out_dir=out, checkpoint_every=4_000)
        run_interrupted(monkeypatch, cfg, blocks=1)
        rc = cli.main(["sample", "--shape", "2x2", "--samples", "10000",
                       "--seed", "3", "--out", out, "--checkpoint-every",
                       "4000", "--resume"])
        assert rc == 0
        assert "resuming from sample index 4000" in capsys.readouterr().out

    def test_resume_without_checkpoint_says_so(self, tmp_path, capsys):
        out = tmp_path / "fresh_run"
        rc = cli.main(["sample", "--shape", "2x2", "--samples", "2000",
                       "--seed", "3", "--out", str(out), "--resume"])
        assert rc == 0
        assert f"no checkpoint in {out}; starting at sample 0" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_out_of_range_exit_code(self, tmp_path, capsys, seed):
        assert cli.main(["sample", "--shape", "2x2", "--samples", "10",
                         "--seed", seed, "--out", str(tmp_path / "s")]) == 1
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        rn.ExperimentConfig(dim_a=2, dim_b=2, seed=2 ** 64 - 1)

    @pytest.mark.parametrize("args, message", [
        (["--workers", str(rn.MAX_WORKERS + 1)], "workers must be in"),
        (["--measure", f"induced:{rn.MAX_MATRIX_ENTRIES // 4 + 1}"], "n*max(n, k) must be")],
        ids=["workers", "matrix_size"])
    def test_cap_exit_code(self, tmp_path, capsys, monkeypatch, args, message):
        def refuse(*a, **kw):
            raise AssertionError("a refused config reached the sampler")
        monkeypatch.setattr(rn, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(rn, "state_batch", refuse)
        assert cli.main(["sample", "--shape", "2x2", "--samples", "10",
                         "--out", str(tmp_path / "c"), *args]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_validation_error_exit_code(self, tmp_path):
        assert cli.main(["sample", "--shape", "nope", "--samples", "10",
                        "--out", str(tmp_path / "x")]) == 1
        assert cli.main(["sample", "--samples", "10",
                        "--out", str(tmp_path / "y")]) == 1

    @pytest.mark.parametrize("args, message", [
        (["--shape", "2x2", "--measure", "induced:x"], "measure must be 'hs' or 'induced:K'"),
        (["--shape", "2x2", "--measure", "foo"], "measure must be 'hs' or 'induced:K'"),
        (["--shape", "1x1"], "invalid shape 1x1"),
        (["--shape", "2x2", "--checkpoint-every", "0"], "checkpoint_every must be >= 1"),
        ([], "missing config keys: ['dim_a', 'dim_b']")],
        ids=["induced_not_int", "unknown_measure", "shape_1x1", "checkpoint_every_0",
             "no_shape_or_config"])
    def test_sample_refusal_exit_code(self, tmp_path, capsys, args, message):
        assert cli.main(["sample", "--samples", "10", "--out", str(tmp_path / "r"),
                         *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "r").exists()

    def test_analyze_without_axis_csvs_exit_code(self, tmp_path, capsys):
        (tmp_path / "joint_r_R.csv").write_text("xbin,ybin,total,hits\n")
        assert cli.main(["analyze", "--in", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: no axis CSV files found in {tmp_path}\n"

    def test_analyze_bad_fit_exit_code(self, tmp_path, capsys):
        # 3000 samples leave every bin below the default 1000 needed for flatness
        cfg = small_cfg(tmp_path, samples=3_000)
        rn.export(rn.run_experiment(cfg))
        assert cli.main(["analyze", "--in", cfg.out_dir, "--fit", "1,2,3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --fit expects a,b,lo,hi\n"
        assert "r_A.csv: flatness test skipped (need at least 2 bins with " \
            "total >= min_total)" in captured.out

    def test_io_error_exit_code(self, tmp_path):
        assert cli.main(["report", "--in", str(tmp_path / "missing")]) == 2

    @pytest.mark.parametrize("damage", ["truncated", "flipped", "parent_format",
                                        "empty_object", "non_object", "not_json",
                                        "no_joint", "dense_joint", "unequal_lengths",
                                        "index_past_cells", "repeated_index",
                                        "decreasing_index", "string_n_ppt",
                                        "bool_n_total", "n_ppt_above_total",
                                        "negative_elapsed", "negative_total",
                                        "hits_above_total", "out_hits_above_total",
                                        "list_joint", "counts_not_n_total",
                                        "hits_not_n_ppt", "counts_wrap",
                                        "deep_nesting"])
    def test_damaged_checkpoint_exit_code(self, tmp_path, capsys, damage):
        cfg = small_cfg(tmp_path, samples=2_000)
        rn.run_experiment(cfg)
        ck = rn.checkpoint_path(cfg.out_dir)
        data = ck.read_bytes()
        body = data.partition(b"\n")[2]
        state = rn.load_checkpoint(ck)[1]
        payload = json.loads(body)
        joint = payload["joint"]
        index, total, hits = (unpacked(joint[k]) for k in ("index", "total", "hits"))

        def with_joint(**changes):
            changed = {k: v for k, v in {**joint, **changes}.items() if v is not None}
            return json.dumps({**payload, "joint": changed}).encode()

        def with_top(**changes):
            return json.dumps({**payload, **changes}).encode()

        bodies = {"empty_object": b"{}", "non_object": b"[1, 2]",
                  "not_json": body[:-1],
                  "no_joint": body.replace(b'"joint"', b'"jointX"'),
                  # the joint as the earlier dense format wrote it
                  "dense_joint": with_joint(index=None,
                                            total=state.joint.total.ravel().tolist(),
                                            hits=state.joint.hits.ravel().tolist()),
                  # the joint as the earlier sparse format wrote it: plain lists
                  "list_joint": with_joint(index=index, total=total, hits=hits),
                  "unequal_lengths": with_joint(hits=packed(hits[:-1])),
                  "index_past_cells": with_joint(index=packed(index[:-1] + [cfg.bins ** 2])),
                  "repeated_index": with_joint(index=packed([index[0], *index[:-1]])),
                  "decreasing_index": with_joint(
                      index=packed([index[1], index[0], *index[2:]])),
                  "string_n_ppt": with_top(n_ppt=str(payload["n_ppt"])),
                  "bool_n_total": with_top(n_total=True, n_ppt=0),
                  "n_ppt_above_total": with_top(n_ppt=payload["n_total"] + 1),
                  "negative_elapsed": with_top(elapsed=-1.0),
                  # a u8 value past the int64 range, -1 if read as signed
                  "negative_total": with_joint(total=packed([2 ** 64 - 1, *total[1:]])),
                  "hits_above_total": with_joint(hits=packed([total[0] + 1, *hits[1:]])),
                  "out_hits_above_total": with_joint(out_hits=joint["out_total"] + 1),
                  # the histograms still count every sample of the run
                  "counts_not_n_total": with_top(n_total=payload["n_total"] - 1),
                  "hits_not_n_ppt": with_top(n_ppt=payload["n_ppt"] - 1),
                  # cells summing to 2**64 more than n_total, which an int64
                  # or a uint64 sum would wrap back to n_total
                  "counts_wrap": with_joint(total=packed(
                      [2 ** 63 - 1, 2 ** 63 - 1, sum(total[:3]) + 2, *total[3:]])),
                  # past the JSON parser's recursion limit
                  "deep_nesting": b"[" * 200_000 + b"]" * 200_000}
        if damage == "truncated":
            ck.write_bytes(data[:-1])
        elif damage == "flipped":
            ck.write_bytes(data[:100] + bytes([data[100] ^ 1]) + data[101:])
        elif damage == "parent_format":
            write_parent_format(ck, cfg, state)
        else:
            write_with_digest(ck, bodies[damage])
        assert cli.main(["report", "--in", cfg.out_dir]) == 2
        err = capsys.readouterr().err
        assert ("unreadable checkpoint body" if damage in bodies
                else "checksum mismatch") in err

    def test_truncated_config_exit_code(self, tmp_path, capsys):
        # malformed JSON in a config is a validation error, not an I/O one
        path = tmp_path / "cfg.json"
        path.write_text('{"dim_a": 2, "dim_b": ')
        assert cli.main(["sample", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_deeply_nested_config_exit_code(self, tmp_path, capsys):
        # past the JSON parser's recursion limit
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["sample", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: config {path} nests too deeply to parse\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--no-such-flag"],
        # argparse reads a value that starts with '-' as a flag
        ["analyze", "--in", ".", "--fit", "-5,16,0,1"],
        # a flag of an earlier format
        ["sample", "--shape", "3x3", "--symmetrize"]],
        ids=["unknown_flag", "dash_value", "retired_symmetrize"])
    def test_usage_error_exit_code(self, capsys, argv):
        # argparse's own exit: 2, like an I/O error, with usage on stderr
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: sepprob")

    @pytest.mark.parametrize("config", [
        {"dim_a": "2", "dim_b": 3}, {"dim_a": 2, "dim_b": 3, "samples": 100.5},
        [1, 2], {"dim_a": 2, "dim_b": 3, "seed": 1.5}, {"dim_b": 3}, {}])
    def test_config_type_error_exit_code(self, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["sample", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_hs_and_induced_n_are_one_run(self, tmp_path, capsys):
        # --measure hs and induced:6 once wrote two config hashes and two fits
        runs = {}
        for measure in ("hs", "induced:6"):
            out = tmp_path / measure.replace(":", "")
            assert cli.main(["sample", "--shape", "2x3", "--measure", measure,
                             "--samples", "20000", "--seed", "9", "--out", str(out)]) == 0
            runs[measure] = {p.name: p.read_bytes() for p in out.iterdir()}
        hs, k6 = runs.values()
        assert sorted(hs) == sorted(k6)
        for name in hs:
            if name.endswith(".csv"):
                assert hs[name] == k6[name], name
        reports = [json.loads(files["report.json"]) for files in (hs, k6)]
        for report in reports:
            del report["wall_time"], report["samples_per_sec"], report["config"]["out_dir"]
        assert reports[0] == reports[1]
        assert list(reports[0]["fits"]) == ["r_A", "R_B"]

    def test_measure_flag_wins_over_config_k(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dim_a": 2, "dim_b": 3, "k": 9, "samples": 1000}))
        for flags, k in (([], 9), (["--measure", "hs"], 6), (["--measure", "induced:4"], 4)):
            out = tmp_path / f"k{k}"
            assert cli.main(["sample", "--config", str(path), "--out", str(out), *flags]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["config"]["k"] == k
            assert report["config_hash"] == rn.ExperimentConfig(
                dim_a=2, dim_b=3, k=k, samples=1000).config_hash()

    def test_measure_hs_replaces_an_invalid_config_k(self, tmp_path, capsys):
        # the flag was once applied after the file's own k had been refused
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dim_a": 2, "dim_b": 3, "k": 0}))
        hashes = []
        for name, flags in (("file", ["--config", str(path)]), ("plain", ["--shape", "2x3"])):
            out = tmp_path / name
            assert cli.main(["sample", *flags, "--measure", "hs", "--samples", "1000",
                             "--out", str(out)]) == 0
            hashes.append(json.loads((out / "report.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1] == rn.ExperimentConfig(
            dim_a=2, dim_b=3, samples=1000).config_hash()

    def test_progress_into_a_closed_pipe(self, tmp_path):
        # `sepprob sample ... | head -1`: the reader goes after one progress
        # line, and the run still reaches its end, checkpoint and export
        out = tmp_path / "piped"
        argv = [sys.executable, "-m", "sepprob.cli", "sample", "--shape", "2x2",
                "--samples", "100000", "--checkpoint-every", "20000", "--seed", "3",
                "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline().startswith(b"  20000/100000 samples")
            proc.stdout.close()
            _, err = proc.communicate(timeout=300)
        assert (proc.returncode, err) == (0, b"")
        _, state = rn.load_checkpoint(rn.checkpoint_path(out))
        assert state.n_total == 100_000
        for line in (out / "MANIFEST").read_text().splitlines():
            digest, name = line.split("  ")
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("key, value", [("measure", "hs"), ("symmetrize", False)])
    def test_retired_config_key_exit_code(self, tmp_path, capsys, key, value):
        # a config file of the earlier format: no conversion, no traceback
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dim_a": 2, "dim_b": 3, key: value}))
        assert cli.main(["sample", "--config", str(path), "--samples", "10",
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"
        assert not (tmp_path / "o").exists()

    def test_retired_config_checkpoint_exit_code(self, tmp_path, monkeypatch, capsys):
        cfg = small_cfg(tmp_path, samples=4_000, checkpoint_every=2_000)
        run_interrupted(monkeypatch, cfg, blocks=1)
        ck = rn.checkpoint_path(cfg.out_dir)
        write_with_digest(ck, json.dumps(with_parent_config(read_payload(ck))).encode())
        message = "unknown config keys: ['measure', 'symmetrize']"
        assert cli.main(["report", "--in", cfg.out_dir]) == 2
        assert message in capsys.readouterr().err
        assert cli.main(["sample", "--shape", "2x3", "--samples", "4000", "--seed", "7",
                         "--checkpoint-every", "2000", "--out", cfg.out_dir,
                         "--resume"]) == 2
        assert message in capsys.readouterr().err
        assert not (Path(cfg.out_dir) / "report.json").exists()

    def test_induced_measure_parse(self, tmp_path, capsys):
        out = str(tmp_path / "ind")
        rc = cli.main(["sample", "--shape", "2x3", "--measure", "induced:9",
                       "--samples", "5000", "--seed", "1", "--out", out])
        assert rc == 0
        report = json.loads((tmp_path / "ind" / "report.json").read_text())
        assert "measure" not in report["config"]
        assert report["config"]["k"] == 9
