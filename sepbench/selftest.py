#!/usr/bin/env python3
"""Self-tests of the benchmark's gates, span arithmetic and declarations.

    python3 sepbench/selftest.py

Run from the root of a source checkout (the package is imported from
./src).  Takes a few seconds; writes only under ./.sepbench_work.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import types
import unittest

import run  # sets the BLAS thread count before numpy loads

import numpy as np

import gates
from spans import Span, Tracer, layer_totals, self_times

sys.path.insert(0, str(run.SRC))

from sepprob import invariants, random_states, runner  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY = run.Workload("tiny-2x2", (2, 2), 1, 20, 4000, 1000, (8 / 33, 0.0), "self-test")


class Declarations(unittest.TestCase):
    def test_names_units_and_whys(self):
        names = [w.name for w in run.WORKLOADS.values()]
        names += [m.name for m in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(NAME.fullmatch(name), name)
        for m in run.END_TO_END + run.PER_LAYER:
            self.assertTrue(UNIT.fullmatch(m.unit), m.unit)
            self.assertIn(m.better, ("higher", "lower"))
        for m in run.END_TO_END:
            self.assertTrue(0 < m.bound <= 0.25, m.name)
        setup = next(m for m in run.END_TO_END if m.name == "setup_s")
        self.assertEqual((setup.unit, setup.better), ("s", "lower"))
        self.assertEqual(setup.bound, max(m.bound for m in run.END_TO_END))
        for w in run.WORKLOADS.values():
            self.assertLessEqual(len(w.why), 200)
            self.assertNotIn("\n", w.why)

    def test_benchmark_json_is_current(self):
        on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(on_disk, run.benchmark_spec())


class Statistics(unittest.TestCase):
    def test_trimmed_mean_drops_a_stall(self):
        self.assertEqual(run.trimmed_mean([1.0] * 9 + [100.0]), 1.0)
        self.assertEqual(run.trimmed_mean([2.0, 4.0]), 3.0)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_on_a_synthetic_nested_trace(self):
        # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,6]
        clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
        tr = Tracer(clock=lambda: next(clock))
        with tr.span("root"):
            with tr.span("a"):
                with tr.span("a1"):
                    pass
            with tr.span("b"):
                pass
        self.assertEqual([s.name for s in tr.spans], ["root", "a", "a1", "b"])
        self.assertEqual(self_times(tr.spans), [6.0, 2.0, 1.0, 1.0])
        totals = layer_totals(tr.spans)
        self.assertEqual((totals["a"].calls, totals["a"].total_s, totals["a"].self_s),
                         (1, 3.0, 2.0))

    def test_root_filter(self):
        spans = [Span("experiment", 0.0, 4.0, None), Span("f", 1.0, 2.0, 0),
                 Span("resume", 5.0, 9.0, None), Span("f", 6.0, 9.0, 2)]
        self.assertEqual(layer_totals(spans, root="experiment")["f"].total_s, 1.0)
        self.assertEqual(layer_totals(spans)["f"].calls, 2)

    def test_wrap_is_undone_after_an_error(self):
        mod = types.SimpleNamespace(f=lambda x: x + 1)
        orig = mod.f
        with self.assertRaises(ZeroDivisionError):
            with Tracer() as tr:
                tr.wrap(mod, "f", "mod.f")
                self.assertEqual(mod.f(1), 2)
                1 / 0
        self.assertIs(mod.f, orig)
        self.assertEqual([s.name for s in tr.spans], ["mod.f"])


class Gates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = run.ROOT / ".sepbench_work" / f"selftest-{os.getpid()}"
        cfg = runner.ExperimentConfig(dim_a=2, dim_b=2, samples=TINY.samples, seed=11,
                                      bins=TINY.bins, checkpoint_every=TINY.checkpoint_every,
                                      out_dir=str(cls.work / "run"))
        cls.report = runner.run_experiment(cfg)
        cls.run_files = runner.export(cls.report)
        cls.resumed_files = run.resume(cls.work / "run", cls.work / "resumed")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)
        try:
            cls.work.parent.rmdir()
        except OSError:
            pass

    def test_clean_run_passes(self):
        self.assertEqual(gates.conservation(self.report), [])
        self.assertEqual(gates.manifest_verifies(self.work / "run"), [])
        self.assertEqual(gates.identical_outputs(self.run_files, self.resumed_files), [])

    def test_off_by_one_hit_count_is_rejected(self):
        h = self.report.hists["r_A"]
        h.hits[np.argmax(h.hits)] += 1
        try:
            self.assertTrue(gates.conservation(self.report))
        finally:
            h.hits[np.argmax(h.hits)] -= 1
        self.report.n_ppt += 1
        try:
            self.assertTrue(gates.conservation(self.report))
        finally:
            self.report.n_ppt -= 1

    def test_tampered_reemit_is_rejected(self):
        work = self.work / "tampered"
        files = run.resume(self.work / "run", work)
        csv = next(p for p in files if p.suffix == ".csv")
        data = csv.read_bytes()
        csv.write_bytes(data[:-2] + (b"9" if data[-2:-1] != b"9" else b"8") + data[-1:])
        self.assertTrue(gates.identical_outputs(self.run_files, files))
        self.assertTrue(gates.manifest_verifies(work))

    def test_truncated_checkpoint_is_rejected(self):
        ck = runner.checkpoint_path(self.work / "run")
        data = ck.read_bytes()
        ck.write_bytes(data[:len(data) // 2])
        try:
            with self.assertRaises(runner.CorruptCheckpoint):
                run.resume(self.work / "run", self.work / "from-truncated")
        finally:
            ck.write_bytes(data)

    def test_an_error_counts_as_a_failure(self):
        broken = run.Workload("broken", (2, 2), 1, 0, 100, 100, None, "bins=0")
        exp = run.experiment(broken, 1, 1, self.work / "broken")
        self.assertTrue(exp.failures)
        self.assertFalse((self.work / "broken").exists())

    def test_p_hat_gate(self):
        n = 100_000
        self.assertEqual(gates.p_hat_within(round(n * 8 / 33), n, 8 / 33, 0.0), [])
        self.assertTrue(gates.p_hat_within(round(n * 8 / 33) + 600, n, 8 / 33, 0.0))

    def test_p_hat_gate_counts_the_reference_band(self):
        # at 1e9 pooled samples the binomial window alone is far narrower
        # than the band of a Monte Carlo reference; the band edge must pass
        n = 10 ** 9
        self.assertEqual(gates.p_hat_within(round(n * (0.02700 + 0.0002)), n,
                                            0.02700, 0.00021), [])
        self.assertTrue(gates.p_hat_within(round(n * (0.02700 + 0.0003)), n,
                                           0.02700, 0.00021))
        self.assertTrue(gates.p_hat_within(0, 3_000_000, 1.022e-4, 0.41e-4))

    def test_ppt_subsample_gate(self):
        measure = random_states.hilbert_schmidt(4)
        states = random_states.state_batch(measure, 5, 0, 64)
        flags = invariants.record_batch(states, (2, 2))["ppt"]
        self.assertEqual(gates.ppt_subsample(states, flags, (2, 2)), [])
        self.assertTrue(flags.any() and (~flags).any())
        flipped = flags.copy()
        flipped[0] = not flipped[0]
        self.assertTrue(gates.ppt_subsample(states, flipped, (2, 2)))

    def test_always_npt_kernel_is_rejected_on_3x3(self):
        # almost no 3x3 HS state is PPT, so only the mixtures catch this
        measure = random_states.hilbert_schmidt(9)
        states = gates.with_ppt_mixtures(random_states.state_batch(measure, 5, 0, 8))
        flags = invariants.record_batch(states, (3, 3))["ppt"]
        self.assertEqual(gates.ppt_subsample(states, flags, (3, 3)), [])
        self.assertTrue(flags[8:].all())
        self.assertTrue(gates.ppt_subsample(states, np.zeros_like(flags), (3, 3)))

    def test_independent_partial_transpose(self):
        rho = random_states.state_batch(random_states.hilbert_schmidt(6), 3, 0, 1)[0]
        from sepprob import matrix_core
        np.testing.assert_array_equal(gates.partial_transpose_loops(rho, 2, 3),
                                      matrix_core.partial_transpose(rho, (2, 3)))

    def test_determinism_gate(self):
        a = run.Experiment(seed=1, workers=1, samples=10, n_ppt=3, csv_digest="x")
        b = run.Experiment(seed=1, workers=2, samples=10, n_ppt=4, csv_digest="x")
        self.assertEqual(run.determinism([a, a]), [])
        self.assertTrue(run.determinism([a, b]))

    def test_whole_experiment_passes_and_traces(self):
        exp = run.experiment(TINY, 7, 1, self.work / "traced", traced=True)
        self.assertEqual(exp.failures, [])
        metrics = run.kernel_metrics(exp)
        declared = {m.name for m in run.PER_LAYER}
        self.assertLessEqual(set(metrics), declared)
        self.assertEqual(metrics["matrix_core.min_pt_eigenvalue_batch.eigensolves"],
                         TINY.samples)
        self.assertEqual(metrics["runner.save_checkpoint.calls"],
                         TINY.samples // TINY.checkpoint_every)
        self.assertFalse(hasattr(runner.run_experiment, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
