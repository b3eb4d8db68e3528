"""Acceptance suite: one pass/fail line per criterion.

Monte Carlo tolerances are >= 4 sigma of binomial noise at the stated
sample sizes.  All runs are seeded and reproducible.  The largest runs, of
10^7 samples, take well under a minute each; the 3x3 and 2x4 runs of
criteria 4 and 5 use two workers, which draw the same samples and count
them into the same p_hat and CSVs as one worker does.
"""

import time

import numpy as np
import pytest

from sepprob import formula
from sepprob import invariants as inv
from sepprob import matrix_core as mc
from sepprob.random_states import hilbert_schmidt, state_batch
from sepprob.runner import ExperimentConfig, run_experiment
from sepprob.stats import chi2_sf, fit_scale, flatness_test, ratio_with_ci

pytestmark = pytest.mark.acceptance


def check(num: str, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {desc}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def run(tmp, name, **kw):
    cfg = ExperimentConfig(out_dir=str(tmp.mktemp(name)),
                           checkpoint_every=5 * 10 ** 6, **kw)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def run_2x3_1e7(tmp_path_factory):
    return run(tmp_path_factory, "hs_2x3", dim_a=2, dim_b=3,
               samples=10 ** 7, seed=321)


@pytest.fixture(scope="module")
def run_2x2_2e6(tmp_path_factory):
    return run(tmp_path_factory, "hs_2x2_c002", dim_a=2, dim_b=2,
               samples=2 * 10 ** 6, seed=55)


def test_criterion_1_formula_exactness():
    t0 = time.perf_counter()
    vals = {a: formula.p_alpha(a) for a in (1.0, 0.5, 2.0)}
    dt = time.perf_counter() - t0
    ok = (abs(vals[1.0] - 8 / 33) < 1e-10 and abs(vals[0.5] - 29 / 64) < 1e-10
          and abs(vals[2.0] - 26 / 323) < 1e-10 and dt < 1.0)
    check("1", "P(1)=8/33, P(1/2)=29/64, P(2)=26/323 within 1e-10, under 1 s",
          ok, f"runtime {dt:.3f}s")


def test_criterion_2_two_qubit_probability(tmp_path_factory):
    rep = run(tmp_path_factory, "hs_2x2", dim_a=2, dim_b=2,
              samples=10 ** 6, seed=1001)
    p = rep.n_ppt / rep.n_total
    check("2", "two-qubit HS separability probability in 0.2424 +/- 0.0018",
          abs(p - 0.2424) <= 0.0018, f"p_hat={p:.5f}")


def test_criterion_3_qubit_qutrit_probability(run_2x3_1e7):
    p = run_2x3_1e7.n_ppt / run_2x3_1e7.n_total
    in_band = abs(p - 0.02700) <= 0.00021
    old_conjecture_excluded = abs(32 / 1199 - p) > 0.00021
    check("3", "qubit-qutrit HS probability in 0.02700 +/- 0.00021, "
          "with 32/1199 outside the band",
          in_band and old_conjecture_excluded, f"p_hat={p:.6f}")


def test_criterion_4_two_qutrit_ppt(tmp_path_factory):
    rep = run(tmp_path_factory, "hs_3x3", dim_a=3, dim_b=3,
              samples=10 ** 7, seed=2002, workers=2)
    p = rep.n_ppt / rep.n_total
    check("4", "two-qutrit PPT probability in 1.022e-4 +/- 0.41e-4",
          abs(p - 1.022e-4) <= 0.41e-4, f"p_hat={p:.3e}")


def test_criterion_5_qubit_qudit_ppt(tmp_path_factory):
    rep = run(tmp_path_factory, "hs_2x4", dim_a=2, dim_b=4,
              samples=10 ** 7, seed=3003, workers=2)
    p = rep.n_ppt / rep.n_total
    check("5", "qubit-qudit (2x4) PPT probability in 1.292e-3 +/- 0.15e-3",
          abs(p - 1.292e-3) <= 0.15e-3, f"p_hat={p:.4e}")


def test_criterion_6_induced_measure(tmp_path_factory):
    rep = run(tmp_path_factory, "ind_2x3", dim_a=2, dim_b=3, k=9,
              samples=10 ** 6, seed=4004)
    p = rep.n_ppt / rep.n_total
    check("6", "induced-measure (K=9) qubit-qutrit probability in "
          "0.2605 +/- 0.0018", abs(p - 0.2605) <= 0.0018, f"p_hat={p:.5f}")


@pytest.mark.parametrize("k, exact", [(5, (61, 143)), (6, (259, 442))],
                         ids=["K5", "K6"])
def test_criterion_6b_induced_two_qubit_exact(tmp_path_factory, k, exact):
    # the conjectured rational values of Slater and Dunkl, Adv. Math. Phys.
    # 2015, 621353
    p_exact = exact[0] / exact[1]
    rep = run(tmp_path_factory, f"ind_2x2_k{k}", dim_a=2, dim_b=2, k=k,
              samples=2 * 10 ** 6, seed=11)
    p = rep.n_ppt / rep.n_total
    z = (p - p_exact) / np.sqrt(p_exact * (1 - p_exact) / rep.n_total)
    check("6b", f"induced-measure (K={k}) two-qubit probability within 4 sigma "
          f"of {exact[0]}/{exact[1]}", abs(z) < 4, f"p_hat={p:.5f}, z={z:+.2f}")


def test_criterion_7_flatness_over_invariants(run_2x3_1e7):
    details = []
    ok = True
    for lb in ("r_A", "R_B", "c2_B", "c3_B"):
        chi2, dof, p = flatness_test(run_2x3_1e7.hists[lb], min_total=1000)
        details.append(f"{lb}: p={p:.3g}")
        ok = ok and p > 0.001
    check("7", "separability probability flat over r_A, R_B, c2_B, c3_B "
          "(each p > 0.001)", ok, "; ".join(details))


def test_criterion_8_c002_non_flatness(run_2x2_2e6):
    p_overall = run_2x2_2e6.n_ppt / run_2x2_2e6.n_total
    _, _, p_c002 = flatness_test(run_2x2_2e6.hists["C002"], min_total=1000)
    _, _, p_r = flatness_test(run_2x2_2e6.hists["r_A"], min_total=1000)
    ok = p_c002 < 1e-6 and p_r > 0.001 and abs(p_overall - 0.2422) <= 0.0013
    check("8", "C002 axis rejects flatness (p < 1e-6) while r_A passes; "
          "overall p_hat in 0.2422 +/- 0.0013", ok,
          f"p_c002={p_c002:.3g}, p_r={p_r:.3g}, p_hat={p_overall:.5f}")


def test_criterion_8b_two_qubit_bins_match_exact(run_2x2_2e6):
    # P(sep | r) = 8/33 at every r for 2x2 HS (Milz and Strunz, J. Phys. A 48,
    # 035306 (2015)): a chi-square of every bin against that value, not
    # against the run's own mean, on flatness_test's bins
    p0 = 8 / 33
    details, ok = [], True
    for lb in ("r_A", "R_B"):
        h = run_2x2_2e6.hists[lb]
        mask = h.total >= 1000
        mask[-1] = False
        t, s = h.total[mask].astype(float), h.hits[mask].astype(float)
        chi2 = float(((s - t * p0) ** 2 / (t * p0 * (1 - p0))).sum())
        dof = int(mask.sum())
        p = chi2_sf(chi2, dof)
        details.append(f"{lb}: chi2={chi2:.1f}, dof={dof}, p={p:.3g}")
        ok = ok and p > 0.001
    check("8b", "two-qubit HS P(PPT | r_A) and P(PPT | R_B) match 8/33 in every bin "
          "(each p > 0.001)", ok, "; ".join(details))


def test_criterion_8c_wilson_coverage(tmp_path_factory):
    # 200 independent 2x2 HS runs: the share of 95% Wilson intervals that hold
    # the exact 8/33 is binomial(200, 0.95) / 200
    seeds, cover = 200, 0.95
    inside = 0
    for seed in range(seeds):
        rep = run(tmp_path_factory, f"cover{seed}", dim_a=2, dim_b=2,
                  samples=2 * 10 ** 4, seed=10 ** 6 + seed)
        ci = rep.overall["wilson_0.95"]
        inside += ci["ci_lo"] <= 8 / 33 <= ci["ci_hi"]
    frac = inside / seeds
    sigma = np.sqrt(cover * (1 - cover) / seeds)
    check("8c", "95% Wilson intervals of 200 two-qubit runs hold 8/33 at a rate "
          "within 4 sigma of 0.95", abs(frac - cover) <= 4 * sigma,
          f"{inside} of {seeds}, sigma={sigma:.4f}")


def test_criterion_9a_qubit_radial_model(run_2x3_1e7):
    scale, resid = fit_scale(run_2x3_1e7.hists["r_A"], 2, 16, min_total=10 ** 4)
    check("9a", "qubit r-density fits r^2(1-r^2)^16 within 5% "
          "(bins with total >= 1e4)", resid < 0.05, f"max_rel_residual={resid:.3f}")


def test_criterion_9b_qutrit_radial_model(run_2x3_1e7):
    # NOTE: known-red criterion.  The R^7(1-R^2)^32 model deviates
    # systematically by -13..-16% below R ~ 0.15; no scale choice brings the
    # maximum relative residual on [0, 1/2] under 10% (minimax optimum is
    # ~10.1%, least squares ~16%).  Kept faithful to the stated tolerance.
    scale, resid = fit_scale(run_2x3_1e7.hists["R_B"], 7, 32,
                             fit_range=(0.0, 0.5))
    check("9b", "qutrit R-density fits R^7(1-R^2)^32 within 10% on [0, 1/2]",
          resid < 0.10, f"max_rel_residual={resid:.3f}")


def test_criterion_10_ci_reproduction():
    a = ratio_with_ci(2_699_590, 10 ** 8, 0.999, "wald")
    b = ratio_with_ci(10_218, 10 ** 8, 0.95, "wald")
    ok = (abs(a.ci_lo - 0.0269426) < 1e-6 and abs(a.ci_hi - 0.0270492) < 1e-6
          and abs(b.ci_lo - 0.000100199) < 1e-7
          and abs(b.ci_hi - 0.000104161) < 1e-7)
    check("10", "Wald intervals reproduce the published 99.9% and 95% CIs",
          ok, f"[{a.ci_lo:.7f}, {a.ci_hi:.7f}], [{b.ci_lo:.9f}, {b.ci_hi:.9f}]")


def test_criterion_11_algebra_golden():
    sqrt3 = np.sqrt(3.0)
    dt3 = inv.d_tensor(3)
    ok = abs(dt3.value(0, 0, 7) - 1 / sqrt3) < 1e-12       # d_118
    ok = ok and abs(dt3.value(7, 7, 7) + 1 / sqrt3) < 1e-12  # d_888
    ok = ok and inv.d_tensor(2).entries == {}
    # full sparse set against the trace formula
    lam3 = inv.su_basis(3)
    for a in range(8):
        for b in range(8):
            for c in range(8):
                want = 0.25 * np.trace(
                    (lam3[a] @ lam3[b] + lam3[b] @ lam3[a]) @ lam3[c]).real
                ok = ok and abs(dt3.value(a, b, c) - want) < 1e-12
    for d in (2, 3, 4):
        lam = inv.su_basis(d)
        gram = np.einsum("aij,bji->ab", lam, lam).real
        ok = ok and np.abs(gram - 2 * np.eye(d * d - 1)).max() < 1e-12
    check("11", "su(3) d-symbols, su(2) d-tensor zero, basis orthonormality "
          "for d in {2,3,4}", bool(ok))


def test_criterion_12_structural_properties(tmp_path_factory):
    n = 10_000
    failures = []

    rhos = state_batch(hilbert_schmidt(6), 777, 0, n)
    pt = mc.partial_transpose_batch(rhos, (2, 3))
    if not np.array_equal(mc.partial_transpose_batch(pt, (2, 3)), rhos):
        failures.append("PT involution")
    if np.abs(mc.purity_batch(rhos) - mc.purity_batch(pt)).max() > 1e-12:
        failures.append("PT purity preservation")
    a = inv.record_batch(rhos, (2, 3))
    b = inv.record_batch(pt, (2, 3))
    for key in ("r_A", "R_B", "c2_A", "c2_B", "c3_B"):
        if np.abs(a[key] - b[key]).max() > 1e-10:
            failures.append(f"PT-insensitivity of {key}")

    for d in (2, 3):
        red = mc.partial_trace_batch(rhos, (2, 3), "A" if d == 2 else "B")
        nv = inv.coherence_vectors_batch(red)
        r2_vec = (nv ** 2).sum(axis=1) / inv.radius_scale(d) ** 2
        r2_pur = (mc.purity_batch(red) - 1 / d) / (1 - 1 / d)
        if np.abs(r2_vec - r2_pur).max() > 1e-10:
            failures.append(f"radius-purity identity d={d}")

    reps = [run(tmp_path_factory, f"det_w{w}", dim_a=2, dim_b=3,
                samples=n, seed=777, workers=w) for w in (1, 2, 8)]
    for rep in reps[1:]:
        if rep.n_ppt != reps[0].n_ppt or any(
                not np.array_equal(rep.hists[lb].total, reps[0].hists[lb].total)
                or not np.array_equal(rep.hists[lb].hits, reps[0].hists[lb].hits)
                for lb in rep.hists):
            failures.append("worker-count determinism")

    check("12", "structural property suites over 1e4 random instances "
          "(PT involution, purity preservation, Casimir PT-insensitivity, "
          "radius-purity, worker determinism)", not failures, ", ".join(failures))
