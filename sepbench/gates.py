"""Correctness gates for one benchmark experiment.

No gate depends on the particular values the random stream produces, so a
change of sampling stream leaves them valid:

* per-axis conservation: every sample lands in a bin or an overflow tally,
  and the hit counts add up to the run's PPT count;
* the pooled estimate p_hat lies within SIGMAS standard errors of a
  reference PPT probability, counting the reference's own error;
* the PPT flags the package gives a random subsample of the run's states,
  and mixtures of them with the maximally mixed state (always PPT), match
  an eigenvalue check written here, independently of the package's kernel;
* the files re-emitted from the checkpoint are byte-identical to the run's
  own export, and each MANIFEST's sha256 checksums verify.

Each check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

SIGMAS = 4.0
# subsample states whose independent min eigenvalue is this close to 0 are
# not compared: the two eigensolvers may legitimately disagree on the sign
SUBSAMPLE_MARGIN = 1e-9
# weight of a state in its mixture with I/d.  Every eigenvalue of rho^Gamma
# is at least -1/2, so the mixture's are at least (1 - t)/d - t/2 > 0 for
# t < 2/(d + 2): PPT for every d up to 18.
MIX_T = 0.1


def conservation(report) -> list[str]:
    """Every sample and every PPT hit is counted once on every axis."""
    fails = []
    n, k = report.n_total, report.n_ppt
    if n != report.config.samples:
        fails.append(f"n_total {n} != configured samples {report.config.samples}")
    hists = dict(report.hists)
    hists["joint"] = report.joint
    for lb, h in hists.items():
        if int(h.total.sum()) + h.out_total != n:
            fails.append(f"{lb}: total {int(h.total.sum())} + out {h.out_total} != {n}")
        if int(h.hits.sum()) + h.out_hits != k:
            fails.append(f"{lb}: hits {int(h.hits.sum())} + out {h.out_hits} != n_ppt {k}")
        if (h.hits > h.total).any() or (h.total < 0).any():
            fails.append(f"{lb}: a bin has hits > total or a negative total")
    return fails


def p_hat_within(n_ppt: int, n_total: int, reference: float,
                 band: float) -> list[str]:
    """p_hat = n_ppt / n_total within SIGMAS standard errors of reference.

    ``band`` is the half-width of the reference's own acceptance band (0 for
    an exact value), read as SIGMAS of its standard errors and added in
    quadrature to the binomial error, so a p_hat inside the band passes
    however many samples are pooled.
    """
    sigma = math.sqrt(reference * (1.0 - reference) / n_total + (band / SIGMAS) ** 2)
    p = n_ppt / n_total
    if abs(p - reference) > SIGMAS * sigma:
        return [f"p_hat {p:.6g} is {abs(p - reference) / sigma:.2f} sigma from "
                f"reference {reference:.6g} (n={n_total})"]
    return []


def partial_transpose_loops(rho: np.ndarray, m: int, n: int) -> np.ndarray:
    """Partial transpose over B by explicit index arithmetic (row i_A*n + i_B)."""
    out = np.empty_like(rho)
    for ia in range(m):
        for ib in range(n):
            for ja in range(m):
                for jb in range(n):
                    out[ia * n + ib, ja * n + jb] = rho[ia * n + jb, ja * n + ib]
    return out


def min_pt_eigenvalue_independent(rho: np.ndarray, dims: tuple[int, int]) -> float:
    """Smallest eigenvalue of rho^Gamma by the general (non-Hermitian) solver."""
    pt = partial_transpose_loops(rho, *dims)
    return float(np.linalg.eigvals(0.5 * (pt + pt.conj().T)).real.min())


def with_ppt_mixtures(states: np.ndarray) -> np.ndarray:
    """``states`` followed by (1 - MIX_T) I/d + MIX_T rho for each of them."""
    d = states.shape[-1]
    return np.concatenate([states, MIX_T * states + (1.0 - MIX_T) / d * np.eye(d)])


def ppt_subsample(states: np.ndarray, flags: np.ndarray,
                  dims: tuple[int, int]) -> list[str]:
    """The package's PPT flags for `states` agree with the independent check."""
    fails = []
    d = dims[0] * dims[1]
    for i, (rho, flag) in enumerate(zip(states, flags)):
        if rho.shape != (d, d) or abs(np.trace(rho) - 1.0) > 1e-10 \
                or np.abs(rho - rho.conj().T).max() > 1e-12:
            fails.append(f"subsample state {i} is not a unit-trace Hermitian {d}x{d}")
            continue
        w = min_pt_eigenvalue_independent(rho, dims)
        if abs(w) >= SUBSAMPLE_MARGIN and bool(flag) != (w > 0):
            fails.append(f"subsample state {i}: package flag {bool(flag)}, "
                         f"independent min eigenvalue {w:.3e}")
    return fails


def manifest_verifies(out_dir) -> list[str]:
    """Each line of out_dir/MANIFEST names a file whose sha256 matches."""
    out_dir = Path(out_dir)
    try:
        lines = (out_dir / "MANIFEST").read_text().splitlines()
    except OSError as exc:
        return [f"cannot read MANIFEST in {out_dir.name}: {exc}"]
    if not lines:
        return [f"empty MANIFEST in {out_dir.name}"]
    fails = []
    for line in lines:
        digest, _, name = line.partition("  ")
        path = out_dir / name
        if not name or not path.is_file():
            fails.append(f"MANIFEST in {out_dir.name} names missing file {name!r}")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            fails.append(f"sha256 of {out_dir.name}/{name} does not match MANIFEST")
    return fails


def identical_outputs(run_files: list[Path], resumed_files: list[Path]) -> list[str]:
    """Same file names, and each file byte-identical between the two exports."""
    run = {p.name: p for p in map(Path, run_files)}
    resumed = {p.name: p for p in map(Path, resumed_files)}
    if sorted(run) != sorted(resumed):
        return [f"re-emitted file set {sorted(resumed)} != run's {sorted(run)}"]
    return [f"{name} re-emitted from the checkpoint differs from the run's export"
            for name in sorted(run)
            if run[name].read_bytes() != resumed[name].read_bytes()]
