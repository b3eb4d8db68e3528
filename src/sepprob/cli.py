"""Command-line interface.

Subcommands: sample (run an experiment), analyze (flatness + model fit on
exported CSVs), formula (evaluate P(alpha)), report (re-emit outputs from
a checkpoint).  Exit codes: 0 success, 1 validation error, 2 I/O error or
a command-line usage error (argparse's own exit, as for --fit -5,16,0,1).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formula
from .runner import (ConfigError, ConfigHashMismatch, CorruptCheckpoint,
                     ExperimentConfig, assemble_report, checkpoint_path,
                     export, load_checkpoint, run_experiment)
from .stats import HistogramPair, InsufficientData, fit_scale, flatness_test


def _parse_shape(text: str) -> tuple[int, int]:
    try:
        m, n = text.lower().split("x")
        return int(m), int(n)
    except ValueError:
        raise ConfigError(f"shape must look like 2x3, got {text!r}")


def _parse_measure(text: str) -> int | None:
    """The ancilla dimension K of 'induced:K'; None for 'hs'."""
    if text == "hs":
        return None
    if text.startswith("induced:"):
        try:
            return int(text.split(":", 1)[1])
        except ValueError:
            pass
    raise ConfigError(f"measure must be 'hs' or 'induced:K', got {text!r}")


def _cmd_sample(args) -> int:
    flags = {"samples": args.samples, "seed": args.seed,
             "workers": args.workers, "bins": args.bins,
             "out_dir": args.out, "checkpoint_every": args.checkpoint_every}
    overrides = {key: value for key, value in flags.items() if value is not None}
    if args.shape:
        overrides["dim_a"], overrides["dim_b"] = _parse_shape(args.shape)
    if args.measure:
        # hs is k = None, which replaces whatever k a config file holds
        overrides["k"] = _parse_measure(args.measure)
    if args.config:
        cfg = ExperimentConfig.from_file(args.config, **overrides)
    else:
        cfg = ExperimentConfig.from_dict({}, **overrides)
    state = None
    ck = checkpoint_path(cfg.out_dir)
    if args.resume and ck.exists():
        _, state = load_checkpoint(ck, cfg)
        print(f"resuming from sample index {state.n_total}")
    elif args.resume:
        print(f"no checkpoint in {cfg.out_dir}; starting at sample 0")
    report = run_experiment(cfg, state=state, progress=True)
    files = export(report)
    p = report.overall.get("wilson_0.95", {})
    print(f"n_total={report.n_total} n_ppt={report.n_ppt} "
          f"p_hat={p.get('p_hat', float('nan')):.7g} "
          f"ci95=[{p.get('ci_lo', float('nan')):.7g}, "
          f"{p.get('ci_hi', float('nan')):.7g}]")
    print(f"wrote {len(files)} files to {cfg.out_dir}")
    return 0


def _cmd_analyze(args) -> int:
    in_dir = Path(args.in_dir)
    csvs = sorted(p for p in in_dir.glob("*.csv") if p.name != "joint_r_R.csv")
    if not csvs:
        raise ConfigError(f"no axis CSV files found in {in_dir}")
    for p in csvs:
        h = HistogramPair.from_csv(p)
        try:
            chi2, dof, pv = flatness_test(h, min_total=args.flatness_min_total)
            print(f"{p.name}: chi2={chi2:.2f} dof={dof} p_value={pv:.4g}")
        except InsufficientData as exc:
            print(f"{p.name}: flatness test skipped ({exc})")
    if args.fit:
        try:
            a, b, lo, hi = (float(x) for x in args.fit.split(","))
        except ValueError:
            raise ConfigError("--fit expects a,b,lo,hi")
        target = in_dir / f"{args.axis}.csv"
        h = HistogramPair.from_csv(target)
        scale, resid = fit_scale(h, a, b, fit_range=(lo, hi))
        print(f"fit {args.axis} ~ x^{a:g}(1-x^2)^{b:g} on [{lo:g}, {hi:g}]: "
              f"scale={scale:.6g} max_rel_residual={resid:.4g}")
    return 0


def _cmd_formula(args) -> int:
    value, terms = formula.p_alpha_terms(args.alpha, args.tol)
    note = "  (underflows the double range)" if value == 0.0 else ""
    print(f"P({args.alpha:g}) = {value:.15g}  ({terms} terms){note}")
    return 0


def _cmd_report(args) -> int:
    ck = checkpoint_path(args.in_dir) if Path(args.in_dir).is_dir() \
        else Path(args.in_dir)
    cfg, state = load_checkpoint(ck)
    report = assemble_report(cfg, state)
    files = export(report, args.out or ck.parent)
    print(f"re-emitted {len(files)} files from {ck}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sepprob",
        description="Monte Carlo separability/PPT probabilities of random "
                    "bipartite states over Bloch radii and Casimir invariants")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="run a sampling experiment")
    s.add_argument("--shape", help="bipartition, e.g. 2x3")
    s.add_argument("--measure", help="hs or induced:K (hs is induced:dim_a*dim_b)")
    s.add_argument("--samples", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--workers", type=int)
    s.add_argument("--bins", type=int)
    s.add_argument("--out", help="output directory")
    s.add_argument("--checkpoint-every", type=int, dest="checkpoint_every")
    s.add_argument("--config", help="JSON config file; flags override")
    s.add_argument("--resume", action="store_true",
                   help="continue from an existing checkpoint in --out")
    s.set_defaults(func=_cmd_sample)

    a = sub.add_parser("analyze", help="flatness tests and model fits on CSVs")
    a.add_argument("--in", dest="in_dir", required=True)
    a.add_argument("--flatness-min-total", type=int, default=1000)
    a.add_argument("--fit", help="a,b,lo,hi radial model parameters")
    a.add_argument("--axis", default="r_A", help="axis CSV the fit applies to")
    a.set_defaults(func=_cmd_analyze)

    f = sub.add_parser("formula", help="evaluate the P(alpha) summation formula")
    f.add_argument("--alpha", type=float, required=True)
    f.add_argument("--tol", type=float, default=1e-16)
    f.set_defaults(func=_cmd_formula)

    r = sub.add_parser("report", help="re-emit outputs from a checkpoint")
    r.add_argument("--in", dest="in_dir", required=True,
                   help="run directory or checkpoint file")
    r.add_argument("--out", help="output directory (default: the checkpoint's)")
    r.set_defaults(func=_cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConfigHashMismatch) as exc:  # ConfigError and the rest are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, CorruptCheckpoint) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
