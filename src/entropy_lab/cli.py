"""Command-line front end.

Commands: ``estimate`` (point estimators on data), ``risk`` (Monte Carlo
risk/RRI campaigns), ``ci`` (one interval method on data), ``coverage``
(CP/AL/PCD study), and ``reproduce`` (the full desk-scale pipeline into a
directory of tables).

Every command honors ``--seed``; without it a fresh seed is drawn and
recorded.  Outputs are CSV or JSON only, and any run that writes files also
writes a manifest capturing enough to re-run it bit-identically.  Exit
codes: 0 success, 2 usage, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import boeing
from .errors import DataError, EntropyLabError
from .estimators import estimate_all
from .evaluate import COVERAGE_METHODS, CoverageConfig, coverage_study, t_test_ordered_means
from .intervals import BootConfig, McmcConfig, aci, boot_p, boot_t, gci_umvue, hpd_mcmc
from .model import Loss, TwoSampleData, load_paired_csv, load_samples, suff_stats, two_sample_data
from .risk import DEFAULT_ESTIMATORS, SimConfig, risk_csv, simulate_risk

# Campaign sizes of ``reproduce``; ``risk``/``coverage --paper-scale`` take
# their part of the paper row.  ``pivot_draws`` sizes the Boeing gci interval.
_SCALES = {
    "desk": {"risk_n": (8, 15), "rmle_n": (5, 8), "reps": 20_000, "eta_step": 0.5,
             "pivot_draws": 10_000, "coverage_n": (10, 20),
             "coverage": {"outer_reps": 600, "gci_draws": 800, "boot_k": 400,
                          "mcmc_n": 1_200, "mcmc_burnin": 300}},
    "paper": {"risk_n": (8, 15, 21, 26), "rmle_n": (5, 8, 12, 18), "reps": 70_000,
              "eta_step": 0.25, "pivot_draws": 100_000, "coverage_n": (10, 20, 40),
              "coverage": {"outer_reps": 30_000, "gci_draws": 10_000, "boot_k": 3_000,
                           "mcmc_n": 10_000, "mcmc_burnin": 2_000}},
}
_ALL_LOSSES = (Loss.squared_error(), Loss.linex(-3.0), Loss.linex(-2.0), Loss.linex(2.0),
               Loss.linex(4.0))


class _UsageError(Exception):
    """Command-line usage problem (exit code 2)."""


def _timestamp() -> int:
    env = os.environ.get("SOURCE_DATE_EPOCH")
    return int(env) if env else int(time.time())


def _default_threads() -> int:
    env = os.environ.get("ENTROPY_LAB_THREADS")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"# seed not given; using generated seed {seed}", file=sys.stderr)
    return seed


def _write_manifest(path: Path, argv: list[str], config: dict, seed: int,
                    outputs: list[str]) -> None:
    manifest = {
        "command": argv,
        "config": config,
        "master_seed": seed,
        "library_version": __version__,
        "numpy_version": np.__version__,
        "timestamp": _timestamp(),
        "outputs": outputs,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_output(args, argv: list[str], text: str, config: dict, seed: int) -> None:
    """``text`` to ``--out`` next to its manifest, or to stdout without one."""
    if not args.out:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    out.write_text(text)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), argv, config, seed,
                    [str(out)])


def _load_data(args) -> TwoSampleData:
    if getattr(args, "dataset", None):
        return boeing()
    if getattr(args, "csv", None):
        return load_paired_csv(args.csv)
    if getattr(args, "data1", None) and getattr(args, "data2", None):
        return two_sample_data(load_samples(args.data1), load_samples(args.data2))
    raise DataError("no input data: use --dataset boeing, --csv FILE, or --data1/--data2")


def _loss_from(args) -> Loss:
    if args.loss == "l1":
        return Loss.squared_error()
    if args.a1 is None:
        raise _UsageError("--loss linex requires --a1")
    return Loss.linex(args.a1)


def _losses_from(args) -> list[Loss]:
    return list(_ALL_LOSSES) if args.loss == "all" else [_loss_from(args)]


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"expected a comma-separated list of integers, got {text!r}") from None


def _eta_grid(start: float, stop: float, step: float) -> tuple:
    """start, start + step, ... up to stop inclusive, rounded to 10 places."""
    count = math.floor((stop - start) / step + 1e-9) + 1
    return tuple(round(start + step * i, 10) for i in range(count))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_estimate(args, argv) -> int:
    data = _load_data(args)
    order = t_test_ordered_means(data.sample1, data.sample2)
    if order.p_value < 0.05:
        print(f"# warning: ordering test rejects mu1 <= mu2 (p = {order.p_value:.4f})",
              file=sys.stderr)
    st = suff_stats(data)
    rows = []
    for loss in _losses_from(args):
        for rep in estimate_all(st, loss):
            a1 = "" if loss.a1 is None else repr(loss.a1)
            value = rep.entropy_value if args.entropy else rep.value
            rows.append((loss.label, a1, rep.kind, value))
    head = "entropy" if args.entropy else "tau"
    print(f"{'loss':8s} {'a1':6s} {'estimator':15s} {head}")
    for label, a1, kind, value in rows:
        print(f"{label:8s} {a1:6s} {kind:15s} {value:.6f}")
    if args.out:
        text = f"loss,a1,estimator,{head}\n" + "".join(
            f"{label},{a1},{kind},{value!r}\n" for label, a1, kind, value in rows)
        _write_output(args, argv, text, {"command": "estimate", "entropy": args.entropy}, 0)
    return 0


def _cmd_risk(args, argv) -> int:
    if args.paper_scale:
        paper = _SCALES["paper"]
        n_values = _int_list(args.n) if args.n else list(paper["risk_n"])
        reps, step = paper["reps"], paper["eta_step"]
    else:
        if not args.n:
            raise _UsageError("risk: --n is required (or use --paper-scale)")
        n_values = _int_list(args.n)
        reps = args.reps
        step = args.eta_step
    if not n_values:
        raise _UsageError("risk: --n lists no sample size")
    if step <= 0 or args.eta_to < args.eta_from:
        raise _UsageError("risk: invalid eta grid")
    seed = _resolve_seed(args)
    etas = list(_eta_grid(args.eta_from, args.eta_to, step))
    loss = _loss_from(args)
    estimators = tuple(args.estimators.split(",")) if args.estimators else DEFAULT_ESTIMATORS
    results = [simulate_risk(SimConfig(n=n, eta_grid=tuple(etas), loss=loss, replications=reps,
                                       master_seed=seed, estimators=estimators,
                                       baseline=args.baseline, threads=args.threads))
               for n in n_values]
    _write_output(args, argv, risk_csv(results),
                  {"command": "risk", "n": n_values, "reps": reps, "etas": etas,
                   "loss": loss.label, "a1": loss.a1, "baseline": args.baseline}, seed)
    return 0


def _cmd_ci(args, argv) -> int:
    data = _load_data(args)
    level = args.level
    seed = 0 if args.method == "aci" else _resolve_seed(args)
    if args.method == "aci":
        result = aci(data, level)
    elif args.method == "gci":
        result = gci_umvue(suff_stats(data), level, draws=args.draws, seed=seed)
    elif args.method == "boot-p":
        result = boot_p(data, level, BootConfig(K=args.boot_k, seed=seed))
    elif args.method == "boot-t":
        result = boot_t(data, level, BootConfig(K=args.boot_k, seed=seed))
    else:
        result = hpd_mcmc(data, level, McmcConfig(N=args.n_draws, N0=args.burnin,
                                                  proposal_sd=args.proposal_sd, seed=seed))
    payload = json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    sys.stdout.write(payload)
    if args.out:
        _write_output(args, argv, payload,
                      {"command": "ci", "method": args.method, "level": level}, seed)
    return 0


def _cmd_coverage(args, argv) -> int:
    seed = _resolve_seed(args)
    if args.paper_scale:
        sizes = _SCALES["paper"]["coverage"]
    else:
        sizes = {"outer_reps": args.outer, "gci_draws": args.gci_draws, "boot_k": args.boot_k,
                 "mcmc_n": args.mcmc_n, "mcmc_burnin": args.mcmc_burnin}
    cfg = CoverageConfig(n_grid=tuple(_int_list(args.n)), methods=tuple(args.methods.split(",")),
                         level=args.level, master_seed=seed, threads=args.threads, **sizes)
    _write_output(args, argv, coverage_study(cfg).csv_text(),
                  {"command": "coverage", "outer": cfg.outer_reps, "n": list(cfg.n_grid),
                   "methods": list(cfg.methods), "level": args.level}, seed)
    return 0


_DISCREPANCIES = """\
# Known conflicts with the published reference tables

This reproduction reports values derived from the defining equations and
verified by independent quadrature, Monte Carlo, and closed-form checks.
The following cells of the published reference tables disagree with that
derivation; our tables keep the derived values.

1. Point-estimate table, hard-threshold (stein) and smooth-shrinkage (bz)
   columns.  The reference prints 4.6768 for both under squared error.
   Direct evaluation of the displayed formulas gives stein = 4.6855 and
   bz = 4.6796 on the same data, and the two columns are not equal in
   general.  The analogous linex cells differ the same way.

2. Ordering of the improved estimates.  The smooth-shrinkage estimate lies
   below the hard-threshold estimate whenever |W| is small, because the
   conditional solver r0(|w|) averages shrinkage targets over {|W| <= w}
   while the threshold arm uses the boundary target at W = w exactly.  Any
   sandwich of the form baee >= bz >= stein is therefore not a theorem;
   the verified ordering on this dataset is baee >= stein >= bz.

3. Generalized-pivot interval row (3.1642, 4.0836).  The pivot
   ln(s) - ln(V)/2 gives (4.3191, 5.2401) at the same level; the reference
   row does not even contain the point estimates (about 4.59 to 4.82) and
   appears to be shifted by the unbiasing constant.

4. HPD row (4.6749, 4.6773), length 0.0024.  Implausibly narrow for n = 6;
   the posterior standard deviation of ln(sigma) at n = 6 is about 0.23.
   Our chain gives an interval of length about 0.9.

5. The linex risk constant of the equivariant baseline.  The reference
   closed form contains an exponent (1 - 1/a1) that is inconsistent with
   the defining equation of d0; Monte Carlo validates the derived form
   -a1/2 psi(n-1) + ln Gamma(n-1+a1/2) - ln Gamma(n-1) to well within
   simulation error, so that form is used throughout.

6. The small-|W| shrinkage target under squared error is
   -[ln 2 + psi((2n-1)/2)]/2 (the defining-equation solution), not the
   printed variant with the offset inside the digamma argument.
"""


def _cmd_reproduce(args, argv) -> int:
    seed = _resolve_seed(args)
    out_dir = Path(args.out_dir)
    tables = out_dir / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    scale_name = "paper" if args.paper_scale else "desk"
    scale = _SCALES[scale_name]

    # point estimates on the built-in dataset
    st = suff_stats(boeing())
    path = tables / "point_estimates_boeing.csv"
    with open(path, "w") as fh:
        fh.write("loss,a1,estimator,tau,entropy\n")
        for loss in _ALL_LOSSES:
            lbl = "" if loss.a1 is None else repr(loss.a1)
            for rep in estimate_all(st, loss):
                fh.write(f"{loss.label},{lbl},{rep.kind},{rep.value!r},{rep.entropy_value!r}\n")
    outputs.append(str(path))

    # interval table on the built-in dataset
    data = boeing()
    level = 0.95
    results = [
        aci(data, level),
        gci_umvue(st, level, draws=scale["pivot_draws"], seed=seed + 1),
        boot_p(data, level, BootConfig(K=3000, seed=seed + 2)),
        boot_t(data, level, BootConfig(K=3000, seed=seed + 2)),
        hpd_mcmc(data, level, McmcConfig(N=12_000, N0=2_000, seed=seed + 3)),
    ]
    path = tables / "intervals_boeing.csv"
    with open(path, "w") as fh:
        fh.write("method,level,lower,upper,length\n")
        for r in results:
            fh.write(f"{r.method},{r.level!r},{r.lower!r},{r.upper!r},{r.length!r}\n")
    outputs.append(str(path))
    path = tables / "intervals_boeing.json"
    path.write_text(json.dumps([r.to_json_dict() for r in results], indent=2, sort_keys=True) + "\n")
    outputs.append(str(path))

    # risk / RRI tables
    etas = _eta_grid(0.0, 5.0, scale["eta_step"])
    for label, loss in (("l1", Loss.squared_error()), ("linex_am3", Loss.linex(-3.0))):
        path = tables / f"risk_rri_{label}.csv"
        path.write_text(risk_csv([
            simulate_risk(SimConfig(n=n, eta_grid=etas, loss=loss, replications=scale["reps"],
                                    master_seed=seed + 10, threads=args.threads))
            for n in scale["risk_n"]]))
        outputs.append(str(path))

    # restricted-MLE improvement relative to the MLE
    path = tables / "rmle_rri_l1.csv"
    path.write_text(risk_csv([
        simulate_risk(SimConfig(n=n, eta_grid=etas, loss=Loss.squared_error(),
                                replications=scale["reps"], master_seed=seed + 20,
                                estimators=("mle", "rmle"), baseline="mle",
                                threads=args.threads))
        for n in scale["rmle_n"]]))
    outputs.append(str(path))

    # coverage study
    cov_cfg = CoverageConfig(n_grid=scale["coverage_n"], methods=COVERAGE_METHODS, level=0.95,
                             master_seed=seed + 30, threads=args.threads, **scale["coverage"])
    path = tables / "coverage.csv"
    coverage_study(cov_cfg).to_csv(path)
    outputs.append(str(path))

    disc = out_dir / "DISCREPANCIES.md"
    disc.write_text(_DISCREPANCIES)
    outputs.append(str(disc))

    _write_manifest(out_dir / "manifest.json", argv,
                    {"command": "reproduce", "scale": scale_name,
                     "threads": args.threads}, seed, outputs)
    print(f"wrote {len(outputs) + 1} files under {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropy-lab",
        description="Estimation of ln(sigma) for two order-restricted normal populations")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--dataset", choices=["boeing"], help="built-in dataset")
        p.add_argument("--data1", help="first sample, one value per line")
        p.add_argument("--data2", help="second sample, one value per line")
        p.add_argument("--csv", help="two-column CSV with header sample1,sample2")

    p = sub.add_parser("estimate", help="point estimates on data")
    add_data_args(p)
    p.add_argument("--loss", choices=["l1", "linex", "all"], default="all")
    p.add_argument("--a1", type=float, help="linex asymmetry (nonzero)")
    p.add_argument("--entropy", action="store_true", help="report entropy instead of ln(sigma)")
    p.add_argument("--out", help="also write CSV here")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("risk", help="Monte Carlo risk / RRI campaign")
    p.add_argument("--n", help="comma-separated sample sizes, e.g. 8 or 8,15")
    p.add_argument("--eta-from", type=float, default=0.0)
    p.add_argument("--eta-to", type=float, default=5.0)
    p.add_argument("--eta-step", type=float, default=0.25)
    p.add_argument("--reps", type=int, default=20_000)
    p.add_argument("--loss", choices=["l1", "linex"], default="l1")
    p.add_argument("--a1", type=float)
    p.add_argument("--estimators", help="comma-separated estimator names")
    p.add_argument("--baseline", default="baee")
    p.add_argument("--paper-scale", action="store_true",
                   help="70,000 replications on the full n grid")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--out", help="write CSV here (default: stdout)")
    p.set_defaults(fn=_cmd_risk)

    p = sub.add_parser("ci", help="one confidence/credible interval on data")
    add_data_args(p)
    p.add_argument("--method", choices=["aci", "boot-p", "boot-t", "gci", "hpd"], required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--draws", type=int, default=10_000, help="pivot draws for gci")
    p.add_argument("--boot-k", type=int, default=3000)
    p.add_argument("--n-draws", type=int, default=12_000, help="total MCMC iterations")
    p.add_argument("--burnin", type=int, default=2_000)
    p.add_argument("--proposal-sd", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="also write JSON here")
    p.set_defaults(fn=_cmd_ci)

    p = sub.add_parser("coverage", help="coverage probability / average length study")
    p.add_argument("--methods", default=",".join(COVERAGE_METHODS))
    p.add_argument("--n", default="10,20,40", help="comma-separated sample sizes")
    p.add_argument("--outer", type=int, default=5000)
    p.add_argument("--gci-draws", type=int, default=1000)
    p.add_argument("--boot-k", type=int, default=1000)
    p.add_argument("--mcmc-n", type=int, default=2500)
    p.add_argument("--mcmc-burnin", type=int, default=500)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--out", help="write CSV here (default: stdout)")
    p.set_defaults(fn=_cmd_coverage)

    p = sub.add_parser("reproduce", help="full pipeline into a directory of tables")
    scale = p.add_mutually_exclusive_group()
    scale.add_argument("--desk-scale", action="store_true", default=True)
    scale.add_argument("--paper-scale", dest="paper_scale", action="store_true", default=False)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--out-dir", default="reproduction")
    p.set_defaults(fn=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args, argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EntropyLabError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
