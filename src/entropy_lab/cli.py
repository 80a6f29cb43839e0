"""Command-line front end.

Commands: ``estimate`` (point estimators on data), ``risk`` (Monte Carlo
risk/RRI campaigns), ``ci`` (one interval method on data), ``coverage``
(CP/AL/PCD study), and ``reproduce`` (the full desk-scale pipeline into a
directory of tables).

Each table schema has one text builder, which a command and ``reproduce``
share, so ``estimate --dataset boeing`` prints the bytes of ``reproduce``'s
``point_estimates_boeing.csv``.  A command prints its CSV or JSON to
stdout; with ``--out`` it writes that text to the file instead, next to a
manifest capturing enough to re-run it bit-identically, and prints nothing.
Every seeded command honors ``--seed``; without it a fresh seed is drawn and
recorded.  ``--threads`` counts worker processes; ``reproduce`` hands every
piece of its work to one pool of them as one job list and writes the files
itself, so no byte depends on the count.  No CSV row is written with a
non-finite field.  Exit codes: 0 success, 2 usage, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
import time
import warnings
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import boeing
from .errors import DataError, EntropyLabError, NumericError
from .estimators import estimate_all
from .evaluate import (
    COVERAGE_METHODS,
    CoverageConfig,
    coverage_jobs,
    coverage_study,
    fold_coverage,
    t_test_ordered_means,
)
from .intervals import BootConfig, McmcConfig, aci, boot_p, boot_t, gci_umvue, hpd_mcmc
from .model import Loss, TwoSampleData, load_paired_csv, load_samples, suff_stats
# simulate_risk stays a name here for the bench's tracing wrapper (bench/spans.py)
from .risk import DEFAULT_ESTIMATORS, SimConfig, fold_risk, risk_csv, risk_jobs, simulate_risk
from .workers import run_jobs

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
MAX_ETA_POINTS = 1_000  # points a risk eta grid may hold; the paper's grid has 21


class _UsageError(Exception):
    """Command-line usage problem (exit code 2)."""


def _timestamp() -> int:
    env = os.environ.get("SOURCE_DATE_EPOCH")
    return int(env) if env else int(time.time())


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"# seed not given; using generated seed {seed}", file=sys.stderr)
    return seed


def _json_text(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"non-finite value in JSON output: {exc}") from None


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
    path.write_text(_json_text(manifest))


_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _refuse_non_finite(name: str, text: str) -> None:
    """Raise ``NumericError`` naming the first line of ``text`` with a
    comma-separated field that reads as a non-finite float."""
    for i, line in enumerate(text.splitlines(), start=1):
        if not _NON_FINITE.isdisjoint(line.split(",")):
            raise NumericError(f"non-finite value in {name}, line {i}: {line}")


def _write_output(args, argv: list[str], text: str, config: dict, seed: int) -> None:
    """``text`` to ``--out`` next to its manifest, or to stdout without one."""
    _refuse_non_finite(args.out or "stdout", text)
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
        return TwoSampleData(load_samples(args.data1), load_samples(args.data2))
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


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def _eta_grid(start: float, stop: float, step: float) -> tuple:
    """start, start + step, ... up to stop inclusive, rounded to 10 places;
    its points are counted before any is formed."""
    span = (stop - start) / step + 1e-9 if step > 0 else math.nan    # the count less one
    if not (all(map(math.isfinite, (start, stop, step))) and start <= stop
            and span < MAX_ETA_POINTS):
        raise _UsageError("risk: invalid eta grid: need finite bounds, step > 0, "
                          f"eta-to >= eta-from and at most {MAX_ETA_POINTS} points")
    return tuple(round(start + step * i, 10) for i in range(math.floor(span) + 1))


# ---------------------------------------------------------------------------
# tables: one text builder per schema, shared by a command and ``reproduce``
# ---------------------------------------------------------------------------


def _point_csv(data: TwoSampleData, losses) -> str:
    """Every estimator under each loss: ln(sigma) and the entropy it gives."""
    st = suff_stats(data)
    lines = ["loss,a1,estimator,tau,entropy\n"]
    for loss in losses:
        lines.extend(f"{loss.csv_fields},{rep.kind},{rep.value!r},{rep.entropy_value!r}\n"
                     for rep in estimate_all(st, loss))
    return "".join(lines)


def _interval(method: str, data: TwoSampleData, level: float, seed: int, draws: int,
              boot_k: int, n_draws: int, burnin: int, proposal_sd: float | None = None):
    """One interval on ``data``; ``seed`` is unused by aci."""
    if method == "aci":
        return aci(data, level)
    if method == "gci":
        return gci_umvue(suff_stats(data), level, draws=draws, seed=seed)
    if method in ("boot-p", "boot-t"):
        boot = boot_p if method == "boot-p" else boot_t
        return boot(data, level, BootConfig(K=boot_k, seed=seed))
    return hpd_mcmc(data, level, McmcConfig(N=n_draws, N0=burnin, proposal_sd=proposal_sd,
                                            seed=seed))


def _intervals_csv(results) -> str:
    return "method,level,lower,upper,length\n" + "".join(
        f"{r.method},{r.level!r},{r.lower!r},{r.upper!r},{r.length!r}\n" for r in results)


def _risk_table(n_values, threads: int = 1, **cfg) -> str:
    """The risk/RRI table of one campaign per sample size, all their blocks on one pool."""
    cfgs = [SimConfig(n=n, threads=threads, **cfg) for n in n_values]
    jobs = [(c, job) for c in cfgs for job in risk_jobs(c)]
    blocks = run_jobs([job for _, job in jobs], threads)
    return risk_csv([fold_risk(c, [r for (owner, _), r in zip(jobs, blocks) if owner is c])
                     for c in cfgs])


def _boeing_tables(seed: int, pivot_draws: int) -> tuple[str, str, str]:
    """The point-estimate CSV, interval CSV and interval JSON of the Boeing
    data."""
    data = boeing()
    point = _point_csv(data, _ALL_LOSSES)
    # the interval methods in table order; the two bootstraps share a stream
    intervals = [_interval(method, data, 0.95, seed + offset, draws=pivot_draws,
                           boot_k=3000, n_draws=12_000, burnin=2_000)
                 for method, offset in zip(COVERAGE_METHODS, (0, 1, 2, 2, 3))]
    return point, _intervals_csv(intervals), _json_text([asdict(r) for r in intervals])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_estimate(args, argv) -> int:
    data = _load_data(args)
    text = _point_csv(data, _losses_from(args))  # rejects bad data before the t test reads it
    order = t_test_ordered_means(data.sample1, data.sample2)
    if order.p_value < 0.05:
        print(f"# warning: ordering test rejects mu1 <= mu2 (p = {order.p_value:.4f})",
              file=sys.stderr)
    _write_output(args, argv, text,
                  {"command": "estimate", "loss": args.loss, "a1": args.a1}, 0)
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
        reps, step = args.reps, args.eta_step
    if not n_values:
        raise _UsageError("risk: --n lists no sample size")
    if len(set(n_values)) < len(n_values):
        raise _UsageError("risk: --n repeats a sample size")
    etas = _eta_grid(args.eta_from, args.eta_to, step)
    seed = _resolve_seed(args)
    loss = _loss_from(args)
    estimators = tuple(args.estimators.split(",")) if args.estimators else DEFAULT_ESTIMATORS
    text = _risk_table(n_values, eta_grid=etas, loss=loss, replications=reps, master_seed=seed,
                       estimators=estimators, baseline=args.baseline, threads=args.threads)
    _write_output(args, argv, text,
                  {"command": "risk", "n": n_values, "reps": reps, "etas": etas,
                   "loss": loss.label, "a1": loss.a1, "baseline": args.baseline}, seed)
    return 0


def _cmd_ci(args, argv) -> int:
    data = _load_data(args)
    seed = 0 if args.method == "aci" else _resolve_seed(args)
    # the chain's acceptance warning, like any warning shown here, is one
    # plain line on stderr, as estimate prints its ordering test's
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", "MH acceptance rate", RuntimeWarning)
        result = _interval(args.method, data, args.level, seed, args.draws, args.boot_k,
                           args.n_draws, args.burnin, args.proposal_sd)
    for w in caught:
        print(f"# warning: {w.message}", file=sys.stderr)
    _write_output(args, argv, _json_text(asdict(result)),
                  {"command": "ci", "method": args.method, "level": args.level}, seed)
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

7. improved_rmle equals improved_mle bit for bit wherever m0 >= c, with
   c = -(1/2) ln 2n the MLE shift: both take min(c, m0 + T) at W >= 0 and
   m0 + T at W < 0.  That holds under squared error at every n and under
   linex for a1 <= 4; from a1 = 4.25 the two differ.  So each desk-scale
   risk table repeats 22 improved_mle cells as improved_rmle, and each
   paper-scale one 84.
"""


def _cmd_reproduce(args, argv) -> int:
    seed = _resolve_seed(args)
    out_dir = Path(args.out_dir)
    tables = out_dir / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    scale_name = "paper" if args.paper_scale else "desk"
    scale = _SCALES[scale_name]

    etas = _eta_grid(0.0, 5.0, scale["eta_step"])
    risk = partial(_risk_table, eta_grid=etas, replications=scale["reps"], threads=1)
    cov_cfg = CoverageConfig(n_grid=scale["coverage_n"], methods=COVERAGE_METHODS, level=0.95,
                             master_seed=seed + 30, threads=args.threads, **scale["coverage"])
    # the Boeing tables, the coverage blocks, then the risk tables and the
    # restricted-MLE improvement relative to the MLE.  This is not longest
    # first: at desk scale coverage block 0 (about 0.1 s) outweighs the
    # Boeing tables (about 0.04 s), but moving the blocks ahead of them made
    # no difference that 48 alternated pairs of runs on 2 vCPUs at two
    # workers could resolve (see BENCH_one_chain.json)
    jobs = [partial(_boeing_tables, seed, scale["pivot_draws"]), *coverage_jobs(cov_cfg),
            partial(risk, scale["risk_n"], loss=Loss.squared_error(), master_seed=seed + 10),
            partial(risk, scale["risk_n"], loss=Loss.linex(-3.0), master_seed=seed + 10),
            partial(risk, scale["rmle_n"], loss=Loss.squared_error(), master_seed=seed + 20,
                    estimators=("mle", "rmle"), baseline="mle")]
    (point, intervals_csv, intervals_json), *blocks, risk_l1, risk_linex, rmle = \
        run_jobs(jobs, args.threads)

    files = [(tables / "point_estimates_boeing.csv", point),
             (tables / "intervals_boeing.csv", intervals_csv),
             (tables / "intervals_boeing.json", intervals_json),
             (tables / "risk_rri_l1.csv", risk_l1),
             (tables / "risk_rri_linex_am3.csv", risk_linex),
             (tables / "rmle_rri_l1.csv", rmle),
             (tables / "coverage.csv", fold_coverage(cov_cfg, blocks).csv_text()),
             (out_dir / "DISCREPANCIES.md", _DISCREPANCIES)]
    for path, text in files:  # every check before the first write
        _refuse_non_finite(path.name, text)
    for path, text in files:
        path.write_text(text)
    outputs = [str(path) for path, _ in files]
    _write_manifest(out_dir / "manifest.json", argv,
                    {"command": "reproduce", "scale": scale_name,
                     "threads": args.threads}, seed, outputs)
    print(f"wrote {len(outputs) + 1} files under {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_THREADS_HELP = ("worker processes (default 1); at most one per job and per CPU this "
                 "process may run on, and no output byte depends on the count")


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
    p.add_argument("--out", help="write CSV here (default: stdout)")
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
    p.add_argument("--threads", type=_positive_int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", help="write CSV here (default: stdout)")
    p.set_defaults(fn=_cmd_risk)

    p = sub.add_parser("ci", help="one confidence/credible interval on data")
    add_data_args(p)
    p.add_argument("--method", choices=COVERAGE_METHODS, required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--draws", type=int, default=10_000, help="pivot draws for gci")
    p.add_argument("--boot-k", type=int, default=3000)
    p.add_argument("--n-draws", type=int, default=12_000, help="total MCMC iterations")
    p.add_argument("--burnin", type=int, default=2_000)
    p.add_argument("--proposal-sd", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write JSON here (default: stdout)")
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
    p.add_argument("--threads", type=_positive_int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", help="write CSV here (default: stdout)")
    p.set_defaults(fn=_cmd_coverage)

    p = sub.add_parser("reproduce", help="full pipeline into a directory of tables")
    scale = p.add_mutually_exclusive_group()
    scale.add_argument("--desk-scale", action="store_true", default=True)
    scale.add_argument("--paper-scale", dest="paper_scale", action="store_true", default=False)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=_positive_int, default=1, help=_THREADS_HELP)
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
