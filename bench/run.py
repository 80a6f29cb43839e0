"""Benchmark of entropy-lab.

    python3 bench/run.py --workload W --seed N --seconds S --trace {0,1}

W is ``risk-paper``, ``coverage-paper`` or ``reproduce-desk`` (see
workloads.py).  The command runs from the root of a source checkout and
imports the package from its ``src`` directory; without one it exits with
code 1 and prints no result.

``--trace 0`` sets the workload up three times (reporting the median), then
runs passes for S seconds and reports the end-to-end metrics:

    setup_s             import, configs and warm-up of a fresh process
    wall_s              median wall time of one pass
    peak_rss_mb         peak RSS of the process that runs the workload
    time_to_accuracy_s  wall_s * (typical reported stderr / target)^2, the
                        time a pass needs to reach the target stderr

``--trace 1`` runs the passes with spans recorded at the package's layer
boundaries (spans.py), then the same passes untraced, and reports the
per-layer metrics, the tracing overhead and the thread scaling.

Every run checks its outputs (workloads.py) and prints one line per gate,
the fail_frac, a JSON environment record and, as its last line, the result
object {"correct", "attempted", "failed", "metrics"}.  The full record and
the spans are written under ``.bench_out/`` in the checkout.

The benchmark's own tests:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, derive_seed, nproc, thread_probe

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_out"

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("time_to_accuracy_s", "s"))
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def import_package():
    """Import entropy_lab from this checkout's ``src``, never from elsewhere."""
    pkg = ROOT / "src" / "entropy_lab"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import entropy_lab

    if Path(entropy_lab.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: imported entropy_lab from {entropy_lab.__file__}, not {pkg}")
    return entropy_lab


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(el) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "entropy_lab": el.__version__,
            "git_commit": git_commit(), "platform": platform.platform()}


def run_passes(wl, seconds: float, minimum: int, tracer=None,
               count: int | None = None) -> tuple[list[float], list[str]]:
    """Closed loop: pass i+1 starts when pass i ends.  Runs ``count`` passes,
    or as many as ``seconds`` allows but at least ``minimum``."""
    times, digests = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while (len(times) < count) if count is not None else \
            (len(times) < minimum or time.perf_counter() < deadline):
        if tracer is None:
            t, d = wl.run_pass(i)
        else:
            tracer.pass_id = str(i)
            with tracer.span("pass"):
                t, d = wl.run_pass(i, tracer)
        times.append(t)
        digests.append(d)
        i += 1
    return times, digests


def timed_run(el, wl, args) -> tuple[dict, list[str]]:
    setups = wl.setup_times(SETUP_REPEATS)
    wl.warm_up()
    times, _ = run_passes(wl, args.seconds, MIN_PASSES)
    wall = statistics.median(times)
    if wl.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = max(wl.rss_mb)
    typical_se = wl.typical_stderr()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": rss,
        "time_to_accuracy_s": wall * (typical_se / wl.target_stderr) ** 2,
    }
    lines = [
        f"setup_s            {metrics['setup_s']:.4f} s   median of {len(setups)} set-ups "
        f"{[round(s, 3) for s in setups]}",
        f"wall_s             {wall:.4f} s   median of {len(times)} passes "
        f"(min {min(times):.4f}, max {max(times):.4f})",
        f"peak_rss_mb        {rss:.1f} MB",
        f"time_to_accuracy_s {metrics['time_to_accuracy_s']:.4f} s   typical stderr "
        f"{typical_se:.3e} against target {wl.target_stderr:.1e}",
    ]
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, lines


def traced_run(el, wl, args, work: Path) -> tuple[dict, list[str]]:
    tracer = spans.Tracer()
    half = args.seconds / 2.0
    if wl.in_process:
        undo = spans.install(tracer)
        try:
            with tracer.span("setup"):
                wl.warm_up()
            traced, traced_digests = run_passes(wl, half, MIN_TRACED_PASSES, tracer)
        finally:
            undo()
        records = tracer.records()
    else:
        wl.setup_times(1)
        traced, traced_digests = run_passes(wl, half, MIN_TRACED_PASSES, tracer)
        records, import_times = [], []
        for i in range(len(traced)):
            child = json.loads((work / f"traced{i}.spans.json").read_text())
            import_times.append(child["import_s"])
            for sp in child["spans"]:
                sp["id"] = f"{i}:{sp['id']}"
                sp["parent"] = None if sp["parent"] is None else f"{i}:{sp['parent']}"
                records.append(sp)
    untraced, digests = run_passes(wl, 0.0, 0, count=len(traced))
    wl.gates.check("trace.outputs_identical_to_untraced", traced_digests == digests)

    speedups, identical = thread_probe(el, nproc(), derive_seed(wl.seed, "probe"))
    wl.gates.check("threads.outputs_identical_at_1_and_nproc", identical)
    extra = dict(speedups)
    extra["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    if not wl.in_process:
        extra["cli.import_s"] = statistics.median(import_times)
        extra["cli.bytes_written"] = statistics.mean(wl.bytes_written)
    (work / "spans.json").write_text(json.dumps(records))
    values = spans.layer_metrics(records, len(traced), extra)
    lines = [f"{name:42s} {values[name]:.6g} {unit}" for name, unit, _ in spans.PER_LAYER]
    lines.append(f"traced passes {len(traced)}, untraced passes {len(untraced)}, "
                 f"spans {len(records)}")
    return {name: (values[name], unit) for name, unit, _ in spans.PER_LAYER}, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    el = import_package()
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](el, args.seed, work)
    if args.trace:
        metrics, lines = traced_run(el, wl, args, work)
    else:
        metrics, lines = timed_run(el, wl, args)
    wl.finish()

    ledger = wl.ledger
    lines.append(f"fail_frac          {ledger.failed / max(ledger.attempted, 1):.6g}   "
                 f"{ledger.failed}/{ledger.attempted} operations failed")
    lines.extend(f"error: {e}" for e in ledger.errors)
    lines.extend(wl.gates.lines())
    env = environment(el)
    result = {"correct": wl.gates.all_ok() and ledger.failed == 0,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "environment": env, "report": lines, "result": result},
        indent=2))
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
