"""In-memory span recorder, the wrappers that attach it to entropy_lab, and
the per-layer metrics derived from the recorded spans.

A span is one call across a layer boundary: name, start, end, parent span
and pass id.  Calls too frequent to record one by one (random draws, rule
evaluations, quadrature) are summed as leaves on the innermost open span of
the calling thread, so that self times can still subtract them.  A worker
thread with no open span of its own charges the span the main thread has
open, which is the call that started the pool.

The wrappers are swapped in at module attributes of the package and put
back by the function ``install`` returns; the package itself is unchanged.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    pass_id: str = ""
    attrs: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)  # leaf name -> [seconds, count]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._leaf_tables: list[dict] = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Span | None:
        stack = self._stack() or self._main_stack
        try:
            return stack[-1]
        except IndexError:
            return None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open()
        sp = Span(next(self._ids), name, time.perf_counter(),
                  parent=None if parent is None else parent.id,
                  pass_id=str(self.pass_id), attrs=attrs)
        stack = self._stack()
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def add_leaf(self, name: str, seconds: float, count: int) -> None:
        table = getattr(self._local, "leaves", None)
        if table is None:
            table = self._local.leaves = {}
            with self._lock:
                self._leaf_tables.append(table)
        parent = self._open()
        key = (None if parent is None else parent.id, name)
        acc = table.get(key)
        if acc is None:
            table[key] = [seconds, count]
        else:
            acc[0] += seconds
            acc[1] += count

    def records(self) -> list[dict]:
        """Spans as plain dicts, with every thread's leaves folded in."""
        by_id = {sp.id: sp for sp in self.spans}
        for table in self._leaf_tables:
            for (sid, name), (seconds, count) in table.items():
                if sid not in by_id:
                    continue
                acc = by_id[sid].leaves.setdefault(name, [0.0, 0])
                acc[0] += seconds
                acc[1] += count
            table.clear()
        return [asdict(sp) for sp in self.spans]


def maybe_span(tracer: Tracer | None, name: str, **attrs):
    return nullcontext() if tracer is None else tracer.span(name, **attrs)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


class _CountingGenerator:
    """Forwards to a numpy Generator, charging each draw's time and number
    of variates to the ``rng`` leaf."""

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            t0 = time.perf_counter()
            out = attr(*args, **kwargs)
            tracer.add_leaf("rng", time.perf_counter() - t0, int(np.size(out)))
            return out

        setattr(self, name, draw)
        return draw


def _span_call(tracer: Tracer, fn, name: str, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = before(*args, **kwargs) if before else {}
        with tracer.span(name, **attrs) as sp:
            out = fn(*args, **kwargs)
            if after:
                sp.attrs.update(after(out, sp.attrs))
            return out

    return wrapper


def _leaf_call(tracer: Tracer, fn, name: str, count=lambda args: 1, timed: bool = True):
    """Charge each call's ``count(args)`` and, if ``timed``, its time to the
    leaf ``name`` of the innermost open span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not timed:
            tracer.add_leaf(name, 0.0, count(args))
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        tracer.add_leaf(name, time.perf_counter() - t0, count(args))
        return out

    return wrapper


def boot_bytes(b: int, k: int, n: int) -> int:
    """Size of one block of bootstrap normals, b x K x 2n float64."""
    return b * k * 2 * n * 8


def coverage_attrs(cfg) -> dict:
    """Span attributes of one ``coverage_study`` call.  ``group`` names the
    interval method when the call runs one method group only."""
    methods = set(cfg.methods)
    boot = {"boot-p", "boot-t"}
    group = "boot" if methods <= boot else (cfg.methods[0] if len(methods) == 1 else "all")
    b = min(cfg.block_size, cfg.outer_reps)
    return {"group": group,
            "boot_bytes": boot_bytes(b, cfg.boot_k, max(cfg.n_grid)) if methods & boot else 0}


def coverage_result_attrs(res, attrs) -> dict:
    return {"failures": sum(r.failures for r in res.rows)}


def install(tracer: Tracer):
    """Swap the tracing wrappers into the package; returns the undo."""
    from entropy_lab import cli, estimators, evaluate, intervals, risk
    from entropy_lab.numerics import quadrature, rng

    saved: list[tuple[object, str, object]] = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def boot_before(data, level=0.95, cfg=None):
        k = cfg.K if cfg is not None else intervals.BootConfig().K
        return {"boot_bytes": boot_bytes(1, k, data.n)}

    def stage_of(cfg):
        return {"stage": "rmle" if cfg.baseline == "mle" else "risk"}

    patch(cli, "estimate_all", _span_call(tracer, cli.estimate_all, "estimators.estimate_all"))
    patch(cli, "aci", _span_call(tracer, cli.aci, "intervals.aci"))
    patch(cli, "gci_umvue", _span_call(tracer, cli.gci_umvue, "intervals.gci"))
    patch(cli, "boot_p", _span_call(tracer, cli.boot_p, "intervals.boot", boot_before))
    patch(cli, "boot_t", _span_call(tracer, cli.boot_t, "intervals.boot", boot_before))
    patch(cli, "hpd_mcmc", _span_call(tracer, cli.hpd_mcmc, "intervals.hpd_mcmc"))
    patch(cli, "simulate_risk", _span_call(tracer, cli.simulate_risk, "risk.simulate_risk",
                                           stage_of))
    patch(cli, "coverage_study", _span_call(tracer, cli.coverage_study, "evaluate.coverage_study",
                                            coverage_attrs, coverage_result_attrs))

    def chain_before(x1bar, x2bar, ss1, ss2, n, cfg, gen):
        return {"chains": int(np.size(x1bar)), "kept": cfg.N - cfg.N0, "steps": cfg.N}

    def chain_after(out, attrs):
        # run_variance_chains returns each chain's post-burn-in acceptance
        return {"accepted": float(np.sum(out[1])) * attrs["kept"]}

    for module in (evaluate, intervals):
        fn = module.run_variance_chains
        patch(module, "run_variance_chains",
              _span_call(tracer, fn, "intervals.mcmc", chain_before, chain_after))

    base_table = estimators.BzTable

    class TracedBzTable(base_table):
        def __init__(self, *args, **kwargs):
            with tracer.span("estimators.bz_table"):
                super().__init__(*args, **kwargs)

    patch(estimators, "BzTable", TracedBzTable)
    patch(estimators, "bz_r0", _span_call(tracer, estimators.bz_r0, "estimators.bz_r0"))
    patch(estimators, "integrate_J", _leaf_call(tracer, estimators.integrate_J, "integrate_J"))
    # adaptive_quad runs inside integrate_J, whose leaf already holds its time
    patch(quadrature, "adaptive_quad", _leaf_call(tracer, quadrature.adaptive_quad,
                                                  "adaptive_quad", timed=False))

    resolve = risk.resolve_estimator

    @functools.wraps(resolve)
    def traced_resolve(spec, n, loss):
        name, fn = resolve(spec, n, loss)
        return name, _leaf_call(tracer, fn, "rule", lambda args: int(np.size(args[0])))

    patch(risk, "resolve_estimator", traced_resolve)

    base_stream = rng.RngStream

    class TracedRngStream(base_stream):
        @property
        def generator(self):
            return _CountingGenerator(base_stream.generator.fget(self), tracer)

    for module in (risk, evaluate, intervals):
        patch(module, "RngStream", TracedRngStream)

    def undo() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part its child spans cover and minus its
    timed leaves.  Leaves charged from several threads can sum to more than
    the span lasted, so the result is clamped at zero."""
    children: dict[int, list] = defaultdict(list)
    for sp in spans:
        if sp["parent"] is not None:
            children[sp["parent"]].append((sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        covered = _union_length(children[sp["id"]], sp["start"], sp["end"])
        leaf_s = sum(v[0] for v in sp["leaves"].values())
        out[sp["id"]] = max(0.0, sp["end"] - sp["start"] - covered - leaf_s)
    return out


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("numerics.quadrature.integrate_J.calls", "count", "lower"),
    ("numerics.quadrature.integrate_J.s", "s", "lower"),
    ("numerics.quadrature.adaptive_quad.calls", "count", "lower"),
    ("numerics.rng.variates", "count", "lower"),
    ("numerics.rng.draw_s", "s", "lower"),
    ("estimators.bz_table.builds", "count", "lower"),
    ("estimators.bz_table.s", "s", "lower"),
    ("estimators.rule.evals", "count", "lower"),
    ("estimators.rule.s", "s", "lower"),
    ("estimators.rule.ns_per_eval", "ns", "lower"),
    ("risk.simulate_risk.s", "s", "lower"),
    ("risk.self_s", "s", "lower"),
    ("risk.thread_speedup", "x", "higher"),
    ("intervals.mcmc.s", "s", "lower"),
    ("intervals.mcmc.chain_steps", "count", "lower"),
    ("intervals.mcmc.ns_per_chain_step", "ns", "lower"),
    ("intervals.mcmc.accept_rate", "frac", "higher"),
    ("intervals.hpd_mcmc.s", "s", "lower"),
    ("intervals.boot.s", "s", "lower"),
    ("intervals.boot.bytes", "bytes", "lower"),
    ("intervals.gci.s", "s", "lower"),
    ("intervals.aci.s", "s", "lower"),
    ("evaluate.coverage_study.s", "s", "lower"),
    ("evaluate.self_s", "s", "lower"),
    ("evaluate.failures", "count", "lower"),
    ("evaluate.thread_speedup", "x", "higher"),
    ("cli.stage.point.s", "s", "lower"),
    ("cli.stage.intervals.s", "s", "lower"),
    ("cli.stage.risk.s", "s", "lower"),
    ("cli.stage.rmle.s", "s", "lower"),
    ("cli.stage.coverage.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

_CLI_STAGE = {
    "estimators.estimate_all": "point",
    "intervals.aci": "intervals", "intervals.gci": "intervals",
    "intervals.boot": "intervals", "intervals.hpd_mcmc": "intervals",
    "evaluate.coverage_study": "coverage",
}


def cli_stages(spans: list[dict]) -> dict[str, float]:
    """Stage times of one ``reproduce`` run.  A stage runs from its first
    library call to the next stage's first call, so its file output counts;
    the last stage ends with ``cli.main``."""
    main = [sp for sp in spans if sp["name"] == "cli.main"]
    if not main:
        return {}
    firsts: dict[str, float] = {}
    for sp in spans:
        if sp["parent"] != main[0]["id"]:
            continue
        stage = sp["attrs"].get("stage") or _CLI_STAGE.get(sp["name"])
        if stage and (stage not in firsts or sp["start"] < firsts[stage]):
            firsts[stage] = sp["start"]
    order = sorted(firsts.items(), key=lambda kv: kv[1])
    ends = [start for _, start in order[1:]] + [main[0]["end"]]
    return {stage: end - start for (stage, start), end in zip(order, ends)}


def layer_metrics(spans: list[dict], passes: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer values for set-up plus one pass: spans of pass id ``setup``
    count once, those of the timed passes are averaged over ``passes``."""
    selfs = self_times(spans)
    setup: dict[str, float] = defaultdict(float)
    timed: dict[str, float] = defaultdict(float)

    def add(key: str, value: float, sp: dict) -> None:
        (setup if sp["pass_id"] == "setup" else timed)[key] += value

    bytes_max = 0
    by_pass: dict[str, list[dict]] = defaultdict(list)
    for sp in spans:
        by_pass[sp["pass_id"]].append(sp)
        dur = sp["end"] - sp["start"]
        name, attrs = sp["name"], sp["attrs"]
        for leaf, (seconds, count) in sp["leaves"].items():
            add(f"leaf.{leaf}.s", seconds, sp)
            add(f"leaf.{leaf}.count", count, sp)
        if name == "estimators.bz_table":
            add("estimators.bz_table.builds", 1, sp)
            add("estimators.bz_table.s", dur, sp)
        elif name == "risk.simulate_risk":
            add("risk.simulate_risk.s", dur, sp)
            add("risk.self_s", selfs[sp["id"]], sp)
        elif name == "intervals.mcmc":
            add("intervals.mcmc.s", dur, sp)
            add("intervals.mcmc.chain_steps", attrs["steps"] * attrs["chains"], sp)
            add("mcmc.attempts", attrs["kept"] * attrs["chains"], sp)
            add("mcmc.accepted", attrs["accepted"], sp)
        elif name == "evaluate.coverage_study":
            add("evaluate.coverage_study.s", dur, sp)
            add("evaluate.self_s", selfs[sp["id"]], sp)
            add("evaluate.failures", attrs.get("failures", 0), sp)
            if attrs["group"] in ("aci", "gci", "boot"):
                add(f"intervals.{attrs['group']}.s", dur, sp)
        elif name in ("intervals.aci", "intervals.gci", "intervals.boot", "intervals.hpd_mcmc"):
            add(f"{name}.s", dur, sp)
        if "boot_bytes" in attrs:
            bytes_max = max(bytes_max, attrs["boot_bytes"])
    for pass_spans in by_pass.values():
        for stage, seconds in cli_stages(pass_spans).items():
            timed[f"cli.stage.{stage}.s"] += seconds

    t = defaultdict(float, {key: setup[key] + timed[key] / passes
                            for key in set(setup) | set(timed)})
    evals = t["leaf.rule.count"]
    attempts = t["mcmc.attempts"]
    steps = t["intervals.mcmc.chain_steps"]
    values = {
        "numerics.quadrature.integrate_J.calls": t["leaf.integrate_J.count"],
        "numerics.quadrature.integrate_J.s": t["leaf.integrate_J.s"],
        "numerics.quadrature.adaptive_quad.calls": t["leaf.adaptive_quad.count"],
        "numerics.rng.variates": t["leaf.rng.count"],
        "numerics.rng.draw_s": t["leaf.rng.s"],
        "estimators.rule.evals": evals,
        "estimators.rule.s": t["leaf.rule.s"],
        "estimators.rule.ns_per_eval": 1e9 * t["leaf.rule.s"] / evals if evals else 0.0,
        "intervals.mcmc.ns_per_chain_step": 1e9 * t["intervals.mcmc.s"] / steps if steps else 0.0,
        "intervals.mcmc.accept_rate": t["mcmc.accepted"] / attempts if attempts else 0.0,
        "intervals.boot.bytes": float(bytes_max),
    }
    for name, _, _ in PER_LAYER:
        if name not in values:
            values[name] = extra.get(name, t.get(name, 0.0))
    return values

