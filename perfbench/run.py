#!/usr/bin/env python3
"""Seeded, layered benchmark for approxsub (stdlib only).

Usage, from the repository root:

    python3 perfbench/run.py --workload decoy --seed 0 --seconds 15 --trace 0

One process, one thread.  The harness imports the package from ``src/``,
builds the workload's inputs from ``--seed``, then calls the same
``approxsub.experiments`` / ``approxsub.verify`` entry points the CLI
subcommands call, one work item at a time, for ``--seconds`` seconds (and at
least the workload's reference prefix, ending on a whole cycle of its
inputs).  Every item is checked by the
program's own rule after the timed loop; the first ``prefix`` items are also
hashed and, for the seeds in ``references.json``, compared with the stored
digest.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
reference prefix twice, untraced and then with every layer boundary wrapped,
prints the per-layer metrics, checks that both passes hash the same, and
writes the spans to ``perfbench/.work/``.  Metric names and units are the
ones ``BENCHMARK.json`` lists.  The last line of standard output is the
result object; the lines before it are a human-readable table and the run's
provenance.  See ``RATIONALE.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REFERENCES = os.path.join(HERE, "references.json")

# Fresh interpreters that repeat the set-up after the timed body; setup_s is
# the median over them and the main process's own set-up, each calibrated
# right after it (see below).
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120

# Timings are reported at a reference machine speed.  A shared 2-vCPU Xeon
# VM was measured changing speed by up to 1.8x for tens of seconds at a
# time, which no statistic over a 15 s run removes.  A fixed calibration kernel runs after
# every CALIBRATE_EVERY_S of item time; each item's time is scaled by
# CALIBRATION_REF_S over the median of the CALIBRATION_WINDOW kernel times
# on either side of its block (one 2 ms kernel time alone is too noisy).
# Raw times are kept next to the scaled ones in the provenance.
CALIBRATION_REF_S = 0.002
CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW = 2

# The sizes the benchmark measures.  TINY keeps every code path but finishes
# in well under a second per workload; the tests use it.
FULL = {
    "decoy": {"n": 4096, "beta": 0.25, "prefix": 64},
    "sweep": {"sizes": [12, 13, 14], "k": 4, "deltas": [0.0, 0.5, 1 - 1e-9], "noise_seeds": 3},
    "verify": {"n": 12, "pair": [12, 6, 2, 5, 0.3], "sandwiches": 6},
    "greedy-scale": {"k": 16, "beta": 0.5, "n_min": 64, "n_max": 256},
}
TINY = {
    "decoy": {"n": 256, "beta": 0.25, "prefix": 4},
    "sweep": {"sizes": [6, 7], "k": 3, "deltas": [0.0, 0.5, 1 - 1e-9], "noise_seeds": 2},
    "verify": {"n": 8, "pair": [8, 4, 2, 3, 0.3], "sandwiches": 2},
    "greedy-scale": {"k": 16, "beta": 0.5, "n_min": 64, "n_max": 72},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
FIELD_UNITS = {
    "calls": "count",
    "queries": "count",
    "examined": "count",
    "bytes": "bytes",
    "self_s": "s",
    "us_per_query": "us",
    "ns_per_pair": "ns",
}
OVERHEAD = "bench.tracing_overhead"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or spec)."""


# ---------------------------------------------------------------------------
# Program import and workloads
# ---------------------------------------------------------------------------

def import_program():
    """Import approxsub from this checkout's ``src/`` (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "approxsub", "__init__.py")):
        raise BenchError(f"approxsub sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("approxsub")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise BenchError(f"approxsub imported from {pkg.__file__}, not from {SRC}")
    names = ("adversarial", "experiments", "functions", "noise", "sets", "solvers", "verify")
    return {name: importlib.import_module("approxsub." + name) for name in names}


class Workload:
    """A seeded, endless sequence of work items over inputs built at set-up.

    ``run(i)`` is the timed program work for item ``i`` (the runner call and
    the report it emits); ``check(out)`` applies the program's own acceptance
    rule and returns ``(record, ok)``, where ``record`` is the bytes the
    reference digest covers.  ``prefix`` items enter the digest; a run stops
    only at a multiple of ``cycle`` items.
    """

    prefix: int
    cycle = 1

    def __init__(self, api, seed: int, params: dict, report_path: str):
        self.api = api
        self.exp = api["experiments"]
        self.seed = seed
        self.params = params
        self.report_path = report_path

    def emit(self, rows) -> bytes:
        # Looked up at call time so the traced run sees the wrapped callable.
        self.exp.emit_report(rows, self.report_path)
        with open(self.report_path, "rb") as fh:
            return fh.read()


class Decoy(Workload):
    """The paper's headline run: one ``distinguish`` trial per item."""

    def __init__(self, api, seed, params, report_path):
        super().__init__(api, seed, params, report_path)
        hard = api["adversarial"].power_law_params(params["n"], params["beta"])
        self.queries = api["solvers"].expected_greedy_queries(hard.n, hard.k)
        self.prefix = params["prefix"]

    def run(self, i):
        p = self.params
        rows, summary = self.exp.run_distinguishability(p["n"], p["beta"], 1, self.seed + i)
        return rows, summary["gap_bound"], self.emit(rows)

    def check(self, out):
        rows, bound, data = out
        # The `distinguish` exit rule plus the exact greedy query count.
        ok = all(
            r["queries"] == self.queries
            and not (r["band_escapes"] == 0 and r["ratio"] > bound + 1e-12)
            for r in rows
        )
        return data, ok


class Sweep(Workload):
    """One (instance, delta) cell of the noise sweep, over a few noise seeds, per item."""

    def __init__(self, api, seed, params, report_path):
        super().__init__(api, seed, params, report_path)
        corpus = self.exp.instance_corpus(seed, sizes=tuple(params["sizes"]))
        self.cells = [(inst, d) for inst in corpus for d in params["deltas"]]
        self.prefix = self.cycle = len(self.cells)

    def run(self, i):
        cycle, j = divmod(i, len(self.cells))
        inst, delta = self.cells[j]
        per = self.params["noise_seeds"]
        seeds = range(self.seed + per * cycle, self.seed + per * (cycle + 1))
        rows = self.exp.run_noise_sweep([inst], self.params["k"], [delta], seeds)
        return rows, self.emit(rows)

    def check(self, out):
        rows, data = out
        return data, all(r["ok"] for r in rows)


class Verify(Workload):
    """Exhaustive checkers: one instance and its two checks per item.

    Corpus instances get a full submodularity scan and a monotonicity scan
    (both pass); hard-pair sandwiches get the band check (passes) and a
    submodularity scan that stops at its first violation.
    """

    def __init__(self, api, seed, params, report_path):
        super().__init__(api, seed, params, report_path)
        adv = api["adversarial"]
        n = params["n"]
        self.items = [("corpus", f, None) for f in self.exp.instance_corpus(seed, sizes=(n,))]
        hard = adv.HardPairParams(*params["pair"])
        if hard.n != n:
            raise BenchError("verify: pair ground set differs from the corpus size")
        self.epsilon = hard.epsilon
        for j in range(params["sandwiches"]):
            pair = adv.build_monotone_pair(hard, adv.draw_hidden_set(n, hard.h, seed + j))
            self.items.append(("sandwich", adv.build_sandwich(pair), pair.fh))
        self.prefix = self.cycle = len(self.items)
        self._first_violation = {}

    def run(self, i):
        v = self.api["verify"]
        n = self.params["n"]
        j = i % len(self.items)
        kind, fn, rep = self.items[j]
        if kind == "corpus":
            return j, v.check_submodular(fn, n), v.check_monotone(fn, n)
        return j, v.check_sandwich(fn, rep, self.epsilon, n), v.check_submodular(fn, n)

    def check(self, out):
        j, first, second = out
        n = self.params["n"]
        size = 1 << n
        if self.items[j][0] == "corpus":
            ok = (first.passed and first.examined == size * (size + 1) // 2
                  and second.passed and second.examined == n * size // 2)
        else:
            ok = (first.passed and first.examined == size
                  and not second.passed and self._witness_ok(j, second))
        record = json.dumps([_report_tuple(first), _report_tuple(second)]).encode()
        return record, ok

    def _witness_ok(self, j, rep) -> bool:
        """The witness is the first violation in (S, T) order, found by a
        plain exact scan, and the count examined stops at it."""
        if j not in self._first_violation:
            Subset = self.api["sets"].Subset
            n = self.params["n"]
            size = 1 << n
            vals = [self.items[j][1].value(Subset(n, m)) for m in range(size)]
            self._first_violation[j] = next(
                ((s, t) for s in range(size) for t in range(s, size)
                 if vals[s | t] + vals[s & t] > vals[s] + vals[t]), None)
        s, t = rep.counterexample[0].mask, rep.counterexample[1].mask
        position = (s + 1) * (1 << self.params["n"]) - s * (s + 1) // 2
        return (s, t) == self._first_violation[j] and rep.examined == position


def _report_tuple(rep):
    cx = rep.counterexample
    if cx is None:
        witness = None
    elif rep.property_name == "submodular":
        witness = [cx[0].mask, cx[1].mask]
    elif rep.property_name == "monotone":
        witness = [cx[0].mask, cx[1]]
    else:
        witness = [cx[0].mask, str(cx[1]), str(cx[2])]
    return [rep.property_name, rep.instance, rep.passed, rep.examined, witness]


class GreedyScale(Workload):
    """``trap`` at one ground-set size per item; the seed orders the sizes."""

    def __init__(self, api, seed, params, report_path):
        super().__init__(api, seed, params, report_path)
        self.order = list(range(params["n_min"], params["n_max"] + 1, 2))
        random.Random(seed).shuffle(self.order)
        self.expected = api["solvers"].expected_greedy_queries
        self.prefix = self.cycle = len(self.order)

    def run(self, i):
        n = self.order[i % len(self.order)]
        rows, _ = self.exp.run_trap(self.params["k"], self.params["beta"], n)
        return rows, self.emit(rows)

    def check(self, out):
        # run_trap raises if an override set leaves the band.
        rows, data = out
        ok = all(r["queries"] == self.expected(r["n"], r["k"]) for r in rows)
        return data, ok


WORKLOADS = {"decoy": Decoy, "sweep": Sweep, "verify": Verify, "greedy-scale": GreedyScale}


def set_up(name: str, seed: int, params: dict):
    """Import the program and build the workload's inputs; returns
    (api, workload, seconds taken)."""
    os.makedirs(WORK, exist_ok=True)
    report_path = os.path.join(WORK, f"report-{os.getpid()}.csv")
    t0 = time.perf_counter()
    api = import_program()
    workload = WORKLOADS[name](api, seed, params, report_path)
    return api, workload, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Tracing: wrappers installed under the names callers look callables up by
# ---------------------------------------------------------------------------

def _add_queries(st, args, result):
    st["queries"] += result.queries_used


def _add_examined(st, args, result):
    st["examined"] += result.examined


def _add_report_bytes(st, args, result):
    st["bytes"] += os.path.getsize(args[1])


def _add_decoy_queries(st, args, result):
    st["queries"] += result[3]


# (owner, attribute, layer name, keep spans, post hook).  Per-query
# boundaries (query, value, hash) only feed counters; the rest also keep one
# span per call.  `experiments` binds its imports by name, so its callees are
# wrapped there rather than in their defining modules.
LAYERS = [
    ("experiments", "_sandwich_greedy_fast", "experiments.decoy_greedy", True, _add_decoy_queries),
    ("experiments", "draw_hidden_set", "adversarial.draw_hidden_set", True, None),
    ("experiments", "brute_force", "solvers.brute_force", True, _add_queries),
    ("experiments", "greedy_cardinality", "solvers.greedy_cardinality", True, _add_queries),
    ("experiments", "emit_report", "experiments.emit_report", True, _add_report_bytes),
    ("verify", "tabulate", "verify.tabulate", True, None),
    ("verify", "check_submodular", "verify.check_submodular", True, _add_examined),
    ("verify", "check_monotone", "verify.check_monotone", True, _add_examined),
    ("verify", "check_sandwich", "verify.check_sandwich", True, _add_examined),
    ("noise", "subset_unit", "noise.subset_unit", False, None),
    ("sets.ValueOracle", "query", "sets.query", False, None),
    ("adversarial.SandwichFunction", "value", "adversarial.sandwich.value", False, None),
    ("adversarial.GreedyTrapInstance", "value", "functions.greedy_trap.value", False, None),
    ("functions.AdditiveFunction", "value", "functions.additive.value", False, None),
    ("functions.BudgetAdditiveFunction", "value", "functions.budget_additive.value", False, None),
    ("functions.CoverageFunction", "value", "functions.coverage.value", False, None),
    ("functions.ConcaveCardinalityFunction", "value", "functions.concave_cardinality.value", False, None),
    ("functions.SumFunction", "value", "functions.sum.value", False, None),
]


class Tracer:
    """Per-layer counters and in-memory spans.

    A layer's self time is its own duration minus the time of the wrapped
    callables it calls.  Spans of one work item share the item's index; the
    caller writes them out when the run ends.
    """

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.item = None
        self._child_time = []
        self._open_spans = []
        self._t0 = time.perf_counter()

    def wrap(self, fn, name, keep_span, post):
        st = self.stats.setdefault(
            name, {"calls": 0, "self_s": 0.0, "queries": 0, "examined": 0, "bytes": 0})
        child_time = self._child_time
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if keep_span:
                span_id = len(spans)
                parent = open_spans[-1] if open_spans else None
                spans.append(None)
                open_spans.append(span_id)
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                st["calls"] += 1
                st["self_s"] += (t1 - t0) - child_time.pop()
                if child_time:
                    child_time[-1] += t1 - t0
                if keep_span:
                    open_spans.pop()
                    spans[span_id] = (span_id, parent, self.item, name,
                                      t0 - self._t0, t1 - self._t0)
            if post is not None:
                post(st, args, result)
            return result

        return traced


def layer_owner(api, owner_path: str):
    """The module or class a LAYERS entry patches, e.g. ``sets.ValueOracle``."""
    module, _, cls = owner_path.partition(".")
    return getattr(api[module], cls) if cls else api[module]


@contextlib.contextmanager
def installed(api, tracer):
    """Install the tracer's wrappers for the ``with`` body; restore the originals after."""
    saved = []
    try:
        for owner_path, attr, name, keep_span, post in LAYERS:
            owner = layer_owner(api, owner_path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, keep_span, post))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def calibrate() -> float:
    """Seconds one fixed kernel takes now, with the collector paused.

    The kernel mixes the four kinds of work the program does: integer
    bytecode, small-object allocation with dict and str traffic, Fraction
    arithmetic, and numpy slicing.  It must never change: every scaled
    timing is relative to it.  Needs numpy already imported.
    """
    from fractions import Fraction

    import numpy as np

    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    try:
        acc = 0
        for i in range(7500):
            acc += i * i % 7
        table = {}
        for i in range(1500):
            table[i & 255] = _Cell(i)
            acc += len(str(i)) + table[i & 255].v
        third = Fraction(1, 3)
        total = Fraction(0)
        for i in range(150):
            total += third * i
        masks = np.arange(4096, dtype=np.int64)
        for i in range(50):
            ts = masks[i:]
            acc += int(np.count_nonzero((masks[i] | ts) > (masks[i] & ts)))
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def scaled_setup(seconds: float) -> float:
    """A set-up time at the reference speed, calibrated right after it."""
    return seconds * CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(3))


# ---------------------------------------------------------------------------
# Running, checking, summarizing
# ---------------------------------------------------------------------------

@dataclass
class Timing:
    """Per-item seconds, raw and at the reference speed, and the wall time."""

    raw: list
    scaled: list
    elapsed: float


def run_items(workload, seconds: float, min_items: int, tracer: Tracer | None = None):
    """Run items 0, 1, ... until ``seconds`` have passed, at least
    ``min_items`` ran, and the last cycle of the workload's inputs is whole
    (so every run weighs each input alike).  Returns (outputs, Timing); an
    item that raised has output None."""
    run = workload.run
    if tracer is not None:
        root = tracer.wrap(workload.run, "bench.item", True, None)

        def run(i):
            tracer.item = i
            return root(i)

    outs, blocks, kernels = [], [[]], [calibrate()]
    clock = time.perf_counter
    start = clock()
    i = 0
    while i < min_items or i % workload.cycle or clock() - start < seconds:
        t0 = clock()
        try:
            out = run(i)
        except Exception:  # an item failure is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        blocks[-1].append(clock() - t0)
        outs.append(out)
        i += 1
        if sum(blocks[-1]) >= CALIBRATE_EVERY_S:
            kernels.append(calibrate())
            blocks.append([])
    if blocks[-1]:
        kernels.append(calibrate())
    else:
        blocks.pop()
    elapsed = clock() - start
    raw, scaled = [], []
    for b, block in enumerate(blocks):
        # Kernel b ran just before block b and kernel b+1 just after it.
        near = kernels[max(0, b + 1 - CALIBRATION_WINDOW):b + 1 + CALIBRATION_WINDOW]
        factor = CALIBRATION_REF_S / statistics.median(near)
        raw += block
        scaled += [dt * factor for dt in block]
    return outs, Timing(raw, scaled, elapsed)


def check_items(workload, outs):
    """(failed item count, sha256 over the first ``prefix`` item records)."""
    digest = hashlib.sha256()
    failed = 0
    for i, out in enumerate(outs):
        record, ok = b"error", False
        if out is not None:
            try:
                record, ok = workload.check(out)
            except Exception:  # a malformed output fails its item
                traceback.print_exc(file=sys.stderr)
        failed += not ok
        if i < workload.prefix:
            digest.update(len(record).to_bytes(8, "little"))
            digest.update(record)
    return failed, digest.hexdigest()


def prefix_digest(name: str, seed: int, params: dict | None = None):
    """Run the reference prefix once, untimed; returns (failed, digest)."""
    _, workload, _ = set_up(name, seed, FULL[name] if params is None else params)
    try:
        outs, _ = run_items(workload, 0, workload.prefix)
        return check_items(workload, outs)
    finally:
        _remove(workload.report_path)


def latency_stats(latencies):
    """(median ms, tail ms, items beyond the tail, tail percentile).  The tail
    is the highest percentile with at least ten items beyond it."""
    ms = sorted(x * 1e3 for x in latencies)
    beyond = min(10, len(ms) - 1)
    idx = len(ms) - 1 - beyond
    return statistics.median(ms), ms[idx], beyond, 100.0 * (idx + 1) / len(ms)


def layer_metric(name: str, stats: dict, overhead: float, speed: float):
    """Value and unit of one per-layer metric, ``<layer>.<field>``; times are
    multiplied by ``speed`` to bring them to the reference speed."""
    if name == OVERHEAD:
        return overhead, "ratio"
    layer, _, field = name.rpartition(".")
    if layer not in stats or field not in FIELD_UNITS:
        raise BenchError(f"per-layer metric {name!r} names no traced layer field")
    st = stats[layer]
    self_s = st["self_s"] * speed
    if field == "self_s":
        value = self_s
    elif field == "us_per_query":
        value = self_s / st["queries"] * 1e6 if st["queries"] else 0.0
    elif field == "ns_per_pair":
        value = self_s / st["examined"] * 1e9 if st["examined"] else 0.0
    else:
        value = st[field]
    return value, FIELD_UNITS[field]


def load_spec() -> dict:
    if not os.path.isfile(SPEC):
        raise BenchError(f"{SPEC} not found")
    with open(SPEC) as fh:
        return json.load(fh)


def load_reference(name: str, seed: int) -> str | None:
    """Stored digest of the full-size reference prefix for this seed, if any."""
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    return refs["digests"].get(name, {}).get(str(seed))


def probe_setup(name: str, seed: int, params: dict) -> float:
    """Time the set-up in a fresh interpreter; waits for it to exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe", json.dumps(params)]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def provenance(name: str, seed: int, params: dict) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "params": params,
        "threads": 1,
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_rev": _git_rev(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _remove(path: str):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  params: dict | None = None, reference: str | None = None,
                  setup_probes: int = SETUP_PROBES) -> dict:
    """One benchmark run.  Returns {"result", "provenance", "table", "trace"}:
    ``result`` is the object the last output line carries."""
    params = FULL[name] if params is None else params
    spec = load_spec()
    api, workload, setup_raw = set_up(name, seed, params)
    setup_s = scaled_setup(setup_raw)
    info = provenance(name, seed, params)
    try:
        if trace:
            outs, plain = run_items(workload, 0, workload.prefix)
            tracer = Tracer()
            with installed(api, tracer):
                traced_outs, traced = run_items(workload, 0, workload.prefix, tracer)
            failed, digest = check_items(workload, outs)
            traced_failed, traced_digest = check_items(workload, traced_outs)
            attempted = len(outs) + len(traced_outs)
            failed += traced_failed
            if traced_digest != digest:
                print("tracing changed the output digest", file=sys.stderr)
                failed = attempted
            overhead = (len(traced_outs) / sum(traced.scaled)) / (len(outs) / sum(plain.scaled))
            speed = sum(traced.scaled) / sum(traced.raw)
            values = {m["name"]: layer_metric(m["name"], tracer.stats, overhead, speed)
                      for m in spec["per_layer"]}
            info.update(traced_digest=traced_digest, speed_factor=speed)
        else:
            outs, timing = run_items(workload, seconds, workload.prefix)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            failed, digest = check_items(workload, outs)
            attempted = len(outs)
            setups = [setup_s] + [probe_setup(name, seed, params) for _ in range(setup_probes)]
            p50, tail, beyond, pct = latency_stats(timing.scaled)
            known = {
                "setup_s": statistics.median(setups),
                "items_per_s": attempted / sum(timing.scaled),
                "item_ms_p50": p50,
                "item_ms_tail": tail,
                "peak_rss_mb": peak_rss_mb,
            }
            values = {m["name"]: (known[m["name"]], END_TO_END_UNITS[m["name"]])
                      for m in spec["end_to_end"]}
            raw_p50, raw_tail, _, _ = latency_stats(timing.raw)
            info.update(setup_samples_s=setups, setup_raw_s=setup_raw,
                        elapsed_s=timing.elapsed, tail_percentile=pct, tail_items_beyond=beyond,
                        speed_factor=sum(timing.scaled) / sum(timing.raw),
                        raw={"items_per_s": attempted / timing.elapsed,
                             "item_ms_p50": raw_p50, "item_ms_tail": raw_tail})
    finally:
        _remove(workload.report_path)
    if reference is not None and digest != reference:
        print(f"digest {digest} differs from the reference {reference}", file=sys.stderr)
        failed = attempted
    info.update(items=attempted, prefix=workload.prefix, digest=digest,
                reference=reference, failed_fraction=failed / attempted)
    table = [f"{name} seed={seed} trace={int(trace)} items={attempted}"]
    table += [f"  {metric:<44} {value:.6g} {unit}" for metric, (value, unit) in values.items()]
    table.append(f"  {'failed_fraction':<44} {failed / attempted:.6g} fraction"
                 f" ({failed} of {attempted})")
    if not trace:
        table.append(f"  item_ms_tail is p{pct:.2f}: {beyond} of {attempted} items beyond it")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in values.items()},
    }
    out = {"result": result, "provenance": info, "table": table}
    if trace:
        out["trace"] = {"layers": tracer.stats, "spans": tracer.spans}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe is not None:
            _, _, seconds = set_up(args.workload, args.seed, json.loads(args.setup_probe))
            print(repr(scaled_setup(seconds)))
            return 0
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                            reference=load_reference(args.workload, args.seed))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"provenance": out["provenance"], **out["trace"]}, fh)
        out["provenance"]["trace_file"] = os.path.relpath(path, ROOT)
    print("\n".join(out["table"]))
    print("provenance " + json.dumps(out["provenance"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
