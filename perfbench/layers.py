"""The traced run: spans at layer boundaries and the per-layer metrics.

Spans are recorded by this file around calls into each layer's public
functions; nothing inside ``src/`` is instrumented.  A span is
``[id, parent, request id, name, start, end]`` (``perf_counter``
seconds), kept in memory and written out when the run ends.  A service
request's span holds one child, ``worker.parse``, whose duration is the
worker's own ``ServiceResult.elapsed_ms``; the worker clock is not ours,
so the child is centred in its parent and only its length is measured.

Which end-to-end metric each group should move:

* compile pipeline (``grammar_parser``, ``autocomplete``, ``attrcheck``,
  ``ir``, ``closures``) -> ``setup_s``; the pool pays it once per worker,
  seen as ``worker.cold_parser_ms``;
* ``engine.*`` -> ``lib-tree`` and ``lib-triage`` throughput and latency;
* ``parsetree.build_us`` / ``nodes_per_op`` -> ``lib-tree`` latency and
  ``peak_rss_mb``;
* ``diagnose.*`` -> ``lib-triage`` p99 and throughput;
* ``parsetree.to_jsonable_us``, ``wire.*``, ``worker.*``, ``supervisor.*``
  and ``pool.*`` -> the service's throughput and latency, which no gated
  workload measures (see ``workloads.py``); the pool probes here run in
  every traced run.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time
from multiprocessing.reduction import ForkingPickler
from typing import Dict, List

from corpus import FORMATS, Corpus
import workloads

perf_counter = time.perf_counter

#: Repetitions of each timed call in the probes (the median is kept).
PROBE_REPS = 3
#: Length of each closed-loop pool probe.
POOL_PROBE_S = 2.0


class Tracer:
    """In-memory span and counter store."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._requests = 0

    def record(self, name, start, end, parent=None, rid=None) -> int:
        sid = len(self.spans) + 1
        self.spans.append([sid, parent, rid, name, start, end])
        return sid

    def open(self, name, parent=None, rid=None) -> int:
        return self.record(name, perf_counter(), None, parent, rid)

    def close(self, sid: int) -> float:
        span = self.spans[sid - 1]
        span[5] = perf_counter()
        return span[5] - span[4]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def request_span(self, submitted: float, done: float, elapsed: float) -> None:
        """A service request and its worker-time child."""
        self._requests += 1
        rid = f"req-{self._requests}"
        sid = self.record("service.request", submitted, done, rid=rid)
        begin = submitted + max(0.0, (done - submitted) - elapsed) / 2
        self.record("worker.parse", begin, begin + elapsed, parent=sid, rid=rid)
        self.count("service.requests")

    def self_times(self) -> Dict[str, dict]:
        """Per span name: count, total seconds, and self seconds (duration
        minus the time its children cover)."""
        covered: Dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        table: Dict[str, dict] = {}
        for sid, _, _, name, start, end in self.spans:
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered.get(sid, 0.0)
        return table

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["id", "parent", "request", "name", "start", "end"],
                    "spans": self.spans,
                    "counts": self.counts,
                    "self_times": self.self_times(),
                },
                handle,
            )


def _timed(tracer: Tracer, name: str, fn, *args, parent=None, rid=None, **kwargs):
    sid = tracer.open(name, parent, rid)
    result = fn(*args, **kwargs)
    return result, tracer.close(sid)


# ---------------------------------------------------------------------------
# Compile pipeline
# ---------------------------------------------------------------------------


def compile_probe(tracer: Tracer) -> dict:
    """Time each front-end, IR and closure-compiler stage, summed over the
    six grammars; the median over ``PROBE_REPS`` passes is kept."""
    from repro.core.attrcheck import check_grammar
    from repro.core.autocomplete import complete_grammar
    from repro.core.backends.closures import compile_grammar
    from repro.core.grammar_parser import parse_grammar
    from repro.core.ir import analyze, lower
    from repro.formats import registry

    passes = []
    for rep in range(PROBE_REPS):
        totals = dict.fromkeys(
            (
                "grammar_parser.parse_ms",
                "autocomplete.complete_ms",
                "attrcheck.check_ms",
                "ir.analyze_ms",
                "ir.lower_ms",
                "closures.compile_tree_ms",
                "closures.compile_elided_ms",
            ),
            0.0,
        )
        source_bytes = 0
        for fmt in FORMATS:
            spec = registry[fmt]
            rid = f"compile-{fmt}-{rep}"
            root = tracer.open("compile", rid=rid)
            kw = {"parent": root, "rid": rid}
            grammar, t = _timed(tracer, "grammar_parser.parse", parse_grammar, spec.grammar_text, **kw)
            totals["grammar_parser.parse_ms"] += t
            _, t = _timed(tracer, "autocomplete.complete", complete_grammar, grammar, **kw)
            totals["autocomplete.complete_ms"] += t
            _, t = _timed(tracer, "attrcheck.check", check_grammar, grammar, **kw)
            totals["attrcheck.check_ms"] += t
            analysis, t = _timed(tracer, "ir.analyze", analyze, grammar, **kw)
            totals["ir.analyze_ms"] += t
            _, t = _timed(tracer, "ir.lower", lower, grammar, analysis=analysis, **kw)
            totals["ir.lower_ms"] += t
            tree, t = _timed(
                tracer, "closures.compile_tree", compile_grammar, grammar,
                blackboxes=dict(spec.blackboxes), analysis=analysis, **kw,
            )
            totals["closures.compile_tree_ms"] += t
            elided, t = _timed(
                tracer, "closures.compile_elided", compile_grammar, grammar,
                blackboxes=dict(spec.blackboxes), elide_tree=True, analysis=analysis, **kw,
            )
            totals["closures.compile_elided_ms"] += t
            source_bytes += len(tree.source) + len(elided.source)
            tracer.close(root)
        passes.append(totals)
    metrics = {
        name: (statistics.median(p[name] for p in passes) * 1000.0, "ms")
        for name in passes[0]
    }
    metrics["closures.source_bytes"] = (source_bytes, "bytes")
    return metrics


# ---------------------------------------------------------------------------
# Engines, tree construction, serialization, diagnosis
# ---------------------------------------------------------------------------


def count_nodes(tree) -> int:
    from repro.core.parsetree import ArrayNode, Node

    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Node):
            stack.extend(node.children)
        elif isinstance(node, ArrayNode):
            stack.extend(node.elements)
    return count


def _median_call(tracer, name, fn, rid, *args, **kwargs):
    times = []
    for _ in range(PROBE_REPS):
        result, t = _timed(tracer, name, fn, *args, rid=rid, **kwargs)
        times.append(t)
    return result, statistics.median(times)


def engine_probe(corpus: Corpus, tracer: Tracer):
    """Per-op cost of each layer on every valid corpus input.

    Returns ``(metrics, fallbacks, rejects)``: ``rejects`` counts mutants
    the engines under test rejected with a structured failure.
    """
    from repro.core.errors import ParseFailure
    from repro.core.parsetree import tree_to_jsonable

    warm = workloads.lib_warm_inputs(corpus, mutants=True)
    parsers = workloads.build_parsers(corpus, "tree", warm)
    for index in warm:  # the elided engine too
        fmt, data, _ = corpus.inputs[index]
        parsers[fmt].try_parse(data, emit=None)
    fallbacks = workloads.count_fallbacks(parsers)

    per_fmt: Dict[str, Dict[str, List[float]]] = {
        fmt: {"tree": [], "validate": [], "build": [], "jsonable": []} for fmt in FORMATS
    }
    nodes, pickled, unpickled, sizes, serialize, parse_total = [], [], [], [], 0.0, 0.0
    for index in corpus.indices(mutants=False):
        fmt, data, _ = corpus.inputs[index]
        parser = parsers[fmt]
        rid = f"input-{index}"
        tree, t_tree = _median_call(tracer, "engine.tree", parser.parse, rid, data)
        _, t_val = _median_call(tracer, "engine.validate", parser.parse, rid, data, emit=None)
        jsonable, t_json = _median_call(tracer, "parsetree.to_jsonable", tree_to_jsonable, rid, tree)
        reply = {"kind": "tree", "tree": jsonable, "elapsed_ms": 1.0, "id": index, "pid": 1}
        blob, t_pickle = _median_call(tracer, "wire.pickle", ForkingPickler.dumps, rid, reply)
        _, t_unpickle = _median_call(tracer, "wire.unpickle", pickle.loads, rid, blob)
        row = per_fmt[fmt]
        row["tree"].append(t_tree)
        row["validate"].append(t_val)
        row["build"].append(t_tree - t_val)
        row["jsonable"].append(t_json)
        nodes.append(count_nodes(tree))
        pickled.append(t_pickle)
        unpickled.append(t_unpickle)
        sizes.append(len(blob))
        serialize += t_json + t_pickle + t_unpickle
        parse_total += t_tree
        tracer.count("parsetree.nodes", nodes[-1])

    rejects, diag = 0, []
    for index, (fmt, data, mutant) in enumerate(corpus.inputs):
        if not mutant:
            continue
        parser = parsers[fmt]
        rid = f"input-{index}"
        _, t_try = _median_call(tracer, "engine.try_parse", parser.try_parse, rid, data, emit=None)
        times, raised = [], False
        for _ in range(PROBE_REPS):
            sid = tracer.open("engine.parse_reject", rid=rid)
            try:
                parser.parse(data, emit=None)
            except ParseFailure:
                raised = True
            times.append(tracer.close(sid))
        rejects += raised
        diag.append(statistics.median(times) - t_try)
    tracer.count("diagnose.rejects", rejects)

    mean = statistics.fmean
    metrics = {}
    for fmt in FORMATS:
        row = per_fmt[fmt]
        metrics[f"engine.tree_us.{fmt}"] = (mean(row["tree"]) * 1e6, "us")
        metrics[f"engine.validate_us.{fmt}"] = (mean(row["validate"]) * 1e6, "us")
        metrics[f"parsetree.build_us.{fmt}"] = (mean(row["build"]) * 1e6, "us")
        metrics[f"parsetree.to_jsonable_us.{fmt}"] = (mean(row["jsonable"]) * 1e6, "us")
    metrics["parsetree.nodes_per_op"] = (mean(nodes), "count")
    metrics["wire.pickle_us"] = (mean(pickled) * 1e6, "us")
    metrics["wire.unpickle_us"] = (mean(unpickled) * 1e6, "us")
    metrics["wire.reply_bytes_per_op"] = (mean(sizes), "bytes")
    metrics["wire.serialize_to_parse_ratio"] = (serialize / parse_total, "ratio")
    metrics["diagnose.us_per_reject"] = (mean(diag) * 1e6, "us")
    metrics["diagnose.rejects"] = (rejects, "count")
    return metrics, fallbacks, rejects


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


def _closed_probe(service, corpus, seed, workers, name):
    start = perf_counter() + 0.2
    outcome = workloads.Outcome(name, [], start, start + POOL_PROBE_S)
    workloads.closed_loop_service(service, corpus, outcome, seed, "tree", workers)
    return outcome


def _rtt(service, data, fmt, emit):
    done = [0.0]
    begin = perf_counter()
    future = service.submit(data, format=fmt, emit=emit)
    future.add_done_callback(lambda _f: done.__setitem__(0, perf_counter()))
    result = future.result().raise_for_status()
    return begin, done[0], result


def pool_probe(corpus: Corpus, tracer: Tracer, seed: int):
    """Cold start, unloaded round trips, queue wait and scaling.

    A short closed loop of ``nproc`` callers sending ``emit="tree"`` gives
    the loaded overhead.  Returns ``(metrics, failures)``.
    """
    workers = workloads.usable_cpus()
    emit = "tree"
    failures = 0
    service, _, cold = workloads.start_pool(corpus, emit, workers)
    try:
        warm = workloads.warm_pool(service, corpus, emit, workers)
        cold_ms = sum(
            statistics.median(cold[fmt]) - statistics.median(warm[fmt]) for fmt in FORMATS
        ) * 1000.0
        rtts, overheads, busy = [], [], []
        for index in corpus.indices(mutants=False):
            fmt, data, _ = corpus.inputs[index]
            begin, end, result = _rtt(service, data, fmt, emit)
            elapsed = result.elapsed_ms / 1000.0
            tracer.request_span(begin, end, elapsed)
            rtts.append(end - begin)
            overheads.append(end - begin - elapsed)
            busy.append(elapsed)
        unloaded_overhead = statistics.median(overheads)
        loaded = _closed_probe(service, corpus, seed, workers, "svc-tree-probe")
        failures += loaded.failed
        counters = service.stats()
    finally:
        service.close()
    waits = [(done - sub - elapsed) - unloaded_overhead for sub, done, elapsed in loaded.requests]
    wall = loaded.t_end - loaded.t_start
    busy_frac = sum(r[2] for r in loaded.requests) / (wall * workers)

    service, _, _ = workloads.start_pool(corpus, "tree", 1)
    try:
        single = _closed_probe(service, corpus, seed, workers, "svc-tree-1")
    finally:
        service.close()
    failures += single.failed
    scaling = len(loaded.ends) / max(1, len(single.ends))

    metrics = {
        "worker.busy_ms_p50": (statistics.median(busy) * 1000.0, "ms"),
        "worker.cold_parser_ms": (cold_ms, "ms"),
        "supervisor.rtt_unloaded_ms_p50": (statistics.median(rtts) * 1000.0, "ms"),
        "supervisor.overhead_ms_p50": (unloaded_overhead * 1000.0, "ms"),
        "supervisor.queue_wait_ms_p50": (workloads.percentile(waits, 0.50) * 1000.0, "ms"),
        "supervisor.queue_wait_ms_p99": (workloads.percentile(waits, 0.99) * 1000.0, "ms"),
        "pool.busy_frac": (busy_frac, "ratio"),
        "pool.scaling_1_to_nproc": (scaling, "ratio"),
        "pool.retries": (counters["retries"], "count"),
        "pool.respawns": (counters["respawns"], "count"),
        "pool.shed": (counters["shed"], "count"),
    }
    return metrics, failures
