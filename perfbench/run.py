"""One benchmark for the IPG pipeline, from in-process parsing to the pool.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lib-tree --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``lib-tree`` and ``lib-triage``.  Both
draw from the same seeded corpus (``corpus.py``) and check each input's
result against the reference interpreter's verdict, computed before
set-up starts.  The pool is measured only by the traced run's probes.

``--trace 0`` prints the end-to-end metrics, one per line with its unit,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``ops_per_s`` (one over the mean op time),
the latency percentiles and ``cpu_ms_per_op`` are taken over every op of
the timed section, which must hold at least ``MIN_SAMPLES`` ops so that
ten or more lie beyond the p99.  An op's time is the caller's CPU time
(see ``workloads.py``), rescaled to the reference host of
``hostspeed.py`` window by window, so that the host's own changes of
speed cancel out; the raw wall-clock figures are printed too.
``failed_frac`` is printed, not gated as a metric: any failed op makes
the run incorrect.

``--trace 1`` runs the workload twice for half the time each, untraced
and traced, then the layer probes (``layers.py``), and prints the
per-layer metrics instead.  Spans go to ``perfbench/out/``.

The exit code is 0 when every result matched the reference, no parser
fell back to another engine, and (traced) the engines rejected exactly
the mutants the reference rejects; 1 otherwise; 2 when the package under
test is missing or the run could not be measured.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Fewest timed ops a run may have: ten or more then lie beyond the p99.
MIN_SAMPLES = 1000

LOOPS = {
    "lib-tree": "closed loop, 1 caller, Parser.parse tree mode",
    "lib-triage": "closed loop, 1 caller, Parser.parse emit=None, 50% mutants",
}


class Unmeasurable(Exception):
    """The run produced too few ops to report its metrics."""


def machine() -> dict:
    import workloads

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": workloads.usable_cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def load_corpus(seed: int, mutants: bool):
    """Build the corpus and its reference verdicts in a child process.

    The child is a plain interpreter run of ``corpus.py`` that pickles the
    corpus to its standard output.  The pickle is read from the pipe as a
    stream, so the whole of it is never held in this process at once (its
    high-water mark is part of ``peak_rss_mb``).  The child is waited for,
    and killed first if this process is stopped, so no helper process
    outlives the call.
    """
    import pickle
    import subprocess

    import corpus  # noqa: F401  (the class the pickle refers to)

    args = [sys.executable, os.path.join(HERE, "corpus.py"), str(seed), str(int(mutants))]
    with subprocess.Popen(args, stdout=subprocess.PIPE) as child:
        try:
            loaded = pickle.load(child.stdout)
        except BaseException:
            child.kill()
            raise
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, args)
    return loaded


def rescaled(outcome):
    """Each timed op's latency on the reference host, and the scale."""
    from hostspeed import Scale

    scale = Scale(outcome.speed)
    windows = scale.windows(outcome.t_start, outcome.t_end)
    starts = [start for start, _, _ in windows]
    latencies = [
        latency * windows[max(0, bisect.bisect_right(starts, end) - 1)][2]
        for end, latency in zip(outcome.ends, outcome.latencies)
    ]
    return latencies, scale, windows


def end_to_end(outcome):
    """The end-to-end metrics of one untraced run, and a note per metric."""
    from workloads import cpu_between, percentile

    n = len(outcome.ends)
    if n < MIN_SAMPLES:
        raise Unmeasurable(
            f"{n} timed ops, fewer than the {MIN_SAMPLES} a p99 needs; raise --seconds"
        )
    latencies, scale, windows = rescaled(outcome)
    # CPU of the whole process, less the host-speed kernel's own.
    cpu = sum(
        (cpu_between(outcome.cpu_points, a, b) - sum(k for t, k in outcome.speed if a <= t < b))
        * f
        for a, b, f in windows
    )
    setups = [spent * scale.factor(begin, end) for begin, end, spent in outcome.setups]
    wall = outcome.t_end - outcome.t_start
    beyond = n - math.ceil(0.99 * n)
    metrics = {
        "ops_per_s": (n / sum(latencies), "ops/s", f"{n} ops"),
        "latency_p50_ms": (percentile(latencies, 0.50) * 1000.0, "ms", f"{n} samples"),
        "latency_p99_ms": (
            percentile(latencies, 0.99) * 1000.0, "ms", f"{n} samples, {beyond} beyond p99",
        ),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MiB", "VmHWM"),
        "cpu_ms_per_op": (cpu * 1000.0 / n, "ms", f"{n} ops"),
    }
    notes = {
        "failed_frac": (
            outcome.failed / outcome.attempted,
            "ratio",
            f"{outcome.mismatches} mismatched of {outcome.attempted}",
        ),
        "host.factor": (
            sum((b - a) * f for a, b, f in windows) / wall,
            "ratio",
            f"{len(outcome.speed)} host-speed samples",
        ),
        "raw.ops_per_s": (n / wall, "ops/s", "wall clock, not rescaled"),
        "raw.latency_p50_ms": (percentile(outcome.wall, 0.50) * 1000.0, "ms", "wall clock"),
        "raw.latency_p99_ms": (percentile(outcome.wall, 0.99) * 1000.0, "ms", "wall clock"),
        "raw.setup_s": (
            statistics.median(end - begin for begin, end, _ in outcome.setups), "s", "wall clock",
        ),
    }
    return metrics, notes


def traced_run(corpus, args):
    """Untraced and traced halves, then the layer probes."""
    import layers
    import workloads

    half = args.seconds / 2.0
    untraced = workloads.run(corpus, args.workload, args.seed, half)
    tracer = layers.Tracer()
    traced = workloads.run(corpus, args.workload, args.seed, half, tracer)

    metrics = layers.compile_probe(tracer)
    engine_metrics, fallbacks, rejects = layers.engine_probe(corpus, tracer)
    metrics.update(engine_metrics)
    fallbacks += untraced.fallbacks + traced.fallbacks
    metrics["engine.backend_fallbacks"] = (fallbacks, "count")
    pool_metrics, pool_failures = layers.pool_probe(corpus, tracer, args.seed)
    metrics.update(pool_metrics)

    def rate(outcome):  # the loop's wall-clock rate, spans included, rescaled
        windows = rescaled(outcome)[2]
        return len(outcome.ends) / sum((b - a) * f for a, b, f in windows)

    metrics["trace.overhead_frac"] = ((rate(untraced) - rate(traced)) / rate(untraced), "ratio")

    expected = corpus.expected_rejects()
    problems = []
    if rejects != expected:
        problems.append(f"engines rejected {rejects} mutants, reference {expected}")
    if fallbacks:
        problems.append(f"{fallbacks} parsers fell back to another engine")
    failed = untraced.failed + traced.failed + pool_failures
    if failed:
        problems.append(f"{failed} ops failed (mismatched, service errors or shed)")
    self_times = tracer.self_times()
    path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "machine": machine()})
    for name, row in sorted(self_times.items()):
        print(f"# self {name}: {row['self_s'] * 1000.0:.3f} ms over {row['count']} spans")
    print(f"# spans written to {os.path.relpath(path)}")
    return metrics, untraced.attempted + traced.attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LOOPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit so that ``finally`` blocks close the pools.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: package under test not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    corpus = load_corpus(args.seed, mutants=args.trace == 1 or args.workload == "lib-triage")
    print("# machine " + json.dumps(machine(), sort_keys=True))
    print(
        f"# workload {args.workload}: {LOOPS[args.workload]}; seed {args.seed}; "
        f"{args.seconds:g} s; corpus {len(corpus.indices(mutants=False))} inputs "
        f"+ {corpus.expected_rejects()} mutants"
    )
    try:
        if args.trace:
            metrics, attempted, failed, problems = traced_run(corpus, args)
            notes = {}
        else:
            outcome = workloads.run(corpus, args.workload, args.seed, args.seconds)
            metrics, notes = end_to_end(outcome)
            attempted, failed = outcome.attempted, outcome.failed
            problems = []
            if failed:
                problems.append(f"{failed} ops failed: {notes['failed_frac'][2]}")
            if outcome.fallbacks:
                problems.append(f"{outcome.fallbacks} parsers fell back to another engine")
    except Unmeasurable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, entry in {**metrics, **notes}.items():
        value, unit = entry[0], entry[1]
        detail = f"  ({entry[2]})" if len(entry) > 2 else ""
        print(f"{name:34s} {value:14.6g} {unit}{detail}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": entry[0], "unit": entry[1]}
                    for name, entry in metrics.items()
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
