"""The workloads: set-up, timed loop, and the raw record of each op.

``lib-tree``   closed loop, 1 caller: ``Parser.parse(data)`` (tree mode).
``lib-triage`` closed loop, 1 caller: ``Parser.parse(data, emit=None)``
               over valid inputs and mutants, 50/50; a rejection's
               (error class, offset) is the op's result.

An op's time is the caller thread's CPU time (``time.thread_time``), which
is its wall time on an unshared CPU.  A shared host preempts a virtual
CPU: on a 2-vCPU cloud VM, about ten times a second for up to 20 ms,
which set the wall-clock p99 and moved wall-clock ops/s by 14% from run
to run.  Wall times are kept for the raw figures.  The loop samples the
host's speed (``hostspeed.py``) throughout, set-up included.

The service is not a workload here.  Through a pool of ``nproc`` workers,
``emit="tree"`` from ``nproc`` callers, its throughput halved within two
minutes on the same VM while a host-speed kernel pinned to each CPU held
steady, so no rescaling could steady it.  Its closed loop
(:func:`closed_loop_service`) drives the pool probes of the traced run.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import random
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List

import hostspeed
from corpus import FORMATS, Corpus, canonical, op_order

perf_counter = time.perf_counter
thread_time = time.thread_time

#: Parser sets built per in-process run; ``setup_s`` is their median.
LIB_SETUP_REPS = 9
#: Share of the loop run before timing starts (bytecode specialisation,
#: allocator and memo-table warm-up), capped at one second.
WARM_FRACTION = 0.1
#: Host-speed samples taken just before and just after each set-up.
SETUP_SAMPLES = 3
#: Spool files of spooled payloads go here rather than to the service's
#: default of ``/dev/shm``: the benchmark writes only inside its checkout.
#: So payloads over ``inline_bytes_max`` take a file on the checkout's
#: filesystem, not the shared-memory one users get by default.
SPOOL_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "spool")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB (0 when the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


#: Period of the CPU sampler (see :class:`CpuSampler`).
CPU_SAMPLE_S = 0.1


class CpuSampler:
    """CPU seconds of this process, read every ``CPU_SAMPLE_S`` on a thread
    of its own, so that CPU time can be cut into the same windows as the
    ops."""

    def __init__(self):
        self.points: List[tuple] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _read(self) -> None:
        self.points.append((perf_counter(), time.process_time()))

    def _run(self) -> None:
        while not self._stop.wait(CPU_SAMPLE_S):
            self._read()

    def __enter__(self) -> "CpuSampler":
        self._read()
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()
        self._read()


def cpu_between(points: List[tuple], begin: float, end: float) -> float:
    """CPU seconds spent between two ``perf_counter`` moments, interpolated
    linearly between the sampler's readings."""

    def at(moment: float) -> float:
        i = bisect.bisect_left(points, (moment,))
        if i == 0:
            return points[0][1]
        if i == len(points):
            return points[-1][1]
        (t0, c0), (t1, c1) = points[i - 1], points[i]
        return c0 + (c1 - c0) * (moment - t0) / (t1 - t0)

    return at(end) - at(begin)


@dataclass
class Outcome:
    """What one run of a workload produced."""

    workload: str
    #: (start, end, caller CPU seconds) of each set-up.
    setups: List[tuple]
    t_start: float
    t_end: float
    attempted: int = 0
    mismatches: int = 0
    service_errors: int = 0
    shed: int = 0
    fallbacks: int = 0
    #: (moment, CPU seconds) readings of this process.
    cpu_points: List[tuple] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Host-speed samples, (moment, kernel CPU seconds); see ``hostspeed``.
    speed: List[tuple] = field(default_factory=list)
    #: Completion time and latency in seconds of every op in the timed
    #: section, as flat arrays of doubles: 8 bytes an op, so that the record
    #: adds little to ``peak_rss_mb`` however many ops the host's speed
    #: allows.  The latency is CPU time in-process, wall time through the
    #: pool.
    ends: array = field(default_factory=lambda: array("d"))
    latencies: array = field(default_factory=lambda: array("d"))
    #: In-process: wall-clock latency of every op in the timed section.
    wall: array = field(default_factory=lambda: array("d"))
    #: Service: (submit, done, worker elapsed seconds) per timed request.
    requests: List[tuple] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.mismatches + self.service_errors + self.shed


def expected_result(corpus: Corpus, index: int, emit):
    """What an op on ``corpus.inputs[index]`` must return, in the form
    :meth:`Checker.check` compares: a canonical tree, ``True`` (validate)
    or (error class, offset)."""
    verdict = corpus.verdicts[index]
    if verdict[0] == "reject":
        return verdict[1:]
    return verdict[1] if emit == "tree" else True


class Checker:
    """Checks results against the reference verdicts.

    Each input's *first* result is checked when it arrives (inside the
    warm-up, which runs every input at least once), and every input runs
    once more after the timed section (the final pass), so results are
    checked both fresh and after thousands of parses.  Other results are
    dropped at once: holding trees would make the measured process's
    garbage collector walk them on every full collection.
    """

    def __init__(self, corpus: Corpus, emit, outcome: "Outcome"):
        self.corpus, self.emit, self.outcome = corpus, emit, outcome
        self.seen: set = set()

    def first(self, index: int, result) -> None:
        if index not in self.seen:
            self.seen.add(index)
            self.check(index, result)

    def check(self, index: int, result) -> None:
        """``result``: a tree, ``True``, or (class, offset); service
        replies are converted first by :func:`reply_result`."""
        from repro.core.parsetree import tree_to_jsonable

        if self.emit == "tree" and not isinstance(result, tuple):
            result = canonical(result if isinstance(result, dict) else tree_to_jsonable(result))
        if result != expected_result(self.corpus, index, self.emit):
            self.outcome.mismatches += 1

    def finish(self, final: Dict[int, object]) -> None:
        for index, result in final.items():
            self.check(index, result)


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def build_parsers(corpus: Corpus, emit, warm: List[int]):
    """The set-up users pay: one compiled parser per format, plus one op per
    warm input so lazily built engines (the tree-elided compilation, the
    diagnostic interpreter's tables) exist before timing."""
    from repro.core.errors import ParseFailure
    from repro.formats import registry

    parsers = {fmt: registry[fmt].build_parser() for fmt in FORMATS}
    for index in warm:
        fmt, data, _ = corpus.inputs[index]
        try:
            parsers[fmt].parse(data, emit=emit)
        except ParseFailure:
            pass
    return parsers


def count_fallbacks(parsers) -> int:
    """Parsers whose engine is not the one asked for."""
    return sum(1 for p in parsers.values() if p.backend != p.requested_backend)


def lib_warm_inputs(corpus: Corpus, mutants: bool) -> List[int]:
    warm = list(corpus.first_of_each_format().values())
    if mutants:
        seen = set()
        for index, (fmt, _, mutant) in enumerate(corpus.inputs):
            if mutant and fmt not in seen:
                seen.add(fmt)
                warm.append(index)
    return warm


def run(corpus: Corpus, workload: str, seed: int, seconds: float, tracer=None) -> Outcome:
    """``lib-tree`` / ``lib-triage``: one caller, closed loop, in-process."""
    from repro.core.errors import ParseFailure

    triage = workload == "lib-triage"
    emit = None if triage else "tree"
    warm = lib_warm_inputs(corpus, triage)
    clock = hostspeed.Inline()
    setups = []
    parsers = None
    for _ in range(LIB_SETUP_REPS):
        parsers = None
        gc.collect()
        for _ in range(SETUP_SAMPLES):
            clock.sample()
        begin, cpu = perf_counter(), thread_time()
        parsers = build_parsers(corpus, emit, warm)
        setups.append((begin, perf_counter(), thread_time() - cpu))
        for _ in range(SETUP_SAMPLES):
            clock.sample()

    def op(index):
        fmt, data, _ = corpus.inputs[index]
        try:
            return parsers[fmt].parse(data, emit=emit)
        except ParseFailure as exc:
            return (type(exc).__name__, exc.offset)

    indices = corpus.indices(mutants=triage)
    order = op_order(indices, random.Random(f"{seed}:{workload}"))
    t_start = perf_counter() + min(1.0, seconds * WARM_FRACTION)
    outcome = Outcome(workload, setups, t_start, t_start + seconds)
    checker = Checker(corpus, emit, outcome)
    ends, latencies, wall = outcome.ends, outcome.latencies, outcome.wall
    record = tracer.record if tracer is not None else None
    attempted = 0
    now = perf_counter()
    with CpuSampler() as sampler:
        while now < outcome.t_end:
            index = next(order)
            begin, cpu = perf_counter(), thread_time()
            result = op(index)
            cpu = thread_time() - cpu
            now = perf_counter()
            attempted += 1
            checker.first(index, result)
            if now >= t_start:
                ends.append(now)
                latencies.append(cpu)
                wall.append(now - begin)
            if record is not None:
                record("engine.parse", begin, now, rid=attempted)
            clock.poll(now)
    outcome.cpu_points = sampler.points
    outcome.speed = clock.samples
    outcome.attempted = attempted + len(indices)
    del result
    checker.finish({index: op(index) for index in indices})
    outcome.fallbacks = count_fallbacks(parsers)
    outcome.peak_rss_mb = peak_rss_mb(os.getpid())
    return outcome


# ---------------------------------------------------------------------------
# The pool, driven by the traced run's probes
# ---------------------------------------------------------------------------


def warm_pool(service, corpus: Corpus, emit, workers: int) -> Dict[str, List[float]]:
    """Send each format to every worker so each builds its parsers.

    Requests go out ``workers`` at a time: the supervisor hands each to a
    different idle worker.  Returns each format's first-round round-trip
    times (the cold ones) in seconds.
    """
    pids = set(service.audit()["worker_pids"])
    cold: Dict[str, List[float]] = {}
    for fmt, index in corpus.first_of_each_format().items():
        data = corpus.inputs[index][1]
        seen = set()
        for _ in range(10):
            begin = perf_counter()
            futures = [service.submit(data, format=fmt, emit=emit) for _ in range(workers)]
            rtts = []
            for future in futures:
                result = future.result()
                rtts.append(perf_counter() - begin)
                result.raise_for_status()
                seen.add(result.worker_pid)
            cold.setdefault(fmt, rtts)
            if pids <= seen:
                break
        else:
            raise RuntimeError(f"warm-up could not reach every worker for {fmt}")
    return cold


def start_pool(corpus: Corpus, emit, workers: int):
    """Start a pool and warm it; returns ``(service, seconds, cold_rtts)``."""
    from repro.service import ParseService

    os.makedirs(SPOOL_ROOT, exist_ok=True)
    begin = perf_counter()
    service = ParseService(workers=workers, spool_root=SPOOL_ROOT)
    try:
        cold = warm_pool(service, corpus, emit, workers)
    except BaseException:
        service.close()
        raise
    return service, perf_counter() - begin, cold


def reply_result(outcome: Outcome, result):
    """A service reply as a checkable result; ``None`` for a service error."""
    from repro.core.errors import ServiceError

    if result.error is None:
        return result.tree if result.kind == "tree" else result.kind == "ok"
    if isinstance(result.error, ServiceError):
        outcome.service_errors += 1
        return None
    return (type(result.error).__name__, result.error.offset)


def _final_pass(service, corpus: Corpus, emit, outcome: Outcome, checker: Checker):
    """Every input once more, after the timed section, then the check."""
    indices = corpus.indices(mutants=False)
    futures = {
        index: service.submit(corpus.inputs[index][1], format=corpus.inputs[index][0], emit=emit)
        for index in indices
    }
    final = {}
    for index, future in futures.items():
        result = reply_result(outcome, future.result())
        if result is not None:
            final[index] = result
    outcome.attempted += len(indices)
    checker.finish(final)


def closed_loop_service(service, corpus, outcome, seed, emit, callers):
    """``callers`` threads, each waiting for its reply before the next submit."""
    from repro.core.errors import ServiceOverloaded

    indices = corpus.indices(mutants=False)
    inputs = corpus.inputs
    checker = Checker(corpus, emit, outcome)
    lock = threading.Lock()

    def caller(k: int):
        order = op_order(indices, random.Random(f"{seed}:{outcome.workload}:{k}"))
        done = [0.0]

        def on_done(_future, done=done):
            done[0] = perf_counter()

        while True:
            index = next(order)
            fmt, data, _ = inputs[index]
            begin = perf_counter()
            if begin >= outcome.t_end:
                return
            try:
                future = service.submit(data, format=fmt, emit=emit)
            except ServiceOverloaded:
                with lock:
                    outcome.attempted += 1
                    outcome.shed += 1
                continue
            future.add_done_callback(on_done)
            reply = future.result()
            end = done[0]
            with lock:
                outcome.attempted += 1
                result = reply_result(outcome, reply)
                if result is not None:
                    checker.first(index, result)
                if end >= outcome.t_start:
                    outcome.ends.append(end)
                    outcome.latencies.append(end - begin)
                    if reply.elapsed_ms is not None:
                        outcome.requests.append((begin, end, reply.elapsed_ms / 1000.0))

    threads = [threading.Thread(target=caller, args=(k,)) for k in range(callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    _final_pass(service, corpus, emit, outcome, checker)
