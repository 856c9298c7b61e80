"""One (workload, backend) measurement, run in its own fresh process.

``run.py`` starts this script once per backend with a JSON spec as its only
argument; it prints one JSON object on its last stdout line.  The phases:

1. **set-up** — one untimed cold build (lazy imports, first-use caches),
   then ``SETUP_BUILDS`` timed ones.  Each timed set-up covers
   ``build_system``, ``Session`` and accelerator construction and the first
   request (request 0), with the default ``lint="warn"`` so lint, dataflow
   and codegen count.
2. **measured phase** — on the last set-up system, fixed-size segments of
   requests until the time budget is spent, never fewer than the
   workload's prefix.
3. **traced phase** (trace runs only) — a fresh system, wrapped by
   :class:`tracing.SpanTracer`, runs exactly the prefix again.  Its cycles
   and counters must equal the measured phase's: the wrappers do not
   perturb the simulation.

Wall times are corrected for the host's momentary speed (see
:func:`host_probe`) before their medians are taken.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from typing import Callable, Optional

from tracing import SpanTracer
from workloads import WORKLOADS, Workload

from repro import Session
from repro.analysis import counters_for
from repro.analysis.lint import Linter

SETUP_BUILDS = 7
#: raw spans are kept for this many requests of the traced phase
TRACE_EVENT_REQUESTS = 20
#: failures described in full; the rest are only counted
MAX_ERRORS = 5

PROBE_ITERATIONS = 20_000
#: the host is probed at least this often, in seconds of requests
PROBE_INTERVAL_S = 0.02
#: what :func:`host_probe` takes on an uncontended host: 2-core x86 VM,
#: CPython 3.11 (its minimum over 3000 calls there was 0.99 ms)
PROBE_REFERENCE_S = 1.0e-3

#: counters that are a level (static, or a high-water mark), not a running
#: total: their prefix value is the value at the end of the prefix
LEVEL_COUNTERS = {
    "kernel.peak_queue_depth", "kernel.tracked_procs", "kernel.always_procs",
    "kernel.compiled_procs", "kernel.fallback_procs", "kernel.vectorized_cells",
    "kernel.masks_elided", "kernel.branches_folded",
    "engine.in_flight_highwater", "engine.queue_highwater",
    "issue.window_depth", "issue.window_occupancy_max",
}


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The benchmark shares its host: neighbours slow the whole VM by up to 2x
    for seconds at a time, and raw segment throughputs moved 20% from run
    to run.  Requests are timed in stretches of about ``PROBE_INTERVAL_S``
    (one request, if longer), each bracketed by this probe, and a stretch's
    time is scaled by ``PROBE_REFERENCE_S / probe``: the time it would have
    taken on an uncontended host.  The probe is the benchmark's own code, so no change
    to the program moves it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def counter_snapshot(session: Session) -> dict:
    """Every counter the layers expose, flattened to name → number."""
    report = counters_for(session.system, session.driver)
    link = report.link
    flat: dict = {
        "cycles": report.cycles,
        "dispatches": report.dispatches,
        "faults.words_dropped": link.get("downstream_faults", {}).get("words_dropped", 0),
        "faults.bits_flipped": link.get("downstream_faults", {}).get("bits_flipped", 0),
        "rx.crc_failures": link.get("rtm_receiver", {}).get("crc_failures", 0),
        "rx.nacks_sent": link.get("rtm_receiver", {}).get("nacks_sent", 0),
    }
    for section, values in (("kernel", report.kernel), ("engine", report.engine),
                            ("issue", report.issue)):
        for key, value in values.items():
            if isinstance(value, int) and not isinstance(value, bool):
                flat[f"{section}.{key}"] = value
    return flat


def counter_delta(before: dict, after: dict) -> dict:
    return {k: v if k in LEVEL_COUNTERS else v - before[k] for k, v in after.items()}


class ClosedLoop:
    """One client on one session: issue, time and check requests in order."""

    def __init__(self, workload: Workload, seed: int, backend: Optional[str]):
        self.workload = workload
        self.backend = backend or "event"
        self.requests = workload.requests(seed)
        self.index = 0
        #: wall seconds of every request, in order
        self.latencies: list[float] = []
        #: simulated cycle count after every request
        self.cycles: list[int] = []
        self.failed = 0
        self.errors: list[str] = []
        self.link_down = False

    def open(self, system) -> None:
        self.session = Session(system)
        self.client = self.workload.open(self.session)

    def step(self, execute: Optional[Callable] = None) -> float:
        """Run the next request; returns its wall time.  A request that
        raises or returns a wrong value counts as failed; the loop goes on."""
        execute = execute or self.workload.execute
        req = next(self.requests)
        index = self.index
        self.index += 1
        start = time.perf_counter()
        try:
            actual = execute(self.client, self.session, req)
        except Exception as err:  # a failed op is counted, not fatal
            elapsed = time.perf_counter() - start
            self._fail(f"{self.workload.name}: request {index} on {self.backend} "
                       f"raised {type(err).__name__}: {err}")
        else:
            elapsed = time.perf_counter() - start
            expected = self.workload.expected(req)
            if actual != expected:
                self._fail(f"{self.workload.name}: request {index} on {self.backend} "
                           f"returned {actual!r}, expected {expected!r}")
        self.latencies.append(elapsed)
        self.cycles.append(self.session.driver.cycles)
        self.link_down = self.session.driver.engine.link_down
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


class Setup:
    """One set-up: build, open the session and run request 0."""

    def __init__(self, workload: Workload, seed: int, backend: Optional[str]):
        probe = host_probe()
        self.loop = ClosedLoop(workload, seed, backend)
        t0 = time.perf_counter()
        system = workload.build(backend)
        t1 = time.perf_counter()
        self.loop.open(system)
        self.first_op_s = self.loop.step()
        self.total_s = time.perf_counter() - t0
        self.build_s = t1 - t0
        #: set-up time on an uncontended host (see host_probe)
        self.corrected_s = self.total_s * PROBE_REFERENCE_S / ((probe + host_probe()) / 2)
        if self.loop.failed:
            raise RuntimeError(f"set-up failed: {self.loop.errors[0]}")


def run_segments(loop: ClosedLoop, segment_requests: int, min_segments: int,
                 seconds: float, execute: Optional[Callable] = None,
                 at_prefix: Optional[Callable] = None) -> list[tuple[float, float]]:
    """Segments of requests until ``seconds`` pass, at least ``min_segments``.

    Returns ``(wall_s, corrected_s)`` per segment.  The host is probed after
    every ``PROBE_INTERVAL_S`` of requests and at the end of each segment;
    each stretch between two probes is corrected by their mean.  Stops
    early once the link is declared down.
    """
    segments: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    probe = host_probe()
    while len(segments) < min_segments or time.perf_counter() < deadline:
        wall = corrected = stretch = 0.0
        for i in range(segment_requests):
            stretch += loop.step(execute)
            if stretch >= PROBE_INTERVAL_S or i == segment_requests - 1:
                after = host_probe()
                wall += stretch
                corrected += stretch * PROBE_REFERENCE_S / ((probe + after) / 2)
                stretch = 0.0
                probe = after
        segments.append((wall, corrected))
        if len(segments) == min_segments and at_prefix is not None:
            at_prefix()
        if loop.link_down:
            break
    return segments


def corrected_ops_per_s(segments: list[tuple[float, float]], segment_ops: int) -> float:
    """Median segment throughput on an uncontended host (see host_probe)."""
    return statistics.median(segment_ops / corrected for _wall, corrected in segments)


def measure(workload: str, seed: int, backend: Optional[str], seconds: float,
            trace: bool, quick: bool = False, keep_events: bool = False) -> dict:
    w = WORKLOADS[workload]
    segment_requests = 1 if quick else w.segment_requests
    prefix_segments = 3 if quick else w.prefix_segments
    builds = 1 if quick else SETUP_BUILDS
    prefix_requests = segment_requests * prefix_segments
    segment_ops = segment_requests * w.ops_per_request

    # -- set-up -----------------------------------------------------------------
    cold_s = Setup(w, seed, backend).total_s
    lint_tracer = SpanTracer()
    plain_lint = Linter.lint
    if trace:
        Linter.lint = lint_tracer.span("setup.lint", plain_lint)
    corrected_s, build_s, first_op_s, lint_s = [], [], [], []
    setup = None
    try:
        for _ in range(builds):
            # every set-up starts from the same heap: the previous system is
            # collected outside the timing
            setup = None
            gc.collect()
            before = lint_tracer.self_s("setup.lint")
            setup = Setup(w, seed, backend)
            corrected_s.append(setup.corrected_s)
            build_s.append(setup.build_s)
            first_op_s.append(setup.first_op_s)
            lint_s.append(lint_tracer.self_s("setup.lint") - before)
    finally:
        Linter.lint = plain_lint
    loop = setup.loop
    gc.collect()

    # -- measured phase ---------------------------------------------------------
    start_counters = counter_snapshot(loop.session)
    prefix: dict = {}

    def take_prefix() -> None:
        prefix.update(counter_delta(start_counters, counter_snapshot(loop.session)))

    segments = run_segments(loop, segment_requests, prefix_segments, seconds,
                            at_prefix=take_prefix)
    if loop.link_down:
        # nothing more can be delivered: the rest of the prefix fails
        loop.failed += max(0, prefix_requests + 1 - loop.index)
    if not prefix:
        take_prefix()
    prefix_ops = prefix_requests * w.ops_per_request
    out: dict = {
        "workload": workload,
        "backend": loop.backend,
        "setup": {
            "cold_s": cold_s,
            "setup_s": statistics.median(corrected_s),
            "build_s": statistics.median(build_s),
            "first_op_s": statistics.median(first_op_s),
            "lint_s": statistics.median(lint_s),
            "compile_ms": loop.session.system.sim.kernel_stats.compile_ms,
        },
        "ops_per_s": corrected_ops_per_s(segments, segment_ops),
        "host_speed": (sum(corrected for _wall, corrected in segments)
                       / sum(wall for wall, _corrected in segments)),
        "segments": len(segments),
        "latencies_ms": [t * 1e3 for t in loop.latencies[1:]],
        "cycles": loop.cycles,
        "prefix_ops": prefix_ops,
        "cycles_per_op": prefix["cycles"] / prefix_ops,
        "counters": prefix,
        "attempted_ops": max(loop.index - 1, prefix_requests) * w.ops_per_request,
        "failed_ops": loop.failed * w.ops_per_request,
        "errors": loop.errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "traced": None,
        "events": [],
    }
    if trace and not loop.link_down:
        out["traced"], out["events"] = traced_phase(
            w, seed, backend, segment_requests, prefix_segments, keep_events)
        check_traced(out, loop)
    return out


def traced_phase(w: Workload, seed: int, backend: Optional[str],
                 segment_requests: int, prefix_segments: int,
                 keep_events: bool) -> tuple[dict, list]:
    """The prefix again on a fresh system, every layer boundary wrapped."""
    loop = Setup(w, seed, backend).loop
    tracer = SpanTracer(TRACE_EVENT_REQUESTS if keep_events else 0)
    tracer.wrap_session(loop.session)
    traced_execute = tracer.span("host.request", w.execute)

    def execute(client, session, req):
        tracer.request += 1
        return traced_execute(client, session, req)

    start_counters = counter_snapshot(loop.session)
    segments = run_segments(loop, segment_requests, prefix_segments, 0.0, execute)
    traced = {
        "ops_per_s": corrected_ops_per_s(segments, segment_requests * w.ops_per_request),
        "wall_s": sum(wall for wall, _corrected in segments),
        "spans": tracer.as_dict(),
        "counters": counter_delta(start_counters, counter_snapshot(loop.session)),
        "cycles": loop.cycles,
        "failed": loop.failed,
        "errors": loop.errors,
    }
    return traced, tracer.events


def check_traced(out: dict, untraced: ClosedLoop) -> None:
    """The traced prefix must repeat the untraced one exactly."""
    traced = out["traced"]
    for i, (a, b) in enumerate(zip(traced["cycles"], untraced.cycles)):
        if a != b:
            out["errors"].append(
                f"{out['workload']}: traced request {i} on {out['backend']} ended at "
                f"cycle {a}, expected {b} (untraced)")
            break
    for key, value in out["counters"].items():
        if traced["counters"].get(key) != value:
            out["errors"].append(
                f"{out['workload']}: traced counter {key} on {out['backend']} is "
                f"{traced['counters'].get(key)}, expected {value} (untraced)")
    out["failed_ops"] += traced["failed"] * WORKLOADS[out["workload"]].ops_per_request
    out["errors"].extend(traced["errors"])


def main() -> None:
    spec = json.loads(sys.argv[1])
    print(json.dumps(measure(**spec)))


if __name__ == "__main__":
    main()
