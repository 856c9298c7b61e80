"""Layer spans timed from outside, by wrapping public methods.

Nothing under ``src/`` knows it is traced: :class:`SpanTracer` replaces a
bound method on one instance (or a function on a class) with a wrapper that
times the call.  Spans nest through a stack, so a span's *self* time is its
duration minus the time its wrapped children cover.  Spans are aggregated in
memory as count / total / self per name; the raw spans of the first few
requests are also kept for a Chrome trace-event file.
"""

from __future__ import annotations

import time
from typing import Callable


class SpanTracer:
    """In-memory span aggregation for one traced phase."""

    def __init__(self, keep_requests: int = 0):
        #: name → [count, total_s, self_s]
        self.totals: dict[str, list] = {}
        #: raw spans (name, start_s, duration_s, request) of the first
        #: ``keep_requests`` requests
        self.events: list[tuple] = []
        self.keep_requests = keep_requests
        #: index of the request in progress (spans are tagged with it);
        #: the harness bumps it before each request
        self.request = -1
        self._stack: list[list[float]] = []

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call is recorded as a span ``name``."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - covered[0]
                if 0 <= tracer.request < tracer.keep_requests:
                    tracer.events.append((name, start, duration, tracer.request))

        return traced

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` with its traced version."""
        setattr(obj, attr, self.span(name, getattr(obj, attr)))

    def wrap_session(self, session) -> None:
        """Wrap every layer boundary below one session's driver.

        Span names are ``<layer>.<boundary>``; ``hdl.edge`` is ``sim.step``,
        whose self time is the edges and wheel jumps between its settles.
        """
        sim = session.system.sim
        engine = session.driver.engine
        self.wrap(sim, "settle", "hdl.settle")
        self.wrap(sim, "step", "hdl.edge")
        self.wrap(sim, "fast_forward_limit", "hdl.ff_scan")
        self.wrap(engine.framer, "frame", "messages.frame")
        self.wrap(engine.deframer, "push", "messages.deframe")
        self.wrap(engine.host, "send_words", "link.host_port")
        self.wrap(engine.host, "recv_word", "link.host_port")

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def as_dict(self) -> dict:
        return {name: {"count": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.totals.items()}


def chrome_events(events: list, pid: int, label: str, origin: float) -> list[dict]:
    """Raw spans as Chrome trace-event "complete" events (microseconds)."""
    out: list[dict] = [{"ph": "M", "name": "process_name", "pid": pid,
                        "args": {"name": label}}]
    for name, start, duration, request in events:
        out.append({
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (start - origin) * 1e6, "dur": duration * 1e6,
            "pid": pid, "tid": 1, "args": {"request": request},
        })
    return out
