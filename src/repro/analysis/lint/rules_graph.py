"""Graph rules: structural checks over the elaborated signal graph.

These rules look only at who drives what and who reads what — the facts the
probe pass and the AST pass establish per process.  The crucial refinement
over a naive process-granularity analysis is that combinational dependency
edges are taken **per write site** (``graph.comb-loop``): a process that
computes ``out.valid`` from ``inp.valid`` and, separately, ``inp.ready``
from ``out.ready`` does *not* create a loop between the two handshake
directions, even though the process as a whole reads and writes both.
Edges also never pass *through* a :class:`~repro.hdl.signal.Reg` — reading
a register returns the previously latched value, which is exactly what
breaks feedback in a synchronous design.
"""

from __future__ import annotations

from typing import Iterator

from ...hdl.signal import Reg, Signal
from .diagnostics import Diagnostic, Severity
from .engine import Rule, register_rule
from .model import DesignInfo


def _short(sig: Signal, design: DesignInfo) -> str:
    """Signal name relative to the design top (diagnostics readability)."""
    prefix = design.top.path + "."
    return sig.name[len(prefix):] if sig.name.startswith(prefix) else sig.name


@register_rule
class CombLoopRule(Rule):
    """Combinational feedback: a signal transitively drives itself."""

    id = "graph.comb-loop"
    severity = Severity.ERROR
    title = "combinational loop through plain signals"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        # dep -> {driven}: value/control edges of comb write sites, Regs
        # excluded on both sides (latched reads break feedback).
        edges: dict[Signal, set] = {}
        managed = set(design.signals)
        for rec in design.comb:
            for site in rec.resolved.writes:
                if site.kind != "set":
                    continue
                for tgt in site.targets:
                    if isinstance(tgt, Reg) or tgt not in managed:
                        continue
                    for dep in site.deps:
                        if isinstance(dep, Reg) or dep not in managed:
                            continue
                        edges.setdefault(dep, set()).add(tgt)
        for cycle in _cycles(edges):
            anchor = min(cycle, key=lambda s: s.name)
            path = " -> ".join(_short(s, design)
                               for s in sorted(cycle, key=lambda s: s.name))
            comp = anchor.owner.path if anchor.owner else design.top.path
            yield self.diag(
                comp,
                f"combinational cycle: {path}",
                signal=anchor.name,
                hint="break the feedback with a Reg (latched at the edge) or "
                     "restructure the processes so the dependency is one-way",
            )


def _cycles(edges: dict) -> list:
    """Strongly connected components with >1 node, plus self-loops.

    Iterative Tarjan — process functions can legally chain hundreds of
    stages, so no recursion.
    """
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list = []
    counter = [0]
    nodes = set(edges)
    for tgts in edges.values():
        nodes.update(tgts)

    for root in sorted(nodes, key=lambda s: s.name):
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()), key=lambda s: s.name)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append(
                        (succ, iter(sorted(edges.get(succ, ()),
                                           key=lambda s: s.name)))
                    )
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member is node:
                        break
                if len(scc) > 1:
                    sccs.append(scc)
                elif scc[0] in edges.get(scc[0], ()):  # self-loop
                    sccs.append(scc)
    return sccs


@register_rule
class MultiDriverRule(Rule):
    """Two processes drive the same signal (or comb logic drives a Reg)."""

    id = "graph.multi-driver"
    severity = Severity.ERROR
    title = "signal driven by more than one process"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        for sig in design.signals:
            entries = design.drivers_of(sig)
            procs = {}
            for rec, how in entries:
                procs.setdefault(id(rec), (rec, set()))[1].add(how)
            if len(procs) < 2:
                continue
            labels = sorted(rec.label for rec, _ in procs.values())
            comp = sig.owner.path if sig.owner else design.top.path
            yield self.diag(
                comp,
                f"driven by {len(procs)} processes: {', '.join(labels)}",
                signal=sig.name,
                hint="give the signal a single owning process; merge the "
                     "drivers or mux their contributions explicitly",
            )


@register_rule
class UndrivenReadRule(Rule):
    """A plain signal is read by some process but driven by none.

    It can only ever hold its reset value — either a missing connection or
    a constant that should be declared as one.  Registers are exempt: they
    are legitimately driven from the outside (host ports force them between
    cycles) and hold state by design.
    """

    id = "graph.undriven-read"
    severity = Severity.WARNING
    title = "signal read but never driven"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        if not design.write_closed:
            return  # an unattributable write could be the missing driver
        flagged: set = set()
        for sig in design.signals:
            if isinstance(sig, Reg):
                continue
            if not design.readers_of(sig):
                continue
            if design.drivers_of(sig):
                continue
            flagged.add(sig)
        # An unconnected stream would otherwise yield one diagnostic per
        # member signal; report the stream once, anchored on `valid`.
        stream_member: dict = {}
        for stream in design.streams:
            for member in (stream.valid, stream.ready, stream.payload):
                stream_member[member] = stream
        reported_streams: set = set()
        for sig in sorted(flagged, key=lambda s: s.name):
            stream = stream_member.get(sig)
            if stream is not None:
                if id(stream) in reported_streams:
                    continue
                reported_streams.add(id(stream))
                members = [m for m in (stream.valid, stream.ready, stream.payload)
                           if m in flagged]
                comp = stream.comp.path
                yield self.diag(
                    comp,
                    f"stream member(s) {', '.join(_short(m, design) for m in members)} "
                    "read but never driven (stream not connected?)",
                    signal=stream.valid.name,
                    hint="connect the stream (connect_from) or drive it from "
                         "a process; a deliberately constant input should be "
                         "a reset value on the reading side",
                )
            else:
                comp = sig.owner.path if sig.owner else design.top.path
                yield self.diag(
                    comp,
                    "read by processes but driven by none — it is stuck at "
                    f"its reset value {sig.reset!r}",
                    signal=sig.name,
                    hint="wire a driver, or fold the constant into the reader",
                )


@register_rule
class UnreadDriveRule(Rule):
    """A signal is driven but nothing in the design ever reads it.

    INFO severity: testbenches and host-side code legitimately observe
    signals from Python, which this analysis cannot see.  Inside a sealed
    design, though, an unread driven signal is usually dead logic.
    """

    id = "graph.unread-drive"
    severity = Severity.INFO
    title = "signal driven but never read"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        if not design.read_closed:
            return  # an unattributable read could be the missing reader
        for sig in sorted(design.signals, key=lambda s: s.name):
            entries = design.drivers_of(sig)
            if not entries:
                continue
            if design.readers_of(sig):
                continue
            drivers = sorted({rec.label for rec, _ in entries})
            comp = sig.owner.path if sig.owner else design.top.path
            yield self.diag(
                comp,
                f"driven by {', '.join(drivers)} but read by no process",
                signal=sig.name,
                hint="dead logic? remove the driver, or suppress if the "
                     "signal is observed from host/test code",
            )


@register_rule
class WidthMismatchRule(Rule):
    """A pure signal-to-signal copy silently truncates.

    Only exact ``dst.set(src.value)`` / ``dst.nxt = src.value`` shapes are
    checked: arithmetic, slicing and masking are deliberate re-widthing and
    stay exempt.  Payload (object) signals have no width and are skipped.
    """

    id = "graph.width-mismatch"
    severity = Severity.WARNING
    title = "copy between signals of different widths truncates"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        seen: set = set()
        for rec in design.procs:
            for site in rec.resolved.writes:
                src = site.src
                if src is None or src.width is None:
                    continue
                for tgt in site.targets:
                    if not isinstance(tgt, Signal) or tgt.width is None:
                        continue
                    if src.width <= tgt.width:
                        continue
                    key = (id(src), id(tgt), rec.index)
                    if key in seen:
                        continue
                    seen.add(key)
                    comp = tgt.owner.path if tgt.owner else design.top.path
                    yield self.diag(
                        comp,
                        f"copies {_short(src, design)} ({src.width}b) into "
                        f"{_short(tgt, design)} ({tgt.width}b): high bits are "
                        f"silently dropped ({rec.label}, line {site.line})",
                        signal=tgt.name,
                        hint="widen the destination, or slice the source "
                             "explicitly (src.bits(...)) to document the "
                             "truncation",
                    )
