"""Kernel-contract rules: declarations the event scheduler trusts blindly.

The event-driven kernel (see docs/ARCHITECTURE.md, "the discovery-pass
contract") schedules from *observed* behaviour: a combinational process
re-runs only when a signal it was seen reading changes; a ``seq(pure=True)``
process is put to sleep after an edge on which it staged nothing.  Both
optimisations are sound only if the declarations are honest — a violation
does not crash, it silently desynchronises the fast kernels from the
exhaustive reference.  These rules find the violations statically.

Every rule here under-approximates: a process whose body the AST pass could
not fully resolve (opaque calls, missing source) is given the benefit of
the doubt rather than flagged.
"""

from __future__ import annotations

from typing import Iterator

from ...hdl.signal import Reg, Signal
from .diagnostics import Diagnostic, Severity
from .engine import Rule, register_rule
from .model import DesignInfo, ProcRecord


def _hidden_reads_of_mutable(rec: ProcRecord, design: DesignInfo) -> list:
    """(source text, attr) for hidden loads of state some process mutates."""
    out = []
    for key, (text, _owner) in sorted(rec.resolved.hidden_loads.items(),
                                      key=lambda kv: kv[1][0]):
        if key in design.mutated_attrs:
            out.append((text, key[1]))
    return out


@register_rule
class HiddenCombReadRule(Rule):
    """A tracked comb process reads mutable Python state.

    The scheduler's sensitivity discovery only sees ``Signal.value`` reads.
    A combinational process whose output also depends on a plain attribute
    that *some* process mutates will not be re-run when that attribute
    changes — the fast kernel settles to a stale value the exhaustive
    kernel would have refreshed.  Declaring the process ``always=True``
    pins it to every settle iteration, restoring correctness.
    """

    id = "contract.hidden-comb-read"
    severity = Severity.ERROR
    title = "comb process reads mutated hidden state without always=True"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        for rec in design.comb:
            if rec.always or rec.resolved.parse_failed:
                continue
            hidden = _hidden_reads_of_mutable(rec, design)
            if not hidden:
                continue
            texts = ", ".join(sorted({t for t, _ in hidden}))
            yield self.diag(
                rec.comp.path,
                f"{rec.label} reads mutable hidden state ({texts}) invisible "
                "to sensitivity discovery — the event kernel will not re-run "
                "it when that state changes",
                hint="register it with comb(always=True), or carry the state "
                     "in a Signal/Reg so changes are tracked",
            )


@register_rule
class ImpurePureSeqRule(Rule):
    """A ``seq(pure=True)`` process touches hidden Python state.

    Purity is the licence for the edge scheduler to disarm the process
    after a no-stage edge.  Mutating an attribute (a counter, a queue)
    means dormant edges skip real work; reading mutated state means the
    process can be left asleep while its real inputs change.  Either way
    the fast kernel and the exhaustive kernel diverge.

    A suppression states the contract instead: a run that stages nothing
    mutates nothing.  The compiled backend schedules on that contract from
    the first edge — a proven pure process sleeps in a static wake slot
    even when it stores hidden state, and may run on a change the event
    kernel has not subscribed it to yet.
    """

    id = "contract.impure-pure-seq"
    severity = Severity.ERROR
    title = "seq(pure=True) process reads or mutates hidden state"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        for rec in design.seq:
            if not rec.pure or rec.resolved.parse_failed:
                continue
            if rec.resolved.hidden_stores or rec.resolved.nonlocal_stores:
                what = sorted(
                    {attr for (_oid, attr) in rec.resolved.hidden_stores}
                    | set(rec.resolved.nonlocal_stores)
                )
                yield self.diag(
                    rec.comp.path,
                    f"{rec.label} is declared pure but mutates hidden state "
                    f"({', '.join(what)}) — edges skipped while dormant lose "
                    "that work",
                    hint="drop pure=True, or move the state into a Reg so "
                         "every update is a staged, tracked write",
                )
                continue
            hidden = _hidden_reads_of_mutable(rec, design)
            if hidden:
                texts = ", ".join(sorted({t for t, _ in hidden}))
                yield self.diag(
                    rec.comp.path,
                    f"{rec.label} is declared pure but reads mutable hidden "
                    f"state ({texts}) — a change there cannot re-arm it, so "
                    "it may sleep through edges that matter",
                    hint="drop pure=True, or carry the state in a Signal/Reg",
                )


@register_rule
class UntrackedReadRule(Rule):
    """A tracked process bypasses read tracking via ``sig._value``.

    Private-slot access skips the ``_READS`` hook, so the scheduler never
    learns the dependency.  In untracked contexts (``always`` comb procs,
    impure seq procs) it is merely rude; in tracked ones it is a
    scheduling bug identical to a hidden-state read.
    """

    id = "contract.untracked-read"
    severity = Severity.ERROR
    title = "tracked process reads sig._value / sig._staged directly"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        for rec in design.procs:
            tracked = (rec.kind == "comb" and not rec.always) or \
                      (rec.kind == "seq" and rec.pure)
            if not tracked or rec.resolved.parse_failed:
                continue
            for (oid, attr), (text, owner) in sorted(rec.resolved.hidden_loads.items(),
                                                     key=lambda kv: kv[1][0]):
                if attr in ("_value", "_staged") and isinstance(owner, Signal):
                    yield self.diag(
                        rec.comp.path,
                        f"{rec.label} reads {text} — private access bypasses "
                        "sensitivity tracking, the scheduler cannot see this "
                        "dependency",
                        signal=owner.name,
                        hint="read .value (or .nxt for a staged register) "
                             "through the public API",
                    )


@register_rule
class WarpInProcRule(Rule):
    """``Signal.warp()`` called from inside a process.

    Warp deliberately skips change notification; it is reserved for
    time-wheel ``skip`` hooks batch-aging private counters between cycles.
    From inside a settle or edge phase it corrupts the fixpoint: readers
    are never re-evaluated against the new value.
    """

    id = "contract.warp-in-proc"
    severity = Severity.ERROR
    title = "warp() inside a process skips change notification"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        yield from _site_kind_diags(
            self, design, "warp",
            lambda rec: True,
            "calls warp() on {sig} — no reader is notified of the change, "
            "breaking the settled fixpoint",
            "warp is for wheel skip hooks only; use set() (comb) or "
            "stage()/.nxt (seq) inside processes",
        )


@register_rule
class ForceInProcRule(Rule):
    """``Signal.force()`` called from inside a process.

    Force bypasses the dirty flag and assumes a complete fanout map (it
    runs between cycles, from testbench/host code).  Mid-process it can
    drop wake-ups for first-time readers exactly like an unsynchronised
    write in real hardware.
    """

    id = "contract.force-in-proc"
    severity = Severity.ERROR
    title = "force() inside a process bypasses dirty tracking"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        yield from _site_kind_diags(
            self, design, "force",
            lambda rec: True,
            "calls force() on {sig} — the settle loop's dirty flag is not "
            "raised, the write can be lost by the event kernel",
            "processes must use set() / stage(); force() belongs to reset "
            "hooks and host-side code between cycles",
        )


def _site_kind_diags(rule, design, kind, want, message, hint):
    for rec in design.procs:
        for site in rec.resolved.writes:
            if site.kind != kind or not want(rec):
                continue
            for tgt in site.targets:
                sig_name = tgt.name if isinstance(tgt, Signal) else "?"
                yield rule.diag(
                    rec.comp.path,
                    f"{rec.label} " + message.format(sig=sig_name) +
                    f" (line {site.line})",
                    signal=sig_name if isinstance(tgt, Signal) else None,
                    hint=hint,
                )


@register_rule
class CombDrivesRegRule(Rule):
    """A combinational process writes the sequential domain."""

    id = "contract.comb-drives-reg"
    severity = Severity.ERROR
    title = "comb process stages or sets a Reg"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        for rec in design.comb:
            offenders = sorted(
                {s for s in (rec.stages | rec.writes) if isinstance(s, Reg)},
                key=lambda s: s.name,
            )
            for reg in offenders:
                yield self.diag(
                    rec.comp.path,
                    f"{rec.label} writes register {reg.name} from the settle "
                    "phase — register updates belong to sequential processes "
                    "at the clock edge",
                    signal=reg.name,
                    hint="move the write into a seq process, or model the "
                         "net as a plain Signal if it is combinational",
                )


@register_rule
class SetInSeqRule(Rule):
    """A sequential process drives a plain Signal with ``set()``.

    Settle has already finished when the edge phase runs: the write is
    invisible to combinational fanout until the *next* cycle's settle, and
    the exhaustive and event kernels order it differently.  State crossing
    an edge must go through a Reg.
    """

    id = "contract.set-in-seq"
    severity = Severity.ERROR
    title = "seq process drives a combinational signal"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        for rec in design.seq:
            for site in rec.resolved.writes:
                if site.kind != "set":
                    continue
                for tgt in site.targets:
                    if isinstance(tgt, Reg) or not isinstance(tgt, Signal):
                        continue
                    yield self.diag(
                        rec.comp.path,
                        f"{rec.label} set()s combinational signal {tgt.name} "
                        f"at the clock edge (line {site.line}) — the value "
                        "lands mid-cycle, unordered against settle",
                        signal=tgt.name,
                        hint="make the target a Reg and stage it, or compute "
                             "it combinationally from registered state",
                    )


@register_rule
class WheelMissingRule(Rule):
    """An impure seq process without a time-wheel hook blocks fast-forward.

    Impure sequential processes never disarm (the scheduler must run them
    every edge), so a single such component without a ``wheel`` hook pins
    the whole design to cycle-by-cycle stepping: the time wheel's skip scan
    finds it armed and vetoes every jump.  Components doing per-edge hidden
    work should either register ``wheel(horizon[, skip])`` hooks describing
    their pure-aging windows, or become pure.
    """

    id = "contract.wheel-missing"
    severity = Severity.WARNING
    title = "impure seq process without wheel hooks blocks fast-forward"

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        by_comp: dict = {}
        for rec in design.seq:
            if not rec.pure and not rec.wheeled:
                by_comp.setdefault(rec.comp.path, []).append(rec.label)
        for comp_path in sorted(by_comp):
            labels = sorted(by_comp[comp_path])
            yield self.diag(
                comp_path,
                f"impure seq process(es) {', '.join(labels)} stay armed on "
                "every edge and the component registers no wheel hooks — "
                "time-wheel fast-forward is vetoed design-wide while it runs",
                hint="add component.wheel(horizon) describing the "
                     "pure-aging window (with skip= when skipped edges age "
                     "state), declare the process pure=True if it "
                     "qualifies, or suppress if fast-forward is irrelevant",
            )
