"""Compiled-backend coverage rules: which processes defeat the codegen?

The compiled backend (:mod:`repro.hdl.compile`) shares its front end with
this lint package: a process gets a static wake slot exactly when
:func:`~repro.analysis.lint.astpass.closure_of` proves its dependence
closure.  Anything unproven falls back to interpreted scheduling — a
read-tracked wake slot for a combinational process, every edge for an
impure sequential one — always correct, but it erodes the backend's
speedup one process at a time: a read-tracked slot also runs the original
function, not the specialized body every other process gets.  So do a proven comb process with
hidden inputs only (every sweep) and an impure stage-only seq process with
a hidden load that can change (every edge).  This rule family makes those
fallbacks visible at elaboration time instead of leaving them buried in
``KernelStats.fallback_procs``.

Informational severity: a fallback is a performance observation, not a
design error.
"""

from __future__ import annotations

from typing import Iterator

from ...hdl.compile.frontend import hidden_loads_constant, slot_reads
from .astpass import closure_of
from .diagnostics import Diagnostic, Severity
from .engine import Rule, register_rule
from .model import DesignInfo, ProcRecord


#: a comb process whose proven wake set is empty but which writes signals
HIDDEN_ONLY = "hidden inputs only"


def _fallback_reason(rec: ProcRecord, seq: bool = False) -> str:
    """Why the compiler front end cannot give this process a static slot."""
    try:
        closure = closure_of(rec.fn)
    except Exception:
        return "closure resolution failed"
    if closure.parse_failed:
        return "source unavailable to the AST pass"
    if closure.unknown_calls:
        return "calls the front end cannot see through"
    if closure.opaque_reads:
        return "reads the front end cannot enumerate"
    wake = slot_reads(closure)
    if wake is None:
        return "hidden inputs are late-bound (unset at elaboration)"
    if (seq and closure.write_complete and not closure.hidden_stores
            and not closure.nonlocal_stores and not closure.writes
            and not hidden_loads_constant(closure)):
        return "loads hidden state that can change"
    if not seq and not wake and closure.writes:
        return HIDDEN_ONLY
    return ""


@register_rule
class CompiledFallbackRule(Rule):
    """A process the compiled backend runs interpreted, without a static slot.

    Combinational processes declared ``always=True`` execute on every
    compiled settle sweep, like the event kernel's exhaustive fallback.
    Those whose read closure the shared front end cannot prove run
    interpreted from a read-tracked wake slot: woken by changes to the
    signals their runs read, exactly like under the event kernel, but
    with the tracking and call overhead the specialized tiers avoid.
    Impure sequential processes without a provable closure run on every
    edge.  Each one caps the compiled backend's advantage on the designs
    it appears in.
    """

    id = "compile.fallback"
    severity = Severity.INFO
    title = "process falls back to interpreted execution under backend=\"compiled\""

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        for rec in design.comb:
            if rec.always:
                yield self.diag(
                    rec.comp.path,
                    f"{rec.label} is declared always=True — the compiled "
                    "backend runs it on every settle sweep",
                    hint="vectorize the structure behind it "
                         "(__compile_vector__) or carry its hidden inputs "
                         "in Signals so the closure becomes provable",
                )
                continue
            reason = _fallback_reason(rec)
            if reason == HIDDEN_ONLY:
                yield self.diag(
                    rec.comp.path,
                    f"{rec.label} writes signals but reads {reason} — the "
                    "compiled backend runs it on every settle sweep, as "
                    "the event kernel does",
                    hint="carry its inputs in Signals so a change can "
                         "wake it",
                )
            elif reason:
                yield self.diag(
                    rec.comp.path,
                    f"{rec.label} has no static wake set: {reason} — the "
                    "compiled backend runs it interpreted, under read "
                    "tracking, whenever a signal it read changes",
                    hint="keep process bodies to tracked Signal reads and "
                         "attributes bound at elaboration",
                )
        for rec in design.seq:
            if rec.pure:
                continue  # runs from a read-tracked seq wake slot
            reason = _fallback_reason(rec, seq=True)
            if reason:
                yield self.diag(
                    rec.comp.path,
                    f"{rec.label} is impure without a static wake slot "
                    f"({reason}) — the compiled backend runs it on every "
                    "edge",
                    hint="declare pure=True if it qualifies, or keep its "
                         "inputs to tracked Signal reads",
                )
