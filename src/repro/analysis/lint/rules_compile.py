"""Compiled-backend coverage rules: which processes defeat the codegen?

The compiled backend (:mod:`repro.hdl.compile`) places every process with
one function, :func:`~repro.hdl.compile.frontend.place`, and this rule
calls the same function on the same
:class:`~repro.analysis.lint.astpass.ResolvedFn` the backend placed the
process on.  A process outside a static wake slot falls back: it runs from
a read-tracked slot (its closure is unproven, or a pure sequential process
has writes the front end cannot enumerate), on every settle sweep
(``always=True``, or a writer whose inputs are all hidden) or on every edge
(an impure sequential process that may not sleep).  Each fallback is
always correct, but it erodes the backend's speedup one process at a time
— a read-tracked slot also runs the original function, not the
specialized body every other process gets.  So the rule reports one
finding per fallback, with the placement's reason, and the finding count
equals ``KernelStats.fallback_procs``.  Processes a vector executor
absorbs are not fallbacks.

Informational severity: a fallback is a performance observation, not a
design error.
"""

from __future__ import annotations

from typing import Iterator

from ...hdl.compile.frontend import place
from ...hdl.compile.vector import absorbed_procs
from .diagnostics import Diagnostic, Severity
from .engine import Rule, register_rule
from .model import DesignInfo

#: placement kind -> (how the compiled backend runs the process, hint)
_PLANS = {
    "tracked": (
        "the compiled backend runs it interpreted, under read tracking, "
        "whenever a signal it read changes",
        "keep process bodies to tracked Signal reads and attributes bound "
        "at elaboration",
    ),
    "sweep": (
        "the compiled backend runs it on every settle sweep, as the event "
        "kernel does",
        "carry its hidden inputs in Signals so a change can wake it, or "
        "vectorize the structure behind it (__compile_vector__)",
    ),
    "edge": (
        "the compiled backend runs it on every edge",
        "declare pure=True if it qualifies, or keep its inputs to tracked "
        "Signal reads and its state in registers",
    ),
}


@register_rule
class CompiledFallbackRule(Rule):
    """A process the compiled backend runs outside a static wake slot."""

    id = "compile.fallback"
    severity = Severity.INFO
    title = "process runs outside a static wake slot under backend=\"compiled\""

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        managed = set(design.signals)
        absorbed = absorbed_procs(design.top)
        for rec in design.procs:
            where = place(lambda: rec.resolved, seq=rec.kind == "seq",
                          always=rec.always, pure=rec.pure,
                          absorbed=id(rec.fn) in absorbed, managed=managed)
            if where.kind not in _PLANS:
                continue
            plan, hint = _PLANS[where.kind]
            yield self.diag(rec.comp.path,
                            f"{rec.label} has no static wake slot "
                            f"({where.reason}) — {plan}", hint=hint)
