"""Elaboration-time design-rule checker (lint) for the simulation kernel.

A static analyzer over the *elaborated* component/signal graph — no
simulation required.  It exists because the kernel's two central
performance features are trust-based:

* the event-driven settle scheduler re-runs a combinational process only
  when a signal it was *observed* reading changes;
* the edge scheduler puts ``seq(pure=True)`` processes to sleep, and the
  time wheel skips whole cycle ranges, on the strength of purity and
  wheel-hook declarations.

A dishonest declaration doesn't crash — it silently desynchronises the
fast kernels from the exhaustive reference.  The lint rules catch those
contract violations, plus the classic structural design-rule checks
(combinational loops, multiple drivers, undriven signals, width
truncation) and stream handshake discipline.

Three entry points:

* CLI — ``python -m repro.analysis.lint [target ...] [--json]``;
* build-time — ``build_system(lint="warn"|"error"|"off")`` (default
  ``warn``);
* tests — :func:`repro.analysis.lint.testing.assert_lint_clean`.

See docs/ARCHITECTURE.md ("Design-rule checking") for the rule catalog.
"""

from .diagnostics import (
    Diagnostic,
    LintFailure,
    LintReport,
    Severity,
    Suppression,
)
from .engine import RULES, Linter, Rule, all_rules, iter_rule_catalog, lint, register_rule
from .model import DesignInfo, ProcRecord, build_design

__all__ = [
    "DesignInfo",
    "Diagnostic",
    "LintFailure",
    "LintReport",
    "Linter",
    "ProcRecord",
    "RULES",
    "Rule",
    "Severity",
    "Suppression",
    "all_rules",
    "build_design",
    "iter_rule_catalog",
    "lint",
    "register_rule",
]
