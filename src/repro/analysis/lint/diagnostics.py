"""Structured lint diagnostics and reports.

A :class:`Diagnostic` is one rule finding, addressed like a hardware DRC
violation: rule id, severity, the offending component's hierarchical path,
optionally the signal involved, a one-line message and a fix hint.  A
:class:`LintReport` is the ordered collection the engine returns, with the
human and machine renderings the CLI/CI exits are built on.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterator, Optional


class Severity(enum.Enum):
    """Diagnostic severity, ordered: INFO < WARNING < ERROR."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Diagnostic:
    """One design-rule finding."""

    rule_id: str
    severity: Severity
    #: hierarchical path of the offending component (e.g. ``soc.rtm.decoder``)
    component: str
    #: one-line statement of the defect
    message: str
    #: hierarchical signal name the finding anchors to, when there is one
    signal: Optional[str] = None
    #: how to fix (or deliberately waive) the finding
    hint: Optional[str] = None

    def format(self) -> str:
        loc = self.component if self.signal is None else self.signal
        text = f"{self.severity.value:7s} {self.rule_id:26s} {loc}: {self.message}"
        if self.hint:
            text += f"\n        hint: {self.hint}"
        return text

    def as_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "component": self.component,
            "signal": self.signal,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Suppression:
    """A waived diagnostic — recorded, not hidden."""

    rule_id: str
    component: str
    reason: str
    signal: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "component": self.component,
            "signal": self.signal,
            "reason": self.reason,
        }


@dataclass
class LintReport:
    """Every diagnostic a lint run produced, plus what was suppressed."""

    #: design the run was addressed to (top component path)
    design: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: findings matched by a component's declared suppression
    suppressed: list[Suppression] = field(default_factory=list)
    #: rule ids that ran (for "did my rule even execute" debugging)
    rules_run: tuple[str, ...] = ()

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def worst(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max((d.severity for d in self.diagnostics), key=lambda s: s.rank)

    def at_least(self, severity: Severity) -> list[Diagnostic]:
        """Diagnostics at or above ``severity``."""
        return [d for d in self.diagnostics if d.severity.rank >= severity.rank]

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        """Human rendering, most severe first, stable within a severity."""
        shown = sorted(
            self.at_least(min_severity),
            key=lambda d: (-d.severity.rank, d.rule_id, d.component, d.signal or ""),
        )
        lines = [d.format() for d in shown]
        n_err = len(self.errors)
        n_warn = len(self.warnings)
        n_info = len(self.by_severity(Severity.INFO))
        lines.append(
            f"{self.design}: {n_err} error(s), {n_warn} warning(s), "
            f"{n_info} note(s), {len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "design": self.design,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "suppressed": [s.as_dict() for s in self.suppressed],
            "rules_run": list(self.rules_run),
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "notes": len(self.by_severity(Severity.INFO)),
                "suppressed": len(self.suppressed),
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


class LintFailure(Exception):
    """Raised by ``build_system(lint="error")`` when a design violates rules.

    Carries the full report so callers (and pytest failures) show every
    finding, not just the first.
    """

    def __init__(self, report: LintReport):
        self.report = report
        super().__init__(
            f"design {report.design!r} failed lint with "
            f"{len(report.errors)} error(s), {len(report.warnings)} warning(s):\n"
            + report.format()
        )
