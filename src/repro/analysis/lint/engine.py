"""Lint engine: rule registry, suppression matching, report assembly.

Rules are small objects with an ``id``, a default :class:`Severity` and a
``check(design)`` generator; they register themselves into a module-level
registry at import time via :func:`register_rule`, so adding a rule family
is just adding a module.  :class:`Linter` elaborates the design database
once (see :mod:`.model`) and feeds it to every selected rule, then filters
the findings through the per-component suppressions declared with
:meth:`~repro.hdl.component.Component.lint_suppress`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Iterator, Optional, Sequence

from ...hdl import buildcache
from ...hdl.component import Component
from .diagnostics import Diagnostic, LintReport, Severity, Suppression
from .model import DesignInfo, build_design


class Rule:
    """One design-rule check.

    Subclasses define class attributes ``id``, ``severity``, ``title`` and
    implement :meth:`check`, yielding :class:`Diagnostic` objects.  A rule
    must *under-approximate*: when the analysis cannot prove a fact about a
    process (opaque calls, unreadable source), it stays silent rather than
    guessing — zero false positives on clean designs is the contract that
    lets ``build_system(lint="error")`` be the default posture in CI.
    """

    id: str = ""
    severity: Severity = Severity.WARNING
    title: str = ""

    def check(self, design: DesignInfo) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diag(
        self,
        component: str,
        message: str,
        *,
        signal: Optional[str] = None,
        hint: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        return Diagnostic(
            rule_id=self.id,
            severity=severity or self.severity,
            component=component,
            message=message,
            signal=signal,
            hint=hint,
        )


#: rule id → Rule instance (import-time population; see rules_*.py)
RULES: dict[str, Rule] = {}


def register_rule(cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    RULES[rule.id] = rule
    return cls


def all_rules() -> dict[str, Rule]:
    """The full registry, importing the built-in rule modules on first use."""
    from . import (  # noqa: F401
        rules_compile,
        rules_contract,
        rules_dataflow,
        rules_faults,
        rules_futable,
        rules_graph,
        rules_issue,
        rules_protocol,
    )
    return dict(RULES)


class _SuppressionIndex:
    """Resolves which declared suppression (if any) waives a diagnostic."""

    def __init__(self, design: DesignInfo):
        # entries: (component, rule_id, reason, signal_name, subtree)
        self._entries: list[tuple[Component, str, str, Optional[str], bool]] = []
        for comp in design.components:
            for rule_id, reason, signal, subtree in comp.lint_suppressions:
                self._entries.append((comp, rule_id, reason, signal, subtree))

    def match(self, diag: Diagnostic) -> Optional[Suppression]:
        for comp, rule_id, reason, signal, subtree in self._entries:
            if rule_id != "*" and rule_id != diag.rule_id:
                continue
            if not _path_covers(comp.path, diag.component, subtree):
                continue
            if signal is not None:
                if diag.signal is None:
                    continue
                if diag.signal != f"{comp.path}.{signal}":
                    continue
            return Suppression(
                rule_id=diag.rule_id,
                component=diag.component,
                reason=reason,
                signal=diag.signal,
            )
        return None


def _path_covers(supp_path: str, diag_path: str, subtree: bool) -> bool:
    if supp_path == diag_path:
        return True
    return subtree and diag_path.startswith(supp_path + ".")


class Linter:
    """Run a rule set over an elaborated design.

    ``rules`` selects by id (default: every registered rule); ``probe``
    controls whether combinational processes are executed once for precise
    driver/reader attribution (on by default — safe on settled designs and
    on bare component trees alike).
    """

    def __init__(
        self,
        rules: Optional[Sequence[str]] = None,
        *,
        probe: bool = True,
    ):
        registry = all_rules()
        if rules is None:
            selected = registry
        else:
            import fnmatch

            selected = {}
            unknown = []
            for pat in rules:
                if any(ch in pat for ch in "*?["):
                    hits = fnmatch.filter(sorted(registry), pat)
                    if not hits:
                        unknown.append(pat)
                    for rid in hits:
                        selected[rid] = registry[rid]
                elif pat in registry:
                    selected[pat] = registry[pat]
                else:
                    unknown.append(pat)
            if unknown:
                known = ", ".join(sorted(registry))
                raise KeyError(f"unknown lint rule(s) {unknown}; known: {known}")
        self.rules = selected
        self.probe = probe

    def lint(self, target: Any, sim: Optional[Any] = None, *,
             as_built: bool = False) -> LintReport:
        """Lint ``target`` and return the full report.

        ``target`` may be a :class:`~repro.hdl.component.Component` tree, a
        :class:`~repro.hdl.sim.Simulator` (lints its top, merging discovered
        dependencies), or any object exposing ``.soc``/``.sim`` the way the
        system builder's products do.

        A design is analysed once per process: the report is kept in the
        build cache (:mod:`repro.hdl.buildcache`), keyed on the design, the
        simulator's view of it, the rule selection and ``probe``.  Each
        call returns its own copy.

        ``as_built`` says nothing but a reset and the state domain's clock
        binding touched the design since ``sim`` was constructed, as in
        :meth:`~repro.system.SystemSpec.build`.  A compiled simulator then
        already keyed the design, and the report is keyed on that key plus
        the rule selection and ``probe``: the design is not digested again.
        """
        top, sim = _resolve_target(target, sim)
        if as_built and sim is not None and sim.backend == "compiled":
            if sim.top is not top:
                raise ValueError("as_built lints the simulator's own design")
            key = buildcache.extend(sim.design_key, self.rules, self.probe)
        else:
            key = buildcache.design_key(top, _kernel_view(sim), self.rules,
                                        self.probe)
        report = buildcache.cached(
            "lint", key,
            lambda: self.lint_design(build_design(top, sim=sim, probe=self.probe)),
            sim)
        # the stored report is shared by every hit: hand out fresh lists
        return replace(report, diagnostics=list(report.diagnostics),
                       suppressed=list(report.suppressed))

    def lint_design(self, design: DesignInfo) -> LintReport:
        report = LintReport(design=design.top.path,
                            rules_run=tuple(sorted(self.rules)))
        suppressions = _SuppressionIndex(design)
        for rule_id in sorted(self.rules):
            for diag in self.rules[rule_id].check(design):
                waived = suppressions.match(diag)
                if waived is not None:
                    report.suppressed.append(waived)
                else:
                    report.diagnostics.append(diag)
        report.diagnostics.sort(
            key=lambda d: (-d.severity.rank, d.rule_id, d.component, d.signal or "")
        )
        return report


def _kernel_view(sim: Optional[Any]) -> Optional[tuple]:
    """What a report may take from ``sim`` besides the design: its class,
    wheel setting and the dependency sets its scheduler discovered."""
    if sim is None:
        return None
    info = sim.discovered_dependencies()
    return (type(sim), sim.wheel, info["discovered"], info["comb"], info["seq"])


def _resolve_target(target: Any, sim: Optional[Any]) -> tuple[Component, Any]:
    if isinstance(target, Component):
        return target, sim
    # Simulator-like: has .top Component
    top = getattr(target, "top", None)
    if isinstance(top, Component):
        return top, target if sim is None else sim
    # Built system-like: has .soc and .sim
    soc = getattr(target, "soc", None)
    if isinstance(soc, Component):
        return soc, sim if sim is not None else getattr(target, "sim", None)
    raise TypeError(
        f"cannot lint {type(target).__name__!r}: expected a Component, "
        "Simulator, or built system"
    )


def lint(
    target: Any,
    *,
    rules: Optional[Sequence[str]] = None,
    sim: Optional[Any] = None,
    probe: bool = True,
) -> LintReport:
    """One-shot convenience wrapper around :class:`Linter`."""
    return Linter(rules, probe=probe).lint(target, sim=sim)


def iter_rule_catalog() -> Iterable[tuple[str, Severity, str]]:
    """(id, severity, title) for every registered rule — docs/CLI listing."""
    for rid, rule in sorted(all_rules().items()):
        yield rid, rule.severity, rule.title
