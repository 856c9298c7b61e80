"""The design-rule checker's own contract, both halves.

False negatives: every seeded-defect fixture must raise its pinned rule.
False positives: the shipped presets must raise nothing (in *error-mode*
terms: nothing at all — warnings included).  Plus the machinery around the
rules: suppressions, the builder gate, the CLI, and report rendering.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import LintFailure, Linter, all_rules, iter_rule_catalog
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.testing import (
    assert_lint_clean,
    assert_rule_fires,
    lint_report,
)
from repro.fu import AreaOptimizedFU, FuComputation
from repro.hdl import Component, Simulator
from repro.messages.channel import PRESETS
from repro.system import SystemSpec, build_system

from tests.analysis.lint_fixtures import (
    bad_dataflow,
    bad_futable,
    bad_issue,
    comb_loop,
    double_driver,
    impure_pure_seq,
    overflow_divergence,
    undeclared_read,
    unprotected_state,
    valid_no_ready,
)

FIXTURES = [comb_loop, double_driver, undeclared_read, impure_pure_seq,
            valid_no_ready, bad_futable, unprotected_state, bad_issue,
            bad_dataflow, overflow_divergence]
FIXTURE_DIR = Path(__file__).parent / "lint_fixtures"


# -- false negatives: seeded defects must be caught ---------------------------


@pytest.mark.parametrize("fixture", FIXTURES,
                         ids=[f.__name__.rsplit(".", 1)[-1] for f in FIXTURES])
def test_fixture_fires_pinned_rule(fixture):
    assert_rule_fires(fixture.build(), fixture.EXPECTED_RULE)


def test_bad_issue_also_fires_latency_mismatch():
    report = assert_rule_fires(bad_issue.build(), bad_issue.LATENCY_RULE)
    (diag,) = [d for d in report.diagnostics
               if d.rule_id == bad_issue.LATENCY_RULE]
    assert "0x20" in diag.message and "3" in diag.message


def test_ooo_protected_system_lint_clean():
    """The OoO preset with the full fault stack raises nothing — the
    RenameGuard wiring satisfies issue.unprotected-rename by construction."""
    built = build_system(ooo=True, fp_units=True, state_protection=True,
                         lint="off")
    assert_lint_clean(built.soc, sim=built.sim)


def test_comb_loop_names_the_cycle():
    report = assert_rule_fires(comb_loop.build(), "graph.comb-loop")
    (diag,) = [d for d in report.diagnostics if d.rule_id == "graph.comb-loop"]
    assert "a" in diag.message.split() or "a ->" in diag.message
    assert "b" in diag.message


def test_double_driver_names_both_processes():
    report = assert_rule_fires(double_driver.build(), "graph.multi-driver",
                               signal="contention.bus")
    (diag,) = [d for d in report.diagnostics
               if d.rule_id == "graph.multi-driver"]
    assert "_driver_a" in diag.message and "_driver_b" in diag.message


def test_impure_pure_seq_names_hidden_attr():
    report = assert_rule_fires(impure_pure_seq.build(),
                               "contract.impure-pure-seq")
    (diag,) = report.errors
    assert "ticks" in diag.message


def test_bad_futable_fires_whole_family():
    """One hand-built table seeds all three futable defect classes."""
    report = lint_report(bad_futable.build())
    fired = {d.rule_id for d in report.diagnostics}
    assert {"futable.duplicate-opcode", "futable.unregistered-unit",
            "futable.write-profile"} <= fired
    alias = [d for d in report.diagnostics
             if d.rule_id == "futable.duplicate-opcode"]
    # the aliased row is reported for both key/code mismatch and port reuse
    assert any("0x13" in d.message and "0x12" in d.message for d in alias)
    assert any("port 0" in d.message for d in alias)


def test_smem_suite_table_is_futable_clean():
    """The suite preset assembles six units through the guarded path —
    the new family must stay silent on it (zero false positives)."""
    from repro.fu.registry import smem_suite_registry

    built = build_system(registry=smem_suite_registry(n_cells=8), lint="off")
    report = lint_report(built.soc, sim=built.sim)
    assert not any(d.rule_id.startswith("futable.")
                   for d in report.diagnostics)


# -- the dataflow family ------------------------------------------------------


def test_bad_dataflow_fires_each_rule_exactly_once():
    """One seeded defect per rule, and no cross-talk between them."""
    from collections import Counter

    report = Linter(["dataflow.*"]).lint(bad_dataflow.build())
    counts = Counter(d.rule_id for d in report.diagnostics)
    assert counts == {rid: 1 for rid in bad_dataflow.RULES}


def test_width_overflow_names_signal_and_proved_range():
    report = Linter(["dataflow.width-overflow"]).lint(bad_dataflow.build())
    (diag,) = report.diagnostics
    assert diag.signal.endswith(".acc")
    assert "21" in diag.message  # the proven minimum of the pre-mask value


def test_wrapping_counter_is_not_flagged():
    """DeadGuard.cnt wraps by design (lo stays 0) — no width-overflow."""
    report = Linter(["dataflow.width-overflow"]).lint(bad_dataflow.build())
    assert not any(d.signal and d.signal.endswith(".cnt")
                   for d in report.diagnostics)


def test_pool_underflow_rejects_undersized_rename_pool():
    """The builder gate refuses a physical register file the renamer can
    exhaust: 20 < n_regs + 2*window = 32."""
    from repro.config import FrameworkConfig

    cfg = FrameworkConfig(ooo=True, ooo_window=8, phys_regs=20)
    with pytest.raises(LintFailure) as exc:
        build_system(cfg, lint="error")
    assert any(d.rule_id == "dataflow.pool-underflow"
               for d in exc.value.report.errors)


def test_default_pool_sizing_is_dataflow_clean():
    """The defaulted phys-reg pool is exactly the proof obligation."""
    built = build_system(ooo=True, lint="off")
    report = Linter(["dataflow.*"]).lint(built.soc, sim=built.sim)
    assert not report.diagnostics


class _PassedCounter(Component):
    """A 0..15 counter handed to a helper whose parameter defaults to 0;
    ``form`` names the comb process that passes it."""

    FORMS = ("expression", "keyword", "value", "counter", "starred", "mapping")

    def __init__(self, form: str):
        super().__init__("top")
        self.cnt = self.reg("cnt", 4, 0)
        self.out = self.signal("out", 4, 0)
        self._hidden = 0

        @self.seq
        def _count() -> None:
            self._hidden = (self._hidden + 1) & 0xF
            self.cnt.nxt = (self.cnt.value + 1) & 0xF

        self.comb(getattr(self, f"_{form}"))

    def _put(self, v=0):
        self.out.set(v)

    def _expression(self):
        self._put(self.cnt.value + 0)

    def _keyword(self):
        self._put(v=self.cnt.value)

    def _value(self):
        self._put(self.cnt.value)

    def _counter(self):
        _ = self.cnt.value
        self._put(self._hidden)

    def _starred(self):
        self._put(*[self.cnt.value])

    def _mapping(self):
        self._put(**{"v": self.cnt.value})


@pytest.mark.parametrize("form", _PassedCounter.FORMS)
def test_passed_argument_is_not_the_parameter_default(form):
    """A helper parameter the call passes is a run-time value, however it
    is passed: never its default, which would make ``out`` provably 0."""
    top = _PassedCounter(form)
    report = Linter(["dataflow.*"]).lint(top)
    assert not report.diagnostics, [d.message for d in report.diagnostics]
    sim = Simulator(top)
    sim.reset()
    seen = set()
    for _ in range(4):
        sim.step()
        sim.settle()
        seen.add(top.out.value)
    assert len(seen) > 1


def test_rule_glob_selects_family():
    linter = Linter(["dataflow.*"])
    assert linter.rules and all(rid.startswith("dataflow.")
                                for rid in linter.rules)


def test_rule_glob_with_no_match_is_rejected():
    with pytest.raises(KeyError):
        Linter(["nosuchfamily.*"])


# -- false positives: shipped designs must be silent --------------------------


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_lint_clean(preset):
    built = build_system(channel=PRESETS[preset], lint="off")
    report = assert_lint_clean(built.soc, sim=built.sim)
    # the guard-coupled purity idioms are suppressed, not invisible
    assert report.suppressed, "expected the documented suppressions to count"


def test_presets_are_fully_analyzable():
    """No proc in the shipped SoC defeats the resolver — the closure-gated
    rules (undriven-read, unread-drive, protocol.*) are live design-wide."""
    from repro.analysis.lint import build_design

    built = build_system(lint="off")
    design = build_design(built.soc, sim=built.sim)
    assert design.read_closed and design.write_closed, (
        [(p.path, p.name) for p in design.procs if p.opaque]
    )


# -- suppressions -------------------------------------------------------------


def test_suppression_silences_and_is_counted():
    comp = impure_pure_seq.build()
    comp.lint_suppress("contract.impure-pure-seq", "fixture: testing the knob")
    report = lint_report(comp)
    assert not any(d.rule_id == "contract.impure-pure-seq"
                   for d in report.diagnostics)
    assert any(s.rule_id == "contract.impure-pure-seq"
               for s in report.suppressed)


def test_suppression_is_rule_specific():
    comp = impure_pure_seq.build()
    comp.lint_suppress("graph.multi-driver", "fixture: wrong rule on purpose")
    report = lint_report(comp)
    assert any(d.rule_id == "contract.impure-pure-seq"
               for d in report.diagnostics)


# -- builder integration ------------------------------------------------------


class _ContendingUnit(AreaOptimizedFU):
    """A user unit with a seeded defect: a second driver for ``idle``."""

    def __init__(self, name, word_bits, parent=None):
        super().__init__(name, word_bits, parent)
        self.comb(lambda: self.dp.idle.set(1))

    def compute(self, s):
        return FuComputation(data1=s.op_a)


def test_build_system_lint_error_rejects_bad_unit():
    spec = SystemSpec(units=((0x20, lambda n, w, p: _ContendingUnit(n, w, p)),), lint="error")
    with pytest.raises(LintFailure) as exc:
        spec.build()
    assert any(d.rule_id == "graph.multi-driver"
               for d in exc.value.report.errors)


def test_build_system_lint_error_accepts_clean_design():
    build_system(lint="error")  # must not raise


def test_with_lint_rejects_unknown_mode():
    with pytest.raises(ValueError):
        SystemSpec(lint="loud")


# -- engine / catalog ---------------------------------------------------------


def test_rule_filtering():
    report = Linter(["graph.multi-driver"]).lint(double_driver.build())
    assert {d.rule_id for d in report.diagnostics} == {"graph.multi-driver"}


def test_catalog_ids_are_unique_and_registered():
    rows = list(iter_rule_catalog())
    ids = [rid for rid, _sev, _title in rows]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(all_rules())


# -- CLI ----------------------------------------------------------------------


def test_cli_flags_fixture_in_error_mode(capsys):
    path = str(FIXTURE_DIR / "double_driver.py")
    assert lint_main([path]) == 1
    assert "graph.multi-driver" in capsys.readouterr().out


def test_cli_fail_on_never(capsys):
    path = str(FIXTURE_DIR / "double_driver.py")
    assert lint_main([path, "--fail-on", "never"]) == 0


def test_cli_json_report(capsys):
    path = str(FIXTURE_DIR / "valid_no_ready.py")
    assert lint_main([path, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    (target_report,) = payload["targets"].values()
    assert payload["summary"]["errors"] >= 1
    assert any(d["rule"] == "protocol.valid-no-ready"
               for d in target_report["diagnostics"])


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "graph.comb-loop" in out and "contract.impure-pure-seq" in out


def test_cli_rejects_unknown_rule_id():
    assert lint_main(["--rules", "graph.no-such-rule"]) == 2


def test_cli_rule_glob(capsys):
    path = str(FIXTURE_DIR / "bad_dataflow.py")
    assert lint_main([path, "--rules", "dataflow.*"]) == 1
    out = capsys.readouterr().out
    assert "dataflow.width-overflow" in out
    assert "graph." not in out


def test_cli_baseline_roundtrip(tmp_path, capsys):
    """Write a baseline from a dirty target, then re-run: everything is
    waived and the gate passes."""
    path = str(FIXTURE_DIR / "bad_dataflow.py")
    base = tmp_path / "lint-baseline.json"
    assert lint_main([path, "--rules", "dataflow.*",
                      "--baseline", str(base), "--update-baseline"]) == 0
    payload = json.loads(base.read_text())
    assert payload["version"] == 1
    (keys,) = payload["findings"].values()
    assert any(k.startswith("dataflow.width-overflow|") for k in keys)
    assert lint_main([path, "--rules", "dataflow.*",
                      "--baseline", str(base)]) == 0


def test_cli_baseline_still_fails_on_new_findings(tmp_path, capsys):
    """A baseline waives only what it recorded — new findings still gate."""
    clean = str(FIXTURE_DIR / "bad_dataflow.py")
    base = tmp_path / "lint-baseline.json"
    # baseline records nothing for this label (different target key)
    base.write_text(json.dumps({"version": 1, "findings": {}}) + "\n")
    assert lint_main([clean, "--rules", "dataflow.*",
                      "--baseline", str(base)]) == 1


def test_cli_baseline_missing_file_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        lint_main([str(FIXTURE_DIR / "double_driver.py"),
                   "--baseline", str(tmp_path / "absent.json")])


def test_cli_update_baseline_requires_baseline():
    assert lint_main(["--update-baseline"]) == 2


def test_cli_rejects_unknown_target():
    with pytest.raises(SystemExit):
        lint_main(["not-a-preset-and-not-a-file"])
