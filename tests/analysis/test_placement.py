"""Lint and the compiled backend place every process alike, from one resolution.

``frontend.place`` is the only placement decision: the compiled backend
plans from it and the ``compile.fallback`` rule reports from it.  These
tests pin the consequences on every channel preset, the out-of-order FP
system and every shipped example:

* each ``compile.fallback`` finding names a process the compiled backend
  runs outside a static slot, with the same plan, and the finding count
  equals ``KernelStats.fallback_procs``;
* a cold build resolves each process at most once, lint included;
* the lint report of a compiled build, which reuses the backend's
  resolutions, equals the report of the event build of the same design.
"""

from __future__ import annotations

import functools
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.lint import Linter, astpass
from repro.hdl import Simulator, buildcache
from repro.messages.channel import PRESETS
from repro.system import build_system

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


@functools.lru_cache(maxsize=None)
def _example(path):
    spec = importlib.util.spec_from_file_location(f"_placed_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _preset(name):
    return lambda backend: build_system(channel=PRESETS[name],
                                        backend=backend, lint="off")


def _example_build(path):
    def build(backend):
        top = _example(path).build_for_lint()
        top = getattr(top, "soc", top)
        sim = Simulator(top, backend=backend)
        sim.reset()
        return top, sim
    return build


def _built(build, backend):
    """``(top, sim)`` of a fresh build on ``backend``."""
    made = build(backend)
    if isinstance(made, tuple):
        return made
    return made.soc, made.sim


TARGETS = (
    [pytest.param(_preset(name), id=name) for name in sorted(PRESETS)]
    + [pytest.param(lambda backend: build_system(
        ooo=True, fp_units=True, backend=backend, lint="off"), id="ooo-fp")]
    + [pytest.param(_example_build(path), id=path.stem) for path in EXAMPLES]
)

#: the plan each finding's message names, by the words it uses
_PLAN_WORDS = {"read tracking": "tracked", "every settle sweep": "sweep",
               "every edge": "edge"}


def _finding_plans(report):
    out = []
    for diag in report.diagnostics:
        name = diag.message[len(diag.component) + 1:].split(" ", 1)[0]
        (plan,) = [p for words, p in _PLAN_WORDS.items()
                   if words in diag.message]
        out.append((diag.component, name, plan))
    return sorted(out)


def _engine_plans(top, sim):
    comp_of = {id(fn): comp for comp in top.walk()
               for fn in (*comp.comb_procs, *comp.seq_procs)}
    return sorted((comp_of[id(pl.fn)].path, pl.fn.__name__, pl.kind)
                  for pl in sim._plans if pl.kind != "slot")


@pytest.mark.parametrize("build", TARGETS)
def test_fallback_findings_are_the_compiled_fallbacks(build):
    # lint an event build, which resolves on its own, against the plans
    # of a separate compiled build
    top, sim = _built(build, "event")
    report = Linter(["compile.fallback"]).lint(top, sim=sim)
    ctop, csim = _built(build, "compiled")
    findings = _finding_plans(report)
    assert findings == _engine_plans(ctop, csim)
    assert len(findings) == csim.kernel_stats.fallback_procs


@pytest.mark.parametrize("backend", ["event", "compiled"])
def test_each_process_resolved_once_per_build(backend, monkeypatch):
    build_system(backend=backend)  # warm: templates and summaries cached
    buildcache.clear()  # but the design's analysis is not: a cold build
    calls: Counter = Counter()
    resolve = astpass.resolve

    def counting(fn):
        calls[id(fn)] += 1
        return resolve(fn)

    monkeypatch.setattr(astpass, "resolve", counting)
    built = build_system(backend=backend)
    procs = [fn for comp in built.soc.walk()
             for fn in (*comp.comb_procs, *comp.seq_procs)]
    assert set(calls) == {id(fn) for fn in procs}
    assert max(calls.values()) == 1


@pytest.mark.parametrize("build", TARGETS)
def test_compiled_build_lints_like_the_event_build(build):
    reports = []
    for backend in ("event", "compiled"):
        top, sim = _built(build, backend)
        reports.append(json.dumps(Linter().lint(top, sim=sim).as_dict(),
                                  indent=1))
    assert reports[0] == reports[1]


def test_unseen_calls_are_named():
    # the FP units' finding names every call its resolution could not see
    # through, after the reason's fixed prefix, in sorted order
    built = build_system(ooo=True, fp_units=True, lint="off")
    report = Linter(["compile.fallback"]).lint(built.soc, sim=built.sim)
    reasons = {d.component: d.message.split(" has no static wake slot (")[1]
               for d in report.diagnostics if ":_tick " in d.message}
    prefix = "calls the front end cannot see through: "
    fu_add = reasons["soc.rtm.fu_16"]
    assert fu_add.startswith(prefix)
    calls = fu_add[len(prefix):].rsplit(")", 1)[0].split(", ")
    assert calls == sorted(calls)
    assert {"fmt.inf() in softfloat.fp_add", "fmt.zero() in softfloat.pack",
            "sig.bit_length() in softfloat.pack",
            "_round_to_nearest_even() in softfloat.pack "
            "(inline depth 5 reached)"} <= set(calls)
    assert reasons["soc.rtm.dispatcher"].startswith(
        prefix + "obj.__class__() in dataclasses.replace")
