"""The build cache: one lint report and one compiled layout per design.

:mod:`repro.hdl.buildcache` keys each design's lint report and compiled
layout on an exact reduction of the elaborated design.  These tests pin:

* linting stays invisible to the simulation: a build that skipped lint, a
  build that ran it (miss) and one that took it from the cache (hit) run
  the five benchmark systems alike, down to every counter and VCD byte;
* a cache hit gives what a fresh build gives, on every target of
  ``ci/fingerprint.py``; a lint hit through the key the compiled build
  already took (``as_built``) gives the report a fresh analysis gives;
* a warm build takes one digest, or none on the event kernel without lint;
* a compile hit binds only the fresh design's objects, without
  translating or emitting any code;
* every change to the design misses, an irreducible design is counted
  uncacheable, and a returned report is the caller's own;
* ``lint="error"`` and ``lint="warn"`` behave the same on a hit.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import importlib.util
import io
import json
import threading
import types
from pathlib import Path

import pytest

from repro import FrameworkConfig, Session
from repro.analysis import counters_for
from repro.analysis.lint import Linter, LintFailure
from repro.analysis.lint.model import build_design
from repro.fu import AreaOptimizedFU, FuComputation, LogicUnit
from repro.fu.base import FuState
from repro.fu.registry import UnitRegistry
from repro.hdl import Component, Signal, Simulator, VcdWriter, buildcache, live
from repro.hdl.compile import codegen
from repro.hdl.compile import engine as compile_engine
from repro.hdl.compile.frontend import KERNEL_NAMES, Specializer, Translator
from repro.hdl.sim import SimClock
from repro.isa import ArithOp, Opcode
from repro.messages import FaultSpec
from repro.messages.channel import PRESETS
from repro.rtm import decoder as decoder_mod
from repro.rtm.decoder import Decoder
from repro.system import SystemSpec, build_system

ROOT = Path(__file__).resolve().parents[2]


@functools.lru_cache(maxsize=None)
def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_cached_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _cold_cache():
    buildcache.clear()
    yield
    buildcache.clear()


def _kernel_counts(sim) -> dict:
    counts = dataclasses.asdict(sim.kernel_stats)
    del counts["compile_ms"]  # wall clock
    return counts


# -- linting is invisible to the simulation -----------------------------------

REQUESTS = 30
E2E = _load(ROOT / "benchmarks" / "e2e" / "workloads.py")


def _drive(workload, system) -> tuple:
    """30 seeded requests: each one's end cycle, every counter, the VCD."""
    buf = io.StringIO()
    writer = VcdWriter(system.sim, buf, compress_idle=True)
    session = Session(system)
    client = workload.open(session)
    ends = []
    for _, req in zip(range(REQUESTS), workload.requests(7)):
        assert workload.execute(client, session, req) == workload.expected(req)
        ends.append(session.driver.cycles)
    writer.detach()
    counters = dataclasses.asdict(counters_for(system, session.driver))
    del counters["kernel"]["compile_ms"]  # wall clock
    return ends, counters, buf.getvalue()


@pytest.mark.parametrize("backend", ["event", "compiled"])
@pytest.mark.parametrize("name", sorted(E2E.WORKLOADS))
def test_lint_is_invisible_to_the_simulation(name, backend, monkeypatch):
    workload = E2E.WORKLOADS[name]

    def built(lint):
        monkeypatch.setattr(E2E, "build_system",
                            functools.partial(build_system, lint=lint))
        return workload.build(backend)

    off = built("off")
    miss, hit = built("warn"), built("warn")
    assert "lint" not in off.sim.build_cache
    assert miss.sim.build_cache["lint"] == "miss"
    assert hit.sim.build_cache["lint"] == "hit"
    if backend == "compiled":
        assert hit.sim.build_cache["compile"] == "hit"
    base = _drive(workload, off)
    for system in (miss, hit):
        ends, counters, vcd = _drive(workload, system)
        assert ends == base[0]
        assert counters == base[1]
        assert vcd == base[2]


# -- a cached build equals a fresh one ----------------------------------------

def _e2e(name):
    def build(backend):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(E2E, "build_system",
                      functools.partial(build_system, lint="off"))
            return E2E.WORKLOADS[name].build(backend)
    return build


def _preset(name):
    return lambda backend: build_system(channel=PRESETS[name], backend=backend,
                                        lint="off")


def _example(path):
    def build(backend):
        made = _load(path).build_for_lint()
        top = getattr(made, "soc", made)
        sim = Simulator(top, backend=backend)
        sim.reset()
        return top, sim
    return build


TARGETS = (
    [pytest.param(_preset(name), id=name) for name in sorted(PRESETS)]
    + [pytest.param(lambda backend: build_system(
        ooo=True, fp_units=True, backend=backend, lint="off"), id="ooo-fp")]
    + [pytest.param(_example(path), id=path.stem)
       for path in sorted((ROOT / "examples").glob("*.py"))]
)

#: every ``ci/fingerprint.py`` target: the lint targets, ooo+fp and the
#: e2e systems
FINGERPRINTED = TARGETS + [pytest.param(_e2e(name), id=f"e2e-{name}")
                           for name in sorted(E2E.WORKLOADS)]


def _observed(build, backend) -> tuple:
    """A build linted as ``SystemSpec.build`` lints it: on compiled,
    through the key its construction took."""
    made = build(backend)
    top, sim = made if isinstance(made, tuple) else (made.soc, made.sim)
    report = Linter().lint(top, sim=sim, as_built=True)
    source = sim.generated_source if backend == "compiled" else None
    return (json.dumps(report.as_dict(), indent=1), source,
            _kernel_counts(sim)), (top, sim)


@pytest.mark.parametrize("backend", ["event", "compiled"])
@pytest.mark.parametrize("build", FINGERPRINTED)
def test_hit_equals_fresh_build(build, backend):
    fresh, (_, sim) = _observed(build, backend)
    assert "hit" not in sim.build_cache.values()
    cached, (top, sim) = _observed(build, backend)
    assert cached == fresh
    outcome = sim.build_cache
    if outcome["lint"] != "uncacheable":
        assert outcome["lint"] == "hit"
    if backend == "compiled":
        assert outcome["compile"] == "hit"
        # a lint hit through the construction key is the report a fresh
        # analysis of this very build gives
        design = build_design(top, sim=sim, probe=True)
        assert cached[0] == json.dumps(
            Linter().lint_design(design).as_dict(), indent=1)


@pytest.mark.parametrize("build", TARGETS)
def test_lint_after_a_compile_hit_resolves_on_its_own(build):
    """A compile hit leaves no resolutions for lint to borrow; the report
    lint then builds on its own is the one a cold build gives."""
    borrowed, (_, sim) = _observed(build, "compiled")
    assert sim.build_cache["compile"] == "miss"
    buildcache.clear()
    build("compiled")  # stores the layout only
    own, (_, sim) = _observed(build, "compiled")
    assert sim.build_cache["compile"] == "hit"
    assert sim.build_cache["lint"] in ("miss", "uncacheable")
    assert own == borrowed


# -- one digest per build -----------------------------------------------------

@pytest.fixture
def digests(monkeypatch):
    """Every ``buildcache.design_key`` call from here on, by its roots."""
    calls = []
    real = buildcache.design_key

    def counted(*roots):
        calls.append(roots)
        return real(*roots)

    monkeypatch.setattr(buildcache, "design_key", counted)
    return calls


@pytest.mark.parametrize("backend, lint, taken, hits", [
    ("compiled", "warn", 1, ["compile", "lint"]),
    ("compiled", "off", 1, ["compile"]),
    ("event", "warn", 1, ["lint"]),
    ("event", "off", 0, [])])
def test_a_warm_build_takes_one_digest(backend, lint, taken, hits, request):
    build_system(backend=backend, lint=lint)
    calls = request.getfixturevalue("digests")
    built = build_system(backend=backend, lint=lint)
    assert len(calls) == taken
    assert built.sim.build_cache == dict.fromkeys(hits, "hit")


@pytest.mark.parametrize("change", ["step", "poke"])
def test_a_later_lint_digests_on_its_own(change, digests):
    """Only the build's own lint may take the construction key: a later
    one digests the design as it is, and a moved design misses."""
    built = build_system(backend="compiled")
    assert len(digests) == 1
    Linter().lint(built)
    assert len(digests) == 2
    Linter().lint(built)
    assert built.sim.build_cache["lint"] == "hit"
    if change == "step":
        _stepped(built)
    else:
        built.soc.rtm.decoder.inp.ready.force(0)
    Linter().lint(built)
    assert len(digests) == 4
    assert built.sim.build_cache["lint"] == "miss"


# -- a compile hit binds the fresh design -------------------------------------

_ATOMS = (type(None), bool, int, float, str, bytes, type, types.ModuleType,
          types.FunctionType, types.MethodType, types.BuiltinFunctionType,
          types.CodeType, enum.Enum, Simulator, SimClock)


def _reachable(root) -> set:
    """The ids of the objects ``root`` holds, transitively, through
    containers and instance attributes (not through code or a simulator)."""
    seen: set = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _ATOMS):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, collections.deque)):
            stack.extend(obj)
        else:
            stack.extend(v for _, v in live.attributes(obj) or ())
    return seen


def _bound_objects(fn, out: list) -> None:
    """The receivers, signals and other objects a generated-module entry
    closes over, through methods, closure cells and lists."""
    if isinstance(fn, list):
        for x in fn:
            _bound_objects(x, out)
    elif isinstance(fn, dict):  # the fanout map
        for sig in fn:
            _bound_objects(sig, out)
    elif isinstance(fn, types.MethodType):
        out.append(fn.__self__)
        _bound_objects(fn.__func__, out)
    elif isinstance(fn, types.FunctionType):
        kernel = set(KERNEL_NAMES)
        for name, c in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            if name not in kernel:
                _bound_objects(c.cell_contents, out)
    elif not isinstance(fn, (type, types.ModuleType)):
        out.append(fn)


TWICE = ([pytest.param(dict(channel=PRESETS[name]), id=name)
          for name in sorted(PRESETS)]
         + [pytest.param(dict(ooo=True, fp_units=True), id="ooo-fp")])


@pytest.mark.parametrize("kwargs", TWICE)
def test_a_hit_binds_only_the_fresh_design(kwargs, monkeypatch):
    first = build_system(backend="compiled", lint="off", **kwargs)
    calls = collections.Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        monkeypatch.setattr(owner, name, counted)

    spy(Translator, "translate")
    spy(Specializer, "walk")
    spy(codegen, "_emit")
    spy(compile_engine, "follow")
    second = build_system(backend="compiled", lint="off", **kwargs)
    sim = second.sim
    assert sim.build_cache == {"compile": "hit"}
    session = Session(second)
    for k in range(3):
        assert session.compute(ArithOp.ADD, k, 5) == k + 5
    assert sim.kernel_stats.handoffs > 0
    managed = set(sim.top.all_signals())
    specs = [pl.spec for pl in sim._plans if pl.spec is not None]
    specs += [tc.spec for tc in sim._tracked if tc.spec is not None]
    hoisted = sum(1 for spec in specs for obj in spec.objects
                  if obj not in managed)
    assert calls["translate"] == calls["walk"] == calls["_emit"] == 0
    assert calls["follow"] == hoisted

    bound: list = []
    namespace = sim._module.namespace
    for name, value in namespace.items():
        if not name.startswith("__") and value is not sim:
            _bound_objects(value, bound)
    for spec in specs:
        _bound_objects(spec.fn, bound)
    for tc in sim._tracked:
        if tc.handed_off:
            _bound_objects(namespace[sim._module.runners[tc.slot]], bound)
    ours, theirs = _reachable(second.soc), _reachable(first.soc)
    checked = 0
    for obj in bound:
        if isinstance(obj, (Signal, Component)):
            assert id(obj) in ours and id(obj) not in theirs, obj
            checked += 1
        elif isinstance(obj, FuState):
            assert obj is FuState[obj.name]  # a constant, not design state
    assert checked > len(specs)


class _OtherArith(AreaOptimizedFU):
    def compute(self, s):
        return FuComputation(data1=(s.op_a + s.op_b) & 0xFFFF_FFFF)


def _stepped(built):
    """``built`` after one round trip through the coprocessor."""
    assert Session(built).compute(ArithOp.ADD, 20, 22) == 42
    return built


def _swapped_registry():
    """The default registry with another adder at the arithmetic code."""
    registry = UnitRegistry()
    registry.register(Opcode.ARITH, lambda n, w, p: _OtherArith(n, w, p))
    registry.register(Opcode.LOGIC, lambda n, w, p: LogicUnit(n, w, p))
    return registry


#: one change each; every one must miss both lint and the compiled layout
CHANGES = {
    "unit code": dict(unit_codes=(Opcode.ARITH,)),
    "registry entry": dict(registry=_swapped_registry()),
    "n_regs": dict(config=FrameworkConfig().with_(n_regs=32)),
    "word width": dict(config=FrameworkConfig().with_(word_bits=64)),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_changed_design_misses(change):
    for outcome in ("miss", "hit"):
        assert build_system(backend="compiled").sim.build_cache == {
            "compile": outcome, "lint": outcome}
    built = build_system(backend="compiled", **CHANGES[change])
    assert built.sim.build_cache == {"compile": "miss", "lint": "miss"}


@pytest.mark.parametrize("backend", ["event", "compiled"])
def test_state_protected_build_hits(backend):
    """The state domain's clock reads the simulator's cycle count without
    the design reaching the simulator, so a protected design caches too;
    its latency accounting runs on the hit's own clock."""
    from repro.faults import StateFaultSpec

    def build(lint):
        return build_system(backend=backend, lint=lint,
                            state_faults=StateFaultSpec(seed=3,
                                                        flip_rate=0.05))

    def drive(built):
        session = Session(built)
        for k in range(20):
            assert session.compute(ArithOp.ADD, k, 3) == k + 3
        return (session.driver.cycles,
                dataclasses.asdict(built.soc.state_domain.stats))

    assert build("warn").sim.build_cache["lint"] == "miss"
    hit = build("warn")
    assert hit.sim.build_cache["lint"] == "hit"
    cached = Linter().lint(hit.soc, sim=hit.sim)
    fresh = build("off")
    buildcache.clear()
    assert Linter().lint(fresh.soc, sim=fresh.sim).as_dict() \
        == cached.as_dict()
    end = drive(hit)
    assert end == drive(fresh)
    assert end[1]["latency_samples"] > 0


def test_fault_seed_misses():
    def lossy(seed):
        return build_system(reliable=True, backend="compiled",
                            faults=FaultSpec(seed=seed, drop_rate=0.01))

    assert lossy(1).sim.build_cache == {"compile": "miss", "lint": "miss"}
    assert lossy(1).sim.build_cache == {"compile": "hit", "lint": "hit"}
    assert lossy(2).sim.build_cache == {"compile": "miss", "lint": "miss"}


def test_added_suppression_misses():
    built = build_system(lint="off")
    first = Linter().lint(built)
    assert built.sim.build_cache["lint"] == "miss"
    built.soc.rtm.decoder.lint_suppress("compile.fallback", "seeded for a test")
    second = Linter().lint(built)
    assert built.sim.build_cache["lint"] == "miss"
    assert len(second.suppressed) == len(first.suppressed) + 1


def test_attribute_set_from_outside_misses():
    """An attribute no method of the class names is still part of the key."""
    built = build_system(lint="off")
    Linter().lint(built)
    Linter().lint(built)
    assert built.sim.build_cache["lint"] == "hit"
    built.soc.rtm.decoder.note = "set from outside"
    Linter().lint(built)
    assert built.sim.build_cache["lint"] == "miss"


def test_signal_value_change_misses():
    built = build_system(lint="off")
    Linter().lint(built)
    built.soc.rtm.decoder.inp.ready.force(0)
    Linter().lint(built)
    assert built.sim.build_cache["lint"] == "miss"


def test_linting_a_stepped_design_misses():
    built = build_system()
    assert built.sim.build_cache["lint"] == "miss"
    Linter().lint(built)
    assert built.sim.build_cache["lint"] == "hit"
    _stepped(built)
    Linter().lint(built)
    assert built.sim.build_cache["lint"] == "miss"


def test_monkeypatched_module_global_misses(monkeypatch):
    """``Decoder``'s ``_tick`` names the module global ``ExceptionReport``."""
    build_system(backend="compiled")
    assert build_system(backend="compiled").sim.build_cache == {
        "compile": "hit", "lint": "hit"}
    report_cls = decoder_mod.ExceptionReport
    monkeypatch.setattr(decoder_mod, "ExceptionReport",
                        type("Report", (report_cls,), {}))
    assert build_system(backend="compiled").sim.build_cache == {
        "compile": "miss", "lint": "miss"}


def test_monkeypatched_class_helper_misses(monkeypatch):
    """``Decoder``'s ``_drive`` calls ``self._decode``."""
    build_system(backend="compiled")
    real = Decoder._decode

    def _decode(self, msg):
        return real(self, msg)

    monkeypatch.setattr(Decoder, "_decode", _decode)
    assert build_system(backend="compiled").sim.build_cache == {
        "compile": "miss", "lint": "miss"}
    built = build_system(backend="compiled")
    assert built.sim.build_cache == {"compile": "hit", "lint": "hit"}
    assert _stepped(built)  # and the patched helper runs


def test_monkeypatched_base_class_helper_misses(monkeypatch):
    """The arithmetic and logic units share ``AreaOptimizedFU``, whose
    ``_tick`` calls ``self._finish``: the key reduces that base once and
    back-references it, yet a helper patched on it still misses."""
    build_system(backend="compiled")
    real = AreaOptimizedFU._finish
    finished = []

    def _finish(self, sample):
        finished.append(sample)
        return real(self, sample)

    monkeypatch.setattr(AreaOptimizedFU, "_finish", _finish)
    assert build_system(backend="compiled").sim.build_cache == {
        "compile": "miss", "lint": "miss"}
    built = build_system(backend="compiled")
    assert built.sim.build_cache == {"compile": "hit", "lint": "hit"}
    assert _stepped(built) and finished  # and the patched helper runs


class _Locked(Component):
    def __init__(self):
        super().__init__("locked")
        self.lock = threading.Lock()  # state kept in C: irreducible
        self.a = self.signal("a", 8)
        self.y = self.signal("y", 8)
        self.comb(lambda: self.y.set(self.a.value + 1))


def test_irreducible_design_is_uncacheable():
    for _ in range(2):
        top = _Locked()
        sim = Simulator(top, backend="compiled")
        sim.reset()
        Linter().lint(top, sim=sim)
        assert sim.build_cache == {"compile": "uncacheable",
                                   "lint": "uncacheable"}
    assert buildcache.stats == buildcache.CacheStats(uncacheable=4)


def test_oversized_design_is_uncacheable(monkeypatch):
    monkeypatch.setattr(buildcache, "MAX_ATOMS", 1000)
    built = build_system(backend="compiled")
    assert built.sim.build_cache == {"compile": "uncacheable",
                                     "lint": "uncacheable"}


def test_returned_report_is_the_callers_own():
    built = build_system(lint="off")
    first = Linter().lint(built)
    expected = first.to_json()
    first.diagnostics.clear()
    first.suppressed.clear()
    again = Linter().lint(built)
    assert built.sim.build_cache["lint"] == "hit"
    assert again.to_json() == expected


def test_key_tells_apart_what_equality_would_merge():
    """``True == 1`` and ``0.0 == -0.0``, but each builds differently."""
    keys = [buildcache.design_key(v) for v in (1, True, 0.0, -0.0, 1.0)]
    assert len(set(keys)) == len(keys)
    shared = [1]
    assert (buildcache.design_key([shared, shared])
            != buildcache.design_key([[1], [1]]))


# -- lint modes on a hit ------------------------------------------------------


class _ContendingUnit(AreaOptimizedFU):
    """A second driver for ``idle``: a ``graph.multi-driver`` error."""

    def __init__(self, name, word_bits, parent=None):
        super().__init__(name, word_bits, parent)
        self.comb(lambda: self.dp.idle.set(1))

    def compute(self, s):
        return FuComputation(data1=s.op_a)


BAD = SystemSpec(units=((0x20, lambda n, w, p: _ContendingUnit(n, w, p)),))


def test_error_mode_raises_the_same_report_on_a_hit():
    reports = []
    for _ in range(2):
        with pytest.raises(LintFailure) as exc:
            dataclasses.replace(BAD, lint="error").build()
        reports.append(exc.value.report.to_json())
    assert buildcache.stats.hits == 1  # the lint report
    assert reports[0] == reports[1]
    assert '"graph.multi-driver"' in reports[0]


def test_warn_mode_prints_the_same_bytes_on_a_hit(capsys):
    outcomes, printed = [], []
    for _ in range(2):
        built = dataclasses.replace(BAD, lint="warn").build()
        outcomes.append(built.sim.build_cache["lint"])
        printed.append(capsys.readouterr().err)
    assert outcomes == ["miss", "hit"]
    assert printed[0] == printed[1]
    assert "graph.multi-driver" in printed[0]
