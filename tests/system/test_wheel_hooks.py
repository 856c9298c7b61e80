"""Wheel hooks on the compiled backend run specialized, exactly as written.

The compiled jump scan calls each hook's specialized body (``_hzN`` and
``_skN`` in the generated module).  Over seeded requests on every kind of
system that registers hooks — faulty lines, UARTs, the state guards'
scrubber, the reliable message buffer, smart memory, the multi-host bus and
the five e2e systems — these tests check that

* at every scan, each specialized horizon returns what the hook as written
  returns on the same state;
* after every jump, each specialized skip leaves the same hidden state
  (epochs, warped counters) as the hook as written leaves on a twin system
  that runs the hooks as written;
* every hook on the e2e systems is specialized, so the scan cannot quietly
  move back to interpreted hooks;

and that a hook registered without a skip gets no skip call on either
kernel.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path
from typing import Any, Callable, Optional

import pytest

from repro import Session
from repro.config import FrameworkConfig
from repro.faults import StateFaultSpec
from repro.hdl import Component, Signal, Simulator
from repro.host import CoprocessorDriver, drivers_for
from repro.isa import ArithOp
from repro.isa import instructions as ins
from repro.fu.registry import smem_suite_registry
from repro.messages import FAST_BUS, SLOW_PROTOTYPE
from repro.system import build_system
from repro.system.multihost import BuiltMultiHostSystem, MultiHostCoprocessorSystem

ROOT = Path(__file__).resolve().parents[2]


def _load(path: Path) -> Any:
    spec = importlib.util.spec_from_file_location(f"_hooks_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load(ROOT / "benchmarks" / "e2e" / "workloads.py")
E2E = WORKLOADS.WORKLOADS


class _Built:
    """What :class:`CoprocessorDriver` needs of a hand-wired design."""

    def __init__(self, soc: Component, sim: Simulator):
        self.soc, self.sim, self.config = soc, sim, soc.config


def _adds(driver: Any, rng: random.Random, n: int) -> None:
    """``n`` seeded register adds through ``driver``, checked."""
    for _ in range(n):
        a, b = rng.getrandbits(31), rng.getrandbits(31)
        driver.write_reg(1, a)
        driver.write_reg(2, b)
        driver.execute(ins.add(3, 1, 2, dst_flag=1))
        assert driver.read_reg(3, max_cycles=2_000_000) == a + b


def _workload(name: str, n: int,
              build: Optional[Callable[[str], Any]] = None) -> tuple:
    """``n`` seeded requests of an e2e workload, on its own system or on
    ``build``'s."""
    workload = E2E[name]

    def drive(system: Any, seed: int) -> None:
        session = Session(system)
        client = workload.open(session)
        requests = workload.requests(seed)
        for _ in range(n):
            req = next(requests)
            assert workload.execute(client, session, req) \
                == workload.expected(req)

    return build or workload.build, drive


def _uart() -> tuple:
    prototype = _load(ROOT / "examples" / "serial_prototype.py")

    def build(backend: str) -> _Built:
        soc = prototype.SerialPrototype(divisor=4)
        sim = Simulator(soc, backend=backend)
        sim.reset()
        return _Built(soc, sim)

    def drive(system: _Built, seed: int) -> None:
        _adds(CoprocessorDriver(system), random.Random(seed), 2)

    return build, drive


def _scrubber() -> tuple:
    def build(backend: str) -> Any:
        return build_system(backend=backend, lint="off", channel=FAST_BUS,
                            state_faults=StateFaultSpec(seed=3, flip_rate=0.2))

    def drive(system: Any, seed: int) -> None:
        session = Session(system)
        rng = random.Random(seed)
        for _ in range(6):
            a, b = rng.getrandbits(31), rng.getrandbits(31)
            assert session.compute(ArithOp.ADD, a, b) == a + b

    return build, drive


def _multihost() -> tuple:
    def build(backend: str) -> BuiltMultiHostSystem:
        soc = MultiHostCoprocessorSystem(FrameworkConfig(), n_hosts=2,
                                         channel=SLOW_PROTOTYPE)
        sim = Simulator(soc, backend=backend)
        sim.reset()
        return BuiltMultiHostSystem(soc=soc, sim=sim, engine_window=None)

    def drive(system: BuiltMultiHostSystem, seed: int) -> None:
        rng = random.Random(seed)
        cpu0, cpu1 = drivers_for(system)
        values = [rng.getrandbits(32) for _ in range(4)]
        cpu0.write_reg(1, values[0])
        cpu1.write_reg(9, values[1])
        cpu0.write_reg(2, values[2])
        cpu1.write_reg(10, values[3])
        assert cpu0.read_reg(1) == values[0]
        assert cpu1.read_reg(10) == values[3]

    return build, drive


#: name -> (build(backend), drive(system, seed)).  The e2e systems on the
#: integrated link take no jump, so their hooks run here on the fast bus.
SYSTEMS: dict[str, Callable[[], tuple]] = {
    "lossy_link": lambda: _workload("lossy_link", 6),
    "slow_link_window": lambda: _workload("slow_link_window", 1),
    "ooo-fp": lambda: _workload("fp_ooo_burst", 3, lambda backend: build_system(
        backend=backend, lint="off", channel=FAST_BUS, ooo=True,
        fp_units=True)),
    "smem": lambda: _workload("smem_suite", 2, lambda backend: build_system(
        backend=backend, lint="off", channel=FAST_BUS,
        config=FrameworkConfig().with_(n_regs=64),
        registry=smem_suite_registry(n_cells=WORKLOADS.SMEM_CELLS))),
    "uart": _uart,
    "scrubber": _scrubber,
    "multihost": _multihost,
}

#: the hook classes the systems above must cover between them
COVERED = ("FaultyLine", "UartTx", "UartRx", "StateScrubber",
           "ReliableMessageBuffer", "VectorSmartArray", "SharedHostBus")

_LEAVES = (int, float, bool, str, bytes, type(None), tuple, frozenset)


def _hidden(obj: Any, depth: int = 3, seen: Optional[set] = None) -> dict:
    """The state a skip may age: the values of ``obj``'s own signals and
    every plain value it holds, following plain objects ``depth`` deep
    (another component or a signal is not followed)."""
    seen = set() if seen is None else seen
    seen.add(id(obj))
    out: dict = {}
    if isinstance(obj, Component):
        out["signals"] = [sig._value for sig in obj.signals]
    for name, value in sorted(vars(obj).items()):
        if isinstance(value, _LEAVES):
            out[name] = value
        elif (depth > 0 and hasattr(value, "__dict__")
              and not isinstance(value, (Component, Signal, type))
              and not callable(value) and id(value) not in seen):
            out[name] = _hidden(value, depth - 1, seen)
    return out


def _owner(fn: Callable[..., Any]) -> Any:
    owner = getattr(fn, "__self__", None)
    assert owner is not None, f"{fn!r}: a skip hook is a bound method here"
    return owner


def _run_twin(name: str, specialized: bool) -> tuple:
    """One compiled run of ``SYSTEMS[name]``: its simulator, how many
    horizon calls it checked against the hook as written and, per skip
    call, the hidden state the skip left.  ``specialized=False`` runs every
    hook as written."""
    build, drive = SYSTEMS[name]()
    system = build("compiled")
    sim = system.sim
    namespace = sim._module.namespace
    # every hook has a horizon, and the plans list the horizons first
    horizons = sim.hook_plans[:len(sim._wheel_hooks)]
    compared = [0]
    jumps: list = []

    def checked(k: int, hook: Any) -> Callable[[], Any]:
        fast, written = namespace[f"_hz{k}"], hook.fn

        def scan() -> Any:
            got, want = fast(), written()
            assert got == want, (hook.label, sim.now, got, want)
            compared[0] += 1
            return got
        return scan

    def logged(k: int, hook: Any) -> Callable[[int], None]:
        run = namespace[f"_sk{k}"] if specialized else hook.fn
        owner = _owner(hook.fn)

        def skip(n: int) -> None:
            run(n)
            jumps.append((sim.now, k, n, _hidden(owner)))
        return skip

    for k, hook in enumerate(horizons):
        namespace[f"_hz{k}"] = checked(k, hook) if specialized else hook.fn
    skips = sim.hook_plans[len(horizons):]
    for k, hook in enumerate(skips):
        namespace[f"_sk{k}"] = logged(k, hook)
    drive(system, seed=5)
    return sim, compared[0], jumps


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_specialized_hooks_agree_with_the_hooks_as_written(name):
    sim, scans, jumps = _run_twin(name, specialized=True)
    twin, _, twin_jumps = _run_twin(name, specialized=False)
    assert all(h.spec is not None for h in sim.hook_plans), \
        [(h.label, h.reason) for h in sim.hook_plans if h.spec is None]
    assert sim.kernel_stats.wheel_jumps > 0 and scans > 0
    assert jumps and jumps == twin_jumps
    assert sim.now == twin.now
    assert sim.kernel_stats.wheel_jumps == twin.kernel_stats.wheel_jumps


def test_the_systems_cover_every_hook_kind():
    kinds = set()
    for name in SYSTEMS:
        build, _drive = SYSTEMS[name]()
        for comp in build("compiled").sim.top.walk():
            if comp.wheel_hooks:
                kinds.update(type(comp).__mro__)
    assert {k.__name__ for k in kinds} >= set(COVERED)


@pytest.mark.parametrize("name", sorted(E2E))
def test_every_hook_of_an_e2e_system_is_specialized(name):
    sim = E2E[name].build("compiled").sim
    plans = sim.hook_plans
    assert plans
    assert [(h.label, h.reason) for h in plans if h.spec is None] == []
    # ... and the scan and the jumps call those bodies
    namespace, n = sim._module.namespace, len(sim._wheel_hooks)
    installed = [namespace[f"_hz{k}"] for k in range(n)]
    installed += [namespace[f"_sk{k}"] for k in range(len(plans) - n)]
    assert all(fn is h.spec.fn for fn, h in zip(installed, plans))
    assert sim._horizons[:n] == installed[:n]
    assert sim._skips == installed[n:]
    for k in range(n):
        assert f"# _hz{k} runs template" in sim.generated_source


class Countdown(Component):
    """Counts ``left`` down to 0 and reloads it from ``period``: a wheel
    hook ages the count, and a second hook, with no skip, only vetoes the
    last edge before the reload."""

    def __init__(self, period: int = 50):
        super().__init__("countdown")
        self.left = self.reg("left", 8, period)
        self.reloads = self.reg("reloads", 8, 0)
        self.skipped: list = []

        @self.seq
        def _tick() -> None:
            if self.left.value:
                self.left.nxt = self.left.value - 1
            else:
                self.left.nxt = period
                self.reloads.nxt = self.reloads.value + 1

        def skip(n: int) -> None:
            self.skipped.append(n)
            self.left.warp(self.left.value - n)

        self.wheel(lambda: self.left.value or None, skip)
        self.wheel(lambda: 0 if self.left.value == 1 else None)


@pytest.mark.parametrize("backend", ["event", "compiled"])
def test_a_hook_without_skip_gets_no_skip_call(backend):
    top = Countdown()
    sim = Simulator(top, backend=backend)
    sim.reset()
    sim.step(400)
    assert top.reloads.value == 400 // 51
    assert top.skipped and sim.kernel_stats.wheel_jumps == len(top.skipped)
    assert len(sim._skips) == 1
    if backend == "compiled":
        assert [h.spec is not None for h in sim.hook_plans] == [True] * 3
        run = sim.generated_source.split("def _run", 1)[1]
        assert "_sk0(_hz)" in run and "_sk1" not in run


def test_a_hook_the_translator_cannot_handle_runs_as_written():
    runs = {}
    for backend in ("event", "compiled"):
        top = Countdown()

        def horizon(top=top):
            # the nested lambda makes the whole body run as written
            return max(map(lambda v: v - 1, [top.left.value]), default=0) or None

        top.wheel(horizon)
        sim = Simulator(top, backend=backend)
        sim.reset()
        sim.step(400)
        runs[backend] = (sim.now, top.reloads.value, top.skipped,
                         sim.kernel_stats.wheel_jumps)
    assert runs["event"] == runs["compiled"]
    *specialized, written, skip = sim.hook_plans
    assert all(h.spec is not None for h in specialized + [skip])
    assert (written.fn, written.spec, written.reason) \
        == (horizon, None, "holds a Lambda node")
    assert sim._module.namespace["_hz2"] is horizon
    assert "# _hz2 runs" not in sim.generated_source
