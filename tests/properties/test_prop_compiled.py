"""Property tests: the compiled backend is observably invisible.

``backend="compiled"`` changes *how* processes execute — specialized
straight-line code, wake-flag slots, vectorized cell arrays — never
*what* the design computes.  For randomized host programs across all
three link presets, a compiled run must produce:

* identical response values and final architectural state,
* an identical final ``sim.now`` (the currency every benchmark reports),
* identical VCD traces (full-hierarchy and compressed-idle),

compared to the interpreted event kernel and to the exhaustive reference
kernel.  The coprocessor system is deliberately a *fallback-heavy* design
for the compiled front end (dozens of procs with unprovable closures), so
these runs exercise the translated, called, every-sweep and read-tracked
paths together; the ξ-sort tests add the vectorized-executor path on both
cell-array kinds.  ``TestFullSpecialization`` runs every preset and every
``examples/*.py`` design with each parseable body specialized, and also
requires the kernel's scheduling counters to be what they are with every
body run as its original function.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import io
import random
from pathlib import Path

import pytest

from repro.config import FrameworkConfig
from repro.hdl import Simulator, buildcache
from repro.hdl.compile.frontend import Specializer
from repro.hdl.vcd import VcdWriter
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.messages import FaultSpec
from repro.messages.channel import FAST_BUS, INTEGRATED, SLOW_PROTOTYPE
from repro.system import SystemSpec
from repro.system.builder import BuiltSystem

PRESETS = [
    pytest.param(INTEGRATED, id="integrated"),
    pytest.param(FAST_BUS, id="fast-bus"),
    pytest.param(SLOW_PROTOTYPE, id="slow-prototype"),
]

#: backends under comparison — exhaustive is the reference oracle
BACKENDS = ("exhaustive", "event", "compiled")


def _random_program(driver, rng):
    """A randomized host session; returns every observed response value."""
    results = []
    live = []
    for r in range(1, 5):
        v = rng.randrange(1 << 16)
        driver.write_reg(r, v)
        live.append(r)
    for _ in range(rng.randrange(3, 7)):
        op = rng.choice(("add", "xor", "read", "idle"))
        if op == "add":
            driver.execute(ins.add(rng.randrange(1, 8), rng.choice(live),
                                   rng.choice(live), dst_flag=1))
        elif op == "xor":
            driver.execute(ins.xor(rng.randrange(1, 8), rng.choice(live),
                                   rng.choice(live), dst_flag=2))
        elif op == "read":
            results.append(driver.read_reg(rng.choice(live)))
        else:
            driver.pump(rng.randrange(20, 200))
    driver.pump(rng.randrange(50, 400))
    results.append(driver.read_reg(rng.choice(live)))
    driver.run_until_quiet()
    return results


def _spec(channel, *, faults=None, upstream_faults=None, reliable=False):
    """The one system description every backend's twin is built from."""
    return SystemSpec(FrameworkConfig(reliable_framing=reliable), channel=channel,
                      faults=faults, upstream_faults=upstream_faults)


def _run(spec, backend, seed, *, vcd="none"):
    """One full run of ``spec`` on ``backend``; returns everything the
    backends must agree on."""
    return _observe(dataclasses.replace(spec, backend=backend).build(),
                    seed, vcd=vcd)


def _observe(system, seed, *, vcd="none"):
    """Drive a built system through one seeded program; returns everything
    the backends must agree on."""
    sim = system.sim
    buf = io.StringIO()
    writer = None
    if vcd == "full":
        writer = VcdWriter(sim, buf)
    elif vcd == "ports":
        link = system.soc.link
        picked = [
            system.soc.host.tx.valid, system.soc.host.tx.payload,
            system.soc.host.rx.valid, system.soc.host.rx.payload,
            link.downstream.out.valid, link.downstream.out.payload,
            link.upstream.inp.valid, link.upstream.inp.payload,
        ]
        writer = VcdWriter(sim, buf, signals=picked, compress_idle=True)
    driver = CoprocessorDriver(system)
    results = _random_program(driver, random.Random(seed))
    if writer is not None:
        writer.detach()
    regs = [system.soc.rtm.register_value(r) for r in range(1, 8)]
    return {
        "results": results,
        "now": sim.now,
        "regs": regs,
        "vcd": buf.getvalue(),
        "stats": sim.kernel_stats,
    }


def _assert_agree(runs):
    base_mode, base = runs[0]
    for mode, run in runs[1:]:
        for key in ("results", "now", "regs", "vcd"):
            assert run[key] == base[key], (
                f"{key} diverges between {base_mode} and {mode}: "
                f"{base[key]!r} vs {run[key]!r}"
            )


class TestCompiledEquivalence:
    @pytest.mark.parametrize("channel", PRESETS)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_results_and_cycle_counts_identical(self, channel, seed):
        spec = _spec(channel)
        runs = [(b, _run(spec, b, seed)) for b in BACKENDS]
        _assert_agree(runs)
        compiled = runs[-1][1]["stats"]
        # the codegen actually engaged: specialized procs exist, and the
        # fallback paths were exercised too (the SoC is fallback-heavy)
        assert compiled.compiled_procs > 0
        assert compiled.fallback_procs > 0

    @pytest.mark.parametrize("channel", PRESETS)
    def test_full_vcd_identical_across_backends(self, channel):
        spec = _spec(channel)
        runs = [(b, _run(spec, b, seed=3, vcd="full")) for b in BACKENDS]
        _assert_agree(runs)

    @pytest.mark.parametrize("channel", PRESETS)
    def test_compressed_vcd_identical_across_backends(self, channel):
        spec = _spec(channel)
        runs = [(b, _run(spec, b, seed=5, vcd="ports")) for b in BACKENDS]
        _assert_agree(runs)

    @pytest.mark.parametrize("channel", [PRESETS[1], PRESETS[2]])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_faulty_reliable_link_identical(self, channel, seed):
        faults = dict(
            faults=FaultSpec(seed=seed, drop_rate=0.03, flip_rate=0.01),
            upstream_faults=FaultSpec(seed=seed + 1, drop_rate=0.03),
            reliable=True,
        )
        spec = _spec(channel, **faults)
        runs = [(b, _run(spec, b, seed)) for b in BACKENDS]
        _assert_agree(runs)


class TestCompiledVectorizedEquivalence:
    """The vectorized cell-array executor against both interpreted kernels."""

    @pytest.mark.parametrize("kind", ["vector", "structural"])
    @pytest.mark.parametrize("seed", [2, 9])
    def test_sort_traces_identical(self, kind, seed):
        from repro.xisort import DirectXiSortMachine

        values = random.Random(seed).sample(range(1 << 16), 24)
        outcomes = set()
        for backend in BACKENDS:
            m = DirectXiSortMachine(32, array_kind=kind, backend=backend)
            outcomes.add((tuple(m.sort(values)), m.cycles))
        assert len(outcomes) == 1
        out, _cycles = next(iter(outcomes))
        assert list(out) == sorted(values)

    def test_wheel_still_engages_under_compiled(self):
        # An idle ξ-sort array is NOP-wheeled; with the always-proc absorbed
        # into the executor the compiled backend can take wheel jumps the
        # interpreted event kernel cannot.
        from repro.xisort import DirectXiSortMachine

        m = DirectXiSortMachine(16, backend="compiled")
        m.load([3, 1, 2])
        before = m.sim.kernel_stats.skipped_cycles
        m.sim.step(500)
        assert m.sim.kernel_stats.skipped_cycles > before


#: the kernel's scheduling decisions, which the wake slots must reproduce
SCHEDULING = ("edge_calls", "seq_runs", "quiescent_settles", "wheel_jumps",
              "skipped_cycles")

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


@functools.lru_cache(maxsize=None)
def _example(path):
    spec = importlib.util.spec_from_file_location(f"_example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _example_system(path, backend):
    """A fresh build of the example's design, simulated on ``backend``."""
    built = _example(path).build_for_lint()
    top = getattr(built, "soc", built)
    return BuiltSystem(soc=top, sim=Simulator(top, backend=backend))


def _assert_scheduled_alike(runs, monkeypatch):
    """``runs(backend)`` twice on event and compiled, once more on compiled
    with every body and wheel hook run as its original function: results,
    cycles and VCD bytes must agree with the event kernel, and the
    scheduling counters must not depend on specialization.  Vectorized
    executors count their absorbed cells' work differently, so only a
    design without them must also match the event kernel's counters."""
    event, compiled = runs("event"), runs("compiled")
    with monkeypatch.context() as m:
        m.setattr(Specializer, "specialize",
                  lambda self, fn, value=False: "patched out")
        # a stored layout binds the bodies it was built with: the
        # interpreted layouts go to a store of their own, dropped with
        # the patch
        m.setattr(buildcache, "_store", {})
        interpreted = runs("compiled")
    _assert_agree([("event", event), ("compiled", compiled),
                   ("compiled, interpreted bodies", interpreted)])
    stats = compiled["stats"]
    assert stats.translated_procs > 0
    assert interpreted["stats"].translated_procs == 0
    for key in SCHEDULING:
        assert getattr(stats, key) == getattr(interpreted["stats"], key), key
        if not stats.vectorized_cells:
            assert getattr(stats, key) == getattr(event["stats"], key), key


class TestFullSpecialization:
    """Every parseable body outside a read-tracked slot runs as specialized
    code on the compiled backend; nothing observable may change, down to
    the kernel's scheduling counters."""

    @pytest.mark.parametrize("channel", PRESETS)
    @pytest.mark.parametrize("seed", [4, 13])
    def test_presets_identical(self, channel, seed, monkeypatch):
        spec = _spec(channel)
        _assert_scheduled_alike(
            lambda b: _run(spec, b, seed, vcd="full"), monkeypatch)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_examples_identical(self, path, monkeypatch):
        _assert_scheduled_alike(
            lambda b: _observe(_example_system(path, b), seed=6, vcd="full"),
            monkeypatch)
