"""Property tests: time-wheel fast-forward is observably invisible.

The wheel is an optimisation of *when* edges execute, never of *what* the
design computes.  For randomized host programs across all three link
presets — and under seeded fault schedules with the reliable frame format
recovering — a wheel-enabled run must produce:

* identical response values and final architectural state,
* an identical final ``sim.now`` (the currency every benchmark reports),
* identical VCD traces,

compared to a wheel-disabled event run and to the exhaustive reference
kernel.  The suite also asserts the wheel actually *engaged* (skipped
cycles, took jumps) in the wheel-on runs, so the equivalences are exercised
rather than vacuous.

Two tracing regimes are covered, matching the observer contract:

* a plain :class:`VcdWriter` forces per-cycle stepping (its observer
  vetoes jumps), so full-hierarchy dumps are exact in all modes;
* a ``compress_idle=True`` writer over architectural signals rides through
  jumps and must still emit byte-identical VCD text, because the jump's
  precondition is that no non-warped signal can change inside a skip.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.hdl.vcd import VcdWriter
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.messages import FaultSpec
from repro.messages.channel import FAST_BUS, INTEGRATED, SLOW_PROTOTYPE
from repro.system import build_system

PRESETS = [
    pytest.param(INTEGRATED, id="integrated"),
    pytest.param(FAST_BUS, id="fast-bus"),
    pytest.param(SLOW_PROTOTYPE, id="slow-prototype"),
]

#: (backend, wheel) pairs under comparison
MODES = (("exhaustive", False), ("event", False), ("event", True))


def _random_program(driver, rng):
    """A randomized host session; returns every observed response value.

    Mixes register writes, dependent arithmetic, synchronous reads and —
    the point of the exercise — explicit idle stretches, so wheel-on runs
    have provably quiet spans to jump over on every preset.
    """
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


def _run(channel, backend, wheel, seed, *, faults=None, upstream_faults=None,
         reliable=False, vcd="none"):
    """One full system run; returns everything the modes must agree on."""
    system = build_system(
        channel=channel,
        backend=backend,
        wheel=wheel,
        faults=faults,
        upstream_faults=upstream_faults,
        reliable=reliable,
    )
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


class TestFastForwardEquivalence:
    @pytest.mark.parametrize("channel", PRESETS)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_results_and_cycle_counts_identical(self, channel, seed):
        runs = [
            (f"{sched}/wheel={wheel}",
             _run(channel, sched, wheel, seed))
            for sched, wheel in MODES
        ]
        _assert_agree(runs)
        wheeled = runs[-1][1]["stats"]
        assert wheeled.skipped_cycles > 0, "wheel never engaged"
        assert wheeled.wheel_jumps > 0
        # every simulated cycle was either an executed edge or a skip
        assert wheeled.edge_calls + wheeled.skipped_cycles == runs[-1][1]["now"]
        unwheeled = runs[1][1]["stats"]
        assert unwheeled.skipped_cycles == 0

    @pytest.mark.parametrize("channel", PRESETS)
    def test_full_vcd_identical_across_modes(self, channel):
        # A full-hierarchy VcdWriter is a plain observer: it pins per-cycle
        # stepping, so dumps — hidden pacing counters included — must match
        # byte for byte in every mode.
        runs = [
            (f"{sched}/wheel={wheel}",
             _run(channel, sched, wheel, seed=3, vcd="full"))
            for sched, wheel in MODES
        ]
        _assert_agree(runs)
        assert runs[-1][1]["stats"].skipped_cycles == 0  # observer vetoed

    @pytest.mark.parametrize("channel", PRESETS)
    def test_compressed_vcd_rides_through_jumps(self, channel):
        # Architectural-signal VCD with compress_idle stays byte-identical
        # while the wheel actually skips underneath it.
        runs = [
            (f"{sched}/wheel={wheel}",
             _run(channel, sched, wheel, seed=5, vcd="ports"))
            for sched, wheel in MODES
        ]
        _assert_agree(runs)
        assert runs[-1][1]["stats"].skipped_cycles > 0, "wheel never engaged"

    @pytest.mark.parametrize("channel", [PRESETS[1], PRESETS[2]])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_faulty_reliable_link_identical(self, channel, seed):
        faults = dict(
            faults=FaultSpec(seed=seed, drop_rate=0.03, flip_rate=0.01),
            upstream_faults=FaultSpec(seed=seed + 1, drop_rate=0.03),
            reliable=True,
        )
        runs = [
            (f"{sched}/wheel={wheel}",
             _run(channel, sched, wheel, seed, **faults))
            for sched, wheel in MODES
        ]
        _assert_agree(runs)
        assert runs[-1][1]["stats"].skipped_cycles > 0, "wheel never engaged"
