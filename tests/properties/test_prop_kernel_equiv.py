"""Property tests: the event-driven settle scheduler is indistinguishable
from the exhaustive reference kernel at the waveform level.

For every design and stimulus, both schedulers must produce byte-identical
VCD traces (every fixed-width signal, every cycle) and identical cycle
counts.  This is the contract that lets the framework default to the event
kernel: it is an optimisation of *when* processes run, never of *what* the
settled fixpoint is.

Coverage:

* randomized DAG netlists (hypothesis-generated widths, operators, mux
  legs — exercising read-set growth and the dynamic fallback),
* the handshake components everything else is built on (PipeStage chain,
  SyncFifo, the channel DelayLine) under arbitrary ready/valid patterns,
* the ξ-sort smart-memory core running real microprograms,
* the full fig. 4 RTM system executing an instruction burst.
"""

from __future__ import annotations

import dataclasses
import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import Component, PipeStage, Simulator, SyncFifo
from repro.hdl.vcd import VcdWriter

BACKENDS = ("exhaustive", "event")


def _dual_trace(build, drive, reset: bool = True):
    """Run the same design+stimulus under both schedulers; return traces.

    ``build()`` must construct a fresh top component each call (a design is
    claimed by its simulator).  ``drive(sim, top)`` applies the stimulus.
    """
    traces = {}
    for backend in BACKENDS:
        top = build()
        sim = Simulator(top, backend=backend)
        if reset:
            sim.reset()
        buf = io.StringIO()
        writer = VcdWriter(sim, buf)
        drive(sim, top)
        writer.detach()
        traces[backend] = (buf.getvalue(), sim.now)
    return traces


def _assert_identical(traces):
    vcd_ex, now_ex = traces["exhaustive"]
    vcd_ev, now_ev = traces["event"]
    assert now_ex == now_ev, f"cycle counts diverge: {now_ex} vs {now_ev}"
    assert vcd_ex == vcd_ev, "VCD traces diverge between schedulers"


# -- randomized netlists -----------------------------------------------------


class RandomNetlist(Component):
    """A random synchronous DAG: regs feeding combinational expressions.

    Comb process ``k`` writes ``out[k]`` and may read registers and earlier
    outputs only (acyclic by construction).  Mux-shaped expressions make
    read sets data-dependent, exercising on-the-fly growth and — when a
    selector keeps switching — the dynamic fallback.
    """

    def __init__(self, seed: int, n_regs: int, n_comb: int):
        super().__init__("rand")
        rng = random.Random(seed)
        self.regs = [self.reg(f"r{i}", 8, rng.randrange(256)) for i in range(n_regs)]
        self.outs = []
        for k in range(n_comb):
            out = self.signal(f"o{k}", 8, 0)
            pool = self.regs + self.outs
            srcs = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            shape = rng.choice(("add", "xor", "mux", "shift"))
            self._make_comb(out, srcs, shape, rng.randrange(256))
            self.outs.append(out)
        for reg in self.regs:
            src = rng.choice(self.outs) if self.outs and rng.random() < 0.7 else reg
            self._make_seq(reg, src, rng.randrange(1, 256))
        if not self.regs:
            self.seq(lambda: None)

    def _make_comb(self, out, srcs, shape, const):
        if shape == "add":
            @self.comb
            def _p(out=out, srcs=srcs, const=const):
                out.set(sum(s.value for s in srcs) + const)
        elif shape == "xor":
            @self.comb
            def _p(out=out, srcs=srcs, const=const):
                acc = const
                for s in srcs:
                    acc ^= s.value
                out.set(acc)
        elif shape == "mux":
            @self.comb
            def _p(out=out, srcs=srcs, const=const):
                # data-dependent leg selection: only one source is read
                sel = srcs[0].bit(0)
                out.set(srcs[-1].value if sel else const)
        else:  # shift
            @self.comb
            def _p(out=out, srcs=srcs, const=const):
                out.set((srcs[0].value << 1) | (const & 1))

    def _make_seq(self, reg, src, const):
        @self.seq
        def _t(reg=reg, src=src, const=const):
            reg.nxt = (src.value + const) & 0xFF


class TestRandomNetlists:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_regs=st.integers(1, 6),
        n_comb=st.integers(1, 10),
        cycles=st.integers(1, 40),
    )
    def test_random_dag_bit_identical(self, seed, n_regs, n_comb, cycles):
        def drive(sim, top, seed=seed, cycles=cycles):
            rng = random.Random(seed ^ 0x5EED)
            for _ in range(cycles):
                if top.regs and rng.random() < 0.25:
                    rng.choice(top.regs).force(rng.randrange(256))
                sim.step()

        _assert_identical(
            _dual_trace(lambda: RandomNetlist(seed, n_regs, n_comb), drive)
        )


# -- handshake components ----------------------------------------------------


class _ScriptedStream(Component):
    """Producer/consumer with scripted valid/ready patterns around a DUT."""

    def __init__(self, dut, inp, out, src, snk, items):
        super().__init__("h")
        self.child(dut)
        self.inp_s, self.out_s = inp, out
        self.src, self.snk = list(src), list(snk)
        self.items = list(items)
        self.cursor = 0

        @self.comb(always=True)
        def _drive():
            i = min(self.cursor, len(self.src) - 1)
            self.inp_s.valid.set(1 if (self.items and self.src[i]) else 0)
            if self.items:
                self.inp_s.payload.set(self.items[0])
            self.out_s.ready.set(1 if self.snk[min(self.cursor, len(self.snk) - 1)] else 0)

        @self.seq
        def _tick():
            if self.inp_s.fires():
                self.items.pop(0)
            self.cursor += 1


patterns = st.lists(st.booleans(), min_size=10, max_size=40)


class TestHandshakeComponents:
    @settings(max_examples=20, deadline=None)
    @given(src=patterns, snk=patterns)
    def test_pipestage_fifo_chain_bit_identical(self, src, snk):
        def build():
            top = Component("dut")
            a = PipeStage("a", parent=top, width=16)
            f = SyncFifo("f", depth=3, width=16, parent=top)
            f.inp.connect_from(top, a.out)
            return _ScriptedStream(top, a.inp, f.out, src, snk, range(50, 62))

        def drive(sim, top):
            sim.step(max(len(src), len(snk)) + 20)

        _assert_identical(_dual_trace(build, drive))

    @settings(max_examples=15, deadline=None)
    @given(
        src=patterns,
        snk=patterns,
        latency=st.integers(1, 5),
        per_word=st.integers(1, 6),
    )
    def test_channel_delayline_bit_identical(self, src, snk, latency, per_word):
        from repro.messages.channel import ChannelSpec, DelayLine

        def build():
            line = DelayLine(
                "l", ChannelSpec("t", latency_cycles=latency, cycles_per_word=per_word)
            )
            return _ScriptedStream(line, line.inp, line.out, src, snk, range(7, 19))

        def drive(sim, top):
            sim.step(max(len(src), len(snk)) + 12 * (per_word + latency) + 10)

        _assert_identical(_dual_trace(build, drive))


# -- the case-study designs --------------------------------------------------


class TestCaseStudyDesigns:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_xisort_core_bit_identical(self, seed):
        from repro.xisort import XI_FIND_PIVOT, XI_LOAD, XI_RESET, XiSortCore

        values = random.Random(seed).sample(range(1 << 12), 4)

        def build():
            return XiSortCore("xi", n_cells=4, word_bits=16, array_kind="structural")

        def drive(sim, core):
            def run_op(variety, op_a=0, op_b=0):
                core.variety.force(variety)
                core.op_a.force(op_a)
                core.op_b.force(op_b)
                core.start.force(1)
                sim.step()
                core.start.force(0)
                sim.settle()
                guard = 0
                while not core.completed.value:
                    sim.step()
                    sim.settle()
                    guard += 1
                    assert guard < 1000
                sim.step()

            run_op(XI_RESET)
            for v in values:
                run_op(XI_LOAD, v, len(values) - 1)
            run_op(XI_FIND_PIVOT)

        _assert_identical(_dual_trace(build, drive))

    def test_rtm_system_bit_identical(self):
        """Full fig. 4 system: an instruction burst produces the same
        waveform, cycle for cycle, under both schedulers."""
        from repro.host import CoprocessorDriver
        from repro.isa import instructions as ins
        from repro.system import SystemSpec

        spec = SystemSpec()
        traces = {}
        for backend in BACKENDS:
            system = dataclasses.replace(spec, backend=backend).build()
            sim = system.sim
            buf = io.StringIO()
            writer = VcdWriter(sim, buf)
            driver = CoprocessorDriver(system)
            driver.write_reg(1, 3)
            driver.write_reg(2, 5)
            for i in range(8):
                driver.execute(ins.add(3 + i % 4, 1, 2, dst_flag=1))
            driver.execute(ins.fence())
            driver.run_until_quiet()
            writer.detach()
            traces[backend] = (buf.getvalue(), sim.now)
        _assert_identical(traces)
