"""Paper Fig. 4/5 and §III claims about the controller pipeline.

* F4 — sustained cost per instruction is set by the front end (three
  channel words per instruction), not by hazards: independent, dependent
  and alternating-unit streams all cost the same.
* F4b — one instruction's end-to-end latency through the whole pipe.
* F5 — ack forwarding halves the minimal skeleton's cycles per
  instruction (and lengthens the critical path).
* F6b — the pipelined skeleton sustains one instruction per cycle at any
  depth until the write arbiter becomes the bottleneck.
* F1b — m CPUs sharing one channel: aggregate cost stays channel-bound,
  each CPU's workload takes ≈ m times longer.
* A3 — local handshaking vs a global stall: the global stall loses
  throughput under bursty traffic and lengthens the critical path.
"""

import random

import pytest

from repro.analysis import rtm_paths
from repro.analysis.timing import PathReport, _levels_mux
from repro.config import FrameworkConfig
from repro.fu import (
    FuComputation,
    MinimalFunctionalUnit,
    PipelinedFunctionalUnit,
    UnitOp,
    run_unit,
)
from repro.hdl import Component, PipeStage, Simulator
from repro.host import CoprocessorDriver, drivers_for
from repro.isa import instructions as ins
from repro.system import build_multihost_system, build_system

from .claims import pin

# ---------------------------------------------------------------- F4, F4b

F4_N = 48
#: instruction mix → (instructions issued, cycles from first EXEC to quiet)
F4_MIXES = {
    "independent": (48, 205),
    "dependent": (48, 205),
    "alternating-units": (48, 205),
    "get-heavy": (96, 399),
    "primitives": (48, 205),
}


def _issue_mix(driver, kind: str, i: int) -> None:
    if kind == "independent":
        driver.execute(ins.add(3 + i % 4, 1, 2, dst_flag=1))
    elif kind == "dependent":
        driver.execute(ins.add(3, 3, 2, dst_flag=1))
    elif kind == "alternating-units":
        driver.execute(ins.xor(4, 1, 2, dst_flag=2) if i % 2
                       else ins.add(3, 1, 2, dst_flag=1))
    elif kind == "get-heavy":
        driver.execute(ins.add(3, 1, 2, dst_flag=1))
        driver.execute(ins.get(3, tag=i & 0xFF))
    else:
        driver.execute(ins.copy(3 + i % 4, 1))


@pytest.mark.parametrize("mix", list(F4_MIXES))
def test_f4_mix(mix):
    driver = CoprocessorDriver(build_system(lint="off"))
    driver.write_reg(1, 3)
    driver.write_reg(2, 5)
    driver.run_until_quiet()
    start = driver.cycles
    for i in range(F4_N):
        _issue_mix(driver, mix, i)
    driver.execute(ins.fence())
    driver.run_until_quiet()
    instrs, cycles = F4_MIXES[mix]
    pin(f"F4 {mix} cycles for {instrs} instrs", cycles, driver.cycles - start)


def test_f4b_single_instruction_latency():
    driver = CoprocessorDriver(build_system(lint="off"))
    driver.write_reg(1, 20)
    driver.write_reg(2, 22)
    driver.run_until_quiet()
    start = driver.cycles
    driver.execute(ins.add(3, 1, 2, dst_flag=1))
    driver.execute(ins.get(3))
    (msg,) = driver.wait_for(1)
    assert msg.value == 42
    pin("F4b EXEC+GET latency", 20, driver.cycles - start)


# ---------------------------------------------------------------- F5


class BitReverse(MinimalFunctionalUnit):
    """The Fig. 5 pattern: a pure Boolean function behind output registers."""

    def compute(self, s):
        return FuComputation(data1=int(f"{s.op_a:032b}"[::-1], 2))


@pytest.mark.parametrize("forwarding, cycles", [(False, 96), (True, 49)],
                         ids=["registered-idle", "ack-forwarding"])
def test_f5_forwarding_tradeoff(forwarding, cycles):
    """The clock side of the trade-off (9.5 vs 10.5 ns critical path) is
    pinned in ``tests/analysis/test_models``."""
    def factory(nm, p):
        return BitReverse(nm, 32, p, ack_forwarding=forwarding)

    tb, _ = run_unit(factory, [UnitOp(0, 0b1, dst1=1), UnitOp(0, 0xFFFF_0000, dst1=2)])
    assert [t.data_value for t in tb.collected] == [1 << 31, 0x0000_FFFF]
    ops = [UnitOp(0, i * 2654435761 & 0xFFFF_FFFF, dst1=1) for i in range(48)]
    tb, got = run_unit(factory, ops)
    assert tb.completed == 48
    pin(f"F5 cycles for 48 ops (fwd={forwarding})", cycles, got)


# ---------------------------------------------------------------- F6b


class Mac(PipelinedFunctionalUnit):
    """A multiply-accumulate-style deep pipeline."""

    def compute(self, s):
        return FuComputation(data1=(s.op_a * s.op_b + s.flag_in) & 0xFFFF_FFFF)


@pytest.mark.parametrize("depth, ack_every, cycles", [
    (1, 1, 66), (2, 1, 67), (3, 1, 68), (4, 1, 69), (6, 1, 71), (8, 1, 73),
    (1, 3, 193), (2, 3, 193), (4, 3, 196), (8, 3, 199), (3, 4, 257),
])
def test_f6b_pipelined_fu(depth, ack_every, cycles):
    """One instruction per cycle at any depth (fill latency adds one cycle
    per stage); a write arbiter granting 1-in-k sets the drain rate."""
    ops = [UnitOp(0, i, 3, dst1=1) for i in range(64)]
    tb, got = run_unit(lambda nm, p: Mac(nm, 32, p, pipeline_depth=depth), ops,
                       ack_every=ack_every)
    assert [t.data_value for t in tb.collected] == [3 * i for i in range(64)]
    pin(f"F6b cycles for 64 ops, depth {depth}, arbiter 1-in-{ack_every}", cycles, got)


# ---------------------------------------------------------------- F1b

F1B_OPS_PER_CPU = 24


@pytest.mark.parametrize("n_hosts, cycles", [(1, 105), (2, 201), (4, 393)],
                         ids=["1-cpu", "2-cpus", "4-cpus"])
def test_f1b_shared_channel(n_hosts, cycles):
    system = build_multihost_system(FrameworkConfig(n_regs=64), n_hosts=n_hosts)
    cpus = drivers_for(system)
    for i, cpu in enumerate(cpus):
        cpu.write_reg(i * 8, 0)
        cpu.write_reg(i * 8 + 1, 1)
    cpus[0].run_until_quiet()
    start = system.sim.now
    for _ in range(F1B_OPS_PER_CPU):
        for i, cpu in enumerate(cpus):
            cpu.execute(ins.add(i * 8, i * 8, i * 8 + 1, dst_flag=i % 4))
    cpus[0].run_until_quiet(max_cycles=2_000_000)
    finals = [system.soc.rtm.register_value(i * 8) for i in range(n_hosts)]
    assert finals == [F1B_OPS_PER_CPU] * n_hosts  # every CPU's work is intact
    pin(f"F1b cycles with {n_hosts} CPUs", cycles, system.sim.now - start)


# ---------------------------------------------------------------- A3

A3_DEPTH = 4
A3_ITEMS = 300


class GlobalStallPipeline(Component):
    """A rigid pipeline: every stage advances only when the sink accepts."""

    def __init__(self, name, depth):
        super().__init__(name)
        self.in_valid = self.signal("in_valid", 1, 0)
        self.in_ready = self.signal("in_ready", 1, 0)
        self.in_data = self.signal("in_data", 32, 0)
        self.out_valid = self.signal("out_valid", 1, 0)
        self.out_ready = self.signal("out_ready", 1, 0)
        full = [self.reg(f"full{i}", 1, 0) for i in range(depth)]
        data = [self.reg(f"data{i}", 32, 0) for i in range(depth)]

        @self.comb
        def _drive():
            # the single global stall decision
            advance = not full[-1].value or bool(self.out_ready.value)
            self.out_valid.set(full[-1].value)
            self.in_ready.set(1 if advance else 0)

        @self.seq
        def _tick():
            if not self.in_ready.value:
                return
            for i in reversed(range(1, depth)):
                full[i].nxt = full[i - 1].value
                data[i].nxt = data[i - 1].value
            full[0].nxt = self.in_valid.value
            data[0].nxt = self.in_data.value

    def accepts(self):
        return self.in_valid.value and self.in_ready.value

    def delivers(self):
        return self.out_valid.value and self.out_ready.value


class ElasticPipeline(Component):
    """The framework's style: chained handshaked stages."""

    def __init__(self, name, depth):
        super().__init__(name)
        stages = []
        for i in range(depth):
            stage = PipeStage(f"s{i}", parent=self, width=32)
            if stages:
                stage.inp.connect_from(self, stages[-1].out)
            stages.append(stage)
        self.first, self.last = stages[0], stages[-1]
        self.in_valid, self.in_data = self.first.inp.valid, self.first.inp.payload
        self.out_ready = self.last.out.ready

    def accepts(self):
        return self.first.inp.fires()

    def delivers(self):
        return self.last.out.fires()


def _bursty_run(pipeline_cls, p: float, q: float) -> int:
    """Cycles to move A3_ITEMS through the pipeline between a producer
    willing with probability p and a consumer willing with probability q."""

    class Harness(Component):
        def __init__(self):
            super().__init__("h")
            self.pipe = pipeline_cls("pipe", A3_DEPTH)
            self.child(self.pipe)
            self.sent = self.got = self.cycle = 0
            src_rng, snk_rng = random.Random(11), random.Random(22)
            self.src = [src_rng.random() < p for _ in range(1000)]
            self.snk = [snk_rng.random() < q for _ in range(1000)]

            @self.comb(always=True)
            def _drive():
                offering = self.sent < A3_ITEMS and self.src[self.cycle]
                self.pipe.in_valid.set(1 if offering else 0)
                self.pipe.in_data.set(self.sent)
                self.pipe.out_ready.set(1 if self.snk[self.cycle] else 0)

            @self.seq
            def _tick():
                self.sent += bool(self.pipe.accepts())
                self.got += bool(self.pipe.delivers())
                self.cycle += 1

    top = Harness()
    sim = Simulator(top)
    sim.run_until(lambda: top.got >= A3_ITEMS, max_cycles=1000)
    return sim.now


def _global_stall_period_ns(cfg: FrameworkConfig, n_units: int) -> float:
    """Timing model: the global stall net spans all stages and units."""
    fanin = 6 + n_units  # stages + unit-busy terms feeding one AND tree
    stall = PathReport("global_stall_net",
                       _levels_mux(cfg.n_regs) + _levels_mux(fanin) + 3)
    return max(p.delay_ns for p in [*rtm_paths(cfg, n_units), stall])


@pytest.mark.parametrize("p, q, elastic, rigid", [
    (0.9, 0.9, 373, 388),
    (0.7, 0.7, 502, 562),
    (0.5, 0.9, 636, 670),
    (0.9, 0.5, 593, 619),
])
def test_a3_handshake_vs_global_stall(p, q, elastic, rigid):
    pin(f"A3 elastic cycles p={p} q={q}", elastic, _bursty_run(ElasticPipeline, p, q))
    pin(f"A3 global-stall cycles p={p} q={q}", rigid,
        _bursty_run(GlobalStallPipeline, p, q))


@pytest.mark.parametrize("n_units, rigid_ns", [(2, 8.5), (4, 8.5), (8, 8.5), (16, 9.5)])
def test_a3_global_stall_clock(n_units, rigid_ns):
    cfg = FrameworkConfig()
    elastic_ns = max(p.delay_ns for p in rtm_paths(cfg, n_units))
    pin(f"A3 elastic period with {n_units} units", 5.5, elastic_ns)
    pin(f"A3 global-stall period with {n_units} units", rigid_ns,
        _global_stall_period_ns(cfg, n_units))
