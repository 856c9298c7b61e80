"""Unit tests for the three FU skeletons (experiments F5, F6, F6b)."""

import pytest

from repro.fu import (
    AreaOptimizedFU,
    FuComputation,
    FuState,
    MinimalFunctionalUnit,
    PipelinedFunctionalUnit,
    Transfer,
    UnitOp,
    run_unit,
)

W = 32
MASK = (1 << W) - 1


class Doubler(MinimalFunctionalUnit):
    def compute(self, s):
        return FuComputation(data1=(s.op_a * 2) & MASK)


class SlowSquare(AreaOptimizedFU):
    """Multi-cycle datapath exercising the EXECUTE countdown."""

    def __init__(self, name, word_bits, parent=None, cycles=3):
        super().__init__(name, word_bits, parent, execute_cycles=cycles)

    def compute(self, s):
        return FuComputation(data1=(s.op_a * s.op_a) & MASK, flags=0)


class TwoResult(AreaOptimizedFU):
    """An instruction with two data results → two transfers (Fig 2.18 states)."""

    def compute(self, s):
        return FuComputation(data1=s.op_a + 1, data2=s.op_b + 1, flags=0x5)


class NoOutput(AreaOptimizedFU):
    """Fig. 2.18 'Completion / No output' arc."""

    def compute(self, s):
        return FuComputation()


class PipeTriple(PipelinedFunctionalUnit):
    def compute(self, s):
        return FuComputation(data1=(s.op_a * 3) & MASK)


class TestMinimal:
    def test_computes_and_routes_destination(self):
        tb, _ = run_unit(lambda n, p: Doubler(n, W, p), [UnitOp(0, 21, dst1=7)])
        (t,) = tb.collected
        assert t.data_value == 42
        assert t.data_reg == 7
        assert not t.has_flags  # minimal units carry no flags

    def test_ack_forwarding_gives_one_per_cycle(self):
        for n, expected in ((20, 21), (64, 65)):
            ops = [UnitOp(0, i, dst1=1) for i in range(n)]
            _, cycles = run_unit(lambda nm, p: Doubler(nm, W, p, ack_forwarding=True), ops)
            assert cycles == expected, (
                f"C2 minimal + ack fwd, {n} ops: expected {expected}, got {cycles}")

    def test_without_forwarding_every_second_cycle(self):
        for n, expected in ((20, 40), (64, 128)):
            ops = [UnitOp(0, i, dst1=1) for i in range(n)]
            _, cycles = run_unit(lambda nm, p: Doubler(nm, W, p, ack_forwarding=False), ops)
            assert cycles == expected, (
                f"C2 minimal, no fwd, {n} ops: expected {expected}, got {cycles}")

    def test_minimal_must_produce_data(self):
        class Broken(MinimalFunctionalUnit):
            def compute(self, s):
                return FuComputation()

        with pytest.raises(ValueError):
            run_unit(lambda n, p: Broken(n, W, p), [UnitOp(0, 1, dst1=1)])


class TestAreaOptimized:
    def test_fsm_walks_idle_execute_send(self):
        tb, _ = run_unit(lambda n, p: SlowSquare(n, W, p, cycles=3),
                         [UnitOp(0, 6, dst1=2, dst_flag=0)])
        assert tb.collected[0].data_value == 36
        assert tb.unit.state == FuState.IDLE

    def test_multi_cycle_execute_latency(self):
        ops = [UnitOp(0, 3, dst1=2, dst_flag=0)]
        _, fast = run_unit(lambda n, p: SlowSquare(n, W, p, cycles=1), ops)
        _, slow = run_unit(lambda n, p: SlowSquare(n, W, p, cycles=5), ops)
        assert slow == fast + 4

    def test_two_result_instruction_takes_two_transfers(self):
        tb, _ = run_unit(lambda n, p: TwoResult(n, W, p),
                         [UnitOp(0, 10, 20, dst1=1, dst2=2, dst_flag=3)])
        assert len(tb.collected) == 2
        first, second = tb.collected
        assert first.data_value == 11 and first.data_reg == 1
        assert first.has_flags and not first.last
        assert second.data_value == 21 and second.data_reg == 2
        assert second.last

    def test_no_output_completes_without_transfer(self):
        tb, cycles = run_unit(lambda n, p: NoOutput(n, W, p), [UnitOp(0, 1)])
        assert tb.collected == []
        assert tb.dispatched == 1
        assert tb.unit.state == FuState.IDLE

    def test_invalid_execute_cycles(self):
        with pytest.raises(ValueError):
            SlowSquare("x", W, cycles=0)


class TestPipelined:
    def test_results_correct_and_ordered(self):
        ops = [UnitOp(0, i, dst1=1) for i in range(12)]
        tb, _ = run_unit(lambda n, p: PipeTriple(n, W, p, pipeline_depth=4), ops)
        assert [t.data_value for t in tb.collected] == [3 * i for i in range(12)]

    def test_throughput_one_per_cycle(self):
        n = 32
        ops = [UnitOp(0, i, dst1=1) for i in range(n)]
        _, cycles = run_unit(lambda nm, p: PipeTriple(nm, W, p, pipeline_depth=3), ops)
        assert cycles / n < 1.3

    def test_fifo_bound_backpressure(self):
        # a contended arbiter (1 ack / 4 cycles) must not lose results
        n = 16
        ops = [UnitOp(0, i, dst1=1) for i in range(n)]
        tb, cycles = run_unit(
            lambda nm, p: PipeTriple(nm, W, p, pipeline_depth=2), ops, ack_every=4
        )
        assert tb.completed == n
        assert [t.data_value for t in tb.collected] == [3 * i for i in range(n)]
        assert cycles >= 4 * n - 8  # drain-rate bound

    def test_fifo_must_exceed_depth(self):
        with pytest.raises(ValueError):
            PipeTriple("x", W, pipeline_depth=4, fifo_depth=4)

    def test_latency_matches_depth(self):
        for depth in (1, 3, 6):
            unit = PipeTriple("x", W, pipeline_depth=depth)
            assert unit.latency_cycles == depth


def test_transfer_expansion_rules():
    from repro.fu.protocol import DispatchSample

    sample = DispatchSample(variety=0, op_a=0, op_b=0, flag_in=0,
                            dst1=1, dst2=2, dst_flag=3)
    # data+flags → one combined transfer
    ts = FuComputation(data1=5, flags=0x2).transfers(sample)
    assert len(ts) == 1 and ts[0].has_data and ts[0].has_flags
    # flags only → one flag transfer
    ts = FuComputation(flags=0x2).transfers(sample)
    assert len(ts) == 1 and not ts[0].has_data
    # two data + flags → two transfers, flags on the first
    ts = FuComputation(data1=1, data2=2, flags=0x4).transfers(sample)
    assert len(ts) == 2
    assert ts[0].has_flags and not ts[0].last
    assert ts[1].last and ts[1].data_reg == 2
    # nothing → no transfers
    assert FuComputation().transfers(sample) == ()
