"""Unit tests for the asynchronous host engine.

Futures, tag allocation/reuse, completion routing, the in-flight window's
backpressure, batched framing, and exception handling with and without
``raise_on_exception``.
"""

import pytest

from repro.hdl.errors import SimulationError
from repro.host import CoprocessorDriver, CoprocessorError, TagAllocator
from repro.isa import instructions as ins
from repro.messages import DataRecord
from repro.system import build_system


@pytest.fixture
def driver():
    return CoprocessorDriver(build_system())


class TestTagAllocator:
    def test_round_robin_cycles_whole_space(self):
        alloc = TagAllocator(range(3))
        seen = []
        for _ in range(6):
            tag = alloc.acquire()
            seen.append(tag)
            alloc.release(tag)
        # every tag is used before any repeats: 0,1,2,0,1,2
        assert seen == [0, 1, 2, 0, 1, 2]

    def test_exhaustion_returns_none(self):
        alloc = TagAllocator(range(2))
        assert alloc.acquire() is not None
        assert alloc.acquire() is not None
        assert alloc.acquire() is None
        alloc.release(0)
        assert alloc.acquire() == 0

    def test_double_release_is_harmless(self):
        alloc = TagAllocator(range(2))
        t = alloc.acquire()
        alloc.release(t)
        alloc.release(t)  # no duplicate free entry
        assert alloc.free_count == 2

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            TagAllocator([])


class TestFutures:
    def test_result_blocks_until_response(self, driver):
        driver.write_reg(1, 41)
        fut = driver.read_reg_async(1)
        assert not fut.done()
        assert fut.result() == 41
        assert fut.done()

    def test_results_resolve_out_of_wait_order(self, driver):
        driver.write_reg(1, 10)
        driver.write_reg(2, 20)
        f1 = driver.read_reg_async(1)
        f2 = driver.read_reg_async(2)
        # waiting on the later future also resolves the earlier one
        assert f2.result() == 20
        assert f1.done() and f1.result() == 10

    def test_done_callback_fires_on_completion(self, driver):
        driver.write_reg(1, 5)
        fired = []
        fut = driver.read_reg_async(1)
        fut.add_done_callback(lambda f: fired.append(f.result()))
        assert fired == []
        fut.wait()
        assert fired == [5]

    def test_callback_on_already_done_future_runs_immediately(self, driver):
        driver.write_reg(1, 5)
        fut = driver.read_reg_async(1)
        fut.wait()
        fired = []
        fut.add_done_callback(lambda f: fired.append(True))
        assert fired == [True]

    def test_untracked_send_resolves_at_framing(self, driver):
        from repro.messages import WriteReg

        fut = driver.engine.submit_send([WriteReg(1, 7)])
        assert fut.done()  # window open: framed immediately
        driver.run_until_quiet()
        assert driver.soc.rtm.register_value(1) == 7

    def test_wait_timeout_raises(self, driver):
        # a GET of a register that is locked forever cannot happen, but a
        # future on a system that is never pumped far enough times out
        driver.write_reg(1, 1)
        fut = driver.read_reg_async(1)
        with pytest.raises(SimulationError):
            fut.result(max_cycles=2)


class TestWindow:
    def test_submissions_past_window_queue_host_side(self):
        driver = CoprocessorDriver(build_system(), window=2)
        driver.write_reg(1, 9)
        futures = [driver.read_reg_async(1) for _ in range(6)]
        engine = driver.engine
        assert engine.in_flight == 2          # window full
        assert engine.queued == 4             # the rest wait host-side
        assert engine.stats.window_stalls >= 1
        assert [f.result() for f in futures] == [9] * 6
        assert engine.idle
        assert engine.stats.in_flight_highwater == 2

    def test_window_one_serialises_round_trips(self):
        driver = CoprocessorDriver(build_system(), window=1)
        driver.write_reg(1, 3)
        futures = [driver.read_reg_async(1) for _ in range(3)]
        assert driver.engine.in_flight == 1
        assert [f.result() for f in futures] == [3, 3, 3]

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            CoprocessorDriver(build_system(), window=0)

    def test_builder_window_flows_to_driver(self):
        system = build_system(window=3)
        driver = CoprocessorDriver(system)
        assert driver.engine.window == 3

    def test_ordering_preserved_behind_blocked_window(self):
        """Untracked messages queued behind a window-blocked GET must not
        overtake it — the wire order is the submission order."""
        driver = CoprocessorDriver(build_system(), window=1)
        driver.write_reg(1, 1)
        first = driver.read_reg_async(1)
        driver.write_reg(1, 2)          # queued behind the blocked second GET?
        second = driver.read_reg_async(1)
        driver.write_reg(1, 3)
        third = driver.read_reg_async(1)
        assert (first.result(), second.result(), third.result()) == (1, 2, 3)


class TestTagExhaustion:
    """More in-flight GETs than distinct tag values: the pinned behaviour is
    a host-side stall (submissions queue until a tag frees), with released
    tags reused round-robin so the space is cycled before any repeat."""

    def test_tag_starved_submissions_stall_then_complete(self):
        driver = CoprocessorDriver(build_system(), window=8, tags=range(2))
        driver.write_reg(1, 7)
        futures = [driver.read_reg_async(1) for _ in range(5)]
        engine = driver.engine
        assert engine.in_flight == 2          # only two tags exist
        assert engine.queued == 3
        assert engine.stats.tag_stalls >= 1
        assert [f.result() for f in futures] == [7] * 5
        assert engine.idle

    def test_tags_recycle_round_robin(self):
        driver = CoprocessorDriver(build_system(), tags=range(2))
        driver.write_reg(1, 1)
        tags = [driver.read_reg_async(1).wait().tag for _ in range(4)]
        assert tags == [0, 1, 0, 1]

    def test_caller_tag_reuse_resolves_in_order(self, driver):
        """Two in-flight requests on the same explicit tag are legal: the
        in-order response stream resolves them oldest-first."""
        driver.write_reg(1, 11)
        driver.write_reg(2, 22)
        f1 = driver.read_reg_async(1, tag=5)
        f2 = driver.read_reg_async(2, tag=5)
        assert f1.result() == 11
        assert f2.result() == 22


class TestInterleavedRouting:
    def test_interleaved_response_types_stay_queued(self, driver):
        """A tracked read must not drop or trip over unrelated responses:
        the stray GET's record survives in the inbox, in arrival order."""
        driver.write_reg(1, 5)
        driver.write_reg(2, 6)
        driver.execute(ins.get(2, tag=9))       # untracked: destined for inbox
        assert driver.read_reg(1, tag=3) == 5   # tracked: routed by tag
        assert [type(m) for m in driver.inbox] == [DataRecord]
        assert driver.inbox[0].tag == 9

    def test_halt_future_routed_while_data_queues(self, driver):
        driver.write_reg(1, 8)
        driver.execute(ins.get(1, tag=1))
        driver.halt_and_wait()
        assert [type(m) for m in driver.inbox] == [DataRecord]


class TestExceptionHandling:
    def test_accumulate_without_raise(self):
        driver = CoprocessorDriver(build_system(), raise_on_exception=False)
        driver.execute(ins.dispatch(0x7F, 0))   # illegal opcode
        driver.run_until_quiet()
        assert len(driver.exceptions) == 1
        assert len(driver.inbox) == 1           # report also queued for wait_for

    def test_pending_futures_fail_with_coprocessor_error(self):
        driver = CoprocessorDriver(build_system(), raise_on_exception=False)
        driver.write_reg(1, 5)
        # the illegal op's report arrives while the GET is still in flight
        driver.execute(ins.dispatch(0x7F, 0))
        fut = driver.read_reg_async(1)
        driver.run_until_quiet()
        assert fut.done()
        assert isinstance(fut.exception(), CoprocessorError)
        with pytest.raises(CoprocessorError):
            fut.result()
        assert len(driver.exceptions) == 1

    def test_session_usable_after_exception(self):
        from repro.host import Session
        from repro.isa import ArithOp

        system = build_system()
        driver = CoprocessorDriver(system, raise_on_exception=False)
        session = Session(system, driver=driver)
        driver.execute(ins.dispatch(0x7F, 0))
        driver.run_until_quiet()
        assert driver.exceptions
        # the engine recovered: new submissions round-trip normally
        assert session.compute(ArithOp.ADD, 2, 3) == 5
        assert driver.engine.idle

    def test_raise_on_exception_propagates_from_future(self):
        driver = CoprocessorDriver(build_system(), raise_on_exception=True)
        driver.write_reg(1, 5)
        driver.execute(ins.dispatch(0x7F, 0))
        fut = driver.read_reg_async(1)
        with pytest.raises(CoprocessorError):
            driver.run_until_quiet()
        # the pending future was failed, not left hanging
        assert fut.done()
        assert isinstance(fut.exception(), CoprocessorError)

    def test_tags_released_after_failure(self):
        driver = CoprocessorDriver(
            build_system(), raise_on_exception=False, tags=range(1)
        )
        driver.write_reg(1, 5)
        driver.execute(ins.dispatch(0x7F, 0))
        fut = driver.read_reg_async(1)
        driver.run_until_quiet()
        assert isinstance(fut.exception(), CoprocessorError)
        # the failed request's tag went back to the pool
        assert driver.read_reg(1) == 5


class TestBatchedFraming:
    def test_send_all_is_one_framing_batch(self, driver):
        from repro.messages import WriteReg

        before = driver.engine.stats.batches
        driver.send_all([WriteReg(i, i) for i in range(1, 5)])
        stats = driver.engine.stats
        assert stats.batches == before + 1
        assert stats.messages_framed >= 4
        driver.run_until_quiet()
        assert driver.soc.rtm.register_value(4) == 4

    def test_stats_snapshot_keys(self, driver):
        from repro.analysis import counters_for

        driver.write_reg(1, 1)
        driver.read_reg(1)
        counters = counters_for(driver.system, driver).engine
        for key in ("submitted", "completed", "window_stalls", "tag_stalls",
                    "in_flight_highwater", "queue_highwater", "batches"):
            assert key in counters
        assert counters["completed"] == 1


class TestEventChunks:
    """The host pumps one chunk per host-observable event, not per cycle."""

    @pytest.mark.parametrize("backend", [
        dict(), dict(wheel=False), dict(backend="compiled"),
    ], ids=["event", "wheel-off", "compiled"])
    def test_sync_compute_is_a_few_steps_of_26_edges(self, backend):
        from repro import Session
        from repro.isa.opcodes import ArithOp

        system = build_system(lint="off", **backend)
        session = Session(system)
        sim = system.sim
        session.compute(ArithOp.ADD, 1, 2)  # first op pays for discovery
        steps = 0
        step = sim.step

        def counting(*args, **kwargs):
            nonlocal steps
            steps += 1
            return step(*args, **kwargs)

        sim.step = counting  # the way the e2e tracer counts pump chunks
        ops = 20
        edges = sim.kernel_stats.edge_calls
        for i in range(ops):
            assert session.compute(ArithOp.ADD, i, 3 * i) == 4 * i
        assert sim.kernel_stats.edge_calls - edges == 26 * ops
        assert steps <= 3 * ops
