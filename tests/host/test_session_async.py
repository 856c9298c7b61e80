"""Session-level asynchronous API: compute_async, read_async, pipeline()."""

import pytest

from repro.config import FrameworkConfig
from repro.host import Session
from repro.isa import ArithOp, LogicOp
from repro.messages import SLOW_PROTOTYPE
from repro.system import build_system


@pytest.fixture
def session():
    return Session(build_system(FrameworkConfig(n_regs=32)))


class TestComputeAsync:
    def test_resolves_to_result(self, session):
        fut = session.compute_async(ArithOp.ADD, 20, 22)
        assert fut.result() == 42

    def test_matches_sync_compute(self, session):
        async_results = [session.compute_async(ArithOp.SUB, 50, i) for i in range(5)]
        got = [f.result() for f in async_results]
        want = [session.compute(ArithOp.SUB, 50, i) for i in range(5)]
        assert got == want

    def test_registers_recycled_by_completion(self, session):
        free_before = len(session._free)
        futures = [session.compute_async(ArithOp.ADD, i, i) for i in range(8)]
        assert [f.result() for f in futures] == [2 * i for i in range(8)]
        assert len(session._free) == free_before

    def test_register_pressure_self_throttles(self):
        """A batch wider than the register file must not raise: allocation
        waits for earlier in-flight computes to free their registers."""
        session = Session(build_system(FrameworkConfig(n_regs=8), window=8))
        with session.pipeline() as p:
            futures = [p.compute(ArithOp.ADD, i, 50) for i in range(10)]
        assert [f.result() for f in futures] == [50 + i for i in range(10)]

    def test_register_throttled_batches_ride_the_wheel(self):
        """A batch that runs out of registers waits for a completion in
        multi-cycle chunks: same cycles and results as a register file that
        holds the whole batch, and no more host pump iterations."""
        def run(n_regs):
            session = Session(build_system(FrameworkConfig(n_regs=n_regs),
                                           channel=SLOW_PROTOTYPE, window=8))
            engine = session.driver.engine
            chunks = 0
            pump_chunk = engine._pump_chunk

            def counting(bound):
                nonlocal chunks
                chunks += 1
                return pump_chunk(bound)

            engine._pump_chunk = counting
            results = []
            for batch in range(2):
                with session.pipeline() as p:
                    futures = [p.compute(ArithOp.ADD, batch, i) for i in range(16)]
                results.append([f.result() for f in futures])
            return session.driver.cycles, results, chunks

        cycles16, results16, chunks16 = run(16)
        cycles64, results64, chunks64 = run(64)
        assert results16 == results64 == [[b + i for i in range(16)] for b in range(2)]
        assert cycles16 == cycles64
        assert chunks16 <= 1.1 * chunks64

    def test_logic_ops_supported(self, session):
        fut = session.compute_async(LogicOp.AND, 0b1100, 0b1010)
        assert fut.result() == 0b1000


class TestPipeline:
    def test_waits_on_clean_exit(self, session):
        with session.pipeline() as p:
            futures = [p.compute(ArithOp.ADD, i, 100) for i in range(4)]
            assert not all(f.done() for f in futures)
        # exit waited everything: results are instantly available
        assert all(f.done() for f in futures)
        assert [f.result() for f in futures] == [100 + i for i in range(4)]

    def test_results_in_issue_order(self, session):
        with session.pipeline() as p:
            p.compute(ArithOp.ADD, 1, 2)
            p.compute(ArithOp.SUB, 9, 4)
            r = session.put(7)
            p.read(r)
        assert p.results() == [3, 5, 7]

    def test_read_flags_tracked(self, session):
        with session.pipeline() as p:
            fv = p.read_flags(1)
        assert fv.result() == 0

    def test_exception_inside_block_skips_wait(self, session):
        with pytest.raises(RuntimeError, match="boom"):
            with session.pipeline() as p:
                p.compute(ArithOp.ADD, 1, 1)
                raise RuntimeError("boom")
        # the future was never waited by the context manager ...
        # ... but the engine still completes it if we drain manually
        session.drain()
        assert p.futures[0].result() == 2

    def test_overlap_beats_serial_round_trips(self):
        """The point of the pipeline: n dependent-free computes cost far
        fewer cycles windowed than serialised one-at-a-time."""
        n = 6
        serial = Session(build_system(FrameworkConfig(n_regs=64), window=1))
        start = serial.driver.cycles
        for i in range(n):
            serial.compute(ArithOp.ADD, i, i)
        serial_cycles = serial.driver.cycles - start

        piped = Session(build_system(FrameworkConfig(n_regs=64), window=8))
        start = piped.driver.cycles
        with piped.pipeline() as p:
            futures = [p.compute(ArithOp.ADD, i, i) for i in range(n)]
        piped_cycles = piped.driver.cycles - start

        assert [f.result() for f in futures] == [2 * i for i in range(n)]
        assert piped_cycles < serial_cycles
