"""End-to-end backpressure: a slow upstream channel must stall, not drop.

A GET flood fills the serialiser → transmitter → upstream link path; the
handshaked pipeline must propagate the stall back through the encoder and
execution stage without losing or reordering a single response, and the
downstream direction must keep flowing meanwhile (full duplex).
"""

import pytest

from repro.config import FrameworkConfig
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.messages import ChannelSpec, DataRecord
from repro.system import build_system

from repro.messages import INTEGRATED
from repro.system import SystemSpec

#: a fast write path with a slow readback path — the asymmetric case where
#: the outbound (response) direction is the bottleneck
SLOW_UP = ChannelSpec("slow-up", latency_cycles=4, cycles_per_word=12)


def _asym_system(cfg):
    return SystemSpec(cfg, channel=INTEGRATED, upstream=SLOW_UP).build()


class TestGetFlood:
    def test_flood_is_lossless_and_ordered(self):
        cfg = FrameworkConfig(encoder_fifo_depth=2, transceiver_fifo_depth=2)
        driver = CoprocessorDriver(_asym_system(cfg))
        driver.write_reg(1, 0xABCD)
        n = 24
        for i in range(n):
            driver.execute(ins.get(1, tag=i & 0xFF))
        msgs = driver.wait_for(n, max_cycles=2_000_000)
        assert [m.tag for m in msgs] == list(range(n))
        assert all(isinstance(m, DataRecord) and m.value == 0xABCD for m in msgs)

    def test_pipeline_stalls_rather_than_drops(self):
        cfg = FrameworkConfig(encoder_fifo_depth=2, transceiver_fifo_depth=2)
        system = _asym_system(cfg)
        driver = CoprocessorDriver(system)
        driver.write_reg(1, 7)
        for i in range(10):
            driver.execute(ins.get(1, tag=i))
        # run until the first response lands at the host; by then, later
        # responses must be queued somewhere along the clogged outbound path
        driver.wait_for(1, max_cycles=2_000_000)
        rtm = system.soc.rtm
        occupancy = (
            rtm.encoder.queued
            + rtm.serializer.words_pending
            + system.soc.transmitter.buffered
            + system.soc.link.upstream.in_flight
        )
        assert occupancy > 0  # responses are queued, not vanished
        msgs = driver.wait_for(9, max_cycles=2_000_000)
        assert [m.tag for m in msgs] == list(range(1, 10))

    def test_downstream_keeps_flowing_during_upstream_clog(self):
        cfg = FrameworkConfig(encoder_fifo_depth=2, transceiver_fifo_depth=2)
        system = _asym_system(cfg)
        driver = CoprocessorDriver(system)
        driver.write_reg(1, 1)
        for i in range(6):
            driver.execute(ins.get(1, tag=i))
        # while responses drain slowly, new writes must still land
        driver.write_reg(2, 0x77)
        driver.wait_for(6, max_cycles=2_000_000)
        driver.run_until_quiet(max_cycles=2_000_000)
        assert system.soc.rtm.register_value(2) == 0x77


class TestWideWordBuildUp:
    def test_loadis_builds_wide_constants_end_to_end(self):
        """LOADI + LOADIS chain assembles a 128-bit constant 32 bits at a time."""
        driver = CoprocessorDriver(build_system(FrameworkConfig(word_bits=128)))
        value = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210
        words = [(value >> shift) & 0xFFFF_FFFF for shift in (96, 64, 32, 0)]
        driver.execute(ins.loadi(1, words[0]))
        for w in words[1:]:
            driver.execute(ins.loadis(1, w))
        assert driver.read_reg(1) == value

    def test_loadis_is_read_modify_write_hazard_safe(self):
        """LOADIS reads its own destination: the scoreboard must order the chain."""
        driver = CoprocessorDriver(build_system(FrameworkConfig(word_bits=64)))
        driver.execute(ins.loadi(1, 0xAAAA))
        driver.execute(ins.loadis(1, 0xBBBB))
        # a unit op writing r1 right after must serialise behind the chain
        driver.write_reg(2, 1)
        driver.execute(ins.add(1, 1, 2, dst_flag=1))
        assert driver.read_reg(1) == ((0xAAAA << 32) | 0xBBBB) + 1
