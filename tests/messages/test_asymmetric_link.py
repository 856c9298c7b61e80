"""Unit tests for asymmetric full-duplex links."""

from repro.hdl import Simulator
from repro.messages import ChannelSpec, INTEGRATED, Link

FAST = ChannelSpec("fast", latency_cycles=1, cycles_per_word=1)
SLOW = ChannelSpec("slow", latency_cycles=8, cycles_per_word=16)


class TestAsymmetricLink:
    def test_defaults_to_symmetric(self):
        link = Link("l", FAST)
        assert link.upstream.spec is FAST
        assert link.downstream.spec is FAST

    def test_directions_take_their_own_specs(self):
        link = Link("l", FAST, upstream_spec=SLOW)
        assert link.downstream.spec is FAST
        assert link.upstream.spec is SLOW

    def test_system_builder_plumbs_upstream(self):
        from repro.system import SystemSpec

        built = SystemSpec(channel=INTEGRATED, upstream=SLOW).build()
        assert built.soc.link.downstream.spec is INTEGRATED
        assert built.soc.link.upstream.spec is SLOW

    def test_asymmetric_timing_observable(self):
        """Writes land quickly; readbacks pay the slow direction."""
        from repro.host import CoprocessorDriver
        from repro.system import SystemSpec

        sym = SystemSpec(channel=INTEGRATED).build()
        asym = SystemSpec(channel=INTEGRATED, upstream=SLOW).build()
        results = {}
        for name, built in (("sym", sym), ("asym", asym)):
            d = CoprocessorDriver(built)
            d.write_reg(1, 7)
            start = d.cycles
            assert d.read_reg(1) == 7
            results[name] = d.cycles - start
        assert results["asym"] > 2 * results["sym"]
