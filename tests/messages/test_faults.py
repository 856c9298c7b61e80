"""Unit tests for deterministic link-fault injection (FaultSpec / FaultyLine)."""

import random

import pytest

from repro.hdl import Component, Simulator
from repro.messages import FAST_BUS, INTEGRATED, ChannelSpec, FaultSpec, FaultyLine
from repro.messages.faults import _SEED_STRIDE


class FaultyHarness(Component):
    def __init__(self, spec, faults):
        super().__init__("fh")
        self.line = FaultyLine("line", spec, faults, parent=self)
        self.to_send: list[int] = []
        self.received: list[int] = []

        @self.comb(always=True)
        def _drive():
            self.line.inp.valid.set(1 if self.to_send else 0)
            if self.to_send:
                self.line.inp.payload.set(self.to_send[0])
            self.line.out.ready.set(1)

        @self.seq
        def _tick():
            if self.line.inp.fires():
                self.to_send.pop(0)
            if self.line.out.fires():
                self.received.append(self.line.out.payload.value)


def _reference_fate(spec, index):
    """A word's fate drawn from its own ``random.Random(seed * _SEED_STRIDE
    + index)``: the definition ``FaultSpec.fate`` must keep."""
    if spec.dead_after_words is not None and index >= spec.dead_after_words:
        return "dead", 0
    rng = random.Random(spec.seed * _SEED_STRIDE + index)
    for entry in spec.schedule:
        if entry[0] == index:
            if entry[1] != "flip":
                return entry[1], 0
            xor = entry[2] if len(entry) == 3 else 1 << rng.randrange(32)
            return "flip", xor & 0xFFFF_FFFF
    u = rng.random()
    if u < spec.drop_rate:
        return "drop", 0
    if u < spec.drop_rate + spec.flip_rate:
        return "flip", 1 << rng.randrange(32)
    if u < spec.drop_rate + spec.flip_rate + spec.dup_rate:
        return "dup", 0
    return "ok", 0


def _run(spec, words, max_cycles=10_000, **fault_kwargs):
    h = FaultyHarness(spec, FaultSpec(**fault_kwargs))
    sim = Simulator(h)
    sim.reset()
    h.to_send = list(words)
    sim.run_until(
        lambda: h.line.dead or (not h.to_send and not h.line.in_flight),
        max_cycles=max_cycles,
    )
    sim.step(5)  # settle any last delivery
    return h, sim


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=0.6, flip_rate=0.6)
        with pytest.raises(ValueError):
            FaultSpec(dead_after_words=-1)

    def test_fate_is_deterministic(self):
        spec = FaultSpec(seed=42, drop_rate=0.1, flip_rate=0.1, dup_rate=0.1)
        fates = [spec.fate(i) for i in range(500)]
        assert fates == [spec.fate(i) for i in range(500)]

    def test_fate_independent_of_query_order(self):
        spec = FaultSpec(seed=7, drop_rate=0.2)
        baseline = FaultSpec(seed=7, drop_rate=0.2).fate(123)
        spec.fate(4)
        spec.fate(99)
        assert spec.fate(123) == baseline

    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 12, 99])
    def test_fate_matches_a_fresh_generator_per_word(self, seed):
        spec = FaultSpec(seed=seed, drop_rate=0.1, flip_rate=0.2, dup_rate=0.05,
                         dead_after_words=590, schedule=(
                             (3, "flip"), (5, "flip", 0x1_0000_0040), (8, "drop"),
                             (13, "dup"), (21, "ok"), (34, "flip", 0x8000_0000),
                             (55, "flip")))
        rng = random.Random(123)  # a reused generator: its state never leaks in
        for i in range(600):
            expected = _reference_fate(spec, i)
            assert spec.fate(i) == expected
            assert spec.fate(i, rng) == expected

    def test_faulty_line_fates_match_the_spec(self):
        h, _ = _run(INTEGRATED, list(range(200)), seed=11, drop_rate=0.1,
                    flip_rate=0.1, dup_rate=0.1, schedule=((4, "flip"),))
        expected = []
        for i in range(200):
            fate, xor = _reference_fate(h.line.faults, i)
            expected += {"ok": [i], "drop": [], "flip": [i ^ xor], "dup": [i, i]}[fate]
        assert h.received == expected

    def test_rates_approximated(self):
        spec = FaultSpec(seed=1, drop_rate=0.25)
        drops = sum(1 for i in range(4000) if spec.fate(i)[0] == "drop")
        assert 800 < drops < 1200  # 25% ± generous margin

    def test_dead_threshold(self):
        spec = FaultSpec(dead_after_words=3)
        assert [spec.fate(i)[0] for i in range(5)] == ["ok", "ok", "ok", "dead", "dead"]

    def test_any_faults(self):
        assert not FaultSpec().any_faults
        assert FaultSpec(drop_rate=0.1).any_faults
        assert FaultSpec(dead_after_words=0).any_faults

    def test_flip_xor_is_single_bit(self):
        spec = FaultSpec(seed=5, flip_rate=1.0)
        for i in range(100):
            kind, xor = spec.fate(i)
            assert kind == "flip"
            assert bin(xor).count("1") == 1

    def test_schedule_pins_fates(self):
        spec = FaultSpec(seed=1, drop_rate=1.0, schedule=(
            (0, "ok"), (2, "flip", 0x10), (3, "dup"),
        ))
        assert spec.fate(0) == ("ok", 0)
        assert spec.fate(1) == ("drop", 0)  # unpinned indices follow rates
        assert spec.fate(2) == ("flip", 0x10)
        assert spec.fate(3) == ("dup", 0)

    def test_schedule_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            FaultSpec(schedule=((3, "drop"), (3, "flip", 1)))
        # pinning the same index twice is the error, not repeated fates
        assert FaultSpec(schedule=((3, "drop"), (4, "drop"))).any_faults

    def test_schedule_entry_shape_rejected(self):
        with pytest.raises(ValueError, match="tuples"):
            FaultSpec(schedule=((3,),))
        with pytest.raises(ValueError, match="fate"):
            FaultSpec(schedule=((3, "explode"),))
        with pytest.raises(ValueError, match="non-negative"):
            FaultSpec(schedule=((-1, "drop"),))


class TestFaultyLine:
    def test_clean_spec_behaves_like_delayline(self):
        words = [10, 20, 30, 40]
        h, _ = _run(INTEGRATED, words)
        assert h.received == words
        assert h.line.fault_stats.faults_injected == 0

    def test_all_drop(self):
        h, _ = _run(INTEGRATED, [1, 2, 3], drop_rate=1.0)
        assert h.received == []
        assert h.line.fault_stats.words_dropped == 3

    def test_all_flip_corrupts_every_word(self):
        words = [0x1111, 0x2222, 0x3333]
        h, _ = _run(INTEGRATED, words, seed=3, flip_rate=1.0)
        spec = h.line.faults
        assert h.received == [w ^ spec.fate(i)[1] for i, w in enumerate(words)]
        assert h.line.fault_stats.bits_flipped == 3

    def test_duplication(self):
        h, _ = _run(INTEGRATED, [7, 8], seed=1, dup_rate=1.0)
        assert h.received == [7, 7, 8, 8]
        assert h.line.fault_stats.words_duplicated == 2

    def test_dead_link_stops_accepting(self):
        h, _ = _run(INTEGRATED, [1, 2, 3, 4], max_cycles=300, dead_after_words=2)
        assert h.line.dead
        assert not h.line.inp.ready.value
        assert h.line.fault_stats.died_at_word == 2
        assert h.line.fault_stats.words_offered == 2

    def test_dead_link_freezes_inflight_words(self):
        # the word crossing the death threshold (and anything still inside
        # the pipe) is never delivered — the board fell off the bus
        h, _ = _run(FAST_BUS, [1, 2, 3, 4], max_cycles=500, dead_after_words=3)
        assert h.line.dead
        assert 3 not in h.received and 4 not in h.received

    def test_schedule_independent_of_timing(self):
        # the same word stream at different pacing suffers identical fates
        outs = []
        for spacing in (INTEGRATED, ChannelSpec("gap", 2, 3)):
            h, _ = _run(spacing, list(range(100, 140)), seed=9, drop_rate=0.3)
            outs.append(h.received)
        assert outs[0] == outs[1]

    def test_stalled_after_death_counts_presented_words(self):
        # the sender keeps presenting after the link dies: the counter sees
        # each presented word once, however long the sender holds it up
        h, sim = _run(INTEGRATED, [1, 2, 3, 4], max_cycles=300,
                      dead_after_words=2)
        assert h.line.dead
        stalled = h.line.fault_stats.stalled_after_death
        assert stalled >= 1
        # more cycles with the same word still presented: per-word, not
        # per-cycle — the count must not inflate
        sim.step(20)
        assert h.line.fault_stats.stalled_after_death == stalled

    @pytest.mark.parametrize("backend", ["event", "compiled"])
    def test_stall_counter_counts_each_presentation_once(self, backend):
        # the counter re-arms when the sender drops valid, and sleeps in a
        # static slot on compiled, woken by the dead latch, valid and itself
        h = FaultyHarness(INTEGRATED, FaultSpec(dead_after_words=2))
        sim = Simulator(h, backend=backend)
        sim.reset()
        h.to_send = [1, 2, 3, 4]
        sim.run_until(lambda: h.line.dead, max_cycles=300)
        sim.step(20)
        assert h.line.fault_stats.stalled_after_death == 1
        for presentations in (2, 3):
            held, h.to_send = h.to_send, []  # the sender drops valid ...
            sim.step(3)
            h.to_send = held                 # ... and presents again
            sim.step(10)
            assert h.line.fault_stats.stalled_after_death == presentations
        if backend == "compiled":
            (count,) = h.line.pure_seq_procs
            (plan,) = [pl for pl in sim._plans if pl.fn is count]
            assert plan.kind == "slot"
            assert sorted(s.name for s in plan.wake) == [
                "fh.line.dead", "fh.line.in_valid", "fh.line.stalled"]

    def test_reset_clears_stats(self):
        h, sim = _run(INTEGRATED, [1, 2], drop_rate=1.0)
        assert h.line.fault_stats.words_dropped == 2
        sim.reset()
        assert h.line.fault_stats.words_dropped == 0
