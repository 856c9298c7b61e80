"""Tests for the paper's other stateful units (§IV.B examples)."""

import random

import pytest

from repro.fu.stateful import (
    CAM_CLEAR,
    CAM_COUNT,
    CAM_DELETE,
    CAM_FLAG_HIT,
    CAM_LOOKUP,
    CAM_STORE,
    HIST_CLEAR,
    HIST_PEAK,
    HIST_READ,
    HIST_SAMPLE,
    HIST_TOTAL,
    PRNG_NEXT,
    PRNG_SEED,
    AssociativeMemoryUnit,
    HistogramUnit,
    PrngUnit,
    cam_factory,
    histogram_factory,
    prng_factory,
    xorshift32,
)
from repro.host import CoprocessorDriver
from repro.isa import instructions as ins
from repro.system import SystemSpec

HIST, PRNG, CAM = 0x30, 0x31, 0x32


@pytest.fixture
def driver():
    built = SystemSpec(units=(
        (HIST, histogram_factory(n_bins=16)),
        (PRNG, prng_factory()),
        (CAM, cam_factory(capacity=4)),
    )).build()
    return CoprocessorDriver(built)


def _op(driver, unit, variety, a=0, b=0, dst=1, flag=1):
    driver.write_reg(14, a)
    driver.write_reg(15, b)
    driver.execute(ins.dispatch(unit, variety, dst1=dst, src1=14, src2=15,
                                dst_flag=flag))


class TestHistogram:
    def test_samples_accumulate_per_bin(self, driver):
        _op(driver, HIST, HIST_CLEAR)
        for v in (3, 3, 3, 7, 7, 16 + 3):  # bin 3 ×4 (16+3 hashes to 3), bin 7 ×2
            _op(driver, HIST, HIST_SAMPLE, a=v)
        _op(driver, HIST, HIST_READ, a=3, dst=1)
        assert driver.read_reg(1) == 4
        _op(driver, HIST, HIST_READ, a=7, dst=1)
        assert driver.read_reg(1) == 2

    def test_total_and_peak(self, driver):
        _op(driver, HIST, HIST_CLEAR)
        for v in (1, 2, 2, 2, 9):
            _op(driver, HIST, HIST_SAMPLE, a=v)
        _op(driver, HIST, HIST_TOTAL, dst=1)
        assert driver.read_reg(1) == 5
        _op(driver, HIST, HIST_PEAK, dst=1, flag=2)
        assert driver.read_reg(1) == 2
        assert driver.read_flags(2) & 0x1

    def test_clear_resets(self, driver):
        _op(driver, HIST, HIST_SAMPLE, a=5)
        _op(driver, HIST, HIST_CLEAR)
        _op(driver, HIST, HIST_TOTAL, dst=1)
        assert driver.read_reg(1) == 0

    def test_peak_empty_flag_clear(self, driver):
        _op(driver, HIST, HIST_CLEAR)
        _op(driver, HIST, HIST_PEAK, dst=1, flag=2)
        driver.read_reg(1)
        assert not driver.read_flags(2) & 0x1

    def test_matches_software_histogram(self, driver):
        rng = random.Random(5)
        values = [rng.randrange(0, 256) for _ in range(40)]
        _op(driver, HIST, HIST_CLEAR)
        for v in values:
            _op(driver, HIST, HIST_SAMPLE, a=v)
        sw = [0] * 16
        for v in values:
            sw[v % 16] += 1
        for b in range(16):
            _op(driver, HIST, HIST_READ, a=b, dst=1)
            assert driver.read_reg(1) == sw[b]

    def test_bins_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            HistogramUnit("h", 32, n_bins=12)


class TestPrng:
    def test_sequence_matches_reference(self, driver):
        _op(driver, PRNG, PRNG_SEED, a=0xDEADBEEF)
        state = 0xDEADBEEF
        for _ in range(5):
            _op(driver, PRNG, PRNG_NEXT, dst=1)
            state = xorshift32(state)
            assert driver.read_reg(1) == state

    def test_seed_zero_coerced(self, driver):
        _op(driver, PRNG, PRNG_SEED, a=0)
        _op(driver, PRNG, PRNG_NEXT, dst=1)
        assert driver.read_reg(1) == xorshift32(1)

    def test_deterministic_replay(self, driver):
        _op(driver, PRNG, PRNG_SEED, a=7)
        _op(driver, PRNG, PRNG_NEXT, dst=1)
        first = driver.read_reg(1)
        _op(driver, PRNG, PRNG_SEED, a=7)
        _op(driver, PRNG, PRNG_NEXT, dst=1)
        assert driver.read_reg(1) == first

    def test_xorshift_reference_period_smoke(self):
        seen = set()
        s = 1
        for _ in range(1000):
            s = xorshift32(s)
            assert s not in seen
            seen.add(s)


class TestAssociativeMemory:
    def test_store_lookup_roundtrip(self, driver):
        _op(driver, CAM, CAM_CLEAR)
        _op(driver, CAM, CAM_STORE, a=100, b=42)
        _op(driver, CAM, CAM_LOOKUP, a=100, dst=1, flag=2)
        assert driver.read_reg(1) == 42
        assert driver.read_flags(2) & CAM_FLAG_HIT

    def test_miss_clears_hit_flag(self, driver):
        _op(driver, CAM, CAM_CLEAR)
        _op(driver, CAM, CAM_LOOKUP, a=55, dst=1, flag=2)
        driver.read_reg(1)
        assert not driver.read_flags(2) & CAM_FLAG_HIT

    def test_store_overwrites_same_key(self, driver):
        _op(driver, CAM, CAM_CLEAR)
        _op(driver, CAM, CAM_STORE, a=5, b=10)
        _op(driver, CAM, CAM_STORE, a=5, b=20)
        _op(driver, CAM, CAM_LOOKUP, a=5, dst=1, flag=2)
        assert driver.read_reg(1) == 20
        _op(driver, CAM, CAM_COUNT, dst=1)
        assert driver.read_reg(1) == 1

    def test_delete(self, driver):
        _op(driver, CAM, CAM_CLEAR)
        _op(driver, CAM, CAM_STORE, a=5, b=10)
        _op(driver, CAM, CAM_DELETE, a=5)
        _op(driver, CAM, CAM_LOOKUP, a=5, dst=1, flag=2)
        driver.read_reg(1)
        assert not driver.read_flags(2) & CAM_FLAG_HIT

    def test_round_robin_replacement_when_full(self, driver):
        _op(driver, CAM, CAM_CLEAR)
        for k in range(4):                       # fill capacity 4
            _op(driver, CAM, CAM_STORE, a=k, b=k * 10)
        _op(driver, CAM, CAM_STORE, a=99, b=990)  # evicts slot 0 (key 0)
        _op(driver, CAM, CAM_LOOKUP, a=0, dst=1, flag=2)
        driver.read_reg(1)
        assert not driver.read_flags(2) & CAM_FLAG_HIT
        _op(driver, CAM, CAM_LOOKUP, a=99, dst=1, flag=2)
        assert driver.read_reg(1) == 990

    def test_count(self, driver):
        _op(driver, CAM, CAM_CLEAR)
        for k in (1, 2, 3):
            _op(driver, CAM, CAM_STORE, a=k, b=k)
        _op(driver, CAM, CAM_COUNT, dst=1)
        assert driver.read_reg(1) == 3

    def test_matches_python_dict_behaviour(self, driver):
        rng = random.Random(3)
        _op(driver, CAM, CAM_CLEAR)
        model: dict[int, int] = {}
        for _ in range(12):
            k, v = rng.randrange(6), rng.randrange(1000)
            if len(model) < 4 or k in model:   # stay within capacity → no eviction
                _op(driver, CAM, CAM_STORE, a=k, b=v)
                model[k] = v
        for k, v in model.items():
            _op(driver, CAM, CAM_LOOKUP, a=k, dst=1, flag=2)
            assert driver.read_reg(1) == v
            assert driver.read_flags(2) & CAM_FLAG_HIT


class TestCoexistence:
    def test_all_three_share_one_coprocessor(self, driver):
        """Stateful units interleave freely with the stateless case studies."""
        _op(driver, HIST, HIST_CLEAR)
        _op(driver, CAM, CAM_CLEAR)
        _op(driver, PRNG, PRNG_SEED, a=1234)
        driver.write_reg(1, 6)
        driver.write_reg(2, 7)
        driver.execute(ins.add(3, 1, 2, dst_flag=1))    # arithmetic unit
        _op(driver, PRNG, PRNG_NEXT, dst=4)
        _op(driver, HIST, HIST_SAMPLE, a=5)
        _op(driver, CAM, CAM_STORE, a=1, b=111)
        assert driver.read_reg(3) == 13
        assert driver.read_reg(4) == xorshift32(1234)
        _op(driver, CAM, CAM_LOOKUP, a=1, dst=5, flag=3)
        assert driver.read_reg(5) == 111
        driver.execute(ins.fence())
        driver.run_until_quiet()
        assert driver.soc.rtm.lockmgr.all_free
