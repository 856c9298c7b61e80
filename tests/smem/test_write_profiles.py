"""Pin the ROM-derived write profiles of scan, histogram and match.

Each unit's write profile is now read off its microcode (the union of a
program's ``emit`` targets).  These tables are the hand-written profiles
the decoder locked before that derivation existed; every ROM variety and
one unknown code must still map to exactly the same destinations, or the
dispatcher would lock registers the adapter never writes (or miss ones it
does).  ξ-sort's table is pinned in ``tests/xisort/test_adapter.py``.
"""

from __future__ import annotations

import pytest

from repro.smem import histogram as h
from repro.smem import match as m
from repro.smem import scan as s

NONE = (False, False, False)
DATA1 = (True, False, False)
DATA1_FLAGS = (True, False, True)
ALL = (True, True, True)
UNKNOWN = 0x66

LOCKED = {
    "scan": (s.SCAN, {
        s.SC_RESET: NONE, s.SC_PUSH: NONE, s.SC_ADD: NONE,
        s.SC_SCAN: DATA1, s.SC_COUNT: DATA1,
        s.SC_TOTAL: DATA1_FLAGS, s.SC_MIN: DATA1_FLAGS, s.SC_MAX: DATA1_FLAGS,
        s.SC_READ_AT: DATA1_FLAGS,
        UNKNOWN: NONE,
    }),
    "histogram": (h.HIST, {
        h.H_RESET: NONE, h.H_INC: NONE, h.H_SAMPLE: NONE,
        h.H_NNZ: DATA1,
        h.H_READ: DATA1_FLAGS, h.H_TOTAL: DATA1_FLAGS,
        h.H_PEAK: ALL,
        UNKNOWN: NONE,
    }),
    "match": (m.MATCH, {
        m.M_RESET: NONE, m.M_PAT: NONE, m.M_RESTART: NONE,
        m.M_COUNT: DATA1, m.M_LEN: DATA1,
        m.M_STEP: DATA1_FLAGS, m.M_READ: DATA1_FLAGS,
        UNKNOWN: NONE,
    }),
}


@pytest.mark.parametrize("unit", sorted(LOCKED))
def test_profile_matches_the_locked_table(unit):
    spec, table = LOCKED[unit]
    assert {v: spec.write_profile(v) for v in table} == table


@pytest.mark.parametrize("unit", sorted(LOCKED))
def test_table_covers_every_rom_variety(unit):
    spec, table = LOCKED[unit]
    assert set(spec.rom(16)) == set(table) - {UNKNOWN}


@pytest.mark.parametrize("unit", sorted(LOCKED))
def test_unit_class_consults_the_same_profile(unit):
    spec, table = LOCKED[unit]
    for variety, expected in table.items():
        assert spec.unit.write_profile(variety) == expected
