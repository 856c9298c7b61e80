"""Word-width edges of the kit arrays.

Reproducers for two vector-only crashes: a 64-bit index at or above 2**32
(``H_INC``/``H_READ``, ``SC_READ_AT``, ``M_READ``) overflowed the uint32
cast of the position comparison on vector arrays while the structural
oracle answered "no such cell"; and words wider than 64 bits overflowed
the NumPy lanes of vector arrays only.  Both array kinds now agree on the
first and reject the second at construction.
"""

from __future__ import annotations

import random

import pytest

from repro.smem.histogram import DirectHistMachine
from repro.smem.match import DirectMatchMachine
from repro.smem.scan import DirectScanMachine
from repro.xisort import DirectXiSortMachine

SEED = 20261017
N_CELLS = 8


def _wide_indices(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 32, 1 << 64) for _ in range(3)] + [(1 << 32) + 3]


def _hist_script(m, wide):
    m.reset_bins()
    for i in wide:
        m.increment(i)          # hits no bin
    m.increment(3)
    m.sample(wide[-1])          # the ALU bin mask keeps the low bits: bin 3
    return (tuple(m.read_bin(i) for i in wide), m.read_bin(3), m.total(),
            m.nonzero_bins(), m.cycles)


def _scan_script(m, wide):
    m.reset_column()
    m.load([5, 7, 11])
    return (tuple(m.read_at(i) for i in wide), m.read_at(1), m.total(), m.cycles)


def _match_script(m, wide):
    m.set_pattern(b"ab")
    return (tuple(m.read_pattern_at(i) for i in wide), m.read_pattern_at(1),
            tuple(m.feed(b"xabab")), m.cycles)


UNITS = {
    "histogram": (DirectHistMachine, _hist_script),
    "scan": (DirectScanMachine, _scan_script),
    "match": (DirectMatchMachine, _match_script),
}


@pytest.mark.parametrize("backend", ["event", "compiled"])
@pytest.mark.parametrize("unit", sorted(UNITS))
def test_wide_index_selects_no_cell_on_both_array_kinds(unit, backend):
    machine, script = UNITS[unit]
    wide = _wide_indices(SEED)
    runs = {
        kind: script(machine(N_CELLS, word_bits=64, array_kind=kind,
                             backend=backend), wide)
        for kind in ("vector", "structural")
    }
    assert runs["vector"] == runs["structural"]
    # an out-of-range index addresses nothing: "no bin" / no value
    assert runs["vector"][0] == (None,) * len(wide)


def test_wide_index_reproducer_from_the_report():
    m = DirectHistMachine(8, word_bits=64)
    m.increment(2**40 + 3)
    assert m.read_bin(3) == 0
    assert m.total() == 0


@pytest.mark.parametrize("kind", ["vector", "structural"])
@pytest.mark.parametrize("make", [
    lambda kind: DirectScanMachine(8, word_bits=96, array_kind=kind),
    lambda kind: DirectXiSortMachine(8, word_bits=128, array_kind=kind),
    lambda kind: DirectHistMachine(8, word_bits=65, array_kind=kind),
    lambda kind: DirectMatchMachine(8, word_bits=72, array_kind=kind),
], ids=["scan96", "xisort128", "hist65", "match72"])
def test_words_wider_than_a_lane_are_rejected_at_construction(make, kind):
    with pytest.raises(ValueError, match=r"core\.cells: word_bits=\d+ exceeds "
                                         r"the 64-bit lane limit"):
        make(kind)


@pytest.mark.parametrize("kind", ["vector", "structural"])
def test_sixty_four_bit_words_stay_exact(kind):
    m = DirectXiSortMachine(8, word_bits=64, array_kind=kind)
    values = [2**63 + 5, 3, 2**40, 2**64 - 1]
    assert m.sort(values) == sorted(values)
