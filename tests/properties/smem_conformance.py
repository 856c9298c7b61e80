"""Generic ``__compile_vector__`` conformance harness for kit arrays.

Any smart-memory machine built on :mod:`repro.smem` owes the compiled
backend the same obligations ξ-sort pioneered: the vectorized executor
must be *observably invisible* (event-kernel parity down to cycle counts
and VCD bytes), must leave *zero* interpreted fallbacks at production
sizes, and must certify wheel jumps soundly (fast-forwarding an idle
array never changes behaviour).  This module states those obligations
once, as a :class:`MachineSpec` per machine plus check functions that
:mod:`tests.properties.test_prop_smem_conformance` instantiates over
every in-tree kit client — a new machine joins the suite by adding one
spec entry.

The toy "tally" unit below is declared here from a kit
:class:`~repro.smem.UnitSpec` alone (plus its :class:`DirectMachine`),
the same unit the tutorial builds: it holds the kit to deriving a
conforming unit from nothing but the declaration.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

import numpy as np

from repro.hdl.vcd import VcdWriter
from repro.smem import WORD, DirectMachine, MicroInstr, UnitSpec, verify_array_contract
from repro.smem.microcode import OP_A

#: exhaustive is the reference oracle; compiled is the backend under test
BACKENDS = ("exhaustive", "event", "compiled")
ARRAY_KINDS = ("vector", "structural")

#: "production size" for the zero-fallback obligation (ISSUE acceptance)
FULL_SIZE = 256


@dataclass(frozen=True)
class MachineSpec:
    """One kit machine under conformance test."""

    name: str
    #: machine factory — (n_cells, array_kind, backend, wheel) → DirectMachine
    make: Callable[..., DirectMachine]
    #: deterministic workload; returns hashable observations
    script: Callable[[DirectMachine], tuple]
    #: cells needed by the script (kept small: exhaustive runs it too)
    script_cells: int = 16


# ---------------------------------------------------------------------------
# the tally unit: every cell holds a word, BUMP adds the broadcast to all of
# them, the fold reports the column total


class TallyCmd(IntEnum):
    NOP = 0
    CLEAR = 1  # every cell back to 0
    BUMP = 2   # every cell: value += broadcast (mod 2**word_bits)


@dataclass(frozen=True)
class TallyState:
    value: int = 0


def tally_step(vec, cmd: int, broadcast: int) -> None:
    """NumPy step over the whole column (production)."""
    if cmd == TallyCmd.CLEAR:
        vec.clear()
    elif cmd == TallyCmd.BUMP:
        vec.value = (vec.value + (broadcast & vec.mask)) & vec.mask
    else:
        raise ValueError(f"unknown tally command {cmd!r}")


def tally_cell_step(cell, st: TallyState, cmd: int) -> TallyState:
    """Scalar step of one cell (the oracle); unchanged → same object."""
    mask = cell.array.mask
    if cmd == TallyCmd.CLEAR:
        return TallyState() if st.value else st
    if cmd == TallyCmd.BUMP:
        b = cell.broadcast.value & mask
        return TallyState((st.value + b) & mask) if b else st
    raise ValueError(f"unknown tally command {cmd!r}")


def tally_fold(arr, vec) -> None:
    arr.total.set(int(np.sum(vec.value, dtype=np.uint64)) & vec.mask)


def tally_cell_fold(arr, states: list) -> None:
    arr.total.set(sum(s.value for s in states) & arr.mask)


T_RESET, T_BUMP, T_TOTAL = 0x01, 0x02, 0x03

TALLY = UnitSpec(
    name="Tally",
    cmd=TallyCmd,
    state=TallyState,
    buses=(("broadcast", WORD),),
    outputs=(("total", WORD),),
    atoms={"total": "total"},
    microcode={
        T_RESET: (MicroInstr(cell_cmd=TallyCmd.CLEAR, done=True),),
        T_BUMP: (MicroInstr(cell_cmd=TallyCmd.BUMP, broadcast=OP_A, done=True),),
        T_TOTAL: (MicroInstr(emit=(("data1", ("total",)),), done=True),),
    },
    step=tally_step,
    fold=tally_fold,
    cell_step=tally_cell_step,
    cell_fold=tally_cell_fold,
)


class DirectTallyMachine(DirectMachine):
    spec = TALLY
    core_name = "tallycore"

    def reset_tally(self) -> int:
        return self.op(T_RESET)["cycles"]

    def bump(self, amount: int) -> int:
        return self.op(T_BUMP, amount)["cycles"]

    def total(self) -> int:
        return self.op(T_TOTAL)["data1"]


def _make(spec: MachineSpec, *, n_cells=None, array_kind="vector",
          backend="event", wheel=True) -> DirectMachine:
    return spec.make(n_cells or spec.script_cells, array_kind=array_kind,
                     backend=backend, wheel=wheel)


def _scan_script(m) -> tuple:
    m.reset_column()
    m.load([3, 1, 4, 1, 5, 9, 2, 6])
    obs = (m.count(), m.total(), m.minimum(), m.maximum(), m.prefix_sum())
    reads = tuple(m.read_at(i) for i in range(9))
    m.add_all(7)
    return obs + reads + (m.read_at(0), m.total(), m.cycles)


def _hist_script(m) -> tuple:
    m.reset_bins()
    m.load([1, 2, 2, 5, 5, 5, 0, 15])
    m.increment(2)
    obs = (m.total(), m.peak(), m.nonzero_bins())
    reads = tuple(m.read_bin(i) for i in range(6)) + (m.read_bin(99),)
    return obs + reads + (m.cycles,)


def _match_script(m) -> tuple:
    m.reset_machine()
    m.set_pattern(b"aba")
    first = tuple(m.feed(b"abababax"))
    obs = (m.hits(), m.pattern_length())
    m.restart()
    second = tuple(m.feed(b"xxabay"))
    return first + obs + second + (m.hits(), m.cycles)


def _xisort_script(m) -> tuple:
    values = [9, 3, 14, 1, 12, 7, 5, 11]
    out = tuple(m.sort(values))
    return out + (m.imprecise_count(), m.cycles)


def _tally_script(m) -> tuple:
    m.reset_tally()
    m.bump(3)
    m.bump(4)
    first = m.total()
    m.bump((1 << 32) - 1)  # wraps every cell modulo the word
    return (first, m.total(), m.bump(0), m.total(), m.cycles)


def _specs() -> list[MachineSpec]:
    # imported here, not at module top: pulling the machines in at collection
    # time would slow unrelated test files in this directory
    from repro.smem.histogram import DirectHistMachine
    from repro.smem.match import DirectMatchMachine
    from repro.smem.scan import DirectScanMachine
    from repro.xisort import DirectXiSortMachine

    return [
        MachineSpec("scan", DirectScanMachine, _scan_script),
        MachineSpec("histogram", DirectHistMachine, _hist_script),
        MachineSpec("match", DirectMatchMachine, _match_script),
        MachineSpec("xisort", DirectXiSortMachine, _xisort_script),
        MachineSpec("tally", DirectTallyMachine, _tally_script),
    ]


def conformance_specs() -> list[MachineSpec]:
    return _specs()


# ---------------------------------------------------------------------------
# the three obligations


def run_traced(spec: MachineSpec, array_kind: str, backend: str,
               wheel: bool = True) -> dict:
    """Run the spec's script under a full-hierarchy VCD observer."""
    m = _make(spec, array_kind=array_kind, backend=backend, wheel=wheel)
    buf = io.StringIO()
    writer = VcdWriter(m.sim, buf)
    obs = spec.script(m)
    writer.detach()
    return {"obs": obs, "now": m.sim.now, "vcd": buf.getvalue()}


def check_event_kernel_parity(spec: MachineSpec, array_kind: str) -> None:
    """Obligation 1: identical observations, cycle counts and VCD bytes
    across the exhaustive, event and compiled kernels."""
    runs = {b: run_traced(spec, array_kind, b) for b in BACKENDS}
    base = runs[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        run = runs[backend]
        assert run["obs"] == base["obs"], (
            f"{spec.name}/{array_kind}: observations diverge between "
            f"{BACKENDS[0]} and {backend}"
        )
        assert run["now"] == base["now"], (
            f"{spec.name}/{array_kind}: cycle counts diverge between "
            f"{BACKENDS[0]} and {backend}"
        )
        assert run["vcd"] == base["vcd"], (
            f"{spec.name}/{array_kind}: VCD bytes diverge between "
            f"{BACKENDS[0]} and {backend}"
        )


def check_zero_fallback(spec: MachineSpec, array_kind: str,
                        n_cells: int = FULL_SIZE) -> None:
    """Obligation 2: at production size every process compiles — no
    interpreted fallbacks, and the whole column is vectorized."""
    m = _make(spec, n_cells=n_cells, array_kind=array_kind, backend="compiled")
    stats = m.sim.kernel_stats
    assert stats.fallback_procs == 0, (
        f"{spec.name}/{array_kind}@{n_cells}: "
        f"{stats.fallback_procs} interpreted fallback(s)"
    )
    assert stats.vectorized_cells == n_cells, (
        f"{spec.name}/{array_kind}@{n_cells}: vectorized "
        f"{stats.vectorized_cells} of {n_cells} cells"
    )
    assert stats.compiled_procs > 0


def check_wheel_jump_safety(spec: MachineSpec, array_kind: str) -> None:
    """Obligation 3: the executor's horizon lets the wheel fast-forward an
    idle array, and jumping never changes the script's observations."""
    jumping = _make(spec, array_kind=array_kind, backend="compiled", wheel=True)
    obs_jump = spec.script(jumping)
    jumping.sim.step(500)  # idle tail: NOP horizon must engage
    assert jumping.sim.kernel_stats.skipped_cycles > 0, (
        f"{spec.name}/{array_kind}: wheel never jumped on an idle array"
    )
    stepping = _make(spec, array_kind=array_kind, backend="compiled", wheel=False)
    obs_step = spec.script(stepping)
    assert obs_jump == obs_step, (
        f"{spec.name}/{array_kind}: wheel jumps changed observable behaviour"
    )


def check_contract(spec: MachineSpec, array_kind: str) -> None:
    """The static kit contract (see repro.smem.contract) holds as built."""
    m = _make(spec, array_kind=array_kind, backend="compiled")
    problems = verify_array_contract(m.core.array)
    assert problems == [], f"{spec.name}/{array_kind}: {problems}"
