"""State guards: per-element injection + detection, and the scrubber.

One :class:`StateFaultPlan` owns the spec and the shared stats; each
protected element gets a *guard* wired between the element and the
:class:`~repro.faults.mcu.MachineCheckUnit`:

* :class:`RamGuard` — the register file and flag file, on top of the
  generic :class:`repro.hdl.memory.Protected` shadow (write-indexed
  fates, read-time SECDED check);
* :class:`LockGuard` — the lock-manager scoreboard (update-indexed
  fates on the two lock masks, checked at every scoreboard query);
* :class:`FutableGuard` — the functional-unit table's config bits
  (dispatch-indexed fates; every table consultation re-validates the
  rows against a golden copy before use, like inline config-ROM ECC);
* :class:`ArrayGuard` — smart-memory cell payloads (command-indexed
  fates, applied identically to vector, structural and compiled
  executions; the fold tree's inline ECC corrects singles and raises
  doubles).

:class:`StateScrubber` walks the RAM/scoreboard slots in the background,
repairing latent single-bit upsets before a functional read meets them.
It is wheel-compatible: while nothing is tainted its cycles are pure
aging (``skip`` batches the epoch count), so fault-free protected runs
keep the full fast-forward speedup.
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from dataclasses import replace as dc_replace
from typing import Callable, Optional

from ..fu.protocol import WriteSpace
from ..hdl import Component, Protected
from ..hdl.signal import _UNSET
from .mcu import MachineCheckUnit
from .spec import _SEED_STRIDE, StateFaultSpec, StateFaultStats


def _syndrome_of(fate: tuple) -> int:
    """Pack a fate's bit positions the way the wire syndrome does."""
    if fate[0] == "flip":
        return fate[1] & 0xFF
    if fate[0] == "double":
        lo, hi = sorted(fate[1:3])
        return ((hi & 0xFF) << 8) | (lo & 0xFF)
    return 0


def _xor_of(fate: tuple) -> int:
    if fate[0] == "flip":
        return 1 << fate[1]
    if fate[0] == "double":
        return (1 << fate[1]) | (1 << fate[2])
    return 0


class StateFaultPlan:
    """The state-fault domain of one system: spec + stats + guard registry.

    ``spec=None`` means protection without injection (``state_protection=
    True``): all the shadows, scrubbing and machine-check machinery are
    live, but every fate is clean.
    """

    def __init__(self, spec: Optional[StateFaultSpec] = None):
        self.spec = spec
        self.stats = StateFaultStats()
        self._clock: Optional[Callable[[], int]] = None
        self._guards: list = []

    def bind_clock(self, fn: Callable[[], int]) -> None:
        """Bind the simulator's cycle counter (for latency accounting)."""
        self._clock = fn

    def now(self) -> int:
        return self._clock() if self._clock is not None else 0

    def register(self, guard) -> None:
        self._guards.append(guard)

    @property
    def guards(self) -> list:
        return list(self._guards)

    def fate(self, element_id: str, index: int, width: int) -> tuple:
        if self.spec is None:
            return ("ok",)
        return self.spec.fate(element_id, index, width)

    def placement_rng(self, element_id: str, index: int) -> random.Random:
        """Deterministic auxiliary RNG for where an upset lands."""
        seed = self.spec.seed if self.spec is not None else 0
        return random.Random(
            (seed * _SEED_STRIDE + zlib.crc32(f"{element_id}/placement".encode()))
            * _SEED_STRIDE
            + index
        )

    @property
    def tainted(self) -> bool:
        """Any guard holds a latent (injected, not yet resolved) upset."""
        return any(g.tainted for g in self._guards)


class RamGuard(Protected):
    """ECC shadow over a :class:`~repro.hdl.SyncRam`, wired to the plan/MCU."""

    def __init__(self, element_id: str, ram, plan: StateFaultPlan, mcu: MachineCheckUnit):
        super().__init__(ram)
        self.element_id = element_id
        self.plan = plan
        self.mcu = mcu
        self.code = mcu.register_guard(self)
        plan.register(self)

    # -- Protected overrides --------------------------------------------------------

    def fate(self, index: int, width: int) -> tuple:
        return self.plan.fate(self.element_id, index, width)

    def report(self, addr: int, syndrome: int) -> None:
        self.mcu.raise_check(self, addr, syndrome)

    def now(self) -> int:
        return self.plan.now()

    def _note_injected(self, double: bool) -> None:
        if double:
            self.plan.stats.injected_double += 1
        else:
            self.plan.stats.injected_single += 1

    def _note_corrected(self, injected_at: Optional[int]) -> None:
        stats = self.plan.stats
        stats.corrected += 1
        stats.detections += 1
        if injected_at is not None:
            stats.record_latency(max(0, self.plan.now() - injected_at))

    def _note_uncorrectable(self, injected_at: Optional[int]) -> None:
        stats = self.plan.stats
        stats.uncorrectable += 1
        stats.detections += 1
        if injected_at is not None:
            stats.record_latency(max(0, self.plan.now() - injected_at))

    def _note_overwritten(self) -> None:
        self.plan.stats.overwritten += 1


class LockGuard:
    """Parity shadow over the lock manager's two scoreboard masks.

    Every ``lock``/``unlock`` is one indexed operation; the guard keeps
    the *intended* mask sequence in plain integers and corrupts the
    staged value when a fate says so.  Every scoreboard query checks the
    committed masks first: a one-bit deviation is repaired in place, a
    wider one raises a machine check (a scoreboard that lies about
    in-flight state is exactly the silent-corruption vector the
    multi-tenant roadmap item worries about).
    """

    _SPACES = (WriteSpace.DATA, WriteSpace.FLAG)

    def __init__(self, element_id: str, lockmgr, plan: StateFaultPlan, mcu: MachineCheckUnit):
        self.element_id = element_id
        self.lockmgr = lockmgr
        self.plan = plan
        self.mcu = mcu
        self.code = mcu.register_guard(self)
        plan.register(self)
        lockmgr._guard = self
        self._ops = 0
        self._true = {
            WriteSpace.DATA: lockmgr._data_locks.value,
            WriteSpace.FLAG: lockmgr._flag_locks.value,
        }
        #: upset injection timestamps per space (None key = unknown age)
        self._taint: dict[WriteSpace, int] = {}

    def _width(self, space: WriteSpace) -> int:
        # Tracked register counts, not the architectural config values —
        # under renaming the scoreboard covers the physical pool.
        return (
            self.lockmgr.n_data
            if space is WriteSpace.DATA
            else self.lockmgr.n_flag
        )

    def _reg(self, space: WriteSpace):
        return self.lockmgr._reg_for(space)

    # -- update path (edge phase, called from LockManager.lock/unlock) --------------

    def on_op(self, space: WriteSpace, reg: int, is_lock: bool, staged: int) -> int:
        bit = 1 << reg
        true = self._true[space]
        self._true[space] = (true | bit) if is_lock else (true & ~bit)
        index = self._ops
        self._ops = index + 1
        f = self.plan.fate(self.element_id, index, self._width(space))
        if f[0] == "ok":
            return staged
        if f[0] == "double":
            self.plan.stats.injected_double += 1
        else:
            self.plan.stats.injected_single += 1
        self._taint.setdefault(space, self.plan.now())
        return staged ^ _xor_of(f)

    # -- query path (settle phase, called from every scoreboard read) ---------------

    def check(self) -> None:
        for addr, space in enumerate(self._SPACES):
            reg = self._reg(space)
            value = reg.value
            true = self._true[space]
            if value == true:
                continue
            self._resolve(addr, space, reg, value, true)

    def _resolve(self, addr, space, reg, value, true) -> None:
        xor = value ^ true
        injected_at = self._taint.pop(space, None)
        stats = self.plan.stats
        if bin(xor).count("1") == 1:
            reg.force(true)
            stats.corrected += 1
            stats.detections += 1
        else:
            stats.uncorrectable += 1
            stats.detections += 1
            bits = [i for i in range(xor.bit_length()) if xor >> i & 1]
            syndrome = ((bits[-1] & 0xFF) << 8) | (bits[0] & 0xFF)
            self.mcu.raise_check(self, addr, syndrome)
        if injected_at is not None:
            stats.record_latency(max(0, self.plan.now() - injected_at))

    # -- scrub / clear ----------------------------------------------------------------

    def slots(self) -> tuple:
        return (0, 1)

    def scrub(self, slot: int) -> None:
        space = self._SPACES[slot]
        reg = self._reg(space)
        if reg._staged is not _UNSET:
            return
        value = reg.value
        true = self._true[space]
        if value != true:
            self._resolve(slot, space, reg, value, true)

    def scrub_all(self) -> None:
        for space in self._SPACES:
            reg = self._reg(space)
            if reg.value != self._true[space]:
                reg.force(self._true[space])
        self._taint.clear()

    def clear(self) -> None:
        self._true = {
            WriteSpace.DATA: self.lockmgr._data_locks.value,
            WriteSpace.FLAG: self.lockmgr._flag_locks.value,
        }
        self._taint.clear()

    @property
    def tainted(self) -> bool:
        return bool(self._taint)


class RenameGuard:
    """Parity shadow over the rename table's architectural→physical map.

    Fates are indexed by *rename allocations* (the operations that write
    the map).  An upset flips bits in one staged map entry; every map
    query — source rename, architectural backdoor, checkpoint capture —
    compares the committed map against the intended shadow first.  A
    single-bit deviation in one entry is repaired in place; anything
    wider restores the intended map *and* raises a machine check, because
    a corrupt physical index must never be allowed to steer a register
    read (an out-of-range index would fault the machine, an in-range one
    would silently read the wrong value — the exact failure the
    identical-or-raises contract forbids).
    """

    _SPACES = (WriteSpace.DATA, WriteSpace.FLAG)

    def __init__(self, element_id: str, rename, plan: StateFaultPlan, mcu: MachineCheckUnit):
        self.element_id = element_id
        self.rename = rename
        self.plan = plan
        self.mcu = mcu
        self.code = mcu.register_guard(self)
        plan.register(self)
        rename._guard = self
        self._ops = 0
        self._true = {
            space: rename._map[space].value for space in self._SPACES
        }
        #: the intended map the committed register holds while an edge has
        #: a rename staged on top of it (``_true`` is then the staged map)
        self._committed = dict(self._true)
        self._taint: dict[WriteSpace, int] = {}

    # -- update path (edge phase, called from RenameTable.allocate) -----------------

    def on_rename(self, space: WriteSpace, arch: int, staged: tuple) -> tuple:
        if self.rename._map[space]._staged is _UNSET:
            self._committed[space] = self._true[space]
        # Only ``arch`` changes intent: an upset staged by an earlier rename
        # of this edge must not become part of the shadow.
        intended = list(self._true[space])
        intended[arch] = staged[arch]
        self._true[space] = tuple(intended)
        index = self._ops
        self._ops = index + 1
        f = self.plan.fate(self.element_id, index, 8)
        if f[0] == "ok":
            return staged
        if f[0] == "double":
            self.plan.stats.injected_double += 1
        else:
            self.plan.stats.injected_single += 1
        self._taint.setdefault(space, self.plan.now())
        corrupted = list(staged)
        corrupted[arch] = (corrupted[arch] ^ _xor_of(f)) & 0xFF
        return tuple(corrupted)

    # -- query path (settle phase, called from every map read) ----------------------

    def check(self) -> None:
        for addr, space in enumerate(self._SPACES):
            reg = self.rename._map[space]
            value = reg.value
            # A second rename in one edge (data then flag destination) checks
            # the still-committed map: compare it with the pre-edge intent.
            true = self._true[space] if reg._staged is _UNSET else self._committed[space]
            if value == true:
                continue
            self._resolve(addr, space, reg, value, true)

    def _resolve(self, addr, space, reg, value, true) -> None:
        diffs = [i for i, (v, t) in enumerate(zip(value, true)) if v != t]
        injected_at = self._taint.pop(space, None)
        stats = self.plan.stats
        # Always restore the intended map before anyone reads through it.
        reg.force(true)
        single = (
            len(diffs) == 1
            and bin(value[diffs[0]] ^ true[diffs[0]]).count("1") == 1
        )
        if single:
            stats.corrected += 1
            stats.detections += 1
        else:
            stats.uncorrectable += 1
            stats.detections += 1
            entry = diffs[0]
            syndrome = ((entry & 0xFF) << 8) | (
                (value[entry] ^ true[entry]) & 0xFF
            )
            self.mcu.raise_check(self, addr, syndrome)
        if injected_at is not None:
            stats.record_latency(max(0, self.plan.now() - injected_at))

    # -- scrub / clear ----------------------------------------------------------------

    def slots(self) -> tuple:
        return (0, 1)

    def scrub(self, slot: int) -> None:
        space = self._SPACES[slot]
        reg = self.rename._map[space]
        if reg._staged is not _UNSET:
            return
        value = reg.value
        true = self._true[space]
        if value != true:
            self._resolve(slot, space, reg, value, true)

    def scrub_all(self) -> None:
        for space in self._SPACES:
            reg = self.rename._map[space]
            if reg.value != self._true[space]:
                reg.force(self._true[space])
        self._taint.clear()

    def clear(self) -> None:
        self._true = {
            space: self.rename._map[space].value for space in self._SPACES
        }
        self._taint.clear()

    @property
    def tainted(self) -> bool:
        return bool(self._taint)


class FutableGuard:
    """Golden-copy protection of the functional-unit table's config bits.

    Fates are indexed by *unit dispatches* (the operations that consume
    the table).  An upset corrupts a row's port bits in the live table;
    the very next consultation — decoder decode, dispatcher port scan —
    re-validates against the golden copy before serving rows, so corrupt
    routing data is never acted on: singles are corrected silently,
    doubles restore the row and raise a machine check.
    """

    def __init__(self, element_id: str, table, plan: StateFaultPlan, mcu: MachineCheckUnit):
        self.element_id = element_id
        self.table = table
        self.plan = plan
        self.mcu = mcu
        self.code = mcu.register_guard(self)
        plan.register(self)
        table._guard = self
        self._golden = dict(table._entries)
        self._ops = 0
        self._pending: Optional[tuple] = None

    def on_dispatch(self) -> None:
        """One unit instruction consumed the table (dispatcher edge)."""
        index = self._ops
        self._ops = index + 1
        if not self._golden:
            return
        f = self.plan.fate(self.element_id, index, 8)
        if f[0] == "ok":
            return
        rng = self.plan.placement_rng(self.element_id, index)
        key = sorted(self._golden)[rng.randrange(len(self._golden))]
        entry = self._golden[key]
        self.table._entries[key] = dc_replace(entry, port=entry.port ^ _xor_of(f))
        self._pending = (f[0] == "double", key, f, self.plan.now())
        if f[0] == "double":
            self.plan.stats.injected_double += 1
        else:
            self.plan.stats.injected_single += 1

    def on_access(self) -> None:
        """Validate the rows before any consumer sees them."""
        p = self._pending
        if p is None:
            return
        self._pending = None
        double, key, f, injected_at = p
        self.table._entries[key] = self._golden[key]
        stats = self.plan.stats
        stats.detections += 1
        stats.record_latency(max(0, self.plan.now() - injected_at))
        if double:
            stats.uncorrectable += 1
            self.mcu.raise_check(self, key & 0xFFFF, _syndrome_of(f))
        else:
            stats.corrected += 1

    # -- scrub / clear ----------------------------------------------------------------

    def slots(self) -> tuple:
        return ()

    def scrub_all(self) -> None:
        self.table._entries.clear()
        self.table._entries.update(self._golden)
        self._pending = None

    def clear(self) -> None:
        self.scrub_all()

    @property
    def tainted(self) -> bool:
        return self._pending is not None


class ArrayGuard:
    """Cell-payload upsets for a smart-memory array, backend-identically.

    Fates are indexed by *applied commands* (the k-th non-NOP edge), the
    same stream in interpreted vector, structural and compiled
    executions.  The upset lands in one deterministic cell; at the next
    fold (the array's output reduction — where inline ECC naturally
    sits) a single is corrected before it can propagate and a double
    corrupts the chosen cell's payload and raises a machine check, so
    the pipeline freeze keeps the corrupt fold result from retiring.
    """

    def __init__(self, element_id: str, array, plan: StateFaultPlan, mcu: MachineCheckUnit):
        self.element_id = element_id
        self.array = array
        self.plan = plan
        self.mcu = mcu
        self.code = mcu.register_guard(self)
        plan.register(self)
        self._ops = 0
        self._pending: Optional[tuple] = None
        self._evt = None  # 1-bit wake reg, bound by the array's attach_guard
        array.attach_guard(self)

    def bind_evt(self, evt) -> None:
        self._evt = evt

    # -- injection (edge phase, once per applied command) ---------------------------

    def after_apply(self) -> None:
        index = self._ops
        self._ops = index + 1
        f = self.plan.fate(self.element_id, index, self.array.word_bits)
        if f[0] == "ok":
            return
        rng = self.plan.placement_rng(self.element_id, index)
        cell = rng.randrange(self.array.n_cells)
        self._pending = (f[0] == "double", cell, f, self.plan.now())
        if f[0] == "double":
            self.plan.stats.injected_double += 1
        else:
            self.plan.stats.injected_single += 1
        if self._evt is not None:
            # wake the application proc under the event-driven kernels
            self._evt.nxt = 1 - self._evt.value

    # -- application + detection (settle phase, before the fold) --------------------

    def pre_fold(self) -> None:
        if self._evt is not None:
            _ = self._evt.value  # tracked read: the wake edge re-runs this proc
        p = self._pending
        if p is None:
            return
        self._pending = None
        double, cell, f, injected_at = p
        stats = self.plan.stats
        stats.detections += 1
        stats.record_latency(max(0, self.plan.now() - injected_at))
        if not double:
            # corrected by the fold-port ECC before it can propagate: the
            # payload never observably changes, only the counters move.
            stats.corrected += 1
            return
        stats.uncorrectable += 1
        state = self.array.state_at(cell)
        self.array.poke_state(cell, self._corrupt(state, _xor_of(f)))
        self.mcu.raise_check(self, cell & 0xFFFF, _syndrome_of(f))

    def _corrupt(self, state, xor: int):
        """Flip payload bits in the first integer field of the state."""
        mask = (1 << self.array.word_bits) - 1
        for fld in dataclasses.fields(state):
            value = getattr(state, fld.name)
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            return dc_replace(state, **{fld.name: (value ^ xor) & mask})
        return state

    # -- scrub / clear ----------------------------------------------------------------

    def slots(self) -> tuple:
        return ()

    def scrub_all(self) -> None:
        self._pending = None

    def clear(self) -> None:
        self._pending = None

    @property
    def tainted(self) -> bool:
        return self._pending is not None


class StateScrubber(Component):
    """Background walker over the scrub slots of every registered guard.

    One slot per cycle, round-robin, active only while some guard holds
    a latent upset — otherwise every cycle is pure aging, batched by the
    wheel hook, so protection costs nothing on idle stretches.
    """

    def __init__(
        self,
        name: str,
        plan: StateFaultPlan,
        mcu: MachineCheckUnit,
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        self._plan = plan
        self._mcu = mcu
        self._pos = 0
        self._slots: Optional[list] = None

        @self.seq
        def _scrub() -> None:
            stats = self._plan.stats
            stats.scrub_epochs += 1
            if not self._plan.tainted or self._mcu.pending:
                return
            slots = self._slot_list()
            if not slots:
                return
            guard, slot = slots[self._pos % len(slots)]
            self._pos += 1
            stats.scrub_visits += 1
            guard.scrub(slot)

        self.wheel(self._horizon, self._skip)

        @self.on_reset
        def _rewind() -> None:
            self._pos = 0

    def _slot_list(self) -> list:
        if self._slots is None:
            self._slots = [
                (g, s) for g in self._plan.guards for s in g.slots()
            ]
        return self._slots

    # -- time-wheel hooks -------------------------------------------------------------

    def _horizon(self) -> Optional[int]:
        if self._plan.tainted and not self._mcu.pending:
            return 0  # real scrub work next edge
        return None  # pure aging: epochs batch through skip()

    def _skip(self, n: int) -> None:
        self._plan.stats.scrub_epochs += n
