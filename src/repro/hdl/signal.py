"""Signals, wires and registers — the value carriers of the simulation kernel.

The kernel models a synchronous digital circuit at the cycle level, in the
style the paper's VHDL targets:

* :class:`Signal` — a combinational net.  Its value is (re)computed by
  combinational processes during the *settle* phase of each cycle.
* :class:`Reg` — a clocked register.  Sequential processes stage a value on
  the ``next`` side during the clock-edge phase; the simulator commits all
  staged values atomically, exactly like D flip-flops sampling on an edge.

Values are plain Python ints masked to the declared bit width.  A width of
``None`` declares a *payload* signal that can carry an arbitrary Python
object; payload signals are used by behavioural models (e.g. message bundles
in the host channel) where bit-exact encoding would add nothing but cost.
Payload signals still obey the two-phase timing discipline, so cycle counts
remain exact.

Scheduler hooks
---------------

Two light-weight hooks make the event-driven settle scheduler in
:mod:`repro.hdl.sim` possible without changing how processes are written:

* **Read tracking** — while the module-level ``_READS`` set is non-None,
  every value read (``.value``, ``.bit``, ``.bits``, ``bool()``, ``int()``)
  records the signal into it.  The simulator points ``_READS`` at a
  process's sensitivity set while running it, which is how each process's
  read set is discovered and kept up to date.
* **Change notification** — each signal carries a ``_pending`` slot that the
  owning simulator points at its changed-signal list during elaboration.
  :meth:`Signal.set`, :meth:`Signal.force` and :meth:`Reg.commit` append the
  signal there whenever its value actually changes, so the scheduler knows
  exactly which fanout cones to re-evaluate.  Signals outside any simulator
  (``_pending is None``) skip the append entirely.

The historical kernel-global :data:`CHANGES` dirty flag is retained: the
exhaustive reference scheduler and the loop-termination check of the
event scheduler both still read it, and tests may assert on it.
"""

from __future__ import annotations

from typing import Any, Optional

from .errors import WidthError

_UNSET = object()

#: When non-None, every signal value read adds the signal to this set.
#: The simulator installs a process's read set here while running it
#: (see ``Simulator``'s discovery/tracked execution paths).
_READS: Optional[set] = None

#: When non-None, every :meth:`Signal.set` call (changing or not) and every
#: :meth:`Reg.stage` call adds the signal to this set.  Active during the
#: discovery settle, where it separates genuinely inert processes (no reads,
#: no writes — the no-op placeholders passive components register) from
#: processes with hidden inputs (no reads, but real outputs), which must
#: fall back to always-run; and during the lint probe pass, which uses it to
#: attribute drivers to processes (see :mod:`repro.analysis.lint`).
_WRITES: Optional[set] = None


class tracking:
    """Context manager installing read/write tracking sets on this module.

    The simulator's discovery pass manipulates :data:`_READS`/:data:`_WRITES`
    inline for speed; out-of-kernel instrumentation (the lint engine's probe
    pass) uses this wrapper instead so nesting inside a live simulator —
    whose own hooks must be restored exactly — stays correct.
    """

    def __init__(self, reads: Optional[set] = None, writes: Optional[set] = None):
        self._reads = reads
        self._writes = writes
        self._saved: tuple = ()

    def __enter__(self) -> "tracking":
        global _READS, _WRITES
        self._saved = (_READS, _WRITES, CHANGES.dirty)
        _READS = self._reads
        _WRITES = self._writes
        return self

    def __exit__(self, *exc: Any) -> None:
        global _READS, _WRITES
        _READS, _WRITES, CHANGES.dirty = self._saved


class _ChangeTracker:
    """Kernel-global dirty flag set by :meth:`Signal.set`.

    The simulator clears it before each settle pass and reads it afterwards;
    this frees combinational processes from having to report whether they
    changed anything.  A single shared flag is sufficient because the kernel
    is single-threaded and one simulator runs at a time per design.

    ``stages`` counts every :meth:`Reg.stage` call (monotonic, never reset).
    The edge scheduler snapshots it around each pure sequential process run:
    an unchanged count proves the run staged nothing — including re-staging
    a register another process already staged, which the per-cycle staged
    list alone could not distinguish — so the process can be disarmed.
    """

    __slots__ = ("dirty", "stages")

    def __init__(self) -> None:
        self.dirty = False
        self.stages = 0


CHANGES = _ChangeTracker()


def mask_for(width: int) -> int:
    """Return the value mask for a bit width."""
    return (1 << width) - 1


class Signal:
    """A combinational net carrying an integer (or object payload) value.

    Parameters
    ----------
    name:
        Hierarchical name, assigned by the owning component.
    width:
        Bit width (>= 1), or ``None`` for an object payload signal.
    reset:
        Value the signal takes on simulator reset and at construction.
    """

    __slots__ = ("name", "width", "_mask", "_value", "reset", "owner",
                 "_pending", "_fanout", "_seq_fanout")

    def __init__(self, name: str, width: Optional[int] = 1, reset: Any = 0):
        if width is not None:
            if not isinstance(width, int) or width < 1:
                raise WidthError(f"signal {name!r}: width must be >= 1 or None, got {width!r}")
            self._mask = mask_for(width)
            reset = int(reset) & self._mask
        else:
            self._mask = None
        self.name = name
        self.width = width
        self.reset = reset
        self._value = reset
        self.owner: Any = None
        #: changed-signal list of the owning simulator (None when unmanaged)
        self._pending: Optional[list] = None
        #: combinational processes sensitive to this signal (scheduler-owned)
        self._fanout: list = []
        #: dormancy-tracked sequential processes reading this signal; a
        #: change re-arms them for the next clock edge (scheduler-owned)
        self._seq_fanout: list = []

    # -- value access -------------------------------------------------------

    @property
    def value(self) -> Any:
        """Current settled value of the net."""
        if _READS is not None:
            _READS.add(self)
        return self._value

    def set(self, value: Any) -> bool:
        """Drive the net; returns True when the value changed.

        Only combinational processes (and the simulator's reset logic) may
        call this.  Sequential processes must target :class:`Reg` ``nxt``.
        """
        if self._mask is not None:
            value = int(value) & self._mask
        if _WRITES is not None:
            _WRITES.add(self)
        if value != self._value:
            self._value = value
            CHANGES.dirty = True
            # Unconditionally notify the owning scheduler (draining a signal
            # with no fanout is a no-op).  Unlike force/commit, set() runs
            # *while* a process executes, and that process may have read this
            # signal for the first time moments ago — its fanout edge is only
            # registered after the run, so gating on a non-empty fanout here
            # would drop the wake-up and stall the feedback loop.
            if self._pending is not None:
                self._pending.append(self)
            return True
        return False

    def force(self, value: Any) -> None:
        """Set the value without dirty-flag tracking (reset / test harness use).

        The owning simulator is still notified of the change so that an
        event-driven settle following the force re-evaluates the fanout.
        The notification is unconditional: the compiled backend never
        populates fanout lists (its generated module keeps its own
        signal → wake-slot map), so it relies on every forced change
        landing in the pending list; for the event kernel, draining a
        signal with an empty fanout is a cheap no-op.
        """
        if self._mask is not None:
            value = int(value) & self._mask
        if value != self._value:
            self._value = value
            if self._pending is not None:
                self._pending.append(self)

    # -- conveniences --------------------------------------------------------

    def warp(self, value: Any) -> None:
        """Update the value with **no** change notification.

        Reserved for time-wheel ``skip`` hooks batch-aging counters that are
        read only by the hook's own component: the caller guarantees every
        reader already accounts for the jump, so waking fanout (or re-arming
        dormant sequential readers) would only create spurious work.  Using
        this on a signal with combinational readers outside the skipping
        component breaks the settled fixpoint — don't.
        """
        if self._mask is not None:
            value = int(value) & self._mask
        self._value = value

    def bit(self, index: int) -> int:
        """Read a single bit of the current value."""
        if _READS is not None:
            _READS.add(self)
        return (self._value >> index) & 1

    def bits(self, hi: int, lo: int) -> int:
        """Read the inclusive bit slice ``[hi:lo]`` of the current value."""
        if _READS is not None:
            _READS.add(self)
        return (self._value >> lo) & mask_for(hi - lo + 1)

    def __bool__(self) -> bool:
        if _READS is not None:
            _READS.add(self)
        return bool(self._value)

    def __index__(self) -> int:
        if _READS is not None:
            _READS.add(self)
        return int(self._value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        w = "obj" if self.width is None else f"{self.width}b"
        return f"<Signal {self.name} {w} = {self._value!r}>"


class Reg(Signal):
    """A clocked register.

    Sequential processes assign the *next* value via :attr:`nxt` (or
    :meth:`stage`); the simulator commits every staged value at the end of
    the clock-edge phase.  Reading :attr:`value` always yields the value
    latched at the previous edge, which is exactly the semantics of a D
    flip-flop bank and is what makes the pipeline models race-free.
    """

    __slots__ = ("_staged", "_stage_list")

    def __init__(self, name: str, width: Optional[int] = 1, reset: Any = 0):
        super().__init__(name, width, reset)
        self._staged: Any = _UNSET
        #: staged-register list of the owning simulator (None when unmanaged);
        #: lets the edge phase commit only registers that were actually staged
        self._stage_list: Optional[list] = None

    def stage(self, value: Any) -> None:
        """Stage ``value`` to be committed at the coming clock edge."""
        if self._mask is not None:
            value = int(value) & self._mask
        if _WRITES is not None:
            _WRITES.add(self)
        if self._staged is _UNSET and self._stage_list is not None:
            self._stage_list.append(self)
        self._staged = value
        CHANGES.stages += 1

    @property
    def nxt(self) -> Any:
        """The currently staged next value (or the held value if none staged)."""
        return self._value if self._staged is _UNSET else self._staged

    @nxt.setter
    def nxt(self, value: Any) -> None:
        self.stage(value)

    def commit(self) -> bool:
        """Latch the staged value; returns True when the register changed."""
        if self._staged is _UNSET:
            return False
        changed = self._staged != self._value
        self._value = self._staged
        self._staged = _UNSET
        # Notify unconditionally: the compiled backend keeps no fanout lists
        # (its settle drains the pending list into wake flags), and for the
        # event kernel draining a fanout-less register is a cheap no-op.
        if changed and self._pending is not None:
            self._pending.append(self)
        return changed

    def reset_state(self) -> None:
        """Restore the reset value and drop any staged update."""
        self._value = self.reset
        self._staged = _UNSET

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        w = "obj" if self.width is None else f"{self.width}b"
        return f"<Reg {self.name} {w} = {self._value!r}>"
