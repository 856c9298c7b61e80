"""Component base class — the unit of hierarchy in the simulated design.

A component owns signals and registers and declares *processes*:

* **combinational** processes (:meth:`Component.comb`) run repeatedly during
  the settle phase until every signal is stable, mirroring zero-delay
  combinational logic in VHDL;
* **sequential** processes (:meth:`Component.seq`) run once per clock edge,
  reading settled signal values and staging register updates.

Components nest via :meth:`child`, giving the hierarchical naming the VCD
tracer and error messages use.  This mirrors the paper's "highly modular"
VHDL organisation (thesis §1.3): each framework block (decoder, dispatcher,
write arbiter, functional units, …) is one component.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from .errors import ElaborationError
from .signal import Reg, Signal

Process = Callable[[], None]


class Component:
    """A hierarchical block of logic with its own signals and processes."""

    def __init__(self, name: str, parent: Optional["Component"] = None):
        self.name = name
        self.parent = parent
        self.children: list[Component] = []
        self.signals: list[Signal] = []
        #: valid/ready/payload bundles declared on this component (filled in
        #: by :class:`~repro.hdl.components.Stream`; the lint protocol rules
        #: audit handshake discipline over this registry)
        self.streams: list = []
        #: design-rule suppressions declared via :meth:`lint_suppress`
        self.lint_suppressions: list[tuple] = []
        self.comb_procs: list[Process] = []
        #: comb processes the scheduler must run on every settle iteration
        #: because they read state it cannot see (see :meth:`comb`)
        self.always_procs: list[Process] = []
        self.seq_procs: list[Process] = []
        #: seq processes declared *pure* (``seq(fn, pure=True)``): eligible
        #: for the scheduler's armed/dormant edge-phase split
        self.pure_seq_procs: list[Process] = []
        self.reset_hooks: list[Process] = []
        #: time-wheel (horizon, skip) hook pairs (see :meth:`wheel`)
        self.wheel_hooks: list[tuple] = []
        if parent is not None:
            parent.children.append(self)

    # -- naming ---------------------------------------------------------------

    @property
    def path(self) -> str:
        """Full hierarchical path, e.g. ``soc.rtm.dispatcher``."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path}.{self.name}"

    # -- construction helpers ---------------------------------------------------

    def signal(self, name: str, width: Optional[int] = 1, reset: Any = 0) -> Signal:
        """Declare a combinational net owned by this component."""
        sig = Signal(f"{self.path}.{name}", width, reset)
        sig.owner = self
        self.signals.append(sig)
        return sig

    def reg(self, name: str, width: Optional[int] = 1, reset: Any = 0) -> Reg:
        """Declare a clocked register owned by this component."""
        r = Reg(f"{self.path}.{name}", width, reset)
        r.owner = self
        self.signals.append(r)
        return r

    def child(self, component: "Component") -> "Component":
        """Adopt an already-constructed component as a child."""
        if component.parent is None:
            component.parent = self
            self.children.append(component)
        elif component.parent is not self:
            raise ElaborationError(
                f"component {component.name!r} already has parent {component.parent.name!r}"
            )
        return component

    # -- process registration ----------------------------------------------------

    def comb(self, fn: Process = None, *, always: bool = False) -> Process:
        """Register (or decorate) a combinational process.

        The event-driven scheduler discovers which signals a process reads
        and re-runs it only when one of them changes.  A process whose
        outputs depend on state *not* read through ``Signal.value`` (plain
        Python attributes mutated by sequential processes, NumPy arrays, …)
        is invisible to that discovery and must be registered with
        ``always=True``, which pins it to every settle iteration — the
        exhaustive semantics of the original kernel, applied to just that
        process.  See docs/ARCHITECTURE.md ("the discovery-pass contract").
        """
        if fn is None:
            def _register(f: Process) -> Process:
                return self.comb(f, always=always)
            return _register
        self.comb_procs.append(fn)
        if always:
            self.always_procs.append(fn)
        return fn

    def seq(self, fn: Process = None, *, pure: bool = False) -> Process:
        """Register (or decorate) a sequential (clock-edge) process.

        ``pure=True`` declares that the process interacts with simulation
        state **only** by reading signals and staging registers — no hidden
        Python attributes are read or mutated across runs.  The event
        scheduler may then put it to sleep after an edge on which it staged
        nothing: its read set is tracked exactly like a combinational
        process's, and any change to a signal it reads re-arms it before
        the next edge.  The contract is that a run which stages nothing
        mutates nothing.  The compiled backend schedules on it from the
        first edge: a proven process sleeps in a static wake slot over
        every signal it can read, so it may also run on a change the event
        kernel has not yet subscribed it to, and that run must stage and
        mutate nothing.  A process with side effects (cycle counters,
        ``port.take()``-style consumption, monitors) must stay at the
        default ``pure=False``, which runs it on every edge — the reference
        semantics.
        """
        if fn is None:
            def _register(f: Process) -> Process:
                return self.seq(f, pure=pure)
            return _register
        self.seq_procs.append(fn)
        if pure:
            self.pure_seq_procs.append(fn)
        return fn

    def wheel(self, horizon: Callable[[], Optional[int]],
              skip: Optional[Callable[[int], None]] = None) -> None:
        """Register a time-wheel hook pair for cycle-skipping fast-forward.

        ``horizon()`` is consulted on settled, quiescent state and returns
        how many upcoming clock edges are guaranteed to be *pure aging* for
        this component — edges on which its processes would change no
        signal and perform no hidden work beyond counting — or ``None``
        when the component is fully idle (no horizon at all).  Returning
        ``0`` vetoes skipping (the next edge does real work).  It is a pure
        query: it reads state and changes none.

        ``skip(n)`` (``1 ≤ n ≤`` the returned horizon) performs the batch
        aging those ``n`` edges would have done: advancing epochs, aging
        countdowns, accumulating stall tallies.  It must never stage a
        register or change an observable signal — the edge *after* the
        skipped run is stepped normally and does the real work.  A
        component whose skipped edges age nothing passes no ``skip``, and
        no jump calls anything for it.

        A component with a wheel hook keeps the simulator's fast-forward
        path available even while its seq processes stay armed; components
        without one simply block skipping whenever they are armed.  The
        event kernel calls the hooks as written; the compiled backend calls
        their specialized bodies (``_hzN``/``_skN`` in its generated
        module), translated like process bodies.
        """
        self.wheel_hooks.append((horizon, skip))

    def on_reset(self, fn: Process) -> Process:
        """Register a hook invoked by :meth:`Simulator.reset`."""
        self.reset_hooks.append(fn)
        return fn

    def lint_suppress(
        self,
        rule_id: str,
        reason: str,
        *,
        signal: Optional[str] = None,
        subtree: bool = False,
    ) -> None:
        """Suppress a design-rule diagnostic on this component.

        ``rule_id`` is the lint rule to silence (see
        :mod:`repro.analysis.lint`), ``reason`` a mandatory human
        explanation recorded in lint reports.  ``signal`` narrows the
        suppression to one signal (its unqualified name as declared, e.g.
        ``"out_valid"``); ``subtree=True`` extends it to every descendant
        component — use for wrappers whose children share one justified
        exemption.  Suppressions are deliberate, reviewable waivers: the
        lint engine counts them in its report rather than hiding them.
        """
        if not reason or not reason.strip():
            raise ElaborationError(
                f"lint_suppress({rule_id!r}) on {self.path!r} needs a non-empty reason"
            )
        self.lint_suppressions.append((rule_id, reason, signal, bool(subtree)))

    # -- traversal -----------------------------------------------------------------

    def walk(self) -> Iterator["Component"]:
        """Yield this component and every descendant, depth-first."""
        yield self
        for c in self.children:
            yield from c.walk()

    def all_signals(self) -> Iterator[Signal]:
        for comp in self.walk():
            yield from comp.signals

    def find(self, path: str) -> "Component":
        """Locate a descendant by dotted relative path (test/debug helper)."""
        node: Component = self
        for part in path.split("."):
            for c in node.children:
                if c.name == part:
                    node = c
                    break
            else:
                raise KeyError(f"no child {part!r} under {node.path!r}")
        return node

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Component {self.path}>"
