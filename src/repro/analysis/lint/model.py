"""The lint design database: one elaborated view of a component tree.

:func:`build_design` walks a component hierarchy and produces a
:class:`DesignInfo` every rule operates on, combining three evidence
sources:

* the **AST pass** (:mod:`.astpass`) — static, sees every branch, knows
  *which* write depends on *what*;
* the **probe pass** — each combinational process is executed once with the
  kernel's read/write tracking installed, attributing precise driver/reader
  sets even where source is unavailable or control flow defeats the AST
  resolver.  Signal values, staged registers and the kernel dirty flag are
  snapshotted and restored around the probe, so linting a live design is
  side-effect free.  Sequential processes are **never** executed (impure
  ones own real state — running them out of schedule would corrupt it);
* optionally, a live simulator's **discovered dependencies**
  (:meth:`~repro.hdl.sim.Simulator.discovered_dependencies`) — the ground
  truth the event kernel actually schedules from.

Rules then consume plain maps (drivers, readers, per-site edges) instead of
re-deriving facts, which keeps each rule a few dozen lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ...hdl import signal as _signal_mod
from ...hdl.component import Component
from ...hdl.components import Stream
from ...hdl.signal import Reg, Signal
from . import astpass
from .astpass import ResolvedFn, ResolvedWrite


@dataclass
class ProcRecord:
    """Everything the rules know about one process."""

    fn: Callable[[], None]
    comp: Component
    kind: str  # "comb" | "seq"
    index: int  # declaration order within the design (stable diagnostics)
    always: bool = False  # declared comb(always=True)
    pure: bool = False  # declared seq(pure=True)
    wheeled: bool = False  # owning component registered wheel hooks
    #: signals read (probe ∪ AST ∪ kernel discovery)
    reads: set = field(default_factory=set)
    #: plain-`set()` targets (probe ∪ AST)
    writes: set = field(default_factory=set)
    #: registers staged (AST; probe write of a Reg also lands here)
    stages: set = field(default_factory=set)
    #: the AST pass's view — write sites with their dependency signals,
    #: hidden loads and stores, branches and the confidence flags — shared
    #: with the compiled backend's placement of this process
    resolved: ResolvedFn = field(default_factory=ResolvedFn)
    probed: bool = False
    probe_error: Optional[str] = None

    @property
    def label(self) -> str:
        name = getattr(self.fn, "__name__", "<proc>")
        return f"{self.comp.path}:{name}"

    @property
    def read_opaque(self) -> bool:
        """True when this process may read signals the analysis missed."""
        return not self.resolved.read_complete

    @property
    def write_opaque(self) -> bool:
        """True when this process may write signals the analysis missed."""
        return not self.resolved.write_complete

    @property
    def opaque(self) -> bool:
        """True when static analysis may have missed reads or writes."""
        return self.read_opaque or self.write_opaque


@dataclass
class DesignInfo:
    """Elaborated lint view of one component tree."""

    top: Component
    components: list = field(default_factory=list)
    procs: list = field(default_factory=list)
    signals: list = field(default_factory=list)
    streams: list = field(default_factory=list)
    #: Signal → [(ProcRecord, "set" | "stage")]
    drivers: dict = field(default_factory=dict)
    #: Signal → [ProcRecord]
    readers: dict = field(default_factory=dict)
    #: (id(owner), attr) → owner for every hidden store by any process
    mutated_attrs: dict = field(default_factory=dict)
    #: was a live simulator's discovery info merged in?
    kernel_informed: bool = False

    @property
    def read_closed(self) -> bool:
        """True when *every* read in the design is attributed.

        Rules claiming "nobody reads this" (unread-drive, the protocol
        family) may only fire on a read-closed design — one process with
        unattributable reads could be the missing reader.
        """
        return not any(p.read_opaque for p in self.procs)

    @property
    def write_closed(self) -> bool:
        """True when *every* write in the design is attributed.

        Rules claiming "nobody drives this" (undriven-read) may only fire
        on a write-closed design.
        """
        return not any(p.write_opaque for p in self.procs)

    @property
    def comb(self) -> list:
        return [p for p in self.procs if p.kind == "comb"]

    @property
    def seq(self) -> list:
        return [p for p in self.procs if p.kind == "seq"]

    def drivers_of(self, sig: Signal) -> list:
        return self.drivers.get(sig, [])

    def readers_of(self, sig: Signal) -> list:
        return self.readers.get(sig, [])

    def component_at(self, path: str) -> Optional[Component]:
        for comp in self.components:
            if comp.path == path:
                return comp
        return None


def _probe_comb(design: DesignInfo) -> None:
    """Run each combinational process once under read/write tracking.

    Restores every signal value, staged register and the kernel dirty flag
    afterwards: the probe must be invisible to a live simulator.  Pending
    change-notification lists are also restored, because a probe run on a
    not-yet-settled design may legitimately change values.
    """
    saved_values = [(sig, sig._value) for sig in design.signals]
    saved_staged = [(sig, sig._staged) for sig in design.signals
                    if isinstance(sig, Reg)]
    pending_lists = {}
    for sig in design.signals:
        lst = sig._pending
        if lst is not None and id(lst) not in pending_lists:
            pending_lists[id(lst)] = (lst, list(lst))
    try:
        for rec in design.comb:
            reads: set = set()
            writes: set = set()
            with _signal_mod.tracking(reads, writes):
                try:
                    rec.fn()
                except Exception as exc:  # defective fixture / hidden deps
                    rec.probe_error = f"{type(exc).__name__}: {exc}"
            rec.probed = True
            rec.reads.update(reads)
            rec.writes.update(w for w in writes if not isinstance(w, Reg))
            # a comb process touching a Reg at all is driving the seq domain
            rec.stages.update(w for w in writes if isinstance(w, Reg))
    finally:
        for sig, value in saved_values:
            sig._value = value
        for reg, staged in saved_staged:
            reg._staged = staged
        for lst, snapshot in pending_lists.values():
            lst[:] = snapshot


def _apply_ast(rec: ProcRecord) -> None:
    res = rec.resolved
    rec.reads.update(res.signal_reads)
    for site in res.writes:
        if site.kind == "set":
            rec.writes.update(site.targets)
        elif site.kind == "stage":
            rec.stages.update(site.targets)


def build_design(
    top: Component,
    sim: Optional[Any] = None,
    probe: bool = True,
) -> DesignInfo:
    """Elaborate the lint database for ``top``.

    ``sim`` may be the live :class:`~repro.hdl.sim.Simulator` driving the
    design; its discovered dependency sets are merged in when available,
    and a process it already resolved (the compiled backend resolves every
    process it places) is not resolved again.
    ``probe=False`` skips process execution entirely (pure-static mode —
    used when linting a design mid-simulation at a non-settled point).
    """
    design = DesignInfo(top=top)
    index = 0
    for comp in top.walk():
        design.components.append(comp)
        design.signals.extend(comp.signals)
        design.streams.extend(comp.streams)
        wheeled = bool(comp.wheel_hooks)
        always_ids = set(map(id, comp.always_procs))
        pure_ids = set(map(id, comp.pure_seq_procs))
        for fn in comp.comb_procs:
            design.procs.append(
                ProcRecord(fn=fn, comp=comp, kind="comb", index=index,
                           always=id(fn) in always_ids, wheeled=wheeled)
            )
            index += 1
        for fn in comp.seq_procs:
            design.procs.append(
                ProcRecord(fn=fn, comp=comp, kind="seq", index=index,
                           pure=id(fn) in pure_ids, wheeled=wheeled)
            )
            index += 1

    info = sim.discovered_dependencies() if sim is not None else {}
    resolved = info.get("resolved", {})
    for rec in design.procs:
        res = resolved.get(id(rec.fn))
        rec.resolved = res if res is not None else astpass.resolve(rec.fn)
        _apply_ast(rec)

    if probe:
        _probe_comb(design)

    if info.get("discovered"):
        _merge_kernel_info(design, info)

    managed = set(design.signals)
    for rec in design.procs:
        for sig in rec.reads:
            if sig in managed:
                design.readers.setdefault(sig, []).append(rec)
        for sig in rec.writes:
            if sig in managed:
                design.drivers.setdefault(sig, []).append((rec, "set"))
        for sig in rec.stages:
            if sig in managed:
                design.drivers.setdefault(sig, []).append((rec, "stage"))
        design.mutated_attrs.update(rec.resolved.hidden_stores)
    return design


def _merge_kernel_info(design: DesignInfo, info: dict) -> None:
    by_fn = {id(rec.fn): rec for rec in design.procs}
    for entry in info["comb"]:
        rec = by_fn.get(id(entry["fn"]))
        if rec is None:
            continue
        rec.reads.update(entry["reads"])
        for sig in entry["writes"]:
            (rec.stages if isinstance(sig, Reg) else rec.writes).add(sig)
    for entry in info["seq"]:
        rec = by_fn.get(id(entry["fn"]))
        if rec is None:
            continue
        rec.reads.update(entry["reads"])
    design.kernel_informed = True


__all__ = ["DesignInfo", "ProcRecord", "ResolvedWrite", "Stream", "build_design"]
