"""The compiled-backend simulator driver.

:class:`CompiledSimulator` is the object ``Simulator(top,
backend="compiled")`` actually constructs.  It reuses the base class's
elaboration (process/register/hook collection, signal claiming) and the
public stepping API unchanged, and replaces the settle and edge phases
with calls into the module generated by :mod:`.codegen`:

* **settle** is the wake-driven sweep run until no wake flag is left
  raised — the event kernel's "queue empty" rule.  Only while an
  every-sweep process exists (``always=True``, a writer with hidden inputs
  only, or a runtime demotion) does a sweep that changed any signal also
  force another, as the event kernel does for its ``_always`` list.  The
  quiescent fast path skips the sweep entirely when the pending changes
  wake no comb slot, no edge work moved state behind the pending list,
  no every-sweep process exists and no vectorized executor has a fold
  pending (a column loaded between steps folds there and then).
* **edge** is the generated fused sequential/commit phase: sequential
  processes run from the same wake flags, with the event kernel's
  dormancy rule (a run that staged nothing sleeps until a signal it
  reads changes).
* the **time wheel** is inherited; only the jump veto is replaced (the
  non-wheeled seq wake flags), the vectorized executors' horizons join
  the scan, and every wheel hook runs its specialized body
  (:class:`~.codegen.Hook`, ``hook_plans``).
* a **chunk** (``step`` with a :class:`~repro.hdl.sim.ChunkRule` and no
  observer) runs in the generated ``_run``: settle, jump, edge and rule
  loop without returning to this class.

What a design compiles to is computed once per process and kept in the
build cache (:mod:`repro.hdl.buildcache`) as a :class:`_Layout`: the
placements, the comb ranks, a body table (each specialized body's
template and how to find its hoisted objects, for processes and wheel
hooks alike) and the dispatch module.
Every build, hit or miss, binds that layout to its own instances on one
path: wake sets by signal index, bodies by
:func:`~.frontend.instantiate` over the fresh process's closure, and the
stored code ``exec``'d into a fresh namespace.  A hit runs no placement,
translation, emission or ``compile()``.  The key the construction took
(``design_key``) also keys the builder's lint report.

Wake flags alone decide which process runs, raised through a static
fanout map; external pokes are observed through the ordinary
pending-list notification that :meth:`Signal.set` and
:meth:`Signal.force` already perform.  The only read tracking on the hot
path belongs to processes the front end cannot prove, or whose wake set
holds a signal this simulator does not manage (:class:`_Tracked`); they
discover their sensitivity one run at a time, exactly like the event
kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from .. import buildcache
from .. import signal as _signal_mod
from ..component import Component
from ..errors import CombinationalLoopError
from ..signal import CHANGES, Reg, Signal
from ..sim import MAX_SETTLE_ITERATIONS, ChunkRule, Simulator, rank_depths
from ...analysis.lint import astpass
from ...analysis.lint.astpass import ResolvedFn
from .codegen import Dispatch, GeneratedModule, Hook, Plan, generate
from .frontend import (Placement, Specialized, Specializer, follow,
                       instantiate, kernel_cells, place)
from .vector import absorbed_procs, collect_executors

__all__ = ["CompiledSimulator"]


class _Tracked:
    """Read-tracked wake slot for a process with no provable closure.

    The event kernel's scheme, run from a generated slot: each run records
    the signals it read, and any new ones are added to the module's fanout
    map so their next change raises this slot's wake flag.  Two rules for
    what cannot wake a slot, both the event kernel's: a comb process whose
    run left the read set empty (hidden inputs only) or read a signal whose
    changes never reach this simulator's pending list is demoted to the
    every-sweep tier (``_finish_discovery``); a seq process reading such a
    signal stays armed on every edge (``_SeqProc.unmanaged``).
    """

    __slots__ = ("fn", "seq", "wheeled", "reads", "slot", "demoted",
                 "unmanaged", "grew")

    def __init__(self, fn: Callable[[], None], seq: bool, wheeled: bool,
                 grew: Callable[["_Tracked"], None]) -> None:
        self.fn = fn
        self.seq = seq
        self.wheeled = wheeled
        self.reads: set = set()
        self.slot = -1  # wake-flag position, assigned by codegen
        self.demoted = False
        self.unmanaged = False
        self.grew = grew

    def run(self) -> int:
        """One run under read tracking.

        For a comb slot, returns the run count (0 once demoted: a forced
        wake of a slot that now runs every sweep).  For a seq slot,
        returns whether the wake flag stays up — the run staged something,
        or the process reads an unmanaged signal (the dormancy rule).
        """
        if self.demoted:
            return 0
        reads = self.reads
        before = len(reads)
        stages = CHANGES.stages
        _signal_mod._READS = reads
        try:
            self.fn()
        finally:
            _signal_mod._READS = None
        if len(reads) != before or not reads:
            self.grew(self)
        if self.seq:
            return self.unmanaged or CHANGES.stages != stages
        return 1


def _bind(fn: Callable[[], Any], body: tuple, signals: list[Signal],
          kernel: dict) -> Specialized:
    """A :class:`_Layout` body table entry bound to one process: each
    hoisted object is this design's signal at its index or, for any other
    object, what the template's path reaches from ``fn``."""
    template, refs = body
    paths, hoisted = template.paths, template.hoisted
    objects = tuple(follow(fn, paths[hoisted[k]]) if ref is None
                    else signals[ref] for k, ref in enumerate(refs))
    return instantiate(fn, template, objects, kernel)


@dataclass
class _Layout:
    """What the build cache keeps of one design for the compiled backend:
    every signal is an index into the design's ``all_signals()``."""

    #: per comb process, then per seq process: (placement kind, wake set)
    comb: tuple
    seq: tuple
    #: per comb process: its topological depth (see ``_ranks``)
    ranks: tuple
    #: per comb process, then per seq process: ``(template, refs)`` for a
    #: process that runs a specialized body, else None.  ``refs`` names
    #: each hoisted object: a signal's index, or None for any other
    #: object, which the template's path reaches (see ``_bind``)
    bodies: tuple
    #: per wheel hook: ``(horizon, skip)``, each ``(template, refs)``, or
    #: why the function runs as written; a hook without a skip has None
    hooks: tuple
    #: the dispatching module, emitted by the design's first build
    dispatch: Optional[Dispatch] = None


class CompiledSimulator(Simulator):
    """Graph-specialized codegen backend (see :mod:`repro.hdl.compile`)."""

    def __init__(
        self,
        top: Component,
        max_settle: int = MAX_SETTLE_ITERATIONS,
        wheel: bool = True,
        backend: str = "compiled",  # passed through by Simulator.__new__
    ):
        t0 = time.perf_counter()
        # Elaborate exactly like the event kernel (signals claimed onto our
        # pending list, fanouts cleared); the scheduler machinery it sets up
        # stays unused because every phase entry point is overridden here.
        super().__init__(top, max_settle=max_settle, wheel=wheel)
        self.backend = "compiled"
        #: the last edge (or reset) may have changed state outside the
        #: pending list — vectorized executors, power-on values
        self._edge_dirty = True
        #: read-tracked slot helpers (comb and seq)
        self._tracked: list[_Tracked] = []
        self._compile()
        self.kernel_stats.compile_ms = (time.perf_counter() - t0) * 1e3

    # -- compilation -----------------------------------------------------------

    def _compile(self) -> None:
        top = self.top
        #: the build-cache key of the design as elaborated, before an
        #: executor hook may redirect live state (None: uncacheable);
        #: ``SystemSpec.build`` keys its lint report on it too
        self.design_key = key = buildcache.design_key(top, type(self),
                                                      self.wheel)
        self._executors = executors = collect_executors(top)
        absorbed = absorbed_procs(top)
        signals = list(dict.fromkeys(top.all_signals()))
        #: id(fn) -> the resolution each process was placed on; lint reads
        #: these back (``discovered_dependencies``) instead of resolving
        #: again.  Empty when the layout came from the build cache.
        self._resolved: dict[int, ResolvedFn] = {}
        layout = buildcache.cached(
            "compile", key, partial(self._layout, signals, absorbed), self)
        kernel = kernel_cells(self._changed, self._staged_regs)
        n_comb = len(self._procs)
        comb_plans: list[Plan] = []
        for i, p in enumerate(self._procs):
            self._plan(comb_plans, i, p, False, layout.comb[i],
                       layout.bodies[i], signals, kernel)
        for pl in comb_plans:
            pl.rank = layout.ranks[pl.index]
        seq_plans: list[Plan] = []
        for j, sp in enumerate(self._seqprocs):
            self._plan(seq_plans, j, sp, True, layout.seq[j],
                       layout.bodies[n_comb + j], signals, kernel)

        always = [pl for pl in comb_plans if pl.kind == "sweep"]
        #: fast-forward soundness mirrors the event kernel's
        #: ``_always_covered``: every every-sweep process must belong to a
        #: wheeled component.  Read-tracked slots get no veto — the event
        #: kernel value-tracks those same processes and jumps over them;
        #: nothing can mutate their hidden inputs inside a jump, because
        #: no process (and no host code) runs during one.
        self._comb_covered = all(pl.wheeled for pl in always)
        self._seq_always_unwheeled = any(
            pl.kind == "edge" and not pl.wheeled for pl in seq_plans
        )
        namespace: dict = {
            "_CH": CHANGES,
            "_U": _signal_mod._UNSET,
            "_SL": self._staged_regs,
            "_CHG": self._changed,
            "_SIM": self,
            "_JOK": self._jump_ok(),
        }
        horizons, skips = self._hooks(layout.hooks, signals, kernel)
        #: every wheel hook function as the jump runs it, horizons first
        self.hook_plans = horizons + skips
        self._horizons = [h.run for h in horizons]
        self._horizons.extend(ex.horizon for ex in executors)
        self._skips = [h.run for h in skips]
        module: GeneratedModule = generate(
            comb_plans, seq_plans, executors, horizons, skips, namespace,
            layout.dispatch)
        layout.dispatch = module.dispatch
        tracked = [pl for pl in comb_plans + seq_plans if pl.kind == "tracked"]
        for tc, pl in zip(self._tracked, tracked):
            tc.slot = pl.slot
        self._module = module
        self._sweep_fn = module.sweep
        self._drain_fn = module.drain
        self._edge_fn = module.edge
        self._scan_seq_fn = module.scan_seq
        self._run_fn = module.run
        #: every-sweep comb functions; runtime demotions append here
        self._every = module.every

        stats = self.kernel_stats
        #: every non-absorbed process's plan, comb first
        self._plans = plans = comb_plans + seq_plans
        n_fallback = sum(1 for pl in plans if pl.kind != "slot")
        stats.compiled_procs = (len(self._procs) + len(self._seqprocs)
                                - n_fallback)
        stats.fallback_procs = n_fallback
        bodies = [pl.spec.template for pl in plans if pl.spec is not None]
        stats.translated_procs = len(bodies)
        stats.vectorized_cells = sum(ex.n_cells for ex in executors)
        stats.tracked_procs = len(comb_plans) - len(always)
        stats.always_procs = len(always)
        stats.masks_elided = sum(t.masks_elided for t in bodies)
        stats.branches_folded = sum(t.branches_folded for t in bodies)

    def _layout(self, signals: list[Signal], absorbed: set[int]) -> _Layout:
        """Place every process, rank the comb slots and build the body
        table: what a build-cache miss computes (see
        :mod:`repro.hdl.buildcache`)."""
        index = {sig: k for k, sig in enumerate(signals)}
        procs = (*self._procs, *self._seqprocs)
        comb = [place(partial(self._resolve, p.fn), seq=False, always=p.always,
                      absorbed=id(p.fn) in absorbed, managed=index)
                for p in self._procs]
        seq = [place(partial(self._resolve, sp.fn), seq=True, pure=sp.pure,
                     absorbed=id(sp.fn) in absorbed, managed=index)
               for sp in self._seqprocs]
        hooks = [fn for pair in self._wheel_hooks for fn in pair
                 if fn is not None]
        spec = Specializer(self._changed, self._staged_regs,
                           [p.fn for p in procs if id(p.fn) not in absorbed]
                           + hooks)

        def entry(fn: Callable[..., Any], value: bool) -> "tuple | str":
            made = spec.specialize(fn, value)
            if isinstance(made, str):
                return made
            template, objects = made
            return template, tuple(index.get(o) if type(o) in (Signal, Reg)
                                   else None for o in objects)

        def body(proc: Any, where: Placement) -> Optional[tuple]:
            # a read-tracked slot always runs the original function
            if where.kind in ("absorbed", "tracked"):
                return None
            made = entry(proc.fn, False)
            return None if isinstance(made, str) else made

        def hook(fn: Optional[Callable[..., Any]]) -> "tuple | str | None":
            return None if fn is None else entry(fn, True)

        def site(where: Placement) -> tuple:
            return where.kind, tuple(index[sig] for sig in where.wake)

        return _Layout(comb=tuple(map(site, comb)), seq=tuple(map(site, seq)),
                       ranks=self._ranks(comb),
                       bodies=tuple(map(body, procs, comb + seq)),
                       hooks=tuple((hook(h), hook(s))
                                   for h, s in self._wheel_hooks))

    def _hooks(self, layout: tuple, signals: list[Signal],
               kernel: dict) -> tuple[list[Hook], list[Hook]]:
        """Every wheel hook's horizon and skip (for a hook that has one),
        each bound to its specialized body from the layout or kept as
        written with the reason."""
        owned = [(comp.path, pair) for comp in self.top.walk()
                 for pair in comp.wheel_hooks]
        horizons: list[Hook] = []
        skips: list[Hook] = []
        for (path, pair), bodies in zip(owned, layout):
            for fn, made, out in zip(pair, bodies, (horizons, skips)):
                if fn is None:
                    continue
                label = f"{path}:{getattr(fn, '__qualname__', fn)}"
                if isinstance(made, str):
                    out.append(Hook(label, fn, reason=made))
                else:
                    out.append(Hook(label, fn,
                                    _bind(fn, made, signals, kernel)))
        return horizons, skips

    def _resolve(self, fn: Callable[[], None]) -> ResolvedFn:
        res = self._resolved[id(fn)] = astpass.resolve(fn)
        return res

    def _plan(self, plans: list, index: int, proc: Any, seq: bool,
              site: tuple, body: Optional[tuple], signals: list[Signal],
              kernel: dict) -> None:
        """Append the plan for ``proc``'s placement, its wake set and body
        bound to this design's ``signals``; an absorbed process gets none.
        A read-tracked slot gets its engine helper instead."""
        kind, wake = site
        if kind == "absorbed":
            return
        if kind == "tracked":
            tc = _Tracked(proc.fn, seq, proc.wheeled, self._track)
            self._tracked.append(tc)
            plans.append(Plan(fn=proc.fn, index=index, kind="tracked",
                              wheeled=proc.wheeled, run=tc.run))
            return
        spec = None if body is None else _bind(proc.fn, body, signals, kernel)
        plans.append(Plan(fn=proc.fn, index=index, kind=kind,
                          wheeled=proc.wheeled,
                          wake=[signals[k] for k in wake], spec=spec))

    def _ranks(self, comb: list[Placement]) -> tuple[int, ...]:
        """The :func:`~repro.hdl.sim.rank_depths` of each comb process over
        the proven writer→reader graph (0 outside a static slot):
        read-tracked and every-sweep plans have no proven closure and run
        after the ranked section."""
        ranked = [i for i, where in enumerate(comb) if where.kind == "slot"]
        res = [self._resolved[id(self._procs[i].fn)] for i in ranked]
        rank = [0] * len(comb)
        for i, r in zip(ranked, rank_depths([x.signal_reads for x in res],
                                            [x.set_targets for x in res])):
            rank[i] = r
        return tuple(rank)

    # -- settle phase ----------------------------------------------------------

    def _track(self, tc: _Tracked) -> None:
        """A read-tracked slot read new signals: wake on them, or demote."""
        changed = self._changed
        reads = tc.reads
        if not tc.seq and (
            not reads or any(sig._pending is not changed for sig in reads)
        ):
            self._demote(tc)
            return
        fanout = self._module.fanout
        for sig in reads:
            if sig._pending is not changed:
                tc.unmanaged = True  # its change would never wake the slot
                continue
            slots = fanout.setdefault(sig, [])
            if tc.slot not in slots:
                slots.append(tc.slot)

    def _demote(self, tc: _Tracked) -> None:
        """Pin a read-tracked process to every sweep (``_make_dynamic``)."""
        tc.demoted = True
        fanout = self._module.fanout
        for sig in tc.reads:
            slots = fanout.get(sig)
            if slots and tc.slot in slots:
                slots.remove(tc.slot)
        self._every.append(tc.fn)
        if not tc.wheeled:
            self._comb_covered = False
            self._module.namespace["_JOK"] = False
        stats = self.kernel_stats
        stats.dynamic_fallbacks += 1
        stats.always_procs += 1
        stats.tracked_procs -= 1

    def _wake_all(self) -> None:
        """Raise every wake flag, seq slots included."""
        wake = self._module.wake
        wake[:] = [True] * len(wake)

    def settle(self) -> int:
        stats = self.kernel_stats
        stats.settle_calls += 1
        every = self._every
        if self._edge_dirty:
            # State moved without pending-list notifications (vectorized
            # executors, reset forces): sweep once so the executors settle
            # and publish through notifying set().  That wakes exactly
            # the slots reading what moved; reset wakes every slot itself.
            self._edge_dirty = False
            quiet_in = False
        else:
            # the event kernel's entry drain: changes nobody reads wake
            # nothing, and leave the fixpoint in place
            quiet_in = not (self._changed and self._drain_fn())
            if quiet_in:
                # a column loaded between steps (``SmartArray.load_states``)
                # folds now, and its outputs wake their readers
                folded = sum(1 for ex in self._executors if ex.settle())
                stats.activations += folded
                quiet_in = not folded
        if quiet_in and not every:
            stats.quiescent_settles += 1
            return 0
        tracker = CHANGES
        sweep = self._sweep_fn
        iterations = 0
        while True:
            iterations += 1
            if iterations > self.max_settle:
                self._loop_error()
            tracker.dirty = False
            ran, more = sweep()
            stats.activations += ran
            # Stop when no wake flag is left raised; an every-sweep process
            # may read what any change moved, so it keeps the dirty rule.
            if not more and not (every and tracker.dirty):
                break
        stats.settle_iterations += iterations
        if quiet_in and iterations == 1:
            # Only the every-sweep processes ran, and they changed nothing:
            # report quiescence, so the wheel may attempt a jump — the
            # event kernel reaches the same state with an empty queue.
            return 0
        return iterations

    def _loop_error(self) -> None:
        """Raise the settle's loop diagnostic, leaving a recoverable engine
        behind it: every slot woken and state marked suspect."""
        self._wake_all()
        self._edge_dirty = True
        unstable = self._find_unstable()
        raise CombinationalLoopError(self.now, self.max_settle, unstable)

    # -- edge phase ------------------------------------------------------------

    def _edge(self) -> None:
        stats = self.kernel_stats
        stats.edge_calls += 1
        ran, vec = self._edge_fn()
        if vec:
            # Vectorized state changed without pending-list notifications;
            # the next settle must not take the quiescent fast path.
            self._edge_dirty = True
        stats.seq_runs += ran

    # -- stepping --------------------------------------------------------------

    def step(self, cycles: int = 1, rule: Optional[ChunkRule] = None) -> int:
        """:meth:`Simulator.step`; a chunk under a rule with no observer
        attached runs in the generated module (``_run``)."""
        if rule is None or self._observers:
            return super().step(cycles, rule)
        return self._run_fn(cycles, rule, self.wheel)

    def _jump_vetoed(self) -> bool:
        """An every-sweep or every-edge process without wheel coverage, or
        a raised non-wheeled seq flag."""
        return not self._jump_ok() or self._scan_seq_fn()

    def _jump_ok(self) -> bool:
        """No every-sweep or every-edge process vetoes every jump."""
        return self._comb_covered and not self._seq_always_unwheeled

    def _forget(self) -> None:
        """After a reset: values changed wholesale without notifications,
        so the vectorized executors restore their power-on state and every
        slot wakes for the full re-settle."""
        for ex in self._executors:
            ex.on_reset()
        self._wake_all()
        self._changed.clear()
        self._edge_dirty = True

    # -- introspection ---------------------------------------------------------

    @property
    def generated_source(self) -> str:
        """The specialized module's Python source (debug/inspection aid)."""
        return self._module.source

    def discovered_dependencies(self) -> dict:
        """The compiled backend reports no runtime-discovered read sets.

        Dependence information lives in the front end's resolutions
        (read-tracked slots discover theirs one run at a time);
        ``discovered: False`` tells lint to rely on the AST pass, and
        ``resolved`` hands it the resolution each process was placed on
        (none when the layout came from the build cache).
        """
        return {"comb": [], "seq": [], "discovered": False,
                "resolved": self._resolved}
