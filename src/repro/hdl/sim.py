"""The two-phase synchronous simulator with an event-driven settle scheduler.

Each simulated clock cycle proceeds in two phases:

1. **Settle** — combinational processes run until no signal changes (a
   fixpoint).  This implements zero-delay combinational logic and lets
   backward-propagating ``ready`` and forward-propagating ``valid``
   handshakes resolve within a cycle, which is how the paper's RTM pipeline
   achieves local stalling without a global stall net (paper §III).
2. **Edge** — every sequential process runs exactly once against the settled
   values and stages register updates, which are then committed atomically.

The phases correspond to the delta-cycle / clock-edge split of an HDL
simulator, restricted to a single clock domain (the paper's framework is
single-clock; functional units may internally use other domains, which we
model behaviourally inside the unit when needed).

Settle scheduling
-----------------

Two schedulers implement the settle phase:

* ``backend="event"`` (the default) — dependency-tracked, event-driven
  evaluation.  The first settle after elaboration (and after
  :meth:`Simulator.reset`) is a *discovery* pass: every combinational
  process runs to fixpoint exactly like the exhaustive kernel, but with a
  read-tracking hook installed on :class:`~repro.hdl.signal.Signal` so the
  kernel learns which signals each process reads.  From then on each
  process is re-run only when a signal in its recorded read set changes:
  signal writes (``Signal.set``/``force``, ``Reg.commit``) notify the
  scheduler, which enqueues the fanout of each changed signal.  A cycle in
  which nothing changed costs (almost) nothing.

  Read sets stay *sound* under data-dependent control flow because
  tracking remains active on every scheduled run: a process that suddenly
  reads a new signal (a mux leg it had never taken) grows its read set and
  fanout on the spot, before the new dependency can ever change
  unobserved.  A process whose read set keeps growing past
  ``DYNAMIC_GROWTH_LIMIT`` is reclassified as *dynamic* and falls back to
  exhaustive semantics (re-run on every settle iteration), as do processes
  that read no signals at all during discovery (their inputs, if any, are
  invisible to the kernel) and processes registered with
  ``Component.comb(fn, always=True)``.

* ``backend="exhaustive"`` — the original reference kernel: every
  combinational process runs on every settle iteration until a full pass
  changes nothing.  Retained as the equivalence oracle for property tests
  and as the baseline of the kernel-mode cycle pins
  (``tests/paper/test_kernel_modes.py``).

Both schedulers produce bit-identical signal traces and cycle counts; the
property suite (``tests/properties/test_prop_kernel_equiv.py``) pins this.
:attr:`Simulator.kernel_stats` exposes activation/iteration/queue counters
for benchmarks and CI perf logs (see :mod:`repro.analysis.counters`).

Edge scheduling and the time wheel
----------------------------------

The edge phase gets the same treatment as the settle phase (event mode
only; the exhaustive kernel keeps the reference run-everything loop):

* **Armed/dormant split** — a sequential process declared *pure*
  (``Component.seq(fn, pure=True)``) has its read set tracked exactly like
  a combinational process.  After an edge on which it staged nothing it is
  *disarmed* and not re-run; any change to a signal it reads (settle-phase
  ``set``/``force`` or a register commit) re-arms it before the next edge.
  Impure processes (hidden Python state, cycle counters) stay armed
  forever — the reference semantics.

* **Cycle-skipping time wheel** — components whose only pending activity
  is a countdown register a ``(horizon, skip)`` hook pair via
  :meth:`Component.wheel`.  After every settle inside a multi-cycle
  :meth:`Simulator.step`, when every armed sequential process belongs to
  a wheeled component and no per-cycle observer is in the way, it jumps
  ``now`` forward by the smallest horizon and batch-ages every hook in
  O(#hooks) instead of ticking edge by edge.  The jump lands *on* the
  earliest horizon; the next edge is stepped normally and does the real
  work, so cycle counts and traces are exactly those of the unskipped
  run.  Any horizon of ``0`` (real work next edge), any armed process
  without a wheel hook, or any plain observer vetoes the jump.  A jump
  never covers the step's final cycle, nor passes the cycle its
  :class:`ChunkRule` caps it at; the rule's stop test runs after every
  edge and every jump, so a host pump steps event by event in one loop.
  :meth:`Simulator.fast_forward_limit` is the same scan as a query.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional

from . import signal as _signal_mod
from .component import Component
from .errors import CombinationalLoopError, SimulationError
from .signal import CHANGES, Reg, Signal

#: Iteration bound for the settle fixpoint.  A well-formed design settles in
#: at most (longest combinational chain) passes; the framework's longest
#: chains (ready propagation through the 6-stage pipeline, tree folds) are
#: far below this bound, so hitting it indicates a genuine loop.
MAX_SETTLE_ITERATIONS = 256

#: The scan limit of an uncapped horizon: more cycles than any run covers.
NO_HORIZON = 1 << 60

#: Number of read-set growth events after which a process is reclassified as
#: dynamic (exhaustive fallback).  Growth is a normal, bounded occurrence for
#: multiplexer-style processes (each untaken leg adds its signals once); a
#: process that keeps discovering new dependencies is reading data-dependent
#: state the scheduler cannot enumerate, and pinning it to every iteration
#: is both sound and cheaper than churning its fanout.
DYNAMIC_GROWTH_LIMIT = 8


def rank_depths(reads: list, writes: list) -> list[int]:
    """Topological depth of each node over the writer→reader graph: node
    ``i`` reads the signals ``reads[i]`` and writes ``writes[i]``.

    Evaluating queued processes in rank order lets a change propagate down
    a combinational chain in one sweep (each runs after its upstream
    writers), instead of one delta iteration per chain link.  Cycles in
    the graph (mutual ready/valid feedback) saturate at the node count and
    simply take extra sweeps.  Ranks are a performance hint only —
    correctness comes from running to fixpoint — so no kernel recomputes
    them when a read set grows.
    """
    writers: dict = {}
    for i, targets in enumerate(writes):
        for sig in targets:
            writers.setdefault(sig, []).append(i)
    n = len(reads)
    rank = [0] * n
    for _ in range(n):
        moved = False
        for i, sources in enumerate(reads):
            r = 0
            for sig in sources:
                for w in writers.get(sig, ()):
                    if w != i and rank[w] >= r:
                        r = rank[w] + 1
            if r > n:
                r = n
            if r != rank[i]:
                rank[i] = r
                moved = True
        if not moved:
            break
    return rank


class _Proc:
    """Scheduler bookkeeping for one combinational process."""

    __slots__ = ("fn", "reads", "writes", "queued", "always", "inert",
                 "growths", "rank", "wheeled")

    def __init__(self, fn: Callable[[], None], always: bool = False):
        self.fn = fn
        #: union of every signal this process has ever read (sensitivity set)
        self.reads: set = set()
        #: signals written during discovery (classification, rank graph)
        self.writes: set = set()
        #: True while sitting in the scheduler's run queue
        self.queued = False
        #: True for exhaustive-fallback processes (run every iteration)
        self.always = always
        #: True for no-op placeholders (no reads, no writes) — never scheduled
        self.inert = False
        #: read-set growth events observed after discovery
        self.growths = 0
        #: topological depth in the writer→reader dependency graph; the
        #: scheduler evaluates shallower ranks first so a value propagates
        #: through a combinational chain in a single sweep
        self.rank = 0
        #: owning component has time-wheel hooks covering its hidden state
        self.wheeled = False


class _SeqProc:
    """Scheduler bookkeeping for one sequential (clock-edge) process."""

    __slots__ = ("fn", "reads", "armed", "pure", "wheeled", "unmanaged")

    def __init__(self, fn: Callable[[], None], pure: bool, wheeled: bool):
        self.fn = fn
        #: union of every signal this process has ever read while armed
        self.reads: set = set()
        #: run on the next edge (dormant processes are skipped entirely)
        self.armed = True
        #: declared side-effect-free (``seq(fn, pure=True)``): eligible for
        #: the armed/dormant split — impure processes never disarm
        self.pure = pure
        #: owning component registered wheel hooks, so this process staying
        #: armed does not block the fast-forward path
        self.wheeled = wheeled
        #: reads signals outside this simulator's management; their changes
        #: never reach our queue, so the process can never safely sleep
        self.unmanaged = False


@dataclass
class KernelStats:
    """Settle-scheduler performance counters (see ``analysis.counters``)."""

    #: total :meth:`Simulator.settle` calls
    settle_calls: int = 0
    #: settle calls that found no pending work at all (quiescent fast path)
    quiescent_settles: int = 0
    #: delta iterations executed across all event-mode settles
    settle_iterations: int = 0
    #: combinational process executions scheduled by the event kernel
    activations: int = 0
    #: executions of exhaustive-fallback ("always") processes
    always_runs: int = 0
    #: full passes executed in discovery (and post-reset rediscovery) mode
    discovery_passes: int = 0
    #: full passes executed by the exhaustive reference scheduler
    exhaustive_passes: int = 0
    #: deepest run queue observed at the start of an iteration
    peak_queue_depth: int = 0
    #: processes reclassified as dynamic after exceeding the growth limit
    dynamic_fallbacks: int = 0
    #: static (event-scheduled) vs always-run process counts, set at discovery
    tracked_procs: int = 0
    always_procs: int = 0
    #: clock edges actually executed (skipped cycles excluded)
    edge_calls: int = 0
    #: sequential process executions across all executed edges
    seq_runs: int = 0
    #: cycles covered by time-wheel jumps instead of executed edges
    skipped_cycles: int = 0
    #: number of time-wheel jumps taken
    wheel_jumps: int = 0
    #: processes the codegen backend runs from a static wake slot, plus
    #: the ones vectorized executors absorb (compiled backend only; 0
    #: under the interpreted kernels)
    compiled_procs: int = 0
    #: processes the compiled backend places outside a static slot (see
    #: ``frontend.place``): read-tracked slots, every sweep (``always=True``
    #: or hidden inputs only) and every edge (impure sequential processes
    #: that are unprovable, store hidden state, write with ``set()`` or
    #: load hidden state that can change) — one ``compile.fallback``
    #: finding each
    fallback_procs: int = 0
    #: processes the compiled backend runs as specialized code (every
    #: parseable body outside a read-tracked slot); 0 elsewhere
    translated_procs: int = 0
    #: SIMD cells absorbed into vectorized executors (compiled backend)
    vectorized_cells: int = 0
    #: one-time codegen + exec cost, in milliseconds (compiled backend)
    compile_ms: float = 0.0
    #: width masks the code generator proved redundant and dropped
    #: (range-informed codegen; compiled backend only)
    masks_elided: int = 0
    #: branches the code generator folded on a proven-constant guard
    branches_folded: int = 0
    #: read-tracked seq slots handed off to their untracked bodies once
    #: their tracked reads covered their proof (compiled backend only)
    handoffs: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class ChunkRule:
    """When a chunk ends, as data the kernel evaluates.

    :meth:`Simulator.step` with a rule runs edges and wheel jumps and,
    after each one that leaves cycles to run, ends the chunk

    * once ``watch`` (a register holding a sequence) is non-empty: a word
      reached the host port;
    * otherwise, when ``every`` is set and ``every()`` holds: a predicate
      that may read simulated state, so it is checked after every edge
      and every jump.

    A predicate that reads host state only cannot change inside a chunk;
    its caller checks it between chunks and leaves it out of the rule.
    One that can turn true on elapsed cycles alone also needs ``cap``:
    ``cap()`` returns the cycles until it could (None: no such bound), and
    no jump passes that cycle, so ``every()`` is checked on it.

    After every edge the kernel also dates progress: when the length of
    ``queue``'s value or ``stage.retired`` differs from ``queued`` /
    ``retired``, it stores the new values and sets ``changed_at`` to the
    cycle.  The caller sets the baseline and reads ``changed_at`` back.
    """

    __slots__ = ("watch", "queue", "stage", "every", "cap", "queued",
                 "retired", "changed_at")

    def __init__(self, watch: Reg, queue: Reg, stage: object,
                 every: Optional[Callable[[], bool]] = None,
                 cap: Optional[Callable[[], Optional[int]]] = None) -> None:
        self.watch = watch
        self.queue = queue
        self.stage = stage
        self.every = every
        self.cap = cap
        self.queued = len(queue._value)
        self.retired = stage.retired
        self.changed_at: Optional[int] = None


class SimClock:
    """One simulator's cycle counter, as a callable a design may hold.

    A state domain's latency clock, say: calling it reads ``sim.now`` and
    nothing else.  The build cache reduces every clock to one atom rather
    than walking into the simulator (see :mod:`repro.hdl.buildcache`),
    since no set-up analysis depends on which simulator's time it reads.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim

    def __call__(self) -> int:
        return self._sim.now


class Simulator:
    """Runs a component hierarchy cycle by cycle.

    Parameters
    ----------
    top:
        Root of the component hierarchy.
    max_settle:
        Settle fixpoint iteration bound (loop detector threshold).
    wheel:
        Enable the cycle-skipping time wheel (event mode only; the
        exhaustive kernel always steps every cycle).  ``wheel=False``
        forces edge-by-edge stepping while keeping the armed/dormant
        split — used by the equivalence property suite.
    backend:
        ``"event"`` (default) for the dependency-tracked scheduler,
        ``"exhaustive"`` for the reference kernel, or ``"compiled"`` for
        the codegen backend
        (:mod:`repro.hdl.compile`): the elaborated graph is flattened
        into specialized straight-line Python, with automatic per-process
        fallback to interpreted execution where the compiler front end
        cannot prove a closure.  All backends are cycle-exact and produce
        identical traces.

    A design must be driven by at most one live simulator: elaboration
    claims every signal's change-notification hook for this instance.
    """

    def __new__(
        cls,
        top: Optional[Component] = None,
        max_settle: int = MAX_SETTLE_ITERATIONS,
        wheel: bool = True,
        backend: str = "event",
    ) -> "Simulator":
        if cls is Simulator and backend == "compiled":
            from .compile.engine import CompiledSimulator

            return super().__new__(CompiledSimulator)
        return super().__new__(cls)

    def __init__(
        self,
        top: Component,
        max_settle: int = MAX_SETTLE_ITERATIONS,
        wheel: bool = True,
        backend: str = "event",
    ):
        if backend == "compiled":
            # Only reachable when a subclass bypassed the __new__
            # dispatch; CompiledSimulator never forwards this value.
            raise SimulationError(
                "backend='compiled' is only available on Simulator itself"
            )
        if backend not in ("event", "exhaustive"):
            raise SimulationError(f"unknown backend {backend!r}")
        #: which engine executes this design ("event", "exhaustive" or
        #: "compiled")
        self.backend = backend
        self.top = top
        self.max_settle = max_settle
        #: event-driven settle/edge scheduling (the compiled backend
        #: elaborates as the event kernel, so this stays True there)
        self._event = backend == "event"
        self.wheel = bool(wheel) and self._event
        self.now = 0
        self._comb: list[Callable[[], None]] = []
        self._seq: list[Callable[[], None]] = []
        self._regs: list[Reg] = []
        self._resets: list[Callable[[], None]] = []
        self._observers: list[Callable[[int], None]] = []
        #: per-observer compressed-idle callbacks (None = plain per-cycle
        #: observer, which vetoes time-wheel jumps)
        self._obs_onskip: list[Optional[Callable[[int, int], None]]] = []
        self._plain_observers = 0
        #: scheduler state (event mode)
        self._procs: list[_Proc] = []
        self._always: list[_Proc] = []
        self._seqprocs: list[_SeqProc] = []
        #: (horizon, skip) hook pairs collected from the hierarchy
        self._wheel_hooks: list[tuple] = []
        #: every always/dynamic comb process belongs to a wheeled component
        self._always_covered = True
        #: rank-indexed run queue: _buckets[r] holds queued procs of rank r
        self._buckets: list[list[_Proc]] = [[]]
        self._npend = 0
        self._changed: list[Signal] = []
        self._staged_regs: list[Reg] = []
        self._needs_discovery = True
        self.kernel_stats = KernelStats()
        #: what the build cache did for this design, by consumer
        #: ("compile", "lint") → "hit" | "miss" | "uncacheable"
        #: (see :mod:`repro.hdl.buildcache`)
        self.build_cache: dict[str, str] = {}
        self._elaborate()

    # -- elaboration -------------------------------------------------------------

    def _elaborate(self) -> None:
        event = self._event
        for comp in self.top.walk():
            always_fns = set(map(id, comp.always_procs))
            wheeled = bool(comp.wheel_hooks)
            for fn in comp.comb_procs:
                self._comb.append(fn)
                p = _Proc(fn, always=id(fn) in always_fns)
                p.wheeled = wheeled
                self._procs.append(p)
            pure_fns = set(map(id, comp.pure_seq_procs))
            for fn in comp.seq_procs:
                self._seq.append(fn)
                self._seqprocs.append(
                    _SeqProc(fn, pure=id(fn) in pure_fns, wheeled=wheeled)
                )
            self._wheel_hooks.extend(comp.wheel_hooks)
            self._resets.extend(comp.reset_hooks)
            for sig in comp.signals:
                if isinstance(sig, Reg):
                    self._regs.append(sig)
                    sig._stage_list = self._staged_regs
                # Claim (or, for the exhaustive scheduler, release) the
                # change-notification hook, and clear any fanout a previous
                # simulator of this design may have left.
                sig._pending = self._changed if event else None
                sig._fanout = []
                sig._seq_fanout = []
        if not self._comb and not self._seq:
            raise SimulationError(f"design {self.top.path!r} has no processes")
        #: every horizon the jump scan asks (the compiled backend adds its
        #: vectorized executors')
        self._horizons = [horizon for horizon, _ in self._wheel_hooks]

    def add_observer(
        self,
        fn: Callable[[int], None],
        *,
        on_skip: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Register a callback invoked with the cycle number after each cycle.

        Used by tracers (see :mod:`repro.hdl.trace`) and test probes.
        ``step`` skips observer dispatch entirely while no observer is
        registered, so untraced runs pay nothing here.

        A plain observer needs to see every cycle, so its presence forces
        the time wheel off — which is what makes traced runs bit-identical
        by construction.  An observer that can digest a compressed idle run
        may instead pass ``on_skip``, called as ``on_skip(now, skipped)``
        after a jump lands (``now`` is the post-jump cycle, ``skipped`` the
        number of cycles covered); such observers keep fast-forward alive.
        """
        self._observers.append(fn)
        self._obs_onskip.append(on_skip)
        if on_skip is None:
            self._plain_observers += 1

    def remove_observer(self, fn: Callable[[int], None]) -> None:
        """Detach a previously registered observer (restores the fast path)."""
        idx = self._observers.index(fn)
        self._observers.pop(idx)
        if self._obs_onskip.pop(idx) is None:
            self._plain_observers -= 1

    # -- settle phase ----------------------------------------------------------

    def settle(self) -> int:
        """Run combinational processes to fixpoint; returns iterations used.

        Event mode returns 0 from the quiescent fast path (nothing changed
        since the last settle, so the fixpoint is already in place).
        """
        self.kernel_stats.settle_calls += 1
        if not self._event:
            return self._settle_exhaustive()
        if self._needs_discovery:
            return self._settle_discovery()
        return self._settle_event()

    def _settle_exhaustive(self) -> int:
        """Reference kernel: every process, every pass, until a clean pass."""
        comb = self._comb
        tracker = CHANGES
        stats = self.kernel_stats
        for iteration in range(1, self.max_settle + 1):
            tracker.dirty = False
            stats.exhaustive_passes += 1
            for proc in comb:
                proc()
            if not tracker.dirty:
                return iteration
        unstable = self._find_unstable()
        raise CombinationalLoopError(self.now, self.max_settle, unstable)

    def _settle_discovery(self) -> int:
        """Instrumented full-pass settle: builds/refreshes read sets.

        Used for the first settle after elaboration and after
        :meth:`reset` — any point where signal values may have changed
        without change notifications.  Runs exactly like the exhaustive
        kernel (same pass structure, same iteration count) but with read
        tracking installed, then registers per-signal fanout and classifies
        processes for event scheduling.
        """
        procs = self._procs
        tracker = CHANGES
        stats = self.kernel_stats
        for bucket in self._buckets:
            bucket.clear()
        self._npend = 0
        for p in procs:
            p.queued = False
        try:
            for iteration in range(1, self.max_settle + 1):
                tracker.dirty = False
                stats.discovery_passes += 1
                for p in procs:
                    if p.always:
                        p.fn()
                    else:
                        _signal_mod._READS = p.reads
                        _signal_mod._WRITES = p.writes
                        try:
                            p.fn()
                        finally:
                            _signal_mod._READS = None
                            _signal_mod._WRITES = None
                if not tracker.dirty:
                    self._finish_discovery()
                    return iteration
        finally:
            self._changed.clear()
        unstable = self._find_unstable()
        raise CombinationalLoopError(self.now, self.max_settle, unstable)

    def _finish_discovery(self) -> None:
        """Classify processes and build the per-signal fanout map."""
        changed_list = self._changed
        for p in self._procs:
            if p.always:
                continue
            if not p.reads:
                if p.writes:
                    # Real outputs but no visible inputs: the process reads
                    # hidden Python state and must run exhaustively.
                    p.always = True
                else:
                    # Touched nothing across every discovery pass — a no-op
                    # placeholder (passive RAM/ROM components register these
                    # to stay valid stand-alone designs).  Never schedule it.
                    p.inert = True
            elif any(s._pending is not changed_list for s in p.reads):
                # Reads signals this simulator does not manage (another
                # design's nets, free-standing test signals): their changes
                # would never reach our queue, so run exhaustively.
                p.always = True
            else:
                self._register_fanout(p)
        self._always = [p for p in self._procs if p.always]
        tracked = [p for p in self._procs if not p.always and not p.inert]
        self._rank_procs(tracked)
        stats = self.kernel_stats
        stats.always_procs = len(self._always)
        stats.tracked_procs = len(tracked)
        # Fast-forward is only sound when every always-run process's hidden
        # inputs are covered by its component's wheel hooks (the hooks veto
        # the jump whenever that hidden state is about to change).
        self._always_covered = all(p.wheeled for p in self._always)
        # Discovery runs whenever values may have moved without change
        # notifications (reset, recovery) — dormant edge processes cannot
        # trust their read sets across that, so re-arm everything.
        for sp in self._seqprocs:
            sp.armed = True
        self._needs_discovery = False

    def _rank_procs(self, tracked: list[_Proc]) -> None:
        """Assign each tracked proc its :func:`rank_depths` depth and size
        the rank-indexed run queue to the deepest."""
        ranks = rank_depths([p.reads for p in tracked],
                            [p.writes for p in tracked])
        for p, r in zip(tracked, ranks):
            p.rank = r
        self._buckets = [[] for _ in range(max(ranks, default=0) + 1)]
        self._npend = 0

    def _register_fanout(self, p: _Proc) -> None:
        for sig in p.reads:
            fanout = sig._fanout
            if p not in fanout:
                fanout.append(p)

    def _make_dynamic(self, p: _Proc) -> None:
        """Fallback: pin a proven-dynamic process to every settle iteration."""
        p.always = True
        p.queued = True  # permanently; drain skips queued procs
        for sig in p.reads:
            if p in sig._fanout:
                sig._fanout.remove(p)
        self._always.append(p)
        if not p.wheeled:
            self._always_covered = False
        stats = self.kernel_stats
        stats.dynamic_fallbacks += 1
        stats.always_procs += 1
        stats.tracked_procs -= 1

    def _grew(self, p: _Proc) -> None:
        """A scheduled run read signals outside the recorded set."""
        p.growths += 1
        if p.growths > DYNAMIC_GROWTH_LIMIT:
            self._make_dynamic(p)
        else:
            self._register_fanout(p)

    def _settle_event(self) -> int:
        """Event-driven settle: re-run only the fanout of changed signals.

        Queued processes are evaluated in topological rank order (writers
        before readers), so one sweep normally reaches the fixpoint; only
        feedback (a later-rank process waking an earlier rank) or hidden
        state changed by an always-run process forces another sweep.
        """
        stats = self.kernel_stats
        changed = self._changed
        buckets = self._buckets
        npend = self._npend
        if changed:
            for sig in changed:
                for p in sig._fanout:
                    if not p.queued:
                        p.queued = True
                        buckets[p.rank].append(p)
                        npend += 1
                for sp in sig._seq_fanout:
                    sp.armed = True
            changed.clear()
        always = self._always
        if not npend and not always:
            stats.quiescent_settles += 1
            return 0
        tracker = CHANGES
        iterations = 0
        try:
            while npend or (always and (iterations == 0 or tracker.dirty)):
                iterations += 1
                if iterations > self.max_settle:
                    self._npend = npend
                    self._needs_discovery = True  # leave a recoverable scheduler
                    _signal_mod._READS = None  # probe runs must not pollute read sets
                    unstable = self._find_unstable()
                    raise CombinationalLoopError(self.now, self.max_settle, unstable)
                if npend > stats.peak_queue_depth:
                    stats.peak_queue_depth = npend
                tracker.dirty = False
                ran = 0
                for bucket in buckets:
                    # Consume only the procs queued when the sweep reached
                    # this bucket.  A proc that re-queues itself (same-rank
                    # feedback, or a self-loop toggling its own input) lands
                    # beyond `limit` and waits for the next outer iteration —
                    # otherwise a zero-delay oscillation would spin inside
                    # this drain forever without tripping the iteration bound.
                    i = 0
                    limit = len(bucket)
                    while i < limit:
                        p = bucket[i]
                        i += 1
                        npend -= 1
                        if p.always:
                            continue  # reclassified dynamic while queued
                        p.queued = False
                        ran += 1
                        reads = p.reads
                        before = len(reads)
                        _signal_mod._READS = reads
                        p.fn()
                        if len(reads) != before:
                            _signal_mod._READS = None
                            self._grew(p)
                        if changed:
                            for sig in changed:
                                for q in sig._fanout:
                                    if not q.queued:
                                        q.queued = True
                                        buckets[q.rank].append(q)
                                        npend += 1
                                for sp in sig._seq_fanout:
                                    sp.armed = True
                            changed.clear()
                    del bucket[:limit]
                stats.activations += ran
                _signal_mod._READS = None
                if always:
                    for p in always:
                        p.fn()
                    stats.always_runs += len(always)
                    if changed:
                        for sig in changed:
                            for q in sig._fanout:
                                if not q.queued:
                                    q.queued = True
                                    buckets[q.rank].append(q)
                                    npend += 1
                            for sp in sig._seq_fanout:
                                sp.armed = True
                        changed.clear()
        finally:
            _signal_mod._READS = None
            self._npend = npend
        stats.settle_iterations += iterations
        return iterations

    def _find_unstable(self) -> list[str]:
        """Best-effort identification of oscillating signals for diagnostics.

        Snapshots every signal *by identity* (hierarchical names need not be
        unique across odd hierarchies), probes with one extra combinational
        pass, and restores the pre-probe values so the diagnostic itself
        does not corrupt the state a debugger will inspect.
        """
        before = [(s, s._value) for s in self.top.all_signals()]
        pending_before = list(self._changed)
        for proc in self._comb:
            proc()
        unstable = [s.name for s, v in before if s._value != v]
        for s, v in before:
            s._value = v
        # Drop the probe's change notifications; keep whatever was pending.
        self._changed[:] = pending_before
        return unstable

    # -- edge phase ------------------------------------------------------------

    def _edge(self) -> None:
        stats = self.kernel_stats
        stats.edge_calls += 1
        if self._event:
            ran = 0
            tracker = CHANGES
            try:
                for sp in self._seqprocs:
                    if not sp.armed:
                        continue
                    ran += 1
                    if sp.pure:
                        reads = sp.reads
                        nread = len(reads)
                        nstage = tracker.stages
                        _signal_mod._READS = reads
                        sp.fn()
                        _signal_mod._READS = None
                        if len(reads) != nread:
                            self._register_seq_fanout(sp)
                        # A pure process that staged nothing this edge is a
                        # guaranteed no-op until something it reads changes:
                        # put it to sleep.  (Unmanaged readers can never
                        # sleep — their wake-up would be lost.)
                        if tracker.stages == nstage and not sp.unmanaged:
                            sp.armed = False
                    else:
                        sp.fn()
            finally:
                _signal_mod._READS = None
            stats.seq_runs += ran
        else:
            for proc in self._seq:
                proc()
            stats.seq_runs += len(self._seq)
        # Only registers that were actually staged this cycle need a commit;
        # Reg.stage enrols each register in _staged_regs on first staging.
        staged = self._staged_regs
        if staged:
            for reg in staged:
                reg.commit()
            staged.clear()

    def _register_seq_fanout(self, sp: _SeqProc) -> None:
        """(Re)build the re-arm edges for a dormancy-tracked seq process."""
        changed_list = self._changed
        for sig in sp.reads:
            if sig._pending is not changed_list:
                sp.unmanaged = True
                continue
            fan = sig._seq_fanout
            if sp not in fan:
                fan.append(sp)

    # -- time-wheel fast-forward -------------------------------------------------

    def _jump_vetoed(self) -> bool:
        """An always-run combinational process lacks wheel coverage, or an
        armed sequential process does: no horizon can cover them."""
        if not self._always_covered:
            return True
        for sp in self._seqprocs:
            if sp.armed and not sp.wheeled:
                return True
        return False

    def _skip_scan(self, limit: int) -> int:
        """How many edges can be skipped from settled state: 0 when
        :meth:`_jump_vetoed` or any horizon says the next edge performs
        real work, otherwise the minimum horizon capped at ``limit``."""
        if self._jump_vetoed():
            return 0
        n = limit
        for horizon in self._horizons:
            h = horizon()
            if h is not None and h < n:
                if h <= 0:
                    return 0
                n = h
        return n

    def fast_forward_limit(self, max_cycles: int = NO_HORIZON) -> int:
        """Upper bound on safely skippable cycles from the current state.

        Settles the design, then runs the wheel's precondition scan without
        performing a jump.  Returns 0 whenever fast-forward is unavailable
        (wheel disabled, plain observers attached, non-event scheduler, or
        real work pending on the next edge).  :meth:`step` takes the jumps
        this reports by itself; the query serves tests and tracing.
        """
        if not self.wheel or self._plain_observers:
            return 0
        self.settle()
        return self._skip_scan(max_cycles)

    # -- public stepping API ---------------------------------------------------

    def step(self, cycles: int = 1, rule: Optional[ChunkRule] = None) -> int:
        """Advance the design by up to ``cycles`` clock cycles; returns the
        number of cycles run.

        With the time wheel enabled (and no plain observer attached), each
        settle is followed by the wheel's scan, and a run of provably idle
        cycles is covered by one O(#hooks) jump instead of per-cycle edges;
        the result is cycle-exact either way.  No jump covers the final
        cycle, which stays a real edge.  A jump that landed on the smallest
        horizon is followed by that horizon's edge without a scan.

        With a :class:`ChunkRule` the step may end early: the rule's stop
        test runs after every edge and every jump that leaves cycles to
        run, no jump passes ``rule.cap()``, and progress is dated after
        every edge.
        """
        observers = self._observers
        stats = self.kernel_stats
        jumps = self.wheel and not self._plain_observers
        cap = None if rule is None else rule.cap
        ran = 0
        # the last jump landed on the smallest horizon: its next edge does
        # real work, so no scan can find another jump before it
        landed = False
        while ran < cycles:
            self.settle()
            n = limit = 0
            if jumps and not landed and cycles - ran > 1:
                limit = cycles - ran - 1
                if cap is not None:
                    c = cap()
                    if c is not None and c < limit:
                        limit = c
                if limit > 0:
                    n = self._skip_scan(limit)
            if n:
                # a jump cut short by ``limit`` (the step's end or the
                # rule's cap) may still be followed by another
                landed = n < limit
                for _, skip in self._wheel_hooks:
                    skip(n)
                self.now += n
                ran += n
                stats.skipped_cycles += n
                stats.wheel_jumps += 1
                for cb in self._obs_onskip:
                    cb(self.now, n)
            else:
                landed = False
                self._edge()
                self.now += 1
                ran += 1
                for obs in observers:
                    obs(self.now)
                if rule is not None:
                    queued = len(rule.queue._value)
                    retired = rule.stage.retired
                    if queued != rule.queued or retired != rule.retired:
                        rule.queued = queued
                        rule.retired = retired
                        rule.changed_at = self.now
            if rule is not None and ran < cycles and (
                rule.watch._value or rule.every is not None and rule.every()
            ):
                break
        return ran

    def run_until(self, predicate: Callable[[], bool], max_cycles: int = 100_000) -> int:
        """Step until ``predicate()`` holds (evaluated on settled state).

        Returns the number of cycles consumed.  Raises ``SimulationError``
        when the bound is exceeded — the standard way tests detect protocol
        deadlocks (e.g. a functional unit that never raises ``idle``).

        The settle after each step brings the combinational state up to
        date for the predicate; with the event scheduler the subsequent
        settle inside :meth:`step` then finds an empty queue and is a
        no-op re-check, so the historical double-settle costs nothing.
        """
        start = self.now
        self.settle()
        while not predicate():
            if self.now - start >= max_cycles:
                raise SimulationError(
                    f"condition not reached within {max_cycles} cycles "
                    f"(started at {start}, now {self.now})"
                )
            self.step()
            self.settle()
        return self.now - start

    def reset(self) -> None:
        """Drive the whole design to its reset state (asynchronous reset).

        Signal values change wholesale here (including register resets that
        bypass change notification), so the event scheduler schedules a
        full rediscovery settle rather than trusting its queue.
        """
        for sig in self.top.all_signals():
            if isinstance(sig, Reg):
                sig.reset_state()
            else:
                sig.force(sig.reset)
        self._staged_regs.clear()  # reset_state dropped every staged value
        for hook in self._resets:
            hook()
        self._forget()
        self.settle()

    def _forget(self) -> None:
        """After a reset: drop what the scheduler knew of the old values,
        so the next settle rediscovers the design."""
        if self._event:
            self._needs_discovery = True
            self._changed.clear()

    # -- stats -----------------------------------------------------------------

    @property
    def process_counts(self) -> tuple[int, int]:
        """(combinational, sequential) process counts — used by area tests."""
        return len(self._comb), len(self._seq)

    # -- introspection (lint subsystem) ----------------------------------------

    def discovered_dependencies(self) -> dict:
        """Scheduler-discovered per-process dependency sets (read-only).

        Returns ``{"comb": [...], "seq": [...], "discovered": bool}`` where
        each combinational entry carries the process function, its recorded
        read/write signal sets and its classification (``always``/``inert``),
        and each sequential entry its function, read set and ``pure``/
        ``wheeled`` flags.  ``discovered`` is False while no discovery settle
        has run yet (freshly elaborated or reset-pending), in which case the
        sets are empty or stale.

        This is the ground truth the event kernel actually schedules from;
        :mod:`repro.analysis.lint` unions it with its static AST pass so
        diagnostics never contradict the running scheduler.  The returned
        sets are copies — mutating them cannot corrupt the kernel.
        """
        comb = [
            {
                "fn": p.fn,
                "reads": frozenset(p.reads),
                "writes": frozenset(p.writes),
                "always": p.always,
                "inert": p.inert,
                "wheeled": p.wheeled,
            }
            for p in self._procs
        ]
        seq = [
            {
                "fn": sp.fn,
                "reads": frozenset(sp.reads),
                "pure": sp.pure,
                "wheeled": sp.wheeled,
            }
            for sp in self._seqprocs
        ]
        return {"comb": comb, "seq": seq, "discovered": not self._needs_discovery}
