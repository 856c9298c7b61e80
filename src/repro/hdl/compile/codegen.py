"""Source emission for the compiled backend.

Given the front end's per-process plans, this module emits one Python
module built around one wake-flag list ``_W`` and one fanout map
``_FAN`` (signal → slots).  Every drain turns the simulator's pending
changed-signal list (``_CHG``) into raised flags, and only flagged slots
run: the event kernel's notification queue, dispatched statically.  The
flag is the only run decision; no slot compares input values.  Comb
slots come first; sequential slots follow them in the same list.  The
module contains five functions:

* ``_sweep()`` — one rank-ordered pass over every combinational process
  with a static wake set: a flagged slot runs its specialized body
  (``_pN``) or, when the body bails out whole, the original function
  (``_fN``).  Processes without
  a provable closure follow the ranked section in *read-tracked slots*: a
  flagged slot runs its engine helper (``_tkN``), which records the
  signals the run read and adds them to ``_FAN``.  Every-sweep processes
  (``_ALW``: ``always=True``, hidden-input-only writers and runtime
  demotions appended by the engine) run unconditionally at the end.  A
  final drain follows, and the sweep returns ``(runs, more)`` where
  ``more`` says a drain raised a comb flag the sweep had already passed:
  the settle loop's "queue not empty" test.  ``_drain()`` is the same
  drain on its own, run at settle entry: a settle whose pending changes
  wake no comb slot is quiescent.  A raised seq flag is edge work and
  never makes a settle busy.
* ``_edge()`` — the fused sequential/commit phase.  A sequential process
  with a static, managed wake set runs from a *wake slot* when its flag
  is up, and afterwards keeps the flag up only if the run staged
  something (the event kernel's dormancy rule).  Pure processes with an
  unprovable closure run from read-tracked seq slots (``_tsN``) under the
  same rule; one that reads an unmanaged signal stays armed.  Impure
  fallbacks run on every edge.  Vectorized executors follow, then an
  inlined atomic commit of the staged registers.  Returns ``(runs,
  vector_applied)``; one comment line per process names its tier.
* ``_scan_seq()`` — True when any *non-wheeled* sequential slot's flag
  is up; the engine's time-wheel scan vetoes jumps on it.
* ``_run(n, rule, jumps)`` — one chunk (``Simulator.step(n, rule)``)
  without leaving the module: the engine's settle (entry drain, then
  sweeps until no comb flag is raised) and edge, inlined, with the jump
  between them and the :class:`~repro.hdl.sim.ChunkRule` evaluated after
  each edge and each jump.  The jump inlines ``_scan_seq``, caps itself
  at the final cycle and ``rule.cap()``, calls the horizons (``_hzN``:
  wheel hooks, then executors) until one rules it out, and ages every
  wheel hook that has a skip (``_skN``); a hook registered without one
  gets no call.  A jump shorter than its cap landed on the smallest
  horizon, so the next pass goes straight to that horizon's edge without
  a scan.  Kernel counters add up in locals and reach the
  engine's ``KernelStats`` once, when the chunk ends or raises.  Returns
  the cycles run.

The module is emitted and compiled once per design (the build cache's
layout keeps it as a :class:`Dispatch`: source and code) and ``exec``'d
once per system into a namespace holding the specialized bodies
(``_pN``, ``_eN``, the ``_ALW`` entries and the wheel hooks' ``_hzN``
and ``_skN``, from the :class:`~.frontend.Template` of each; a hook the
translator cannot handle runs as written), called functions and a
handful of kernel internals (``_CH`` the change tracker, ``_U`` the unset
sentinel, ``_SL`` the staged-register list, ``_CHG`` the simulator's
pending list, ``_SIM`` the simulator, ``_JOK`` whether a jump is possible
at all).
The specialized bodies are compiled separately, against each process's
own globals and closure; the module's ``source`` lists each template once
after the dispatch functions, with the objects every call site binds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import CodeType
from typing import Any, Callable, Optional

from ..components import Stream
from ..signal import Signal
from .frontend import Specialized

__all__ = ["Dispatch", "Hook", "Plan", "GeneratedModule", "generate"]


@dataclass
class Plan:
    """Execution plan for one combinational or sequential process."""

    fn: Callable[[], None]
    index: int
    #: the process's :class:`~.frontend.Placement` kind: "slot" (a static
    #: wake slot) | "tracked" (a read-tracked wake slot, always running
    #: ``fn``) | "sweep" (comb, every sweep) | "edge" (seq, every edge).
    #: Every kind but "tracked" runs ``spec`` when there is one, else ``fn``.
    kind: str
    wheeled: bool
    #: signals whose changes raise this plan's flag (see frontend.place)
    wake: list = field(default_factory=list)
    #: the specialized body, run instead of ``fn``
    spec: Optional[Specialized] = None
    #: a "tracked" plan's slot runner (the engine's read-tracking helper)
    run: Optional[Callable[[], Any]] = None
    rank: int = 0  # comb only: topological depth
    #: position in the wake-flag list (assigned by :func:`generate`)
    slot: int = -1


@dataclass
class Hook:
    """One wheel hook function, a horizon or a skip, as the jump runs it."""

    #: ``<component path>:<qualified name>``
    label: str
    fn: Callable[..., Any]
    #: the specialized body, run instead of ``fn``
    spec: Optional[Specialized] = None
    #: why ``fn`` runs as written ("" when specialized)
    reason: str = ""

    @property
    def run(self) -> Callable[..., Any]:
        return self.spec.fn if self.spec is not None else self.fn


@dataclass(frozen=True)
class Dispatch:
    """The dispatching module of one design: emitted and compiled by its
    first build, loaded into a fresh namespace by every build."""

    #: the dispatch functions, then each specialized body's listing
    source: str
    #: the dispatch functions compiled, without the listing
    code: CodeType


@dataclass
class GeneratedModule:
    """The exec-compiled module plus the state the engine must manage."""

    source: str
    sweep: Callable[[], tuple]
    drain: Callable[[], bool]
    edge: Callable[[], tuple]
    scan_seq: Callable[[], bool]
    run: Callable[[int, Any, bool], int]
    wake: list  # per-slot wake flags; set all True to re-run everything
    n_comb: int  # comb slots come first in ``wake``; seq slots follow
    fanout: dict  # signal -> wake slots; read-tracked slots grow it
    every: list  # functions run on every sweep (``_ALW``)
    namespace: dict  # the module's globals
    dispatch: Dispatch  # what a later build of the same design loads


def _label(obj: Any) -> str:
    if isinstance(obj, (Signal, Stream)):
        return obj.name
    name = getattr(obj, "name", None)
    if isinstance(name, str):
        return f"{type(obj).__name__}.{name}"
    return type(obj).__name__


def _listing(calls: list) -> list:
    """Each specialized body once, then which call runs it with what;
    ``calls`` holds each call's name and its plan or hook."""
    out = ["", "# -- specialized bodies " + "-" * 55]
    numbers: dict = {}
    for call, p in calls:
        template = p.spec.template
        k = numbers.get(id(template))
        if k is None:
            k = numbers[id(template)] = len(numbers)
            where = f"{p.fn.__module__}:{template.code.co_firstlineno}"
            out.append(f"# template {k}: {p.fn.__qualname__} ({where})")
            out.extend(template.source.splitlines())
        bound = ", ".join(f"_h{j} = {_label(o)}"
                          for j, o in enumerate(p.spec.objects))
        out.append(f"# {call} runs template {k}" + (f": {bound}" if bound else ""))
    return out


def _comb_call(p: Plan) -> str:
    return f"_p{p.index}" if p.spec is not None else f"_f{p.index}"


def _seq_call(s: Plan) -> str:
    return f"_e{s.index}" if s.spec is not None else f"_q{s.index}"


def _body(p: Plan) -> Callable[[], Any]:
    return p.spec.fn if p.spec is not None else p.fn


def generate(
    comb: list[Plan],
    seq: list[Plan],
    executors: list,
    horizons: list[Hook],
    skips: list[Hook],
    namespace: dict,
    dispatch: Optional[Dispatch],
) -> GeneratedModule:
    """Wire one system's plans into a namespace and load the dispatching
    module there.

    ``namespace`` must already contain ``_CH``, ``_U``, ``_SL``, ``_CHG``,
    ``_SIM`` and ``_JOK``; specialized bodies, called functions, executor
    methods, the wheel hooks' ``horizons`` and ``skips`` (the hooks that
    have one) and the tracked plans' slot runners are installed here.
    ``dispatch`` is the module an earlier build of the same design
    emitted; with None it is emitted and compiled now (and returned in the
    result's ``dispatch``).
    """
    # -- wake slots -----------------------------------------------------------
    # The module is wake-driven, mirroring the event kernel's notification
    # queue with static dispatch: every signal in a slot's wake set maps
    # (via _FAN) to the slot's position in the _W flag list, the drains
    # convert the pending changed-signal list into raised flags, and only
    # flagged slots run.  Comb slots come first (ranked, then tracked);
    # seq slots follow from position n_slots and are read by the edge.
    ordered = sorted(
        (p for p in comb if p.kind == "slot"),
        key=lambda p: (p.rank, p.index),
    )
    tracked = [p for p in comb if p.kind == "tracked"]
    seq_slots = [s for s in seq if s.kind != "edge"]
    slotted = ordered + tracked + seq_slots
    for pos, p in enumerate(slotted):
        p.slot = pos
    wake: list = [True] * len(slotted)
    fanout: dict = {}
    for p in slotted:  # tracked plans start empty and grow _FAN as they run
        for sig in p.wake:
            fanout.setdefault(sig, []).append(p.slot)
    every = [_body(p) for p in comb if p.kind == "sweep"]
    namespace["_W"] = wake
    namespace["_FAN"] = fanout
    namespace["_ALW"] = every
    for p in ordered:
        namespace[_comb_call(p)] = _body(p)
    for p in tracked:
        namespace[f"_tk{p.index}"] = p.run
    for s in seq:
        if s.kind == "tracked":
            namespace[f"_ts{s.index}"] = s.run
        else:
            namespace[_seq_call(s)] = _body(s)
    scan = [h.run for h in horizons] + [ex.horizon for ex in executors]
    for k, fn in enumerate(scan):
        namespace[f"_hz{k}"] = fn
    for k, hook in enumerate(skips):
        namespace[f"_sk{k}"] = hook.run
    for k, ex in enumerate(executors):
        namespace[f"_x{k}_settle"] = ex.settle
        namespace[f"_x{k}_edge"] = ex.edge
    if dispatch is None:
        hooks = [(f"_hz{k}", h) for k, h in enumerate(horizons)]
        hooks += [(f"_sk{k}", h) for k, h in enumerate(skips)]
        dispatch = _emit(comb, ordered, tracked, seq, seq_slots, len(wake),
                         len(executors), len(scan), len(skips),
                         [(call, h) for call, h in hooks if h.spec is not None])
    exec(dispatch.code, namespace)
    return GeneratedModule(
        source=dispatch.source,
        sweep=namespace["_sweep"],
        drain=namespace["_drain"],
        edge=namespace["_edge"],
        scan_seq=namespace["_scan_seq"],
        run=namespace["_run"],
        wake=wake,
        n_comb=len(ordered) + len(tracked),
        fanout=fanout,
        every=every,
        namespace=namespace,
        dispatch=dispatch,
    )


def _emit(comb: list[Plan], ordered: list[Plan], tracked: list[Plan],
          seq: list[Plan], seq_slots: list[Plan], n_wake: int,
          n_executors: int, n_horizons: int, n_skips: int,
          hook_calls: list) -> Dispatch:
    """The dispatching module's source and code, for plans whose slots
    :func:`generate` has assigned; ``hook_calls`` are the specialized
    wheel hooks, by call name, for the listing."""
    out: list[str] = []
    emit = out.append
    n_slots = len(ordered) + len(tracked)
    #: (module name, plan) of every plan running a specialized body
    calls: list = []
    alw = 0
    for p in comb:
        if p.kind == "sweep":
            if p.spec is not None:
                calls.append((f"_ALW[{alw}]", p))
            alw += 1

    def emit_drain(passed: int, pad: str = "    ") -> None:
        # inlined at each slot-group boundary: the truthiness test keeps
        # an empty drain at one bytecode op instead of a function call;
        # ``passed`` is the number of comb slots the sweep has gone by.
        # A raised seq slot is edge work, never settle work.
        if not passed:
            behind = ""
        elif passed >= n_wake:
            behind = "_more = True"
        else:
            behind = f"if _k < {passed}: _more = True"
        emit(pad + "if _CHG:")
        emit(pad + "    for _s in _CHG:")
        emit(pad + "        _f = _FAN.get(_s)")
        emit(pad + "        if _f is not None:")
        emit(pad + "            for _k in _f:")
        emit(pad + "                _W[_k] = True")
        if behind:
            emit(pad + "                " + behind)
        emit(pad + "    del _CHG[:]")

    # -- settle sweep ---------------------------------------------------------
    # Draining again at each rank boundary lets a whole forward cascade
    # complete in a single sweep.  A flag raised for a comb slot the sweep
    # has already passed sets _more: the queue is not empty, so the settle
    # loop sweeps again.
    emit("def _sweep():")
    emit("    _ran = 0")
    emit("    _more = False")
    for k in range(n_executors):
        emit(f"    if _x{k}_settle():")
        emit("        _ran += 1")
    last_rank: Optional[int] = None
    for pos, p in enumerate(ordered):
        call = _comb_call(p)
        if p.spec is not None:
            calls.append((call, p))
        if p.rank != last_rank:
            emit_drain(pos)
            last_rank = p.rank
        emit(f"    if _W[{pos}]:")
        emit(f"        _W[{pos}] = False")
        emit(f"        {call}()")
        emit("        _ran += 1")
    for p in tracked:
        emit_drain(p.slot)
        emit(f"    if _W[{p.slot}]:")
        emit(f"        _W[{p.slot}] = False")
        emit(f"        _ran += _tk{p.index}()")
    emit("    if _ALW:")
    emit("        for _a in _ALW:")
    emit("            _a()")
    emit("        _ran += len(_ALW)")
    emit_drain(n_slots)
    emit("    return _ran, _more")
    emit("")
    # the settle entry drain: True when a pending change woke a comb slot
    emit("def _drain():")
    emit("    _more = False")
    emit_drain(n_slots)
    emit("    return _more")
    emit("")

    # -- edge phase -----------------------------------------------------------
    # Event-kernel dormancy: a slot runs when its flag is up, and the flag
    # stays up only when the run staged something (or, for a tracked slot
    # reading an unmanaged signal, always).
    emit("def _edge():")
    emit("    _ran = 0")
    for s in seq:
        name = getattr(s.fn, "__qualname__", s.fn)
        call = _seq_call(s)
        if s.spec is not None:
            calls.append((call, s))
        if s.kind == "edge":
            emit(f"    # {name}: every edge")
            emit(f"    {call}()")
            emit("    _ran += 1")
        elif s.kind == "tracked":
            emit(f"    # {name}: tracked slot {s.slot}")
            emit(f"    if _W[{s.slot}]:")
            emit(f"        _W[{s.slot}] = _ts{s.index}()")
            emit("        _ran += 1")
        else:
            emit(f"    # {name}: wake slot {s.slot}")
            emit(f"    if _W[{s.slot}]:")
            emit("        _n0 = _CH.stages")
            emit(f"        {call}()")
            emit(f"        _W[{s.slot}] = _n0 != _CH.stages")
            emit("        _ran += 1")
    emit("    _vec = False")
    for k in range(n_executors):
        emit(f"    if _x{k}_edge():")
        emit("        _vec = True")
    # fused atomic register commit (inlined Reg.commit)
    emit("    _st = _SL")
    emit("    if _st:")
    emit("        for _r in _st:")
    emit("            _v = _r._staged")
    emit("            _r._staged = _U")
    emit("            if _v != _r._value:")
    emit("                _r._value = _v")
    emit("                _CHG.append(_r)")
    emit("        del _st[:]")
    emit("    return _ran, _vec")
    emit("")

    # -- wheel scan over non-wheeled sequential processes ---------------------
    # every-edge processes veto in the engine before _scan_seq is called
    emit("def _scan_seq():")
    flags = [f"_W[{s.slot}]" for s in seq_slots if not s.wheeled]
    if flags:
        emit(f"    if {' or '.join(flags)}:")
        emit("        return True")
    emit("    return False")
    emit("")

    # -- chunk ----------------------------------------------------------------
    # Simulator.step(n, rule) in one frame: settle, the jump, the edge and
    # the rule, exactly as the engine's methods would run them.
    emit("def _run(_n, _rule, _jumps):")
    emit("    _sim = _SIM")
    emit("    _max = _sim.max_settle")
    emit("    _watch = _rule.watch")
    emit("    _queue = _rule.queue")
    emit("    _stage = _rule.stage")
    emit("    _every = _rule.every")
    emit("    _cap = _rule.cap")
    emit("    _queued = _rule.queued")
    emit("    _retired = _rule.retired")
    emit("    _at = _rule.changed_at")
    emit("    _now = _sim.now")
    emit("    _ran = 0")
    emit("    _sc = _qs = _it = _act = _ec = _sr = _sk = _wj = 0")
    emit("    _land = False")
    emit("    try:")
    emit("        while _ran < _n:")
    # settle: the entry drain decides quiescence (CompiledSimulator.settle)
    emit("            _sc += 1")
    emit("            if _sim._edge_dirty:")
    emit("                _sim._edge_dirty = False")
    emit("                _quiet = False")
    emit("            else:")
    emit("                _more = False")
    emit_drain(n_slots, pad="                ")
    if n_executors:
        # a column loaded between chunks folds now (CompiledSimulator.settle)
        emit("                if not _more:")
        for k in range(n_executors):
            emit(f"                    if _x{k}_settle():")
            emit("                        _act += 1")
            emit("                        _more = True")
    emit("                _quiet = not _more")
    emit("            if _quiet and not _ALW:")
    emit("                _qs += 1")
    emit("            else:")
    emit("                _i = 0")
    emit("                while True:")
    emit("                    _i += 1")
    emit("                    if _i > _max:")
    emit("                        _sim._loop_error()")
    emit("                    _CH.dirty = False")
    emit("                    _r, _m = _sweep()")
    emit("                    _act += _r")
    emit("                    if not _m and not (_ALW and _CH.dirty):")
    emit("                        break")
    emit("                _it += _i")
    # the jump: the engine's _skip_scan (a horizon of 0 or less rules it
    # out and the rest are not asked), then every wheel hook's skip.  A
    # jump shorter than its limit landed on the smallest horizon (_land):
    # the next edge does real work, so no scan runs before it.
    veto = f" and not ({' or '.join(flags)})" if flags else ""
    emit("            _hz = 0")
    emit(f"            if _jumps and not _land and _ran < _n - 1 and _JOK{veto}:")
    emit("                _hz = _n - _ran - 1")
    emit("                if _cap is not None:")
    emit("                    _c = _cap()")
    emit("                    if _c is not None and _c < _hz:")
    emit("                        _hz = _c")
    emit("                _lim = _hz")
    for k in range(n_horizons):
        emit("                if _hz > 0:")
        emit(f"                    _h = _hz{k}()")
        emit("                    if _h is not None and _h < _hz:")
        emit("                        _hz = _h")
    emit("            if _hz > 0:")
    emit("                _land = _hz < _lim")
    for k in range(n_skips):
        emit(f"                _sk{k}(_hz)")
    emit("                _now += _hz")
    emit("                _sim.now = _now")
    emit("                _ran += _hz")
    emit("                _sk += _hz")
    emit("                _wj += 1")
    # the edge (CompiledSimulator._edge), then the rule dates progress
    emit("            else:")
    emit("                _land = False")
    emit("                _ec += 1")
    emit("                _r, _v = _edge()")
    emit("                if _v:")
    emit("                    _sim._edge_dirty = True")
    emit("                _sr += _r")
    emit("                _now += 1")
    emit("                _sim.now = _now")
    emit("                _ran += 1")
    emit("                _q = len(_queue._value)")
    emit("                _t = _stage.retired")
    emit("                if _q != _queued or _t != _retired:")
    emit("                    _queued = _q")
    emit("                    _retired = _t")
    emit("                    _at = _now")
    # the rule's stop test: a word, or the predicate
    emit("            if _ran < _n and (_watch._value or _every is not None and _every()):")
    emit("                break")
    emit("    finally:")
    emit("        _ks = _sim.kernel_stats")
    emit("        _ks.settle_calls += _sc")
    emit("        _ks.quiescent_settles += _qs")
    emit("        _ks.settle_iterations += _it")
    emit("        _ks.activations += _act")
    emit("        _ks.edge_calls += _ec")
    emit("        _ks.seq_runs += _sr")
    emit("        _ks.skipped_cycles += _sk")
    emit("        _ks.wheel_jumps += _wj")
    emit("        _rule.queued = _queued")
    emit("        _rule.retired = _retired")
    emit("        _rule.changed_at = _at")
    emit("    return _ran")
    emit("")

    source = "\n".join(out)
    return Dispatch(source="\n".join(out + _listing(calls + hook_calls)),
                    code=compile(source, "<repro.hdl.compile>", "exec"))

