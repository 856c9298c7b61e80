"""Source emission for the compiled backend.

Given the front end's per-process plans, this module emits one Python
module containing three functions:

* ``_sweep()`` — one rank-ordered, wake-driven pass over every
  combinational process.  Changed signals are drained from the pending
  list into per-slot wake flags through a fanout map (``_FAN`` → ``_W``);
  a flagged guard is polled inline (a tuple of hoisted ``._value`` loads
  compared against the last-run tuple) and only executed on a mismatch;
  translated bodies run as specialized ``_pN`` functions.  Processes
  without a provable closure follow the ranked section in *read-tracked
  slots*: a flagged slot runs its engine helper (``_tkN``), which records
  the signals the run read and adds them to ``_FAN``.  ``always=True``
  processes (and runtime demotions, appended to ``_ALW`` by the engine)
  run unconditionally at the end.  A final drain follows, and the sweep
  returns ``(runs, more)`` where ``more`` says a drain raised a flag the
  sweep had already passed: the settle loop's "queue not empty" test.
  ``_drain()`` is the same drain on its own, run at settle entry: a
  settle whose pending changes wake no slot is quiescent.
* ``_edge()`` — the fused sequential/commit phase: guarded sequential
  processes with event-kernel dormancy semantics (run iff the last run
  staged something or a polled read changed), dynamic pure processes via
  engine helpers, unconditional impure fallbacks, vectorized executors,
  then an inlined atomic commit of the staged registers.  Returns
  ``(runs, vector_applied)``.
* ``_scan_seq()`` — True when any *non-wheeled* sequential process would
  run on the next edge; the engine's time-wheel scan vetoes jumps on it.

The module is ``exec``-compiled once per system into a namespace holding
the hoisted objects (``_h<n>`` signals and owners), guard state lists,
fallback functions and a handful of kernel internals (``_CH`` the change
tracker, ``_U`` the unset sentinel, ``_SL`` the staged-register list,
``_CHG`` the simulator's pending list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["CombPlan", "SeqPlan", "Hoister", "GeneratedModule", "generate"]

#: guard sentinel: never equal to any value tuple, so the first poll runs
_NEVER = (object(),)


class Hoister:
    """Allocates stable generated-module names for live Python objects."""

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self.objects: dict[str, Any] = {}
        self._n = 0

    def __call__(self, obj: Any) -> str:
        name = self._names.get(id(obj))
        if name is None:
            name = f"_h{self._n}"
            self._n += 1
            self._names[id(obj)] = name
            self.objects[name] = obj
        return name


@dataclass
class CombPlan:
    """Execution plan for one combinational process."""

    fn: Callable[[], None]
    index: int
    #: "translated" | "guarded" | "tracked" (no provable closure: a
    #: read-tracked wake slot) | "always" (declared ``always=True``)
    kind: str
    wheeled: bool
    guard_sigs: list = field(default_factory=list)
    guard_hidden: list = field(default_factory=list)  # (owner, attr, mode)
    #: signals read inside property getters on the navigation path: part
    #: of the wake set, not the poll tuple (see frontend.guard_reads)
    wake_sigs: list = field(default_factory=list)
    body: Optional[list] = None  # translated lines
    rank: int = 0
    #: position in the wake-flag list (assigned by :func:`generate`)
    slot: int = -1


@dataclass
class SeqPlan:
    """Execution plan for one sequential process."""

    fn: Callable[[], None]
    index: int
    #: "translated" | "guarded" | "dynamic" | "always"
    kind: str
    wheeled: bool
    guard_sigs: list = field(default_factory=list)
    guard_hidden: list = field(default_factory=list)
    body: Optional[list] = None


@dataclass
class GeneratedModule:
    """The exec-compiled module plus the state the engine must manage."""

    source: str
    sweep: Callable[[], tuple]
    drain: Callable[[], bool]
    edge: Callable[[], tuple]
    scan_seq: Callable[[], bool]
    guards: list  # guard state lists, reset to re-run everything
    wake: list  # per-slot wake flags; set all True to force re-polls
    fanout: dict  # signal -> wake slots; read-tracked slots grow it
    every: list  # functions run on every sweep (``_ALW``)


def _guard_tuple(plan: Any, hoist: Hoister) -> str:
    parts = [f"{hoist(s)}._value" for s in plan.guard_sigs]
    for owner, attr, mode in plan.guard_hidden:
        load = f"{hoist(owner)}.{attr}"
        parts.append(load if mode == "value" else f"_snap({load})")
    if not parts:
        return "()"
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def generate(
    comb: list[CombPlan],
    seq: list[SeqPlan],
    executors: list,
    hoist: Hoister,
    namespace: dict,
    dynamic_runs: dict,
    dynamic_scans: dict,
    tracked_runs: dict,
) -> GeneratedModule:
    """Emit, compile and wire the specialized module.

    ``namespace`` must already contain ``_CH``, ``_U``, ``_SL`` and
    ``_CHG``; hoisted objects, guard lists, fallbacks, executor methods
    and the engine helpers (``dynamic_runs``/``dynamic_scans`` keyed by
    seq plan index, ``tracked_runs`` by comb plan index) are installed
    here.
    """
    out: list[str] = []
    emit = out.append
    guards: list = []

    # specialized process bodies
    for p in comb:
        if p.kind == "translated" and p.body is not None:
            emit(f"def _p{p.index}():")
            for line in p.body:
                emit("    " + line)
            emit("")
    for s in seq:
        if s.kind == "translated" and s.body is not None:
            emit(f"def _e{s.index}():")
            for line in s.body:
                emit("    " + line)
            emit("")

    # -- settle sweep ---------------------------------------------------------
    # The sweep is wake-driven, mirroring the event kernel's notification
    # queue with static dispatch: every signal in a guard's wake set maps
    # (via _FAN) to the guard's slot in the _W flag list, the drains
    # convert the pending changed-signal list into raised flags, and only
    # flagged slots run.  Draining again at each rank boundary lets a
    # whole forward cascade complete in a single sweep.  A flag raised for
    # a slot the sweep has already passed sets _more: the queue is not
    # empty, so the settle loop sweeps again.
    ordered = sorted(
        (p for p in comb if p.kind in ("translated", "guarded")),
        key=lambda p: (p.rank, p.index),
    )
    tracked = [p for p in comb if p.kind == "tracked"]
    n_slots = len(ordered) + len(tracked)
    wake: list = [True] * n_slots
    fanout: dict = {}
    every: list = [p.fn for p in comb if p.kind == "always"]
    namespace["_W"] = wake
    namespace["_FAN"] = fanout
    namespace["_ALW"] = every

    def emit_drain(passed: int) -> None:
        # inlined at each slot-group boundary: the truthiness test keeps
        # an empty drain at one bytecode op instead of a function call;
        # ``passed`` is the number of slots the sweep has gone by
        if passed >= n_slots:
            behind = "_more = True"
        elif passed:
            behind = f"if _k < {passed}: _more = True"
        else:
            behind = ""
        emit("    if _CHG:")
        emit("        for _s in _CHG:")
        emit("            _f = _FAN.get(_s)")
        emit("            if _f is not None:")
        emit("                for _k in _f:")
        emit("                    _W[_k] = True")
        if behind:
            emit("                    " + behind)
        emit("        del _CHG[:]")

    emit("def _sweep():")
    emit("    _ran = 0")
    emit("    _more = False")
    for k, _ex in enumerate(executors):
        emit(f"    if _x{k}_settle():")
        emit("        _ran += 1")
    last_rank: Optional[int] = None
    for pos, p in enumerate(ordered):
        p.slot = pos
        g = f"_g{p.index}"
        state: list = [_NEVER]
        guards.append(state)
        namespace[g] = state
        call = f"_p{p.index}()" if p.kind == "translated" else f"_f{p.index}()"
        if p.kind == "guarded":
            namespace[f"_f{p.index}"] = p.fn
        if p.rank != last_rank:
            emit_drain(pos)
            last_rank = p.rank
        wake_set = set(p.guard_sigs) | set(p.wake_sigs)
        if wake_set:
            for sig in wake_set:
                fanout.setdefault(sig, []).append(pos)
            emit(f"    if _W[{pos}]:")
            emit(f"        _W[{pos}] = False")
            ind = "    "
        else:
            # no signal can wake this guard (hidden-only inputs): poll
            # it on every sweep, and clear the flag a forced re-poll
            # raised so it never reads as pending work
            emit(f"    _W[{pos}] = False")
            ind = ""
        emit(f"    {ind}_t = {_guard_tuple(p, hoist)}")
        emit(f"    {ind}if _t != {g}[0]:")
        emit(f"        {ind}{g}[0] = _t")
        emit(f"        {ind}{call}")
        emit(f"        {ind}_ran += 1")
    for pos, p in enumerate(tracked, start=len(ordered)):
        p.slot = pos
        namespace[f"_tk{p.index}"] = tracked_runs[p.index]
        emit_drain(pos)
        emit(f"    if _W[{pos}]:")
        emit(f"        _W[{pos}] = False")
        emit(f"        _ran += _tk{p.index}()")
    emit("    if _ALW:")
    emit("        for _a in _ALW:")
    emit("            _a()")
    emit("        _ran += len(_ALW)")
    emit_drain(n_slots)
    emit("    return _ran, _more")
    emit("")
    # the settle entry drain: True when a pending change woke any slot
    emit("def _drain():")
    emit("    _more = False")
    emit_drain(n_slots)
    emit("    return _more")
    emit("")

    # -- edge phase -----------------------------------------------------------
    emit("def _edge():")
    emit("    _ran = 0")
    for s in seq:
        if s.kind in ("translated", "guarded"):
            g = f"_s{s.index}"
            state = [_NEVER, True]
            guards.append(state)
            namespace[g] = state
            call = f"_e{s.index}()" if s.kind == "translated" else f"_q{s.index}()"
            if s.kind == "guarded":
                namespace[f"_q{s.index}"] = s.fn
            emit(f"    _t = {_guard_tuple(s, hoist)}")
            emit(f"    if {g}[1] or _t != {g}[0]:")
            emit(f"        {g}[0] = _t")
            emit("        _n0 = _CH.stages")
            emit(f"        {call}")
            emit(f"        {g}[1] = _n0 != _CH.stages")
            emit("        _ran += 1")
        elif s.kind == "dynamic":
            namespace[f"_d{s.index}"] = dynamic_runs[s.index]
            emit(f"    _ran += _d{s.index}()")
        else:  # always
            namespace[f"_q{s.index}"] = s.fn
            emit(f"    _q{s.index}()")
            emit("    _ran += 1")
    emit("    _vec = False")
    for k, _ex in enumerate(executors):
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
    emit("def _scan_seq():")
    body_emitted = False
    for s in seq:
        if s.wheeled:
            continue
        if s.kind in ("translated", "guarded"):
            g = f"_s{s.index}"
            emit(f"    if {g}[1] or {_guard_tuple(s, hoist)} != {g}[0]:")
            emit("        return True")
            body_emitted = True
        elif s.kind == "dynamic":
            namespace[f"_dw{s.index}"] = dynamic_scans[s.index]
            emit(f"    if _dw{s.index}():")
            emit("        return True")
            body_emitted = True
        # "always" processes veto in the engine before _scan_seq is called
    if not body_emitted:
        emit("    pass")
    emit("    return False")
    emit("")

    for k, ex in enumerate(executors):
        namespace[f"_x{k}_settle"] = ex.settle
        namespace[f"_x{k}_edge"] = ex.edge

    namespace.update(hoist.objects)
    source = "\n".join(out)
    code = compile(source, "<repro.hdl.compile>", "exec")
    exec(code, namespace)
    return GeneratedModule(
        source=source,
        sweep=namespace["_sweep"],
        drain=namespace["_drain"],
        edge=namespace["_edge"],
        scan_seq=namespace["_scan_seq"],
        guards=guards,
        wake=wake,
        fanout=fanout,
        every=every,
    )


def reset_guards(guards: list) -> None:
    """Force every guard to mismatch (and every seq process to re-arm)."""
    for state in guards:
        state[0] = _NEVER
        if len(state) > 1:
            state[1] = True

