"""Build cache: each design's set-up analysis, computed once per process.

The same design is elaborated many times with nothing changed: every
``SystemSpec.build()`` of one spec, every timed set-up of a benchmark, every
test that rebuilds a preset.  Like a bitstream synthesized once per
configuration, the two costly set-up analyses are a pure function of the
elaborated design, so each is kept here once per design:

* ``"lint"`` — the whole :class:`~repro.analysis.lint.LintReport` of
  :meth:`~repro.analysis.lint.Linter.lint` (it holds only path strings);
* ``"compile"`` — the compiled backend's layout
  (:class:`~repro.hdl.compile.engine.CompiledSimulator`): each process's
  placement with its wake set as signal indices, the ranks of the comb
  slots, each specialized body's template with its hoisted objects as
  signal indices (or, for another object, the template's path to it),
  and the dispatch module's source and code.

A miss computes exactly what an uncached build computes and stores it; a
hit returns the stored object, and the consumer binds it to the fresh
instances on the same path a miss takes.  A layout holds no object of
the design it was computed on: a build binds the fresh signals by index,
walks the few other paths, instantiates each body over the fresh
process's closure and loads the stored code into a fresh namespace.

The key
-------
:func:`design_key` reduces everything reachable from its roots (the top
component, the simulator's class and view, the consumer's options) into
one flat tuple.  Two keys match only by exact equality of that tuple, and
the reduction is exact and cycle-safe:

* an int, str, bool, float or None is its value (``True`` is not ``1``,
  a float is its ``hex()``); an enum member is its class and name;
* a signal is its class, path, width, reset value, current value, staged
  value and owner;
* a list, tuple, dict, deque, set or numpy array is its contents (dtype,
  shape, strides and bytes for an array);
* a function is its code object, name, defaults, closure cells and the
  value of every global (or builtin) name its code loads
  (:func:`~repro.hdl.live.globals_loaded`), a module global with the
  names the code loads from it; a bound method is its function
  and receiver, a ``functools.partial`` its function and arguments;
* a class is its identity, the identity of every value in its own
  ``__dict__`` and the reduction of each of its bases, so a monkeypatched
  helper misses wherever in the MRO it sits (a base shared by many
  classes is reduced once, then back-referenced);
* a callable defined in C (a builtin, a numpy dispatcher, a
  cached-function wrapper) is pinned by identity: what it computes is
  taken to depend on its arguments only;
* any other object is its class plus what it holds itself, its slots
  and its instance attributes sorted by name
  (:func:`~repro.hdl.live.attributes`, read without touching
  ``__dict__`` where that would slow the object down);
* a :class:`~repro.hdl.sim.SimClock` is one atom: it reads a simulator's
  cycle count, which no set-up analysis depends on;
* an object met a second time is a back-reference, so sharing and cycles
  are part of the key.

The shared key
--------------
:meth:`SystemSpec.build <repro.system.SystemSpec.build>` runs a fixed
sequence: construct the simulator, ``reset()``, bind the state domain's
clock, lint.  A compiled simulator takes its key at construction
(``sim.design_key``), and what follows is a function of what that key
pins: reset runs the design's own processes and reset hooks, and the
clock is one atom.  The compiled kernel's view of the design
(``discovered_dependencies``) is ``(type, wheel, False, [], [])``, and the
key pins type and wheel.  So the builder's lint (``as_built=True``) keys
its report on :func:`extend` of that key with the rule selection and
``probe``, and a warm compiled build digests the design once.  Every
other lint, and every event build, digests the design as it is then; an
uncacheable construction key stays uncacheable for its lint too.

A design is *uncacheable* when the reduction meets something it cannot
represent exactly: a non-callable object whose class keeps state in C (a
lock, an iterator, a generator, a ``bytes`` value), a reachable simulator,
a set of objects not seen elsewhere, an object array or an array view, or
a reduction longer than :data:`MAX_ATOMS`.  It is then built fresh and
counted, never guessed.  A class helper is pinned by identity only: its
own globals are not followed (a process body's are), and a container
held as a class attribute is not followed either.  Under the shared key
this hole reaches the builder's lint report too: a reset hook or a
process that computes its reset value through such a helper from a
module global is keyed by the helper alone.

Counters
--------
:data:`stats` counts ``hits``, ``misses`` and ``uncacheable`` lookups
process-wide.  Each simulator records what the cache did for its design in
:attr:`Simulator.build_cache <repro.hdl.sim.Simulator.build_cache>`:
consumer (``"compile"``, ``"lint"``) → ``"hit"`` | ``"miss"`` |
``"uncacheable"``.  Neither is a kernel counter, so ``counters_for`` and
the benchmark's counter gates do not see them.

The store keeps at most :data:`BOUND` entries, least recently used evicted
first.  :func:`clear` empties it and zeroes :data:`stats`; tests call it
to measure a cold build, as they reset ``frontend._TEMPLATES``.
"""

from __future__ import annotations

import collections
import enum
import functools
import sys
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, TypeVar

from .live import MISSING, attributes, code_names, globals_loaded
from .signal import Reg, Signal
from .sim import SimClock, Simulator

__all__ = ["BOUND", "MAX_ATOMS", "CacheStats", "DesignKey", "cached", "clear",
           "design_key", "extend", "stats"]

T = TypeVar("T")

#: entries the store keeps (each holds a key of a few thousand atoms)
BOUND = 64

#: a reduction longer than this is abandoned and the design counted as
#: uncacheable: the digest costs about 0.3 us an atom, and a design this
#: large analyses cheaply next to it (a 10,000-cell vectorized xi-sort
#: array reduces to 1.1M atoms, whose digest took twice its whole build);
#: the 256-cell smart-memory system takes 12k
MAX_ATOMS = 100_000

_HEAPTYPE = 1 << 9  # Py_TPFLAGS_HEAPTYPE: not a static C type


class Uncacheable(Exception):
    """The reduction met an object it cannot represent exactly."""


class _Tag:
    """A marker in the flat key; compares by identity, never equal to data."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"<{self.name}>"


(_REF, _TRUE, _FALSE, _FLOAT, _LIST, _TUPLE, _DICT, _SET, _FROZENSET, _DEQUE,
 _SIGNAL, _FUNC, _CELL, _EMPTY, _METHOD, _BUILTIN, _BOUND, _PARTIAL, _MODULE,
 _TYPE, _END, _ENUM, _IDENT, _ARRAY, _DTYPE, _NATIVE, _OBJ) = (
    _Tag(n) for n in (
        "ref", "true", "false", "float", "list", "tuple", "dict", "set",
        "frozenset", "deque", "signal", "function", "cell", "empty", "method",
        "builtin", "bound", "partial", "module", "type", "end", "enum",
        "ident", "array", "dtype", "native", "object"))

_CLOCK = _Tag("clock")
_EXTENDED = _Tag("extended")


@dataclass(frozen=True, eq=False)
class DesignKey:
    """The exact reduction of a design (see the module docstring); its
    hash is taken once."""

    flat: tuple
    #: objects whose ``id()`` the key holds, kept alive while it is stored
    #: so that no other object can take their ids
    pins: list = field(repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.flat))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (type(other) is DesignKey and self._hash == other._hash
                and self.flat == other.flat)


def design_key(*roots: Any) -> Optional[DesignKey]:
    """The key of everything reachable from ``roots``, or None when the
    design is uncacheable."""
    return _reduce(roots)


def extend(key: Optional[DesignKey], *roots: Any) -> Optional[DesignKey]:
    """``key`` followed by the reduction of ``roots`` (a consumer's own
    options), without digesting the design again; None stays None, and
    so does an irreducible option (see "The shared key")."""
    if key is None:
        return None
    more = _reduce(roots)
    if more is None:
        return None
    return DesignKey((_EXTENDED, key, more.flat), more.pins)


def _reduce(roots: tuple) -> Optional[DesignKey]:
    out: list = []
    emit = out.append
    memo: dict[int, int] = {}
    alive: list = []  # every memoized object, so no id is reused mid-walk
    pins: list = []
    np = sys.modules.get("numpy")

    def red(obj: Any) -> None:
        t = type(obj)
        if t is int or t is str or obj is None:
            emit(obj)
            return
        if t is bool:
            emit(_TRUE if obj else _FALSE)
            return
        if t is float:
            emit(_FLOAT)
            emit(obj.hex())
            return
        k = memo.get(id(obj))
        if k is not None:
            emit(_REF)
            emit(k)
            return
        memo[id(obj)] = len(alive)
        alive.append(obj)
        if t is list or t is tuple:
            emit(_LIST if t is list else _TUPLE)
            emit(len(obj))
            for x in obj:
                red(x)
        elif t is dict:
            emit(_DICT)
            emit(len(obj))
            for x, y in obj.items():
                red(x)
                red(y)
        elif t is Signal or t is Reg:
            emit(_SIGNAL)
            emit(t)
            emit(obj.name)
            emit(obj.width)
            red(obj.reset)
            red(obj._value)
            if t is Reg:
                red(obj._staged)
            red(obj.owner)
        elif t is types.MethodType:
            emit(_METHOD)
            red(obj.__func__)
            red(obj.__self__)
        elif t is types.FunctionType:
            function(obj)
        elif t is types.CellType:
            emit(_CELL)
            try:
                contents = obj.cell_contents
            except ValueError:
                emit(_EMPTY)
            else:
                red(contents)
        elif isinstance(obj, type):
            emit(_TYPE)
            emit(obj)
            if obj.__flags__ & _HEAPTYPE:
                d = obj.__dict__
                values = tuple(d.values())
                pins.append(values)
                emit(tuple(d))
                emit(tuple(map(id, values)))
                # a base shared by many classes is reduced once; a repeat
                # is a back-reference through the memo
                for base in obj.__bases__:
                    red(base)
            emit(_END)
        elif isinstance(obj, enum.Enum):
            emit(_ENUM)
            red(t)
            emit(obj._name_)
        elif t is types.BuiltinFunctionType or t is types.MethodWrapperType:
            owner = obj.__self__
            if owner is None or type(owner) is types.ModuleType:
                emit(_BUILTIN)
                emit(obj)
            else:
                emit(_BOUND)
                emit(obj.__name__)
                red(owner)
        elif t is types.ModuleType:
            emit(_MODULE)
            emit(obj)
        elif t is object:
            emit(_IDENT)
            emit(obj)
        elif t is collections.deque:
            emit(_DEQUE)
            emit(obj.maxlen)
            emit(len(obj))
            for x in obj:
                red(x)
        elif t is set or t is frozenset:
            emit(_SET if t is set else _FROZENSET)
            emit(tuple(sorted(map(member, obj))))
        elif t is functools.partial:
            emit(_PARTIAL)
            red(obj.func)
            red(obj.args)
            red(obj.keywords)
            red(obj.__dict__)
        elif np is not None and isinstance(obj, np.dtype):
            emit(_DTYPE)
            emit(obj)
        elif np is not None and t is np.ndarray:
            if obj.dtype.hasobject or obj.base is not None:
                raise Uncacheable("an object array or an array view")
            emit(_ARRAY)
            emit(obj.dtype)
            emit(obj.shape)
            emit(obj.strides)
            emit(bool(obj.flags.writeable))
            emit(obj.tobytes())
        elif t is SimClock:
            emit(_CLOCK)
        elif isinstance(obj, Simulator):
            raise Uncacheable("a simulator is reachable from the design")
        elif (items := attributes(obj)) is None:
            if not callable(obj):
                raise Uncacheable(f"{t.__qualname__} keeps state defined in C")
            emit(_NATIVE)
            emit(id(obj))
            pins.append(obj)
        else:
            if len(out) > MAX_ATOMS:
                raise Uncacheable("the reduction outgrew MAX_ATOMS")
            emit(_OBJ)
            red(t)
            emit(len(items))
            for name, v in items:
                emit(name)
                red(v)

    def function(fn: types.FunctionType) -> None:
        code = fn.__code__
        emit(_FUNC)
        emit(code)
        emit(fn.__name__)
        emit(fn.__qualname__)
        red(fn.__defaults__)
        red(fn.__kwdefaults__)
        red(fn.__closure__)
        red(fn.__dict__)
        names = code_names(code)
        for name, v in globals_loaded(fn, names):
            emit(name)
            red(v)
            if type(v) is types.ModuleType:
                # what ``module.attr`` loads in the body
                attrs = v.__dict__
                for attr in names:
                    a = attrs.get(attr, MISSING)
                    if a is not MISSING:
                        emit(attr)
                        red(a)
                emit(_END)
        emit(_END)

    def member(x: Any) -> tuple:
        """A set element's sort key: its value, or the back-reference of an
        object already reduced elsewhere (set order is not stable)."""
        t = type(x)
        if t is int:
            return (0, x)
        if t is str:
            return (1, x)
        if x is None or t is bool:
            return (2, int(x or 0), x is None)
        if t is float:
            return (3, x.hex())
        if isinstance(x, enum.Enum):
            red(t)
            pins.append(x)
            return (4, id(x))
        k = memo.get(id(x))
        if k is None:
            raise Uncacheable("a set holds an object reachable only through it")
        return (5, k)

    try:
        for root in roots:
            red(root)
    except Uncacheable:
        return None
    except RecursionError:
        return None
    return DesignKey(tuple(out), pins)


@dataclass
class CacheStats:
    """Process-wide build-cache lookups (see the module docstring)."""

    hits: int = 0
    misses: int = 0
    #: lookups whose design the reduction could not represent exactly
    uncacheable: int = 0


#: the process-wide lookup counts
stats = CacheStats()

#: (consumer, key) -> stored result, least recently used first
_store: dict = {}


def cached(consumer: str, key: Optional[DesignKey], build: Callable[[], T],
           sim: Optional[Simulator] = None) -> T:
    """``consumer``'s stored result for the design ``key`` names, built by
    ``build()`` on a miss; ``key=None`` (uncacheable) always builds.

    The outcome is counted in :data:`stats` and, given the simulator of
    the design, recorded in its ``build_cache``.
    """
    if key is None:
        outcome = "uncacheable"
        stats.uncacheable += 1
        value = build()
    else:
        slot = (consumer, key)
        # taken out and put back at the end: the store stays in LRU order
        value = _store.pop(slot, MISSING)
        if value is MISSING:
            outcome = "miss"
            stats.misses += 1
            value = build()
        else:
            outcome = "hit"
            stats.hits += 1
        _store[slot] = value
        if len(_store) > BOUND:
            del _store[next(iter(_store))]
    if sim is not None:
        sim.build_cache[consumer] = outcome
    return value


def clear() -> None:
    """Empty the store and zero :data:`stats`."""
    _store.clear()
    stats.hits = stats.misses = stats.uncacheable = 0
