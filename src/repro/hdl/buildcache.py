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
  slots, and the generated module's code object by its source text.

A miss computes exactly what an uncached build computes and stores it; a
hit returns the stored object, and the consumer binds it to the fresh
instances on the same path a miss takes.

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
  value of every global (or builtin) name its code loads, a module global
  with the names the code loads from it; a bound method is its function
  and receiver, a ``functools.partial`` its function and arguments;
* a class is its identity plus the identity of every value in the
  ``__dict__`` of each class in its MRO, so a monkeypatched helper misses;
* a callable defined in C (a builtin, a numpy dispatcher, a
  cached-function wrapper) is pinned by identity: what it computes is
  taken to depend on its arguments only;
* any other object is its class plus its slots and its instance
  attributes, sorted by name (read without touching ``__dict__`` where
  that would slow the object down, see :func:`_attributes`);
* an object met a second time is a back-reference, so sharing and cycles
  are part of the key.

A design is *uncacheable* when the reduction meets something it cannot
represent exactly: a non-callable object whose class keeps state in C (a
lock, an iterator, a generator, a ``bytes`` value), a reachable simulator,
a set of objects not seen elsewhere, an object array or an array view, or
a reduction longer than :data:`MAX_ATOMS`.  It is then built fresh and
counted, never guessed.  A class helper is pinned by identity only: its
own globals are not followed (a process body's are), and a container
held as a class attribute is not followed either.

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
import gc
import struct
import sys
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, TypeVar

from .signal import Reg, Signal
from .sim import Simulator

__all__ = ["BOUND", "MAX_ATOMS", "CacheStats", "DesignKey", "cached", "clear",
           "design_key", "stats"]

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
_POINTER = struct.calcsize("P")


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

_ABSENT = _Tag("absent")

#: code object -> every name it (or a code object nested in it) loads
_NAMES: dict[types.CodeType, tuple[str, ...]] = {}

#: reading attributes by name keeps them inline (see :func:`_attributes`)
_INLINE = (3, 11) <= sys.version_info[:2] < (3, 13)

#: class -> every instance attribute name its reduced instances held,
#: sorted
_LEARNED: dict[type, tuple[str, ...]] = {}

#: class -> every name its methods mention that none of its classes defines
_MENTIONED: dict[type, tuple[str, ...]] = {}

#: class -> the attribute names of its slots, or None when an instance
#: keeps state the reduction cannot read (a base defined in C)
_SLOTS: dict[type, Optional[tuple[str, ...]]] = {}


def _loaded_names(code: types.CodeType) -> tuple[str, ...]:
    names = _NAMES.get(code)
    if names is None:
        found: list[str] = []
        stack = [code]
        while stack:
            c = stack.pop()
            found.extend(c.co_names)
            stack.extend(k for k in c.co_consts if type(k) is types.CodeType)
        names = _NAMES[code] = tuple(dict.fromkeys(found))
    return names


def _own_slots(cls: type) -> tuple[str, ...]:
    declared = cls.__dict__.get("__slots__", ())
    if isinstance(declared, str):
        declared = (declared,)
    return tuple(s for s in declared if s not in ("__dict__", "__weakref__"))


def _python_layout(cls: type) -> bool:
    """True when an instance keeps no state outside its ``__dict__`` and
    slots: along the layout chain (``__base__``), every class's instance
    size is its base's plus its slots and its dict and weakref pointers."""
    while cls is not object:
        base = cls.__base__
        extra = cls.__basicsize__ - base.__basicsize__
        extra -= _POINTER * len(_own_slots(cls))
        if cls.__dictoffset__ > 0 and not base.__dictoffset__:
            extra -= _POINTER
        if cls.__weakrefoffset__ > 0 and not base.__weakrefoffset__:
            extra -= _POINTER
        if extra or cls.__itemsize__:
            return False
        cls = base
    return True


def _attributes(obj: Any, cls: type, slot_values: list) -> list[tuple[str, Any]]:
    """``obj``'s instance attributes as (name, value) pairs, sorted by name.

    On CPython 3.11 and 3.12 an instance keeps its attributes inline until
    its ``__dict__`` is first read, and reading it makes every later
    attribute load on that object about twice as slow: a key taken that
    way would slow the simulation of the very design it keys.  There the
    attributes are read by name instead, trying the names the class's
    instances held before, then every name the class's methods mention.  A
    try counts only when the values read, the slot values and the class
    are exactly the objects the garbage collector sees the instance hold,
    so no attribute is missed; the ``__dict__`` is read only when no try
    matches, or when the collector shows it was read before (the compiled
    backend's specializer reads it on every structural path).
    """
    if _INLINE and cls.__getattribute__ is object.__getattribute__ \
            and not hasattr(cls, "__getattr__"):
        refs = gc.get_referents(obj)
        items = _present(obj, _LEARNED.get(cls, ()))
        if _holds(items, slot_values, cls, refs):
            return items
        # a dict among the referents is the ``__dict__`` something else
        # already read, unless the one attribute held is a dict
        read = (len(refs) == len(slot_values) + 2
                and any(type(ref) is dict for ref in refs))
        if not read:
            items = _present(obj, _mentioned(cls))
            if _holds(items, slot_values, cls, refs):
                _learn(cls, [name for name, _ in items])
                return items
    attrs = object.__getattribute__(obj, "__dict__")
    _learn(cls, attrs)
    return sorted(attrs.items(), key=lambda item: item[0])


def _learn(cls: type, names: Iterable[str]) -> None:
    """Add ``names`` to the attribute names tried first on ``cls``: one
    try then covers every attribute set its instances have shown."""
    _LEARNED[cls] = tuple(sorted({*_LEARNED.get(cls, ()), *names}))


def _present(obj: Any, names: tuple[str, ...]) -> list[tuple[str, Any]]:
    return [(name, value) for name in names
            if (value := getattr(obj, name, _ABSENT)) is not _ABSENT]


def _holds(items: list, slot_values: list, cls: type, refs: list) -> bool:
    """True when ``items``, ``slot_values`` and ``cls`` are exactly the
    objects in ``refs`` (an instance's referents), counted with repeats."""
    if len(items) + len(slot_values) + 1 != len(refs):
        return False
    seen = [id(value) for _, value in items]
    seen.extend(map(id, slot_values))
    seen.append(id(cls))
    seen.sort()
    return seen == sorted(map(id, refs))


def _mentioned(cls: type) -> tuple[str, ...]:
    """Every name the methods of ``cls`` load or store, sorted, except
    the names its classes define (an instance attribute there cannot be
    told from the class attribute by reading it)."""
    names = _MENTIONED.get(cls)
    if names is None:
        defined: set[str] = set()
        found: dict[str, None] = {}
        for c in cls.__mro__:
            defined.update(c.__dict__)
            for value in c.__dict__.values():
                code = getattr(value, "__code__", None)
                if type(code) is types.CodeType:
                    found.update(dict.fromkeys(_loaded_names(code)))
        names = _MENTIONED[cls] = tuple(sorted(n for n in found
                                               if n not in defined))
    return names


def _slot_names(cls: type) -> Optional[tuple[str, ...]]:
    """The attribute names of every slot an instance of ``cls`` has, or
    None when the instance also keeps state in C."""
    if cls in _SLOTS:
        return _SLOTS[cls]
    names: Optional[tuple[str, ...]] = None
    if _python_layout(cls):
        names = ()
        for c in cls.__mro__:
            for s in _own_slots(c):
                if s.startswith("__") and not s.endswith("__"):
                    s = f"_{c.__name__.lstrip('_')}{s}"
                names += (s,)
    _SLOTS[cls] = names
    return names


@dataclass(frozen=True)
class DesignKey:
    """The exact reduction of a design (see the module docstring)."""

    flat: tuple
    #: objects whose ``id()`` the key holds, kept alive while it is stored
    #: so that no other object can take their ids
    pins: list = field(compare=False, hash=False, repr=False)


def design_key(*roots: Any) -> Optional[DesignKey]:
    """The key of everything reachable from ``roots``, or None when the
    design is uncacheable."""
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
            for c in obj.__mro__:
                if c.__flags__ & _HEAPTYPE:
                    d = c.__dict__
                    values = tuple(d.values())
                    pins.append(values)
                    emit(c)
                    emit(tuple(d))
                    emit(tuple(map(id, values)))
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
        elif isinstance(obj, Simulator):
            raise Uncacheable("a simulator is reachable from the design")
        elif (slots := _slot_names(t)) is None:
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
            values = []
            for s in slots:
                try:
                    v = object.__getattribute__(obj, s)
                except AttributeError:
                    emit(_ABSENT)
                else:
                    values.append(v)
                    red(v)
            if t.__dictoffset__:
                items = _attributes(obj, t, values)
                emit(len(items))
                for name, v in items:
                    emit(name)
                    red(v)
            else:
                emit(_ABSENT)

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
        names = _loaded_names(code)
        g = fn.__globals__
        b = fn.__builtins__
        for name in names:
            v = g.get(name, _ABSENT)
            if v is _ABSENT:
                v = b.get(name, _ABSENT)
                if v is _ABSENT:
                    continue
            emit(name)
            red(v)
            if type(v) is types.ModuleType:
                # what ``module.attr`` loads in the body
                attrs = v.__dict__
                for attr in names:
                    a = attrs.get(attr, _ABSENT)
                    if a is not _ABSENT:
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

_store: collections.OrderedDict = collections.OrderedDict()


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
        value = _store.get(slot, _ABSENT)
        if value is _ABSENT:
            outcome = "miss"
            stats.misses += 1
            value = _store[slot] = build()
            if len(_store) > BOUND:
                _store.popitem(last=False)
        else:
            outcome = "hit"
            stats.hits += 1
            _store.move_to_end(slot)
    if sim is not None:
        sim.build_cache[consumer] = outcome
    return value


def clear() -> None:
    """Empty the store and zero :data:`stats`."""
    _store.clear()
    stats.hits = stats.misses = stats.uncacheable = 0
