"""What a name or an attribute of a live object resolves to.

The lint engine's AST pass (:mod:`repro.analysis.lint.astpass`), the
compiled backend's specializer (:mod:`repro.hdl.compile.frontend`) and the
build cache's digest (:mod:`repro.hdl.buildcache`) all read process bodies
against the live objects they close over, and all ask this module:

* :func:`lookup` — what name ``N`` in function ``F`` resolves to.  The
  scope rule: the first positional parameter of a bound method is its
  receiver, whatever its name; any other parameter is its positional or
  keyword-only default, or nothing (a caller binding is the caller's to
  supply); a free variable is its closure cell, an empty cell nothing;
  any other name is a global of ``F``, then an entry of
  ``F.__builtins__``.
* :func:`load` — what the Python load ``obj.name`` gives now, properties
  included.
* :func:`own` and :func:`attributes` — what an instance holds itself (its
  slots and ``__dict__`` entries), read without materializing
  ``__dict__``.
* :func:`declared` — the rebind rule: an enum class fixes its members, a
  frozen dataclass its fields.

Each answers :data:`MISSING` for "no value".
"""

from __future__ import annotations

import enum
import gc
import operator
import struct
import sys
import types
from typing import Any, Callable, Iterable, Optional


#: the answer for a name without a value; compares by identity only
MISSING: Any = object()

#: value types that can never change in place
_SCALARS = (int, float, str, bool, type(None), enum.Enum)


# -- names ---------------------------------------------------------------------


def lookup(fn: Callable[..., Any], name: str) -> tuple[Any, str]:
    """``(value, where)`` for ``name`` in the scope of ``fn`` (a function
    or bound method) called with no arguments, by the module's scope rule;
    ``where`` is "receiver", "default", "parameter" (one without a
    default), "cell" or "global" (a builtin too)."""
    code = fn.__code__
    if name in code.co_freevars:
        try:
            return cell(fn, name).cell_contents, "cell"
        except ValueError:  # empty cell
            return MISSING, "cell"
    params = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    if name in params:
        k = params.index(name)
        if k < code.co_argcount:
            if k == 0 and getattr(fn, "__self__", None) is not None:
                return fn.__self__, "receiver"
            defaults = fn.__defaults__ or ()
            k -= code.co_argcount - len(defaults)
            if k >= 0:
                return defaults[k], "default"
        else:
            value = (fn.__kwdefaults__ or {}).get(name, MISSING)
            if value is not MISSING:
                return value, "default"
        return MISSING, "parameter"
    value = fn.__globals__.get(name, MISSING)
    if value is MISSING:
        value = fn.__builtins__.get(name, MISSING)
    return value, "global"


def cell(fn: Callable[..., Any], name: str) -> Optional[types.CellType]:
    """The closure cell of ``fn``'s free variable ``name``, or None."""
    code = fn.__code__
    if name not in code.co_freevars:
        return None
    return fn.__closure__[code.co_freevars.index(name)]


def globals_loaded(fn: Callable[..., Any],
                   names: Iterable[str]) -> list[tuple[str, Any]]:
    """``(name, value)`` of each of ``names`` that is a global or builtin
    of ``fn`` (the last step of :func:`lookup`), in order."""
    g, b, found = fn.__globals__, fn.__builtins__, []
    for name in names:
        value = g.get(name, MISSING)
        if value is MISSING:
            value = b.get(name, MISSING)
        if value is not MISSING:
            found.append((name, value))
    return found


#: code object -> every name it (or a code object nested in it) loads
_NAMES: dict[types.CodeType, tuple[str, ...]] = {}


def code_names(code: types.CodeType) -> tuple[str, ...]:
    """Every global or attribute name ``code`` and the code objects nested
    in it mention (``co_names``), each once."""
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


# -- attributes ----------------------------------------------------------------


def load(obj: Any, name: str) -> Any:
    """What ``obj.name`` gives now, or :data:`MISSING` if it raises."""
    try:
        return getattr(obj, name, MISSING)
    except Exception:
        return MISSING


def _immutable(value: Any) -> bool:
    """True for a value that can never change in place: a scalar, an enum
    member or a frozen dataclass."""
    if isinstance(value, _SCALARS):
        return True
    params = getattr(type(value), "__dataclass_params__", None)
    return params is not None and bool(params.frozen)


def is_enum_class(obj: Any) -> bool:
    return isinstance(obj, type) and issubclass(obj, enum.Enum)


def declared(owner: Any, name: str) -> Optional[tuple[Any, bool]]:
    """The rebind rule.  For an enum class (which fixes its members) or a
    frozen dataclass (its fields): ``(owner.name, fixed)``, :data:`MISSING`
    for a name it does not declare, ``fixed`` when no code can rebind the
    name and its value cannot change in place.  ``None`` for any other
    owner."""
    if isinstance(owner, type):
        if not issubclass(owner, enum.Enum):
            return None
        value = owner.__members__.get(name, MISSING)
    else:
        params = getattr(type(owner), "__dataclass_params__", None)
        if params is None or not params.frozen:
            return None
        value = (load(owner, name) if name in type(owner).__dataclass_fields__
                 else MISSING)
    return value, value is not MISSING and _immutable(value)


def own(obj: Any, name: str) -> Any:
    """What ``obj`` holds itself under ``name`` (a slot or a ``__dict__``
    entry, never a property), or :data:`MISSING`.  A name no class in the
    MRO defines can only come from the instance; a class attribute (a
    method, a class constant) counts only when the instance shadows it
    (see :func:`_shadowed`)."""
    cls = type(obj)
    attr = MISSING
    if getattr(cls, name, MISSING) is not MISSING:  # the type's lookup cache
        for c in cls.__mro__:  # not a name only the metaclass defines?
            attr = c.__dict__.get(name, MISSING)
            if attr is not MISSING:
                break
    if attr is not MISSING and _data_descriptor(attr):
        if type(attr) is not types.MemberDescriptorType \
                or name not in (_slot_names(cls) or ()):
            return MISSING
        attr = MISSING
    if attr is MISSING:
        try:
            return object.__getattribute__(obj, name)
        except AttributeError:
            return MISSING
    return _shadowed(obj, name, attr)


def attributes(obj: Any) -> Optional[list[tuple[str, Any]]]:
    """Everything ``obj`` holds itself, its set slots and ``__dict__``
    entries, as ``(name, value)`` pairs sorted by name; ``None`` when it
    also keeps state in C.

    On CPython 3.11 and 3.12 an instance keeps its attributes inline until
    its ``__dict__`` is first read, and reading it makes every later
    attribute load on that object about twice as slow: a digest taken that
    way would slow the simulation of the very design it keys.  There the
    attributes are read by name instead, trying the names the class's
    instances held before, then every name the class's methods mention.  A
    try counts only when the values read, the slot values and the class
    are exactly the objects the garbage collector sees the instance hold,
    so no attribute is missed; the ``__dict__`` is read only when no try
    matches, or when the collector shows it was read before.
    """
    cls = type(obj)
    slots = _slot_names(cls)
    if not slots:
        if slots is None:
            return None
        return _dict_items(obj, cls, []) if cls.__dictoffset__ else []
    items = []
    for s in slots:
        try:
            items.append((s, object.__getattribute__(obj, s)))
        except AttributeError:
            pass
    if cls.__dictoffset__:
        items += _dict_items(obj, cls, [value for _, value in items])
        items.sort(key=_first)
    return items


_first = operator.itemgetter(0)


#: reading attributes by name keeps them inline (see :func:`attributes`)
_INLINE = (3, 11) <= sys.version_info[:2] < (3, 13)

#: class -> every instance attribute name its instances held, sorted
_LEARNED: dict[type, tuple[str, ...]] = {}

#: class -> every name its methods mention that none of its classes defines
_MENTIONED: dict[type, tuple[str, ...]] = {}

#: class -> (name, attribute) of every name its classes define other than
#: as a data descriptor
_DEFINED: dict[type, tuple[tuple[str, Any], ...]] = {}

#: class -> the attribute names of its slots, or None when an instance
#: keeps state no attribute shows (a base defined in C)
_SLOTS: dict[type, Optional[tuple[str, ...]]] = {}

_POINTER = struct.calcsize("P")


def _dict_items(obj: Any, cls: type,
                slot_values: list) -> list[tuple[str, Any]]:
    """``obj``'s ``__dict__`` entries, sorted by name (see
    :func:`attributes`)."""
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
            names = _mentioned(cls)
            items = _present(obj, names)
            if not _holds(items, slot_values, cls, refs):
                # an instance attribute may shadow a class attribute
                items = _present(obj, tuple(sorted(names + tuple(
                    name for name, attr in _class_names(cls)
                    if _shadowed(obj, name, attr, refs) is not MISSING))))
            if _holds(items, slot_values, cls, refs):
                _learn(cls, [name for name, _ in items])
                return items
    attrs = object.__getattribute__(obj, "__dict__")
    _learn(cls, attrs)
    return sorted(attrs.items(), key=_first)


def _class_names(cls: type) -> tuple[tuple[str, Any], ...]:
    """(name, attribute) of each name the classes of ``cls`` define other
    than as a data descriptor (a property, a slot), which an instance
    attribute can never shadow."""
    names = _DEFINED.get(cls)
    if names is None:
        found: dict[str, Any] = {}
        for c in cls.__mro__:
            for name, attr in c.__dict__.items():
                found.setdefault(name, attr)
        names = _DEFINED[cls] = tuple(
            (name, attr) for name, attr in found.items()
            if not _data_descriptor(attr))
    return names


def _data_descriptor(attr: Any) -> bool:
    kind = type(attr)
    return hasattr(kind, "__set__") or hasattr(kind, "__delete__")


def _shadowed(obj: Any, name: str, attr: Any,
              refs: Optional[list] = None) -> Any:
    """``obj``'s instance attribute ``name``, where the class defines it as
    ``attr`` (no data descriptor), or :data:`MISSING`.  The value read by
    name counts when it is not the class constant ``attr``, or when the
    instance holds it itself: it is one of ``obj``'s referents ``refs``,
    or sits under ``name`` in a ``__dict__`` already among them.  What a
    method or other descriptor supplies is a fresh bound object, or one
    the class holds, never the instance."""
    try:
        value = object.__getattribute__(obj, name)
    except AttributeError:
        return MISSING
    if value is not attr and not hasattr(type(attr), "__get__"):
        return value
    if refs is None:
        refs = gc.get_referents(obj)
    for ref in refs:
        if ref is value or (type(ref) is dict
                            and ref.get(name, MISSING) is value):
            return value
    return MISSING


def _learn(cls: type, names: Iterable[str]) -> None:
    """Add ``names`` to the attribute names tried first on ``cls``: one
    try then covers every attribute set its instances have shown."""
    _LEARNED[cls] = tuple(sorted({*_LEARNED.get(cls, ()), *names}))


def _present(obj: Any, names: tuple[str, ...]) -> list[tuple[str, Any]]:
    return [(name, value) for name in names
            if (value := getattr(obj, name, MISSING)) is not MISSING]


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
                    found.update(dict.fromkeys(code_names(code)))
        names = _MENTIONED[cls] = tuple(sorted(n for n in found
                                               if n not in defined))
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


__all__ = ["MISSING", "attributes", "cell", "code_names", "declared",
           "globals_loaded", "is_enum_class", "load", "lookup", "own"]
