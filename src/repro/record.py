"""Per-op records: frozen, slotted dataclasses at plain-object cost.

Every op the coprocessor runs turns into a chain of immutable values, one
per pipeline stage of the paper's Fig. 4: a framed message (``Exec``,
``WriteReg``), its :class:`~repro.isa.encoding.Instruction`, the
decoder's ``DecodedOp``, the rename stage's ``RenamedOp``, the dispatch
port's ``DispatchSample``, the functional unit's ``FuComputation`` and
its ``Transfer`` grants, and the reply (``DataRecord``).  Each is built
once per op and compared whenever it is driven onto a signal, so their
construction and equality sit on every op's path.

:func:`record` declares such a value.  It is ``dataclass(frozen=True,
slots=True)`` with four generated methods replaced:

* ``__init__`` stores each field through its slot descriptor, without
  the per-field ``object.__setattr__`` a frozen dataclass pays;
* ``__eq__`` returns True on identity, ``NotImplemented`` for an object
  of another class, and otherwise compares the fields in order with
  ``==``, building no tuples;
* ``__setattr__`` and ``__delattr__`` raise ``FrozenInstanceError`` as a
  frozen dataclass's do: the ones ``dataclass`` generates on CPython 3.11
  still name the class it replaces when it adds slots, so assigning an
  attribute that is not a field would raise ``TypeError`` instead.

Everything else is the dataclass's own: frozenness (``FrozenInstanceError``),
``__hash__``, ``__repr__``, ``__match_args__``, ``dataclasses.replace``,
pickling and defaults.  Records of two classes are never equal, even with
equal fields (``WriteReg(3, 5) != DataRecord(3, 5)``), so a signal holding
a record sees a change of payload class as a change.  An instance keeps
its fields in slots only and never has a ``__dict__``.

Measured on CPython 3.11 (2-core VM, ``timeit``), an 8-field record
constructs in about 0.9 us against 1.6 us for ``dataclass(frozen=True)``
and 2.3 us for ``dataclass(frozen=True, slots=True)`` alone; a
``NamedTuple`` would be cheaper still but compares equal to any tuple of
the same values.

A record's fields take plain defaults only: ``default_factory``,
``init=False``, keyword-only fields and ``__post_init__`` are refused.
"""

from __future__ import annotations

import dataclasses
from typing import TypeVar

__all__ = ["record"]

T = TypeVar("T", bound=type)


def record(cls: T) -> T:
    """Declare ``cls`` a per-op record (see the module docstring)."""
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    for f in fields:
        if (not f.init or f.kw_only
                or f.default_factory is not dataclasses.MISSING):
            raise TypeError(f"record {cls.__qualname__}: field {f.name!r} "
                            f"must be a plain positional field")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"record {cls.__qualname__} has a __post_init__")
    names = [f.name for f in fields]
    env: dict = {"_cls": cls, "_fields": tuple(names),
                 "_Frozen": dataclasses.FrozenInstanceError}
    params = ["self"]
    stores = []
    for i, f in enumerate(fields):
        env[f"_set{i}"] = getattr(cls, f.name).__set__
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            env[f"_dflt{i}"] = f.default
            params.append(f"{f.name}=_dflt{i}")
        stores.append(f"    _set{i}(self, {f.name})")
    compare = " and ".join(f"self.{n} == other.{n}" for n in names) or "True"
    source = "\n".join([
        f"def __init__({', '.join(params)}):",
        *(stores or ["    pass"]),
        "def __eq__(self, other):",
        "    if self is other:",
        "        return True",
        "    if other.__class__ is not self.__class__:",
        "        return NotImplemented",
        f"    return {compare}",
        "def __setattr__(self, name, value):",
        "    if type(self) is _cls or name in _fields:",
        "        raise _Frozen(f'cannot assign to field {name!r}')",
        "    super(_cls, self).__setattr__(name, value)",
        "def __delattr__(self, name):",
        "    if type(self) is _cls or name in _fields:",
        "        raise _Frozen(f'cannot delete field {name!r}')",
        "    super(_cls, self).__delattr__(name)",
    ])
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), env)
    for name in ("__init__", "__eq__", "__setattr__", "__delattr__"):
        fn = env[name]
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        fn.__module__ = cls.__module__
        setattr(cls, name, fn)
    return cls
