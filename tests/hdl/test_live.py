"""What a name or attribute of a live object resolves to, asked three ways.

:mod:`repro.hdl.live` owns the rules; the lint AST pass
(``astpass.resolve``), the compiled backend's ``Specializer.walk`` and the
build cache's digest (``buildcache.design_key``) all call it.  Each case
below states what each of the three gives for one edge of the rules:

* lint: the signals a process reads and whether its read set is complete;
* walk: the object a structural path reaches, and whether it is a
  rebind-proof constant;
* digest: whether the key moves when what the name resolves to moves.

Cases (a) to (d) are where the three used to disagree: a receiver not
named ``self``, a keyword-only default, an empty closure cell and a
callee parameter its caller leaves unbound.
"""

from __future__ import annotations

import enum
import types
from dataclasses import dataclass

from repro.analysis.lint.astpass import resolve
from repro.hdl import Signal, buildcache
from repro.hdl.compile.frontend import Specializer, hidden_loads_constant
from repro.hdl.live import MISSING, attributes, lookup, own


def walk(fn, *path):
    return Specializer([], [], [fn]).walk(fn, path)


def key(*roots):
    return buildcache.design_key(*roots).flat


# -- (a) a receiver not named ``self`` -----------------------------------------


class OddReceiver:
    def __init__(self):
        self.a = Signal("a", 4)
        self.y = Signal("y", 4)

    def drive(me):
        me.y.set(me.a.value)


def test_a_receiver_is_the_first_parameter_whatever_its_name():
    obj = OddReceiver()
    res = resolve(obj.drive)
    assert res.signal_reads == {obj.a}
    assert [w.targets for w in res.writes] == [(obj.y,)]
    assert res.read_complete and res.write_complete
    assert lookup(obj.drive, "me") == (obj, "receiver")
    assert walk(obj.drive, "me", "a") == (obj.a, False)
    before = key(obj.drive)
    obj.a = Signal("a", 4, reset=1)
    assert key(obj.drive) != before


# -- (b) a keyword-only default ------------------------------------------------

KW_SRC = Signal("kw_src", 4)
KW_DST = Signal("kw_dst", 4)


def kw_proc(*, src=KW_SRC, dst=KW_DST):
    dst.set(src.value)


def test_b_keyword_only_default_is_bound():
    res = resolve(kw_proc)
    assert res.signal_reads == {KW_SRC}
    assert [w.targets for w in res.writes] == [(KW_DST,)]
    assert res.read_complete and res.write_complete
    assert walk(kw_proc, "src") == (KW_SRC, False)
    before = key(kw_proc)
    other = types.FunctionType(kw_proc.__code__, kw_proc.__globals__)
    other.__kwdefaults__ = {"src": Signal("kw_src", 4, reset=3),
                            "dst": KW_DST}
    assert key(other) != before


# -- (c) an empty closure cell -------------------------------------------------

#: a module global the empty cell's name also names: the body never reads it
shadow = Signal("shadow", 4)


def _empty_cell_proc():
    def proc():
        return shadow.value

    if False:
        shadow = None  # noqa: F841 - makes ``shadow`` a cell, never filled
    return proc


def test_c_empty_cell_resolves_to_nothing(monkeypatch):
    proc = _empty_cell_proc()
    res = resolve(proc)
    assert shadow not in res.signal_reads
    assert not res.read_complete
    assert lookup(proc, "shadow") == (MISSING, "cell")
    assert walk(proc, "shadow") == (MISSING, False)
    before = key(proc)
    monkeypatch.setitem(globals(), "shadow", Signal("shadow", 4, reset=5))
    assert key(proc) == before


# -- (d) a callee parameter its caller leaves unbound --------------------------

#: a module global named like the callee's parameter
param = Signal("param", 4)


def read_param(param):
    return param.value


class UnboundCaller:
    def __init__(self):
        self.n = 2

    def proc(self):
        read_param(self.n + 1)  # a computed argument binds nothing


def test_d_unbound_parameter_resolves_to_nothing(monkeypatch):
    obj = UnboundCaller()
    res = resolve(obj.proc)
    assert param not in res.signal_reads
    assert not res.read_complete
    assert lookup(read_param, "param") == (MISSING, "parameter")
    assert walk(read_param, "param") == (MISSING, False)
    before = key(obj.proc)
    monkeypatch.setitem(globals(), "param", Signal("param", 4, reset=5))
    assert key(obj.proc) == before


# -- names: builtins -----------------------------------------------------------


class Level(enum.IntEnum):
    LO = 0
    HI = 1


def _reads_custom():
    return custom.value if Level.HI else 0  # noqa: F821 - a builtin below


def test_custom_builtins_are_the_functions_own():
    sig = Signal("custom", 4)
    fn = types.FunctionType(_reads_custom.__code__,
                            {"__builtins__": {"custom": sig, "Level": Level}})
    res = resolve(fn)
    assert res.signal_reads == {sig} and res.read_complete
    assert lookup(fn, "custom") == (sig, "global")
    # walk starts paths at globals only for enum classes and modeled builtins
    assert walk(fn, "custom") == (MISSING, False)
    assert walk(fn, "Level", "HI") == (Level.HI, True)
    other = types.FunctionType(
        _reads_custom.__code__,
        {"__builtins__": {"custom": Signal("custom", 4, reset=1),
                          "Level": Level}})
    assert key(fn) != key(other)


# -- attributes ----------------------------------------------------------------


class Getter:
    """A property over a signal, and one that reads a signal's value."""

    def __init__(self):
        self._out = Signal("out", 4)
        self.gate = Signal("gate", 1)
        self.y = Signal("y", 4)

    @property
    def out(self):
        return self._out

    @property
    def level(self):
        return self.gate.value

    def drive(self):
        if self.level:
            self.y.set(self.out.value)


def test_property_is_loaded_but_never_structural():
    obj = Getter()
    res = resolve(obj.drive)
    assert obj._out in res.signal_reads
    # the getter's own read is sampled once at resolution
    assert res.getter_reads == {obj.gate}
    assert res.loaded[(id(obj), "level")] == 0
    assert walk(obj.drive, "self", "out") == (MISSING, False)
    assert walk(obj.drive, "self", "_out") == (obj._out, False)
    assert [name for name, _ in attributes(obj)] == ["_out", "gate", "y"]


class Shadowed:
    src = None  # a class attribute the instance shadows

    def __init__(self):
        self.src = Signal("src", 4)
        self.y = Signal("y", 4)

    def drive(self):
        self.y.set(self.src.value)


def test_instance_attribute_shadows_class_attribute():
    obj = Shadowed()
    res = resolve(obj.drive)
    assert res.signal_reads == {obj.src}
    assert own(obj, "src") is obj.src
    assert own(Shadowed.__new__(Shadowed), "src") is MISSING
    assert walk(obj.drive, "self", "src") == (obj.src, False)
    assert ("src", obj.src) in attributes(obj)
    before = key(obj)
    obj.src = Signal("src", 4, reset=2)
    assert key(obj) != before


class Stored:
    """A data descriptor keeping its value under another name."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, cls=None):
        return self if obj is None else getattr(obj, self.slot)

    def __set__(self, obj, value):
        setattr(obj, self.slot, value)


class Described:
    port = Stored()

    def __init__(self):
        self.port = Signal("port", 4)
        self.y = Signal("y", 4)

    def drive(self):
        self.y.set(self.port.value)


def test_data_descriptor_is_loaded_but_not_held():
    obj = Described()
    res = resolve(obj.drive)
    assert res.signal_reads == {obj.port}
    assert own(obj, "port") is MISSING
    assert walk(obj.drive, "self", "port") == (MISSING, False)
    assert [name for name, _ in attributes(obj)] == ["_port", "y"]


class Slotted:
    __slots__ = ("a", "y", "spare")

    def __init__(self):
        self.a = Signal("a", 4)
        self.y = Signal("y", 4)

    def drive(self):
        self.y.set(self.a.value)


def test_slots_are_what_the_instance_holds():
    obj = Slotted()
    res = resolve(obj.drive)
    assert res.signal_reads == {obj.a} and res.read_complete
    assert own(obj, "a") is obj.a and own(obj, "spare") is MISSING
    assert walk(obj.drive, "self", "a") == (obj.a, False)
    assert attributes(obj) == [("a", obj.a), ("y", obj.y)]
    before = key(obj)
    obj.spare = 1
    assert key(obj) != before


class Forwarding:
    """Ports reached through ``__getattr__``."""

    def __init__(self):
        self._ports = {"a": Signal("a", 4)}
        self.y = Signal("y", 4)

    def __getattr__(self, name):
        try:
            return self.__dict__["_ports"][name]
        except KeyError:
            raise AttributeError(name) from None

    def drive(self):
        self.y.set(self.a.value)


def test_getattr_is_loaded_but_not_held():
    obj = Forwarding()
    a = obj._ports["a"]
    res = resolve(obj.drive)
    assert res.signal_reads == {a}
    assert own(obj, "a") is MISSING
    assert walk(obj.drive, "self", "a") == (MISSING, False)
    assert [name for name, _ in attributes(obj)] == ["_ports", "y"]


# -- the rebind rule -----------------------------------------------------------


class ByMember:
    def __init__(self):
        self.y = Signal("y", 4)

    def drive(self):
        self.y.nxt = Level.HI


def test_enum_member_is_a_rebind_proof_constant():
    obj = ByMember()
    res = resolve(obj.drive)
    assert list(res.hidden_loads.values()) == [("Level.HI", Level)]
    assert hidden_loads_constant(res)
    assert walk(obj.drive, "Level", "HI") == (Level.HI, True)
    assert walk(obj.drive, "Level", "MID") == (MISSING, False)
    assert key(Level.HI) == key(Level.HI) != key(Level.LO)


@dataclass(frozen=True)
class Cfg:
    level: int
    table: list


class ByField:
    def __init__(self):
        self.cfg = Cfg(3, [1])
        self.y = Signal("y", 4)

    def drive(self, fixed=Cfg(2, [0])):
        self.y.nxt = self.cfg.level + fixed.level


def test_frozen_field_is_constant_only_from_a_fixed_root():
    obj = ByField()
    res = resolve(obj.drive)
    # a hidden load records its last hop only: a frozen owner proves nothing
    assert not hidden_loads_constant(res)
    assert walk(obj.drive, "fixed", "level") == (2, True)
    # a mutable field value is followed but never constant
    assert walk(obj.drive, "fixed", "table") == ([0], False)
    assert walk(obj.drive, "self", "cfg", "level") == (3, False)
    assert walk(obj.drive, "fixed", "other") == (MISSING, False)
    before = key(obj)
    obj.cfg = Cfg(4, [1])
    assert key(obj) != before


# -- the digest against ground truth -------------------------------------------


def test_digest_reads_what_vars_holds(monkeypatch):
    """On the default and the out-of-order FP systems, every object the key
    reduces gives exactly its ``vars()``: read after the key is taken, as
    reading it materializes the dict the digest avoids."""
    from repro.system import build_system

    for options in ({}, {"ooo": True, "fp_units": True}):
        seen = []

        def recorded(obj, seen=seen):
            items = attributes(obj)
            seen.append((obj, items))
            return items

        system = build_system(lint="off", **options)
        monkeypatch.setattr(buildcache, "attributes", recorded)
        assert buildcache.design_key(system.soc) is not None
        monkeypatch.undo()
        assert len(seen) > 50
        for obj, items in seen:
            truth = sorted(vars(obj).items(), key=lambda item: item[0])
            assert [(n, id(v)) for n, v in items] == \
                [(n, id(v)) for n, v in truth], type(obj)


def test_linted_build_reads_no_component_dict():
    import gc

    from repro.analysis.lint import Linter
    from repro.config import FrameworkConfig
    from repro.hdl import Simulator
    from repro.system.soc import CoprocessorSystem

    def materialized(obj):
        return any(type(r) is dict and "children" in r
                   for r in gc.get_referents(obj))

    buildcache.clear()
    for backend in ("event", "compiled"):
        soc = CoprocessorSystem(FrameworkConfig())
        comps = list(soc.walk())
        before = {c.path for c in comps if materialized(c)}
        sim = Simulator(soc, backend=backend)
        sim.reset()
        Linter().lint(soc, sim=sim)
        assert {c.path for c in comps if materialized(c)} == before
    buildcache.clear()
