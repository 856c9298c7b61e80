"""Per-op records (:func:`repro.record.record`) keep dataclass semantics.

Every class declared with ``record`` is checked against a twin built with
plain ``dataclass(frozen=True)`` from the same fields: the same signature,
defaults, ``repr``, ``hash``, ``__match_args__``, ``replace`` and pickle
round trip.  Records are frozen, keep no ``__dict__``, and records of two
classes never compare equal, even with equal fields.  Alongside: the ISA
field masks computed at construction and the header type check.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import pickle

import pytest

from repro.fu.base import FuComputation
from repro.fu.protocol import DispatchSample, Transfer, WriteSpace
from repro.isa import fields as isa_fields
from repro.isa.encoding import Instruction
from repro.messages import types as msg
from repro.messages.framing import (
    FramingError,
    expected_length,
    make_header,
    validate_header,
)
from repro.record import record
from repro.rtm.decoder import DecodedOp, ExecOp
from repro.rtm.ooo import RenamedOp

_INSTR = Instruction(0x10, 1, 2, 3, 4, 5, 6, 7)
_EXEC_OP = ExecOp(transfer=Transfer(1, 2), message=msg.DataRecord(1, 2))
_DECODED = DecodedOp("unit", _INSTR, None, ((WriteSpace.DATA, 5),),
                     ((WriteSpace.DATA, 3),), True, _EXEC_OP, True)

#: every record class -> the arguments of one instance, each field set
SAMPLES = {
    msg.Message: (),
    msg.Exec: (0x1234_5678_9ABC_DEF0,),
    msg.WriteReg: (3, 5),
    msg.WriteFlags: (3, 5),
    msg.Reset: (),
    msg.BadFrame: (0xEE00_0000,),
    msg.DataRecord: (3, 5),
    msg.FlagVector: (3, 5),
    msg.ExceptionReport: (4, 9),
    msg.Halted: (),
    msg.MachineCheck: (2, 7, 0x11),
    Instruction: (0x10, 1, 2, 3, 4, 5, 6, 7, 8),
    ExecOp: (Transfer(1, 2), msg.Halted(), True, True),
    DecodedOp: tuple(getattr(_DECODED, f.name)
                     for f in dataclasses.fields(DecodedOp)),
    RenamedOp: (_DECODED, ((WriteSpace.DATA, 9),), ((WriteSpace.FLAG, 1),),
                1, 2, 3, 4, 5, 6, 7, 8, _EXEC_OP),
    DispatchSample: (1, 2, 3, 4, 5, 6, 7, 8),
    Transfer: (1, 2, 3, 4, False),
    FuComputation: (1, 2, 3),
}

CLASSES = list(SAMPLES)


def _ids(cls):
    return cls.__name__


def _twin(cls):
    """``cls`` as plain ``dataclass(frozen=True)`` would declare it."""
    spec = []
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING:
            spec.append((f.name, f.type))
        else:
            spec.append((f.name, f.type, dataclasses.field(default=f.default)))
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def _values(rec):
    return tuple(getattr(rec, f.name) for f in dataclasses.fields(rec))


def _other(value):
    """A value unequal to ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return 0
    return None


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
class TestRecord:
    def test_frozen_and_slotted(self, cls):
        rec = cls(*SAMPLES[cls])
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, f.name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.extra = 1
        assert not hasattr(rec, "__dict__")
        assert dataclasses.is_dataclass(rec)

    def test_eq_and_hash_follow_the_fields(self, cls):
        args = SAMPLES[cls]
        rec, same = cls(*args), cls(*args)
        assert rec is not same
        assert rec == same and not rec != same
        assert hash(rec) == hash(same) == hash(_values(rec))
        assert rec.__eq__(rec) is True
        for i, value in enumerate(args):
            changed = list(args)
            changed[i] = _other(value)
            other = cls(*changed)
            assert rec != other and not rec == other
            assert hash(other) == hash(tuple(changed))

    def test_same_as_a_frozen_dataclass(self, cls):
        twin = _twin(cls)
        rec, ref = cls(*SAMPLES[cls]), twin(*SAMPLES[cls])
        assert repr(rec) == repr(ref)
        assert hash(rec) == hash(ref)
        assert cls.__match_args__ == twin.__match_args__

        def params(c):
            return [(p.name, p.kind, p.default)
                    for p in inspect.signature(c).parameters.values()]
        assert params(cls) == params(twin)
        # defaults fill in exactly as the dataclass's own would
        required = sum(f.default is dataclasses.MISSING
                       for f in dataclasses.fields(cls))
        assert _values(cls(*SAMPLES[cls][:required])) \
            == _values(twin(*SAMPLES[cls][:required]))

    def test_replace_and_pickle(self, cls):
        rec = cls(*SAMPLES[cls])
        copy = pickle.loads(pickle.dumps(rec))
        assert type(copy) is cls and copy == rec
        assert _values(copy) == _values(rec)
        assert dataclasses.replace(rec) == rec
        for f in dataclasses.fields(cls):
            value = _other(getattr(rec, f.name))
            changed = dataclasses.replace(rec, **{f.name: value})
            assert type(changed) is cls
            assert getattr(changed, f.name) == value
            assert changed != rec


def test_records_of_different_classes_never_compare_equal():
    recs = [cls(*args) for cls, args in SAMPLES.items()]
    for a, b in itertools.permutations(recs, 2):
        assert a != b and not a == b
        assert a.__eq__(b) is NotImplemented


@pytest.mark.parametrize("pair", [
    (msg.WriteReg, msg.DataRecord), (msg.WriteReg, msg.FlagVector),
    (msg.DataRecord, msg.FlagVector), (msg.WriteFlags, msg.FlagVector),
    (msg.Reset, msg.Halted), (msg.Message, msg.Reset),
], ids=lambda pair: f"{pair[0].__name__}-{pair[1].__name__}")
def test_same_field_siblings_differ(pair):
    a_cls, b_cls = pair
    args = SAMPLES[a_cls]
    a, b = a_cls(*args), b_cls(*args)
    assert _values(a) == _values(b)
    assert a != b and b != a
    assert a == a_cls(*args) and b == b_cls(*args)
    # a tuple of the same values is no record either
    assert a != _values(a)


def test_class_patterns_match_by_position_and_class():
    match msg.WriteReg(3, 5):
        case msg.DataRecord():
            pytest.fail("a WriteReg matched DataRecord")
        case msg.WriteReg(reg, value):
            assert (reg, value) == (3, 5)
    match Transfer(1, 2):
        case Transfer(data_reg, data_value, flag_reg, flag_value, last):
            assert (data_reg, data_value, flag_reg, flag_value, last) \
                == (1, 2, None, 0, True)


def test_a_plain_subclass_still_constructs_and_compares():
    cls = type("Report", (msg.ExceptionReport,), {})
    rec = cls(4, 9)
    assert rec == cls(4, 9) and rec != msg.ExceptionReport(4, 9)
    assert (rec.code, rec.info) == (4, 9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.code = 5
    rec.note = "a subclass keeps a __dict__, as with a frozen dataclass"
    assert rec.note and rec == cls(4, 9)


def test_record_refuses_fields_it_cannot_store_plainly():
    with pytest.raises(TypeError, match="plain positional"):
        @record
        class _Factory:
            items: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="__post_init__"):
        @record
        class _Post:
            x: int

            def __post_init__(self):
                pass


# -- ISA fields ------------------------------------------------------------------

ISA_FIELDS = sorted(
    {f for f in vars(isa_fields).values() if isinstance(f, isa_fields.Field)},
    key=lambda f: f.name)


@pytest.mark.parametrize("field", ISA_FIELDS, ids=lambda f: f.name)
def test_field_width_and_mask_follow_the_slice(field):
    width = field.hi - field.lo + 1
    assert field.width == width
    assert field.mask == (1 << width) - 1
    assert repr(field) == f"Field(name={field.name!r}, hi={field.hi}, lo={field.lo})"
    assert field == isa_fields.Field(field.name, field.hi, field.lo)
    assert hash(field) == hash((field.name, field.hi, field.lo))
    assert field.extract(field.insert(0, field.mask)) == field.mask


# -- header type check -----------------------------------------------------------

def test_validate_header_rejects_every_unknown_type_byte():
    known = {int(t) for t in msg.MsgType}
    for mtype in range(256):
        if mtype in known:
            length = expected_length(mtype, 1)
            assert validate_header(make_header(mtype, 7, length), 1) \
                == (mtype, 7, length)
            continue
        with pytest.raises(FramingError) as err:
            validate_header(make_header(mtype, 0, 0), 1)
        assert str(err.value) == f"unknown message type {mtype:#x}"
