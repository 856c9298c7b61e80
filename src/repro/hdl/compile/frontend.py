"""Compiler front end: closure-based classification and the AST translator.

The front end decides, per process, which execution strategy the
generated module uses:

* **static wake slot** — the read closure is proven: the process runs
  whenever a signal in its wake set (:func:`slot_reads`) changes, as the
  event kernel's notification queue would run it.  The slot holds the
  *translated* body — straight-line Python over hoisted signal references
  (``_h3._value``) with inlined set/stage semantics, no dict dispatch, no
  read tracking — when the body stays inside the translator subset, and
  a plain call of the original function otherwise.
* **read-tracked** — the closure could not be proven (opaque reads,
  unknown calls, late-bound hidden state): the function runs interpreted
  from a wake slot, under read tracking, whenever a signal one of its
  runs read changes — exactly how the event kernel schedules it (for
  sequential processes: pure ones only).  ``always=True`` processes run
  on every sweep, impure unprovable sequential processes on every edge.

Only the wake flag decides whether a process runs.  Hidden attribute
loads wake nothing, because the event kernel's dynamic sensitivity
watches only signals.

The dependence closures come from the lint AST pass
(:func:`repro.analysis.lint.astpass.closure_of`) — one front end shared by
static analysis and codegen, so a process lint can reason about is also a
process the compiler can specialize.
"""

from __future__ import annotations

import ast
import enum
import inspect
import textwrap
from typing import Any, Callable, Optional

from ...analysis.dataflow import domain as _dom
from ...analysis.lint.astpass import ProcClosure, _find_def, _root_env, closure_of
from ..components import Stream
from ..signal import Reg, Signal
from ..signal import tracking as _signal_tracking

__all__ = [
    "ProcClosure",
    "closure_of",
    "slot_reads",
    "hidden_loads_constant",
    "Translator",
    "Untranslatable",
]

#: value types the translator may load at run time off a hoisted owner:
#: the loaded object can never mutate in place
_SCALAR_TYPES = (int, float, str, bool, type(None))


def _immutable_value(value: Any) -> bool:
    if isinstance(value, _SCALAR_TYPES):
        return True
    params = getattr(type(value), "__dataclass_params__", None)
    return params is not None and bool(params.frozen)


def _constant_load(owner: Any, value: Any) -> bool:
    """True when ``owner.attr`` can never change for the design's lifetime.

    An immutable *value* still changes if the attribute is rebound to a
    different one — unless the owner forbids rebinding outright: enum
    classes reject member reassignment, frozen dataclasses raise
    ``FrozenInstanceError`` on ``setattr``.  Such loads are compile-time
    constants the translator may fold.
    """
    if isinstance(owner, type) and issubclass(owner, enum.Enum):
        return True
    params = getattr(type(owner), "__dataclass_params__", None)
    return params is not None and bool(params.frozen)


_MISSING = object()


def slot_reads(closure: ProcClosure) -> Optional[list[Signal]]:
    """The signals whose changes wake this process, or ``None``.

    ``None`` means the process has no static wake set: its closure is not
    ``read_complete``, or a real owner lacks a hidden attribute the
    process loads (late-bound state that cannot be sampled yet).

    Otherwise the wake set is ``closure.reads`` plus the signals read by
    property getters along the navigation path.  The AST pass cannot see
    through a getter, but the event kernel's read tracking is live while
    the getter runs inside the process, so it subscribes to them too.
    Each hidden load is sampled once under read tracking; like the body,
    a getter is assumed to read a fixed signal set.  A load missing on a
    probe placeholder (``None`` or a bare ``object``) is skipped: the AST
    pass resolves locals derived from tracked signal reads onto such
    placeholders, and those signals are already in ``closure.reads``.
    Sorted so generated source is stable.
    """
    if not closure.read_complete:
        return None
    wake = set(closure.reads)
    with _signal_tracking(reads=wake):
        for (_oid, attr), (_text, owner) in closure.hidden_loads.items():
            try:
                value = getattr(owner, attr, _MISSING)
            except Exception:
                value = _MISSING
            if value is _MISSING and not (owner is None
                                          or type(owner) is object):
                return None
    return sorted(wake, key=lambda s: (s.name, id(s)))


def hidden_loads_constant(closure: ProcClosure) -> bool:
    """True when every hidden load is a compile-time constant (see
    :func:`_constant_load`) or misses on a probe placeholder.  The event
    kernel runs an impure seq process on every edge, so it sees a rebound
    attribute at once; a wake slot may stand in for one only then."""
    for (_oid, attr), (_text, owner) in closure.hidden_loads.items():
        try:
            value = getattr(owner, attr, _MISSING)
        except Exception:
            return False
        if value is _MISSING and (owner is None or type(owner) is object):
            continue
        if not (_immutable_value(value) and _constant_load(owner, value)):
            return False
    return True


# -- the translator -----------------------------------------------------------


class Untranslatable(Exception):
    """Raised (internally) when a body leaves the translatable subset."""


class Translator:
    """Rewrites one process body into specialized statement lines.

    ``hoist`` is the codegen namespace allocator: ``hoist(obj)`` returns
    the stable generated-module name bound to ``obj``.  Resolution of
    attribute chains happens *now*, against the live elaborated design, so
    the emitted code references hoisted objects directly.
    """

    def __init__(self, fn: Callable[[], None], closure: ProcClosure,
                 hoist: Callable[[Any], str],
                 stats: Optional[dict] = None):
        self.fn = fn
        self.closure = closure
        self.hoist = hoist
        self.env = _root_env(fn)
        bound = getattr(fn, "__self__", None)
        if bound is not None:
            self.env["self"] = bound
        self.locals: set[str] = set()
        #: width-only abstract value per local: (AbstractValue, is_int) or
        #: None once a conditional rebind makes the flow-insensitive value
        #: stale.  Feeds mask elision and branch folding; see _abs_eval.
        self._abs_locals: dict[str, Optional[tuple]] = {}
        self._depth = 0
        self.stats = stats if stats is not None else {}
        self.stats.setdefault("masks_elided", 0)
        self.stats.setdefault("branches_folded", 0)

    def translate(self) -> Optional[list[str]]:
        """Translated body lines (unindented), or None when out of subset."""
        c = self.closure
        if not (c.read_complete and c.write_complete):
            return None
        if c.hidden_stores or c.nonlocal_stores:
            return None
        code = getattr(self.fn, "__code__", None)
        if code is None or code.co_argcount:
            return None
        snapshot = dict(self.stats)  # discarded bodies must not count
        try:
            src = textwrap.dedent(inspect.getsource(self.fn))
            tree = ast.parse(src)
            node = _find_def(tree, code.co_name, code.co_firstlineno)
            if node is None or isinstance(node, ast.Lambda):
                return None
            lines: list[str] = []
            for stmt in node.body:
                lines.extend(self._tx_stmt(stmt))
            return lines or ["pass"]
        except Untranslatable:
            self.stats.update(snapshot)
            return None
        except (OSError, SyntaxError, TypeError, ValueError):
            self.stats.update(snapshot)
            return None

    # -- compile-time object resolution --------------------------------------

    def _resolve(self, node: ast.AST) -> Any:
        """Resolve a pure Name/Attribute/const-Subscript chain to an object."""
        if isinstance(node, ast.Name):
            if node.id in self.locals:
                raise Untranslatable(node.id)
            if node.id not in self.env:
                raise Untranslatable(node.id)
            return self.env[node.id]
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            try:
                return getattr(base, node.attr)
            except Exception as exc:
                raise Untranslatable(str(exc)) from None
        if isinstance(node, ast.Subscript):
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, int):
                base = self._resolve(node.value)
                try:
                    return base[sl.value]
                except Exception as exc:
                    raise Untranslatable(str(exc)) from None
        raise Untranslatable(ast.dump(node))

    def _const_int(self, node: ast.AST) -> int:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return int(node.value)
        raise Untranslatable("non-constant index")

    # -- expressions ----------------------------------------------------------

    def _tx_expr(self, node: ast.AST, test: bool = False) -> str:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float, str, bool, type(None))):
                return repr(node.value)
            raise Untranslatable("constant kind")
        if isinstance(node, ast.Name):
            if node.id in self.locals:
                return f"_L_{node.id}"
            obj = self._resolve(node)
            return self._tx_object(obj, test)
        if isinstance(node, ast.Attribute):
            return self._tx_attribute(node, test)
        if isinstance(node, ast.Subscript):
            obj = self._resolve(node)
            return self._tx_object(obj, test)
        if isinstance(node, ast.Call):
            return self._tx_call(node, test)
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise Untranslatable("binop")
            left = self._tx_expr(node.left)
            right = self._tx_expr(node.right)
            return f"({left} {op} {right})"
        if isinstance(node, ast.UnaryOp):
            op = _UNARYOPS.get(type(node.op))
            if op is None:
                raise Untranslatable("unaryop")
            operand = self._tx_expr(node.operand, test=isinstance(node.op, ast.Not))
            return f"({op} {operand})"
        if isinstance(node, ast.BoolOp):
            op = " and " if isinstance(node.op, ast.And) else " or "
            return "(" + op.join(self._tx_expr(v, test) for v in node.values) + ")"
        if isinstance(node, ast.Compare):
            parts = [self._tx_expr(node.left)]
            for cmp_op, comparator in zip(node.ops, node.comparators):
                op = _CMPOPS.get(type(cmp_op))
                if op is None:
                    raise Untranslatable("compare op")
                parts.append(op)
                parts.append(self._tx_expr(comparator))
            return "(" + " ".join(parts) + ")"
        if isinstance(node, ast.IfExp):
            t = self._tx_expr(node.test, test=True)
            a = self._tx_expr(node.body, test)
            b = self._tx_expr(node.orelse, test)
            return f"({a} if {t} else {b})"
        raise Untranslatable(type(node).__name__)

    def _tx_object(self, obj: Any, test: bool) -> str:
        """Emit a resolved object: scalar constants inline, signals by value."""
        if isinstance(obj, Signal):
            if not test:
                raise Untranslatable("bare signal outside a truth context")
            return f"{self.hoist(obj)}._value"
        if isinstance(obj, bool) or obj is None:
            return repr(obj)
        if isinstance(obj, int):
            return repr(int(obj))
        if isinstance(obj, (float, str)):
            return repr(obj)
        raise Untranslatable("unresolvable object kind")

    def _tx_attribute(self, node: ast.Attribute, test: bool) -> str:
        attr = node.attr
        if attr == "value":
            sig = self._resolve(node.value)
            if not isinstance(sig, Signal):
                raise Untranslatable(".value on non-signal")
            return f"{self.hoist(sig)}._value"
        if attr == "nxt":
            reg = self._resolve(node.value)
            if not isinstance(reg, Reg):
                raise Untranslatable(".nxt on non-reg")
            h = self.hoist(reg)
            return f"({h}._value if {h}._staged is _U else {h}._staged)"
        obj = self._resolve(node)
        if isinstance(obj, Signal):
            return self._tx_object(obj, test)
        if _immutable_value(obj) and not isinstance(obj, (Signal, Stream)):
            # a hidden attribute load: emit a runtime load off the hoisted
            # owner, so a run sees the attribute's current binding
            owner = self._resolve(node.value)
            return f"{self.hoist(owner)}.{attr}"
        raise Untranslatable("attribute kind")

    def _tx_call(self, node: ast.Call, test: bool) -> str:
        if node.keywords:
            raise Untranslatable("call keywords")
        func = node.func
        if isinstance(func, ast.Name):
            fn = self._resolve(func)
            if fn in (int, bool, abs, len, min, max) and len(node.args) >= 1:
                args = ", ".join(self._tx_expr(a) for a in node.args)
                return f"{fn.__name__}({args})"
            raise Untranslatable("free call")
        if not isinstance(func, ast.Attribute):
            raise Untranslatable("call shape")
        name = func.attr
        if name == "bit" and len(node.args) == 1:
            sig = self._resolve(func.value)
            if not isinstance(sig, Signal):
                raise Untranslatable(".bit on non-signal")
            idx = self._const_int(node.args[0])
            return f"(({self.hoist(sig)}._value >> {idx}) & 1)"
        if name == "bits" and len(node.args) == 2:
            sig = self._resolve(func.value)
            if not isinstance(sig, Signal):
                raise Untranslatable(".bits on non-signal")
            hi = self._const_int(node.args[0])
            lo = self._const_int(node.args[1])
            mask = (1 << (hi - lo + 1)) - 1
            return f"(({self.hoist(sig)}._value >> {lo}) & {mask})"
        if name == "fires" and not node.args:
            stream = self._resolve(func.value)
            if not isinstance(stream, Stream):
                raise Untranslatable(".fires on non-stream")
            v = self.hoist(stream.valid)
            r = self.hoist(stream.ready)
            expr = f"({v}._value and {r}._value)"
            return expr if test else f"bool{expr}"
        raise Untranslatable(f"method call .{name}")

    # -- width-only abstract evaluation ---------------------------------------
    #
    # The value facts the code generator is allowed to use are strictly
    # WEAKER than the lint fixpoint's: a signal read contributes only its
    # width bound [0, mask].  Width bounds hold unconditionally — every
    # kernel write path (set/stage/force/warp) masks, so even SEU
    # injection and checkpoint restores cannot violate them — which is
    # what keeps the specialized module cycle- and VCD-identical under
    # fault campaigns that would invalidate the fixpoint's tighter ranges.

    def _abs_eval(self, node: ast.AST) -> Optional[tuple]:
        """``(AbstractValue, is_int)`` for a translatable expression.

        ``is_int`` asserts the evaluated Python object is an ``int`` (not a
        ``bool``) — mask elision must not change the stored object, and the
        event kernel's ``int(value) & mask`` always commits an ``int``.
        Returns None when no sound claim can be made.
        """
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return _dom.const(int(node.value)), False
            if isinstance(node.value, int):
                return _dom.const(node.value), True
            return None
        if isinstance(node, (ast.Name, ast.Subscript)):
            if isinstance(node, ast.Name) and node.id in self.locals:
                return self._abs_locals.get(node.id)
            try:
                obj = self._resolve(node)
            except Untranslatable:
                return None
            return self._abs_object(obj)
        if isinstance(node, ast.Attribute):
            return self._abs_attribute(node)
        if isinstance(node, ast.Call):
            return self._abs_call(node)
        if isinstance(node, ast.BinOp):
            fn = _ABS_BINOPS.get(type(node.op))
            left = self._abs_eval(node.left)
            right = self._abs_eval(node.right)
            if fn is None or left is None or right is None:
                return None
            return fn(left[0], right[0]), left[1] and right[1]
        if isinstance(node, ast.UnaryOp):
            operand = self._abs_eval(node.operand)
            if operand is None:
                return None
            if isinstance(node.op, ast.UAdd):
                return operand
            if isinstance(node.op, ast.USub):
                return _dom.neg(operand[0]), operand[1]
            if isinstance(node.op, ast.Invert):
                return _dom.invert(operand[0]), operand[1]
            if isinstance(node.op, ast.Not):
                return _dom.logical_not(operand[0]), False
            return None
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            op = _CMPOPS.get(type(node.ops[0]))
            left = self._abs_eval(node.left)
            right = self._abs_eval(node.comparators[0])
            if op is None or left is None or right is None:
                return None
            return _dom.compare(op, left[0], right[0]), False
        if isinstance(node, ast.BoolOp):
            arms = [self._abs_eval(v) for v in node.values]
            if any(a is None for a in arms):
                return None
            # the result is some arm's value, or 0 from a falsy short
            # circuit — join them all with 0 (conservative but sound)
            av = _dom.const(0)
            for a in arms:
                av = _dom.join(av, a[0])
            return av, all(a[1] for a in arms)
        if isinstance(node, ast.IfExp):
            a = self._abs_eval(node.body)
            b = self._abs_eval(node.orelse)
            if a is None or b is None:
                return None
            return _dom.join(a[0], b[0]), a[1] and b[1]
        return None

    def _abs_object(self, obj: Any) -> Optional[tuple]:
        if isinstance(obj, Signal):
            if obj.width is None:
                return None
            return _dom.top(obj.width), True
        if isinstance(obj, bool):
            return _dom.const(int(obj)), False
        if isinstance(obj, int):
            return _dom.const(obj), True
        return None

    def _abs_attribute(self, node: ast.Attribute) -> Optional[tuple]:
        if node.attr in ("value", "nxt"):
            try:
                sig = self._resolve(node.value)
            except Untranslatable:
                return None
            if isinstance(sig, Signal) and sig.width is not None:
                return _dom.top(sig.width), True
            return None
        # hidden attribute loads are emitted as *runtime* loads so
        # rebinding stays observable — only a rebind-proof owner (enum
        # class, frozen dataclass) makes the compile-time value a fact
        try:
            owner = self._resolve(node.value)
            obj = getattr(owner, node.attr)
        except Exception:
            return None
        if isinstance(obj, (bool, int)) and _constant_load(owner, obj):
            return _dom.const(int(obj)), not isinstance(obj, bool)
        return None

    def _abs_call(self, node: ast.Call) -> Optional[tuple]:
        if node.keywords:
            return None
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "bit" and len(node.args) == 1:
                return _dom.interval(0, 1), True
            if func.attr == "bits" and len(node.args) == 2:
                try:
                    hi = self._const_int(node.args[0])
                    lo = self._const_int(node.args[1])
                except Untranslatable:
                    return None
                return _dom.interval(0, (1 << (hi - lo + 1)) - 1), True
            return None
        if not isinstance(func, ast.Name):
            return None
        try:
            fn = self._resolve(func)
        except Untranslatable:
            return None
        args = [self._abs_eval(a) for a in node.args]
        if any(a is None for a in args):
            return None
        if fn is int and len(args) == 1:
            return args[0][0], True
        if fn is bool and len(args) == 1:
            av = args[0][0].truthiness()
            if av is None:
                return _dom.interval(0, 1), False
            return _dom.const(int(av)), False
        if fn is abs and len(args) == 1:
            return _dom.absolute(args[0][0]), args[0][1]
        if fn in (min, max) and len(args) >= 2:
            combine = _dom.minimum if fn is min else _dom.maximum
            av = args[0][0]
            for a in args[1:]:
                av = combine(av, a[0])
            return av, all(a[1] for a in args)
        return None

    def _bind_abs(self, name: str, value: Optional[tuple]) -> None:
        # flow-insensitive soundness: a binding under a conditional may or
        # may not happen, so the local's abstract value becomes unknown
        self._abs_locals[name] = value if self._depth == 0 else None

    # -- statements -----------------------------------------------------------

    def _store_signal(self, sig: Signal, expr: str,
                      node: Optional[ast.AST] = None) -> list[str]:
        h = self.hoist(sig)
        load = f"_v = int({expr}) & {sig._mask}"
        if sig._mask is None:
            load = f"_v = {expr}"
        elif node is not None:
            av = self._abs_eval(node)
            if av is not None and av[1] and av[0].fits(sig._mask):
                # the committed value is provably the expression itself
                load = f"_v = {expr}"
                self.stats["masks_elided"] += 1
        return [
            load,
            f"if _v != {h}._value:",
            f"    {h}._value = _v",
            "    _CH.dirty = True",
            f"    _CHG.append({h})",
        ]

    def _stage_reg(self, reg: Reg, expr: str,
                   node: Optional[ast.AST] = None) -> list[str]:
        h = self.hoist(reg)
        load = f"_v = int({expr}) & {reg._mask}"
        if reg._mask is None:
            load = f"_v = {expr}"
        elif node is not None:
            av = self._abs_eval(node)
            if av is not None and av[1] and av[0].fits(reg._mask):
                load = f"_v = {expr}"
                self.stats["masks_elided"] += 1
        return [
            load,
            f"if {h}._staged is _U:",
            f"    _SL.append({h})",
            f"{h}._staged = _v",
            "_CH.stages += 1",
        ]

    def _tx_stmt(self, stmt: ast.stmt) -> list[str]:
        if isinstance(stmt, ast.Pass):
            return ["pass"]
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                raise Untranslatable("return with value")
            return ["return"]
        if isinstance(stmt, ast.Expr):
            call = stmt.value
            if isinstance(call, ast.Constant):
                return []  # docstring
            if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Attribute):
                raise Untranslatable("expression statement")
            name = call.func.attr
            if name == "set" and len(call.args) == 1 and not call.keywords:
                sig = self._resolve(call.func.value)
                if not isinstance(sig, Signal):
                    raise Untranslatable(".set on non-signal")
                return self._store_signal(sig, self._tx_expr(call.args[0]),
                                          call.args[0])
            if name == "stage" and len(call.args) == 1 and not call.keywords:
                reg = self._resolve(call.func.value)
                if not isinstance(reg, Reg):
                    raise Untranslatable(".stage on non-reg")
                return self._stage_reg(reg, self._tx_expr(call.args[0]),
                                       call.args[0])
            raise Untranslatable(f"statement call .{name}")
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1:
                raise Untranslatable("chained assignment")
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                abs_val = self._abs_eval(stmt.value)
                expr = self._tx_expr(stmt.value)
                self.locals.add(target.id)
                self._bind_abs(target.id, abs_val)
                return [f"_L_{target.id} = {expr}"]
            if isinstance(target, ast.Attribute) and target.attr == "nxt":
                reg = self._resolve(target.value)
                if not isinstance(reg, Reg):
                    raise Untranslatable(".nxt on non-reg")
                return self._stage_reg(reg, self._tx_expr(stmt.value),
                                       stmt.value)
            raise Untranslatable("assignment target")
        if isinstance(stmt, ast.AnnAssign):
            if not isinstance(stmt.target, ast.Name) or stmt.value is None:
                raise Untranslatable("annotated assignment")
            abs_val = self._abs_eval(stmt.value)
            expr = self._tx_expr(stmt.value)
            self.locals.add(stmt.target.id)
            self._bind_abs(stmt.target.id, abs_val)
            return [f"_L_{stmt.target.id} = {expr}"]
        if isinstance(stmt, ast.AugAssign):
            if not isinstance(stmt.target, ast.Name) \
                    or stmt.target.id not in self.locals:
                raise Untranslatable("augmented target")
            op = _BINOPS.get(type(stmt.op))
            if op is None:
                raise Untranslatable("augmented op")
            name = stmt.target.id
            base = self._abs_locals.get(name)
            rhs = self._abs_eval(stmt.value)
            fn = _ABS_BINOPS.get(type(stmt.op))
            if base is not None and rhs is not None and fn is not None:
                self._bind_abs(name, (fn(base[0], rhs[0]),
                                      base[1] and rhs[1]))
            else:
                self._bind_abs(name, None)
            expr = self._tx_expr(stmt.value)
            return [f"_L_{name} = _L_{name} {op} ({expr})"]
        if isinstance(stmt, ast.If):
            av = self._abs_eval(stmt.test)
            verdict = av[0].truthiness() if av is not None else None
            if verdict is not None:
                # the test is decided by width bounds and rebind-proof
                # constants alone — fold the dead arm away entirely
                self.stats["branches_folded"] += 1
                taken = stmt.body if verdict else stmt.orelse
                lines = []
                for s in taken:
                    lines.extend(self._tx_stmt(s))
                return lines
            test = self._tx_expr(stmt.test, test=True)
            lines = [f"if {test}:"]
            self._depth += 1
            try:
                body = []
                for s in stmt.body:
                    body.extend(self._tx_stmt(s))
                lines.extend("    " + line for line in (body or ["pass"]))
                if stmt.orelse:
                    lines.append("else:")
                    orelse = []
                    for s in stmt.orelse:
                        orelse.extend(self._tx_stmt(s))
                    lines.extend("    " + line
                                 for line in (orelse or ["pass"]))
            finally:
                self._depth -= 1
            return lines
        raise Untranslatable(type(stmt).__name__)


_BINOPS: dict[type, str] = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Mod: "%", ast.LShift: "<<", ast.RShift: ">>",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
}

_UNARYOPS: dict[type, str] = {
    ast.USub: "-", ast.UAdd: "+", ast.Invert: "~", ast.Not: "not",
}

_CMPOPS: dict[type, str] = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=",
}

#: abstract transfer functions for the width-only evaluator
_ABS_BINOPS: dict[type, Any] = {
    ast.Add: _dom.add, ast.Sub: _dom.sub, ast.Mult: _dom.mul,
    ast.FloorDiv: _dom.floordiv, ast.Mod: _dom.mod,
    ast.LShift: _dom.lshift, ast.RShift: _dom.rshift,
    ast.BitAnd: _dom.bitand, ast.BitOr: _dom.bitor, ast.BitXor: _dom.bitxor,
}


