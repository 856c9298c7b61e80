"""Static inspection of process functions — the lint engine's AST pass.

The kernel discovers process sensitivity *dynamically* (read tracking during
the discovery settle); that is exactly why a misdeclared contract is a
Heisenbug: the scheduler can only see what a run actually did, never what a
process *could* do.  This pass recovers the missing static view.  It works
in two phases so that linting thousands of process instances stays cheap:

1. **Summary** (cached per code object) — parse the process function's
   source and reduce it to symbolic events: signal reads (``.value``,
   ``.bit``/``.bits``, bare-signal truthiness), write sites (``.set``,
   ``.stage``/``.nxt``, ``.force``, ``.warp``, ``Stream.drive``) each with
   the *taint* (data + control dependencies) feeding it, hidden-attribute
   loads and stores, nonlocal writes, and method calls.  Closures created
   from the same ``def`` share one summary (every ``PipeStage._drive`` is
   one entry).

2. **Resolution** (per process instance) — evaluate each symbolic chain
   against the function's live scope (:func:`repro.hdl.live.lookup`: the
   bound receiver, defaults, closure cells, globals), turning
   ``("self", "out", "valid")`` into the concrete
   :class:`~repro.hdl.signal.Signal` object.  Bound-method calls resolve
   through the *instance* (so subclass overrides like
   ``FaultyLine._delivering`` are analysed, not the base method) and are
   inlined to a small depth.

Anything the pass cannot resolve is reported as *unknown*, never guessed:
rules treat unknowns conservatively in the direction that avoids false
positives, because a lint that cries wolf gets turned off.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Union

from ...hdl.components import Stream
from ...hdl.live import MISSING, load, lookup
from ...hdl.signal import Signal
from ...hdl.signal import tracking as _tracking

# -- symbolic model -----------------------------------------------------------
#
# A *chain* is a tuple of steps addressing an object from a root name:
#   (("r", "self"), ("a", "out"), ("a", "valid"))   -> self.out.valid
# Steps: ("r", name) root lookup, ("a", name) attribute, ("i", k) constant
# subscript, ("e",) "every element" (dynamic subscript / loop variable),
# ("c", func_chain) "result of calling func_chain" — resolvable only as far
# as the callee's return annotation proves the result is not a Signal.
Chain = tuple[tuple, ...]

#: taint element: ("sig", chain) — potential signal read;
#: ("call", chain, args_taint) — result of a method call
Taint = frozenset

#: expansion cap when an ("e",) step fans out over a container
_MAX_ELEMENTS = 256

#: maximum depth of bound-method inlining during resolution (process →
#: helper → datapath function chains in the FU library reach depth 4)
_MAX_INLINE_DEPTH = 5


#: a call argument spread from ``*args`` / ``**mapping`` (see FnSummary.calls)
_SPREAD = "*"


def _is_chain_step_pure(node: ast.AST) -> bool:
    return isinstance(node, (ast.Name, ast.Attribute, ast.Subscript))


#: Symbolic value expression attached to write sites and branch tests —
#: nested tuples so sites stay hashable.  Node forms:
#:   ("const", v)                      integer/bool literal
#:   ("read", chain)                   a ``.value``/``.nxt`` signal read
#:   ("chainval", chain)               a non-signal attribute/global value
#:   ("bit", chain, i)                 ``sig.bit(i)``
#:   ("bits", chain, hi, lo)           ``sig.bits(hi, lo)``
#:   ("bin", op, l, r)                 arithmetic/shift/bitwise operator
#:   ("un", op, x)                     unary operator
#:   ("cmp", op, l, r)                 single comparison
#:   ("bool", "and"|"or", (e, ...))    boolean combination
#:   ("ifexp", t, a, b)                conditional expression
#:   ("call", name, (args, ...))       min/max/abs/int/bool
#: ``None`` marks a value the model cannot express (opaque).
Expr = Optional[tuple]

#: node-count ceiling on captured expressions — beyond this the value is
#: treated as opaque rather than ballooning summaries
_MAX_EXPR_NODES = 96


def _expr_size(expr: Expr) -> int:
    if expr is None:
        return 1
    n = 1
    for part in expr[1:]:
        if isinstance(part, tuple):
            if part and isinstance(part[0], str):
                n += _expr_size(part)
            else:  # tuple of sub-expressions (bool/call arms)
                for sub in part:
                    n += _expr_size(sub)
    return n


@dataclass(frozen=True)
class WriteSite:
    """One symbolic signal-write site inside a process function."""

    kind: str  # "set" | "stage" | "force" | "warp" | "drive"
    target: Chain
    taint: Taint
    line: int
    #: chain of the source signal when the written value is a *pure copy*
    #: (``dst.set(src.value)`` / ``dst.nxt = src.value``) — the only shape
    #: the width-mismatch rule inspects, because arithmetic and slicing are
    #: deliberate re-widthing
    src: Optional[Chain] = None
    #: symbolic tree of the written value (see :data:`Expr`); ``None`` when
    #: the value shape is outside the model — the dataflow solver then
    #: widens the destination to its full width
    expr: Expr = None


@dataclass
class FnSummary:
    """Symbolic summary of one process function body (per code object)."""

    reads: set = field(default_factory=set)  # chains read via .value/.bit/.bits
    #: chains read through ``Reg.nxt``, which read tracking never sees
    staged_reads: set = field(default_factory=set)
    uses: set = field(default_factory=set)  # bare chains (signal iff resolves to one)
    #: (chain, args_taint, arg_aliases, kw_aliases); kw_aliases holds
    #: (name, alias) pairs, name ``_SPREAD`` for ``**mapping``
    calls: set = field(default_factory=set)
    writes: list = field(default_factory=list)  # [WriteSite]
    attr_loads: set = field(default_factory=set)  # attribute chains loaded
    attr_stores: set = field(default_factory=set)  # attribute chains stored/mutated
    nonlocal_stores: set = field(default_factory=set)  # names rebound via closure
    #: calls whose target could not be modelled (dynamic dispatch, etc.),
    #: as source text
    unknown_calls: set = field(default_factory=set)
    #: a signal read (.value/.nxt/.bit/.bits/.fires) through an expression
    #: the chain model cannot address — the read set may be incomplete
    opaque_reads: bool = False
    #: a signal write (.set/.stage/...) through such an expression — the
    #: write set may be incomplete
    opaque_writes: bool = False
    #: source unavailable / unparseable — summary is empty, not wrong
    parse_failed: bool = False
    #: (line, Expr) for every ``if`` test the value model can express —
    #: the dataflow solver proves dead branches from these
    branches: list = field(default_factory=list)


# methods whose invocation mutates their receiver (container mutators)
_MUTATORS = frozenset(
    {
        "append", "appendleft", "add", "clear", "discard", "extend", "insert",
        "pop", "popleft", "popitem", "remove", "setdefault", "update",
    }
)

# builtin-ish callables that only propagate their arguments' taint
_PURE_CALLS = frozenset(
    {
        "abs", "all", "any", "bool", "bytes", "dict", "divmod", "enumerate",
        "float", "frozenset", "hex", "int", "isinstance", "len", "list",
        "max", "min", "pow", "range", "repr", "reversed", "round", "set",
        "sorted", "str", "sum", "tuple", "zip",
    }
)


class _Scope:
    """Local-variable state: alias chains, taint and symbolic value."""

    __slots__ = ("alias", "taint", "expr")

    def __init__(self, alias: Optional[Chain], taint: Taint,
                 expr: Expr = None):
        self.alias = alias
        self.taint = taint
        self.expr = expr


class _Analyzer:
    """Single-pass symbolic walker over a process function body."""

    def __init__(self, summary: FnSummary):
        self.s = summary
        self.env: dict[str, _Scope] = {}
        self.cond_stack: list[Taint] = []
        #: taint of every condition that guarded an early return/raise —
        #: statements after such a branch are control-dependent on it
        self.flow_taint: Taint = frozenset()

    # -- helpers -------------------------------------------------------------

    def _chain_of(self, node: ast.AST) -> Optional[Chain]:
        """Address chain of a pure attribute/subscript expression, or None."""
        if isinstance(node, ast.Name):
            local = self.env.get(node.id)
            if local is not None:
                return local.alias  # may be None: a computed local
            return (("r", node.id),)
        if isinstance(node, ast.Attribute):
            base = self._chain_of(node.value)
            if base is None:
                return None
            return base + (("a", node.attr),)
        if isinstance(node, ast.Subscript):
            base = self._chain_of(node.value)
            if base is None:
                return None
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, int):
                return base + (("i", sl.value),)
            self.taint_of(sl)  # a dynamic index is itself a read
            return base + (("e",),)
        return None

    def _guards(self) -> Taint:
        acc = self.flow_taint
        for t in self.cond_stack:
            acc = acc | t
        return acc

    def _write(self, kind: str, target: Optional[Chain], value_taint: Taint,
               line: int, src: Optional[Chain] = None,
               expr: Expr = None) -> None:
        if target is None:
            self.s.opaque_writes = True
            return
        self.s.writes.append(
            WriteSite(kind=kind, target=target, taint=value_taint | self._guards(),
                      line=line, src=src, expr=expr)
        )

    def _copy_src(self, value: Optional[ast.AST]) -> Optional[Chain]:
        """Chain of ``src`` when ``value`` is exactly ``src.value``, else None."""
        if not isinstance(value, ast.Attribute) or value.attr != "value":
            return None
        chain = self._chain_of(value)
        if chain is None or chain[-1] != ("a", "value"):
            return None
        return chain[:-1]

    # -- symbolic value expressions ------------------------------------------

    _BIN_EXPR_OPS = {
        ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
        ast.Mod: "%", ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>",
        ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    }
    _CMP_EXPR_OPS = {
        ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
        ast.Gt: ">", ast.GtE: ">=",
    }
    _UN_EXPR_OPS = {ast.USub: "-", ast.UAdd: "+", ast.Invert: "~", ast.Not: "not"}
    _EXPR_CALLS = frozenset({"min", "max", "abs", "int", "bool"})

    def expr_of(self, node: Optional[ast.AST]) -> Expr:
        """Symbolic value tree of an expression, or None when unmodelable.

        Purely syntactic (no summary side effects — ``taint_of`` is always
        run alongside).  Local names substitute their recorded expression,
        which is sound because locals bound under a conditional are
        recorded as opaque (see :meth:`_bind_target`).
        """
        expr = self._expr_of(node)
        if expr is not None and _expr_size(expr) > _MAX_EXPR_NODES:
            return None
        return expr

    def _expr_of(self, node: Optional[ast.AST]) -> Expr:
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool):
                return ("const", int(v))
            if isinstance(v, int):
                return ("const", v)
            return None
        if isinstance(node, ast.Name):
            local = self.env.get(node.id)
            if local is not None:
                return local.expr
            return ("chainval", (("r", node.id),))
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            chain = self._chain_of(node)
            if chain is None or chain[-1] == ("e",):
                return None
            if chain[-1] in (("a", "value"), ("a", "nxt")):
                return ("read", chain[:-1])
            return ("chainval", chain)
        if isinstance(node, ast.BinOp):
            op = self._BIN_EXPR_OPS.get(type(node.op))
            if op is None:
                return None
            left = self._expr_of(node.left)
            right = self._expr_of(node.right)
            if left is None or right is None:
                return None
            return ("bin", op, left, right)
        if isinstance(node, ast.UnaryOp):
            op = self._UN_EXPR_OPS.get(type(node.op))
            if op is None:
                return None
            x = self._expr_of(node.operand)
            if x is None:
                return None
            return ("un", op, x)
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                return None
            op = self._CMP_EXPR_OPS.get(type(node.ops[0]))
            if op is None:
                return None
            left = self._expr_of(node.left)
            right = self._expr_of(node.comparators[0])
            if left is None or right is None:
                return None
            return ("cmp", op, left, right)
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            arms = tuple(self._expr_of(v) for v in node.values)
            if any(a is None for a in arms):
                return None
            return ("bool", op, arms)
        if isinstance(node, ast.IfExp):
            test = self._expr_of(node.test)
            body = self._expr_of(node.body)
            orelse = self._expr_of(node.orelse)
            if test is None or body is None or orelse is None:
                return None
            return ("ifexp", test, body, orelse)
        if isinstance(node, ast.Call):
            if node.keywords or any(isinstance(a, ast.Starred) for a in node.args):
                return None
            func = node.func
            if isinstance(func, ast.Name) and func.id in self._EXPR_CALLS:
                if func.id in ("min", "max"):
                    if len(node.args) < 2:
                        return None
                elif len(node.args) != 1:
                    return None
                args = tuple(self._expr_of(a) for a in node.args)
                if any(a is None for a in args):
                    return None
                return ("call", func.id, args)
            if isinstance(func, ast.Attribute) and func.attr in ("bit", "bits"):
                chain = self._chain_of(func)
                if chain is None or chain[-1] != ("a", func.attr):
                    return None
                idx = [self._expr_of(a) for a in node.args]
                if not all(a is not None and a[0] == "const" for a in idx):
                    return None
                prefix = chain[:-1]
                if func.attr == "bit" and len(idx) == 1:
                    return ("bit", prefix, idx[0][1])
                if func.attr == "bits" and len(idx) == 2:
                    return ("bits", prefix, idx[0][1], idx[1][1])
            return None
        return None

    def _aug_expr(self, base: Expr, stmt: ast.AugAssign) -> Expr:
        """Symbolic tree for ``target <op>= value`` given target's tree."""
        op = self._BIN_EXPR_OPS.get(type(stmt.op))
        if op is None or base is None:
            return None
        value = self.expr_of(stmt.value)
        if value is None:
            return None
        return ("bin", op, base, value)

    # -- expression taint ----------------------------------------------------

    def taint_of(self, node: Optional[ast.AST]) -> Taint:
        """Taint of an expression; records reads/uses/calls as side effects."""
        if node is None or isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, ast.Name):
            local = self.env.get(node.id)
            if local is not None:
                if local.alias is not None:
                    self.s.uses.add(local.alias)
                    return local.taint | frozenset({("sig", local.alias)})
                return local.taint
            chain: Chain = (("r", node.id),)
            self.s.uses.add(chain)
            return frozenset({("sig", chain)})
        if isinstance(node, ast.Attribute):
            chain2 = self._chain_of(node)
            if chain2 is None:
                if node.attr in ("value", "nxt"):
                    # a .value read through an unaddressable expression may
                    # be a signal read the model cannot attribute
                    self.s.opaque_reads = True
                return self.taint_of(node.value)
            last = chain2[-1]
            if last == ("a", "value"):
                prefix = chain2[:-1]
                self.s.reads.add(prefix)
                return frozenset({("sig", prefix)})
            if last == ("a", "nxt"):
                # reading .nxt reads the register's staged/held value
                prefix = chain2[:-1]
                self.s.staged_reads.add(prefix)
                return frozenset({("sig", prefix)})
            self.s.attr_loads.add(chain2)
            self.s.uses.add(chain2)
            return frozenset({("sig", chain2)})
        if isinstance(node, ast.Subscript):
            chain3 = self._chain_of(node)
            if chain3 is None:
                return self.taint_of(node.value) | self.taint_of(node.slice)
            self.s.uses.add(chain3)
            base_taint = self.taint_of(node.value)
            return base_taint | frozenset({("sig", chain3)})
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, (ast.BinOp,)):
            return self.taint_of(node.left) | self.taint_of(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, ast.BoolOp):
            acc: Taint = frozenset()
            for v in node.values:
                acc |= self.taint_of(v)
            return acc
        if isinstance(node, ast.Compare):
            # `x is None` / `x is not None` examines object *identity*: a
            # bare signal mention there is wiring inspection, not a value
            # read — counting it as a read manufactures phantom feedback
            # (e.g. an ack driven under `if self.ack is not None:` would
            # appear to depend on itself).
            if all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                acc = frozenset()
                for o in [node.left, *node.comparators]:
                    acc |= self._identity_operand_taint(o)
                return acc
            acc = self.taint_of(node.left)
            for c in node.comparators:
                acc |= self.taint_of(c)
            return acc
        if isinstance(node, ast.IfExp):
            return (
                self.taint_of(node.test)
                | self.taint_of(node.body)
                | self.taint_of(node.orelse)
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            acc = frozenset()
            for e in node.elts:
                acc |= self.taint_of(e)
            return acc
        if isinstance(node, ast.Dict):
            acc = frozenset()
            for k in node.keys:
                acc |= self.taint_of(k)
            for v in node.values:
                acc |= self.taint_of(v)
            return acc
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comprehension_taint(node.generators, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._comprehension_taint(node.generators, [node.key, node.value])
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value)
        if isinstance(node, ast.JoinedStr):
            acc = frozenset()
            for v in node.values:
                acc |= self.taint_of(v)
            return acc
        if isinstance(node, ast.FormattedValue):
            return self.taint_of(node.value)
        if isinstance(node, ast.Slice):
            return (
                self.taint_of(node.lower)
                | self.taint_of(node.upper)
                | self.taint_of(node.step)
            )
        if isinstance(node, ast.Lambda):
            return frozenset()  # deferred execution: out of scope
        if isinstance(node, ast.NamedExpr):
            t = self.taint_of(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = _Scope(None, t)
            return t
        # anything else: visit children generically for their reads
        acc = frozenset()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                acc |= self.taint_of(child)
        return acc

    def _identity_operand_taint(self, node: ast.AST) -> Taint:
        """Taint of an ``is``/``is not`` operand: value taint propagates,
        but a bare object mention is not a signal read."""
        if isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, ast.Name):
            local = self.env.get(node.id)
            return local.taint if local is not None else frozenset()
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            chain = self._chain_of(node)
            if chain is not None:
                if chain[-1] in (("a", "value"), ("a", "nxt")):
                    prefix = chain[:-1]
                    # an actual value, read then compared
                    (self.s.reads if chain[-1][1] == "value"
                     else self.s.staged_reads).add(prefix)
                    return frozenset({("sig", prefix)})
                if chain[-1][0] == "a":
                    self.s.attr_loads.add(chain)
                return frozenset()
        return self.taint_of(node)

    def _comprehension_taint(self, generators, elts) -> Taint:
        saved = dict(self.env)
        acc: Taint = frozenset()
        try:
            for gen in generators:
                it_taint = self.taint_of(gen.iter)
                acc |= it_taint
                self._bind_loop_target(gen.target, gen.iter, it_taint)
                for cond in gen.ifs:
                    acc |= self.taint_of(cond)
            for e in elts:
                acc |= self.taint_of(e)
        finally:
            self.env = saved
        return acc

    def _elements_alias(self, iter_node: ast.AST) -> Optional[Chain]:
        chain = self._chain_of(iter_node)
        if chain is None:
            return None
        return chain + (("e",),)

    def _bind_loop_target(self, target: ast.AST, iter_node: ast.AST,
                          it_taint: Taint) -> None:
        """Bind a for/comprehension target, seeing through ``enumerate``,
        ``dict.values()`` and ``dict.items()``."""
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "enumerate"
            and iter_node.args
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
        ):
            self._bind_target(target.elts[0], None, it_taint)
            self._bind_target(target.elts[1],
                              self._elements_alias(iter_node.args[0]), it_taint)
            return
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and not iter_node.args
        ):
            recv = self._chain_of(iter_node.func.value)
            if recv is not None:
                # an ("e",) step over a dict resolves to its *values*
                if iter_node.func.attr == "values":
                    self._bind_target(target, recv + (("e",),), it_taint)
                    return
                if (
                    iter_node.func.attr == "items"
                    and isinstance(target, ast.Tuple)
                    and len(target.elts) == 2
                ):
                    self._bind_target(target.elts[0], None, it_taint)
                    self._bind_target(target.elts[1], recv + (("e",),), it_taint)
                    return
        self._bind_target(target, self._elements_alias(iter_node), it_taint)

    def _arg_alias(self, node: ast.AST) -> Union[Chain, str, None]:
        """An argument's alias chain, ``_SPREAD`` for ``*args``, else None."""
        if isinstance(node, ast.Starred):
            return _SPREAD
        return self._chain_of(node) if _is_chain_step_pure(node) else None

    def _call_taint(self, node: ast.Call) -> Taint:
        args_taint: Taint = frozenset()
        for a in node.args:
            args_taint |= self.taint_of(a)
        for kw in node.keywords:
            args_taint |= self.taint_of(kw.value)
        func = node.func
        chain = self._chain_of(func)
        line = getattr(node, "lineno", 0)
        if chain is None:
            # A method call on a *computed local* (``new = list(items);
            # new.pop(0)``) mutates a fresh object, not simulation state —
            # unless the method name is a signal accessor, in which case a
            # read/write may be hiding behind the computed expression.
            if isinstance(func, ast.Attribute):
                if func.attr in ("set", "stage", "force", "warp", "drive"):
                    self.s.opaque_writes = True
                elif func.attr in ("bit", "bits", "fires"):
                    self.s.opaque_reads = True
                return args_taint | self.taint_of(func.value)
            self.s.unknown_calls.add(f"{ast.unparse(func)}()")
            return args_taint
        if len(chain) == 1 and chain[0][0] == "r" and chain[0][1] in _PURE_CALLS:
            return args_taint
        last = chain[-1]
        if last[0] == "a":
            name = last[1]
            prefix = chain[:-1]
            if name in ("bit", "bits"):
                self.s.reads.add(prefix)
                return frozenset({("sig", prefix)}) | args_taint
            if name in ("set", "stage", "force", "warp"):
                src = None
                expr: Expr = None
                if name in ("set", "stage") and len(node.args) == 1 \
                        and not node.keywords:
                    src = self._copy_src(node.args[0])
                    expr = self.expr_of(node.args[0])
                self._write({"stage": "stage"}.get(name, name), prefix,
                            args_taint, line, src=src, expr=expr)
                return frozenset()
            if name == "drive":
                self._write("drive", prefix, args_taint, line)
                return frozenset()
            if name in _MUTATORS:
                self.s.attr_stores.add(prefix)
                self.s.attr_loads.add(prefix)
                return args_taint
        # Argument alias chains let resolution bind callee parameters to
        # concrete objects ("pass the unit, not just its op").
        arg_aliases = tuple(self._arg_alias(a) for a in node.args)
        kw_aliases = tuple((kw.arg or _SPREAD, self._arg_alias(kw.value))
                           for kw in node.keywords)
        self.s.calls.add((chain, args_taint, arg_aliases, kw_aliases))
        return frozenset({("call", chain, args_taint)}) | args_taint

    # -- statements ----------------------------------------------------------

    def _bind_target(self, target: ast.AST, alias: Optional[Chain],
                     taint: Taint, src: Optional[Chain] = None,
                     expr: Expr = None) -> None:
        if isinstance(target, ast.Name):
            # a local bound under a condition/loop may hold either arm's
            # value at the join point — its symbolic value goes opaque
            self.env[target.id] = _Scope(
                alias, taint, expr if not self.cond_stack else None
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for e in target.elts:
                self._bind_target(e, None, taint)
        elif isinstance(target, ast.Attribute):
            chain = self._chain_of(target)
            if chain is None:
                if target.attr == "nxt":
                    # a register stage through an unaddressable expression:
                    # the write set may be incomplete
                    self.s.opaque_writes = True
                return
            if chain[-1] == ("a", "nxt"):
                self._write("stage", chain[:-1], taint,
                            getattr(target, "lineno", 0), src=src, expr=expr)
            else:
                self.s.attr_stores.add(chain)
        elif isinstance(target, ast.Subscript):
            base = self._chain_of(target.value)
            if base is not None:
                self.s.attr_stores.add(base)
            self.taint_of(target.slice)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, None, taint)

    def visit_body(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Expr):
            self.taint_of(stmt.value)
        elif isinstance(stmt, ast.Assign):
            taint = self.taint_of(stmt.value)
            src = self._copy_src(stmt.value)
            vexpr = self.expr_of(stmt.value)
            alias = None
            if _is_chain_step_pure(stmt.value):
                alias = self._chain_of(stmt.value)
                if alias is not None and alias[-1] in (("a", "value"), ("a", "nxt")):
                    alias = None  # a *value*, not the signal object
            elif isinstance(stmt.value, ast.Call):
                # `result = helper(...)`: alias the local to the call result,
                # so later `.value` accesses can be classified through the
                # callee's return annotation instead of going opaque.
                fchain = self._chain_of(stmt.value.func)
                if fchain is not None:
                    alias = (("c", fchain),)
            for target in stmt.targets:
                self._bind_target(target, alias, taint, src=src, expr=vexpr)
        elif isinstance(stmt, ast.AugAssign):
            taint = self.taint_of(stmt.value)
            target = stmt.target
            if isinstance(target, ast.Name):
                local = self.env.get(target.id)
                if local is not None:
                    local.taint = local.taint | taint
                    aug = self._aug_expr(local.expr, stmt)
                    local.expr = aug if not self.cond_stack else None
                else:
                    chain = (("r", target.id),)
                    self.s.nonlocal_stores.add(target.id)
                    self.s.uses.add(chain)
            elif isinstance(target, ast.Attribute):
                chain2 = self._chain_of(target)
                if chain2 is not None:
                    if chain2[-1] == ("a", "nxt"):
                        self.s.staged_reads.add(chain2[:-1])
                        self._write("stage", chain2[:-1], taint,
                                    getattr(target, "lineno", 0),
                                    expr=self._aug_expr(
                                        ("read", chain2[:-1]), stmt))
                    else:
                        self.s.attr_stores.add(chain2)
                        self.s.attr_loads.add(chain2)
                elif target.attr == "nxt":
                    self.s.opaque_reads = True
                    self.s.opaque_writes = True
            elif isinstance(target, ast.Subscript):
                base = self._chain_of(target.value)
                if base is not None:
                    self.s.attr_stores.add(base)
                    self.s.attr_loads.add(base)
                self.taint_of(target.slice)
        elif isinstance(stmt, ast.AnnAssign):
            taint = self.taint_of(stmt.value) if stmt.value else frozenset()
            self._bind_target(stmt.target, None, taint,
                              expr=self.expr_of(stmt.value) if stmt.value else None)
        elif isinstance(stmt, (ast.If,)):
            test_taint = self.taint_of(stmt.test)
            test_expr = self.expr_of(stmt.test)
            if test_expr is not None:
                self.s.branches.append(
                    (getattr(stmt.test, "lineno", 0), test_expr)
                )
            self.cond_stack.append(test_taint)
            try:
                self.visit_body(stmt.body)
                self.visit_body(stmt.orelse)
            finally:
                self.cond_stack.pop()
            if self._diverges(stmt.body) or self._diverges(stmt.orelse):
                self.flow_taint = self.flow_taint | test_taint
        elif isinstance(stmt, ast.While):
            test_taint = self.taint_of(stmt.test)
            self.cond_stack.append(test_taint)
            try:
                self.visit_body(stmt.body)
                self.visit_body(stmt.orelse)
            finally:
                self.cond_stack.pop()
        elif isinstance(stmt, ast.For):
            it_taint = self.taint_of(stmt.iter)
            self._bind_loop_target(stmt.target, stmt.iter, it_taint)
            self.cond_stack.append(it_taint)
            try:
                self.visit_body(stmt.body)
                self.visit_body(stmt.orelse)
            finally:
                self.cond_stack.pop()
        elif isinstance(stmt, ast.Return):
            self.taint_of(stmt.value)
        elif isinstance(stmt, (ast.Raise,)):
            if stmt.exc is not None:
                self.taint_of(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self.taint_of(stmt.test)
            if stmt.msg is not None:
                self.taint_of(stmt.msg)
        elif isinstance(stmt, (ast.With,)):
            for item in stmt.items:
                self.taint_of(item.context_expr)
            self.visit_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.visit_body(stmt.body)
            for handler in stmt.handlers:
                self.visit_body(handler.body)
            self.visit_body(stmt.orelse)
            self.visit_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Nonlocal, ast.Global)):
            self.s.nonlocal_stores.update(stmt.names)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested definitions execute later, if ever
        elif isinstance(stmt, (ast.Pass, ast.Break, ast.Continue, ast.Delete,
                               ast.Import, ast.ImportFrom)):
            pass
        else:  # pragma: no cover - future statement kinds
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.taint_of(child)

    @staticmethod
    def _diverges(body) -> bool:
        return any(isinstance(n, (ast.Return, ast.Raise, ast.Continue, ast.Break))
                   for n in body)


# -- parse and summary caches --------------------------------------------------

#: code object -> (dedented source, first source line), or None when the
#: source cannot be read
_SOURCE_CACHE: dict[types.CodeType, Optional[tuple[str, int]]] = {}
_SUMMARY_CACHE: dict[types.CodeType, FnSummary] = {}


def _find_def(tree: ast.AST, name: str, lineno: int):
    """Locate the FunctionDef/Lambda a code object came from (None when
    the source holds several lambdas: it cannot tell which one)."""
    lambdas = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
        elif isinstance(node, ast.Lambda) and name == "<lambda>":
            lambdas.append(node)
    return lambdas[0] if len(lambdas) == 1 else None


def parsed_def(fn: Callable[..., Any]) -> Optional[tuple[ast.AST, int]]:
    """The def or lambda node ``fn`` was compiled from, with the file line
    its extracted source starts on (node line ``k`` is file line
    ``first + k - 1``).  ``None`` when the source cannot be read or holds
    no matching def.

    The source is read once per code object and shared by
    :func:`summarize` and the compiled backend's translator; both cache
    what they derive from it, so each parses it once.  The returned tree
    is the caller's own: it is not cached, because holding every parsed
    def would cost more memory than the rare second parse saves.
    """
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    try:
        entry = _SOURCE_CACHE[code]
    except KeyError:
        try:
            lines, first = inspect.getsourcelines(fn)
            entry = (textwrap.dedent("".join(lines)), first)
        except (OSError, TypeError):
            entry = None
        _SOURCE_CACHE[code] = entry
    if entry is None:
        return None
    source, first = entry
    try:
        node = _find_def(ast.parse(source), code.co_name, code.co_firstlineno)
    except (SyntaxError, ValueError):
        return None
    return None if node is None else (node, first)


def summarize(fn: Callable[..., Any]) -> FnSummary:
    """Symbolic summary of a process function (cached per code object)."""
    code = getattr(fn, "__code__", None)
    if code is None:
        s = FnSummary()
        s.parse_failed = True
        return s
    cached = _SUMMARY_CACHE.get(code)
    if cached is not None:
        return cached
    summary = FnSummary()
    parsed = parsed_def(fn)
    try:
        if parsed is None:
            raise SyntaxError(f"no def {code.co_name!r} in extracted source")
        node = parsed[0]
        analyzer = _Analyzer(summary)
        if isinstance(node, ast.Lambda):
            analyzer.taint_of(node.body)
        else:
            analyzer.visit_body(node.body)
    except (SyntaxError, TypeError, ValueError):
        summary = FnSummary()
        summary.parse_failed = True
    _SUMMARY_CACHE[code] = summary
    return summary


# -- resolution ---------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedWrite:
    """A write site with its target and dependencies as concrete signals."""

    kind: str
    targets: tuple  # Signal objects (an ("e",) target fans out)
    deps: frozenset  # Signal objects the written value/control depends on
    line: int
    #: concrete source signal of a pure ``dst.set(src.value)`` copy
    src: Optional[Signal] = None
    #: resolved symbolic value tree — like :data:`Expr` but with
    #: ("sig", Signal) leaves for signal reads and ("attr", v, owner_id,
    #: name) for attribute-derived constants (provenance lets the solver
    #: reject constants whose owner attribute some process mutates);
    #: ``None`` when the written value is outside the model
    expr: Optional[tuple] = None


@dataclass
class ResolvedFn:
    """Concrete (per-instance) view of one process function.

    The lint rules and the compiled backend's placement decision
    (:func:`repro.hdl.compile.frontend.place`) read the same instance: a
    build resolves each process once.
    """

    signal_reads: set = field(default_factory=set)  # Signal objects
    #: the part of ``signal_reads`` a run can record under read tracking:
    #: every signal but those read only through ``Reg.nxt``
    tracked_reads: set = field(default_factory=set)
    writes: list = field(default_factory=list)  # [ResolvedWrite]
    #: (id(owner), attr) → (dotted source text, owner): hidden-attribute loads
    hidden_loads: dict = field(default_factory=dict)
    #: (id(owner), attr) → the value each hidden load gave when sampled at
    #: resolution (``MISSING`` when the load raised)
    loaded: dict = field(default_factory=dict)
    #: signals property getters read while the hidden loads were sampled,
    #: under read tracking
    getter_reads: set = field(default_factory=set)
    #: keys of the ``hidden_loads`` whose owner is only ever a signal's
    #: current value, sampled at resolution (a parameter bound to
    #: ``sig.value``): what it holds at run time is a read of that signal
    sampled_loads: set = field(default_factory=set)
    #: (id(owner), attr) → owner: attribute stores / container mutations
    hidden_stores: dict = field(default_factory=dict)
    nonlocal_stores: set = field(default_factory=set)
    #: (line, resolved test tree) for every modelable ``if`` guard
    branches: list = field(default_factory=list)
    #: each call the resolution could not see through, named with the
    #: function it sits in (``fmt.inf() in softfloat.pack``)
    unknown_calls: set = field(default_factory=set)
    #: some reads could not be attributed (read set may be incomplete)
    opaque_reads: bool = False
    #: some writes could not be attributed (write set may be incomplete)
    opaque_writes: bool = False
    parse_failed: bool = False

    @property
    def read_complete(self) -> bool:
        """True when ``signal_reads`` ∪ ``hidden_loads`` provably covers
        every input — the condition for a static wake set."""
        return not (self.parse_failed or self.unknown_calls or self.opaque_reads)

    @property
    def write_complete(self) -> bool:
        """True when the write sites provably cover every output."""
        return not (self.parse_failed or self.unknown_calls or self.opaque_writes)

    @property
    def set_targets(self) -> frozenset:
        """Signals written through ``set``/``force``/``warp``/``drive``."""
        return frozenset(t for w in self.writes if w.kind != "stage"
                         for t in w.targets)


#: where the chains of one function start: a name → its value, or MISSING
_Env = Callable[[str], Any]


def _env(fn: Callable[..., Any], bindings: Optional[dict]) -> _Env:
    """``fn``'s roots: the caller's bindings of its parameters (inlining),
    else its own scope (:func:`~repro.hdl.live.lookup`)."""
    bound = bindings or {}
    return lambda name: (bound[name] if name in bound
                         else lookup(fn, name)[0])


#: placeholder for "some value proven not to be a Signal": a call result by
#: its annotation, or a number passed to a helper (a run-time value)
_NONSIG = object()

_RETURN_CLASS_CACHE: dict[Any, Optional[type]] = {}


def _return_class(fn: Any) -> Optional[type]:
    """The concrete class ``fn`` is annotated to return, if provable."""
    key = getattr(fn, "__func__", fn)
    try:
        return _RETURN_CLASS_CACHE[key]
    except (KeyError, TypeError):
        pass
    cls: Optional[type] = None
    try:
        import typing

        hints = typing.get_type_hints(key)
        r = hints.get("return")
        if not isinstance(r, type) and typing.get_origin(r) is typing.Union:
            # unwrap Optional[X] — the None arm only ever fails attribute
            # steps, which already resolve conservatively
            args = [a for a in typing.get_args(r) if a is not type(None)]
            if len(args) == 1:
                r = args[0]
        if isinstance(r, type):
            cls = r
    except Exception:
        cls = None
    try:
        _RETURN_CLASS_CACHE[key] = cls
    except TypeError:
        pass
    return cls


def _resolve_chain(chain: Chain, env: _Env) -> Optional[list]:
    """Resolve a chain to the list of objects it can address, or None."""
    if not chain:
        return None
    objs: list[Any] = []
    first = chain[0]
    if first[0] == "c":
        # call-result root: resolvable only to the *class* of the result —
        # enough to rule a `.value` access in or out as a signal read
        fns = _resolve_chain(first[1], env)
        if fns is None:
            return None
        for f in fns:
            cls = _return_class(f)
            if cls is None or issubclass(cls, (Signal, Stream)):
                return None
            objs.append(_NONSIG)
    elif first[0] != "r":
        return None
    else:
        root = env(first[1])
        if root is MISSING:
            return None
        objs = [root]
    for step in chain[1:]:
        nxt: list[Any] = []
        for obj in objs:
            if step[0] == "a":
                val = load(obj, step[1])
                if val is MISSING:
                    return None
                nxt.append(val)
            elif step[0] == "i":
                try:
                    nxt.append(obj[step[1]])
                except Exception:
                    return None
            else:  # ("e",) — every element
                if isinstance(obj, (list, tuple)):
                    items = list(obj)
                elif isinstance(obj, dict):
                    items = list(obj.values())
                else:
                    return None
                if len(items) > _MAX_ELEMENTS:
                    return None
                nxt.extend(items)
        objs = nxt
    return objs


def _resolve_expr(expr: Expr, env: _Env) -> Optional[tuple]:
    """Resolve a symbolic value tree against a concrete environment.

    Signal-read leaves must resolve to exactly one numeric :class:`Signal`;
    attribute/global leaves must resolve to exactly one int (recorded with
    provenance so the solver can discount mutated attributes).  Anything
    else makes the whole tree opaque (returns None).
    """
    if expr is None:
        return None
    tag = expr[0]
    if tag == "const":
        return expr
    if tag == "read":
        objs = _resolve_chain(expr[1], env)
        if objs is None or len(objs) != 1:
            return None
        sig = objs[0]
        if not isinstance(sig, Signal) or sig.width is None:
            return None
        return ("sig", sig)
    if tag in ("bit", "bits"):
        objs = _resolve_chain(expr[1], env)
        if objs is None or len(objs) != 1:
            return None
        sig = objs[0]
        if not isinstance(sig, Signal) or sig.width is None:
            return None
        return (tag, sig) + expr[2:]
    if tag == "chainval":
        chain = expr[1]
        objs = _resolve_chain(chain, env)
        if objs is None or len(objs) != 1:
            return None
        v = objs[0]
        if not isinstance(v, int):  # bool is an int; Signals are not
            return None
        last = chain[-1]
        if last[0] == "a" and len(chain) > 1:
            owners = _resolve_chain(chain[:-1], env)
            if owners is None or len(owners) != 1:
                return None
            return ("attr", int(v), id(owners[0]), last[1])
        if last[0] == "i" and len(chain) > 1:
            owners = _resolve_chain(chain[:-1], env)
            if owners is None or len(owners) != 1:
                return None
            return ("attr", int(v), id(owners[0]), "[]")
        if last[0] == "r":
            # module-global / closure constant: provenance by name only
            return ("attr", int(v), 0, last[1])
        return None
    if tag not in ("bin", "un", "cmp", "bool", "ifexp", "call"):
        return None
    parts: list = [tag]
    for part in expr[1:]:
        if type(part) is str:  # an operator or a callee name
            parts.append(part)
        elif type(part[0]) is str:  # one sub-tree
            sub = _resolve_expr(part, env)
            if sub is None:
                return None
            parts.append(sub)
        else:  # boolean arms or call arguments
            subs = tuple(_resolve_expr(a, env) for a in part)
            if any(a is None for a in subs):
                return None
            parts.append(subs)
    return tuple(parts)


class _Resolver:
    """Applies a symbolic summary to one concrete function instance."""

    def __init__(self) -> None:
        self.out = ResolvedFn()
        self._seen: set = set()
        #: hidden-load keys met through a sampled signal value, and through
        #: anything else
        self._sampled: set = set()
        self._structural: set = set()

    def run(self, fn: Callable[..., Any], depth: int = 0,
            bindings: Optional[dict] = None,
            sampled: frozenset = frozenset()) -> ResolvedFn:
        """Resolve ``fn`` into ``self.out``; ``bindings`` are caller-resolved
        arguments, ``sampled`` the names among them bound to a signal's
        current value."""
        summary = summarize(fn)
        if summary.parse_failed:
            self.out.parse_failed = True
            return self.out
        key = (
            fn.__code__,
            id(getattr(fn, "__self__", None)),
            tuple(sorted((n, id(v)) for n, v in (bindings or {}).items())),
            sampled,
        )
        if key in self._seen:
            return self.out
        self._seen.add(key)
        env = _env(fn, bindings)
        out = self.out
        where = _where(fn)
        out.unknown_calls.update(f"{c} in {where}" for c in summary.unknown_calls)
        out.opaque_reads |= summary.opaque_reads
        out.opaque_writes |= summary.opaque_writes
        out.nonlocal_stores.update(summary.nonlocal_stores)

        for chain in summary.reads | summary.staged_reads:
            objs = _resolve_chain(chain, env)
            if objs is None:
                out.opaque_reads = True
                continue
            tracked = chain in summary.reads
            for obj in objs:
                if isinstance(obj, Signal):
                    out.signal_reads.add(obj)
                    if tracked:
                        out.tracked_reads.add(obj)

        for chain in summary.uses:
            objs = _resolve_chain(chain, env)
            if objs is None:
                continue  # bare-use of an unresolvable name: not evidence
            for obj in objs:
                if isinstance(obj, Signal):
                    out.signal_reads.add(obj)
                    out.tracked_reads.add(obj)

        for chain in summary.attr_loads:
            if len(chain) < 2 or chain[-1][0] != "a":
                continue
            objs = _resolve_chain(chain[:-1], env)
            if objs is None:
                continue
            attr = chain[-1][1]
            met = (self._sampled if _sampled_chain(chain[:-1], env, sampled)
                   else self._structural)
            for owner in objs:
                reads: set = set()
                with _tracking(reads=reads):
                    val = load(owner, attr)
                if isinstance(val, (Signal, Stream)) or callable(val):
                    continue
                key = (id(owner), attr)
                out.hidden_loads[key] = (_chain_text(chain), owner)
                out.loaded[key] = val
                out.getter_reads |= reads
                met.add(key)

        for chain in summary.attr_stores:
            if len(chain) < 2:
                continue  # hidden-state rules need positive evidence only
            attr = chain[-1][1] if chain[-1][0] == "a" else "[]"
            prefix = chain[:-1] if chain[-1][0] == "a" else chain
            objs = _resolve_chain(prefix, env)
            if objs is None:
                continue
            for owner in objs:
                val = load(owner, attr) if attr != "[]" else MISSING
                if isinstance(val, (Signal,)):
                    continue  # rebinding a Signal attribute is its own problem
                out.hidden_stores[(id(owner), attr)] = owner

        for site in summary.writes:
            self._resolve_write(site, env, depth)

        for line, bexpr in summary.branches:
            rexpr = _resolve_expr(bexpr, env)
            if rexpr is not None:
                out.branches.append((line, rexpr))

        # in a fixed order: a callee first reached at a smaller depth keeps
        # its callees inside the inline cap, so the order decides the result
        for chain, args_taint, arg_aliases, kw_aliases in sorted(
                summary.calls, key=_call_order):
            self._resolve_call(chain, args_taint, (arg_aliases, kw_aliases),
                               env, depth, sampled, where)
        return self.out

    # -- pieces ---------------------------------------------------------------

    def _resolve_write(self, site: WriteSite, env: _Env,
                       depth: int) -> None:
        out = self.out
        targets = _resolve_chain(site.target, env)
        if targets is None:
            out.opaque_writes = True
            return
        deps = self._taint_signals(site.taint, env, depth)
        if site.kind == "drive":
            sig_targets: list[Signal] = []
            for obj in targets:
                if isinstance(obj, Stream):
                    sig_targets.extend((obj.valid, obj.payload))
            targets = sig_targets
        else:
            targets = [t for t in targets if isinstance(t, Signal)]
        if not targets:
            return
        src_sig = None
        if site.src is not None:
            src_objs = _resolve_chain(site.src, env)
            if src_objs and len(src_objs) == 1 and isinstance(src_objs[0], Signal):
                src_sig = src_objs[0]
        out.writes.append(
            ResolvedWrite(
                kind="set" if site.kind == "drive" else site.kind,
                targets=tuple(targets),
                deps=frozenset(deps),
                line=site.line,
                src=src_sig,
                expr=_resolve_expr(site.expr, env),
            )
        )

    def _resolve_call(self, chain: Chain, args_taint: Taint,
                      args: tuple, env: _Env,
                      depth: int, sampled: frozenset, where: str) -> None:
        out = self.out
        call = f"{_chain_text(chain)}() in {where}"
        objs = _resolve_chain(chain, env)
        if objs is None:
            # A method missing on a *resolved* receiver marks a dead branch
            # for this instance (mode-gated code, e.g. reliable-only paths):
            # were the call live it would raise AttributeError, not act.
            if len(chain) >= 2 and chain[-1][0] == "a":
                owners = _resolve_chain(chain[:-1], env)
                if owners is not None and all(
                    load(o, chain[-1][1]) is MISSING for o in owners
                ):
                    return
            out.unknown_calls.add(call)
            return
        for obj in objs:
            if obj is None:
                continue  # guarded-call pattern: `if self._hook is not None: ...`
            if isinstance(obj, types.MethodType):
                owner = obj.__self__
                if isinstance(owner, Stream) and obj.__name__ == "fires":
                    for sig in (owner.valid, owner.ready):
                        out.signal_reads.add(sig)
                        out.tracked_reads.add(sig)
                    continue
                self._inline(obj, args, env, depth, sampled, call)
            elif isinstance(obj, (types.FunctionType,)):
                self._inline(obj, args, env, depth, sampled, call)
            elif isinstance(obj, type) or isinstance(obj, types.BuiltinFunctionType):
                # constructors (dataclasses, exceptions) and builtin/container
                # methods neither read nor write simulation signals
                continue
            else:
                out.unknown_calls.add(f"{call} (a {type(obj).__name__})")

    def _inline(self, obj: Any, args: tuple, env: _Env,
                depth: int, sampled: frozenset, call: str) -> None:
        if depth >= _MAX_INLINE_DEPTH:
            self.out.unknown_calls.add(
                f"{call} (inline depth {_MAX_INLINE_DEPTH} reached)")
            return
        passed = self._passed(obj, *args)
        values = frozenset(
            name for name, alias in passed.items()
            if alias is not None and _sampled_chain(alias, env, sampled))
        for bindings in self._param_bindings(passed, env):
            self.run(obj, depth + 1, bindings=bindings,
                     sampled=values.intersection(bindings))

    @staticmethod
    def _passed(obj: Any, arg_aliases: tuple, kw_aliases: tuple) -> dict:
        """Each parameter of ``obj`` a call passes → the argument's alias
        chain, or None where the call passes a value the chain cannot name
        (``*args`` and ``**mapping`` may pass every later parameter).  A
        bound method's receiver comes from the method."""
        code = getattr(obj, "__code__", None)
        if code is None:
            return {}
        first = 1 if isinstance(obj, types.MethodType) else 0
        positional = code.co_varnames[first:code.co_argcount]
        named = code.co_varnames[first:code.co_argcount + code.co_kwonlyargcount]
        passed: dict = {}
        for k, alias in enumerate(arg_aliases):
            if alias == _SPREAD:
                for name in positional[k:]:
                    passed[name] = None
                break
            if k < len(positional):
                passed[positional[k]] = alias
        for name, alias in kw_aliases:
            if name == _SPREAD:
                for other in named:
                    passed.setdefault(other, None)
            elif name in named:
                passed[name] = alias
        return passed

    @staticmethod
    def _param_bindings(passed: dict, env: _Env) -> list:
        """Caller-side argument bindings for inlining a callee.

        A passed argument whose *alias chain* resolves in the caller's
        environment to objects is bound to the callee's parameter name, so
        chains rooted at that parameter resolve inside the callee.  A single
        multi-valued argument (e.g. a loop variable over ``self.units``) fans
        out into one binding set per candidate object, capped small.  No
        passed parameter sees its default: a number (a signal's current
        value, a counter) is a run-time value and binds ``_NONSIG``, any
        other argument binds ``MISSING`` (unknown).
        """
        combos: list[dict] = [{}]
        for name, alias in passed.items():
            cands = _resolve_chain(alias, env) if alias is not None else None
            if not cands:
                value = MISSING
            elif any(isinstance(c, (int, float)) for c in cands):
                value = _NONSIG
            elif len(cands) == 1:
                value = cands[0]
            elif len(cands) <= 16 and len(combos) == 1:
                combos = [dict(combos[0], **{name: cand}) for cand in cands]
                continue
            else:
                value = MISSING
            for c in combos:
                c[name] = value
        return combos

    def _taint_signals(self, taint: Taint, env: _Env, depth: int) -> set:
        """Expand taint elements to the concrete signals they may read."""
        deps: set = set()
        for elem in taint:
            objs = _resolve_chain(elem[1], env)
            if objs is None:
                continue
            if elem[0] == "sig":
                deps.update(obj for obj in objs if isinstance(obj, Signal))
                continue
            for obj in objs:  # ("call", chain, args)
                if isinstance(obj, types.MethodType) and \
                        isinstance(obj.__self__, Stream) and obj.__name__ == "fires":
                    deps.add(obj.__self__.valid)
                    deps.add(obj.__self__.ready)
                elif isinstance(obj, (types.MethodType, types.FunctionType)) \
                        and depth < _MAX_INLINE_DEPTH:
                    deps.update(_Resolver().run(obj, depth + 1).signal_reads)
            deps.update(self._taint_signals(elem[2], env, depth))
        return deps


def _call_order(call: tuple) -> tuple:
    """A set-order-free sort key for a :attr:`FnSummary.calls` entry."""
    chain, _taint, arg_aliases, kw_aliases = call
    return _chain_text(chain), repr(arg_aliases), repr(kw_aliases)


def _where(fn: Callable[..., Any]) -> str:
    """``module.qualname`` of a function, module without its package."""
    fn = getattr(fn, "__func__", fn)
    return f"{(fn.__module__ or '?').rpartition('.')[2]}.{fn.__qualname__}"


def _chain_text(chain: Chain) -> str:
    parts: list[str] = []
    for step in chain:
        if step[0] == "r":
            parts.append(step[1])
        elif step[0] == "a":
            parts.append(f".{step[1]}")
        elif step[0] == "i":
            parts.append(f"[{step[1]}]")
        elif step[0] == "c":
            parts.append(f"{_chain_text(step[1])}()")
        else:
            parts.append("[*]")
    return "".join(parts)


def resolve(fn: Callable[..., Any]) -> ResolvedFn:
    """Summarize + resolve one process function against its live closure.

    The inline depth covers helper-method bodies (``self._delivering()``
    resolves through the *instance*, so subclass overrides are analysed).
    Reads discovered through inlined callees merge into the caller's view.
    """
    with _tracking(None, None):
        resolver = _Resolver()
        out = resolver.run(fn)
    out.sampled_loads = resolver._sampled - resolver._structural
    return out


def _sampled_chain(chain: Chain, env: _Env,
                   sampled: frozenset) -> bool:
    """True when ``chain`` addresses a signal's current value: its root is
    a ``sampled`` name, or it steps through ``.value``/``.nxt`` of a
    signal."""
    if chain and chain[0][0] == "r" and chain[0][1] in sampled:
        return True
    for k, step in enumerate(chain):
        if k and step in (("a", "value"), ("a", "nxt")):
            objs = _resolve_chain(chain[:k], env)
            if objs and all(isinstance(o, Signal) for o in objs):
                return True
    return False


__all__ = [
    "Chain",
    "Expr",
    "FnSummary",
    "ResolvedFn",
    "ResolvedWrite",
    "WriteSite",
    "parsed_def",
    "resolve",
    "summarize",
]
