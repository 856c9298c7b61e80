"""Compiler front end: process placement and residual translation.

:func:`place` decides where the generated module runs each process.  It
is the only such decision: :class:`~.engine.CompiledSimulator` plans from
it, and the ``compile.fallback`` lint rule reports from it, both on the
same :class:`~repro.analysis.lint.astpass.ResolvedFn`.

* **absorbed** — the process sits in the subtree of a component that
  publishes ``__compile_vector__`` (:func:`.vector.absorbed_procs`); a
  vector executor replaces it.
* **static slot** — the read closure is proven: the process runs whenever
  a signal in its wake set (its signal reads plus the reads of the
  property getters along its paths, ``ResolvedFn.getter_reads``; for a
  pure sequential process, without the reads made only through
  ``Reg.nxt``) changes, as the event kernel's notification queue would
  run it.
* **read-tracked** — the closure could not be proven (opaque reads,
  unknown calls, late-bound hidden state, an unmanaged signal; for a pure
  sequential process also unknown writes): the function runs interpreted
  from a wake slot, under read tracking, whenever a signal one of its runs
  read changes — exactly how the event kernel schedules it.
* **every sweep** — a comb process declared ``always=True``, or a proven
  writer whose inputs are all hidden.
* **every edge** — an impure sequential process that may not sleep in a
  slot: unprovable, storing hidden state, writing with ``set()`` or
  loading hidden state that can change.

Every placement outside a static slot or absorption carries its reason.
Only the wake flag decides whether a process runs.  Hidden attribute
loads wake nothing, because the event kernel's dynamic sensitivity
watches only signals.

Every process outside a read-tracked slot, and every time-wheel hook
(``Component.wheel``), runs its *specialized body* (:class:`Specializer`):
the :class:`Translator` rewrites the signal accesses it can resolve to a
structural signal into inline code on hoisted objects (``_h3._value``,
inline set/stage stores) and keeps every other statement verbatim.  The
result is a function over the original's globals and closure cells, so
names behave as in the original.  Bodies are built once per code object
and classification (:class:`Template`), and bound to a process by
:func:`instantiate`; a body that rebinds names through
``nonlocal``/``global``, yields, or defines a nested function bails out
whole and runs as written, and :meth:`Specializer.specialize` says why.
Each body's source comes from the AST pass's per-code-object cache
(:func:`~repro.analysis.lint.astpass.parsed_def`).
"""

from __future__ import annotations

import __future__

import ast
import linecache
import re
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Container, Iterable, Optional

from ...analysis.dataflow import domain as _dom
from ...analysis.lint.astpass import ResolvedFn, parsed_def, summarize
from ..components import Stream
from ..live import MISSING, cell, declared, is_enum_class, lookup, own
from ..signal import _UNSET, CHANGES, Reg, Signal

__all__ = [
    "Placement",
    "place",
    "hidden_loads_constant",
    "Specialized",
    "Specializer",
    "Template",
    "Translator",
    "Untranslatable",
    "follow",
    "instantiate",
    "kernel_cells",
]

#: value types the translator folds into a literal
_SCALAR_TYPES = (int, float, str, bool, type(None))


def _constant_load(owner: Any, attr: str) -> bool:
    """True when the hidden load ``owner.attr`` can never change: the
    owner fixes it (:func:`~repro.hdl.live.declared`) and is itself a fixed
    root.  A hidden load records only its last hop, so of all owners only
    an enum class is one (see :meth:`Specializer.walk`): in
    ``self.cfg.level`` the host may rebind ``self.cfg`` itself, so a
    frozen owner proves nothing.
    """
    rule = declared(owner, attr) if is_enum_class(owner) else None
    return rule is not None and rule[1]


def _placeholder(res: ResolvedFn, key: tuple, owner: Any) -> bool:
    """True when a hidden load's owner is no evidence of late-bound state:
    a probe placeholder (``None`` or a bare ``object``), or a signal's
    current value sampled at resolution (``ResolvedFn.sampled_loads``).
    The AST pass resolved a value read onto it, and that signal is already
    in ``res.signal_reads``."""
    return owner is None or type(owner) is object or key in res.sampled_loads


def _missing_load(res: ResolvedFn) -> Optional[str]:
    """The first hidden load (``Class.attr``) a real owner lacks, or None."""
    for key, (_text, owner) in res.hidden_loads.items():
        if res.loaded[key] is MISSING and not _placeholder(res, key, owner):
            return f"{type(owner).__name__}.{key[1]}"
    return None


def _stable(signals: set) -> list[Signal]:
    """Sorted so generated source is stable."""
    return sorted(signals, key=lambda s: (s.name, id(s)))


def hidden_loads_constant(res: ResolvedFn) -> bool:
    """True when every hidden load is a compile-time constant (see
    :func:`_constant_load`) or misses on a probe placeholder (``None`` or
    a bare ``object``).  The event kernel runs an impure seq process on
    every edge, so it sees a rebound attribute at once; a wake slot may
    stand in for one only then.  A field of a sampled signal value is no
    constant: the object may change in place."""
    for key, (_text, owner) in res.hidden_loads.items():
        if res.loaded[key] is MISSING \
                and (owner is None or type(owner) is object):
            continue
        if not _constant_load(owner, key[1]):
            return False
    return True


@dataclass(frozen=True)
class Placement:
    """Where the compiled backend runs one process (see :func:`place`)."""

    #: "absorbed" | "slot" | "tracked" | "sweep" | "edge"
    kind: str
    #: a static slot's wake set
    wake: list = field(default_factory=list)
    #: why the process has no static slot ("" for a slot or absorbed)
    reason: str = ""


def _unprovable(res: ResolvedFn) -> str:
    """Why ``res`` has no static read closure (see :func:`place`)."""
    if res.parse_failed:
        return "source unavailable to the AST pass"
    if res.unknown_calls:
        calls = ", ".join(sorted(res.unknown_calls))
        return f"calls the front end cannot see through: {calls}"
    if res.opaque_reads:
        return "reads the front end cannot enumerate"
    return f"hidden input {_missing_load(res)} is late-bound, unset at elaboration"


def _dormancy_blocker(res: ResolvedFn, pure: bool) -> str:
    """Why a proven seq process may not sleep in a wake slot, or "".

    Dormancy is sound when re-running the process on unchanged signals
    restages the same values: every write is known.  A declared-pure
    process keeps the event kernel's dormancy contract, under which a run
    that stages nothing mutates nothing, so the hidden state it stores
    (counters, deframer state) does not count against it.  An impure one
    must also store no hidden state, write no signal with ``set()`` and
    load only hidden state that cannot change.
    """
    if not res.write_complete:
        return "writes the front end cannot enumerate"
    if pure:
        return ""
    if res.hidden_stores:
        stored = sorted({f"{type(owner).__name__}.{attr}"
                         for (_oid, attr), owner in res.hidden_stores.items()})
        return f"stores hidden state {', '.join(stored)}"
    if res.nonlocal_stores:
        return f"rebinds {', '.join(sorted(res.nonlocal_stores))}"
    if res.set_targets:
        return "writes signals with set()"
    if not hidden_loads_constant(res):
        return "loads hidden state that can change"
    return ""


def place(resolve: Callable[[], ResolvedFn], *, seq: bool,
          managed: Container[Signal], always: bool = False,
          pure: bool = False, absorbed: bool = False) -> Placement:
    """Where the compiled backend runs one process, and why.

    ``resolve`` yields the process's :class:`ResolvedFn`.  It is called
    only when the decision needs it — never for an absorbed or
    ``always=True`` process — and an exception from it counts as an
    unprovable closure.  ``managed`` holds the signals whose changes reach
    the simulator's pending list; a flag cannot carry a wake set holding
    any other signal.

    A declared-pure seq process's wake set leaves out the signals it reads
    only through ``Reg.nxt``: the event kernel's read tracking never
    records those, so a change to one never re-arms the process there.
    With its closure proven and its writes known, such a process sleeps in
    a static slot from its first edge.  Until the event kernel has
    discovered the whole wake set, the slot may run the process on a
    change the event kernel does not see; that run re-reads the values
    its last run read, takes the same path and, under the pure contract,
    stages and mutates nothing.
    """
    if absorbed:
        return Placement("absorbed")
    if always:
        return Placement("sweep", reason="declared always=True")
    fallback = "edge" if seq and not pure else "tracked"
    try:
        res = resolve()
    except Exception:
        return Placement(fallback, reason="closure resolution failed")
    if not res.read_complete or _missing_load(res) is not None:
        return Placement(fallback, reason=_unprovable(res))
    # the event kernel's read tracking is live while a property getter runs
    # inside the process, so it subscribes to the getter's reads too; like
    # the body, a getter is assumed to read a fixed signal set
    reads = res.tracked_reads if seq and pure else res.signal_reads
    wake = _stable(reads | res.getter_reads)
    if any(sig not in managed for sig in wake):
        return Placement(fallback,
                         reason="reads signals this simulator does not manage")
    reason = _dormancy_blocker(res, pure) if seq else ""
    if reason:
        return Placement(fallback, reason=reason)
    if not seq and not wake and res.set_targets:
        # the event kernel runs a writer with no tracked read every sweep
        return Placement("sweep",
                         reason="writes signals but reads hidden inputs only")
    return Placement("slot", wake)


# -- the translator -----------------------------------------------------------


class Untranslatable(Exception):
    """A body that must run as its original function: its source cannot be
    parsed or no longer matches its code object, or it rebinds names
    through ``nonlocal``/``global``, yields, awaits, or defines a nested
    function, class or lambda."""


#: builtins the width-only evaluator models, matched by identity: a module
#: that rebinds one of these names keeps its own binding
_MODELED_BUILTINS = (int, bool, abs, len, min, max)

#: kernel internals every specialized body may close over: the change
#: tracker, the unset sentinel, the staged-register list, the simulator's
#: pending list and ``int`` (immune to a module rebinding the name)
KERNEL_NAMES = ("_CH", "_U", "_SL", "_CHG", "_INT")

_RESERVED = re.compile(r"_h\d+|_v|" + "|".join(KERNEL_NAMES))

#: constructs that make a body bail out whole
_BAIL_NODES = (ast.Nonlocal, ast.Global, ast.Yield, ast.YieldFrom, ast.Await,
               ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda,
               ast.AsyncFor, ast.AsyncWith)

#: every flag a ``from __future__`` import can set: a specialized body is
#: compiled under the ones its original was
_FUTURE_FLAGS = 0
for _feature in __future__.all_feature_names:
    _FUTURE_FLAGS |= getattr(__future__, _feature).compiler_flag

_SIGNALS = ("sig", "reg")


#: objects whose attributes are code or namespaces, never structure
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.MethodType)


def _step(obj: Any, step: Any, stored: set) -> tuple[Any, bool]:
    """One step of a structural path: ``(object, rebind-proof constant)``.

    Followed: members of enum classes and fields of frozen dataclasses
    (rebind-proof when :func:`~repro.hdl.live.declared` says so), constant
    indexes on lists and tuples, and what an object holds itself (its
    ``__dict__`` entries and slots, never a property, read without
    materializing ``__dict__``: :func:`~repro.hdl.live.own`) under a name
    no process stores — how components, streams and port bundles hold
    their signals."""
    if type(step) is int:
        if type(obj) in (list, tuple) and -len(obj) <= step < len(obj):
            return obj[step], False
        return MISSING, False
    rule = declared(obj, step)
    if rule is not None:
        return rule
    if isinstance(obj, _OPAQUE) or step in stored:
        return MISSING, False
    return own(obj, step), False


@dataclass
class Template:
    """A specialized body, shared by every process compiled from one code
    object whose resolved paths classify the same way."""

    #: the body's code object: original filename and line numbers, free
    #: variables = the original's plus hoisted ``_h<k>`` and kernel names
    code: types.CodeType
    #: every path the translator resolved, and how each classified
    paths: tuple
    keys: tuple
    #: index into ``paths`` of each hoisted object, in ``_h<k>`` order
    hoisted: tuple
    source: str
    masks_elided: int
    branches_folded: int


@dataclass
class Specialized:
    """One process's specialized body: a template bound to its objects."""

    fn: Callable[[], Any]
    template: Template
    objects: tuple


#: (code object, value mode) -> its templates, or why the body bails out
#: whole and runs as written
_TEMPLATES: dict[tuple, "list[Template] | str"] = {}


class Specializer:
    """Specialized bodies for the processes of one simulator.

    A body is built once per code object and classification (see
    :class:`Template`); :func:`instantiate` binds it to one process.
    ``procs`` are the design's process functions: a path through an
    attribute of a name some process body stores (a signal swapped at run
    time, say), or through a closure cell some process rebinds, is not
    structural and stays verbatim.
    """

    def __init__(self, changed: list, staged: list,
                 procs: Iterable[Callable[..., Any]] = ()):
        self.changed = changed
        self.staged = staged
        self.stored: set = set()
        self.rebound_cells: set = set()
        for fn in procs:
            summary = summarize(fn)
            self.stored.update(chain[-1][1] for chain in summary.attr_stores
                               if chain and chain[-1][0] == "a")
            self.rebound_cells.update(
                id(c) for name in summary.nonlocal_stores
                if (c := cell(fn, name)) is not None)

    def walk(self, fn: Callable[..., Any], path: tuple) -> tuple[Any, bool]:
        """Resolve ``path`` (root name, then attribute names and constant
        indexes) in ``fn``'s scope: ``(object, rebind-proof constant)``.
        The root resolves by :func:`~repro.hdl.live.lookup`; of what it
        finds, only parameters, closure cells no process rebinds and, for
        enum classes and modeled builtins, globals and builtins start a
        path.

        A path is a constant only when no step of it can be rebound: its
        root is an enum class, the bound receiver or a parameter default
        (never a closure cell, which a nested function may rebind), and
        every step is an enum member or a frozen-dataclass field.  One
        mutable step anywhere — ``self.cfg`` in ``self.cfg.level`` — and
        the host can swap what the rest of the path reads."""
        name = path[0]
        obj, where = lookup(fn, name)
        if where == "cell":
            if self.rebound_cells and id(cell(fn, name)) in self.rebound_cells:
                return MISSING, False
            const = False
        elif where == "global":
            if not (is_enum_class(obj)
                    or any(obj is b for b in _MODELED_BUILTINS)):
                return MISSING, False
            const = is_enum_class(obj)
        else:  # the receiver or a parameter's default
            const = True
        for step in path[1:]:
            if obj is MISSING:
                break
            try:
                obj, fixed = _step(obj, step, self.stored)
            except Exception:
                return MISSING, False
            const = const and fixed
        return obj, len(path) > 1 and const and obj is not MISSING

    def classify(self, obj: Any, const: bool) -> Optional[tuple]:
        """What the translator may assume about a resolved object."""
        if obj is MISSING:
            return None
        t = type(obj)
        if t is Signal:
            return ("sig", obj._mask, obj._pending is self.changed)
        if t is Reg:
            return ("reg", obj._mask, obj._pending is self.changed,
                    obj._stage_list is self.staged)
        if t is Stream:
            return ("stream",)
        if const and obj == obj:  # a NaN would never match its own key
            return ("const", t, obj)
        for b in _MODELED_BUILTINS:
            if obj is b:
                return ("builtin", b.__name__)
        return ("obj",)

    def specialize(self, fn: Callable[..., Any],
                   value: bool = False) -> "tuple | str":
        """``fn``'s template and the objects its hoisted names bind, or why
        the body bails out whole.  ``value``: the caller uses what ``fn``
        returns (a wheel hook), so a lambda body returns its expression."""
        code = getattr(fn, "__code__", None)
        if code is None:
            return f"{type(fn).__name__} is not a Python function"
        templates = _TEMPLATES.setdefault((code, value), [])
        if isinstance(templates, str):
            return templates
        for template in templates:
            objects = self._match(fn, template)
            if objects is not None:
                return template, objects
        try:
            template = Translator(fn, self, value).translate()
        except Untranslatable as exc:
            _TEMPLATES[(code, value)] = reason = str(exc)
            return reason
        templates.append(template)
        return template, tuple(self.walk(fn, template.paths[k])[0]
                               for k in template.hoisted)

    def _match(self, fn: Callable[..., Any],
               template: Template) -> Optional[tuple]:
        resolved = []
        for path, key in zip(template.paths, template.keys):
            obj, const = self.walk(fn, path)
            if self.classify(obj, const) != key:
                return None
            resolved.append(obj)
        return tuple(resolved[k] for k in template.hoisted)


def follow(fn: Callable[..., Any], path: tuple) -> Any:
    """What ``path`` reaches in ``fn``'s scope, for a path
    :meth:`Specializer.walk` resolved in an equal design: the same steps,
    without the checks that design already passed."""
    obj = lookup(fn, path[0])[0]
    for step in path[1:]:
        obj = _step(obj, step, ())[0]
    return obj


def kernel_cells(changed: list, staged: list) -> dict:
    """One simulator's :data:`KERNEL_NAMES` cells, which every body it
    runs closes over."""
    return {
        "_CH": types.CellType(CHANGES),
        "_U": types.CellType(_UNSET),
        "_SL": types.CellType(staged),
        "_CHG": types.CellType(changed),
        "_INT": types.CellType(int),
    }


def instantiate(fn: Callable[..., Any], template: Template, objects: tuple,
                kernel: dict) -> Specialized:
    """``template`` bound to one process: a function over ``fn``'s
    globals and closure cells, plus a fresh cell per hoisted object and
    the simulator's ``kernel`` cells (:func:`kernel_cells`)."""
    code = template.code
    closure = dict(zip(fn.__code__.co_freevars, fn.__closure__ or ()))
    cells = []
    for name in code.co_freevars:
        c = closure.get(name)
        if c is None:
            c = kernel.get(name)
        if c is None:
            c = types.CellType(objects[int(name[2:])])
        cells.append(c)
    body = types.FunctionType(code, fn.__globals__, code.co_name,
                              fn.__defaults__, tuple(cells))
    body.__kwdefaults__ = fn.__kwdefaults__
    body.__qualname__ = fn.__qualname__
    body.__module__ = fn.__module__
    bound = getattr(fn, "__self__", None)
    return Specialized(body if bound is None else types.MethodType(body, bound),
                       template, objects)


def _bound_names(node: ast.AST, by_stmt: Optional[dict] = None) -> set:
    """Every name ``node`` binds or deletes.  With ``by_stmt``, also record
    the set of each statement inside it, keyed by ``id``."""
    names = set()
    if isinstance(node, ast.Name):
        if not isinstance(node.ctx, ast.Load):
            names.add(node.id)
    elif isinstance(node, ast.ExceptHandler) and node.name:
        names.add(node.name)
    elif isinstance(node, ast.alias):
        names.add((node.asname or node.name).split(".")[0])
    elif isinstance(node, (ast.MatchAs, ast.MatchStar)) and node.name:
        names.add(node.name)
    elif isinstance(node, ast.MatchMapping) and node.rest:
        names.add(node.rest)
    for child in ast.iter_child_nodes(node):
        names |= _bound_names(child, by_stmt)
    if by_stmt is not None and isinstance(node, ast.stmt):
        by_stmt[id(node)] = names
    return names


def _relocate(tree: ast.AST, lines: int, cols: int) -> None:
    """Shift every position from the dedented snippet to the source file."""
    for n in ast.walk(tree):
        if "lineno" in n._attributes and hasattr(n, "lineno"):
            n.lineno += lines
            n.col_offset += cols
            if getattr(n, "end_lineno", None) is not None:
                n.end_lineno += lines
            if getattr(n, "end_col_offset", None) is not None:
                n.end_col_offset += cols


def _located(tree: ast.AST, like: ast.AST, **subs: ast.AST) -> ast.AST:
    """Give every node of a new ``tree`` the position of ``like``, and put
    each ``subs`` expression in place of the name it is keyed by."""
    for n in ast.walk(tree):  # queues a node's children before yielding it
        if "lineno" in n._attributes:
            ast.copy_location(n, like)
        if not subs:
            continue
        for field, value in ast.iter_fields(n):
            if isinstance(value, ast.Name) and value.id in subs:
                setattr(n, field, subs[value.id])
            elif isinstance(value, list):
                value[:] = [subs.get(v.id, v) if isinstance(v, ast.Name)
                            else v for v in value]
    return tree


def _compile_in_scope(inner: ast.stmt, like: ast.AST, cells: Iterable[str],
                      code: types.CodeType) -> types.CodeType:
    """The code object of the function ``inner`` defines (a def, or
    ``return <lambda>``), compiled inside a function binding ``cells`` —
    so those names are free variables, as in a closure — under ``code``'s
    filename and future flags."""
    head = _located(ast.Assign(targets=[ast.Name(c, ast.Store())
                                        for c in sorted(cells)],
                               value=ast.Constant(None))
                    if cells else ast.Pass(), like)
    outer = ast.copy_location(ast.FunctionDef(
        name="_specialize",
        args=ast.arguments(posonlyargs=[], args=[], kwonlyargs=[],
                           kw_defaults=[], defaults=[]),
        body=[head, inner], decorator_list=[], returns=None), like)
    module = ast.Module([outer], [])
    flags = code.co_flags & _FUTURE_FLAGS
    try:
        compiled = compile(module, code.co_filename, "exec", flags=flags,
                           dont_inherit=True)
    except (ValueError, TypeError):
        # a node without a position: give it its parent's and try again
        try:
            compiled = compile(ast.fix_missing_locations(module),
                               code.co_filename, "exec", flags=flags,
                               dont_inherit=True)
        except (SyntaxError, ValueError, TypeError) as exc:
            raise Untranslatable(str(exc)) from None
    except SyntaxError as exc:
        raise Untranslatable(str(exc)) from None
    (scope,) = [c for c in compiled.co_consts if isinstance(c, types.CodeType)]
    (body,) = [c for c in scope.co_consts if isinstance(c, types.CodeType)]
    return body


def _same_code(a: types.CodeType, b: types.CodeType) -> bool:
    """Same bytecode, names and constants (line numbers aside)."""
    def consts(c):
        return [k for k in c.co_consts if not isinstance(k, types.CodeType)]
    return (a.co_code == b.co_code and a.co_names == b.co_names
            and a.co_varnames == b.co_varnames
            and a.co_freevars == b.co_freevars and consts(a) == consts(b))


class Translator:
    """Rewrites one process body into its specialized :class:`Template`.

    Signal accesses on a structural path (:meth:`Specializer.walk`) become
    hoisted-slot code: ``.value``, ``.nxt``, ``.bit``, ``.bits`` and
    ``Stream.fires()`` read ``_h<k>._value`` directly, and ``.set(e)``,
    ``.stage(e)`` and ``.nxt = e`` statements become inline stores when the
    target is managed by this simulator.  A bare signal in a truth context
    reads its value; a rebind-proof constant (a path of enum members and
    frozen-dataclass fields, see :meth:`Specializer.walk`) is folded.
    Every other statement and expression is kept
    verbatim, so names resolve exactly as in the original function.
    """

    def __init__(self, fn: Callable[..., Any], spec: Specializer,
                 value: bool = False):
        self.fn = fn
        self.spec = spec
        #: a lambda returns its expression (see :meth:`Specializer.specialize`)
        self.value = value
        #: path -> classification, in resolution order (the template key)
        self.paths: dict[tuple, Optional[tuple]] = {}
        self._objects: dict[tuple, Any] = {}
        #: path -> hoisted name
        self.hoisted: dict[tuple, str] = {}
        self.locals: set = set()
        #: width-only abstract value per local: (AbstractValue, is_int) or
        #: None once a conditional or verbatim rebind makes it unknown.
        #: Feeds mask elision and branch folding; see _abs_eval.
        self._abs_locals: dict[str, Optional[tuple]] = {}
        #: names each statement of the body binds, by id
        self._binds: dict[int, set] = {}
        self._depth = 0
        self.stats = {"masks_elided": 0, "branches_folded": 0}

    def translate(self) -> Template:
        """The specialized template; raises :class:`Untranslatable`."""
        fn = self.fn
        code = fn.__code__
        parsed = parsed_def(fn)
        if parsed is None or isinstance(parsed[0], ast.AsyncFunctionDef):
            raise Untranslatable("source unavailable")
        node, first = parsed
        line = linecache.getline(code.co_filename, first)
        _relocate(node, first - 1, len(line) - len(line.lstrip()))
        if isinstance(node, ast.Lambda):
            kind = ast.Return if self.value else ast.Expr
            body = [ast.copy_location(kind(node.body), node.body)]
        else:
            body = node.body
        if isinstance(node, ast.Lambda):
            probe: ast.stmt = ast.Return(node)
        else:
            probe = ast.FunctionDef(name=node.name, args=node.args,
                                    body=node.body, decorator_list=[],
                                    returns=node.returns)
        ast.copy_location(probe, node)
        if not _same_code(_compile_in_scope(probe, node, code.co_freevars,
                                            code), code):
            # the file changed since the function was compiled
            raise Untranslatable("source does not match the code object")
        params = node.args
        params_all = params.posonlyargs + params.args + params.kwonlyargs
        names = {a.arg for a in params_all} | set(code.co_freevars)
        for stmt in body:
            for n in ast.walk(stmt):
                if isinstance(n, _BAIL_NODES):
                    raise Untranslatable(f"holds a {type(n).__name__} node")
                if isinstance(n, ast.Name):
                    names.add(n.id)
        if any(_RESERVED.fullmatch(n) for n in names):
            raise Untranslatable("uses a name reserved for hoisted objects")
        stored = set().union(*(_bound_names(s, self._binds) for s in body))
        self.locals = set(code.co_varnames) | set(code.co_cellvars)
        self.locals -= {a.arg for a in params_all} - stored

        stmts = self._block(body) or [_located(ast.Pass(), body[0])]
        name = code.co_name if code.co_name.isidentifier() else "_lambda"
        params.defaults = []
        params.kw_defaults = [None] * len(params.kwonlyargs)
        for a in params_all + [params.vararg, params.kwarg]:
            if a is not None:
                a.annotation = None
        inner = ast.FunctionDef(name=name, args=params, body=stmts,
                                decorator_list=[], returns=None)
        ast.copy_location(inner, node)
        cells = set(code.co_freevars) | set(self.hoisted.values())
        names = {"co_name": code.co_name}
        if hasattr(code, "co_qualname"):  # Python 3.11+
            names["co_qualname"] = code.co_qualname
        body_code = _compile_in_scope(
            inner, node, cells | set(KERNEL_NAMES), code).replace(**names)
        paths = tuple(self.paths)
        return Template(
            code=body_code,
            paths=paths,
            keys=tuple(self.paths.values()),
            hoisted=tuple(paths.index(p) for p in self.hoisted),
            source=ast.unparse(inner),
            masks_elided=self.stats["masks_elided"],
            branches_folded=self.stats["branches_folded"],
        )

    # -- compile-time object resolution --------------------------------------

    def _path(self, node: ast.AST) -> Optional[tuple]:
        """A Name/Attribute/constant-Subscript chain rooted at a non-local."""
        steps: list = []
        while True:
            if isinstance(node, ast.Attribute):
                steps.append(node.attr)
                node = node.value
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.slice, ast.Constant)
                  and type(node.slice.value) is int):
                steps.append(node.slice.value)
                node = node.value
            elif isinstance(node, ast.Name) and node.id not in self.locals:
                steps.append(node.id)
                return tuple(reversed(steps))
            else:
                return None

    def _lookup(self, node: ast.AST) -> tuple:
        """``(path, object, classification)``; the classification is None
        when ``node`` is not a resolvable path."""
        path = self._path(node)
        if path is None:
            return None, MISSING, None
        return self._resolve(path)

    def _resolve(self, path: tuple) -> tuple:
        if path not in self.paths:
            obj, const = self.spec.walk(self.fn, path)
            self.paths[path] = self.spec.classify(obj, const)
            self._objects[path] = obj
        return path, self._objects[path], self.paths[path]

    def _hoist(self, path: tuple) -> str:
        name = self.hoisted.get(path)
        if name is None:
            name = self.hoisted[path] = f"_h{len(self.hoisted)}"
        return name

    @staticmethod
    def _snippet(src: str, like: ast.AST, **subs: ast.AST) -> list:
        """Statements parsed from ``src``, located at ``like``, with each
        ``subs`` name replaced by its (already translated) expression."""
        return _located(ast.parse(src), like, **subs).body

    def _expr(self, src: str, like: ast.AST, **subs: ast.AST) -> ast.expr:
        return self._snippet(src, like, **subs)[0].value

    # -- expressions ----------------------------------------------------------

    def _x(self, node: ast.expr, test: bool = False) -> ast.expr:
        """Translate an expression: a rewritten node, or ``node`` itself
        with its children translated.  ``test``: only its truth is used."""
        new = self._rewrite(node, test)
        if new is not None:
            return new
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            outer = self.locals
            self.locals = outer | {
                n.id for g in node.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
            try:
                self._children(node)
            finally:
                self.locals = outer
        elif isinstance(node, ast.BoolOp):
            node.values = [self._x(v, test) for v in node.values]
        elif isinstance(node, ast.UnaryOp):
            node.operand = self._x(node.operand,
                                   isinstance(node.op, ast.Not))
        elif isinstance(node, ast.IfExp):
            node.test = self._x(node.test, True)
            node.body = self._x(node.body, test)
            node.orelse = self._x(node.orelse, test)
        else:
            self._children(node)
        return node

    def _children(self, node: ast.AST) -> ast.AST:
        """Translate every child of ``node`` in place."""
        if isinstance(node, ast.pattern):
            return node  # match patterns hold literal names, not loads
        if isinstance(node, ast.comprehension):
            node.target = self._x(node.target)
            node.iter = self._x(node.iter)
            node.ifs = [self._x(c, True) for c in node.ifs]
            return node
        for field, value in ast.iter_fields(node):
            if isinstance(value, ast.expr):
                setattr(node, field,
                        self._x(value, field == "test" or field == "guard"))
            elif isinstance(value, list):
                if value and isinstance(value[0], ast.stmt):
                    setattr(node, field, self._nested(value))
                else:
                    setattr(node, field, [
                        self._x(v) if isinstance(v, ast.expr)
                        else self._children(v) if isinstance(v, ast.AST)
                        else v
                        for v in value])
            elif isinstance(value, ast.AST):
                self._children(value)
        return node

    def _rewrite(self, node: ast.expr, test: bool) -> Optional[ast.expr]:
        if isinstance(node, ast.Call):
            return self._call(node, test)
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            return None
        if isinstance(node, ast.Attribute) and node.attr in ("value", "nxt"):
            path, _obj, kind = self._lookup(node.value)
            if kind is None or kind[0] not in _SIGNALS:
                return None
            h = self._hoist(path)
            if node.attr == "value":
                return self._expr(f"{h}._value", node)
            if kind[0] == "reg":
                return self._expr(
                    f"({h}._value if {h}._staged is _U else {h}._staged)",
                    node)
            return None
        if not isinstance(node, (ast.Attribute, ast.Name, ast.Subscript)):
            return None
        path = self._path(node)
        if path is None or "value" in path[1:] or "nxt" in path[1:]:
            return None  # translate the parts
        path, obj, kind = self._resolve(path)
        if kind is not None and kind[0] in _SIGNALS and test:
            return self._expr(f"{self._hoist(path)}._value", node)
        if kind is not None and kind[0] == "const":
            if type(obj) in _SCALAR_TYPES:
                return _located(ast.Constant(obj), node)
            return _located(ast.Name(self._hoist(path), ast.Load()), node)
        return node  # a plain chain: nothing inside to rewrite

    def _call(self, node: ast.Call, test: bool) -> Optional[ast.expr]:
        func = node.func
        if (not isinstance(func, ast.Attribute) or node.keywords
                or any(isinstance(a, ast.Starred) for a in node.args)):
            return None
        name, args = func.attr, node.args
        if name == "fires" and not args:
            path, _obj, kind = self._lookup(func.value)
            if kind != ("stream",):
                return None
            pv, _v, kv = self._resolve(path + ("valid",))
            pr, _r, kr = self._resolve(path + ("ready",))
            if not (kv and kr and kv[0] in _SIGNALS and kr[0] in _SIGNALS):
                return None
            both = f"({self._hoist(pv)}._value and {self._hoist(pr)}._value)"
            return self._expr(both if test else f"(not not {both})", node)
        if name not in ("bit", "bits"):
            return None
        path, _obj, kind = self._lookup(func.value)
        if kind is None or kind[0] not in _SIGNALS:
            return None
        if name == "bit" and len(args) == 1:
            index = self._x(args[0])
            return self._expr(f"(({self._hoist(path)}._value >> _E) & 1)",
                              node, _E=index)
        if name == "bits" and len(args) == 2:
            hi, lo = (a.value if isinstance(a, ast.Constant)
                      and type(a.value) is int else None for a in args)
            if hi is None or lo is None or hi - lo + 1 < 0:
                return None
            mask = (1 << (hi - lo + 1)) - 1
            return self._expr(
                f"(({self._hoist(path)}._value >> {lo}) & {mask})", node)
        return None

    # -- width-only abstract evaluation ---------------------------------------
    #
    # The value facts the code generator is allowed to use are strictly
    # WEAKER than the lint fixpoint's: a signal read contributes only its
    # width bound [0, mask].  Width bounds hold unconditionally — every
    # kernel write path (set/stage/force/warp) masks, so even SEU
    # injection and checkpoint restores cannot violate them — which is
    # what keeps the specialized module cycle- and VCD-identical under
    # fault campaigns that would invalidate the fixpoint's tighter ranges.
    # The only other facts are rebind-proof constants and the modeled
    # builtins, both part of the template key.

    def _abs_eval(self, node: ast.AST) -> Optional[tuple]:
        """``(AbstractValue, is_int)`` for an expression, or None.

        ``is_int`` asserts the evaluated Python object is an ``int`` (not a
        ``bool`` or an ``int`` subclass) — mask elision must not change the
        stored object, and the event kernel's ``int(value) & mask`` always
        commits an ``int``.  Must run before :meth:`_x` rewrites ``node``.
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
            _path, obj, kind = self._lookup(node)
            return self._abs_constant(obj, kind)
        if isinstance(node, ast.Attribute):
            if node.attr in ("value", "nxt"):
                _path, obj, kind = self._lookup(node.value)
                if (kind is not None and kind[0] in _SIGNALS
                        and (node.attr == "value" or kind[0] == "reg")
                        and obj.width is not None):
                    return _dom.top(obj.width), True
                return None
            _path, obj, kind = self._lookup(node)
            return self._abs_constant(obj, kind)
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

    @staticmethod
    def _abs_constant(obj: Any, kind: Optional[tuple]) -> Optional[tuple]:
        if kind is None or kind[0] != "const" or not isinstance(obj, int):
            return None
        if isinstance(obj, bool):
            return _dom.const(int(obj)), False
        return _dom.const(int(obj)), type(obj) is int

    def _abs_call(self, node: ast.Call) -> Optional[tuple]:
        if node.keywords:
            return None
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr not in ("bit", "bits"):
                return None
            _path, _obj, kind = self._lookup(func.value)
            if kind is None or kind[0] not in _SIGNALS:
                return None
            if func.attr == "bit" and len(node.args) == 1:
                return _dom.interval(0, 1), True
            if func.attr == "bits" and len(node.args) == 2:
                hi, lo = node.args
                if not all(isinstance(a, ast.Constant)
                           and type(a.value) is int for a in (hi, lo)):
                    return None
                if hi.value - lo.value + 1 < 0:
                    return None
                return (_dom.interval(0, (1 << (hi.value - lo.value + 1)) - 1),
                        True)
            return None
        if not isinstance(func, ast.Name):
            return None
        _path, fn, kind = self._lookup(func)
        if kind is None or kind[0] != "builtin":
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
            return combine([a[0] for a in args]), all(a[1] for a in args)
        return None

    def _bind_abs(self, name: str, value: Optional[tuple]) -> None:
        # flow-insensitive soundness: a binding under a conditional may or
        # may not happen, so the local's abstract value becomes unknown
        self._abs_locals[name] = value if self._depth == 0 else None

    def _forget(self, names: Iterable[str]) -> None:
        for name in names:
            self._abs_locals[name] = None

    # -- statements -----------------------------------------------------------

    def _block(self, stmts: list) -> list:
        out: list = []
        for stmt in stmts:
            out.extend(self._stmt(stmt))
        return out

    def _nested(self, stmts: list) -> list:
        self._depth += 1
        try:
            return self._block(stmts) or [_located(ast.Pass(), stmts[0])]
        finally:
            self._depth -= 1

    def _load(self, sig: Signal, value: ast.expr) -> tuple:
        """``_v = <value>`` source, masked unless the width proves it
        redundant, and the translated value."""
        av = self._abs_eval(value)
        expr = self._x(value)
        if sig._mask is None:
            return "_v = _E", expr
        if av is not None and av[1] and av[0].fits(sig._mask):
            # the committed value is provably the expression itself
            self.stats["masks_elided"] += 1
            return "_v = _E", expr
        return f"_v = _INT(_E) & {sig._mask}", expr

    def _store_signal(self, path: tuple, sig: Signal, value: ast.expr,
                      like: ast.stmt) -> list:
        load, expr = self._load(sig, value)
        h = self._hoist(path)
        return self._snippet(
            f"{load}\n"
            f"if _v != {h}._value:\n"
            f"    {h}._value = _v\n"
            f"    _CH.dirty = True\n"
            f"    _CHG.append({h})\n", like, _E=expr)

    def _stage_reg(self, path: tuple, reg: Reg, value: ast.expr,
                   like: ast.stmt) -> list:
        load, expr = self._load(reg, value)
        h = self._hoist(path)
        return self._snippet(
            f"{load}\n"
            f"if {h}._staged is _U:\n"
            f"    _SL.append({h})\n"
            f"{h}._staged = _v\n"
            f"_CH.stages += 1\n", like, _E=expr)

    def _store(self, stmt: ast.stmt) -> Optional[list]:
        """Inline ``sig.set(e)``, ``reg.stage(e)`` or ``reg.nxt = e`` on a
        target this simulator manages; None for any other statement."""
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            func = call.func
            if (not isinstance(func, ast.Attribute)
                    or func.attr not in ("set", "stage")
                    or len(call.args) != 1 or call.keywords
                    or isinstance(call.args[0], ast.Starred)):
                return None
            path, obj, kind = self._lookup(func.value)
            if kind is None or kind[0] not in _SIGNALS:
                return None
            if func.attr == "set" and kind[2]:
                return self._store_signal(path, obj, call.args[0], stmt)
            if func.attr == "stage" and kind[0] == "reg" and kind[3]:
                return self._stage_reg(path, obj, call.args[0], stmt)
            return None
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Attribute)
                and stmt.targets[0].attr == "nxt"):
            path, obj, kind = self._lookup(stmt.targets[0].value)
            if kind is not None and kind[0] == "reg" and kind[3]:
                return self._stage_reg(path, obj, stmt.value, stmt)
        return None

    def _stmt(self, stmt: ast.stmt) -> list:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            return []  # docstring or bare constant
        store = self._store(stmt)
        if store is not None:
            return store
        bound = self._binds[id(stmt)]
        target = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
        if isinstance(target, ast.Name):
            abs_val = self._abs_eval(stmt.value)
            stmt.value = self._x(stmt.value)
            self._forget(bound - {target.id})
            self._bind_abs(target.id, abs_val)
            return [stmt]
        if isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            base = self._abs_locals.get(name) if name in self.locals else None
            rhs = self._abs_eval(stmt.value)
            fn = _ABS_BINOPS.get(type(stmt.op))
            stmt.value = self._x(stmt.value)
            self._forget(bound - {name})
            if base is not None and rhs is not None and fn is not None:
                self._bind_abs(name, (fn(base[0], rhs[0]), base[1] and rhs[1]))
            else:
                self._bind_abs(name, None)
            return [stmt]
        if isinstance(stmt, ast.If):
            av = self._abs_eval(stmt.test)
            verdict = av[0].truthiness() if av is not None else None
            if verdict is not None:
                # the test is decided by width bounds and rebind-proof
                # constants alone — fold the dead arm away entirely
                self.stats["branches_folded"] += 1
                return self._block(stmt.body if verdict else stmt.orelse)
            self._forget(_bound_names(stmt.test))
            stmt.test = self._x(stmt.test, True)
            stmt.body = self._nested(stmt.body)
            stmt.orelse = self._nested(stmt.orelse) if stmt.orelse else []
            return [stmt]
        if isinstance(stmt, (ast.For, ast.While)):
            # a loop body may run again after its own rebinds
            self._forget(bound)
        self._children(stmt)
        self._forget(bound)
        return [stmt]


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
