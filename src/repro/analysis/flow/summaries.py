"""Project model: function index, call graph and taint summaries.

The flow engine works on a :class:`Project`: every function in the
analyzed tree gets a :class:`FunctionInfo` with syntactic facts
(budget ``acquire``/``release`` sites, stream-typed locals, call
sites), and a fixpoint pass turns those into per-function *summaries*
that the EM100-series rules consume:

* ``scans_params`` — parameter indexes the function fully iterates
  (directly, or by passing them on to a callee that does);
* ``materializes_params`` — parameter indexes that reach a RAM
  materializer (``list``/``sorted``/... , EM001's sinks) in this
  function or transitively in a callee;
* ``returns_stream`` — what the return value is in the stream
  vocabulary of :mod:`repro.analysis.streams` (a stream, a list of
  streams, a reader, or None), and ``returns_sort`` — it returns a
  materializing sort's result;
* ``net_hold_params`` — parameter indexes whose memory budget is still
  held when the function returns (ownership transfers to the caller);
* per-class: ``instance_holds`` (the constructor acquires budget that
  only ``close``/``delete``/... releases later) and the set of
  releasing method names.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .. import streams
from ..emlint import classify
from ..rules import MATERIALIZERS
from ..streams import call_head as _call_head, walk_shallow
from .cfg import CFG, build_cfg

#: method names that conventionally give budget back
RELEASING_NAMES = {"close", "delete", "finalize", "release", "clear",
                   "sync", "shutdown", "__exit__"}


def expr_key(node: ast.AST) -> str:
    """Canonical text for an attribute chain (``machine.budget``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{expr_key(node.value)}.{node.attr}"
    if isinstance(node, ast.Call):
        return f"{expr_key(node.func)}()"
    return ast.dump(node)


class AcquireSite:
    __slots__ = ("node_index", "key", "amount", "lineno", "kind")

    def __init__(self, node_index: int, key: str, amount: Optional[ast.AST],
                 lineno: int, kind: str) -> None:
        self.node_index = node_index
        self.key = key          # canonical budget expression
        self.amount = amount    # first argument AST (may be None)
        self.lineno = lineno
        self.kind = kind        # "acquire" | "reserve"


class ReleaseSite:
    __slots__ = ("node_index", "key", "lineno")

    def __init__(self, node_index: int, key: str, lineno: int) -> None:
        self.node_index = node_index
        self.key = key
        self.lineno = lineno


class CallSite:
    __slots__ = ("node_index", "call", "lineno", "callee", "bound_self")

    def __init__(self, node_index: int, call: ast.Call, lineno: int,
                 callee: Optional["FunctionInfo"],
                 bound_self: Optional[str]) -> None:
        self.node_index = node_index
        self.call = call
        self.lineno = lineno
        self.callee = callee          # resolved project function, if any
        self.bound_self = bound_self  # receiver text for method calls


class ClassInfo:
    def __init__(self, name: str, module: "ModuleInfo") -> None:
        self.name = name
        self.module = module
        self.methods: Dict[str, FunctionInfo] = {}
        self.instance_holds = False
        self.releasing_methods: Set[str] = set()
        self.is_context_manager = False
        #: instance attribute -> project class name, from constructor
        #: assignments like ``self.blocks = BlockFile(...)``
        self.attr_types: Dict[str, str] = {}


class FunctionInfo:
    def __init__(self, node: ast.AST, module: "ModuleInfo",
                 cls: Optional[ClassInfo]) -> None:
        self.node = node
        self.module = module
        self.cls = cls
        self.name = node.name
        self.qualname = (f"{cls.name}.{node.name}" if cls else node.name)
        self.path = module.path
        args = node.args
        self.params: List[str] = (
            [a.arg for a in getattr(args, "posonlyargs", [])]
            + [a.arg for a in args.args])
        self.decorators: Set[str] = {
            _decorator_name(d) for d in node.decorator_list}
        self._cfg: Optional[CFG] = None
        # syntactic facts, filled by Project._index_function
        self.acquires: List[AcquireSite] = []
        #: ``with budget.reserve(n):`` sites — safe for EM101 (released
        #: by construction) but still inspected by EM104
        self.with_reserves: List[AcquireSite] = []
        self.releases: List[ReleaseSite] = []
        self.calls: List[CallSite] = []
        self.site_of: Dict[int, CallSite] = {}  # id(call) -> its site
        self.aliases: Dict[str, str] = {}      # name -> attribute chain
        #: local name -> stream kind (:func:`repro.analysis.streams.kind`)
        self.streams: Dict[str, str] = {}
        #: ``(name, value)`` bindings and returned values
        self.sites, self.returned = streams.binding_sites(node)
        self.local_types: Dict[str, str] = {}  # name -> class name
        #: subset of local_types that are *constructed here* (not
        #: annotated parameters): what EM105 cares about
        self.constructed_types: Dict[str, str] = {}
        # summaries (fixpoint)
        self.scans_params: Set[int] = set()
        self.materializes_params: Set[int] = set()
        self.returns_stream: Optional[str] = None
        self.returns_sort = False
        self.net_hold_params: Set[int] = set()
        #: param index -> human-readable evidence ("list() at x.py:12",
        #: possibly a chain through further callees)
        self.materialize_evidence: Dict[int, str] = {}
        self.scan_evidence: Dict[int, str] = {}

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.node)
        return self._cfg

    def display(self) -> str:
        return f"{self.module.name}.{self.qualname}"

    def returns(self, call: ast.Call) -> Optional[str]:
        """What ``call`` returns: its resolved callee's answer, else
        the seed's."""
        site = self.site_of.get(id(call))
        if site is not None and site.callee is not None:
            return site.callee.returns_stream
        return streams.seed_returns(call)

    def sorting(self, call: ast.Call) -> bool:
        """Is ``call`` a materializing sort: a seed sort, or a callee
        that returns one's result?"""
        site = self.site_of.get(id(call))
        return streams.seed_sorts(call) or bool(
            site and site.callee and site.callee.returns_sort)

    def canonical_key(self, key: str) -> str:
        """Expand one level of local aliasing: ``budget`` assigned from
        ``machine.budget`` canonicalizes to the attribute chain."""
        root = key.split(".", 1)
        if root[0] in self.aliases:
            rest = ("." + root[1]) if len(root) > 1 else ""
            return self.aliases[root[0]] + rest
        return key


def _decorator_name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


class ModuleInfo:
    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.kind = classify(path)
        self.name = path.replace("\\", "/").rsplit("/", 1)[-1][:-3]
        self.functions: Dict[str, FunctionInfo] = {}  # qualname -> info
        self.classes: Dict[str, ClassInfo] = {}
        self.imports: Dict[str, str] = {}  # local name -> imported name


class Project:
    """Everything the EM100 rules need about the analyzed tree."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: bare function name -> infos across modules (for import-based
        #: resolution; project-wide names are effectively unique)
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, sources: Iterable[Tuple[str, str]]) -> "Project":
        """``sources`` is (path, source text) pairs."""
        project = cls()
        for path, source in sources:
            try:
                tree = ast.parse(source)
            except SyntaxError:
                continue
            module = ModuleInfo(path, source, tree)
            project.modules[path] = module
            project._collect_defs(module)
        for module in project.modules.values():
            for func in module.functions.values():
                project._index_function(func)
        for module in project.modules.values():
            for func in module.functions.values():
                project._resolve_calls(func)
        project._class_protocols()
        project._fixpoint()
        return project

    def _collect_defs(self, module: ModuleInfo) -> None:
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    module.imports[local] = alias.name
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(stmt, module, None)
                module.functions[info.qualname] = info
                self.functions_by_name.setdefault(
                    info.name, []).append(info)
            elif isinstance(stmt, ast.ClassDef):
                cinfo = ClassInfo(stmt.name, module)
                module.classes[stmt.name] = cinfo
                self.classes_by_name.setdefault(
                    stmt.name, []).append(cinfo)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        finfo = FunctionInfo(sub, module, cinfo)
                        module.functions[finfo.qualname] = finfo
                        cinfo.methods[finfo.name] = finfo

    # -- per-function facts -------------------------------------------

    def _index_function(self, func: FunctionInfo) -> None:
        cfg = func.cfg
        # aliases and local constructor types first, from plain
        # assignments anywhere in the body
        for node in walk_shallow(func.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                # ``with C(...) as name`` binds ``name`` to a C for the
                # block's duration; record the type so receiver-based
                # contracts (cost tier) resolve.  Deliberately *not*
                # added to constructed_types: __exit__ owns the
                # cleanup, so lifecycle rules have nothing to track.
                for item in node.items:
                    var = item.optional_vars
                    expr = item.context_expr
                    if (isinstance(var, ast.Name)
                            and isinstance(expr, ast.Call)):
                        head = _call_head(expr)
                        if head and head in self.classes_by_name:
                            func.local_types.setdefault(var.id, head)
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and func.cls is not None
                        and isinstance(value, ast.Call)):
                    head = _call_head(value)
                    if head and head in self.classes_by_name:
                        func.cls.attr_types[target.attr] = head
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(value, ast.Attribute):
                    func.aliases[target.id] = expr_key(value)
                elif isinstance(value, ast.Call):
                    head = _call_head(value)
                    if head and head in self.classes_by_name:
                        func.local_types[target.id] = head
                        func.constructed_types[target.id] = head
        # annotation-driven types
        for arg in _args(func.node):
            head = streams.annotation_name(arg.annotation)
            if head and head in self.classes_by_name:
                func.local_types[arg.arg] = head

        # CFG-anchored facts: budget operations and call sites.  Nested
        # function/class definitions are separate units — their bodies
        # must not be attributed to this function's CFG node.
        for node in cfg.stmt_nodes():
            if node.stmt is None or isinstance(
                    node.stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                continue
            for call in _calls_in(node.stmt):
                fn = call.func
                if isinstance(fn, ast.Attribute):
                    key = func.canonical_key(expr_key(fn.value))
                    if fn.attr in ("acquire", "reserve"):
                        amount = call.args[0] if call.args else None
                        site = AcquireSite(node.index, key, amount,
                                           call.lineno, fn.attr)
                        if fn.attr == "reserve" and _inside_with_item(
                                func.node, call):
                            # ``with budget.reserve(n):`` releases by
                            # construction; not an EM101 acquire site
                            func.with_reserves.append(site)
                        else:
                            func.acquires.append(site)
                    elif fn.attr == "release":
                        func.releases.append(ReleaseSite(
                            node.index, key, call.lineno))
                func.calls.append(CallSite(
                    node.index, call, call.lineno, None, None))
                func.site_of[id(call)] = func.calls[-1]

    def _resolve_calls(self, func: FunctionInfo) -> None:
        module = func.module
        for site in func.calls:
            fn = site.call.func
            if isinstance(fn, ast.Name):
                site.callee = self._resolve_name(fn.id, module)
            elif isinstance(fn, ast.Attribute):
                site.bound_self = expr_key(fn.value)
                receiver_cls = self._receiver_class(func, fn.value)
                if receiver_cls is not None:
                    site.callee = receiver_cls.methods.get(fn.attr)

    def _resolve_name(self, name: str,
                      module: ModuleInfo) -> Optional[FunctionInfo]:
        if name in module.functions:
            return module.functions[name]
        if name in module.classes:
            return module.classes[name].methods.get("__init__")
        if name in module.imports or name in self.functions_by_name \
                or name in self.classes_by_name:
            infos = self.functions_by_name.get(name, [])
            if len(infos) == 1:
                return infos[0]
            classes = self.classes_by_name.get(name, [])
            if len(classes) == 1:
                return classes[0].methods.get("__init__")
        return None

    def _receiver_class(self, func: FunctionInfo,
                        receiver: ast.AST) -> Optional[ClassInfo]:
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and func.cls is not None:
                return func.cls
            cls_name = func.local_types.get(receiver.id)
            if cls_name:
                classes = self.classes_by_name.get(cls_name, [])
                if len(classes) == 1:
                    return classes[0]
            if receiver.id in self.classes_by_name:
                classes = self.classes_by_name[receiver.id]
                if len(classes) == 1:
                    return classes[0]
        if (isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and func.cls is not None):
            cls_name = func.cls.attr_types.get(receiver.attr)
            if cls_name:
                classes = self.classes_by_name.get(cls_name, [])
                if len(classes) == 1:
                    return classes[0]
        return None

    # -- class protocols ----------------------------------------------

    def _class_protocols(self) -> None:
        for classes in self.classes_by_name.values():
            for cinfo in classes:
                for name, method in cinfo.methods.items():
                    if method.releases:
                        cinfo.releasing_methods.add(name)
                if "__exit__" in cinfo.methods:
                    self_exit = cinfo.methods["__exit__"]
                    cinfo.is_context_manager = True
                    # __exit__ that calls a releasing method counts
                    for site in self_exit.calls:
                        fnc = site.call.func
                        if (isinstance(fnc, ast.Attribute)
                                and fnc.attr in cinfo.releasing_methods):
                            cinfo.releasing_methods.add("__exit__")
                init = cinfo.methods.get("__init__")
                if init is not None and init.acquires:
                    # held at the end of __init__ if no matching release
                    # runs inside __init__ itself
                    released = {r.key for r in init.releases}
                    for site in init.acquires:
                        if site.key not in released:
                            cinfo.instance_holds = True

    # -- fixpoint summaries -------------------------------------------

    def _fixpoint(self) -> None:
        all_funcs = [f for m in self.modules.values()
                     for f in m.functions.values()]
        for func in all_funcs:
            self._seed_summary(func)
        changed = True
        rounds = 0
        while changed and rounds < 20:
            changed = False
            rounds += 1
            for func in all_funcs:
                if self._propagate(func):
                    changed = True

    def _seed_summary(self, func: FunctionInfo) -> None:
        params = {name: i for i, name in enumerate(func.params)}
        for node in walk_shallow(func.node):
            # direct scans: for x in P / comprehensions over P
            targets: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                targets.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                targets.extend(g.iter for g in node.generators)
            for it in targets:
                name = it.id if isinstance(it, ast.Name) else None
                if name in params:
                    func.scans_params.add(params[name])
                    func.scan_evidence.setdefault(
                        params[name],
                        f"loop at {func.path}:{node.lineno}")
            # direct materialization: list(P), sorted(P), ...
            if isinstance(node, ast.Call):
                head = _call_head(node)
                if head in MATERIALIZERS and node.args:
                    arg = node.args[0]
                    if isinstance(arg, ast.Name) and arg.id in params:
                        func.materializes_params.add(params[arg.id])
                        func.materialize_evidence.setdefault(
                            params[arg.id],
                            f"{head}() at {func.path}:{node.lineno}")
        # net budget holder: acquires a param's budget, no release of
        # that key anywhere in the function (or its class)
        class_release_keys: Set[str] = set()
        if func.cls is not None:
            for method in func.cls.methods.values():
                class_release_keys.update(r.key for r in method.releases)
        local_release_keys = {r.key for r in func.releases}
        for site in func.acquires:
            if site.key in local_release_keys \
                    or site.key in class_release_keys:
                continue
            root = site.key.split(".")[0]
            if root in params:
                func.net_hold_params.add(params[root])

    def _propagate(self, func: FunctionInfo) -> bool:
        """One round of interprocedural propagation through call sites,
        the ``returns_stream`` / ``returns_sort`` fixpoint among them."""
        func.streams = streams.local_kinds(
            _args(func.node), func.sites, func.returns)
        returned = (streams.returned(func.node.returns, func.returned,
                                     func.streams, func.returns),
                    any(isinstance(value, ast.Call) and func.sorting(value)
                        for value in func.returned))
        changed = returned != (func.returns_stream, func.returns_sort)
        func.returns_stream, func.returns_sort = returned
        params = {name: i for i, name in enumerate(func.params)}
        for site in func.calls:
            callee = site.callee
            if callee is None:
                continue
            for j, arg in enumerate(_positional_args(site)):
                if not isinstance(arg, ast.Name) or arg.id not in params:
                    continue
                i = params[arg.id]
                if j in callee.scans_params \
                        and i not in func.scans_params:
                    func.scans_params.add(i)
                    func.scan_evidence[i] = (
                        f"via {callee.display()}() at "
                        f"{func.path}:{site.lineno} -> "
                        + callee.scan_evidence.get(j, "scan"))
                    changed = True
                if j in callee.materializes_params \
                        and i not in func.materializes_params:
                    func.materializes_params.add(i)
                    func.materialize_evidence[i] = (
                        f"via {callee.display()}() at "
                        f"{func.path}:{site.lineno} -> "
                        + callee.materialize_evidence.get(
                            j, "materialization"))
                    changed = True
        return changed


def _args(node: ast.AST) -> List[ast.arg]:
    return list(getattr(node.args, "posonlyargs", [])) + node.args.args


def names_in(node: ast.AST) -> FrozenSet[str]:
    """Every name ``node`` mentions."""
    return frozenset(n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name))


def assigned_names(nodes: Iterable[ast.AST]) -> Set[str]:
    """Names that ``nodes`` bind by assignment, ``for`` or ``with``."""
    targets: List[ast.AST] = []
    for node in nodes:
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr,
                               ast.For, ast.AsyncFor)):
            targets.append(node.target)
        elif isinstance(node, ast.withitem) \
                and node.optional_vars is not None:
            targets.append(node.optional_vars)
    return {name for target in targets for name in names_in(target)}


def _calls_in(stmt: ast.stmt) -> List[ast.Call]:
    """Calls belonging to *this* CFG node.  Compound statements only
    own their header expressions — their bodies have their own nodes."""
    roots: List[ast.AST]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        roots = [stmt.iter]
    elif isinstance(stmt, (ast.While, ast.If)):
        roots = [stmt.test]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        roots = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, (ast.Try, ast.FunctionDef,
                           ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    else:
        roots = [stmt]
    calls: List[ast.Call] = []
    for root in roots:
        if isinstance(root, ast.Call):
            calls.append(root)
        calls += [n for n in walk_shallow(root)
                  if isinstance(n, ast.Call)]
    return calls


def _positional_args(site: CallSite) -> List[Optional[ast.AST]]:
    """Positional args aligned to the callee's parameter list (the
    method receiver — explicit or implied by a constructor call —
    becomes parameter 0; keyword args land at their parameter index)."""
    callee = site.callee
    args: List[Optional[ast.AST]] = list(site.call.args)
    if callee is not None and callee.params \
            and callee.params[0] == "self":
        if site.bound_self is not None and "." not in site.bound_self:
            recv: Optional[ast.AST] = ast.Name(id=site.bound_self)
        else:
            recv = None
        args = [recv] + args
    if callee is not None:
        index = {name: i for i, name in enumerate(callee.params)}
        for kw in site.call.keywords:
            if kw.arg in index:
                i = index[kw.arg]
                while len(args) <= i:
                    args.append(None)
                args[i] = kw.value
    return args


def _inside_with_item(func_node: ast.AST, call: ast.Call) -> bool:
    """Is ``call`` the context expression of a ``with`` item?"""
    for node in ast.walk(func_node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.context_expr is call:
                    return True
    return False
