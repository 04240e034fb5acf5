"""The EM-lint rule set: AST checks for I/O-model compliance.

Each rule flags a Python construct that lets algorithm code bypass the
I/O model — doing work that a real external-memory machine would have to
pay block transfers or internal memory for, without charging either.
The checks are deliberately heuristic (this is a linter, not a type
system): a flagged line is either *fixed* or *waived* with an
``# em: ok(<rule>) <reason>`` comment documenting why the in-memory step
is legitimate (e.g. it touches at most ``M`` records under a budget
reservation).

Rules
-----

========  ============================================================
EM001     Unbounded materialization of a stream: ``list(s)``,
          ``sorted(s)``, ``tuple(s)``, ``set(s)``, ``Counter(s)`` on a
          stream-typed value pulls all ``N`` records into RAM at once.
EM002     Raw file I/O (``open``, ``os.read``, ``mmap`` …) bypasses the
          simulated disk, so its transfers are never counted.
EM003     A public algorithm function must take the machine (or a
          machine-carrying object) as its first parameter and declare
          its I/O bound in the docstring.
EM004     Whole-dataset Python-level sort: ``sorted(...)`` / ``.sort()``
          is O(1) I/Os in simulation but would not be on a real disk;
          every use must be bounded to ≤ M records and waived.
EM005     Accumulating an unbounded container while consuming a stream
          (``xs.append`` in a ``for record in stream`` loop, or a
          comprehension over a stream) without a ``budget.reserve`` /
          ``budget.acquire`` charge.
EM006     Algorithm code constructing its own ``Machine`` / ``DiskArray``
          / ``BufferPool`` / ``MemoryBudget`` — a private machine resets
          I/O accounting and dodges the caller's budget.
EM007     Waiver hygiene: malformed waiver comments, unknown rule ids,
          missing reasons, and waivers that suppress nothing.
========  ============================================================
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Set

from .emlint import Finding
from .streams import (
    STREAMS, annotated, annotation_name, bound_value, call_head, kind,
    local_kinds, seed_returns,
)

RULES = {
    "EM001": "unbounded materialization of a stream into RAM",
    "EM002": "raw file I/O bypassing the simulated disk",
    "EM003": "public algorithm without machine-first signature or "
             "declared I/O bound",
    "EM004": "Python-level whole-dataset sort in algorithm code",
    "EM005": "unbudgeted accumulation while consuming a stream",
    "EM006": "algorithm code constructing private model machinery",
    "EM007": "waiver hygiene (malformed / unknown rule / no reason / "
             "unused)",
}

#: the EM100 series: whole-program rules over the CFG/call-graph
#: engine in :mod:`repro.analysis.flow`
FLOW_RULES = {
    "EM101": "budget leak: acquire/reserve with a path to function exit "
             "(including exception edges) that skips release",
    "EM102": "nested full scan: re-scanning a loop-invariant stream "
             "inside another loop (Theta(N^2/B) I/Os)",
    "EM103": "interprocedural stream materialization: a stream escapes "
             "into a callee that materializes it into RAM",
    "EM104": "reservation/bound mismatch: data-dependent reserve with "
             "no guard against the declared memory envelope M",
    "EM105": "machine aliasing: passing a privately built machine where "
             "the caller's accounting is expected",
}

#: the EM200 series: symbolic cost certification rules over the
#: inference engine in :mod:`repro.analysis.cost`
COST_RULES = {
    "EM201": "inferred I/O cost asymptotically exceeds the declared "
             "@io_bound theory bound",
    "EM202": "declared bound omits a term the code pays at leading "
             "order (e.g. an extra materialization pass)",
    "EM203": "loop-carried I/O with a data-dependent trip count and "
             "no clamp relating it to N/B or M/B",
    "EM204": "per-block reads issued one-at-a-time in a hot loop "
             "where a get_many()/wave batch is available",
    "EM205": "@io_bound theory callable disagrees with the "
             "docstring's declared bound class",
}

#: the EM300 series: typestate rules over the runtime's resource
#: protocols in :mod:`repro.analysis.state`
STATE_RULES = {
    "EM301": "pinned frame / reserved budget not released on some path "
             "(pin without unpin, harden without soften, a reader "
             "generator left open across an exception handler)",
    "EM302": "BlockFile/FileStream opened without a guaranteed close; "
             "use the context-manager form",
    "EM303": "use-after-release of a frame/handle, or a release that "
             "can repeat because the idempotence guard is set after "
             "fallible work",
    "EM304": "raw disk/DiskArray I/O bypassing Runtime.read_block / "
             "WriteBehind outside whitelisted runtime internals "
             "(forfeits retry, checksum scrubbing, and coalescing)",
    "EM305": "checkpoint-protocol violation: output writes after a "
             "SortManifest commit, or adopt of blocks not described "
             "by a manifest",
    "EM306": "durability point (manifest commit) reachable while "
             "freshly written output is still unflushed",
}

#: every rule the emlint pass checks: all four tiers run on every run
ALL_RULES = {**RULES, **FLOW_RULES, **COST_RULES, **STATE_RULES}

#: builtins that materialize their (first) argument into RAM at once
MATERIALIZERS = {"list", "sorted", "tuple", "set", "dict", "Counter",
                 "frozenset"}

#: machine-backed containers: appending to these *is* charged, so they
#: are exempt from EM005 (but materializing them still trips EM001)
CHARGED_SINKS = {
    "FileStream", "StripedStream", "stream_cls",
    "Table", "AdjacencyStore", "ExternalMatrix", "BufferTree",
    "BPlusTree", "ExtendibleHashTable", "ExternalPriorityQueue",
    "BTreePriorityQueue", "BlockFile", "ExternalStack", "ExternalQueue",
    "Sorter", "ExVector",
}

#: acceptable first-parameter annotations for EM003: either the machine
#: itself or an object that carries one (``obj.machine``)
MACHINE_CARRIERS = {
    "Machine", "Table", "FileStream", "StripedStream", "AdjacencyStore",
    "ExternalMatrix", "BufferTree", "BPlusTree", "ExtendibleHashTable",
}

#: constructing these inside algorithm code bypasses the caller's
#: accounting (EM006)
PRIVATE_MACHINERY = {
    "Machine", "DiskArray", "BufferPool", "MemoryBudget", "SimulatedDisk",
}

#: method names that grow a container in place (EM005)
ACCUMULATORS = {"append", "extend", "add", "insert", "appendleft",
                "update", "heappush", "push"}

#: a docstring "declares a bound" if it mentions any of these
#: (case-insensitive): the survey notation or plain-language I/O costs
BOUND_MARKERS = ("i/o", "o(", "θ(", "scan", "sort", "block transfer",
                 "cost", "pass")

#: raw-I/O call names (EM002): builtin open plus the os/io/mmap layer
RAW_IO_MODULES = {"os", "io", "mmap", "gzip", "bz2", "lzma", "shutil"}
RAW_IO_ATTRS = {"open", "fdopen", "read", "write", "pread", "pwrite",
                "mmap", "sendfile", "copyfile", "copyfileobj"}


def _name_of(node: ast.AST) -> Optional[str]:
    """Plain identifier of a Name/Attribute node, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Scope:
    """Per-function tracking of which names hold streams / charged sinks
    and whether the function charges the budget itself."""

    def __init__(self, budget_aware: bool = False):
        #: name -> stream kind (:func:`repro.analysis.streams.kind`)
        self.stream_names: Dict[str, str] = {}
        self.charged_names: Set[str] = set()
        self.budget_aware = budget_aware


def _calls_acquire(node: ast.AST) -> bool:
    """Whether the function body contains a ``*.acquire(...)`` call —
    taken as evidence the author is charging the memory budget by hand."""
    for child in ast.walk(node):
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "acquire"):
            return True
    return False


class ComplianceVisitor(ast.NodeVisitor):
    """Walks one module and emits EM001–EM006 findings.

    Args:
        kind: module category — ``"algorithm"`` (all rules), ``"core"``
            (EM002 only; the substrate is allowed to materialize),
            ``"support"`` (EM002 only; e.g. workload generators) or
            ``"exempt"`` (no rules; the analysis package itself).
        path: file path used in findings.
    """

    def __init__(self, kind: str, path: str):
        self.kind = kind
        self.path = path
        self.findings: List[Finding] = []
        self._scopes: List[_Scope] = [_Scope()]
        self._budget_depth = 0
        self._stream_loop_depth = 0
        self._def_depth = 0
        self._class_depth = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def _scope(self) -> _Scope:
        return self._scopes[-1]

    def _algorithm(self) -> bool:
        return self.kind == "algorithm"

    def _report(self, rule: str, node: ast.AST, message: str,
                end_line: Optional[int] = None) -> None:
        self.findings.append(Finding(
            rule=rule,
            path=self.path,
            line=node.lineno,
            col=node.col_offset + 1,
            end_line=end_line if end_line is not None else getattr(
                node, "end_lineno", node.lineno),
            message=message,
        ))

    def _in_budget_context(self) -> bool:
        return self._budget_depth > 0 or self._scope.budget_aware

    def _kind(self, node: ast.AST) -> Optional[str]:
        """What ``node`` is in the stream vocabulary, by this file's
        bindings and the seed alone."""
        names: Dict[str, str] = {}
        for scope in self._scopes:
            names.update(scope.stream_names)
        return kind(node, names, seed_returns)

    def _streaming(self, node: ast.AST) -> bool:
        """Does ``node`` evaluate to a stream, a reader or a sorter?"""
        return self._kind(node) not in (None, STREAMS)

    def _is_charged_name(self, name: str) -> bool:
        return any(
            name in s.charged_names or name in s.stream_names
            for s in self._scopes
        )

    # ------------------------------------------------------------------
    # scope management
    # ------------------------------------------------------------------
    def _visit_function(self, node) -> None:
        if (self._algorithm() and self._def_depth == 0
                and self._class_depth == 0
                and not node.name.startswith("_")):
            self._check_em003(node)
        scope = _Scope(budget_aware=_calls_acquire(node))
        params = list(node.args.posonlyargs) + list(node.args.args)
        scope.stream_names = local_kinds(params, [], seed_returns)
        scope.charged_names = {
            arg.arg for arg in params
            if annotation_name(arg.annotation) in CHARGED_SINKS}
        self._scopes.append(scope)
        self._def_depth += 1
        budget_depth, self._budget_depth = self._budget_depth, 0
        loop_depth, self._stream_loop_depth = self._stream_loop_depth, 0
        try:
            self.generic_visit(node)
        finally:
            self._scopes.pop()
            self._def_depth -= 1
            self._budget_depth = budget_depth
            self._stream_loop_depth = loop_depth

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._class_depth -= 1

    def visit_With(self, node: ast.With) -> None:
        reserves = any(
            isinstance(item.context_expr, ast.Call)
            and isinstance(item.context_expr.func, ast.Attribute)
            and item.context_expr.func.attr in ("reserve", "measure")
            for item in node.items
        )
        for item in node.items:
            self.visit(item.context_expr)
            # ``with Sorter(...) as sorter`` binds a charged sink /
            # stream for the block, same as the assignment form
            if isinstance(item.optional_vars, ast.Name):
                self._bind(item.optional_vars.id, bound_value(item))
        if reserves:
            self._budget_depth += 1
        try:
            for stmt in node.body:
                self.visit(stmt)
        finally:
            if reserves:
                self._budget_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        streaming = self._streaming(node.iter)
        for target_name in (n.id for n in ast.walk(node.target)
                            if isinstance(n, ast.Name)):
            self._scope.stream_names.pop(target_name, None)
        if streaming:
            self._stream_loop_depth += 1
        try:
            for stmt in node.body + node.orelse:
                self.visit(stmt)
        finally:
            if streaming:
                self._stream_loop_depth -= 1

    def _bind(self, name: str, value: ast.AST) -> None:
        """Track what ``name`` holds once ``value`` is bound to it."""
        self._scope.stream_names.pop(name, None)
        self._scope.charged_names.discard(name)
        found = self._kind(value)
        if found is not None:
            self._scope.stream_names[name] = found
        elif isinstance(value, ast.Call) and call_head(value) in (
                CHARGED_SINKS if isinstance(value.func, ast.Name)
                else {"from_rows"}):
            # a machine-backed container
            self._scope.charged_names.add(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, node.value)
            elif isinstance(target, ast.Subscript):
                self._check_em005_subscript(target)
                self.visit(target)
            else:
                self.visit(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        if isinstance(node.target, ast.Name):
            found = annotated(node.annotation) or (
                node.value is not None and self._kind(node.value))
            if found:
                self._scope.stream_names[node.target.id] = found
            elif annotation_name(node.annotation) in CHARGED_SINKS:
                self._scope.charged_names.add(node.target.id)

    # ------------------------------------------------------------------
    # rule checks
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self._check_em002_name(node, func)
            if self._algorithm():
                fired_em001 = self._check_em001(node, func)
                if not fired_em001:
                    self._check_em004_sorted(node, func)
                self._check_em005_heappush(node, func)
                self._check_em006(node, func)
        elif isinstance(func, ast.Attribute):
            self._check_em002_attr(node, func)
            if self._algorithm():
                self._check_em004_method(node, func)
                self._check_em005_accumulate(node, func)
        self.generic_visit(node)

    def _check_em001(self, node: ast.Call, func: ast.Name) -> bool:
        if func.id in MATERIALIZERS and node.args and self._streaming(
                node.args[0]):
            self._report(
                "EM001", node,
                f"{func.id}(...) materializes a stream into RAM; "
                "iterate it blockwise or charge the memory budget",
            )
            return True
        return False

    def _check_em002_name(self, node: ast.Call, func: ast.Name) -> None:
        if func.id == "open":
            self._report(
                "EM002", node,
                "raw open() bypasses the simulated disk; use "
                "BlockFile/FileStream so transfers are counted",
            )

    def _check_em002_attr(self, node: ast.Call,
                          func: ast.Attribute) -> None:
        value_name = _name_of(func.value)
        if value_name in RAW_IO_MODULES and func.attr in RAW_IO_ATTRS:
            self._report(
                "EM002", node,
                f"{value_name}.{func.attr}(...) is raw file I/O; all "
                "transfers must go through the machine's disk",
            )

    def _check_em003(self, node) -> None:
        params = list(node.args.posonlyargs) + list(node.args.args)
        ok_first = False
        if params:
            first = params[0]
            ann = annotation_name(first.annotation)
            ok_first = first.arg == "machine" or ann in MACHINE_CARRIERS
        if not ok_first:
            self._report(
                "EM003", node,
                f"public algorithm {node.name}() must take the machine "
                "(or a machine-carrying object) as its first parameter",
                end_line=node.lineno,
            )
        docstring = ast.get_docstring(node) or ""
        lowered = docstring.lower()
        if not any(marker in lowered for marker in BOUND_MARKERS):
            self._report(
                "EM003", node,
                f"public algorithm {node.name}() does not declare its "
                "I/O bound in the docstring",
                end_line=node.lineno,
            )

    def _check_em004_sorted(self, node: ast.Call, func: ast.Name) -> None:
        if func.id == "sorted":
            self._report(
                "EM004", node,
                "sorted(...) is an in-memory whole-dataset sort; bound "
                "it to ≤ M records (and waive) or sort externally",
            )

    def _check_em004_method(self, node: ast.Call,
                            func: ast.Attribute) -> None:
        if func.attr == "sort":
            self._report(
                "EM004", node,
                ".sort() is an in-memory sort; bound it to ≤ M records "
                "(and waive) or sort externally",
            )

    def _check_em005_heappush(self, node: ast.Call,
                              func: ast.Name) -> None:
        if (func.id == "heappush" and self._stream_loop_depth > 0
                and not self._in_budget_context() and node.args
                and isinstance(node.args[0], ast.Name)
                and not self._is_charged_name(node.args[0].id)):
            self._report(
                "EM005", node,
                f"heappush into {node.args[0].id!r} while consuming a "
                "stream is unbudgeted accumulation",
            )

    def _check_em005_accumulate(self, node: ast.Call,
                                func: ast.Attribute) -> None:
        if (func.attr in ACCUMULATORS and func.attr != "heappush"
                and self._stream_loop_depth > 0
                and not self._in_budget_context()
                and isinstance(func.value, ast.Name)
                and not self._is_charged_name(func.value.id)):
            self._report(
                "EM005", node,
                f"{func.value.id}.{func.attr}(...) inside a stream loop "
                "accumulates without charging the memory budget",
            )

    def _check_em005_subscript(self, target: ast.Subscript) -> None:
        if (self._algorithm() and self._stream_loop_depth > 0
                and not self._in_budget_context()
                and isinstance(target.value, ast.Name)
                and not self._is_charged_name(target.value.id)):
            self._report(
                "EM005", target,
                f"{target.value.id}[...] assignment inside a stream "
                "loop accumulates without charging the memory budget",
            )

    def _check_em006(self, node: ast.Call, func: ast.Name) -> None:
        if func.id in PRIVATE_MACHINERY:
            self._report(
                "EM006", node,
                f"constructing {func.id}(...) inside algorithm code "
                "bypasses the caller's machine and its accounting",
            )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, "list comprehension")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehension(node, "set comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, "dict comprehension")

    def _check_comprehension(self, node: Any, label: str) -> None:
        if self._algorithm() and not self._in_budget_context():
            for generator in node.generators:
                if self._streaming(generator.iter):
                    self._report(
                        "EM005", node,
                        f"{label} over a stream materializes all N "
                        "records without charging the memory budget",
                    )
                    break
        self.generic_visit(node)
