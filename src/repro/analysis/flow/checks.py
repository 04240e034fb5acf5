"""The EM100-series rules, evaluated over a :class:`Project`.

Each check returns :class:`~repro.analysis.emlint.Finding` objects whose
``trace`` carries the interprocedural evidence: one entry per hop (call
chain) plus the offending path through the CFG, so a finding reads like

    EM101 budget acquired at blockfile.py:52 leaks on the exception
    path; trace: sssp.py:54 external_dijkstra -> BlockFile.__init__
    acquires machine.budget; path: 54 -> 77 (raise) -> exit
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..emlint import Finding
from ..streams import (
    READER, STREAM, bound_value, call_head, kind, reader_source,
)
from .cfg import CFG
from .summaries import (
    AcquireSite, CallSite, ClassInfo, FunctionInfo, Project,
    RELEASING_NAMES, _positional_args, assigned_names, expr_key, names_in,
    walk_shallow,
)

#: attributes of the machine/model that define the memory envelope;
#: amounts and guards built from these are "M-derived"
MODEL_ATTRS = {"M", "m", "B", "D", "memory_blocks", "block_size",
               "available", "capacity", "num_disks"}


def run_checks(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules.values():
        if module.kind == "exempt":
            continue
        for func in module.functions.values():
            findings.extend(_em101_intra(func))
            findings.extend(_em101_ownership(project, func))
            if module.kind == "algorithm":
                findings.extend(_em102(project, func))
                findings.extend(_em103(project, func))
                findings.extend(_em103_fusion(func))
                findings.extend(_em104(func))
                findings.extend(_em105(project, func))
    findings.extend(_em101_transfers(project))
    return findings


# ---------------------------------------------------------------------
# EM101: budget leaks
# ---------------------------------------------------------------------

def _path_lines(cfg: CFG, start: int, goal: int,
                removed: Set[int]) -> str:
    path = cfg.find_path(start, goal, removed)
    if not path:
        return ""
    shown: List[str] = []
    for idx in path:
        node = cfg.nodes[idx]
        if node.kind == "exit":
            shown.append("return")
        elif node.kind == "exc_exit":
            shown.append("unhandled exception")
        elif node.lineno and node.kind == "stmt":
            entry = f"line {node.lineno}"
            if node.label in ("Raise", "Return"):
                entry += f" ({node.label.lower()})"
            if not shown or shown[-1] != entry:
                shown.append(entry)
    return " -> ".join(shown)


def _leak_exits(func: FunctionInfo, node_index: int,
                removed: Set[int],
                chain: Sequence[str]) -> List[Tuple[str, Tuple[str, ...]]]:
    """Exit kinds reachable from ``node_index`` with the releasing
    nodes removed: [] means every path releases.  Each entry is
    (exit label, trace with the leaking path appended)."""
    cfg = func.cfg
    starts = sorted(cfg.succ[node_index] - cfg.exc_succ[node_index])
    reach = cfg.reachable(starts, removed)
    leaks: List[Tuple[str, Tuple[str, ...]]] = []
    for exit_node, label in ((cfg.exit, "return"),
                             (cfg.exc_exit, "exception")):
        if exit_node not in reach:
            continue
        best = ""
        for start in starts:
            best = _path_lines(cfg, start, exit_node, removed)
            if best:
                break
        trace = tuple(chain) + (
            (f"leaking path: {best}",) if best else ())
        leaks.append((label, trace))
    return leaks


def _leak_findings(func: FunctionInfo, site: AcquireSite,
                   removed: Set[int],
                   chain: Sequence[str]) -> List[Finding]:
    """One EM101 finding per leaking exit kind for an acquire site."""
    findings: List[Finding] = []
    for label, trace in _leak_exits(func, site.node_index, removed,
                                    chain):
        findings.append(Finding(
            rule="EM101", path=func.path, line=site.lineno, col=1,
            message=f"budget {site.kind}d on {site.key!r} in "
                    f"{func.display()} may not be released on a "
                    f"{label} path"
                    + (f" [{'; '.join(trace)}]" if trace else ""),
            trace=trace,
        ))
    return findings


def _release_nodes(func: FunctionInfo, key: str) -> Set[int]:
    """CFG nodes in ``func`` that release ``key``.  When the function
    only ever touches one budget object, key matching is relaxed."""
    exact = {r.node_index for r in func.releases if r.key == key}
    if exact:
        return exact
    acquire_keys = {a.key for a in func.acquires}
    release_keys = {r.key for r in func.releases}
    if len(acquire_keys) == 1 and len(release_keys) == 1:
        return {r.node_index for r in func.releases}
    return set()


def _em101_intra(func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    for site in func.acquires:
        removed = _release_nodes(func, site.key)
        if not removed:
            continue  # holder protocol / transfer: handled elsewhere
        findings.extend(_leak_findings(
            func, site, removed,
            [f"acquired at {func.path}:{site.lineno}"]))
    return findings


def _class_release_keys(func: FunctionInfo) -> Set[str]:
    keys: Set[str] = set()
    if func.cls is not None:
        for method in func.cls.methods.values():
            keys.update(r.key for r in method.releases)
    return keys


def _em101_transfers(project: Project) -> List[Finding]:
    """Module-level functions that net-acquire a parameter's budget
    transfer the release obligation to their callers; callers that can
    exit without releasing leak.  A chain that reaches a function
    nobody calls (and that never releases) is flagged at the origin."""
    findings: List[Finding] = []
    holders: List[Tuple[FunctionInfo, AcquireSite]] = []
    for module in project.modules.values():
        if module.kind == "exempt":
            continue
        for func in module.functions.values():
            if func.cls is not None:
                continue  # methods use the class holder protocol
            for site in func.acquires:
                if _release_nodes(func, site.key):
                    continue
                holders.append((func, site))

    callers = _caller_index(project)
    for origin, site in holders:
        # (function holding the obligation, key in its frame, chain,
        #  path/line to anchor a finding on)
        work: List[Tuple[FunctionInfo, str, Tuple[str, ...],
                         str, int]] = [(
            origin, site.key,
            (f"{origin.display()} acquires {site.key!r} at "
             f"{origin.path}:{site.lineno}",),
            origin.path, site.lineno)]
        seen: Set[Tuple[str, str]] = set()
        depth = 0
        while work and depth < 64:
            depth += 1
            func, key, chain, flag_path, flag_line = work.pop()
            if (func.display(), key) in seen:
                continue
            seen.add((func.display(), key))
            call_sites = callers.get(func.display(), [])
            if not call_sites:
                # The obligation dead-ends here: nobody above can
                # release what the origin acquired.
                if func is origin:
                    message = (f"budget acquired on {key!r} in "
                               f"{origin.display()} is never released "
                               "(no releasing counterpart found)")
                else:
                    message = (f"budget acquired in {origin.display()} "
                               f"at {origin.path}:{site.lineno} is "
                               f"transferred to {func.display()} but "
                               "never released "
                               f"[{'; '.join(chain)}]")
                findings.append(Finding(
                    rule="EM101", path=flag_path, line=flag_line,
                    col=1, message=message, trace=chain,
                ))
                continue
            for caller, cs in call_sites:
                caller_key = _rebase_key(func, key, cs)
                if caller_key is None:
                    continue
                hop = (f"called from {caller.display()} at "
                       f"{caller.path}:{cs.lineno}",)
                removed = _release_nodes(caller, caller_key)
                if removed:
                    pseudo = AcquireSite(cs.node_index, caller_key,
                                         None, cs.lineno, "acquire")
                    findings.extend(_leak_findings(
                        caller, pseudo, removed, chain + hop))
                elif caller_key in _class_release_keys(caller):
                    continue  # caller's class protocol owns it now
                else:
                    work.append((caller, caller_key, chain + hop,
                                 caller.path, cs.lineno))
        if depth >= 64:  # pragma: no cover - defensive
            pass
    return findings


def _caller_index(project: Project) -> Dict[
        str, List[Tuple[FunctionInfo, CallSite]]]:
    index: Dict[str, List[Tuple[FunctionInfo, CallSite]]] = {}
    for module in project.modules.values():
        for func in module.functions.values():
            for cs in func.calls:
                if cs.callee is not None:
                    index.setdefault(cs.callee.display(), []).append(
                        (func, cs))
    return index


def _rebase_key(callee: FunctionInfo, key: str,
                site: CallSite) -> Optional[str]:
    """Translate a budget key rooted at a callee parameter into the
    caller's frame using the argument expression at ``site``."""
    parts = key.split(".", 1)
    if parts[0] not in callee.params:
        return None
    idx = callee.params.index(parts[0])
    args = _positional_args(site)
    if idx >= len(args) or args[idx] is None:
        return None
    base = expr_key(args[idx])
    return base + ("." + parts[1] if len(parts) > 1 else "")


# -- ownership of constructed holder objects --------------------------

def _em101_ownership(project: Project,
                     func: FunctionInfo) -> List[Finding]:
    """``x = HolderClass(...)`` whose constructor acquires budget: some
    path from the construction to an exit must not skip every releasing
    operation on ``x`` (close/delete/with/escape)."""
    findings: List[Finding] = []
    cfg = func.cfg
    for cs in func.calls:
        callee = cs.callee
        if callee is None or callee.name != "__init__" \
                or callee.cls is None:
            continue
        cinfo = callee.cls
        if not cinfo.instance_holds:
            continue
        owner_stmt = cfg.nodes[cs.node_index].stmt
        name = _binding_name(owner_stmt, cs.call)
        if name is None:
            continue  # with-item, escape or expression use: not owned
        removed = _releasing_nodes_for(func, cinfo, name)
        acquire_lines = ", ".join(
            f"{callee.path}:{a.lineno}"
            for a in cinfo.methods["__init__"].acquires) or "?"
        chain = [
            f"{func.display()} constructs {cinfo.name} at "
            f"{func.path}:{cs.lineno}",
            f"{cinfo.name}.__init__ acquires the budget at "
            f"{acquire_lines}",
        ]
        for label, trace in _leak_exits(func, cs.node_index, removed,
                                        chain):
            findings.append(Finding(
                rule="EM101", path=func.path, line=cs.lineno, col=1,
                message=f"{cinfo.name} {name!r} constructed at "
                        f"{func.path}:{cs.lineno} holds budget "
                        f"acquired in its __init__ ({acquire_lines}) "
                        f"but may not be closed/released on a {label} "
                        f"path [{'; '.join(trace)}]",
                trace=trace,
            ))
    return findings


def _binding_name(stmt: Optional[ast.AST],
                  call: ast.Call) -> Optional[str]:
    """The local name a constructor call is bound to, or None when the
    object immediately escapes (with-item, return, argument, ...)."""
    if stmt is None:
        return None
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.context_expr is call:
                return None  # context manager releases on exit
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
            and stmt.value is call \
            and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return None


def _releasing_nodes_for(func: FunctionInfo, cinfo: ClassInfo,
                         name: str) -> Set[int]:
    """CFG nodes that release or transfer ownership of local ``name``."""
    removed: Set[int] = set()
    releasing = cinfo.releasing_methods | RELEASING_NAMES
    for node in func.cfg.stmt_nodes():
        stmt = node.stmt
        if stmt is None:
            continue
        if _releases_or_escapes(stmt, name, releasing):
            removed.add(node.index)
    return removed


def _releases_or_escapes(stmt: ast.AST, name: str,
                         releasing: Set[str]) -> bool:
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        # ``with x:`` and ``with closing(x):`` close on exit
        return any(name in names_in(item.context_expr)
                   for item in stmt.items)
    if isinstance(stmt, ast.Return):
        return stmt.value is not None and name in names_in(stmt.value)
    if isinstance(stmt, ast.Assign):
        target = stmt.targets[0]
        # storing into an attribute/container transfers ownership
        if isinstance(target, (ast.Attribute, ast.Subscript)) \
                and name in names_in(stmt.value):
            return True
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return False
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Attribute)
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id == name and fn.attr in releasing):
                return True
            if isinstance(fn, ast.Name) and fn.id == "next":
                continue  # consumption, not an escape
            # passing the object onward is an ownership escape
            for arg in list(node.args) + [k.value for k in node.keywords]:
                if isinstance(arg, ast.Name) and arg.id == name:
                    return True
        if isinstance(node, (ast.Yield, ast.YieldFrom)) \
                and node.value is not None \
                and name in names_in(node.value):
            return True
    return False


# ---------------------------------------------------------------------
# EM102: nested full scans
# ---------------------------------------------------------------------

def _em102(project: Project, func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    loops = [n for n in walk_shallow(func.node)
             if isinstance(n, (ast.For, ast.AsyncFor, ast.While))]
    for outer in loops:
        body = [node for stmt in outer.body
                for node in [stmt] + walk_shallow(stmt)]
        assigned = assigned_names([outer] + body)
        for node in body:
            opened = node.iter if isinstance(
                node, (ast.For, ast.AsyncFor)) else _opened(func, node)
            if opened is not None:
                desc = _stream_scan_desc(func, opened, assigned)
                if desc:
                    findings.append(Finding(
                        rule="EM102", path=func.path,
                        line=node.lineno, col=node.col_offset + 1,
                        message=f"full scan of {desc} inside the loop "
                                f"at line {outer.lineno}: re-reading a "
                                "loop-invariant stream costs "
                                "Theta(N^2/B) I/Os",
                        trace=(f"outer loop at {func.path}:"
                               f"{outer.lineno}",),
                    ))
            if isinstance(node, ast.Call):
                finding = _scan_via_callee(project, func, node, outer,
                                           assigned)
                if finding is not None:
                    findings.append(finding)
    return findings


def _opened(func: FunctionInfo, node: ast.AST) -> Optional[ast.AST]:
    """The reader a plain or ``with`` binding opens, if any."""
    if isinstance(node, ast.Assign):
        values = [node.value]
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        values = [bound_value(item) for item in node.items]
    else:
        return None
    return next((value for value in values
                 if kind(value, func.streams, func.returns) == READER),
                None)


def _stream_scan_desc(func: FunctionInfo, expr: ast.AST,
                      assigned: Set[str]) -> Optional[str]:
    """Describe ``expr`` — a loop's iterable or a bound reader — when
    it opens a full scan of a loop-invariant stream; None otherwise."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id == "enumerate" and expr.args:
        expr = expr.args[0]
    source = reader_source(expr, func.streams, func.returns)
    if isinstance(source, ast.Name):
        expr = source  # iter(s) rescans the stream ``s``
    found = kind(expr, func.streams, func.returns)
    if names_in(expr) & assigned or found not in (STREAM, READER):
        return None
    if isinstance(expr, ast.Name):
        return f"stream {expr.id!r}" if found == STREAM else None
    if isinstance(expr, ast.Call) and isinstance(
            expr.func, ast.Attribute):
        return f"{expr_key(expr.func.value)}.{expr.func.attr}()"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return f"{expr.func.id}(...)"
    return None


def _scan_via_callee(project: Project, func: FunctionInfo,
                     call: ast.Call, outer: ast.AST,
                     assigned: Set[str]) -> Optional[Finding]:
    site = None
    for cs in func.calls:
        if cs.call is call:
            site = cs
            break
    if site is None or site.callee is None \
            or not site.callee.scans_params:
        return None
    args = _positional_args(site)
    for j in sorted(site.callee.scans_params):
        if j >= len(args) or args[j] is None:
            continue
        arg = args[j]
        if isinstance(arg, ast.Name) \
                and func.streams.get(arg.id) == STREAM \
                and arg.id not in assigned:
            callee = site.callee
            return Finding(
                rule="EM102", path=func.path, line=call.lineno,
                col=call.col_offset + 1,
                message=f"stream {arg.id!r} is fully scanned by "
                        f"{callee.display()}() inside the loop at line "
                        f"{outer.lineno}: Theta(N^2/B) I/Os",
                trace=(f"outer loop at {func.path}:{outer.lineno}",
                       f"{callee.display()} scans parameter "
                       f"{callee.params[j]!r} at "
                       f"{callee.path}:{callee.node.lineno}"),
            )
    return None


# ---------------------------------------------------------------------
# EM103: interprocedural stream materialization
# ---------------------------------------------------------------------

def _em103(project: Project, func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    for site in func.calls:
        callee = site.callee
        if callee is None or not callee.materializes_params:
            continue
        args = _positional_args(site)
        for j in sorted(callee.materializes_params):
            if j >= len(args) or args[j] is None:
                continue
            arg = args[j]
            if not (isinstance(arg, ast.Name)
                    and func.streams.get(arg.id) == STREAM):
                continue
            evidence = callee.materialize_evidence.get(
                j, f"parameter {callee.params[j]!r}")
            findings.append(Finding(
                rule="EM103", path=func.path, line=site.lineno,
                col=site.call.col_offset + 1,
                message=f"stream {arg.id!r} escapes into "
                        f"{callee.display()}() which materializes it "
                        f"into RAM ({evidence})",
                trace=(f"call at {func.path}:{site.lineno}",
                       f"{callee.display()} materializes "
                       f"{callee.params[j]!r}: {evidence}"),
            ))
    return findings


#: stream methods that manage the object rather than read its records
_LIFECYCLE_METHODS = {"delete", "close", "finalize"}


def _em103_fusion(func: FunctionInfo) -> List[Finding]:
    """Materialized sort outputs read exactly once.

    ``x = external_merge_sort(...)`` followed by a single sequential
    scan of ``x`` (plus lifecycle calls) pays ``2·(N/DB)`` I/Os to park
    the sorted order on disk for one read; a pipelined
    :class:`~repro.pipeline.sorter.Sorter` pulls the final merge
    straight into the consumer and skips the round trip.
    """
    findings: List[Finding] = []
    sorted_streams: Dict[str, Optional[ast.Call]] = {}
    for name, value in func.sites:
        if isinstance(value, ast.Call) and func.sorting(value):
            # a name sorted into twice is ambiguous
            sorted_streams[name] = None if name in sorted_streams \
                else value

    parents: Dict[ast.AST, ast.AST] = {}
    for node in walk_shallow(func.node):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    for name, sort in sorted_streams.items():
        if sort is None:
            continue
        scans = other = 0
        for node in walk_shallow(func.node):
            if not (isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)):
                continue
            parent = parents.get(node)
            opener = parents.get(parent) \
                if isinstance(parent, ast.Attribute) else parent
            if (isinstance(parent, ast.For) and parent.iter is node) or \
                    reader_source(opener, func.streams, func.returns) \
                    is node:
                scans += 1
            elif parent is sort or (
                    isinstance(parent, ast.Attribute)
                    and parent.attr in _LIFECYCLE_METHODS) or (
                    isinstance(parent, ast.Call)
                    and call_head(parent) == "len"):
                pass  # ``x = sort(machine, x)``, lifecycle, size probe
            else:
                other += 1
        if scans == 1 and other == 0:
            sort_fn = call_head(sort)
            findings.append(Finding(
                rule="EM103", path=func.path, line=sort.lineno,
                col=sort.col_offset + 1,
                message=f"sorted stream {name!r} is materialized by "
                        f"{sort_fn}() and then consumed by a single "
                        "sequential scan: a pipelined Sorter boundary "
                        "skips the ~2·(N/DB) I/O round trip through "
                        "disk",
                trace=(f"{sort_fn}() at {func.path}:{sort.lineno}",
                       f"sole sequential scan of {name!r}"),
            ))
    return findings


# ---------------------------------------------------------------------
# EM104: reservation/bound mismatch
# ---------------------------------------------------------------------

def _em104(func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    m_tainted = _model_tainted_names(func)
    guarded = _guarded_names(func, m_tainted)
    for site in func.acquires + func.with_reserves:
        if site.amount is None:
            continue
        if _expr_model_derived(site.amount, m_tainted):
            continue  # amount itself computed from the envelope
        data = _data_names(func, site.amount, m_tainted)
        if not data:
            continue  # constant / block-granular amount
        if data <= guarded:
            continue
        loose = ", ".join(sorted(data - guarded))
        findings.append(Finding(
            rule="EM104", path=func.path, line=site.lineno, col=1,
            message=f"{site.kind}({_src(site.amount)}) in "
                    f"{func.display()} is data-dependent ({loose}) "
                    "with no guard against the declared memory "
                    "envelope M",
            trace=(f"unguarded amount at {func.path}:{site.lineno}",),
        ))
    return findings


def _src(node: ast.AST) -> str:
    try:
        return ast.unparse(node)  # py3.9+
    except Exception:  # pragma: no cover
        return "<expr>"


def _model_tainted_names(func: FunctionInfo) -> Set[str]:
    """Local names whose value derives from the machine envelope
    (M, B, m, available, ...), transitively through assignments."""
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in walk_shallow(func.node):
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            if name in tainted:
                continue
            if _expr_model_derived(node.value, tainted):
                tainted.add(name)
                changed = True
    return tainted


def _expr_model_derived(node: ast.AST, tainted: Set[str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in MODEL_ATTRS:
            return True
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return True
        if isinstance(sub, ast.Name) and sub.id in MODEL_ATTRS:
            return True
    return False


def _data_names(func: FunctionInfo, amount: ast.AST,
                m_tainted: Set[str]) -> Set[str]:
    """Names in the amount that carry data-dependent magnitude: len()
    results, stream sizes, plain (non-model) parameters."""
    skip = {"self", "machine"} | m_tainted
    data: Set[str] = set()
    len_derived = _len_derived_names(func)
    for sub in ast.walk(amount):
        if isinstance(sub, ast.Call) and isinstance(
                sub.func, ast.Name) and sub.func.id == "len":
            for inner in ast.walk(sub):
                if isinstance(inner, ast.Name) and inner.id != "len":
                    data.add(inner.id)
                    break
            else:
                data.add("len()")
        elif isinstance(sub, ast.Name):
            if sub.id in skip or sub.id in MODEL_ATTRS:
                continue
            if sub.id in func.params or sub.id in len_derived:
                data.add(sub.id)
    return data


def _len_derived_names(func: FunctionInfo) -> Set[str]:
    out: Set[str] = set()
    for node in walk_shallow(func.node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Call) and isinstance(
                        sub.func, ast.Name) and sub.func.id == "len":
                    out.add(node.targets[0].id)
    return out


def _guarded_names(func: FunctionInfo,
                   m_tainted: Set[str]) -> Set[str]:
    """Names whose magnitude is checked against the envelope: compared
    to an M-derived expression, or passed through ``min``/``max`` with
    an M-derived arm."""
    guarded: Set[str] = set()
    for node in walk_shallow(func.node):
        if isinstance(node, ast.Compare):
            sides = [node.left] + list(node.comparators)
            has_model = any(
                _expr_model_derived(s, m_tainted) for s in sides)
            if not has_model:
                continue
            for side in sides:
                for sub in ast.walk(side):
                    if isinstance(sub, ast.Name):
                        guarded.add(sub.id)
        if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name) and node.func.id in ("min", "max"):
            if any(_expr_model_derived(a, m_tainted)
                   for a in node.args):
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name):
                            guarded.add(sub.id)
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            # x = min(data, envelope) makes x guarded as well
            if isinstance(node.value, ast.Call) and isinstance(
                    node.value.func, ast.Name) \
                    and node.value.func.id in ("min", "max") \
                    and any(_expr_model_derived(a, m_tainted)
                            for a in node.value.args):
                guarded.add(node.targets[0].id)
    # len(x) guarded implies x guarded and vice versa: comparisons are
    # usually written on the len while the reserve uses the container
    return guarded


# ---------------------------------------------------------------------
# EM105: machine aliasing
# ---------------------------------------------------------------------

def _em105(project: Project, func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    own_machines = {p for p in func.params if "machine" in p}
    for site in func.calls:
        callee = site.callee
        if callee is None or callee.cls is not None:
            continue
        args = _positional_args(site)
        for j, param in enumerate(callee.params):
            if "machine" not in param or j >= len(args) \
                    or args[j] is None:
                continue
            arg = args[j]
            aliased = None
            if isinstance(arg, ast.Name) \
                    and func.constructed_types.get(arg.id) == "Machine":
                aliased = f"locally constructed machine {arg.id!r}"
            elif isinstance(arg, ast.Call) \
                    and isinstance(arg.func, ast.Name) \
                    and arg.func.id == "Machine":
                aliased = "an inline Machine(...) construction"
            if aliased and own_machines:
                findings.append(Finding(
                    rule="EM105", path=func.path, line=site.lineno,
                    col=site.call.col_offset + 1,
                    message=f"{func.display()} passes {aliased} to "
                            f"{callee.display()}() where the caller's "
                            "accounting machine is expected: I/Os and "
                            "budget charged there escape this "
                            "machine's books",
                    trace=(f"call at {func.path}:{site.lineno}",
                           f"{callee.display()} charges parameter "
                           f"{param!r}"),
                ))
    return findings
