"""The EM300-series typestate rules, evaluated over a Project.

Each rule tracks abstract objects through the resource state machines of
:mod:`repro.analysis.state.machines` along the EM-flow CFGs (exception
and finally edges included), so a finding reads like

    EM301 stream reader 'reader' opened at runs.py:152 can be left open
    across the handler at line 165; trace: leaking path: line 152 ->
    line 165 (raise) -> unhandled exception

Deliberate soundness/precision trade-offs, documented here because they
shape what fires:

* a release lexically inside a ``finally`` whose ``try`` contains the
  acquire is trusted even when it sits behind a dynamic guard
  (``if staged: scheduler.unpin(...)`` in ``read_ahead``) — the guard
  mirrors exactly the dynamic pin count that a path-insensitive
  analysis cannot track;
* pins/hardens on a ``self.``-rooted receiver whose class releases the
  same receiver from *another* method follow the class-holder protocol
  (WriteBehind's put/flush window) and are exempt from the
  every-path-releases obligation;
* EM302 judges **normal-return** paths only; budget leaks on exception
  paths stay EM101/EM301's domain (a constructor that raises mid-way
  cleans up after itself in this codebase).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..emlint import Finding
from ..flow.cfg import JUNCTION
from ..flow.checks import (
    _binding_name, _leak_exits, _path_lines, _releases_or_escapes,
)
from ..flow.summaries import (
    CallSite, FunctionInfo, Project, RELEASING_NAMES, _calls_in,
    expr_key, names_in, walk_shallow,
)
from ..streams import call_head as _call_head, opens
from .machines import (
    COMMIT_METHODS, FLUSH_METHODS, HANDLE_CLASSES, PAIRED_ACQUIRES,
    RAW_DISK_METHODS, SAFE_AFTER_TERMINAL, TERMINAL_METHODS,
    WITH_FORM_CLASSES, WRITE_METHODS, WRITER_RESERVE_RELEASES,
    is_whitelisted_raw_io,
)


def run_checks(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules.values():
        if module.kind == "exempt":
            continue
        whitelisted = is_whitelisted_raw_io(module.path)
        for func in module.functions.values():
            findings.extend(_em301_paired(project, func))
            findings.extend(_em301_writer_reserve(func))
            findings.extend(_em301_reader(func))
            findings.extend(_em302_unclosed(func))
            findings.extend(_em302_with_form(func))
            findings.extend(_em303_use_after_release(func))
            findings.extend(_em303_release_before_guard(func))
            if not whitelisted:
                findings.extend(_em304_raw_io(func))
            findings.extend(_em305_manifest(func))
            findings.extend(_em306_durability(func))
    return findings


# ---------------------------------------------------------------------
# shared lookups
# ---------------------------------------------------------------------

def _attr_sites(func: FunctionInfo,
                attrs: Set[str]) -> List[Tuple[CallSite, str, str]]:
    """Call sites ``recv.attr(...)`` with ``attr`` in ``attrs``:
    (site, method name, canonical receiver key)."""
    out: List[Tuple[CallSite, str, str]] = []
    for site in func.calls:
        fn = site.call.func
        if isinstance(fn, ast.Attribute) and fn.attr in attrs:
            key = func.canonical_key(expr_key(fn.value))
            out.append((site, fn.attr, key))
    return out


def _released_in_finally(func: FunctionInfo, acquire: ast.Call,
                         release_calls: List[ast.Call]) -> bool:
    """Is some release lexically inside a ``finally`` whose ``try``
    body contains the acquire?  Such a release runs on every exit."""
    releases = set(map(id, release_calls))
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        body_calls = {
            id(sub) for stmt in node.body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Call)}
        if id(acquire) not in body_calls:
            continue
        final_calls = {
            id(sub) for stmt in node.finalbody
            for sub in ast.walk(stmt) if isinstance(sub, ast.Call)}
        if releases & final_calls:
            return True
    return False


def _released_in_catchall(func: FunctionInfo, acquire: ast.Call,
                          name: str, releasing: Set[str]) -> bool:
    """Is the acquire inside a ``try`` whose catch-all handler (bare
    ``except`` / ``except BaseException`` / ``except Exception``)
    releases ``name``?  The CFG keeps an unconditional propagate edge
    past every handler chain, so a cleanup-and-reraise handler needs
    this lexical recognition to cover the exceptional exit."""
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Try) or not node.handlers:
            continue
        body_calls = {
            id(sub) for stmt in node.body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Call)}
        if id(acquire) not in body_calls:
            continue
        for handler in node.handlers:
            htype = handler.type
            catch_all = htype is None or (
                isinstance(htype, ast.Name)
                and htype.id in ("BaseException", "Exception"))
            if not catch_all:
                continue
            for stmt in handler.body:
                if _releases_or_escapes(stmt, name, releasing):
                    return True
    return False


def _rebind_nodes(func: FunctionInfo, name: str) -> Set[int]:
    """CFG nodes that (re)bind local ``name`` — they cut reachability
    for per-object path queries (loop back-edges re-enter through the
    construction, which starts a fresh object)."""
    out: Set[int] = set()
    for node in func.cfg.stmt_nodes():
        stmt = node.stmt
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in stmt.targets):
            out.add(node.index)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)) and any(
                isinstance(n, ast.Name) and n.id == name
                for n in ast.walk(stmt.target)):
            out.add(node.index)
    return out


# ---------------------------------------------------------------------
# EM301: pinned frame / reserved budget not released on some path
# ---------------------------------------------------------------------

def _em301_paired(project: Project,
                  func: FunctionInfo) -> List[Finding]:
    """``try_pin``/``pin``/``harden`` must meet its paired release on
    every path, via a finally, or via the class-holder protocol."""
    findings: List[Finding] = []
    acquires = _attr_sites(func, set(PAIRED_ACQUIRES))
    if not acquires:
        return findings
    for site, method, key in acquires:
        release = PAIRED_ACQUIRES[method]
        release_sites = _attr_sites(func, {release})
        matching = [s for s, _m, k in release_sites if k == key]
        if not matching and len(release_sites) == 1 and len(
                {k for _s, _m, k in acquires}) == 1:
            # one acquire receiver, one release receiver: same object
            matching = [release_sites[0][0]]
        if matching:
            if _released_in_finally(
                    func, site.call, [s.call for s in matching]):
                continue
            removed = {s.node_index for s in matching}
            for label, trace in _leak_exits(
                    func, site.node_index, removed,
                    [f"{method}() on {key!r} at "
                     f"{func.path}:{site.lineno}"]):
                findings.append(Finding(
                    rule="EM301", path=func.path, line=site.lineno,
                    col=1,
                    message=f"{method}() on {key!r} in "
                            f"{func.display()} has no {release}() on a "
                            f"{label} path [{'; '.join(trace)}]",
                    trace=trace,
                ))
            continue
        if _class_releases(func, key, release):
            continue
        findings.append(Finding(
            rule="EM301", path=func.path, line=site.lineno, col=1,
            message=f"{method}() on {key!r} in {func.display()} is "
                    f"never paired with {release}() (neither here nor "
                    "by another method of the class)",
            trace=(f"{method}() at {func.path}:{site.lineno}",),
        ))
    return findings


def _class_releases(func: FunctionInfo, key: str,
                    release: str) -> bool:
    """Class-holder protocol: another method of the same class calls
    the paired release on the same ``self.``-rooted receiver."""
    if func.cls is None or not (key == "self" or key.startswith("self.")):
        return False
    for method in func.cls.methods.values():
        if method is func:
            continue
        for _site, _m, k in _attr_sites(method, {release}):
            if k == key:
                return True
    return False


def _em301_writer_reserve(func: FunctionInfo) -> List[Finding]:
    """``x.reserve_writer()`` charges the stream's staging buffer up
    front; finalize/sync/delete (or an ownership escape) must follow on
    every path."""
    findings: List[Finding] = []
    releasing = set(WRITER_RESERVE_RELEASES) | RELEASING_NAMES
    for site, _method, key in _attr_sites(func, {"reserve_writer"}):
        if "." in key:
            continue  # attribute receivers follow the class protocol
        removed = {
            node.index for node in func.cfg.stmt_nodes()
            if node.stmt is not None
            and _releases_or_escapes(node.stmt, key, releasing)}
        for label, trace in _leak_exits(
                func, site.node_index, removed,
                [f"reserve_writer() on {key!r} at "
                 f"{func.path}:{site.lineno}"]):
            if label == "exception" and _released_in_catchall(
                    func, site.call, key, releasing):
                continue
            findings.append(Finding(
                rule="EM301", path=func.path, line=site.lineno, col=1,
                message=f"writer reservation on {key!r} in "
                        f"{func.display()} reaches a {label} without "
                        "finalize()/sync()/delete() "
                        f"[{'; '.join(trace)}]",
                trace=trace,
            ))
    return findings


def _em301_reader(func: FunctionInfo) -> List[Finding]:
    """A reader bound to a name (``reader = iter(stream)``, see
    :func:`repro.analysis.streams.opens`) holds a frame from its first
    ``next``;
    if an exception handler is reachable while the reader is open and
    the handler can exit the function, the frame outlives the handler
    (the traceback keeps the generator alive).  Close the reader in a
    ``finally`` or wrap it in ``contextlib.closing``."""
    findings: List[Finding] = []
    cfg = func.cfg
    junctions = [n for n in cfg.nodes
                 if n.kind == JUNCTION and n.label == "TryJunction"]
    if not junctions:
        return findings
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and opens(stmt.value, func.streams, func.returns)):
            continue
        name = stmt.targets[0].id
        removed = {
            n.index for n in cfg.stmt_nodes()
            if n.stmt is not None and n.index != node.index
            and _releases_or_escapes(n.stmt, name, {"close"})}
        starts = sorted(cfg.succ[node.index] - cfg.exc_succ[node.index])
        reach = cfg.reachable(starts, removed)
        for junction in junctions:
            if junction.index not in reach:
                continue
            handler_entries = sorted(
                cfg.succ[junction.index]
                - cfg.exc_succ[junction.index])
            if not handler_entries:
                continue  # bare try/finally: no handler holds on
            handler_reach = cfg.reachable(handler_entries, removed)
            if cfg.exit not in handler_reach \
                    and cfg.exc_exit not in handler_reach:
                continue
            handler_line = cfg.nodes[handler_entries[0]].lineno
            path = _path_lines(cfg, handler_entries[0],
                               cfg.exc_exit if cfg.exc_exit
                               in handler_reach else cfg.exit, removed)
            trace = (
                f"reader opened at {func.path}:{stmt.lineno}",
                f"handler at line {handler_line} runs with the "
                "reader frame still pinned",
            ) + ((f"leaking path: {path}",) if path else ())
            findings.append(Finding(
                rule="EM301", path=func.path, line=stmt.lineno, col=1,
                message=f"stream reader {name!r} "
                        f"({ast.unparse(stmt.value)} at line "
                        f"{stmt.lineno}) can be left open across "
                        f"the exception handler at line {handler_line}"
                        ": its frame stays pinned while the handler "
                        "runs; close it in a finally or wrap it in "
                        "contextlib.closing "
                        f"[{'; '.join(trace)}]",
                trace=trace,
            ))
            break
    return findings


# ---------------------------------------------------------------------
# EM302: handle opened without a guaranteed close
# ---------------------------------------------------------------------

def _handle_constructions(
        func: FunctionInfo) -> List[Tuple[CallSite, str, str]]:
    """(site, class name, bound local name) for every
    ``x = HandleClass(...)`` construction bound to a plain local."""
    out: List[Tuple[CallSite, str, str]] = []
    for site in func.calls:
        head = _call_head(site.call)
        if head not in HANDLE_CLASSES:
            continue
        stmt = func.cfg.nodes[site.node_index].stmt
        name = _binding_name(stmt, site.call)
        if name is not None:
            out.append((site, head, name))
    return out


def _em302_unclosed(func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    for site, head, name in _handle_constructions(func):
        removed = {
            node.index for node in func.cfg.stmt_nodes()
            if node.stmt is not None
            and _releases_or_escapes(node.stmt, name, RELEASING_NAMES)}
        for label, trace in _leak_exits(
                func, site.node_index, removed,
                [f"{head} {name!r} opened at "
                 f"{func.path}:{site.lineno}"]):
            if label != "return":
                continue  # exception-path budget leaks are EM101/EM301
            findings.append(Finding(
                rule="EM302", path=func.path, line=site.lineno, col=1,
                message=f"{head} {name!r} opened at line {site.lineno} "
                        "has no guaranteed close on a normal return "
                        f"path; use 'with {head}(...) as {name}:' "
                        f"[{'; '.join(trace)}]",
                trace=trace,
            ))
    return findings


def _em302_with_form(func: FunctionInfo) -> List[Finding]:
    """``x = C(...)`` followed by a bare ``with x:`` — correct, but the
    window between construction and ``with`` is unprotected; merge the
    two into ``with C(...) as x:``."""
    findings: List[Finding] = []
    constructed: Dict[str, Tuple[int, str]] = {}
    for node in walk_shallow(func.node):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            head = _call_head(node.value)
            if head in WITH_FORM_CLASSES:
                constructed[node.targets[0].id] = (node.lineno, head)
    if not constructed:
        return findings
    for node in walk_shallow(func.node):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Name) and expr.id in constructed \
                    and item.optional_vars is None:
                line, head = constructed[expr.id]
                findings.append(Finding(
                    rule="EM302", path=func.path, line=node.lineno,
                    col=node.col_offset + 1,
                    message=f"bare 'with {expr.id}:' over the {head} "
                            f"constructed at line {line}: merge into "
                            f"'with {head}(...) as {expr.id}:' so the "
                            "handle is guarded from construction on",
                    trace=(f"constructed at {func.path}:{line}",),
                ))
    return findings


# ---------------------------------------------------------------------
# EM303: use-after-release / double-release
# ---------------------------------------------------------------------

def _em303_use_after_release(func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    cfg = func.cfg
    for site, head, name in _handle_constructions(func):
        rebinds = _rebind_nodes(func, name)
        terminal: List[Tuple[int, str, int]] = []  # (node, method, line)
        uses: Dict[int, Tuple[str, int]] = {}      # node -> (desc, line)
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            if stmt is None or node.index == site.node_index:
                continue
            # header-only calls (_calls_in): nested statements have
            # their own CFG nodes and must not be double-counted here
            for sub in _calls_in(stmt):
                if isinstance(sub.func, ast.Attribute) and isinstance(
                        sub.func.value, ast.Name) \
                        and sub.func.value.id == name:
                    method = sub.func.attr
                    if method in TERMINAL_METHODS \
                            and method != "__exit__":
                        terminal.append(
                            (node.index, method, sub.lineno))
                    elif method not in SAFE_AFTER_TERMINAL:
                        uses.setdefault(node.index, (
                            f"{name}.{method}()", sub.lineno))
            if isinstance(stmt, (ast.For, ast.AsyncFor)) \
                    and isinstance(stmt.iter, ast.Name) \
                    and stmt.iter.id == name:
                uses.setdefault(node.index, (
                    f"iteration over {name!r}", stmt.lineno))
        for t_node, t_method, t_line in terminal:
            starts = sorted(cfg.succ[t_node] - cfg.exc_succ[t_node])
            reach = cfg.reachable(starts, rebinds)
            for u_node, (desc, u_line) in sorted(uses.items()):
                if u_node not in reach:
                    continue
                trace = (
                    f"{name}.{t_method}() at {func.path}:{t_line}",
                    f"{desc} reachable afterwards at line {u_line}",
                )
                findings.append(Finding(
                    rule="EM303", path=func.path, line=u_line, col=1,
                    message=f"{desc} at line {u_line} can run after "
                            f"{name}.{t_method}() at line {t_line}: "
                            f"use-after-release of the {head} handle "
                            f"[{'; '.join(trace)}]",
                    trace=trace,
                ))
                break  # one finding per terminal site
    return findings


def _em303_release_before_guard(func: FunctionInfo) -> List[Finding]:
    """A releasing method whose idempotence flag (``self._closed = True``
    style) is set only *after* fallible work can release twice: a first
    call releases, raises before the flag assignment, and a second call
    passes the guard and releases again."""
    if func.cls is None or not func.releases \
            or func.name not in RELEASING_NAMES:
        return []
    guard_attrs: Set[str] = set()
    for node in walk_shallow(func.node):
        if isinstance(node, ast.If):
            for sub in ast.walk(node.test):
                if isinstance(sub, ast.Attribute) and isinstance(
                        sub.value, ast.Name) and sub.value.id == "self":
                    guard_attrs.add(sub.attr)
    if not guard_attrs:
        return []
    cfg = func.cfg
    guard_assigns: Dict[int, str] = {}
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Attribute)
                and isinstance(stmt.targets[0].value, ast.Name)
                and stmt.targets[0].value.id == "self"
                and stmt.targets[0].attr in guard_attrs
                and isinstance(stmt.value, ast.Constant)):
            guard_assigns[node.index] = stmt.targets[0].attr
    if not guard_assigns:
        return []
    removed = set(guard_assigns)
    findings: List[Finding] = []
    for release in func.releases:
        if release.node_index not in cfg.reachable(
                [cfg.entry], removed):
            continue  # release itself sits behind the flag assignment
        starts = sorted(cfg.succ[release.node_index]
                        - cfg.exc_succ[release.node_index])
        reach = cfg.reachable(starts, removed)
        if cfg.exc_exit not in reach:
            continue
        attrs = ", ".join(sorted(set(guard_assigns.values())))
        path = ""
        for start in starts:
            path = _path_lines(cfg, start, cfg.exc_exit, removed)
            if path:
                break
        trace = (
            f"release at {func.path}:{release.lineno}",
            f"guard flag ({attrs}) assigned only later",
        ) + ((f"escaping path: {path}",) if path else ())
        findings.append(Finding(
            rule="EM303", path=func.path, line=release.lineno, col=1,
            message=f"budget release on {release.key!r} at line "
                    f"{release.lineno} can repeat: an exception before "
                    f"the idempotence flag ({attrs}) is set leaves "
                    f"{func.display()} re-runnable past its guard "
                    f"[{'; '.join(trace)}]",
            trace=trace,
        ))
    return findings


# ---------------------------------------------------------------------
# EM304: raw disk I/O outside the runtime
# ---------------------------------------------------------------------

def _em304_raw_io(func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    for site, method, key in _attr_sites(func, RAW_DISK_METHODS):
        last = key.rsplit(".", 1)[-1]
        root = key.split(".", 1)[0]
        if last not in ("disk", "disks") \
                and root not in ("disk", "disks") \
                and func.local_types.get(root) not in (
                    "DiskArray", "SimulatedDisk"):
            continue
        findings.append(Finding(
            rule="EM304", path=func.path, line=site.lineno, col=1,
            message=f"raw disk I/O {key}.{method}() in "
                    f"{func.display()} bypasses Runtime.read_block / "
                    "WriteBehind: it forfeits retry-with-backoff, "
                    "checksum scrubbing, and write coalescing; route "
                    "through machine.runtime",
            trace=(f"raw {method}() at {func.path}:{site.lineno}",),
        ))
    return findings


# ---------------------------------------------------------------------
# EM305: checkpoint-protocol violations
# ---------------------------------------------------------------------

def _manifest_tainted(func: FunctionInfo) -> Set[str]:
    """Names whose value derives from a manifest (``manifest.result``,
    loop/comprehension targets over ``manifest.partial_runs``, ...)."""
    tainted = {
        name for name in list(func.params) + list(func.local_types)
        if "manifest" in name
        or func.local_types.get(name) == "SortManifest"}
    changed = True
    while changed:
        changed = False
        for node in walk_shallow(func.node):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
                value = node.value
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.target]
                value = node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if names_in(gen.iter) & tainted:
                        for n in ast.walk(gen.target):
                            if isinstance(n, ast.Name) \
                                    and n.id not in tainted:
                                tainted.add(n.id)
                                changed = True
                continue
            if value is None or not names_in(value) & tainted:
                continue
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and n.id not in tainted:
                        tainted.add(n.id)
                        changed = True
    return tainted


def _manifest_receiver(func: FunctionInfo, key: str) -> bool:
    root = key.split(".", 1)[0]
    last = key.rsplit(".", 1)[-1]
    return ("manifest" in last or "manifest" in root
            or func.local_types.get(root) == "SortManifest")


def _em305_manifest(func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    tainted = _manifest_tainted(func)
    # (a) adopt of block ids a manifest does not describe
    for site in func.calls:
        fn = site.call.func
        if not (isinstance(fn, ast.Attribute) and fn.attr == "adopt"):
            continue
        blocks_arg: Optional[ast.AST] = None
        if len(site.call.args) > 1:
            blocks_arg = site.call.args[1]
        for kw in site.call.keywords:
            if kw.arg == "block_ids":
                blocks_arg = kw.value
        if blocks_arg is None:
            continue
        if names_in(blocks_arg) & tainted:
            continue
        if _immediately_deleted(func, site.call):
            continue
        findings.append(Finding(
            rule="EM305", path=func.path, line=site.lineno, col=1,
            message="adopt() of block ids that no manifest describes: "
                    "recovery cannot verify or reclaim these blocks; "
                    "adopt only what a committed SortManifest lists",
            trace=(f"adopt at {func.path}:{site.lineno}",),
        ))
    # (b) output writes reachable after the result commit
    cfg = func.cfg
    commits = [(s, k) for s, m, k in _attr_sites(
        func, {"commit_result"}) if _manifest_receiver(func, k)]
    if commits:
        writes = _attr_sites(func, set(WRITE_METHODS))
        for commit, key in commits:
            starts = sorted(cfg.succ[commit.node_index]
                            - cfg.exc_succ[commit.node_index])
            reach = cfg.reachable(starts, set())
            for wsite, wmethod, wkey in writes:
                if wsite.node_index not in reach:
                    continue
                trace = (
                    f"{key}.commit_result() at "
                    f"{func.path}:{commit.lineno}",
                    f"{wkey}.{wmethod}() reachable at line "
                    f"{wsite.lineno}",
                )
                findings.append(Finding(
                    rule="EM305", path=func.path, line=wsite.lineno,
                    col=1,
                    message=f"{wkey}.{wmethod}() at line "
                            f"{wsite.lineno} can run after the result "
                            f"commit at line {commit.lineno}: the "
                            "manifest no longer describes what is on "
                            f"disk [{'; '.join(trace)}]",
                    trace=trace,
                ))
    return findings


def _immediately_deleted(func: FunctionInfo, call: ast.Call) -> bool:
    """``cls.adopt(...).delete()`` — reclamation of stale blocks."""
    for node in walk_shallow(func.node):
        if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) \
                and node.func.value is call \
                and node.func.attr in ("delete", "close"):
            return True
    return False


# ---------------------------------------------------------------------
# EM306: durability point with write-behind unflushed
# ---------------------------------------------------------------------

def _em306_durability(func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    cfg = func.cfg
    commits = [(s, k) for s, m, k in _attr_sites(func, COMMIT_METHODS)
               if _manifest_receiver(func, k)]
    if not commits:
        return findings
    writes = _attr_sites(func, set(WRITE_METHODS))
    if not writes:
        return findings
    flush_nodes = {
        s.node_index
        for s, _m, _k in _attr_sites(func, set(FLUSH_METHODS))}
    for wsite, wmethod, wkey in writes:
        starts = sorted(cfg.succ[wsite.node_index]
                        - cfg.exc_succ[wsite.node_index])
        reach = cfg.reachable(starts, flush_nodes)
        for commit, ckey in commits:
            if commit.node_index not in reach:
                continue
            path = ""
            for start in starts:
                path = _path_lines(cfg, start, commit.node_index,
                                   flush_nodes)
                if path:
                    break
            trace = (
                f"{wkey}.{wmethod}() at {func.path}:{wsite.lineno}",
                f"commit at line {commit.lineno} with no flush "
                "event between",
            ) + ((f"path: {path}",) if path else ())
            findings.append(Finding(
                rule="EM306", path=func.path, line=commit.lineno,
                col=1,
                message=f"durability point {ckey}."
                        f"{_site_attr(commit)}() at line "
                        f"{commit.lineno} is reachable from the "
                        f"{wkey}.{wmethod}() at line {wsite.lineno} "
                        "with no finalize()/sync()/flush() between: a "
                        "crash after the commit loses write-behind "
                        f"data the manifest claims durable "
                        f"[{'; '.join(trace)}]",
                trace=trace,
            ))
            break  # one finding per unflushed write
    return findings


def _site_attr(site: CallSite) -> str:
    fn = site.call.func
    return fn.attr if isinstance(fn, ast.Attribute) else ""
