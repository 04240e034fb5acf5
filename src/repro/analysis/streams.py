"""The analyzer's one stream vocabulary: every tier asks this module

* **what builds a stream** — a stream class, ``from_records`` /
  ``from_payload``, ``finalize``; ``Sorter(...)`` builds a sorter,
  whose iteration pulls its merge;
* **what returns a stream** — a ``-> FileStream`` or
  ``-> List[FileStream]`` annotation, or a returned stream value: the
  flow ``Project`` runs that fixpoint over the call graph, and a
  callee outside the linted set falls back to :data:`SEED`;
* **what is a reader or a scan** — ``iter(s)``, ``s.iter_blocks()``,
  or a sorter's ``finish()`` / ``finish_segments()`` pull, bound to a
  name or passed on, over any stream value ``s`` (``table.stream``
  too);
* **which callees are materializing sorts** — :data:`SEED`'s sorts and
  any function that returns one's result.

:func:`kind` answers for an expression from the kinds of the local
names and a ``returns`` callback for calls: the per-line tier passes
:func:`seed_returns`, the project tiers their resolved callee's answer.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, List, Optional, Tuple

STREAM, STREAMS, READER, SORTER = "stream", "streams", "reader", "sorter"

#: ``stream_cls`` is the parameter through which algorithms accept an
#: alternative stream class
STREAM_CLASSES = frozenset({"FileStream", "StripedStream", "stream_cls"})

#: library callees that return a stream, for call sites whose callee
#: is not in the linted set; ``True`` marks the materializing sorts
SEED = {
    "external_merge_sort": True, "two_way_merge_sort": True,
    "distribution_sort": True, "external_string_sort": True,
    "buffer_tree_sort": True,
    "merge_streams": False, "permute": False, "permute_naive": False,
    "permute_by_sort": False, "segment_intersections": False,
    "segment_intersections_naive": False, "order_by": False,
    "distinct": False,
}

#: readers that yield one block payload per step, N/B in all (a
#: BlockMerger's ``blocks`` re-emits what its run readers read)
BLOCK_READERS = frozenset({"iter_blocks", "finish_segments", "blocks"})

#: ``returns(call)``: the kind a call returns when it builds nothing
Returns = Callable[[ast.Call], Optional[str]]


def call_head(call: ast.Call) -> Optional[str]:
    """``f`` of ``f(...)`` and of ``x.f(...)``."""
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return None


def annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """The head identifier of an annotation (``List`` of
    ``List[FileStream]``, ``FileStream`` of ``"FileStream"``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].split(".")[-1].strip()
    if isinstance(node, ast.Subscript):
        return annotation_name(node.value)
    return None


def annotated(node: Optional[ast.AST]) -> Optional[str]:
    """The kind an annotation declares: a list or tuple holding a
    stream class declares ``STREAMS``."""
    head = annotation_name(node)
    if head in STREAM_CLASSES:
        return STREAM
    if head == "Sorter":
        return SORTER
    if head in ("List", "list", "Tuple", "tuple") and any(
            cls in ast.unparse(node) for cls in STREAM_CLASSES):
        return STREAMS
    return None


def named_stream(name: str) -> bool:
    """The one name rule: an unannotated parameter or an attribute
    called ``stream`` or ``*_stream`` holds a stream."""
    return name == "stream" or name.endswith("_stream")


def seed_returns(call: ast.Call) -> Optional[str]:
    return STREAM if call_head(call) in SEED else None


def seed_sorts(call: ast.Call) -> bool:
    return SEED.get(call_head(call), False)


def builds(call: ast.Call) -> Optional[str]:
    """``STREAM`` or ``SORTER`` when ``call`` builds one itself."""
    head = call_head(call)
    if isinstance(call.func, ast.Name):
        return STREAM if head in STREAM_CLASSES \
            else SORTER if head == "Sorter" else None
    return STREAM if head in ("from_records", "from_payload",
                              "finalize") else None


def reader_source(node: ast.AST, names: Dict[str, str],
                  returns: Returns) -> Optional[ast.AST]:
    """The stream value that ``node`` opens a reader on, or None."""
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name) and node.func.id == "iter" \
            and len(node.args) == 1:
        source = node.args[0]
    elif isinstance(node.func, ast.Attribute) and node.func.attr in (
            "iter_blocks", "finish", "finish_segments"):
        source = node.func.value
    else:
        return None
    return source if kind(source, names, returns) in (
        STREAM, READER, SORTER) else None


def opens(node: ast.AST, names: Dict[str, str],
          returns: Returns) -> Optional[ast.AST]:
    """The stream ``node`` opens a reader on; not a sorter's pull (the
    sorter owns it) nor a reader of a reader."""
    source = reader_source(node, names, returns)
    return source if source is not None \
        and kind(source, names, returns) == STREAM else None


def kind(node: ast.AST, names: Dict[str, str],
         returns: Returns) -> Optional[str]:
    """``STREAM``, ``STREAMS``, ``READER`` or ``SORTER`` when ``node``
    evaluates to one, given the kinds of the local ``names``."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        return STREAM if named_stream(node.attr) else None
    if isinstance(node, ast.Subscript):
        return STREAM if kind(node.value, names, returns) == STREAMS \
            else None
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        elt = node.elt.elts[0] if isinstance(node.elt, ast.Tuple) \
            and node.elt.elts else node.elt
        return STREAMS if kind(elt, names, returns) == STREAM else None
    if isinstance(node, ast.Call):
        if reader_source(node, names, returns) is not None:
            return READER
        return builds(node) or returns(node)
    return None


def bound_value(item: ast.withitem) -> ast.AST:
    """What ``with closing(x) as name`` binds to ``name``: ``x``."""
    expr = item.context_expr
    if isinstance(expr, ast.Call) and call_head(expr) == "closing" \
            and len(expr.args) == 1:
        return expr.args[0]
    return expr


def walk_shallow(node: ast.AST) -> List[ast.AST]:
    """``ast.walk`` that skips nested function and class definitions,
    which are analysis units of their own."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
            continue
        out.append(child)
        stack.extend(ast.iter_child_nodes(child))
    return out


def binding_sites(func: ast.AST) -> Tuple[List[Tuple[str, ast.AST]],
                                           List[ast.AST]]:
    """Every ``(name, value)`` that ``name = value`` or ``with value as
    name`` binds in a function, in source order, and every value it
    returns."""
    sites: List[Tuple[str, ast.AST]] = []
    values: List[ast.AST] = []
    for node in walk_shallow(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            sites.append((node.targets[0].id, node.value))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            sites.extend((item.optional_vars.id, bound_value(item))
                         for item in node.items
                         if isinstance(item.optional_vars, ast.Name))
        elif isinstance(node, ast.Return) and node.value is not None:
            values.append(node.value)
    sites.sort(key=lambda site: (site[1].lineno, site[1].col_offset))
    return sites, values


def local_kinds(params: Iterable[ast.arg],
                sites: List[Tuple[str, ast.AST]],
                returns: Returns) -> Dict[str, str]:
    """The kind of every local name: parameters by annotation or
    :func:`named_stream`, then each name by its first binding to a
    stream value."""
    names: Dict[str, str] = {}
    for arg in params:
        found = annotated(arg.annotation) if arg.annotation else (
            STREAM if named_stream(arg.arg) else None)
        if found in (STREAM, SORTER):
            names[arg.arg] = found
    for name, value in sites:
        if name not in names:
            found = kind(value, names, returns)
            if found is not None:
                names[name] = found
    return names


def returned(annotation: Optional[ast.AST], values: List[ast.AST],
             names: Dict[str, str], returns: Returns) -> Optional[str]:
    """What a function returns: its annotation, else the kind of its
    first returned value that has one."""
    found = annotated(annotation)
    for value in values:
        found = found or kind(value, names, returns)
    return found
