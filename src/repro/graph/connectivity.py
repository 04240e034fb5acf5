"""Connected components in external memory.

The RAM approach (DFS/BFS with a visited bitmap) pays ~1 random I/O per
vertex on a disk-resident graph.  The survey's batched alternative is
*hook and contract*: every vertex hooks to its minimum neighbor, the
resulting pseudo-forest is collapsed to stars by pointer jumping, and the
edge list is relabelled through the star roots — all with external sorts
and merge joins, ``O(Sort(E))`` per round and ``O(log V)`` rounds.

Every sort is a pipelined :class:`~repro.pipeline.sorter.Sorter`, so no
sort input or sorted output is written as a stream.  Only streams read
twice stay on disk: ``labels`` and the edge list (they outlive a
round), the pointer-jump pointers (pushed by parent, then scanned as
the join's lookup) and the round's roots (the lookup of three joins).

Outputs label each vertex with the minimum vertex id of its component,
which makes results canonical and testable.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError, MemoryLimitExceeded
from ..core.machine import Machine
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter, sorted_unique
from .adjacency import AdjacencyStore

_first = itemgetter(0)
_second = itemgetter(1)


@io_bound(lambda machine, n: n + scan_io(n, machine.B, machine.D),
          factor=4.0,
          n=lambda machine, adjacency: (adjacency.num_vertices
                                        + adjacency.num_edges))
def dfs_components(machine: Machine, adjacency: AdjacencyStore) -> Dict[int, int]:
    """Baseline: repeated DFS with in-memory visited set, fetching
    adjacency lists on demand (~1 I/O per vertex, unbatched)."""
    labels: Dict[int, int] = {}
    for start in range(adjacency.num_vertices):
        if start in labels:
            continue
        stack = [start]
        labels[start] = start
        while stack:
            vertex = stack.pop()
            for neighbor in adjacency.neighbors(vertex):
                if neighbor not in labels:
                    labels[neighbor] = start
                    stack.append(neighbor)
    return labels


@io_bound(lambda machine, n: scan_io(n, machine.B, machine.D),
          factor=3.0)
def semi_external_components(
    machine: Machine,
    num_vertices: int,
    edges: FileStream,
) -> Dict[int, int]:
    """Semi-external union-find: one scan of the edge list with an
    in-memory parent array (valid when ``V <= M``; the survey's
    semi-external regime)."""
    if num_vertices > machine.M:
        # Semi-external regime: the parent array must fit in memory.
        raise MemoryLimitExceeded(
            num_vertices, machine.budget.in_use, machine.M)
    with machine.budget.reserve(num_vertices):
        parent = list(range(num_vertices))

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                if ru < rv:
                    parent[rv] = ru
                else:
                    parent[ru] = rv
        return {v: find(v) for v in range(num_vertices)}


def _external_cc_theory(machine: Machine, n: int) -> int:
    """``O(Sort(E) · log V)``: each hook-and-contract round pays a
    constant number of sorts and scans over the surviving edges, and
    the rounds (plus pointer-jump sub-rounds) are logarithmic."""
    rounds = max(1, n.bit_length())
    size = max(1, 2 * n)
    return rounds * (3 * sort_io(size, machine.M, machine.B, machine.D)
                     + 4 * scan_io(size, machine.B, machine.D))


@io_bound(_external_cc_theory, factor=8.0,
          n=lambda machine, num_vertices, edges, max_rounds=64: (
              num_vertices + len(edges)))
def external_components(
    machine: Machine,
    num_vertices: int,
    edges: FileStream,
    max_rounds: int = 64,
) -> Dict[int, int]:
    """Fully external hook-and-contract connected components, costing
    ``O(Sort(E))`` I/Os per round over ``O(log V)`` rounds.

    Args:
        num_vertices: vertices are ``0..num_vertices-1``.
        edges: finalized stream of undirected ``(u, v)`` pairs.

    Returns ``{vertex: component_min_id}``.
    """
    # labels maps original vertex -> current representative.
    labels = FileStream.from_records(
        machine, ((v, v) for v in range(num_vertices)), name="cc/labels")
    current_edges = roots = None
    try:
        current_edges = _normalize_edges(machine, edges, num_vertices)
        rounds = 0
        while len(current_edges) > 0:
            rounds += 1
            if rounds > max_rounds:
                raise ConfigurationError(
                    "hook-and-contract did not converge; malformed edge "
                    "input?"
                )
            roots = _pointer_jump_to_roots(
                machine, _hook_to_min_neighbor(machine, current_edges))
            labels, _ = _remap(machine, labels, roots, "cc/labels")
            contracted = _contract_edges(machine, current_edges, roots)
            current_edges.delete()
            current_edges = contracted
            roots.delete()
        # em: ok(EM005) the V-entry label map is the declared in-RAM
        # result (see docstring); the rounds' data stays on streams
        return {v: rep for v, rep in labels}
    finally:
        # delete() is idempotent: whatever a failed round left is freed.
        for stream in (labels, current_edges, roots):
            if stream is not None:
                stream.delete()


# ----------------------------------------------------------------------
# shared round machinery (also Borůvka's)
# ----------------------------------------------------------------------
def _join_roots(records: Iterable[tuple], roots: FileStream,
                index: int) -> Iterator[tuple]:
    """Map field ``index`` of ``records`` (sorted on that field) through
    the vertex-sorted ``(vertex, root)`` stream ``roots``: one merge join
    against one scan.  A vertex without an entry is its own root."""
    lookup = iter(roots)
    try:
        entry = next(lookup, None)
        for record in records:
            vertex = record[index]
            while entry is not None and entry[0] < vertex:
                entry = next(lookup, None)
            if entry is not None and entry[0] == vertex:
                record = record[:index] + (entry[1],) + record[index + 1:]
            yield record
    finally:
        lookup.close()


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
def _normalize_edges(
    machine: Machine, edges: FileStream, num_vertices: int
) -> FileStream:
    """Drop self-loops, orient ``u < v``, sort, and de-duplicate."""

    def oriented() -> Iterator[tuple]:
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ConfigurationError(
                    f"edge ({u}, {v}) outside vertex range"
                )
            if u != v:
                yield (min(u, v), max(u, v))

    return sorted_unique(machine, oriented(), "cc/edges")


def _hook_to_min_neighbor(
    machine: Machine, edges: FileStream
) -> FileStream:
    """For every endpoint, ``parent = min(vertex, min neighbor)``.

    Returns a stream of ``(vertex, parent)`` sorted by vertex, covering
    exactly the vertices incident to an edge.  Edges are oriented
    ``u < v``, so ``u`` offers itself and ``v`` the smaller ``u``: the
    first offer of each vertex in sorted order is its hook."""
    offers = (offer for u, v in edges for offer in ((u, u), (v, u)))
    return sorted_unique(machine, offers, "cc/parents", _first)


def _pointer_jump_to_roots(
    machine: Machine, parents: FileStream
) -> FileStream:
    """Repeat ``p(v) <- p(p(v))`` until stable: every vertex points to its
    pseudo-tree root.  Consumes ``parents``.  Each round is one remap of
    the pointers through themselves."""
    current = parents
    try:
        while True:
            jumped = _remap(machine, current, current, "cc/jumped")
            current, changed = jumped
            if not changed:
                return current
    except BaseException:
        current.delete()
        raise


def _remap(machine: Machine, pairs: FileStream, lookup: FileStream,
           name: str) -> Tuple[FileStream, bool]:
    """Map the second field of the vertex-sorted ``(vertex, x)`` pairs
    through ``lookup`` (vertex-sorted ``(vertex, root)``; may be
    ``pairs`` itself): push the pairs by ``x``, join the pull, write the
    result back in vertex order.  Consumes ``pairs``; also returns
    whether any ``x`` changed."""
    changed = False

    def mapped(by_x: Sorter) -> Iterator[tuple]:
        nonlocal changed
        # The copy of x in the third field is the one mapped.
        for vertex, x, root in _join_roots(by_x, lookup, 2):
            changed = changed or root != x
            yield (vertex, root)

    with Sorter(machine, key=_second, name=f"{name}/by-x") as by_x, \
            Sorter(machine, key=_first, name=name) as by_vertex:
        by_x.consume((v, x, x) for v, x in pairs)
        by_vertex.consume(mapped(by_x))
        pairs.delete()
        return FileStream.from_records(machine, by_vertex, name=name), changed


def _contract_edges(
    machine: Machine, edges: FileStream, roots: FileStream,
    same: Optional[Callable[[Any], Any]] = None,
) -> FileStream:
    """Replace both endpoints of every ``(u, v, ...)`` edge by their
    roots, orient ``u < v``, drop loops, and keep the first of each run
    of edges equal under ``same`` in full-record order."""
    with Sorter(machine, key=_first, name="cc/by-u") as by_u, \
            Sorter(machine, key=_second, name="cc/by-v") as by_v:
        by_u.consume(edges)
        by_v.consume(_join_roots(by_u, roots, 0))
        contracted = (
            (min(edge[0], edge[1]), max(edge[0], edge[1])) + edge[2:]
            for edge in _join_roots(by_v, roots, 1) if edge[0] != edge[1])
        return sorted_unique(machine, contracted, "cc/edges", same)
