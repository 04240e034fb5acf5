"""Minimum spanning trees (forests) in external memory.

Two regimes from the survey's graph section:

* :func:`semi_external_kruskal` — when the vertices (but not the edges)
  fit in memory: externally sort the edges by weight and stream them
  through an in-memory union-find.  Cost ``O(Sort(E))``.
* :func:`external_boruvka` — fully external: each round every component
  selects its minimum incident edge (a sort + scan), the chosen edges
  are contracted with the hook-and-contract machinery, and the edge list
  is relabelled; ``O(log V)`` rounds of ``O(Sort(E))``.

Both return ``(total_weight, mst_edges)`` where ``mst_edges`` are the
chosen original ``(u, v, w)`` triples (a spanning forest if the graph is
disconnected).  Ties are broken by edge input position, so results are
deterministic and the two algorithms select the same forest weight.

Every sort is a pipelined :class:`~repro.pipeline.sorter.Sorter`.
Borůvka keeps on disk only streams read twice: the loaded edges (round
one's edge list, then the chosen-id lookup), each later round's edges,
and the round's vertex-ordered ``parents`` (the mutual-pair join's
lookup, then the 2-cycle repair's scan).
"""

from __future__ import annotations

from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, List, Set, Tuple

from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError, MemoryLimitExceeded
from ..core.machine import Machine
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter
from .connectivity import (
    _contract_edges,
    _join_roots,
    _pointer_jump_to_roots,
)


def _kruskal_theory(machine: Machine, n: int) -> float:
    """``Sort(E)`` plus a constant number of scans; unsized edge
    iterables (n ≤ 0) have no static bound."""
    if n <= 0:
        return float("inf")
    return (sort_io(n, machine.M, machine.B, machine.D)
            + 3 * scan_io(n, machine.B, machine.D))


def _boruvka_theory(machine: Machine, n: int) -> float:
    """``O(Sort(E) · log V)``: a constant number of sorts and scans over
    the doubled surviving edges per round, logarithmically many rounds."""
    if n <= 0:
        return float("inf")
    rounds = max(1, n.bit_length())
    size = 2 * n
    return rounds * (6 * sort_io(size, machine.M, machine.B, machine.D)
                     + 8 * scan_io(size, machine.B, machine.D))


def _positioned(num_vertices: int, edges: Iterable[Tuple[int, int, int]]
                ) -> Iterator[Tuple[int, int, int, int]]:
    """Validated ``(u, v, w, input position)`` records, loops dropped."""
    for position, (u, v, w) in enumerate(edges):
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ConfigurationError(f"edge ({u}, {v}) outside vertex range")
        if u != v:
            yield (u, v, w, position)


@io_bound(_kruskal_theory, factor=4.0)
def semi_external_kruskal(
    machine: Machine,
    num_vertices: int,
    edges: Iterable[Tuple[int, int, int]],
) -> Tuple[int, List[Tuple[int, int, int]]]:
    """Kruskal with an in-memory union-find over the vertices.

    Cost: ``Sort(E)`` plus one scan.  Requires ``V <= M`` (the
    semi-external regime); the memory budget enforces it.
    """
    if num_vertices > machine.M:
        # Semi-external regime: the union-find array must fit in memory.
        raise MemoryLimitExceeded(
            num_vertices, machine.budget.in_use, machine.M)
    # The sort pushes with all of memory.  The pull is planned beside
    # the union-find, which is reserved once the first edge is pulled
    # (after any merge-down, which may use it).
    with Sorter(machine, key=itemgetter(2, 3),
                name="mst/by-weight") as by_weight:
        by_weight.consume(_positioned(num_vertices, edges))
        ordered = by_weight.finish(beside=num_vertices)
        first = list(islice(ordered, 1))
        with machine.budget.reserve(num_vertices):
            parent = list(range(num_vertices))

            def find(x: int) -> int:
                root = x
                while parent[root] != root:
                    root = parent[root]
                while parent[x] != root:
                    parent[x], x = root, parent[x]
                return root

            chosen: List[Tuple[int, int, int]] = []
            total = 0
            for u, v, w, _ in chain(first, ordered):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)
                    chosen.append((u, v, w))
                    total += w
    return total, chosen


@io_bound(_boruvka_theory, factor=6.0)
def external_boruvka(
    machine: Machine,
    num_vertices: int,
    edges: Iterable[Tuple[int, int, int]],
    max_rounds: int = 64,
) -> Tuple[int, List[Tuple[int, int, int]]]:
    """Fully external Borůvka: minimum-incident-edge selection plus
    hook-and-contract rounds, all by sorting.

    Each round at least halves the number of live components, so there
    are ``O(log V)`` rounds of ``O(Sort(E))`` each.  The set of chosen
    edge ids (≤ V−1 integers) is the one in-memory index, in line with
    the package's semi-external bookkeeping convention; all edge traffic
    is sorted streams.
    """
    # The loaded edges are round one's edge list and, at the end, the
    # on-disk index from chosen edge ids back to original edges.
    originals = FileStream.from_records(
        machine, _positioned(num_vertices, edges), name="mst/edges")
    current, parents, resolved, roots = originals, None, None, None
    chosen_ids: Set[int] = set()
    try:
        rounds = 0
        while len(current) > 0:
            rounds += 1
            if rounds > max_rounds:
                raise ConfigurationError(
                    "Borůvka did not converge; malformed edge input?"
                )
            # --- 1. minimum incident edge per live vertex (its first
            # pulled record); the hook is also pushed by parent. ------
            with Sorter(machine, key=itemgetter(0, 2, 3),
                        name="mst/directed") as directed, \
                    Sorter(machine, key=itemgetter(1),
                           name="mst/by-parent") as by_parent, \
                    Sorter(machine, name="mst/mutual") as mutual:
                directed.consume(
                    edge for u, v, w, eid in current
                    for edge in ((u, v, w, eid), (v, u, w, eid)))
                parents = FileStream.from_records(
                    machine, _hooks(directed, by_parent, chosen_ids),
                    name="mst/parents")

                # Two vertices that pick the same edge hook to each
                # other, forming a 2-cycle; make the smaller endpoint of
                # each mutual pair a root so hooks form a forest.
                for vertex, parent, grandparent in _join_roots(
                        by_parent, parents, 2):
                    if grandparent == vertex and vertex < parent:
                        mutual.push(vertex)
                resolved = FileStream.from_records(
                    machine, _rooted(parents, mutual), name="mst/resolved")
            parents.delete()
            roots = _pointer_jump_to_roots(machine, resolved)

            # --- 2. contract: relabel endpoints, drop loops, keep the
            # minimum weight per component pair. -----------------------
            contracted = _contract_edges(machine, current, roots,
                                         itemgetter(0, 1))
            if current is not originals:
                current.delete()
            current = contracted
            roots.delete()

        # Collect the chosen original edges.
        chosen: List[Tuple[int, int, int]] = []
        total = 0
        for u, v, w, eid in originals:
            if eid in chosen_ids:
                # em: ok(EM005) semi-external: the ≤ V-1 MST output edges
                chosen.append((u, v, w))
                total += w
        return total, chosen
    finally:
        for stream in (originals, current, parents, resolved, roots):
            if stream is not None:
                stream.delete()


def _hooks(stream: Sorter, by_parent: Sorter,
           chosen_ids: Set[int]) -> Iterator[Tuple[int, int]]:
    """Each vertex's hook along its minimum incident edge (its first
    pulled record), noting the edge id and pushing the hook by parent."""
    last_vertex = None
    for src, dst, _, eid in stream:
        if src != last_vertex:
            # em: ok(EM005) semi-external: ≤ V-1 chosen edge ids,
            # the package's RAM-resident index convention
            chosen_ids.add(eid)
            by_parent.push((src, dst, dst))
            yield (src, dst)
            last_vertex = src


def _rooted(parents: FileStream,
            mutual: Sorter) -> Iterator[Tuple[int, int]]:
    """``parents`` (vertex order) with every pulled ``mutual`` vertex
    made its own root."""
    pulled = iter(mutual)
    entry = next(pulled, None)
    for vertex, parent in parents:
        while entry is not None and entry < vertex:
            entry = next(pulled, None)
        yield (vertex, vertex if entry == vertex else parent)
