"""Euler tours: tree labelling via list ranking.

The survey's bridge from list ranking to tree problems: replace each
undirected tree edge by two opposing arcs, link the arcs into a single
Euler tour (at each vertex, the arc arriving from neighbor ``u`` is
followed by the arc leaving toward the cyclically next neighbor), and
*rank the tour*.  Tour positions orient every edge (the arc seen first is
the downward one), and a second, ±1-weighted ranking turns positions into
depths — all in ``O(Sort(N))`` I/Os, where a naive rooted traversal would
pay one random I/O per tree edge.

:func:`tree_depths` returns ``(depths, parents)`` for every vertex of a
tree given as an undirected edge list.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Tuple

from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError
from ..core.machine import Machine
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter, _primed
from .list_ranking import list_ranking, weighted_list_ranking

_dst = itemgetter(1)
_head_order = itemgetter(1, 0)


def _tour_theory(machine: Machine, n: int) -> int:
    """``O(Sort(N))`` over the ``2(n-1)`` arcs plus constant scans."""
    arcs = max(1, 4 * n)
    return (2 * sort_io(arcs, machine.M, machine.B, machine.D)
            + 4 * scan_io(arcs, machine.B, machine.D))


@io_bound(_tour_theory, factor=4.0,
          n=lambda machine, num_vertices, edges, root: num_vertices)
def build_euler_tour(
    machine: Machine,
    num_vertices: int,
    edges: Iterable[Tuple[int, int]],
    root: int,
) -> Tuple[List[Tuple[int, int]], Dict[int, Tuple[int, int]]]:
    """Link the ``2(n-1)`` arcs of a tree into an Euler tour.

    Returns ``(successor_pairs, arc_endpoints)`` where arcs are numbered
    by their position in the ``(dst, src)``-sorted arc order,
    ``successor_pairs`` is the ``(arc_id, successor_arc_id)`` linked list
    (tour start: the arc leaving ``root`` toward its smallest neighbor;
    the arc closing the cycle gets successor ``-1``), and
    ``arc_endpoints[arc_id] = (src, dst)``.

    Per-vertex adjacency groups are processed in memory (max degree must
    fit), and the arc-id lookup table is held in memory like the other
    semi-external indexes in this package.  The arcs go through one
    pipelined sort by ``(dst, src)`` whose merge is pulled straight into
    the link writer: the sort's runs written and read back (nothing
    when the arcs fit one memoryload), and the links written and read
    once.
    """
    # The 2(V-1)-entry arc table is RAM-resident like this package's
    # vertex indexes; a group holds one vertex's arriving arcs.
    arc_endpoints: Dict[int, Tuple[int, int]] = {}

    def linked(by_head: Iterable[Tuple[int, int]]
               ) -> Iterator[Tuple[int, Tuple[int, int]]]:
        # For each head vertex, the arc arriving from `src` continues as
        # the arc leaving toward the cyclically next neighbor.
        arc_id = 0
        for head, arriving in groupby(by_head, key=_dst):
            group = []  # (src, arc_id) per arriving arc
            for src, _ in arriving:
                arc_endpoints[arc_id] = (src, head)
                group.append((src, arc_id))
                arc_id += 1
            for position, (src, this_id) in enumerate(group):
                next_src = group[(position + 1) % len(group)][0]
                yield (this_id, (head, next_src))

    # Arc ids = position in the (dst, src) sort order.
    with Sorter(machine, key=_head_order, name="euler/arcs") as by_head:
        edge_count = 0
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ConfigurationError(
                    f"edge ({u}, {v}) outside vertex range")
            if u == v:
                raise ConfigurationError(
                    f"self-loop ({u}, {v}) is not a tree")
            by_head.push((u, v))
            by_head.push((v, u))
            edge_count += 1
        if edge_count != num_vertices - 1:
            raise ConfigurationError(
                f"a tree on {num_vertices} vertices has {num_vertices - 1} "
                f"edges, got {edge_count}"
            )
        links = FileStream.from_records(
            machine, _primed(linked(by_head)), name="euler/links")

    try:
        # Resolve successor endpoint pairs to arc ids through the
        # RAM-resident arc table.
        endpoint_to_id = {ends: arc for arc, ends in arc_endpoints.items()}

        start_neighbor = min(
            d for s, d in arc_endpoints.values() if s == root
        )
        start_id = endpoint_to_id[(root, start_neighbor)]

        successor_pairs: List[Tuple[int, int]] = []
        for this_id, (succ_src, succ_dst) in links:
            succ_id = endpoint_to_id[(succ_src, succ_dst)]
            if succ_id == start_id:
                succ_id = -1  # break the cycle where it would re-enter start
            # em: ok(EM005) semi-external: the 2(V-1)-entry successor list
            successor_pairs.append((this_id, succ_id))
    finally:
        links.delete()
    return successor_pairs, arc_endpoints


def _depths_theory(machine: Machine, n: int) -> int:
    """Tour build + two list rankings: ``O(Sort(N))`` expected, with a
    log-factor margin for the randomized contraction rounds."""
    arcs = max(1, 4 * n)
    rounds = max(1, arcs.bit_length())
    return rounds * (sort_io(arcs, machine.M, machine.B, machine.D)
                     + 2 * scan_io(arcs, machine.B, machine.D))


@io_bound(_depths_theory, factor=6.0,
          n=lambda machine, num_vertices, edges, root=0: num_vertices)
def tree_depths(
    machine: Machine,
    num_vertices: int,
    edges: Iterable[Tuple[int, int]],
    root: int = 0,
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Compute every vertex's depth and parent in the tree rooted at
    ``root`` via Euler tour + two list rankings.

    Returns ``(depths, parents)``; ``parents[root]`` is ``-1``.
    Expected cost ``O(Sort(N))`` I/Os.
    """
    if num_vertices == 1:
        return {root: 0}, {root: -1}
    successor_pairs, arc_endpoints = build_euler_tour(
        machine, num_vertices, edges, root
    )

    # First ranking: tour positions orient the edges.
    positions = list_ranking(machine, successor_pairs, seed=1)

    # The arc of an edge seen earlier in the tour is the downward arc.
    reverse_id: Dict[Tuple[int, int], int] = {}
    for arc_id, (src, dst) in arc_endpoints.items():
        reverse_id[(src, dst)] = arc_id
    weights = {}
    for arc_id, (src, dst) in arc_endpoints.items():
        twin = reverse_id[(dst, src)]
        weights[arc_id] = 1 if positions[arc_id] < positions[twin] else -1

    # Second ranking with ±1 weights: prefix sums along the tour are
    # depths.  depth(dst of a downward arc) = prefix before it + 1.
    prefix = weighted_list_ranking(
        machine,
        [(arc_id, succ, weights[arc_id])
         for arc_id, succ in successor_pairs],
        seed=2,
    )
    depths = {root: 0}
    parents = {root: -1}
    for arc_id, (src, dst) in arc_endpoints.items():
        if weights[arc_id] == 1:  # downward arc src -> dst
            depths[dst] = prefix[arc_id] + 1
            parents[dst] = src
    return depths, parents
