"""Breadth-first search in external memory.

The RAM BFS touches vertices in queue order — essentially random on a
disk-resident graph — paying ~1 I/O per adjacency-list fetch with no
locality to amortize it.  Munagala and Ranade's external BFS keeps the
*frontier* as a sorted stream: the next level is the multiset of
neighbors of the current level, externally sorted, de-duplicated, and
cleaned of the two previous levels by a three-way merge scan.  Its cost
is ``O(V + Sort(E))`` instead of ``Ω(V + E)`` random I/Os.

Both functions return ``{vertex: distance}`` for the reachable vertices
(building the result dict costs no I/O; all disk traffic is in the
algorithm proper).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator

from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError
from ..core.machine import Machine
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter, _first_of_runs, _primed
from .adjacency import AdjacencyStore


def _graph_n(machine: Machine, adjacency: AdjacencyStore,
             source: int) -> int:
    return adjacency.num_vertices + adjacency.num_edges


def _semi_external_theory(machine: Machine, n: int) -> int:
    """Per-vertex adjacency fetches: ``O(V + E/B)``."""
    return n + scan_io(n, machine.B, machine.D)


@io_bound(_semi_external_theory, factor=4.0, n=_graph_n)
def semi_external_bfs(machine: Machine, adjacency: AdjacencyStore,
                      source: int) -> Dict[int, int]:
    """Queue BFS with the visited set and queue in memory.

    The practical middle ground (valid when ``V`` fits in RAM): I/O cost
    is only the per-vertex adjacency fetches, ``O(V + E/B)``.
    """
    if not 0 <= source < adjacency.num_vertices:
        raise ConfigurationError(f"source {source} out of range")
    distance = {source: 0}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbor in adjacency.neighbors(vertex):
            if neighbor not in distance:
                distance[neighbor] = distance[vertex] + 1
                queue.append(neighbor)
    return distance


@io_bound(lambda machine, n: 4 * n, factor=4.0, n=_graph_n)
def naive_bfs(machine: Machine, adjacency: AdjacencyStore,
              source: int) -> Dict[int, int]:
    """Textbook BFS run *fully* externally: the distance table lives on
    disk and every visited-check reads the block holding that vertex's
    slot — ~1 I/O per edge on a random graph, the ``Ω(E)`` baseline the
    survey's external BFS is measured against.  The frontier queues are
    disk streams.
    """
    from ..core.blockfile import BlockFile

    if not 0 <= source < adjacency.num_vertices:
        raise ConfigurationError(f"source {source} out of range")
    B = machine.block_size
    pool = machine.pool
    with BlockFile(
        machine, (adjacency.num_vertices + B - 1) // B, name="bfs/dist"
    ) as table:
        for index in range(table.num_blocks):
            table.write_block(index, [None] * B)

        def read_slot(vertex: int):
            return pool.get(table.block_id(vertex // B))[vertex % B]

        def write_slot(vertex: int, value: int) -> None:
            block_id = table.block_id(vertex // B)
            pool.get(block_id)[vertex % B] = value
            pool.mark_dirty(block_id)

        write_slot(source, 0)
        current = FileStream.from_records(machine, [source], name="bfs/q0")
        level = 0
        while len(current) > 0:
            level += 1
            next_level = FileStream(machine, name="bfs/queue")
            for vertex in current:
                for neighbor in adjacency.neighbors(vertex):
                    if read_slot(neighbor) is None:
                        write_slot(neighbor, level)
                        next_level.append(neighbor)
            current.delete()
            current = next_level.finalize()
        current.delete()

        # One clean scan to extract the result, batched half a pool at a
        # time: resident table blocks are served as hits, the rest in
        # parallel waves.
        pool.flush_all()
        distance: Dict[int, int] = {}
        position = 0
        chunk = max(1, pool.capacity // 2)
        for start in range(0, table.num_blocks, chunk):
            stop = min(start + chunk, table.num_blocks)
            block_ids = [table.block_id(i) for i in range(start, stop)]
            for payload in pool.get_many(block_ids):
                for value in payload:
                    if value is not None and \
                            position < adjacency.num_vertices:
                        distance[position] = value
                    position += 1
        table.delete()
    return distance


def _subtract_sorted(
    values: Iterator[int],
    exclude_a: Iterator[int],
    exclude_b: Iterator[int],
) -> Iterator[int]:
    """Yield ``values`` minus the two sorted exclusion lists (merge
    scan); both exclusion scans are closed when this generator ends."""
    try:
        a = next(exclude_a, None)
        b = next(exclude_b, None)
        for value in values:
            while a is not None and a < value:
                a = next(exclude_a, None)
            while b is not None and b < value:
                b = next(exclude_b, None)
            if value != a and value != b:
                yield value
    finally:
        exclude_a.close()
        exclude_b.close()


def _mr_bfs_theory(machine: Machine, n: int) -> int:
    """``O(V + Sort(E))`` — per-level sorts sum to Sort(E), plus a few
    I/Os of stream bookkeeping per level (≤ V levels)."""
    return 4 * n + 2 * sort_io(n, machine.M, machine.B, machine.D)


@io_bound(_mr_bfs_theory, factor=6.0, n=_graph_n)
def mr_bfs(machine: Machine, adjacency: AdjacencyStore,
           source: int) -> Dict[int, int]:
    """Munagala–Ranade external BFS.

    Level ``t+1`` = sort(neighbors of level ``t``), de-duplicated, minus
    levels ``t`` and ``t-1`` — correct for undirected graphs because any
    neighbor of level ``t`` lies in level ``t-1``, ``t``, or ``t+1``.
    Per level (:func:`_next_level`): one forward scan of the level's
    adjacency spans, one pipelined sort's runs written and read back
    (nothing when the neighbors fit one memoryload), one scan of each
    of the two previous levels and one write.
    """
    if not 0 <= source < adjacency.num_vertices:
        raise ConfigurationError(f"source {source} out of range")
    distance: Dict[int, int] = {source: 0}
    previous = FileStream(machine, name="bfs/prev").finalize()
    current = FileStream.from_records(machine, [source], name="bfs/cur")
    level = 0
    try:
        while len(current) > 0:
            level += 1
            with machine.trace(f"bfs-level-{level}"):
                next_level = _next_level(machine, adjacency, current,
                                         previous, distance, level)
            previous.delete()
            previous, current = current, next_level
        return distance
    finally:
        previous.delete()
        current.delete()


def _next_level(machine: Machine, adjacency: AdjacencyStore,
                current: FileStream, previous: FileStream,
                distance: Dict[int, int], level: int) -> FileStream:
    """Write level ``level``: the neighbors of ``current``, scanned
    from the adjacency spans into a pipelined Sorter and pulled through
    the de-duplicating, subtracting scan; each vertex written is
    recorded in ``distance``.  The pull is planned beside the scans of
    ``current`` and ``previous`` and leaves the writer its spare
    frame."""

    def reached(vertices: Iterator[int]) -> Iterator[int]:
        for vertex in vertices:
            distance[vertex] = level
            yield vertex

    with Sorter(machine, name="bfs/neighbors") as ordered:
        ordered.consume(adjacency.neighbors_of(current))
        fresh = _subtract_sorted(
            _primed(_first_of_runs(ordered.finish(beside=2 * machine.B))),
            iter(current), iter(previous))
        try:
            return FileStream.from_records(machine, reached(fresh),
                                           name="bfs/next")
        finally:
            fresh.close()  # a failed write leaves the scans open
