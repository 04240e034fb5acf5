"""On-disk adjacency storage for graphs.

Edges arrive as an unordered stream of ``(u, v)`` pairs; building the
store sorts the doubled (directed) edge list by source in a pipelined
Sorter and writes the adjacency lists contiguously into blocks as the
merge is pulled.  Fetching vertex ``v``'s list then costs
``1 + ceil(deg(v)/B)`` I/Os — the access pattern of the naive BFS —
and the lists of an ascending run of vertices can be scanned forward,
each block read once — the Munagala–Ranade BFS's pattern.

The per-vertex offset index (two integers per vertex) is kept in memory,
the usual semi-external assumption; all bulk data stays on disk.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from ..core.exceptions import ConfigurationError
from ..core.machine import Machine
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter, _first_of_runs, _primed

_source = itemgetter(0)


def _proper(num_vertices: int, edges: Iterable[tuple]) -> Iterator[tuple]:
    """``edges`` without self-loops; an endpoint outside
    ``0..num_vertices-1`` raises."""
    for edge in edges:
        u, v = edge[0], edge[1]
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ConfigurationError(
                f"edge ({u}, {v}) outside vertex range 0..{num_vertices - 1}"
            )
        if u != v:
            yield edge


class AdjacencyStore:
    """Packed adjacency lists of an undirected graph on vertices
    ``0..n-1``."""

    def __init__(self, machine: Machine, num_vertices: int,
                 packed: FileStream, index: Dict[int, Tuple[int, int]]):
        self.machine = machine
        self.num_vertices = num_vertices
        self._packed = packed
        self._block_ids = packed.block_ids
        self._index = index  # vertex -> (start record position, degree)

    @classmethod
    def from_edges(
        cls,
        machine: Machine,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
    ) -> "AdjacencyStore":
        """Build the store from an iterable of undirected edges;
        self-loops are dropped and duplicate edges collapse.

        Cost: ``O(Sort(E))`` I/Os — the doubled edges go through one
        pipelined sort (its runs written and read back, nothing when
        they fit one memoryload) and the lists are written once.
        """
        arcs = (arc for u, v in _proper(num_vertices, edges)
                for arc in ((u, v), (v, u)))
        return cls._pack(machine, num_vertices, arcs, unique=True)

    @classmethod
    def from_weighted_edges(
        cls,
        machine: Machine,
        num_vertices: int,
        edges: Iterable[Tuple[int, int, Any]],
    ) -> "AdjacencyStore":
        """Build a store whose adjacency records are ``(neighbor, weight)``
        pairs, from undirected weighted edges ``(u, v, w)``, at the cost
        of :meth:`from_edges`.

        :meth:`neighbors` then returns ``(neighbor, weight)`` tuples.
        Parallel edges are kept (a multigraph is fine for shortest paths).
        """
        arcs = (arc for u, v, w in _proper(num_vertices, edges)
                for arc in ((u, (v, w)), (v, (u, w))))
        return cls._pack(machine, num_vertices, arcs, unique=False)

    @classmethod
    def _pack(cls, machine: Machine, num_vertices: int,
              arcs: Iterable[Tuple[int, Any]],
              unique: bool) -> "AdjacencyStore":
        """Sort the ``(source, record)`` arcs and write each source's
        records contiguously, indexing where every list starts; with
        ``unique``, equal arcs are written once.  Random access by
        position then goes through the buffer pool by block id."""
        # The V-entry vertex index is RAM-resident: the survey's
        # semi-external V ≤ M regime.
        index: Dict[int, Tuple[int, int]] = {}

        def lists(ordered: Iterable[Tuple[int, Any]]) -> Iterator[Any]:
            position = 0
            for source, arcs_out in groupby(ordered, key=_source):
                start = position
                for _, record in arcs_out:
                    yield record
                    position += 1
                index[source] = (start, position - start)

        with Sorter(machine, name="adj/directed") as ordered:
            ordered.consume(arcs)
            packed = FileStream.from_records(
                machine, _primed(lists(_first_of_runs(ordered) if unique
                                       else ordered)), name="adj/packed")
        return cls(machine, num_vertices, packed, index)

    def degree(self, vertex: int) -> int:
        """Degree of ``vertex`` (no I/O; index lookup)."""
        return self._index.get(vertex, (0, 0))[1]

    def span_blocks(self, vertex: int) -> List[int]:
        """Block ids covering ``vertex``'s adjacency span, in order
        (no I/O; index arithmetic).  Empty for an isolated vertex.

        This is the fetch plan a cooperative job yields as a
        :class:`~repro.core.intents.PoolRead` intent; decode the served
        payloads with :meth:`neighbors_from_payloads`.
        """
        if not 0 <= vertex < self.num_vertices:
            raise ConfigurationError(
                f"vertex {vertex} outside 0..{self.num_vertices - 1}"
            )
        start, degree = self._index.get(vertex, (0, 0))
        if degree == 0:
            return []
        B = self.machine.block_size
        first_block = start // B
        last_block = (start + degree - 1) // B
        return list(self._block_ids[first_block:last_block + 1])

    def neighbors_from_payloads(self, vertex: int,
                                payloads: List[List[int]]) -> List[int]:
        """Decode ``vertex``'s adjacency list from the block payloads of
        its :meth:`span_blocks` (in the same order).  No I/O."""
        start, degree = self._index.get(vertex, (0, 0))
        if degree == 0:
            return []
        values: List[int] = []
        for payload in payloads:
            values.extend(payload)
        offset = start - (start // self.machine.block_size) \
            * self.machine.block_size
        return values[offset:offset + degree]

    def neighbors(self, vertex: int) -> List[int]:
        """Fetch ``vertex``'s adjacency list: ``ceil`` of its span in
        blocks cached reads, batched through the pool
        (:meth:`~repro.core.cache.BufferPool.get_many`) so a high-degree
        vertex's span arrives in parallel waves on ``D > 1`` disks."""
        return self.neighbors_from_payloads(
            vertex, self.machine.pool.get_many(self.span_blocks(vertex))
        )

    def neighbors_of(self, vertices: Iterable[int]) -> Iterator[Any]:
        """The adjacency lists of the ascending ``vertices``, one after
        another: a forward scan of their spans through one held frame,
        each block read once per call however many of the vertices
        share it (:meth:`neighbors` fetches one vertex at a time
        through the buffer pool)."""
        B = self.machine.block_size
        with self.machine.budget.reserve(B):
            held, payload = -1, ()
            for vertex in vertices:
                start, degree = self._index.get(vertex, (0, 0))
                for position in range(start, start + degree):
                    if position // B != held:
                        held = position // B
                        payload = self._packed.read_block(held)
                    yield payload[position - held * B]

    @property
    def num_edges(self) -> int:
        """Number of stored directed adjacency entries // 2."""
        return sum(deg for _, deg in self._index.values()) // 2

    def delete(self) -> None:
        """Free the adjacency blocks."""
        self._packed.delete()
