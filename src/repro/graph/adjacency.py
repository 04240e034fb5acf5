"""On-disk adjacency storage for graphs.

Edges arrive as an unordered stream of ``(u, v)`` pairs; building the
store externally sorts the doubled (directed) edge list by source and
packs the adjacency lists contiguously into blocks.  Fetching vertex
``v``'s list then costs ``1 + ceil(deg(v)/B)`` I/Os — the access pattern
both the naive and the Munagala–Ranade BFS rely on.

The per-vertex offset index (two integers per vertex) is kept in memory,
the usual semi-external assumption; all bulk data stays on disk.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Tuple

from ..core.blockfile import BlockFile
from ..core.exceptions import ConfigurationError
from ..core.machine import Machine
from ..core.stream import FileStream
from ..sort.merge import external_merge_sort


class AdjacencyStore:
    """Packed adjacency lists of an undirected graph on vertices
    ``0..n-1``."""

    def __init__(self, machine: Machine, num_vertices: int,
                 blocks: BlockFile, index: Dict[int, Tuple[int, int]]):
        self.machine = machine
        self.num_vertices = num_vertices
        self._blocks = blocks
        self._index = index  # vertex -> (start record position, degree)

    @classmethod
    def from_edges(
        cls,
        machine: Machine,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
    ) -> "AdjacencyStore":
        """Build the store from an iterable of undirected edges.

        Cost: one write pass over the doubled edges, one external sort,
        one packing pass — ``O(Sort(E))`` I/Os.
        """
        directed = FileStream(machine, name="adj/directed")
        num_edges = 0
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ConfigurationError(
                    f"edge ({u}, {v}) outside vertex range 0..{num_vertices - 1}"
                )
            if u == v:
                continue  # ignore self-loops
            directed.append((u, v))
            directed.append((v, u))
            num_edges += 1
        directed.finalize()
        # em: ok(EM103) fusion candidate: single-scan consumer, future Sorter refactor
        ordered = external_merge_sort(
            machine, directed, key=lambda e: e, keep_input=False
        )

        packed = FileStream(machine, name="adj/packed")
        index: Dict[int, Tuple[int, int]] = {}
        position = 0
        current = None
        start = 0
        previous_target = None
        for source, target in ordered:
            if source != current:
                if current is not None:
                    # em: ok(EM005) semi-external: the V-entry vertex
                    # index is RAM-resident (the survey's V ≤ M regime)
                    index[current] = (start, position - start)
                current = source
                start = position
                previous_target = None
            if target == previous_target:
                continue  # collapse duplicate edges
            packed.append(target)
            previous_target = target
            position += 1
        if current is not None:
            index[current] = (start, position - start)
        packed.finalize()
        ordered.delete()

        # Re-pack into a block file for random access by position.  The
        # staging frame is released once packing is done: all later
        # access goes through the buffer pool via block_id.
        with BlockFile(
            machine, max(1, packed.num_blocks), name="adj"
        ) as blocks:
            for block_index in range(packed.num_blocks):
                blocks.write_block(
                    block_index, packed.read_block(block_index)
                )
        packed.delete()
        return cls(machine, num_vertices, blocks, index)

    @classmethod
    def from_weighted_edges(
        cls,
        machine: Machine,
        num_vertices: int,
        edges: Iterable[Tuple[int, int, Any]],
    ) -> "AdjacencyStore":
        """Build a store whose adjacency records are ``(neighbor, weight)``
        pairs, from undirected weighted edges ``(u, v, w)``.

        :meth:`neighbors` then returns ``(neighbor, weight)`` tuples.
        Parallel edges are kept (a multigraph is fine for shortest paths).
        """
        directed = FileStream(machine, name="adj/directed")
        for u, v, w in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ConfigurationError(
                    f"edge ({u}, {v}) outside vertex range "
                    f"0..{num_vertices - 1}"
                )
            if u == v:
                continue
            directed.append((u, (v, w)))
            directed.append((v, (u, w)))
        directed.finalize()
        # em: ok(EM103) fusion candidate: single-scan consumer, future Sorter refactor
        ordered = external_merge_sort(
            machine, directed, key=lambda e: e, keep_input=False
        )
        packed = FileStream(machine, name="adj/packed")
        index: Dict[int, Tuple[int, int]] = {}
        position = 0
        current = None
        start = 0
        for source, record in ordered:
            if source != current:
                if current is not None:
                    # em: ok(EM005) semi-external: the V-entry vertex
                    # index is RAM-resident (the survey's V ≤ M regime)
                    index[current] = (start, position - start)
                current = source
                start = position
            packed.append(record)
            position += 1
        if current is not None:
            index[current] = (start, position - start)
        packed.finalize()
        ordered.delete()
        with BlockFile(
            machine, max(1, packed.num_blocks), name="adj"
        ) as blocks:
            for block_index in range(packed.num_blocks):
                blocks.write_block(
                    block_index, packed.read_block(block_index)
                )
        packed.delete()
        return cls(machine, num_vertices, blocks, index)

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
        return [
            self._blocks.block_id(block_index)
            for block_index in range(first_block, last_block + 1)
        ]

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

    @property
    def num_edges(self) -> int:
        """Number of stored directed adjacency entries // 2."""
        return sum(deg for _, deg in self._index.values()) // 2

    def delete(self) -> None:
        """Free the adjacency blocks."""
        self._blocks.delete()
