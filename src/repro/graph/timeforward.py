"""Time-forward processing: local DAG functions at sorting cost.

The survey's signature use of external priority queues: to evaluate, for
every vertex of a DAG, a function of its predecessors' values, process
vertices in topological order and *send each computed value forward in
time* — insert it into a priority queue keyed by the receiving vertex's
topological number.  When a vertex is processed, its incoming values are
exactly the queue's current minima.  Total cost: ``O(Sort(E))`` I/Os,
versus one random I/O per edge for pointer-chasing evaluation.

Applications implemented on top of the generic engine:

* :func:`dag_longest_paths` — longest path from any source, per vertex.
* :func:`evaluate_circuit` — boolean circuit evaluation (AND/OR/NOT
  gates over input literals).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

from ..analysis.sanitizer import io_bound, sized
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError
from ..core.machine import Machine
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter
from ..pq.sequence_heap import ExternalPriorityQueue
from ..sort.merge import external_merge_sort


def _tfp_theory(machine: Machine, n: int) -> float:
    """``O(Sort(E))`` for the edge sort and the batched priority-queue
    traffic, plus per-vertex bookkeeping.  Unsized edge iterables
    (n ≤ 0) have no static bound."""
    if n <= 0:
        return float("inf")
    return (n + 2 * sort_io(n, machine.M, machine.B, machine.D)
            + 4 * scan_io(n, machine.B, machine.D))


def _tfp_n(machine: Machine, num_vertices: int, edges, compute) -> int:
    e = sized(edges)
    return -1 if e < 0 else num_vertices + e


@io_bound(_tfp_theory, factor=6.0, n=_tfp_n)
def time_forward_process(
    machine: Machine,
    num_vertices: int,
    edges: Iterable[Tuple[int, int]],
    compute: Callable[[int, List[Any]], Any],
) -> Dict[int, Any]:
    """Evaluate ``compute(v, incoming_values)`` for every vertex of a DAG.

    Args:
        num_vertices: vertices are ``0..num_vertices-1`` **in topological
            order** (every edge ``(u, v)`` must have ``u < v``).
        edges: directed edges ``(u, v)``; ``u``'s computed value is
            delivered to ``v``.
        compute: called once per vertex, in order, with the values sent by
            its predecessors (in predecessor order); its return value is
            both recorded and forwarded along out-edges.

    Returns ``{vertex: value}``.  Cost: one external sort of the edges
    plus ``O(E)`` batched priority-queue operations — ``O(Sort(E))``.

    The edge sort is pipelined: validated edges are pushed straight
    into a :class:`~repro.pipeline.sorter.Sorter` (no edge stream is
    ever written) and the vertex loop pulls the sorted order straight
    out of its final merge (no sorted stream either) — ``~4·(N/DB)``
    I/Os saved over :func:`time_forward_process_materialized`.  The
    pull is planned beside the priority queue's working space
    (:meth:`~repro.pq.sequence_heap.ExternalPriorityQueue.footprint`),
    so it leaves that space free.
    """
    with Sorter(machine, name="tfp/edges") as sorter:
        sorter.consume(_validated(num_vertices, edges))
        return _forwarded(
            machine, num_vertices,
            sorter.finish(beside=ExternalPriorityQueue.footprint(machine)),
            compute)


@io_bound(_tfp_theory, factor=6.0, n=_tfp_n)
def time_forward_process_materialized(
    machine: Machine,
    num_vertices: int,
    edges: Iterable[Tuple[int, int]],
    compute: Callable[[int, List[Any]], Any],
) -> Dict[int, Any]:
    """:func:`time_forward_process` with its edge sort on disk: the
    validated edges are written, sorted by
    :func:`~repro.sort.merge.external_merge_sort`, and the same vertex
    loop scans the sorted copy.

    Kept as the measured control for the pipelining experiment (F25)
    and the fused/materialized parity suite; new code should call
    :func:`time_forward_process`, which fuses both sort boundaries.
    """
    edge_stream = FileStream.from_records(
        machine, _validated(num_vertices, edges), name="tfp/edges")
    # em: ok(EM103) materialized control for F25/parity
    by_source = external_merge_sort(machine, edge_stream, keep_input=False)
    try:
        return _forwarded(machine, num_vertices, iter(by_source), compute)
    finally:
        by_source.delete()


def _validated(num_vertices: int, edges: Iterable[Tuple[int, int]]
               ) -> Iterator[Tuple[int, int]]:
    """``edges``, each checked to lie in the vertex range and to follow
    the topological numbering."""
    for u, v in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ConfigurationError(
                f"edge ({u}, {v}) outside vertex range"
            )
        if u >= v:
            raise ConfigurationError(
                f"edge ({u}, {v}) violates topological numbering (u < v)"
            )
        yield (u, v)


def _forwarded(
    machine: Machine,
    num_vertices: int,
    by_source: Iterator[Tuple[int, int]],
    compute: Callable[[int, List[Any]], Any],
) -> Dict[int, Any]:
    """The vertex loop over the edges in ``(u, v)`` order: each vertex
    takes its incoming values off the priority queue, and its value is
    sent along its out-edges.  The queue opens once the first edge is
    read (after any merge-down of a pulled sort, which may use its
    frames)."""
    results: Dict[int, Any] = {}
    pending = next(by_source, None)
    with ExternalPriorityQueue(machine) as queue:
        for vertex in range(num_vertices):
            incoming: List[Any] = []
            while len(queue) > 0 and queue.peek_min()[0][0] == vertex:
                (_, sender), value = queue.delete_min()
                incoming.append(value)
            value = compute(vertex, incoming)
            results[vertex] = value
            while pending is not None and pending[0] == vertex:
                queue.insert((pending[1], vertex), value)
                pending = next(by_source, None)
    return results


@io_bound(_tfp_theory, factor=6.0,
          n=lambda machine, num_vertices, edges: _tfp_n(
              machine, num_vertices, edges, None))
def dag_longest_paths(
    machine: Machine,
    num_vertices: int,
    edges: Iterable[Tuple[int, int]],
) -> Dict[int, int]:
    """Longest-path length (in edges) ending at each vertex of a DAG in
    topological numbering — ``O(Sort(E))`` I/Os via time-forward
    processing."""

    def compute(vertex: int, incoming: List[int]) -> int:
        return 1 + max(incoming) if incoming else 0

    return time_forward_process(machine, num_vertices, edges, compute)


@io_bound(_tfp_theory, factor=6.0,
          n=lambda machine, gates, wires: _tfp_n(
              machine, len(gates), wires, None))
def evaluate_circuit(
    machine: Machine,
    gates: List[Tuple[str, Any]],
    wires: Iterable[Tuple[int, int]],
) -> Dict[int, bool]:
    """Evaluate a boolean circuit given in topological order at the
    ``O(Sort(E))`` time-forward processing cost.

    Args:
        gates: per vertex, ``("input", bool)``, ``("and", None)``,
            ``("or", None)``, or ``("not", None)``.
        wires: edges from producing gate to consuming gate (``u < v``).

    Returns the output value of every gate.
    """
    operations = {
        "and": all,
        "or": any,
    }

    def compute(vertex: int, incoming: List[bool]) -> bool:
        kind, payload = gates[vertex]
        if kind == "input":
            return bool(payload)
        if kind == "not":
            if len(incoming) != 1:
                raise ConfigurationError(
                    f"NOT gate {vertex} has {len(incoming)} inputs"
                )
            return not incoming[0]
        if kind in operations:
            if not incoming:
                raise ConfigurationError(
                    f"{kind.upper()} gate {vertex} has no inputs"
                )
            return operations[kind](incoming)
        raise ConfigurationError(f"unknown gate kind {kind!r}")

    return time_forward_process(machine, len(gates), wires, compute)
