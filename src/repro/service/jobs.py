"""Jobs: schedulable units wrapping the cooperative algorithm variants.

A :class:`Job` owns a *generator factory* rather than a live generator:
the service materializes the generator only when admission lets the job
start, passing the owning tenant's
:class:`~repro.core.memory.SubBudget` so every frame the job reserves
lands on that tenant's ledger.  The factories below wrap each
cooperative entry point the substrate exposes — B+-tree point and range
lookups, hash lookups, external sorts, sort-merge joins, and BFS
extractions — with a ``reservation`` floor admission checks against the
tenant's fair share before the job may start.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from ..core.machine import Machine
from ..core.stream import FileStream
from ..graph.adjacency import AdjacencyStore
from ..graph.steps import bfs_extract_steps
from ..relational.steps import sort_merge_join_steps
from ..relational.table import Table
from ..search.btree import BPlusTree
from ..search.hashing import ExtendibleHashTable
from ..sort.steps import merge_sort_steps

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class Job:
    """One schedulable query: a generator factory plus its lifecycle.

    Args:
        name: label for tracing (``tenant/job`` phases) and reports.
            The service suffixes duplicates within a tenant so phases
            never collide.
        make: callable ``make(budget) -> generator`` building the
            cooperative generator; ``budget`` is the owning tenant's
            :class:`~repro.core.memory.SubBudget`.
        reservation: records of the tenant's share this job needs to
            make progress — the admission floor.  ``0`` for pool-served
            lookups (the pool's cache is accounted on the parent ledger
            as reclaimable memory, not against the tenant's hard share).
    """

    def __init__(self, name: str, make: Callable[[Any], Any],
                 reservation: int = 0):
        self.name = name
        self.make = make
        self.reservation = reservation
        self.tenant = None  # set at submit
        self.status = QUEUED
        self.gen = None
        self.pending = None  # payloads to send into the generator next
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: The machine's (transfer steps, wall steps) clocks at submit.
        self.submitted_at: Optional[Tuple[int, int]] = None
        self.latency_io: Optional[int] = None
        self.latency_wall: Optional[int] = None

    def start(self, budget) -> None:
        """Materialize the generator against the tenant's sub-budget."""
        self.gen = self.make(budget)
        self.status = RUNNING

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Job({self.name!r}, {self.status})"


# ----------------------------------------------------------------------
# job factories — one per cooperative entry point
# ----------------------------------------------------------------------
def btree_lookup_job(tree: BPlusTree, key: Any, default: Any = None,
                     name: str = "btree-get") -> Job:
    """A B+-tree point lookup (OLTP traffic): ``Θ(log_B N)`` pool reads,
    no hard reservation."""
    return Job(name, lambda budget: tree.lookup_steps(key, default))


def btree_range_job(tree: BPlusTree, low: Any, high: Any,
                    name: str = "btree-range") -> Job:
    """A B+-tree range lookup: root-to-leaf walk plus the leaf chain,
    candidate leaves batched into one intent — ``O(log_B N + Z/B)``
    I/Os for ``Z`` reported items."""
    return Job(name, lambda budget: tree.range_steps(low, high))


def hash_lookup_job(table: ExtendibleHashTable, key: Any,
                    default: Any = None, name: str = "hash-get") -> Job:
    """An extendible-hashing point lookup: ``O(1)`` expected I/Os —
    one bucket read plus rare overflow-chain reads — with no hard
    reservation."""
    return Job(name, lambda budget: table.lookup_steps(key, default))


def sort_job(machine: Machine, stream: FileStream,
             key: Optional[Callable[[Any], Any]] = None,
             name: str = "sort") -> Job:
    """An external merge sort (OLAP traffic).  The memoryload adapts to
    the share actually available; the reservation floor is the minimum
    to merge at all — two cursor frames plus the output buffer."""
    return Job(
        name,
        lambda budget: merge_sort_steps(
            machine, stream, key=key, budget=budget, name=name
        ),
        reservation=3 * machine.block_size,
    )


def pipeline_job(machine: Machine, stream: FileStream,
                 key: Optional[Callable[[Any], Any]] = None,
                 map_fn: Optional[Callable[[Any], Any]] = None,
                 filter_fn: Optional[Callable[[Any], bool]] = None,
                 name: str = "pipeline") -> Job:
    """A fused scan → filter → map → sort (OLAP traffic): the
    record-wise stages run inside run formation, so the transformed
    intermediate is never written.  Same reservation floor as
    :func:`sort_job` — the fusion saves I/Os, not frames."""
    return Job(
        name,
        lambda budget: merge_sort_steps(
            machine, stream, key=key, map_fn=map_fn,
            filter_fn=filter_fn, budget=budget, name=name,
        ),
        reservation=3 * machine.block_size,
    )


def join_job(left: Table, right: Table, left_column: str,
             right_column: str, name: str = "join") -> Job:
    """A cooperative sort-merge join (OLAP traffic): both sorts plus the
    merge, all charged to the tenant.  The floor covers the widest
    stage — the merge's two reader frames, the output buffer, and one
    buffered join-key group record."""
    machine = left.machine
    return Job(
        name,
        lambda budget: sort_merge_join_steps(
            left, right, left_column, right_column, budget=budget,
            name=name,
        ),
        reservation=3 * machine.block_size + 1,
    )


def bfs_job(machine: Machine, adjacency: AdjacencyStore, source: int,
            name: str = "bfs") -> Job:
    """A semi-external BFS extraction in ``O(V + E/B)`` I/Os: the
    ``V``-record vertex state is the reservation — the survey's
    ``V ≤ M`` assumption enforced against the *tenant's share*, not
    the whole machine."""
    return Job(
        name,
        lambda budget: bfs_extract_steps(
            machine, adjacency, source, budget=budget
        ),
        reservation=adjacency.num_vertices,
    )
