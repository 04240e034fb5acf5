"""External priority queue (sequence heap).

The survey's external priority queues achieve ``O((1/B) log_{M/B}(N/B))``
amortized I/Os per operation — the per-record sorting cost — by batching:
inserts accumulate in an in-memory heap; when it fills, its contents are
written as one sorted run; runs are organized into levels of at most ``k``
runs each, and a level that fills is k-way merged into a single run one
level up.  ``delete_min`` takes the minimum over the in-memory heap and
the head record of every on-disk run.

It is batched merge sort turned into a priority queue, and runs the
sort's own machinery: a spill is run formation's writer
(:func:`~repro.sort.runs.write_run`: key-pointer order, one write
batch), a level merge is the sort's one merge engine
(:class:`~repro.sort.merge.BlockMerger`, fed whole blocks), and every
run is read a block at a time.

This is the structure behind time-forward processing and external Dijkstra
in the survey; a B-tree used as a priority queue pays ``Θ(log_B N)`` I/Os
per operation instead, which the priority-queue experiment quantifies.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

from ..core.exceptions import ConfigurationError, EMError
from ..core.machine import Machine
from ..core.stream import FileStream
from ..sort.merge import BlockMerger
from ..sort.runs import write_run


class _Run:
    """A sorted on-disk run, read a block at a time, with its head.

    ``block`` is the resident block and ``pos`` the index of ``head``
    in it.  An open run pins exactly one ``B``-record reader frame,
    acquired when the run opens and released when its last block is
    used up — or deterministically by :meth:`close`.  Blocks are read
    one at a time on demand (:meth:`next_block`), with no read-ahead:
    a sequential reader's staging pins would count against the budget
    that decides when levels must merge early, so on ``D > 1`` disks
    the queue would merge more often than on one.
    """

    __slots__ = ("stream", "index", "frame", "block", "pos", "head")

    def __init__(self, stream: FileStream):
        self.stream = stream
        self.index = 0
        stream.machine.budget.acquire(stream.machine.B)
        self.frame = True
        try:
            self._load()
        except BaseException:
            # No one holds the half-opened run: return its frame now.
            self._release()
            raise

    def next_block(self):
        """The run's next block (one read), or ``None`` — releasing the
        reader frame — once every block has been read."""
        if self.index < self.stream.num_blocks:
            self.index += 1
            return self.stream.read_block(self.index - 1)
        self._release()
        return None

    def _release(self) -> None:
        if self.frame:
            self.frame = False
            self.stream.machine.budget.release(self.stream.machine.B)

    def _load(self) -> None:
        self.block = self.next_block()
        self.pos = 0
        self.head = None if self.block is None else self.block[0]

    def advance(self) -> None:
        self.pos += 1
        if self.pos < len(self.block):
            self.head = self.block[self.pos]
            return
        self._load()
        if self.head is None:
            self.stream.delete()

    def close(self) -> None:
        """Release the reader frame and free the run's blocks.
        Idempotent; safe mid-iteration."""
        self._release()
        self.stream.delete()
        self.head = None


def _default_group_arity(machine: Machine) -> int:
    """The queue's default group arity: ``max(2, m//4)``."""
    return max(2, machine.m // 4)


def _default_insertion_capacity(machine: Machine) -> int:
    """The queue's default insertion heap: ``max(2, M//4)`` records."""
    return max(2, machine.M // 4)


class ExternalPriorityQueue:
    """A min-priority queue of ``(priority, item)`` pairs on disk.

    Args:
        machine: the external-memory machine.
        group_arity: maximum runs per level before the level is merged
            upward; defaults to ``max(2, m//4)``.  The default is set by
            frame accounting, not merge speed: a full-level merge holds
            ``group_arity`` reader frames plus one writer frame *on top
            of* the insertion heap's ~``m/4`` frames and whatever
            resident frames the caller holds (e.g. an open block file),
            and with eager merging up to two levels of runs can be open
            at once — ``m//4`` keeps all of that inside ``m``, where the
            tempting ``m//2 - 1`` (one frame per run of a maximal merge)
            overflows.
        insertion_capacity: records held in the in-memory insertion heap;
            defaults to ``max(2, M//4)`` (reserved from the machine
            budget for the queue's lifetime — call :meth:`close` to
            release it).

    Every open on-disk run pins one ``B``-record reader frame, charged
    to the machine's budget like any other frame.  When fewer than two
    spare frames remain (the next spill pins a reader frame, and the
    level merge it may trigger a writer frame), the queue merges a
    level *early* — run proliferation therefore converts into merge I/O
    instead of a memory-budget overflow, and peak memory stays at most
    ``M``.

    Ties between equal priorities are broken by insertion order (FIFO).
    """

    def __init__(
        self,
        machine: Machine,
        group_arity: Optional[int] = None,
        insertion_capacity: Optional[int] = None,
    ):
        self.machine = machine
        self.group_arity = (
            group_arity if group_arity is not None
            else _default_group_arity(machine)
        )
        if self.group_arity < 2:
            raise ConfigurationError(
                f"group arity must be >= 2, got {self.group_arity}"
            )
        self.insertion_capacity = (
            insertion_capacity
            if insertion_capacity is not None
            else _default_insertion_capacity(machine)
        )
        machine.budget.acquire(self.insertion_capacity)
        self._heap: List[tuple] = []
        self._levels: List[List[_Run]] = []
        self._sequence = 0
        self._size = 0
        self._closed = False

    @staticmethod
    def footprint(machine: Machine) -> int:
        """Records a default queue works in: its insertion heap plus
        the frames of one level merge (its group arity of readers and
        a writer) — what a caller planning memory beside the queue
        leaves it."""
        return _default_insertion_capacity(machine) \
            + (_default_group_arity(machine) + 1) * machine.B

    # ------------------------------------------------------------------
    def insert(self, priority: Any, item: Any = None) -> None:
        """Insert ``item`` with ``priority``; amortized ``O((1/B)·log)``
        I/Os."""
        self._check_open()
        heapq.heappush(self._heap, (priority, self._sequence, item))
        self._sequence += 1
        self._size += 1
        if len(self._heap) >= self.insertion_capacity:
            self._spill_heap()

    def delete_min(self) -> Tuple[Any, Any]:
        """Remove and return the ``(priority, item)`` pair with the
        smallest priority (FIFO among equal priorities).

        Raises:
            EMError: when the queue is empty.
        """
        self._check_open()
        if self._size == 0:
            raise EMError("delete_min on an empty priority queue")
        best_run: Optional[_Run] = None
        best: Optional[tuple] = self._heap[0] if self._heap else None
        for level in self._levels:
            for run in level:
                if run.head is not None and (
                    best is None or run.head < best
                ):
                    best = run.head
                    best_run = run
        assert best is not None
        if best_run is None:
            heapq.heappop(self._heap)
        else:
            best_run.advance()
            if best_run.head is None:
                # Prune the exhausted run so head scans stay short and its
                # reader frame is released.
                for level in self._levels:
                    if best_run in level:
                        level.remove(best_run)
                        break
        self._size -= 1
        priority, _, item = best
        return priority, item

    def peek_min(self) -> Tuple[Any, Any]:
        """Return (without removing) the minimum ``(priority, item)``."""
        self._check_open()
        if self._size == 0:
            raise EMError("peek_min on an empty priority queue")
        best = self._heap[0] if self._heap else None
        for level in self._levels:
            for run in level:
                if run.head is not None and (best is None or run.head < best):
                    best = run.head
        priority, _, item = best
        return priority, item

    def __len__(self) -> int:
        return self._size

    @property
    def num_levels(self) -> int:
        """Number of on-disk run levels."""
        return len(self._levels)

    def close(self) -> None:
        """Release the insertion heap's memory reservation and delete all
        on-disk runs.  The queue becomes unusable."""
        if self._closed:
            return
        # Flip the flag before any fallible work: if a run.close() below
        # raises mid-way, a retried close() must pass the guard as a
        # no-op instead of releasing the reservation a second time and
        # corrupting the budget ledger (EM303).
        self._closed = True
        try:
            for level in self._levels:
                for run in level:
                    # Deterministic release: closing the reader returns
                    # its pinned frame immediately instead of waiting
                    # for GC.
                    run.close()
        finally:
            self.machine.budget.release(self.insertion_capacity)
            self._levels = []
            self._heap = []

    def __enter__(self) -> "ExternalPriorityQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise EMError("priority queue has been closed")

    def _spill_heap(self) -> None:
        """Write the insertion heap as a sorted run into level 0."""
        self._ensure_spill_frames()
        # The heap is reserved for the queue's lifetime, so the run is
        # written straight from it, one batch, with no staging frame.
        stream = write_run(self.machine, self._heap, None, FileStream,
                           "pq/run")
        self._heap = []
        self._add_run(0, _Run(stream))

    def _ensure_spill_frames(self) -> None:
        """Frame-accounting guard run before every spill.

        A spill is written straight from the reserved heap, then pins
        one reader frame for the new run, whose arrival may trigger a
        level merge that needs a writer frame — so two spare frames
        must be available.  While they are not, merge runs early: each
        merge of ``r`` runs closes ``r`` reader frames and opens one,
        netting ``r - 1`` frames (the transient merge writer fits in the
        one spare frame the queue's invariant preserves).  Prefer the
        lowest level holding at least two runs (cheapest records to
        move); when every level is a singleton, collapse all runs into
        one.  If no two runs remain to merge, fall through and let the
        budget raise — memory is genuinely exhausted, not fragmented
        into readers.
        """
        B = self.machine.B
        while self.machine.budget.available < 2 * B:
            if not self._merge_for_frames():
                break

    def _merge_for_frames(self) -> bool:
        """One frame-reclaiming early merge; False when impossible."""
        for index, level in enumerate(self._levels):
            if len(level) >= 2:
                self._merge_level(index)
                return True
        open_runs = [run for level in self._levels for run in level]
        if len(open_runs) < 2:
            return False
        # Only singleton levels: a per-level merge would just move one
        # run up.  Merging sorted runs from *different* levels is still
        # a merge of sorted sequences, so collapse them all into a
        # single top run and reclaim every frame but one.
        merged = self._merge_runs(open_runs, name="pq/collapsed")
        top = len(self._levels)
        for level in self._levels:
            level.clear()
        self._add_run(top, _Run(merged))
        return True

    def _add_run(self, level_index: int, run: _Run) -> None:
        while len(self._levels) <= level_index:
            self._levels.append([])
        if run.head is None:
            return
        level = self._levels[level_index]
        level.append(run)
        if len(level) > self.group_arity:
            self._merge_level(level_index)

    def _merge_runs(self, runs: List[_Run], name: str) -> FileStream:
        """k-way merge ``runs`` into one finalized stream, closing every
        input run (frames released, blocks freed).  A
        :class:`~repro.sort.merge.BlockMerger` starts from each run's
        unread tail and is refilled from the run's own block reader.
        Costs one read and one write per block of live records."""
        merged = FileStream(self.machine, name=name)
        try:
            # append_block charges no frame: count the output block.
            merged.reserve_writer()
            merger = BlockMerger([
                None if run.block is None else run.block[run.pos:]
                for run in runs
            ])
            for item in merger.blocks(self.machine.B):
                if item.__class__ is int:
                    merger.feed(runs[item].next_block())
                else:
                    merged.append_block(item)
            merged.finalize()
        except BaseException:
            # Faulted merge: reclaim the half-written output.  The
            # inputs are closed below; the queue is left closeable (all
            # frames returned) but not resumable.
            merged.delete()
            raise
        finally:
            for run in runs:
                run.close()
        return merged

    def _merge_level(self, level_index: int) -> None:
        """k-way merge every run of a level into one run one level up."""
        level = self._levels[level_index]
        self._levels[level_index] = []
        merged = self._merge_runs(level, name="pq/merged")
        self._add_run(level_index + 1, _Run(merged))
