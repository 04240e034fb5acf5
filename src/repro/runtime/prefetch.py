"""Prefetching: sequential read-ahead and forecasting for merges.

Two read schedules from the survey:

* :func:`read_ahead` — for a sequential scan the future is fully known,
  so each demanded block is fetched together with its successors, one per
  idle disk, as a single parallel step.
* :class:`ForecastingPrefetcher` — during a ``k``-way merge the next
  block needed is not the next block of *any* fixed run; Knuth's
  *forecasting* rule says it is the next block of the run whose most
  recently fetched block has the smallest last key.  Each demanded fetch
  is therefore batched with the next blocks of the most urgent other
  runs, one per idle disk, so a ``D``-disk merge approaches one block per
  disk per step instead of one block per step.

Both schedules stage prefetched payloads in pinned frames charged to a
memory budget by one rule (:func:`~repro.runtime.scheduler.pin_frame`):
read-ahead pins through the scheduler on the machine's budget, the
forecasting prefetcher on its merge's budget (a tenant's share under
the query service).  Staging never exceeds the spare frames, and on a
single disk no prefetch happens at all, keeping transfer and step
counts identical to the demand-paged path.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Iterator, List, Sequence, Tuple

from ..core.disk import Block
from ..core.intents import StreamRead, drive
from .scheduler import pin_frame


def read_ahead(runtime, block_ids: Sequence[int]) -> Iterator[Block]:
    """Yield the payload of every block in ``block_ids``, in order,
    batching each demanded read with successor blocks on idle disks.

    The caller owns the frame holding the yielded payload (one block of
    budget, acquired by the consuming reader); staged successors are
    pinned by the scheduler and unpinned as they are yielded.
    """
    scheduler = runtime.scheduler
    machine = runtime.machine
    disk_of = machine.disk.disk_of
    n = len(block_ids)
    staged: Deque[Block] = deque()
    index = 0
    try:
        while staged or index < n:
            if staged:
                scheduler.unpin()
                yield staged.popleft()
                continue
            batch = [block_ids[index]]
            index += 1
            if machine.num_disks > 1:
                used = {disk_of(batch[0])}
                while index < n and len(used) < machine.num_disks:
                    disk = disk_of(block_ids[index])
                    # Slack: a scan cannot see the lazily acquired writer
                    # buffers of whatever algorithm consumes it, so its
                    # (unreclaimable) pins leave D frames for them.
                    if disk in used or \
                            not scheduler.try_pin(machine.num_disks):
                        break
                    used.add(disk)
                    batch.append(block_ids[index])
                    index += 1
            try:
                for block_id in batch:
                    runtime.writer.ensure_flushed(block_id)
                payloads = scheduler.read_batch(batch)
            except BaseException:
                # The read died: its staging pins were never filled.
                scheduler.unpin(len(batch) - 1)
                raise
            staged.extend(payloads[1:])
            yield payloads[0]
    finally:
        if staged:
            scheduler.unpin(len(staged))
            staged.clear()


class _RunState:
    """Per-run cursor of the forecasting prefetcher."""

    __slots__ = ("block_ids", "next_fetch", "staged", "tail_key")

    def __init__(self, block_ids: Sequence[int]):
        self.block_ids = list(block_ids)
        self.next_fetch = 0
        self.staged: Deque[Block] = deque()
        self.tail_key: Any = None  # last key of the newest fetched block

    @property
    def exhausted(self) -> bool:
        return self.next_fetch >= len(self.block_ids)


class ForecastingPrefetcher:
    """Schedules the block reads of a multi-way merge by forecasting.

    Args:
        runtime: the machine's :class:`~repro.runtime.Runtime`.
        run_block_ids: one block-id sequence per sorted run.
        key: the merge's key function (the forecast compares the key of
            each fetched block's *last* record across runs).
        pin_slack: frames that must stay available after each staging
            pin.  Staged read data is not reclaimable, so a merge whose
            output writer shares the spare frames (a one-block-at-a-time
            writer batching through write-behind) passes ``D - 1`` here
            to keep a write window possible.
        budget: the ledger charged for the reader frames and the staging
            pins — a tenant's :class:`~repro.core.memory.SubBudget` when
            a cooperative merge runs under the service; defaults to the
            machine's budget.

    :meth:`next_block` is the one fetch schedule: a sub-generator that
    yields each forecast batch as a
    :class:`~repro.core.intents.StreamRead`, so a cooperative merge
    hands the batch to its driver.  :meth:`block_reader` serves the same
    schedule eagerly as one payload iterator per run.  Call
    :meth:`close` when the merge ends (normally or not) so staged
    frames are returned to the budget.
    """

    def __init__(
        self,
        runtime,
        run_block_ids: Sequence[Sequence[int]],
        key: Callable[[Any], Any],
        pin_slack: int = 0,
        budget=None,
    ):
        self.runtime = runtime
        machine = runtime.machine
        self._key = key
        self._pin_slack = pin_slack
        self._budget = budget if budget is not None else machine.budget
        self._runs = [_RunState(ids) for ids in run_block_ids]
        # One frame per run's *current* block, reserved for the whole
        # merge up front (every reader stays live until the merge ends).
        # Reserving lazily instead would let opportunistic pins starve a
        # reader that has not started yet.
        self._reader_reserve = machine.block_size * len(self._runs)
        self._budget.acquire(self._reader_reserve)

    # ------------------------------------------------------------------
    def block_reader(self, index: int) -> Iterator[Block]:
        """Whole-payload iterator over run ``index``: :meth:`next_block`
        driven eagerly, each batch read as it is yielded.  The run's
        current block lives in a frame reserved by the prefetcher;
        staged blocks are pinned separately."""
        machine = self.runtime.machine
        while True:
            payload = drive(machine, self.next_block(index))
            if payload is None:
                return
            yield payload

    def next_block(self, index: int):
        """Run ``index``'s next block, or ``None`` past its end.

        A sub-generator: a staged block comes after a bare ``yield`` (a
        checkpoint, so a driver interleaving jobs gets one block of
        merge work per round whether the block was staged or read);
        otherwise the run's next block is batched with the next block of
        each most urgent other run on an idle disk, the batch is yielded
        as one ``StreamRead``, and the payloads sent back are staged.
        """
        run = self._runs[index]
        if run.staged:
            yield
            self._unpin(1)
            return run.staged.popleft()
        if run.exhausted:
            return None
        batch = self._forecast_batch(index)
        try:
            payloads = yield StreamRead([block_id for _, block_id in batch])
        except BaseException:
            # The read died: its staging pins were never filled.
            self._unpin(len(batch) - 1)
            raise
        for (j, _), payload in zip(batch, payloads):
            self._runs[j].tail_key = self._key(payload[-1])
            self._runs[j].staged.append(payload)
        # The lead run's first block was staged first; it is returned in
        # the frame reserved for the run, the rest stay pinned.
        return run.staged.popleft()

    def close(self) -> None:
        """Drop every staged block, unpin its frame, and release the
        reader frames (idempotent)."""
        for run in self._runs:
            run.next_fetch = len(run.block_ids)
            self._unpin(len(run.staged))
            run.staged.clear()
        if self._reader_reserve:
            self._budget.release(self._reader_reserve)
            self._reader_reserve = 0

    # ------------------------------------------------------------------
    def _forecast_batch(self, lead: int) -> List[Tuple[int, int]]:
        """``(run, block id)`` pairs to read together: the lead run's
        next block, then — on several disks — the next block of each
        most-urgent other run on a still idle disk, then the lead run's
        own following blocks on the disks none of those could use, each
        staged in a frame pinned from the budget.  A lone run thus reads
        ``D`` blocks per step, as a scan does."""
        machine = self.runtime.machine
        disk_of = machine.disk.disk_of
        runs = self._runs
        run = runs[lead]
        batch = [(lead, run.block_ids[run.next_fetch])]
        run.next_fetch += 1
        if machine.num_disks > 1:
            used = {disk_of(batch[0][1])}
            for j in self._forecast_order(lead) + [lead]:
                other = runs[j]
                while len(used) < machine.num_disks \
                        and not other.exhausted:
                    block_id = other.block_ids[other.next_fetch]
                    disk = disk_of(block_id)
                    if disk in used or not pin_frame(
                            self._budget, machine.block_size,
                            self._pin_slack):
                        break
                    used.add(disk)
                    batch.append((j, block_id))
                    other.next_fetch += 1
                    if j != lead:
                        break  # one block per other run
        return batch

    def _forecast_order(self, lead: int) -> List[int]:
        """Runs still needing blocks, most urgent first: never-fetched
        runs (the merge needs their first block immediately), then
        ascending key of the newest fetched block's last record."""
        candidates = [
            j for j, run in enumerate(self._runs)
            if j != lead and not run.staged and not run.exhausted
        ]
        candidates.sort(
            key=lambda j: (0, 0, j) if self._runs[j].next_fetch == 0
            else (1, self._runs[j].tail_key, j)
        )
        return candidates

    def _unpin(self, count: int) -> None:
        if count:
            self._budget.release(count * self.runtime.machine.block_size)
