"""The parallel-disk I/O scheduler.

The Parallel Disk Model charges one *step* per batch of transfers that
touches each disk at most once.  Algorithms that issue single-block
``read``/``write`` calls therefore pay a full step per block and run at
``D×`` the optimal step count on a ``D``-disk machine.  The
:class:`IOScheduler` closes that gap: callers enqueue block requests, and
:meth:`drain` partitions them into *waves* — at most one request per disk
— issuing each wave as a single parallel I/O.

The scheduler also owns the *pinned-frame* account used by read-ahead
and the write-behind buffer.  A pinned frame holds one staged block (``B``
records) and is charged to the machine's :class:`~repro.core.memory.
MemoryBudget`; the pin count can never exceed the buffer pool's frame
budget ``m``, so prefetch depth is bounded by internal memory exactly as
the model requires.  Pinning is opportunistic: :meth:`try_pin` refuses
(rather than raises) when no frame is spare, and callers fall back to
unbuffered transfers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Sequence, Tuple

from ..core.disk import Block
from ..core.exceptions import ConfigurationError, MemoryLimitExceeded
from ..faults.retry import RetryPolicy


def pin_frame(budget, block_size: int, slack_frames: int = 0) -> bool:
    """Charge one staged frame (``block_size`` records) to ``budget``
    if ``slack_frames`` more frames stay available after it — the one
    pin rule of the scheduler and the forecasting prefetcher.

    Returns False instead of raising when the frame does not fit.
    ``available`` ignores the buffer pool's reclaimable frames, so the
    acquire may need the reclaimer to evict cache; if even that cannot
    make room, the caller skips the optimisation rather than surface
    :class:`~repro.core.exceptions.MemoryLimitExceeded` from a pin.
    """
    if budget.available < (1 + slack_frames) * block_size:
        return False
    try:
        budget.acquire(block_size)
    except MemoryLimitExceeded:
        return False
    return True


class IOScheduler:
    """Queues block requests per disk and drains them as parallel steps.

    Args:
        machine: the machine whose :class:`~repro.core.disk.DiskArray`
            the scheduler drives.

    Attributes:
        pinned: number of staged frames currently charged to the budget.
        retry: the :class:`~repro.faults.retry.RetryPolicy` applied to
            every issued wave — a transiently failing wave is re-issued
            whole (its backoff charged as stall steps) until it succeeds
            or the policy gives up with
            :class:`~repro.core.exceptions.RetryExhaustedError`.
    """

    def __init__(self, machine):
        self.machine = machine
        self.pinned = 0
        self.retry = RetryPolicy()
        self._read_queues: Dict[int, Deque[int]] = {}
        self._write_queues: Dict[int, Deque[Tuple[int, List[Any]]]] = {}

    # ------------------------------------------------------------------
    # request queues
    # ------------------------------------------------------------------
    def queue_read(self, block_id: int) -> None:
        """Enqueue a block read on its home disk's queue."""
        disk = self.machine.disk.disk_of(block_id)
        self._read_queues.setdefault(disk, deque()).append(block_id)

    def queue_write(self, block_id: int, records: Sequence[Any]) -> None:
        """Enqueue a block write on its home disk's queue.

        The queue aliases the caller's buffer: enqueue and drain within
        one call (as :meth:`write_batch` does) — the device makes the
        one owning copy when the wave is issued."""
        disk = self.machine.disk.disk_of(block_id)
        self._write_queues.setdefault(disk, deque()).append(
            (block_id, records)
        )

    def drain(self) -> Dict[int, Block]:
        """Issue every queued request, one parallel step per wave.

        Each wave takes the head of every non-empty per-disk queue —
        requests on distinct disks are independent — and issues them with
        a single ``parallel_read``/``parallel_write``, so a wave costs
        exactly one step.  Write waves are issued before read waves of the
        same drain, preserving read-your-writes for requests queued on the
        same block.

        Returns a mapping from block id to payload for every read drained.
        """
        try:
            return self._drain()
        except BaseException:
            # A wave that dies mid-drain (crash, exhausted retries)
            # abandons the whole operation: clear the queues so the
            # caller's unwind — which may free the very blocks still
            # queued — is not followed by a replay of stale requests.
            self._read_queues.clear()
            self._write_queues.clear()
            raise

    def _drain(self) -> Dict[int, Block]:
        results: Dict[int, Block] = {}
        disk = self.machine.disk
        write_queues = self._write_queues
        while write_queues:
            wave = []
            drained = []
            for d, queue in write_queues.items():
                wave.append(queue.popleft())
                if not queue:
                    drained.append(d)
            for d in drained:
                del write_queues[d]
            self.retry.run(
                disk, lambda w=wave: disk.parallel_write(w)
            )
        read_queues = self._read_queues
        while read_queues:
            wave = []
            drained = []
            for d, queue in read_queues.items():
                wave.append(queue.popleft())
                if not queue:
                    drained.append(d)
            for d in drained:
                del read_queues[d]
            payloads = self.retry.run(
                disk, lambda w=wave: disk.parallel_read(w)
            )
            for block_id, payload in zip(wave, payloads):
                results[block_id] = payload
        return results

    # ------------------------------------------------------------------
    # batched convenience wrappers
    # ------------------------------------------------------------------
    def read_batch(self, block_ids: Sequence[int]) -> List[Block]:
        """Read ``block_ids`` through the queues, returning payloads in
        request order.  A batch with at most one block per disk costs one
        step."""
        if len(block_ids) == 1 and not self._read_queues \
                and not self._write_queues:
            # One block, idle queues (the invariant between drains):
            # issue the one-block wave directly — identical transfer
            # and step accounting, none of the queue bookkeeping.
            disk = self.machine.disk
            return self.retry.run(
                disk, lambda: disk.parallel_read(list(block_ids))
            )
        for block_id in block_ids:
            self.queue_read(block_id)
        results = self.drain()
        return [results[block_id] for block_id in block_ids]

    def write_batch(
        self, writes: Sequence[Tuple[int, Sequence[Any]]]
    ) -> None:
        """Write ``(block_id, records)`` pairs through the queues."""
        if len(writes) == 1 and not self._write_queues \
                and not self._read_queues:
            # Same one-wave fast path as read_batch.
            disk = self.machine.disk
            self.retry.run(
                disk, lambda: disk.parallel_write(list(writes))
            )
            return
        for block_id, records in writes:
            self.queue_write(block_id, records)
        self.drain()

    # ------------------------------------------------------------------
    # pinned-frame accounting
    # ------------------------------------------------------------------
    def try_pin(self, slack_frames: int = 0) -> bool:
        """Charge one staged frame (``B`` records) to the memory budget.

        Returns False — without raising — when every one of the ``m``
        frames is already pinned or the budget has no spare frame; callers
        then skip the optimisation instead of overflowing ``M``.

        Args:
            slack_frames: frames that must remain available *after* the
                pin.  Read-ahead pins are not reclaimable (dropping staged
                data would waste the transfer already paid), so callers
                that cannot see every concurrent frame consumer — a scan
                inside an unknown algorithm — leave ``D`` frames of slack
                for lazily acquired writer buffers.  Callers that have
                pre-reserved every consumer (the merge) pin with no slack.
        """
        if self.pinned >= self.machine.memory_blocks or not pin_frame(
                self.machine.budget, self.machine.block_size,
                slack_frames):
            return False
        self.pinned += 1
        return True

    def unpin(self, count: int = 1) -> None:
        """Return ``count`` staged frames to the memory budget."""
        if count > self.pinned:
            raise ConfigurationError(
                f"unpinning {count} frames but only {self.pinned} pinned"
            )
        self.machine.budget.release(count * self.machine.block_size)
        self.pinned -= count
