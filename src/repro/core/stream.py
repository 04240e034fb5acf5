"""Sequential record streams over the simulated disk.

Streams are the workhorse of every batched algorithm (sorting, joins, graph
contraction): write-once, read-many sequences of records stored in full
blocks.  A stream writer buffers up to ``B`` records (one frame of internal
memory, accounted against the machine's budget) and emits one write I/O per
full block; a reader holds one frame and costs one read I/O per block.

:class:`StripedStream` additionally stripes its blocks round-robin over the
machine's ``D`` disks and transfers ``D`` blocks per parallel I/O step, the
"disk striping" technique the survey describes for the Parallel Disk Model.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence

from ..runtime.prefetch import read_ahead
from .exceptions import StreamError
from .machine import Machine
from .records import concat, copy_payload


class FileStream:
    """A write-once, read-many sequence of records on the simulated disk.

    Typical usage::

        out = FileStream(machine, name="runs/0")
        for record in data:
            out.append(record)
        out.finalize()
        for record in out:           # costs ceil(len/B) read I/Os
            ...

    Args:
        machine: the machine whose disk and memory budget the stream uses.
        name: optional label for debugging and error messages.
    """

    def __init__(self, machine: Machine, name: str = ""):
        self.machine = machine
        self.name = name
        self._block_ids: List[int] = []
        self._buffer: List[Any] = []
        self._buffer_reserved = False
        self._writer_reserve = machine.block_size
        self._length = 0
        self._finalized = False
        self._deleted = False
        self._stripe_offset = machine.disk.stripe_offset()

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: Any) -> None:
        """Append one record, flushing a block write when the buffer fills."""
        self._check_writable()
        if not self._buffer_reserved:
            self.machine.budget.acquire(self._writer_reserve)
            self._buffer_reserved = True
        try:
            self._buffer.append(record)
        except AttributeError:
            # A typed tail left by append_payload: continue as a list.
            self._buffer = list(self._buffer)
            self._buffer.append(record)
        self._length += 1
        if len(self._buffer) == self.machine.block_size:
            self._flush_buffer()

    def extend(self, records: Iterable[Any]) -> None:
        """Append every record of ``records`` in order."""
        for record in records:
            self.append(record)

    def append_payload(self, payload: Sequence[Any]) -> None:
        """Append every record of ``payload`` in order, through the
        staging buffer — :meth:`append` a payload at a time.

        The writer frame is reserved on the first record and blocks are
        cut at exactly the record counts :meth:`append` would cut them,
        so transfers, steps and budget are those of the per-record
        loop.  A typed payload stays typed: full blocks are written
        straight from its slices and a short tail is held as a typed
        copy until the next call, :meth:`sync` or :meth:`finalize`.
        """
        self._check_writable()
        count = len(payload)
        if count == 0:
            return
        if not self._buffer_reserved:
            self.machine.budget.acquire(self._writer_reserve)
            self._buffer_reserved = True
        self._length += count
        block_size = self.machine.block_size
        start = 0
        pending = len(self._buffer)
        if pending:
            start = min(block_size - pending, count)
            self._buffer = concat([self._buffer, payload[:start]])
            if len(self._buffer) < block_size:
                return
            self._flush_buffer()
        while count - start >= block_size:
            self._buffer = payload[start:start + block_size]
            self._flush_buffer()
            start += block_size
        if start < count:
            self._buffer = copy_payload(payload[start:])

    def append_block(self, records: Sequence[Any]) -> None:
        """Write ``records`` (at most ``B``) directly as one block.

        Unlike :meth:`append`, no staging buffer is used and no memory is
        reserved — the caller already holds the records and has accounted
        for them (e.g. a sorted memoryload during run formation).  Only
        allowed while the record buffer is empty, so blocks are never
        interleaved with buffered records.
        """
        self._check_writable()
        if len(self._buffer):
            raise StreamError(
                f"stream {self.name!r}: append_block while records are "
                "buffered would reorder data"
            )
        if len(records) > self.machine.block_size:
            raise StreamError(
                f"stream {self.name!r}: append_block of {len(records)} "
                f"records exceeds block size {self.machine.block_size}"
            )
        if len(records) == 0:  # ndarray truthiness is ambiguous
            return
        block_id = self._allocate_block(len(self._block_ids))
        # Record the id before the (faultable) write: if the write dies,
        # delete() still reclaims the allocated block.
        self._block_ids.append(block_id)
        # No defensive copy here: every holder downstream (the deferral
        # window, the device store) makes its own owning copy, so one
        # more per block would protect nothing.
        self._write_block(block_id, records)
        self._length += len(records)

    def append_blocks(self, payloads: Sequence[Sequence[Any]]) -> None:
        """Append several completed blocks in one runtime pass.

        The same contract as :meth:`append_block` per payload, but the
        writes reach the scheduler as one batch — identical transfer
        and step counts, one queue pass instead of one per block.  The
        caller already holds every payload (a sorted memoryload), so
        batching costs no extra frames.
        """
        self._check_writable()
        if len(self._buffer):
            raise StreamError(
                f"stream {self.name!r}: append_blocks while records are "
                "buffered would reorder data"
            )
        block_size = self.machine.block_size
        writes = []
        total = 0
        for records in payloads:
            count = len(records)
            if count > block_size:
                raise StreamError(
                    f"stream {self.name!r}: append_blocks payload of "
                    f"{count} records exceeds block size {block_size}"
                )
            if count == 0:  # ndarray truthiness is ambiguous
                continue
            block_id = self._allocate_block(len(self._block_ids))
            # Ids are recorded before the (faultable) writes: if the
            # batch dies part-way, delete() reclaims every allocation.
            self._block_ids.append(block_id)
            writes.append((block_id, records))
            total += count
        if writes:
            self.machine.runtime.writer.put_batch(writes)
            self._length += total

    @classmethod
    def writer_frames(cls, machine: Machine) -> int:
        """Frames a writer of this stream class will reserve (1 here;
        ``D`` for :class:`StripedStream`) — lets schedulers plan arity
        and staging around the writer's budget before it is acquired."""
        return 1

    @classmethod
    def reader_frames(cls, machine: Machine) -> int:
        """Frames a reader of this stream class will reserve (1 here;
        ``D`` for :class:`StripedStream`)."""
        return 1

    def reserve_writer(self) -> None:
        """Acquire the writer's staging reservation now instead of on the
        first :meth:`append`.

        Idempotent.  Callers that also make opportunistic reservations
        (the merge's prefetch pins) reserve the writer first so a pinned
        frame can never starve it.  Released by :meth:`finalize`,
        :meth:`sync`, or :meth:`delete` as usual.
        """
        self._check_writable()
        if not self._buffer_reserved:
            self.machine.budget.acquire(self._writer_reserve)
            self._buffer_reserved = True

    def sync(self) -> None:
        """Flush the staging buffer and release its memory frame while
        keeping the stream writable.

        A partially filled block is written out as a *short block* (fewer
        than ``B`` records); later appends start a fresh block.  Useful for
        long-lived buffers (e.g. buffer-tree node buffers) that must not
        hold a memory frame between batches.  Costs at most one write I/O.
        """
        self._check_writable()
        if len(self._buffer):
            self._flush_buffer()
        if self._buffer_reserved:
            self.machine.budget.release(self._writer_reserve)
            self._buffer_reserved = False

    def finalize(self) -> "FileStream":
        """Flush any partial block and switch the stream to read-only mode.

        Idempotent; returns ``self`` for chaining.
        """
        if self._deleted:
            raise StreamError(f"stream {self.name!r} has been deleted")
        if self._finalized:
            return self
        if len(self._buffer):
            self._flush_buffer()
        if self._buffer_reserved:
            self.machine.budget.release(self._writer_reserve)
            self._buffer_reserved = False
        self._finalized = True
        runtime = self.machine._runtime
        if runtime is not None:
            # Deferred write-behind blocks must hit the disk before the
            # stream is read (and before their pinned frames leak past
            # the algorithm that wrote them).
            runtime.writer.flush()
        return self

    def _flush_buffer(self) -> None:
        block_id = self._allocate_block(len(self._block_ids))
        # As in append_block: record before writing so a faulted write
        # cannot orphan the allocated block.
        self._block_ids.append(block_id)
        self._write_block(block_id, self._buffer)
        self._buffer = []

    def _allocate_block(self, index: int) -> int:
        # Consecutive blocks cycle the disks from a per-stream staggered
        # start, so concurrently consumed streams (e.g. merge runs) do
        # not contend for the same disk on their i-th block.
        return self.machine.disk.allocate(
            (index + self._stripe_offset) % self.machine.num_disks
        )

    def _write_block(self, block_id: int,
                     records: Sequence[Any]) -> None:
        # Completed blocks go through the runtime's write-behind buffer:
        # on one disk it writes through immediately (identical counts);
        # with D disks it defers until D blocks can share one step.
        self.machine.runtime.writer.put(block_id, records)

    def _check_writable(self) -> None:
        if self._deleted:
            raise StreamError(f"stream {self.name!r} has been deleted")
        if self._finalized:
            raise StreamError(
                f"stream {self.name!r} is finalized and read-only"
            )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        """Iterate all records, costing one read I/O per block.

        The reader reserves one frame (``B`` records) from the memory budget
        for its lifetime and releases it when exhausted or closed.
        """
        if self._deleted:
            raise StreamError(f"stream {self.name!r} has been deleted")
        if not self._finalized:
            raise StreamError(
                f"stream {self.name!r} must be finalized before reading"
            )
        return self._reader()

    def _reader(self) -> Iterator[Any]:
        for payload in self._block_reader():
            for record in payload:
                yield record

    def iter_blocks(self) -> Iterator[Sequence[Any]]:
        """Iterate whole block payloads (one read I/O each), preserving
        their representation — the batch consumer's counterpart of
        ``__iter__``.  Reserves one frame for its lifetime, exactly like
        a record reader."""
        if self._deleted:
            raise StreamError(f"stream {self.name!r} has been deleted")
        if not self._finalized:
            raise StreamError(
                f"stream {self.name!r} must be finalized before reading"
            )
        return self._block_reader()

    def _block_reader(self) -> Iterator[Sequence[Any]]:
        budget = self.machine.budget
        budget.acquire(self.machine.block_size)
        try:
            # Sequential scans know their future: read_ahead batches each
            # demanded block with successors on idle disks (no-op at D=1).
            for payload in read_ahead(self.machine.runtime,
                                      self._block_ids):
                yield payload
        finally:
            budget.release(self.machine.block_size)

    def read_block(self, index: int) -> Sequence[Any]:
        """Random-access read of the ``index``-th block (one read I/O)."""
        if not 0 <= index < len(self._block_ids):
            raise StreamError(
                f"stream {self.name!r} has no block {index} "
                f"(has {len(self._block_ids)})"
            )
        return self.machine.runtime.read_block(self._block_ids[index])

    def read_block_range(self, start: int, stop: int) -> Sequence[Any]:
        """Read blocks ``start..stop-1`` and return their records
        concatenated, batching ``D`` blocks per parallel I/O step.

        On a single-disk machine this is equivalent to ``stop - start``
        :meth:`read_block` calls; with ``D`` disks and striped layout it
        takes ``~(stop - start)/D`` steps.  The caller must have reserved
        memory for the returned records.
        """
        if not 0 <= start <= stop <= len(self._block_ids):
            raise StreamError(
                f"stream {self.name!r}: block range [{start}, {stop}) "
                f"invalid (has {len(self._block_ids)})"
            )
        parts: List[Sequence[Any]] = []
        group = self.machine.num_disks
        runtime = self.machine.runtime
        for batch_start in range(start, stop, group):
            batch = self._block_ids[batch_start:min(batch_start + group,
                                                    stop)]
            for payload in runtime.read_batch(batch):
                parts.append(payload)
        # Representation-preserving concatenation: typed blocks come back
        # as one typed memoryload, ready for a batch argsort.
        return concat(parts)

    def __len__(self) -> int:
        """Number of records in the stream (including unflushed ones)."""
        return self._length

    @property
    def num_blocks(self) -> int:
        """Number of full blocks written so far."""
        return len(self._block_ids)

    @property
    def block_ids(self) -> tuple:
        """The stream's block ids in order (read-only) — what the
        runtime's prefetchers schedule over."""
        if self._deleted:
            raise StreamError(f"stream {self.name!r} has been deleted")
        return tuple(self._block_ids)

    @property
    def is_finalized(self) -> bool:
        """Whether the stream has been switched to read-only mode."""
        return self._finalized

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def delete(self) -> None:
        """Free every block of the stream.  The stream becomes unusable."""
        if self._deleted:
            return
        if self._buffer_reserved:
            self.machine.budget.release(self._writer_reserve)
            self._buffer_reserved = False
        runtime = self.machine._runtime
        if runtime is not None:
            # Writing a deferred block after its id is freed (and maybe
            # reused) would corrupt another stream: drop, don't flush.
            runtime.writer.discard(self._block_ids)
        for block_id in self._block_ids:
            self.machine.disk.free(block_id)
        self._block_ids = []
        self._buffer = []
        self._deleted = True

    @classmethod
    def from_records(
        cls, machine: Machine, records: Iterable[Any], name: str = ""
    ) -> "FileStream":
        """Build and finalize a stream holding ``records``.

        The writer's frames are reserved before ``records`` is
        iterated, so a pull behind ``records`` (a
        :class:`~repro.pipeline.sorter.Sorter`, a lookup scan) plans
        around them; a write or pull that fails deletes the stream.
        """
        stream = cls(machine, name=name)
        try:
            stream.reserve_writer()
            stream.extend(records)
            return stream.finalize()
        except BaseException:
            stream.delete()
            raise

    @classmethod
    def from_payload(
        cls, machine: Machine, payload: Sequence[Any], name: str = ""
    ) -> "FileStream":
        """Build and finalize a stream from a whole payload, cut into
        ``B``-record blocks with :meth:`append_block` — the typed
        counterpart of :meth:`from_records` (an ndarray payload lands as
        compact ndarray blocks)."""
        stream = cls(machine, name=name)
        block_size = machine.block_size
        for start in range(0, len(payload), block_size):
            stream.append_block(payload[start:start + block_size])
        return stream.finalize()

    @classmethod
    def adopt(
        cls,
        machine: Machine,
        block_ids: Sequence[int],
        length: int,
        name: str = "",
    ) -> "FileStream":
        """Rebuild a finalized stream handle over blocks already on disk.

        The recovery path: a checkpoint manifest records a run as its
        block ids and record count; resuming reconstructs the handle
        without re-reading or re-writing anything (and therefore free of
        I/O).  Every block must still be allocated.
        """
        for block_id in block_ids:
            if not machine.disk.is_allocated(block_id):
                raise StreamError(
                    f"cannot adopt stream {name!r}: block {block_id} "
                    "is not allocated"
                )
        stream = cls(machine, name=name)
        stream._block_ids = list(block_ids)
        stream._length = length
        stream._finalized = True
        return stream

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "deleted" if self._deleted else (
            "finalized" if self._finalized else "writable"
        )
        return (
            f"{type(self).__name__}(name={self.name!r}, len={self._length}, "
            f"blocks={len(self._block_ids)}, {state})"
        )


class StripedStream(FileStream):
    """A stream striped round-robin across the machine's ``D`` disks.

    Writes are batched ``D`` blocks at a time and issued with
    :meth:`~repro.core.disk.DiskArray.parallel_write`; reads fetch ``D``
    consecutive blocks per parallel I/O step.  A full scan therefore costs
    ``ceil(n/D)`` steps instead of ``n`` — the survey's "disk striping"
    technique.  Both writer and reader reserve ``D`` frames of memory
    instead of one.
    """

    def __init__(self, machine: Machine, name: str = ""):
        super().__init__(machine, name)
        self._pending: List[tuple] = []
        self._writer_reserve = machine.block_size * machine.num_disks

    @classmethod
    def writer_frames(cls, machine: Machine) -> int:
        """A striped writer stages one block per disk: ``D`` frames."""
        return machine.num_disks

    @classmethod
    def reader_frames(cls, machine: Machine) -> int:
        """A striped reader holds one stripe: ``D`` frames."""
        return machine.num_disks

    def _write_block(self, block_id: int,
                     records: Sequence[Any]) -> None:
        self._pending.append((block_id, records))
        if len(self._pending) >= self.machine.num_disks:
            self._drain_pending()

    def append_blocks(self, payloads: Sequence[Sequence[Any]]) -> None:
        # Striped writes already batch per stripe in _write_block;
        # route through the per-block path so that staging (and its
        # step accounting) stays authoritative.
        for records in payloads:
            self.append_block(records)

    def _drain_pending(self) -> None:
        if self._pending:
            # One wave per disk-distinct group: D striped blocks = 1 step.
            self.machine.runtime.scheduler.write_batch(self._pending)
            self._pending = []

    def finalize(self) -> "StripedStream":
        if not self._finalized:
            super().finalize()
            self._drain_pending()
        return self

    def _block_reader(self) -> Iterator[Sequence[Any]]:
        machine = self.machine
        group = machine.num_disks
        reserve = machine.block_size * max(
            1, min(group, len(self._block_ids))
        )
        machine.budget.acquire(reserve)
        try:
            for start in range(0, len(self._block_ids), group):
                batch = self._block_ids[start:start + group]
                # Through the runtime: deferred writes to these blocks
                # are flushed first and the wave gets the fault retry.
                for payload in machine.runtime.read_batch(batch):
                    yield payload
        finally:
            machine.budget.release(reserve)
