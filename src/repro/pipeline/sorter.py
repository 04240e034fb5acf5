"""The pipelined sorter: push runs in, pull the merge out.

:func:`~repro.sort.merge.external_merge_sort` is stream-to-stream: it
scans a finalized input (one read pass) and materializes a sorted
output (one write pass).  When the sort sits between two computation
stages — produce records, sort, consume records — both of those passes
are pure glue: ``2·(N/DB)`` I/Os to park the producer's output on disk
and ``2·(N/DB)`` more to park the sorted result that the consumer will
read exactly once.

:class:`Sorter` removes both boundaries, the STXXL/TPIE pipelining
idiom.  The *push* phase accepts records straight from the producer
(no input stream exists), cuts them into memoryload runs, and — per the
Arge–Thorup RAM-efficient sorting line — orders each run by sorting
``(key, index)`` pairs and emitting records through the index pointers
rather than comparing full records.  The *pull* phase exposes the final
k-way merge as an iterator (forecasting prefetch + block merge,
exactly the machinery of :func:`~repro.sort.merge.merge_group_steps`)
so the consumer reads the sorted order without it ever being written.
Total cost for a fits-in-one-merge sort: ``2·(N/DB)`` I/Os — write the
runs, read them back — against ``6·(N/DB)`` for the materialized chain.

Both phases also move whole payloads: :meth:`Sorter.push_block` pushes
a block and cuts runs at the record counts of :meth:`Sorter.push`, and
:meth:`Sorter.finish_segments` pulls the merge as the payload segments
it produces — the record pull is a flatten of that same generator.
With a structured dtype and a :func:`~repro.core.records.field` key,
every run is ordered and every merge round is taken in vectorized
passes, never a record at a time.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, List, Optional, \
    Sequence

from ..core.exceptions import ConfigurationError, StreamError
from ..core.machine import Machine
from ..core.records import concat
from ..core.stream import FileStream
from ..runtime.prefetch import ForecastingPrefetcher
from ..sort.merge import BlockMerger, merge_pass, plan_merge_arity
from ..sort.runs import identity, memoryload_blocks, write_run

_PUSH = "push"
_PULL = "pull"
_CLOSED = "closed"


class Sorter:
    """An external sort with a push phase and a pull phase.

    Args:
        machine: the machine whose disk holds the runs and whose budget
            every frame is charged to.
        key: sort key; default sorts records directly.
        name: label prefix for run streams and trace phases.
        fan_in: cap on the merge arity of the materialized intermediate
            passes; default lets one sorter use the machine maximum.
        final_fan_in: cap on how many runs survive into the *pulled*
            final merge — the pull phase holds one reader frame per
            surviving run for its whole lifetime, so callers running
            several pulls concurrently (a merge join pulls two) or
            holding large working buffers alongside the pull cap this
            to stay inside ``M``.  May be ``1``: the runs are then
            merged down to a single materialized run and the pull is a
            plain scan — exactly the materialized sort's I/O cost, the
            graceful floor on tiny-memory machines.  Defaults to the
            pass arity.
        headroom: blocks of budget the push phase's run buffer leaves
            unreserved — for writers and readers the producing loop
            acquires lazily *while* pushing (e.g. a side stream written
            from the same scan that feeds the sorter).
        stream_cls: stream class for the run files (pass
            :class:`~repro.core.stream.StripedStream` on multi-disk
            machines).

    Use as a context manager (or call :meth:`close`) so the run files
    and the memoryload reservation are reclaimed even when the producer
    or consumer dies mid-flight::

        with Sorter(machine, key=key) as sorter:
            sorter.consume(producer())          # push phase
            for record in sorter:               # pull phase
                ...

    :meth:`push_block` and :meth:`finish_segments` are the same two
    phases a payload at a time, with the same I/O and budget.

    The sort is stable.  Exhausting the pull iterator deletes the run
    files eagerly; an abandoned pull is reclaimed by :meth:`close`.
    """

    def __init__(
        self,
        machine: Machine,
        key: Optional[Callable[[Any], Any]] = None,
        name: str = "sorter",
        fan_in: Optional[int] = None,
        final_fan_in: Optional[int] = None,
        headroom: int = 0,
        stream_cls=FileStream,
    ):
        if final_fan_in is not None and final_fan_in < 1:
            raise StreamError(
                f"sorter {name!r}: final_fan_in must be >= 1, "
                f"got {final_fan_in}"
            )
        self.machine = machine
        self._key = key or identity
        self._name = name
        self._fan_in = fan_in
        self._final_fan_in = final_fan_in
        self._headroom = headroom
        self._stream_cls = stream_cls
        # Fail fast on a geometrically un-mergeable configuration,
        # before the producer spends a pass pushing records in.  (A
        # *static* check: construction may legitimately happen while
        # another sorter's pull holds most of the free budget, so the
        # dynamic arity is planned at finish() time instead.)
        if fan_in is not None and fan_in < 2:
            raise ConfigurationError(
                f"merge fan-in must be >= 2, got {fan_in}"
            )
        if machine.m - stream_cls.writer_frames(machine) < 2:
            raise ConfigurationError(
                f"sorter {name!r}: machine has {machine.m} frames, too "
                f"few for a binary merge plus its output writer"
            )
        self._buffer: List[Any] = []    # records pushed one at a time
        self._parts: List[Sequence[Any]] = []   # pushed before _buffer
        self._capacity = 0          # records reserved for the memoryload
        self._room = 0              # capacity left beside the parts
        self._runs: List[FileStream] = []
        self._count = 0
        self._state = _PUSH
        self._segments: Optional[Iterator[Sequence[Any]]] = None
        self._pull: Optional[Iterator[Any]] = None
        self._prefetcher: Optional[ForecastingPrefetcher] = None

    # ------------------------------------------------------------------
    # push phase
    # ------------------------------------------------------------------
    def push(self, record: Any) -> None:
        """Accept one record from the producer; spills a sorted run
        every memoryload (``N/M`` write-only passes total)."""
        if self._state != _PUSH:
            raise StreamError(
                f"sorter {self._name!r} is {self._state}; push refused"
            )
        if self._capacity == 0:
            self._reserve_memoryload()
        self._buffer.append(record)
        self._count += 1
        if len(self._buffer) >= self._room:
            self._spill()

    def push_block(self, payload: Sequence[Any]) -> None:
        """Push every record of ``payload`` in order — :meth:`push` a
        payload at a time.

        The memoryload is reserved on the first record and a run is
        spilled each time the buffer fills, at the same record counts
        as per-record pushes, so runs, I/O and budget are identical.
        Typed payloads are buffered as slices and stay typed, so a
        :func:`~repro.core.records.field` key orders each run in one
        vectorized pass.
        """
        if self._state != _PUSH:
            raise StreamError(
                f"sorter {self._name!r} is {self._state}; push refused"
            )
        count = len(payload)
        start = 0
        while start < count:
            if self._capacity == 0:
                self._reserve_memoryload()
            if self._buffer:
                # Records pushed one at a time go first.
                self._room -= len(self._buffer)
                self._parts.append(self._buffer)
                self._buffer = []
            take = min(count - start, self._room)
            self._parts.append(payload[start:start + take])
            self._room -= take
            self._count += take
            start += take
            if self._room == 0:
                self._spill()

    def consume(self, records: Iterable[Any]) -> "Sorter":
        """Push every record of ``records``; returns ``self``."""
        for record in records:
            self.push(record)
        return self

    def _reserve_memoryload(self) -> None:
        """Size the run buffer by run formation's rule
        (:func:`~repro.sort.runs.memoryload_blocks`): an upstream reader
        holding frames shortens the runs instead of overflowing ``M``."""
        machine = self.machine
        blocks = memoryload_blocks(
            machine, machine.budget.available, self._stream_cls,
            self._headroom,
        )
        self._capacity = self._room = blocks * machine.B
        machine.budget.acquire(self._capacity)

    def _spill(self) -> None:
        """Write the buffered memoryload out as one run — run
        formation's writer (:func:`~repro.sort.runs.write_run`), so the
        records are ordered key-pointer style and moved only once."""
        chunk = self._buffer
        if self._parts:
            if chunk:
                self._parts.append(chunk)
            chunk = concat(self._parts) if len(self._parts) > 1 \
                else self._parts[0]
        if not len(chunk):
            return
        with self.machine.trace(f"{self._name}-runs"):
            run = write_run(
                self.machine, chunk, self._key, self._stream_cls,
                f"{self._name}/run/{len(self._runs)}",
            )
        self._runs.append(run)
        self._buffer = []
        self._parts = []
        self._room = self._capacity

    def _release_memoryload(self) -> None:
        if self._capacity:
            self.machine.budget.release(self._capacity)
            self._capacity = self._room = 0
        self._buffer = []
        self._parts = []

    # ------------------------------------------------------------------
    # pull phase
    # ------------------------------------------------------------------
    def finish(self) -> Iterator[Any]:
        """Seal the push phase and return the sorted record iterator:
        a flatten of :meth:`finish_segments`' generator, not a second
        merge.  Idempotent: repeated calls (and ``iter(sorter)``) return
        the same iterator.
        """
        segments = self.finish_segments()
        if self._pull is None:
            self._pull = _flatten(segments)
        return self._pull

    def finish_segments(self) -> Iterator[Sequence[Any]]:
        """Seal the push phase and return the sorted order as payload
        segments (slices of merged blocks or merge rounds).

        Runs beyond the planned arity are first merged down with
        ordinary materialized passes; the *final* merge is never
        written — the segments come from a
        :class:`~repro.sort.merge.BlockMerger` over the forecasting
        prefetcher's block readers, and a refill is read when the
        segment before it has been taken, as the record pull reads it.
        Empty segments are skipped.  Idempotent: repeated calls return
        the same iterator.
        """
        if self._state == _PULL:
            return self._segments
        if self._state == _CLOSED:
            raise StreamError(f"sorter {self._name!r} is closed")
        self._spill()
        self._release_memoryload()
        self._state = _PULL
        if not self._runs:
            self._segments = self._pull_segments(None, [])
            return self._segments
        machine = self.machine
        arity = plan_merge_arity(
            machine, len(self._runs), fan_in=self._fan_in,
            stream_cls=self._stream_cls,
        )
        width = arity if self._final_fan_in is None \
            else min(arity, self._final_fan_in)
        level = 0
        while len(self._runs) > width:
            level += 1
            landed: List[FileStream] = []
            try:
                self._runs = merge_pass(
                    machine, self._runs, arity, key=self._key,
                    stream_cls=self._stream_cls, level=level,
                    name_prefix=f"{self._name}/merge", out=landed,
                )
            except BaseException:
                # The pass's inputs stay in ``_runs`` for close(); the
                # outputs that already landed are this pass's to free.
                for run in landed:
                    run.delete()
                raise
        # One reader frame per surviving run; opportunistic prefetch
        # pins leave D-1 spares for whatever writer the consumer stages
        # its own output through.
        pin_slack = machine.num_disks - 1
        self._prefetcher = ForecastingPrefetcher(
            machine.runtime, [run.block_ids for run in self._runs],
            key=self._key, pin_slack=pin_slack,
        )
        readers = [self._prefetcher.block_reader(i)
                   for i in range(len(self._runs))]
        merger = BlockMerger([next(reader, None) for reader in readers],
                             key=self._key)
        self._segments = self._pull_segments(merger, readers)
        return self._segments

    def _pull_segments(self, merger: Optional[BlockMerger],
                       readers: List[Iterator[Any]]
                       ) -> Iterator[Sequence[Any]]:
        try:
            if merger is None:
                return
            for item in merger.segments():
                if item.__class__ is int:
                    # A refill request: run ``item``'s next block.
                    merger.feed(next(readers[item], None))
                    continue
                payload, start, stop = item
                if start == 0 and stop == len(payload):
                    yield payload
                elif stop > start:
                    yield payload[start:stop]
        finally:
            # Exhaustion and generator close both land here: reader
            # frames released, run blocks freed eagerly.
            self._release_pull()

    def _release_pull(self) -> None:
        if self._prefetcher is not None:
            self._prefetcher.close()
            self._prefetcher = None
        for run in self._runs:
            run.delete()
        self._runs = []

    def __iter__(self) -> Iterator[Any]:
        return self.finish()

    def __len__(self) -> int:
        """Records pushed so far."""
        return self._count

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the memoryload reservation, reader frames, and run
        blocks (idempotent).  Safe at any phase."""
        if self._state == _CLOSED:
            return
        self._state = _CLOSED
        self._release_memoryload()
        pull, self._pull = self._pull, None
        if pull is not None:
            pull.close()  # closes the segments below it
        segments, self._segments = self._segments, None
        if segments is not None:
            segments.close()  # runs the generator's finally -> release
        self._release_pull()

    def __enter__(self) -> "Sorter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Sorter(name={self._name!r}, records={self._count}, "
            f"runs={len(self._runs)}, {self._state})"
        )


def _flatten(segments: Iterator[Sequence[Any]]) -> Iterator[Any]:
    """The records of ``segments`` in order; closing it closes them."""
    try:
        for segment in segments:
            yield from segment
    finally:
        segments.close()
