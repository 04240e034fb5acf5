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
The last memoryload is never written when it fits: a sort whose input
fits one memoryload costs no I/O at all, and otherwise the last
memoryload joins the final merge as an in-memory run.  Total cost for
a fits-in-one-merge sort: ``2·(N/DB)`` I/Os less the resident
memoryload — write the runs, read them back — against ``6·(N/DB)``
for the materialized chain.

Every frame decision is the Sorter's own, taken from the budget it
sees (see :class:`Sorter`), so callers never size a merge themselves:
they hold whatever runs beside the pull before they call
:meth:`Sorter.finish`, or name it there (``beside``).

Both phases also move whole payloads: :meth:`Sorter.push_block` pushes
a block and cuts runs at the record counts of :meth:`Sorter.push`, and
:meth:`Sorter.finish_segments` pulls the merge as the payload segments
it produces — the record pull is a flatten of that same generator.
With a structured dtype and a :func:`~repro.core.records.field` key,
every run is ordered and every merge round is taken in vectorized
passes, never a record at a time.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, List, Optional, \
    Sequence

from ..core.exceptions import ConfigurationError, StreamError
from ..core.machine import Machine
from ..core.records import concat, sort_payload
from ..core.stream import FileStream
from ..runtime.prefetch import ForecastingPrefetcher
from ..sort.merge import BlockMerger, merge_pass, plan_merge_arity
from ..sort.runs import identity, memoryload_blocks, write_run

_PUSH = "push"
_PULL = "pull"
_FAILED = "failed"
_CLOSED = "closed"
_NO_RECORD = object()   # compares unequal to every record


class Sorter:
    """An external sort with a push phase and a pull phase.

    Args:
        machine: the machine whose disk holds the runs and whose budget
            every frame is charged to.
        key: sort key; default sorts records directly.
        name: label prefix for run streams and trace phases.

    The frame plan follows the budget the Sorter sees:

    * **Run buffer.**  The first push reserves a memoryload
      (:func:`~repro.sort.runs.memoryload_blocks` of the free budget);
      when it is full the buffer grows into frames freed since — an
      upstream pull giving back its resident blocks — and only spills a
      run when it cannot grow.
    * **Pull.**  :meth:`finish` plans the final merge from the frames
      free at that moment: one reader per run on disk, all frames but
      one at most — that one is left for a frame the consumer opens
      lazily, such as the next Sorter's first run block or a writer —
      and prefetch pins that leave it too.  Everything else the
      consumer runs beside the pull — a lookup scan, a priority queue,
      a key-group share — it holds *before* calling :meth:`finish`, or
      passes as ``finish(beside=records)`` when it cannot hold it yet
      (the run buffer still occupies it) and reserves it once the
      first record is pulled; the plan and the pins leave those
      records free too.  The buffered memoryload stays resident when
      it fits beside the readers and ``D`` more frames, the consumer's
      and a write window for it: a sort that never spilled a run then
      costs no I/O.
    * **Merge-down.**  When more runs are on disk than the planned
      width ``w``, they are merged down before the first record is
      pulled, in frames the consumer may have given back by then: the
      ``r - w + 1`` runs of the smallest contiguous stretch into one
      (contiguous, so the sort stays stable) when one merge can take
      them, and a full pass first when it cannot.

    Use as a context manager (or call :meth:`close`) so the run files
    and every reserved frame are reclaimed even when the producer or
    consumer dies mid-flight::

        with Sorter(machine, key=key) as sorter:
            sorter.consume(producer())          # push phase
            for record in sorter:               # pull phase
                ...

    :meth:`push_block` and :meth:`finish_segments` are the same two
    phases a payload at a time, with the same I/O and budget.

    The sort is stable.  Exhausting the pull iterator deletes the run
    files eagerly; an abandoned pull is reclaimed by :meth:`close`.  A
    pull that fails (a spill or merge-down that raises) leaves the
    Sorter refusing any further pull; :meth:`close` still frees it.
    """

    def __init__(
        self,
        machine: Machine,
        key: Optional[Callable[[Any], Any]] = None,
        name: str = "sorter",
    ):
        self.machine = machine
        self._key = key or identity
        self._name = name
        # Fail fast on a geometrically un-mergeable configuration,
        # before the producer spends a pass pushing records in.  (A
        # *static* check: construction may legitimately happen while
        # another sorter's pull holds most of the free budget, so the
        # dynamic plan is made at finish() time instead.)
        if machine.m - FileStream.writer_frames(machine) < 2:
            raise ConfigurationError(
                f"sorter {name!r}: machine has {machine.m} frames, too "
                f"few for a binary merge plus its output writer"
            )
        self._buffer: List[Any] = []    # records pushed one at a time
        self._parts: List[Sequence[Any]] = []   # pushed before _buffer
        self._reserved = 0          # records of budget this sorter holds
        self._room = 0              # records the run buffer still takes
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
        each time the run buffer is full and cannot grow."""
        if self._state != _PUSH:
            self._refuse_push()
        if not self._room:
            self._make_room()
        self._buffer.append(record)
        self._room -= 1
        self._count += 1

    def push_block(self, payload: Sequence[Any]) -> None:
        """Push every record of ``payload`` in order — :meth:`push` a
        payload at a time.

        The run buffer is grown or spilled at the same record counts
        as per-record pushes, so runs, I/O and budget are identical.
        Typed payloads are buffered as slices and stay typed, so a
        :func:`~repro.core.records.field` key orders each run in one
        vectorized pass.
        """
        if self._state != _PUSH:
            self._refuse_push()
        count = len(payload)
        start = 0
        while start < count:
            if not self._room:
                self._make_room()
            if self._buffer:
                # Records pushed one at a time go first.
                self._parts.append(self._buffer)
                self._buffer = []
            take_ = min(count - start, self._room)
            self._parts.append(payload[start:start + take_])
            self._room -= take_
            self._count += take_
            start += take_

    def consume(self, records: Iterable[Any]) -> "Sorter":
        """Push every record of ``records``; returns ``self``."""
        for record in records:
            self.push(record)
        return self

    def _refuse_push(self) -> None:
        raise StreamError(
            f"sorter {self._name!r} is {self._state}; push refused"
        )

    def _make_room(self) -> None:
        """Grow the full run buffer to run formation's memoryload over
        the frames free now (:func:`~repro.sort.runs.memoryload_blocks`
        — an upstream reader holding frames shortens the runs instead
        of overflowing ``M``), or spill it as a run when it cannot
        grow."""
        machine = self.machine
        blocks = memoryload_blocks(
            machine, machine.budget.available + self._reserved)
        if blocks * machine.B > self._reserved:
            self._room = blocks * machine.B - self._reserved
            self._hold(blocks)
        else:
            self._spill(self._take_buffer())
            self._room = self._reserved

    def _take_buffer(self) -> Sequence[Any]:
        """The buffered records as one payload; the buffer is emptied."""
        chunk = self._buffer
        if self._parts:
            if chunk:
                self._parts.append(chunk)
            chunk = concat(self._parts) if len(self._parts) > 1 \
                else self._parts[0]
        self._buffer = []
        self._parts = []
        return chunk

    def _spill(self, chunk: Sequence[Any]) -> None:
        """Write ``chunk`` out as one run — run formation's writer
        (:func:`~repro.sort.runs.write_run`), so the records are
        ordered key-pointer style and moved only once."""
        if not len(chunk):
            return
        with self.machine.trace(f"{self._name}-runs"):
            self._runs.append(write_run(
                self.machine, chunk, self._key, FileStream,
                f"{self._name}/run/{len(self._runs)}",
            ))

    def _hold(self, blocks: int) -> None:
        """Resize this sorter's reservation to ``blocks`` frames."""
        records = blocks * self.machine.B
        if records < self._reserved:
            self._give_back(self._reserved - records)
        elif records > self._reserved:
            self.machine.budget.acquire(records - self._reserved)
            self._reserved = records

    def _give_back(self, records: int) -> None:
        self.machine.budget.release(records)
        self._reserved -= records

    # ------------------------------------------------------------------
    # pull phase
    # ------------------------------------------------------------------
    def finish(self, beside: int = 0) -> Iterator[Any]:
        """Seal the push phase and return the sorted record iterator:
        a flatten of :meth:`finish_segments`' generator, not a second
        merge.  Idempotent: repeated calls (and ``iter(sorter)``) return
        the same iterator.
        """
        segments = self.finish_segments(beside)
        if self._pull is None:
            self._pull = _flatten(segments)
        return self._pull

    def finish_segments(self, beside: int = 0
                        ) -> Iterator[Sequence[Any]]:
        """Seal the push phase, plan the pull, and return the sorted
        order as payload segments (slices of merged blocks or merge
        rounds).

        The plan (see :class:`Sorter`) is made now, from the budget
        free at this call less ``beside`` records the consumer will
        reserve once the pull has started: the buffered memoryload
        stays resident or is spilled, and the pull's reader and
        resident frames are reserved.  Runs beyond the planned width
        are merged down when the first segment is asked for; the
        *final* merge is never written — the segments come from a
        :class:`~repro.sort.merge.BlockMerger` over the forecasting
        prefetcher's block readers and the resident run, and a refill
        is read when the segment before it has been taken, as the
        record pull reads it.  Empty segments are skipped.  Idempotent:
        repeated calls return the same iterator.
        """
        if self._state == _PULL:
            return self._segments
        if self._state != _PUSH:
            raise StreamError(
                f"sorter {self._name!r} is {self._state}; pull refused"
            )
        if beside < 0:
            raise ConfigurationError(
                f"sorter {self._name!r}: beside must be >= 0, got {beside}"
            )
        # Until the plan stands, a failure leaves the sorter refusing
        # pulls; close() still frees whatever it holds.
        self._state = _FAILED
        machine = self.machine
        chunk = self._take_buffer()
        frames = (machine.budget.available - beside + self._reserved) \
            // machine.B
        blocks = -(-len(chunk) // machine.B)
        # The memoryload stays resident beside one reader per run when
        # it leaves D frames: one for a frame the consumer opens lazily,
        # D-1 for the window that consumer writes through.
        resident = None
        if len(self._runs) + blocks + machine.num_disks <= frames:
            resident = sort_payload(chunk, self._key)
        else:
            self._spill(chunk)
            blocks = 0
        width = max(1, frames - 1 - blocks)
        self._hold(blocks + min(len(self._runs), width))
        # Prefetch pins leave the consumer a frame and what runs beside.
        self._segments = self._pull_segments(
            resident, blocks, width, 1 + beside // machine.B)
        self._state = _PULL
        return self._segments

    def _pull_segments(self, resident: Optional[Sequence[Any]],
                       blocks: int, width: int,
                       pin_slack: int) -> Iterator[Sequence[Any]]:
        machine = self.machine
        try:
            # The reader frames change hands: the merge-down may use
            # them, then the prefetcher reserves one per surviving run.
            self._hold(blocks)
            if len(self._runs) > width:
                self._merge_down(width)
            self._prefetcher = ForecastingPrefetcher(
                machine.runtime, [run.block_ids for run in self._runs],
                key=self._key, pin_slack=pin_slack,
            )
            readers = [self._prefetcher.block_reader(i)
                       for i in range(len(self._runs))]
            if resident is not None:
                # Last in input order: ties go to the runs on disk.
                readers.append(self._resident_blocks(resident))
            merger = BlockMerger(
                [next(reader, None) for reader in readers], key=self._key)
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
        except Exception:
            self._state = _FAILED
            raise
        finally:
            # Exhaustion, failure and generator close all land here:
            # reader and resident frames released, run blocks freed.
            self._release_pull()

    def _resident_blocks(self, payload: Sequence[Any]
                         ) -> Iterator[Sequence[Any]]:
        """The resident run a block at a time; a block's frame is given
        back when the merge asks for the next one."""
        B = self.machine.B
        for start in range(0, len(payload), B):
            yield payload[start:start + B]
            self._give_back(B)

    def _merge_down(self, width: int) -> None:
        """Merge runs until at most ``width`` remain.  When one merge
        can take the ``r - width + 1`` surplus runs, only those are
        merged: the contiguous stretch of the fewest blocks (contiguous,
        so the sort stays stable).  More surplus than that costs a full
        pass first, as in the materialized sort, at an arity that
        leaves at most ``width`` runs where the machine allows it."""
        machine = self.machine
        level = 0
        while len(self._runs) > width:
            level += 1
            first, count = 0, len(self._runs)
            arity = plan_merge_arity(machine, count)
            if count - width + 1 <= arity:
                count -= width - 1
                sizes = [run.num_blocks for run in self._runs]
                first = min(range(len(sizes) - count + 1),
                            key=lambda i: sum(sizes[i:i + count]))
            else:
                widest = plan_merge_arity(machine)
                arity = min(widest, max(arity, -(-count // width)))
            landed: List[FileStream] = []
            try:
                merged = merge_pass(
                    machine, self._runs[first:first + count], arity,
                    key=self._key, level=level,
                    name_prefix=f"{self._name}/merge", out=landed,
                )
            except BaseException:
                # The inputs stay in ``_runs`` for close(); the outputs
                # that already landed are this pass's to free.
                for run in landed:
                    run.delete()
                raise
            self._runs[first:first + count] = merged

    def _release_pull(self) -> None:
        if self._prefetcher is not None:
            self._prefetcher.close()
            self._prefetcher = None
        for run in self._runs:
            run.delete()
        self._runs = []
        self._take_buffer()
        self._hold(0)

    def __iter__(self) -> Iterator[Any]:
        return self.finish()

    def __len__(self) -> int:
        """Records pushed so far."""
        return self._count

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every reserved frame and the run blocks
        (idempotent).  Safe at any phase."""
        if self._state == _CLOSED:
            return
        self._state = _CLOSED
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


def _first_of_runs(records: Iterable[Any],
                  same: Optional[Callable[[Any], Any]] = None
                  ) -> Iterator[Any]:
    """The first record of every run of adjacent ``records`` equal
    under ``same`` (default: the whole record) — de-duplication of a
    sorted pull, in the pull's frames."""
    previous = _NO_RECORD
    for record in records:
        current = record if same is None else same(record)
        if current != previous:
            yield record
        previous = current


def _primed(records: Iterable[Any]) -> Iterator[Any]:
    """``records`` with its first record pulled now.  Whatever the
    consumer opens after this call — a writer, level scans — a
    merge-down behind a Sorter's first pull has already run in every
    free frame, as it would beside a writer that opens at its first
    record."""
    records = iter(records)
    return chain(list(islice(records, 1)), records)


def sorted_unique(machine: Machine, records: Iterable[Any], name: str,
                  same: Optional[Callable[[Any], Any]] = None
                  ) -> FileStream:
    """Sort ``records`` and write the first of every run of adjacent
    records equal under ``same`` (default: the whole record): one
    Sorter, one written stream.

    The writer takes the frame the producer's reader gave back before
    the pull is planned: the pull is not primed, which keeps the
    connectivity and Borůvka rounds' plans (priming moves their
    transfers by a few blocks either way)."""
    with Sorter(machine, name=name) as ordered:
        ordered.consume(records)
        return FileStream.from_records(
            machine, _first_of_runs(ordered, same), name=name)


def _flatten(segments: Iterator[Sequence[Any]]) -> Iterator[Any]:
    """The records of ``segments`` in order; closing it closes them."""
    try:
        for segment in segments:
            yield from segment
    finally:
        segments.close()
