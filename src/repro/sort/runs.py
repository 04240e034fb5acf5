"""Run formation: the first pass of external merge sort.

Two strategies from the survey are implemented:

* :func:`form_runs_load_sort` — read a full memoryload of ``M`` records,
  sort it internally, write it out.  Produces ``ceil(N/M)`` runs of exactly
  ``M`` records (except the last).  It is the eager driver of
  :func:`form_runs_steps`, the intent-yielding generator that the
  cooperative sort (:func:`~repro.sort.steps.merge_sort_steps`) runs.
* :func:`form_runs_replacement_selection` — stream records through an
  ``M``-record tournament (here a binary heap): always emit the smallest
  key that can still extend the current run.  On random input the expected
  run length is ``2M`` (Knuth), halving the number of runs and often saving
  a merge pass; on already-sorted input it produces a single run; on
  reverse-sorted input it degrades to runs of length ``M``.
"""

from __future__ import annotations

import heapq
from contextlib import closing
from typing import Any, Callable, List, Optional

from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io
from ..core.exceptions import ConfigurationError
from ..core.intents import StreamRead, drive
from ..core.machine import Machine
from ..core.records import concat, sort_payload
from ..core.stream import FileStream


# em: ok(EM003) pure key helper: no machine, no I/O
def identity(record: Any) -> Any:
    """Default key function: the record is its own key."""
    return record


def _run_formation_theory(machine: Machine, n: int) -> int:
    """One read pass plus one write pass: ``2·scan(N)``.

    The sanitizer compares block *transfers*, which do not depend on
    ``D`` (the runtime's scheduling only packs them into fewer steps),
    so the envelope deliberately omits the machine's disk count.
    """
    return 2 * scan_io(n, machine.B)


def memoryload_blocks(machine: Machine, available: int,
                      stream_cls=FileStream) -> int:
    """Blocks in one run-formation memoryload: the survey's ``M``-record
    load, shrunk to the ``available`` budget (in records) so callers
    holding resident frames form shorter runs instead of overflowing.

    On a multi-disk machine ``D - 1`` frames stay out of the load so the
    runtime's write-behind can hold a ``D``-block window; a load that
    fills every frame forces one write step per block.  A run writer of
    ``stream_cls`` that batches a full stripe itself (``StripedStream``)
    needs no window.  Loads longer than a stripe are cut to a multiple
    of ``D`` so every read batch and write window is a full wave.  Never
    less than one block; no I/O.
    """
    D = machine.num_disks
    spare = D - 1 if stream_cls.writer_frames(machine) < D else 0
    blocks = max(1, min(machine.m - spare, available // machine.B - spare))
    if blocks > D:
        blocks -= blocks % D
    return blocks


def write_run(machine: Machine, chunk,
              key: Optional[Callable[[Any], Any]], stream_cls,
              name: str) -> FileStream:
    """Order one memoryload and write it as a finalized run.

    :func:`~repro.core.records.sort_payload` orders it stably —
    Arge–Thorup's key-pointer sort, or ``np.sort`` of the values when
    the keys are the chunk's own integers.  The caller holds (and has
    reserved) the chunk, so the blocks are written straight from it
    with no staging frame; a write that dies deletes the run.
    """
    permuted = sort_payload(chunk, key)
    B = machine.B
    run = stream_cls(machine, name=name)
    try:
        run.append_blocks([permuted[offset:offset + B]
                           for offset in range(0, len(permuted), B)])
        return run.finalize()
    except BaseException:
        run.delete()
        raise


def form_runs_steps(
    machine: Machine,
    stream: FileStream,
    key: Optional[Callable[[Any], Any]] = None,
    stream_cls=FileStream,
    map_fn: Optional[Callable[[Any], Any]] = None,
    filter_fn: Optional[Callable[[Any], bool]] = None,
    budget=None,
    name: str = "run",
):
    """Load-sort run formation as a cooperative generator.

    Each memoryload is sized by :func:`memoryload_blocks` over the
    *available* ``budget`` (default: the machine's) — a caller holding
    resident frames, or a tenant with a small share, forms shorter runs
    instead of overflowing — and is counted in *input* records, so the
    reservation covers a filter that drops nothing.  The load is one
    yielded :class:`~repro.core.intents.StreamRead`; ``filter_fn`` then
    ``map_fn`` run on it (a load the filter empties forms no run), and
    :func:`write_run` orders and writes it through ``stream_cls``.
    One read and one write per input block.

    Returns the finalized runs, in input order, named ``name/i``.  A
    fault or a driver ``throw`` deletes every run formed so far, so the
    caller can retry the whole pass (the checkpointed sort does).
    """
    budget = budget if budget is not None else machine.budget
    block_ids = list(stream.block_ids)
    blocks_per_run = memoryload_blocks(machine, budget.available,
                                       stream_cls)
    runs: List[FileStream] = []
    try:
        for start in range(0, len(block_ids), blocks_per_run):
            wanted = block_ids[start:start + blocks_per_run]
            with budget.reserve(len(wanted) * machine.B):
                chunk = concat((yield StreamRead(wanted)))
                if filter_fn is not None:
                    chunk = [record for record in chunk
                             if filter_fn(record)]
                    if not chunk:
                        continue
                if map_fn is not None:
                    chunk = [map_fn(record) for record in chunk]
                runs.append(write_run(machine, chunk, key, stream_cls,
                                      f"{name}/{len(runs)}"))
    except BaseException:
        for formed in runs:
            formed.delete()
        raise
    return runs


@io_bound(_run_formation_theory, factor=2.0)
def form_runs_load_sort(
    machine: Machine,
    stream: FileStream,
    key: Optional[Callable[[Any], Any]] = None,
    stream_cls=FileStream,
) -> List[FileStream]:
    """Split ``stream`` into sorted runs of ``M`` records each.

    The eager driver of :func:`form_runs_steps`: each memoryload
    occupies the *available* memory budget (up to ``m`` blocks, see
    :func:`memoryload_blocks`) and is read and written directly, so no
    extra staging frames are needed.  Costs one read and one write I/O
    per block of input.

    Returns the list of finalized run streams, in input order.
    """
    with machine.trace("run-formation"):
        return drive(machine, form_runs_steps(
            machine, stream, key, stream_cls))


@io_bound(_run_formation_theory, factor=3.0)
def form_runs_replacement_selection(
    machine: Machine,
    stream: FileStream,
    key: Optional[Callable[[Any], Any]] = None,
    stream_cls=FileStream,
) -> List[FileStream]:
    """Form runs by replacement selection: one read and one write pass
    (``2·scan(N)`` I/Os, plus one short block per run).

    The selection heap holds ``M - 2B`` records (one frame is the input
    buffer, one the output buffer).  A record read from the input replaces
    the record just emitted; if its key is smaller than the last emitted
    key it cannot join the current run and is tagged for the next one.

    Returns the list of finalized run streams in emission order; keys are
    non-decreasing within each run.
    """
    key = key or identity
    if machine.m < 3:
        raise ConfigurationError(
            "replacement selection needs at least 3 memory blocks "
            "(input frame + output frame + selection heap); "
            f"machine has m={machine.m}"
        )
    # The input reader's frames, the output writer's frames, and (for a
    # one-block-at-a-time writer on a multi-disk machine) D-1 frames of
    # write-behind window stay out of the heap.
    out_frames = stream_cls.writer_frames(machine)
    window = machine.num_disks - 1 if out_frames < machine.num_disks else 0
    heap_capacity = (
        min(machine.M, machine.budget.available)
        - (type(stream).reader_frames(machine) + out_frames + window)
        * machine.B
    )
    if heap_capacity < 1:
        raise ConfigurationError(
            "replacement selection needs a free frame beyond the input "
            f"and output buffers; only {machine.budget.available} of "
            f"M={machine.M} records are unreserved"
        )
    runs: List[FileStream] = []
    sequence = 0  # tie-break so records never compare with each other

    current_run: Optional[FileStream] = None
    # closing() releases the reader's frame deterministically on every
    # exit; a bare iter() would leave it pinned for as long as the
    # propagating exception (and its traceback) kept the generator
    # alive (EM301).
    with machine.trace("run-formation"), \
            machine.budget.reserve(heap_capacity), \
            closing(iter(stream)) as reader:
        try:
            # (run_number, key, sequence, record) orders the heap first
            # by the run a record belongs to, then by key within the run.
            heap: List[tuple] = []
            for record in reader:
                heap.append((0, key(record), sequence, record))
                sequence += 1
                if len(heap) == heap_capacity:
                    break
            heapq.heapify(heap)

            current_run_number = 0
            last_key: Any = None
            reader_exhausted = len(heap) < heap_capacity

            while heap:
                run_number, record_key, _, record = heapq.heappop(heap)
                if run_number != current_run_number or current_run is None:
                    if current_run is not None:
                        runs.append(current_run.finalize())
                    current_run = stream_cls(
                        machine, name=f"run/{len(runs)}"
                    )
                    current_run_number = run_number
                current_run.append(record)
                last_key = record_key

                if not reader_exhausted:
                    try:
                        incoming = next(reader)
                    except StopIteration:
                        reader_exhausted = True
                    else:
                        incoming_key = key(incoming)
                        target_run = (
                            current_run_number
                            if incoming_key >= last_key
                            else current_run_number + 1
                        )
                        heapq.heappush(
                            heap,
                            (target_run, incoming_key, sequence, incoming),
                        )
                        sequence += 1

            if current_run is not None:
                runs.append(current_run.finalize())
                current_run = None
        except BaseException:
            # Same cleanup contract as load-sort formation: no leaked
            # runs on a faulted pass.
            if current_run is not None:
                current_run.delete()
            for formed in runs:
                formed.delete()
            raise
    return runs


# em: ok(EM003) in-RAM statistic over run handles; reads no blocks
def average_run_length(runs: List[FileStream]) -> float:
    """Mean run length in records (0.0 for no runs) — the statistic the
    replacement-selection experiment reports."""
    if not runs:
        return 0.0
    return sum(len(run) for run in runs) / len(runs)
