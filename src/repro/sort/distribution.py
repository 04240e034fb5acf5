"""External distribution (bucket) sort.

The survey's second optimal sorting paradigm: instead of merging sorted
runs, *partition* the input around ``k`` pivots into buckets of disjoint
key ranges, recurse on each bucket, and concatenate.  With fan-out
``Θ(m)`` the recursion depth is ``Θ(log_m(N/M))``, matching the merge-sort
bound up to constants (each level pays one read and one write pass, plus a
cheap pivot-sampling probe).

Implementation notes:

* Pivots come from *cluster sampling*: a handful of evenly spaced blocks
  are read and their keys pooled, costing ``O(k)`` I/Os per level instead
  of a full pass.
* Every distinct pivot value gets a dedicated *equality bucket*.  An
  equality bucket needs no further sorting, which both guarantees
  termination under heavy key skew (any sampled key strictly shrinks the
  other buckets) and keeps the sort stable.
* The recursion is an explicit in-order worklist, so bucket depth is
  bounded by disk, not the Python stack.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.sanitizer import io_bound
from ..core.bounds import sort_io
from ..core.exceptions import ConfigurationError
from ..core.machine import Machine
from ..core.records import BlockBuilder, key_column, np, sort_payload, take
from ..core.stream import FileStream
from .runs import identity


def _sample_pivots(
    machine: Machine,
    stream: FileStream,
    key: Callable[[Any], Any],
    fan_out: int,
    oversample: int,
) -> List[Any]:
    """Choose up to ``fan_out`` distinct pivot keys by reading
    ``oversample`` evenly spaced blocks of ``stream``."""
    num_blocks = stream.num_blocks
    # One frame is held by the sorter's open output stream.
    probes = min(num_blocks, max(1, oversample), machine.m - 2)
    step = max(1, num_blocks // probes)
    probe_indices = list(range(0, num_blocks, step))[:probes]
    keys: List[Any] = []
    with machine.trace("pivot-sample"), \
            machine.budget.reserve(len(probe_indices) * machine.B):
        for index in probe_indices:
            keys.extend(key(record) for record in stream.read_block(index))
    keys.sort()  # em: ok(EM004) pivot sample of ≤ (m-2)·B keys, reserved
    distinct: List[Any] = []
    for k in keys:
        if not distinct or distinct[-1] != k:
            distinct.append(k)
    if len(distinct) <= fan_out:
        return distinct
    # Evenly spaced quantiles of the distinct sampled keys.
    step = len(distinct) / (fan_out + 1)
    pivots = []
    for i in range(1, fan_out + 1):
        candidate = distinct[min(len(distinct) - 1, int(i * step))]
        if not pivots or pivots[-1] != candidate:
            pivots.append(candidate)
    return pivots


def _scatter_block(
    payload: Sequence[Any],
    key: Callable[[Any], Any],
    pivots: List[Any],
    builders: List[BlockBuilder],
) -> None:
    """Route one block's records to their bucket builders, preserving
    input order within each bucket (stability).

    Slot ``2i`` holds keys strictly between pivot ``i-1`` and pivot
    ``i``; slot ``2i+1`` is pivot ``i``'s equality bucket.  On a typed
    payload with a vectorizable key the whole block is routed by one
    ``searchsorted`` plus one stable argsort of the slot numbers, and
    records move to their builders as contiguous slices.
    """
    column = key_column(payload, key)
    if column is not None and pivots:
        pivot_arr = np.asarray(pivots)
        positions = np.searchsorted(pivot_arr, column, side="left")
        hit = positions < len(pivots)
        equal = np.zeros(len(column), dtype=bool)
        if hit.any():
            equal[hit] = pivot_arr[positions[hit]] == column[hit]
        slots = 2 * positions + equal
        order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order]
        permuted = payload[order]
        cuts = np.flatnonzero(np.diff(sorted_slots)) + 1
        start = 0
        for stop in list(cuts) + [len(sorted_slots)]:
            builders[int(sorted_slots[start])].push(
                permuted, start, stop
            )
            start = stop
        return
    groups: Dict[int, List[int]] = {}
    for position, record in enumerate(payload):
        record_key = key(record)
        index = bisect_left(pivots, record_key)
        if index < len(pivots) and pivots[index] == record_key:
            slot = 2 * index + 1
        else:
            slot = 2 * index
        groups.setdefault(slot, []).append(position)
    for slot, positions_list in groups.items():
        builders[slot].push(take(payload, positions_list))


def _partition(
    machine: Machine,
    stream: FileStream,
    key: Callable[[Any], Any],
    pivots: List[Any],
    stream_cls,
) -> List[Tuple[FileStream, bool]]:
    """Split ``stream`` into ``2·len(pivots) + 1`` buckets.

    Bucket ``2i`` holds keys strictly between pivot ``i-1`` and pivot
    ``i``; bucket ``2i+1`` is the equality bucket of pivot ``i``.  Returns
    ``(bucket, is_equality)`` pairs in key order, dropping empty buckets.

    The model's memory bound is enforced up front: every bucket reserves
    its output frame(s) for the whole pass (the seed acquired them
    lazily per non-empty bucket; the fan-out cap already budgets for all
    of them).
    """
    buckets = [
        stream_cls(machine, name=f"bucket/{j}")
        for j in range(2 * len(pivots) + 1)
    ]
    try:
        for bucket in buckets:
            bucket.reserve_writer()
        builders = [
            BlockBuilder(machine.B, bucket.append_block)
            for bucket in buckets
        ]
        with machine.trace("partition"):
            for payload in stream.iter_blocks():
                _scatter_block(payload, key, pivots, builders)
            result = []
            for j, bucket in enumerate(buckets):
                builders[j].flush()
                bucket.finalize()
                if len(bucket) == 0:
                    bucket.delete()
                else:
                    result.append((bucket, j % 2 == 1))
        return result
    except BaseException:
        # A fault mid-partition must not leak bucket blocks or their
        # writer reservations; the caller retries from ``stream``.
        for bucket in buckets:
            bucket.delete()
        raise


# Each level pays a read pass AND a write pass over its buckets, so the
# theory charges 2·Sort(N); the envelope factor halves to compensate.
@io_bound(lambda machine, n: 2 * sort_io(n, machine.M, machine.B,
                                         machine.D),
          factor=3.0)
def distribution_sort(
    machine: Machine,
    stream: FileStream,
    key: Optional[Callable[[Any], Any]] = None,
    fan_out: Optional[int] = None,
    oversample: int = 4,
    stream_cls=FileStream,
) -> FileStream:
    """Sort ``stream`` by ``key`` using external distribution sort.

    Args:
        machine: the external-memory machine to charge I/O to.
        key: key function; default sorts records directly.
        fan_out: number of pivots per level.  The default is the memory
            maximum ``(m - 2) // 2`` (each pivot needs a range bucket and
            an equality bucket, each holding one output frame, plus an
            input frame).
        oversample: blocks probed per level for pivot sampling.
        stream_cls: stream class for intermediates and output.

    Returns a finalized sorted stream.  The sort is stable.
    """
    key = key or identity
    if machine.m < 6:
        raise ConfigurationError(
            "distribution sort needs at least 6 memory blocks (input frame, "
            "final-output frame, and frames for one pivot's three buckets); "
            f"machine has m={machine.m}"
        )
    # Frames: 1 input reader + 1 final output + (2k+1) bucket writers <= m.
    max_fan_out = max(1, (machine.m - 3) // 2)
    k = fan_out if fan_out is not None else max_fan_out
    if k < 1:
        raise ConfigurationError(f"fan-out must be >= 1, got {k}")

    output = stream_cls(machine, name="sorted")
    # In-memory threshold: leave one frame for the input reader and one for
    # the output buffer.
    threshold = machine.M - 2 * machine.B

    # Explicit worklist, processed in key order.  Entries are
    # (stream, is_equality, owned): equality buckets are emitted verbatim;
    # owned intermediates are deleted after use.
    worklist: List[Tuple[FileStream, bool, bool]] = [(stream, False, False)]
    try:
        # The output frame is held for the whole sort (the seed's
        # buffered writer acquired it lazily and kept it); the builder
        # re-blocks bucket segments into exactly-B appends with the
        # same cadence.
        output.reserve_writer()
        out_builder = BlockBuilder(machine.B, output.append_block)
        while worklist:
            current, is_equality, owned = worklist.pop(0)
            if is_equality:
                # Equality buckets are all one key (already "sorted"):
                # re-block them into the output without touching records.
                with machine.trace("bucket-output"):
                    for payload in current.iter_blocks():
                        out_builder.push(payload)
            elif len(current) <= threshold:
                with machine.trace("bucket-output"), \
                        machine.budget.reserve(len(current)):
                    chunk = current.read_block_range(
                        0, current.num_blocks
                    )
                    out_builder.push(sort_payload(chunk, key))
            else:
                pivots = _sample_pivots(
                    machine, current, key, k, oversample
                )
                parts = _partition(
                    machine, current, key, pivots, stream_cls
                )
                worklist[0:0] = [
                    (bucket, equality, True) for bucket, equality in parts
                ]
            if owned:
                current.delete()
        out_builder.flush()
        return output.finalize()
    except BaseException:
        # A fault mid-sort must not leak the half-written output (or
        # its writer reservation) nor the owned bucket intermediates
        # still queued; recovery re-runs the sort from ``stream``.
        output.delete()
        for pending, _, pending_owned in worklist:
            if pending_owned:
                pending.delete()
        raise
