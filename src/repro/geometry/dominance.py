"""Batched 2-D dominance counting by distribution sweeping.

The second classic instance of the survey's distribution-sweeping
template: given data points and query points, report for every query
``(qx, qy)`` how many data points ``(px, py)`` it dominates
(``px <= qx`` and ``py <= qy``).

Sweep bottom-up in ``y`` over the externally sorted event sequence with
the x-axis divided into ``Θ(m)`` strips.  Every strip keeps one running
counter of the data points it has absorbed; a query adds up the counters
of the strips *entirely to its left* (its answer so far) and descends,
with that partial count attached, into the strip containing its own x —
where the recursion (or an in-memory sweep at the base) resolves the
remainder.  Total cost ``O(Sort(N))`` I/Os, versus the naive
``ceil(Q/M)·scan(P)`` all-pairs baseline.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Sequence, Tuple

from ..analysis.sanitizer import io_bound
from ..core.bounds import merge_passes, scan_io, sort_io
from ..core.exceptions import ConfigurationError, MemoryLimitExceeded
from ..core.machine import Machine
from ..core.stream import FileStream
from ..sort.merge import external_merge_sort

Point = Tuple[int, int]

_POINT = 0   # processed before queries at equal y: dominance is closed
_QUERY = 1


def _dominance_theory(machine: Machine, n: int) -> float:
    """``O(Sort(N))``: one sort-and-scan round per distribution level."""
    if n <= 0:
        return 0.0
    levels = max(1, merge_passes(n, machine.M, machine.B))
    return levels * (sort_io(n, machine.M, machine.B, machine.D)
                     + 3 * scan_io(n, machine.B, machine.D))


# em: ok(EM201) the degenerate-split fallback (_sweep_on_disk) is
# O(N²/B) by design, reached only when sampling finds ≤ 1 distinct x
@io_bound(_dominance_theory, factor=4.0,
          n=lambda machine, points, queries: len(points) + len(queries))
def dominance_counts(
    machine: Machine,
    points: Sequence[Point],
    queries: Sequence[Point],
) -> Dict[int, int]:
    """Return ``{query_index: number of dominated points}``.

    Cost ``O(Sort(P + Q))`` I/Os.
    """
    if machine.m < 8:
        raise ConfigurationError(
            "dominance counting needs at least 8 memory blocks; "
            f"machine has m={machine.m}"
        )
    events = FileStream(machine, name="dom/events")
    for x, y in points:
        events.append((y, _POINT, x, -1, 0))
    for index, (x, y) in enumerate(queries):
        events.append((y, _QUERY, x, index, 0))
    events.finalize()
    ordered = external_merge_sort(
        machine, events, key=lambda e: (e[0], e[1]), keep_input=False
    )
    results: Dict[int, int] = {index: 0 for index in range(len(queries))}
    _sweep(machine, ordered, results)
    ordered.delete()
    return results


def _sweep(machine: Machine, events: FileStream,
           results: Dict[int, int]) -> None:
    base_capacity = machine.M - 2 * machine.B
    if len(events) <= base_capacity:
        _sweep_in_memory(machine, events, results)
        return

    fan_out = max(2, machine.m - 3)
    pivots = _sample_point_pivots(machine, events, fan_out)
    if not pivots:
        _sweep_on_disk(machine, events, results)
        return

    strips = len(pivots) + 1
    routed = [FileStream(machine, name=f"dom/routed/{i}")
              for i in range(strips)]
    absorbed = [0] * strips  # data points seen per strip so far

    def strip_of(x: int) -> int:
        return bisect_left(pivots, x)

    for y, kind, x, index, partial in events:
        strip = strip_of(x)
        if kind == _POINT:
            absorbed[strip] += 1
            routed[strip].append((y, kind, x, index, 0))
        else:
            partial += sum(absorbed[:strip])
            routed[strip].append((y, kind, x, index, partial))
    for stream in routed:
        stream.finalize()
    for sub_events in routed:
        if len(sub_events) > 0:
            if len(sub_events) == len(events):
                # Degenerate split (sample missed the x diversity).
                _sweep_on_disk(machine, sub_events, results)
            else:
                _sweep(machine, sub_events, results)
        sub_events.delete()


def _sample_point_pivots(machine: Machine, events: FileStream,
                         fan_out: int) -> List[int]:
    probes = min(events.num_blocks, max(1, machine.m - 2))
    step = max(1, events.num_blocks // probes)
    xs: List[int] = []
    with machine.budget.reserve(probes * machine.B):
        for block_index in list(range(0, events.num_blocks, step))[:probes]:
            for y, kind, x, index, partial in events.read_block(block_index):
                xs.append(x)
    # em: ok(EM004) ≤ probes·B sampled pivot keys, probed under reserve
    xs = sorted(set(xs))
    if len(xs) <= 1:
        return []
    if len(xs) <= fan_out:
        return xs[:-1]
    stride = len(xs) / (fan_out + 1)
    pivots: List[int] = []
    for i in range(1, fan_out + 1):
        candidate = xs[min(len(xs) - 1, int(i * stride))]
        if not pivots or pivots[-1] != candidate:
            pivots.append(candidate)
    return pivots


def _sweep_in_memory(machine: Machine, events: FileStream,
                     results: Dict[int, int]) -> None:
    """Base case: in-memory sweep with a sorted x list."""
    if len(events) > machine.M:
        raise MemoryLimitExceeded(
            len(events), machine.budget.in_use, machine.M)
    with machine.budget.reserve(len(events)):
        seen_x: List[int] = []
        for y, kind, x, index, partial in events:
            if kind == _POINT:
                position = bisect_left(seen_x, x)
                seen_x.insert(position, x)
            else:
                results[index] += partial + bisect_right(seen_x, x)


def _sweep_on_disk(machine: Machine, events: FileStream,
                   results: Dict[int, int]) -> None:
    """General fallback for degenerate splits: keep the absorbed points
    on disk and scan them per query.  Correct for any input; only used
    when pivot sampling cannot make progress."""
    seen = FileStream(machine, name="dom/fallback-seen")
    for y, kind, x, index, partial in events:
        if kind == _POINT:
            seen.append(x)
        else:
            seen.sync()
            count = partial
            for block_index in range(seen.num_blocks):
                for px in seen.read_block(block_index):
                    if px <= x:
                        count += 1
            results[index] += count
    seen.sync()
    seen.finalize()
    seen.delete()


def dominance_counts_naive(
    machine: Machine,
    points: Sequence[Point],
    queries: Sequence[Point],
) -> Dict[int, int]:
    """All-pairs baseline: load queries a memoryload at a time and scan
    the points once per load."""
    point_stream = FileStream.from_records(machine, list(points),
                                           name="dom/points")
    chunk_capacity = machine.M - 2 * machine.B
    if chunk_capacity < 1:
        raise ConfigurationError("machine memory too small")
    results: Dict[int, int] = {}
    for start in range(0, len(queries), chunk_capacity):
        chunk = list(enumerate(queries))[start:start + chunk_capacity]
        with machine.budget.reserve(len(chunk)):
            for index, _ in chunk:
                results[index] = 0
            # em: ok(EM102) the all-pairs baseline rescans the points
            # once per memoryload of queries, by design
            for px, py in point_stream:
                for index, (qx, qy) in chunk:
                    if px <= qx and py <= qy:
                        results[index] += 1
    point_stream.delete()
    return results
