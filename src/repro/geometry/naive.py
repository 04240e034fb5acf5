"""Naive all-pairs segment intersection baseline.

Loads the horizontal segments a memoryload at a time and scans the
vertical segments once per load, testing every pair — the block
nested-loop pattern, ``scan(H) + ceil(|H|/M)·scan(V)`` I/Os but
``Θ(|H|·|V|)`` comparisons.  This is what the distribution sweep's
``O(Sort(N) + Z/B)`` replaces.
"""

from __future__ import annotations

from typing import Iterable, List

from ..analysis.sanitizer import io_bound, sized
from ..core.bounds import scan_io
from ..core.exceptions import ConfigurationError
from ..core.machine import Machine
from ..core.stream import FileStream
from .sweep import Horizontal, Vertical


def _naive_theory(machine: Machine, n: int, result: FileStream,
                  call: dict) -> float:
    """``2·scan(H) + (1 + ceil(|H|/M'))·scan(V) + scan(Z)``: spooling
    both inputs, then the block nested loop, then the output.  Unsized
    iterable inputs have no static bound (the envelope is skipped)."""
    h = sized(call["horizontals"])
    v = sized(call["verticals"])
    if h < 0 or v < 0:
        return float("inf")
    loads = max(1, -(-h // max(1, machine.M - 3 * machine.B)))
    return (2 * scan_io(h, machine.B, machine.D)
            + (1 + loads) * scan_io(v, machine.B, machine.D)
            + scan_io(len(result), machine.B, machine.D))


@io_bound(_naive_theory, factor=2.0,
          n=lambda machine, horizontals, verticals: max(
              0, sized(horizontals)) + max(0, sized(verticals)))
def segment_intersections_naive(
    machine: Machine,
    horizontals: Iterable[Horizontal],
    verticals: Iterable[Vertical],
) -> FileStream:
    """Report every (horizontal, vertical) intersecting pair by blockwise
    all-pairs testing.

    Both inputs may be arbitrary iterables: they are spooled straight to
    disk through stream writers (one buffered frame each, charged to the
    budget), never materialized in RAM.  Costs ``scan(H) +
    ceil(|H|/M)·scan(V) + Z/B`` I/Os and ``Θ(|H|·|V|)`` comparisons.
    """
    h_stream = FileStream.from_records(machine, horizontals,
                                       name="naive/h")
    v_stream = FileStream.from_records(machine, verticals,
                                       name="naive/v")
    chunk_capacity = machine.M - 3 * machine.B
    if chunk_capacity < 1:
        raise ConfigurationError(
            "machine memory too small for the naive intersection baseline"
        )
    output = FileStream(machine, name="naive/output")
    reader = iter(h_stream)
    exhausted = False
    while not exhausted:
        with machine.budget.reserve(chunk_capacity):
            chunk: List[Horizontal] = []
            for horizontal in reader:
                chunk.append(horizontal)
                if len(chunk) == chunk_capacity:
                    break
            else:
                exhausted = True
            if not chunk:
                break
            # em: ok(EM102) the ceil(|H|/M) rescans of V ARE the block
            # nested loop baseline; its declared bound charges them
            for vertical in v_stream:
                x, y1, y2 = vertical
                for horizontal in chunk:
                    y, x1, x2 = horizontal
                    if x1 <= x <= x2 and y1 <= y <= y2:
                        output.append((horizontal, vertical))
    h_stream.delete()
    v_stream.delete()
    return output.finalize()
