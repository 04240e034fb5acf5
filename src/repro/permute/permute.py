"""Permuting: the survey's sharpest separation result.

Rearranging ``N`` records into a given order looks trivial in RAM (``N``
moves) but costs ``Θ(min(N, Sort(N)))`` I/Os in external memory: moving
each record to its target block individually pays up to one I/O per
record, while routing records with a sort pays the full sorting bound —
and *neither* can be beaten.  For realistic ``B`` the sort branch wins,
which is why "just permute it" is as expensive as sorting on disk.

Three entry points:

* :func:`permute_naive` — one read-modify-write per record against the
  target block file, with a one-frame write cache for lucky locality.
* :func:`permute_by_sort` — tag each record with its target index and
  route it through a pipelined sort by that index.
* :func:`permute` — the optimal dispatcher choosing the cheaper branch
  from the closed-form bounds.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, List, Optional, Sequence

from ..analysis.sanitizer import io_bound
from ..core.blockfile import BlockFile
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError
from ..core.machine import Machine
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter, _primed


#: bits of permutation-validation bitmap charged as one budget record
#: (a record is at least one machine word)
_BITS_PER_RECORD = 64

_target = itemgetter(0)


def _check_lengths(stream: FileStream, targets: Sequence[int]) -> None:
    """Validate that ``targets`` is a permutation of ``0..N-1`` with
    budget-charged working space instead of O(N) in-RAM copies.

    Instead of materializing ``sorted(targets)`` plus ``list(range(N))``,
    a seen-bitmap (one budget record per 64 bits) marks each target; a
    bitmap that does not fit the available budget is windowed over the
    value range, re-scanning the in-memory ``targets`` vector once per
    window.  No I/O is performed; working memory is whatever the budget
    can spare, down to a single record.
    """
    n = len(stream)
    if n != len(targets):
        raise ConfigurationError(
            f"permutation length {len(targets)} does not match stream "
            f"length {len(stream)}"
        )
    if n == 0:
        return
    machine = stream.machine
    bitmap_records = (n + _BITS_PER_RECORD - 1) // _BITS_PER_RECORD
    reserve = max(1, min(bitmap_records, machine.budget.available))
    with machine.budget.reserve(reserve):
        window_bits = reserve * _BITS_PER_RECORD
        for base in range(0, n, window_bits):
            high = min(base + window_bits, n)
            seen = bytearray((high - base + 7) // 8)
            for target in targets:
                if base == 0 and not 0 <= target < n:
                    raise ConfigurationError(
                        "targets must be a permutation of 0..N-1; "
                        f"{target} is out of range"
                    )
                if not base <= target < high:
                    continue
                offset = target - base
                mask = 1 << (offset & 7)
                if seen[offset >> 3] & mask:
                    raise ConfigurationError(
                        "targets must be a permutation of 0..N-1; "
                        f"{target} appears more than once"
                    )
                seen[offset >> 3] |= mask


def _naive_theory(machine: Machine, n: int) -> int:
    """2 I/Os per record plus the input scan and the output copy."""
    return 2 * n + 4 * scan_io(n, machine.B, machine.D)


def _by_sort_theory(machine: Machine, n: int) -> int:
    """One sort of the tagged records plus the tag scan and the strip
    write."""
    return (sort_io(n, machine.M, machine.B, machine.D)
            + 4 * scan_io(n, machine.B, machine.D))


@io_bound(_naive_theory, factor=2.0)
def permute_naive(
    machine: Machine,
    stream: FileStream,
    targets: Sequence[int],
    validate: bool = True,
) -> FileStream:
    """Place record ``i`` of ``stream`` at position ``targets[i]`` by
    read-modify-writing target blocks: up to 2 I/Os per record.

    A single cached output frame coalesces consecutive writes to the same
    block, so an identity-like permutation degrades gracefully to a scan.
    ``targets`` is the in-memory permutation vector (the survey treats the
    permutation as given; its transfer cost is identical for both
    strategies and is left out on both sides).
    """
    if validate:
        _check_lengths(stream, targets)
    n = len(stream)
    B = machine.block_size
    num_blocks = (n + B - 1) // B
    sizes = [min(B, n - index * B) for index in range(num_blocks)]

    # The block file's staging frame doubles as the cached output frame.
    with machine.trace("permute-naive"), \
            BlockFile(machine, num_blocks, name="permute/out") as output:
        cached_index: Optional[int] = None
        cached_frame: List[Any] = []

        def load(index: int) -> None:
            nonlocal cached_index, cached_frame
            if cached_index == index:
                return
            if cached_index is not None:
                output.write_block(cached_index, cached_frame)
            frame = output.read_block(index)
            frame.extend([None] * (sizes[index] - len(frame)))
            cached_index, cached_frame = index, frame

        for position, record in enumerate(stream):
            target = targets[position]
            load(target // B)
            cached_frame[target % B] = record
        if cached_index is not None:
            output.write_block(cached_index, cached_frame)

        result = FileStream(machine, name="permuted")
        for index in range(num_blocks):
            result.append_block(output.read_block(index))
        output.delete()
    return result.finalize()


@io_bound(_by_sort_theory, factor=3.0)
def permute_by_sort(
    machine: Machine,
    stream: FileStream,
    targets: Sequence[int],
    validate: bool = True,
) -> FileStream:
    """Route records to their targets with a pipelined sort:
    ``O(Sort(N))`` I/Os regardless of the permutation's shape.

    The ``(target, record)`` tags are pushed straight into a
    :class:`~repro.pipeline.sorter.Sorter` and stripped as the merge is
    pulled into the output: one input scan, the sort's runs written and
    read back (nothing when ``N`` fits one memoryload), one output
    write."""
    if validate:
        _check_lengths(stream, targets)
    with Sorter(machine, key=_target, name="permute/tagged") as ordered:
        with machine.trace("tag"):
            ordered.consume(zip(targets, stream))
        with machine.trace("strip"):
            return FileStream.from_records(
                machine, _primed(record for _, record in ordered),
                name="permuted")


@io_bound(lambda machine, n: min(_naive_theory(machine, n),
                                 _by_sort_theory(machine, n)),
          factor=3.0)
def permute(
    machine: Machine,
    stream: FileStream,
    targets: Sequence[int],
) -> FileStream:
    """Permute optimally: ``Θ(min(N, Sort(N)))`` I/Os.

    Chooses :func:`permute_naive` when ``2N`` (its worst case) beats the
    sorting bound — tiny blocks — and :func:`permute_by_sort` otherwise.
    """
    _check_lengths(stream, targets)
    n = len(stream)
    naive_cost = 2 * n
    # Tag scan + the Sorter's runs + strip write: the materialized
    # sort's passes, less its input read and output write.
    sort_cost = sort_io(n, machine.M, machine.B)
    if naive_cost <= sort_cost:
        return permute_naive(machine, stream, targets, validate=False)
    return permute_by_sort(machine, stream, targets, validate=False)


# em: ok(EM003) pure in-RAM permutation generator: builds the target
# vector the model treats as given; performs no I/O
def bit_reversal_permutation(n_bits: int) -> List[int]:
    """The FFT's bit-reversal permutation on ``2**n_bits`` positions —
    the survey's canonical *hard* permutation (no locality at any block
    granularity)."""
    n = 1 << n_bits
    targets = []
    for i in range(n):
        reversed_bits = 0
        x = i
        for _ in range(n_bits):
            reversed_bits = (reversed_bits << 1) | (x & 1)
            x >>= 1
        targets.append(reversed_bits)
    return targets
