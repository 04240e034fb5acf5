"""External suffix-array construction by prefix doubling.

Text indexing is one of the survey's two motivating applications
(suffix trees over corpora far larger than memory).  The index
construction itself is a batched problem: Manber–Myers prefix doubling
reduces suffix sorting to ``O(log N)`` rounds of sorting fixed-size
tuples, so the whole build runs in ``O(Sort(N) · log N)`` I/Os with
nothing but the library's external sorts and merge joins — no random
access to the text at all.

Round ``k`` knows, for every position, the rank of its length-``k``
prefix; joining each position ``i`` with position ``i + k`` (a shifted
merge join) yields rank pairs whose sorted order is the order of
length-``2k`` prefixes.  Rounds end when all ranks are distinct.

:func:`suffix_array` accepts any string (or sequence of comparable
symbols); :func:`suffix_array_naive` is the quadratic in-memory
reference used by the tests.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterator, List, Sequence, Tuple

from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io, sort_io
from ..core.machine import Machine
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter, _primed

_MISSING = -1  # rank of the empty suffix beyond the text end
_first = itemgetter(0)


def _sa_theory(machine: Machine, n: int) -> float:
    """``O(Sort(N))`` per doubling round, ``ceil(log2 N)`` rounds."""
    if n <= 1:
        return 0.0
    rounds = max(1, n.bit_length())
    return rounds * (3 * sort_io(n, machine.M, machine.B, machine.D)
                     + 6 * scan_io(n, machine.B, machine.D))


@io_bound(_sa_theory, factor=4.0)
def suffix_array(machine: Machine, text: Sequence[Any]) -> List[int]:
    """Return the suffix array of ``text``: starting positions of all
    suffixes in lexicographic order.

    Cost: ``O(Sort(N))`` per doubling round, ``ceil(log2 N)`` rounds
    worst case (fewer when ranks separate early).  The result (N
    integers) is returned in memory; the working data stays on streams.
    """
    n = len(text)
    if n == 0:
        return []
    if n == 1:
        return [0]

    # Round 0: rank positions by their first symbol, as a doubling
    # round ranks them by their rank pair.  A failed round frees its own
    # streams; the ranks in hand are freed on the way out.
    with Sorter(machine, key=_first, name="sa/singles") as by_symbol:
        by_symbol.consume(
            (symbol, position) for position, symbol in enumerate(text))
        ranks, distinct = _ranked(machine, by_symbol.finish())
    try:
        k = 1
        while distinct < n and k < 2 * n:
            ranks, distinct = _double(machine, ranks, n, k)
            k *= 2

        # ranks is sorted by position; the suffix array inverts it.
        result: List[int] = [0] * n
        # The N-integer suffix array is the declared in-RAM result (see
        # docstring); the working data stays on streams.
        for position, rank in ranks:
            result[rank] = position
        return result
    finally:
        ranks.delete()


def _double(machine: Machine, ranks: FileStream, n: int, k: int):
    """One prefix-doubling round.

    ``ranks`` holds ``(position, rank_k)`` sorted by position; returns
    ``(new_ranks, distinct_count)`` with ranks of length-``2k`` prefixes,
    again sorted by position.
    """
    # Both of the round's sorts are pipelined: the (rank-pair,
    # position) tuples and the new ranks are pushed straight into run
    # formation and pulled straight out of the final merge, so neither
    # ever exists as a stream on disk.  The shifted copy needs no sort
    # at all — ``(position - k, rank)`` comes out of a second reader
    # over ``ranks`` already in position order — so the round's only
    # materialized stream is the returned by-position ranks, and no
    # temporary outlives the round.
    with Sorter(machine, key=_first, name="sa/pairs") as by_pair:
        # Merge the position scan against the shifted scan to pair each
        # position's rank with the rank at distance k.
        shift_iter = iter(ranks)
        position_iter = iter(ranks)
        try:
            shifted = ((p - k, r) for p, r in shift_iter if p - k >= 0)
            shift_entry = next(shifted, None)
            for position, rank in position_iter:
                while shift_entry is not None \
                        and shift_entry[0] < position:
                    shift_entry = next(shifted, None)
                if shift_entry is not None \
                        and shift_entry[0] == position:
                    second = shift_entry[1]
                else:
                    second = _MISSING
                by_pair.push(((rank, second), position))
        finally:
            shift_iter.close()
            position_iter.close()
        ranks.delete()
        return _ranked(machine, by_pair.finish())


def _ranked(machine: Machine, ordered: Iterator[Tuple[Any, int]]
            ) -> Tuple[FileStream, int]:
    """Rank the key-sorted ``(key, position)`` records of ``ordered``
    densely by key and write ``(position, rank)`` in position order,
    through a second Sorter; also returns the number of distinct keys."""
    previous = object()
    rank = -1
    with Sorter(machine, key=_first, name="sa/by-position") as by_position:
        for key, position in ordered:
            if key != previous:
                rank += 1
                previous = key
            by_position.push((position, rank))
        ranks = FileStream.from_records(
            machine, _primed(by_position), name="sa/ranks")
    return ranks, rank + 1


# em: ok(EM003) in-memory reference oracle for tests, outside the model
def suffix_array_naive(text: Sequence[Any]) -> List[int]:
    """Quadratic in-memory reference: sort positions by suffix."""
    # em: ok(EM004) in-memory reference oracle for tests
    return sorted(range(len(text)), key=lambda i: tuple(text[i:]))


# em: ok(EM003) in-memory query helper over a built index, no machine
def search_suffix_array(
    text: Sequence[Any],
    sa: List[int],
    pattern: Sequence[Any],
) -> List[int]:
    """All occurrences of ``pattern`` in ``text`` via binary search on
    the suffix array (the classic ``O(|p|·log N + occ)`` query).

    In-memory helper for working with a built index; returns sorted
    starting positions.
    """
    if len(pattern) == 0:
        return list(range(len(text)))

    def suffix_starts_with(position: int) -> int:
        """-1 if suffix < pattern, 0 if prefix-match, 1 if greater."""
        chunk = tuple(text[position:position + len(pattern)])
        target = tuple(pattern)
        if chunk == target:
            return 0
        return -1 if chunk < target else 1

    # Lower bound.
    low, high = 0, len(sa)
    while low < high:
        mid = (low + high) // 2
        if suffix_starts_with(sa[mid]) < 0:
            low = mid + 1
        else:
            high = mid
    first = low
    # Upper bound.
    low, high = first, len(sa)
    while low < high:
        mid = (low + high) // 2
        if suffix_starts_with(sa[mid]) == 0:
            low = mid + 1
        else:
            high = mid
    return sorted(sa[first:low])  # em: ok(EM004) occ result positions
