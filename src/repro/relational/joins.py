"""Equi-join algorithms: sort-merge, Grace hash, block nested loop.

The three classical disk join strategies, each with the cost profile
database textbooks derive from the I/O model:

* :func:`sort_merge_join` — ``Sort(R) + Sort(S) + scan`` I/Os; the output
  order is by join key.
* :func:`grace_hash_join` — ``~3·(scan(R) + scan(S))`` I/Os (partition
  write + partition read + probe) as long as each build partition fits in
  memory; recursive re-partitioning otherwise.
* :func:`block_nested_loop_join` — ``scan(R) + ceil(|R|/M)·scan(S)``,
  quadratic once the build side exceeds memory; wins only for tiny build
  sides, which is the crossover the joins experiment shows.
"""

from __future__ import annotations

from contextlib import closing
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Tuple

from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError, EMError
from ..core.machine import Machine
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter
from ..search.hashing import _hash_bits
from .table import Table

_MAX_HASH_RECURSION = 8


def _join_n(left: Table, right: Table, left_column: str,
            right_column: str, name: str = "", **kwargs) -> int:
    return len(left.stream) + len(right.stream)


def _smj_theory(machine: Machine, n: int, result: Table,
                call: dict) -> int:
    """``Sort(R) + Sort(S)`` — charged per side — plus the merge and
    output scans.

    The envelope used to charge ``2·Sort(|R| + |S|)``: both sides
    billed at the *combined* size, a double charge (``Sort`` is
    superlinear, so ``Sort(R) + Sort(S) < 2·Sort(R + S)``).
    """
    left_n = len(call["left"].stream)
    right_n = len(call["right"].stream)
    return (scan_io(len(result.stream), machine.B, machine.D)
            + scan_io(left_n, machine.B, machine.D)
            + scan_io(right_n, machine.B, machine.D)
            + sort_io(left_n, machine.M, machine.B, machine.D)
            + sort_io(right_n, machine.M, machine.B, machine.D))


def _ghj_theory(machine: Machine, n: int, result: Table) -> int:
    """``~3·(scan(R) + scan(S))`` — partition write, partition read,
    probe — plus the output scan; recursion multiplies the constant."""
    return (3 * scan_io(n, machine.B, machine.D) + 2 * machine.m
            + scan_io(len(result.stream), machine.B, machine.D))


def _bnl_theory(machine: Machine, n: int, result: Table,
                call: dict) -> int:
    """``scan(R) + ceil(|R|/M')·scan(S) + output``."""
    left_n = len(call["left"].stream)
    right_n = len(call["right"].stream)
    loads = max(1, -(-left_n // max(1, machine.M - 3 * machine.B)))
    return (scan_io(left_n, machine.B, machine.D)
            + loads * scan_io(right_n, machine.B, machine.D)
            + scan_io(len(result.stream), machine.B, machine.D))


def _joined_columns(left: Table, right: Table) -> List[str]:
    """Concatenate column names, renaming right-side clashes."""
    columns = list(left.columns)
    for col in right.columns:
        columns.append(col if col not in columns else f"{col}_r")
    return columns


def merge_join_iterators(
    machine: Machine,
    left_rows: Iterator[Tuple],
    right_rows: Iterator[Tuple],
    left_key: Callable[[Tuple], Any],
    right_key: Callable[[Tuple], Any],
) -> Iterator[Tuple[Tuple, Tuple]]:
    """Merge-join two iterators already sorted by their keys.

    Handles many-to-many matches by buffering the current right-side key
    group in memory (reserved from the budget), the standard assumption
    that no single join-key group exceeds ``M``.
    """
    budget = machine.budget
    left_iter = iter(left_rows)
    right_iter = iter(right_rows)
    left_row = next(left_iter, None)
    right_row = next(right_iter, None)
    while left_row is not None and right_row is not None:
        lk = left_key(left_row)
        rk = right_key(right_row)
        if lk < rk:
            left_row = next(left_iter, None)
        elif lk > rk:
            right_row = next(right_iter, None)
        else:
            # Buffer the right group for this key.  Everything after
            # the first acquire runs under try/finally so a key
            # callable (or the consumer) raising mid-group cannot leak
            # the buffered records' budget; acquire-before-append keeps
            # len(group) equal to the acquired count at all times.
            group = [right_row]
            budget.acquire(1)
            try:
                right_row = next(right_iter, None)
                while right_row is not None \
                        and right_key(right_row) == lk:
                    budget.acquire(1)
                    group.append(right_row)
                    right_row = next(right_iter, None)
                while left_row is not None and left_key(left_row) == lk:
                    for match in group:
                        yield left_row, match
                    left_row = next(left_iter, None)
            finally:
                budget.release(len(group))


@io_bound(_smj_theory, factor=3.0, n=_join_n)
def sort_merge_join(
    left: Table,
    right: Table,
    left_column: str,
    right_column: str,
    name: str = "smj",
) -> Table:
    """Pipelined sort-merge join: ``Sort(R) + Sort(S) + scan`` I/Os,
    minus the fused boundaries.  Output is ordered by join key.

    Both sides are pushed into one
    :class:`~repro.pipeline.sorter.Sorter` as ``(key, side, row)``
    records, the right side first on a tie, so its one pull is the
    merge of both sorted orders and neither is ever written
    (``~2·(N/DB)`` I/Os saved per side over
    :func:`~repro.relational.steps.sort_merge_join_materialized`).
    The pulled segments are paired by :func:`_join_tagged`.

    The pull is planned beside the key-group share — half of memory
    plus four frames, never more than leaves three frames to the sort —
    so it leaves that share free for the merge-down before the first
    record and for the buffered key groups after it.  No key group
    larger than the share can be guaranteed to fit.
    """
    machine = left.machine
    share = min(machine.M // 2 + 4 * machine.B, machine.M - 3 * machine.B)
    with machine.trace(name), \
            Sorter(machine, key=_by_key_and_side, name=name) as sorter:
        for rows, tag in _tagged_sides(left, right, left_column,
                                       right_column):
            with closing(iter(rows)) as reader:
                sorter.consume(map(tag, reader))
        segments = sorter.finish_segments(beside=share)
        out = FileStream(machine, name=f"table/{name}")
        pairing = _join_tagged(machine.budget, out.append)
        next(pairing)
        try:
            for segment in segments:
                pairing.send(segment)
            pairing.close()
            out.finalize()
        except BaseException:
            pairing.close()
            out.delete()
            raise
    return Table(machine, _joined_columns(left, right), out, name=name)


_by_key_and_side = itemgetter(0, 1)


def _tagged_sides(left: Table, right: Table, left_column: str,
                  right_column: str) -> List[Tuple[FileStream, Callable]]:
    """Each side's stream with its ``row -> (key, side, row)`` tagger,
    the right side (0) first: its rows sort first on a key tie."""
    def tagger(key, side):
        return lambda row: (key(row), side, row)
    return [(table.stream, tagger(table.key_fn(column), side))
            for table, column, side in ((right, right_column, 0),
                                        (left, left_column, 1))]


def _join_tagged(budget, append: Callable[[Tuple], None]):
    """Merge-join ``(key, side, row)`` records ordered by key and side,
    pushed in with ``send`` a payload segment at a time (prime it with
    ``next``): each key's right rows (side 0) come first and are held,
    one ``budget`` record each, then every left row (side 1) of that
    key is paired with them in order and ``append``-ed as ``left_row +
    right_row`` — :func:`merge_join_iterators`' output order.  A key
    group stays open across segments until the next key or ``close``."""
    group: List[Tuple] = []
    current = object()   # equal to no key
    try:
        while True:
            for key, side, row in (yield):
                if key != current:
                    budget.release(len(group))
                    group = []
                    current = key
                if side == 0:
                    budget.acquire(1)
                    group.append(row)
                else:
                    for match in group:
                        append(tuple(row) + tuple(match))
    finally:
        budget.release(len(group))


@io_bound(_bnl_theory, factor=2.0, n=_join_n)
def block_nested_loop_join(
    left: Table,
    right: Table,
    left_column: str,
    right_column: str,
    name: str = "bnl",
) -> Table:
    """Join by loading the left (build) table a memoryload at a time and
    scanning the right table once per load."""
    machine = left.machine
    left_key = left.key_fn(left_column)
    right_key = right.key_fn(right_column)
    chunk_capacity = machine.M - 3 * machine.B
    if chunk_capacity < 1:
        raise ConfigurationError(
            "machine memory too small for block nested loop join"
        )
    out = FileStream(machine, name=f"table/{name}")
    exhausted = False
    try:
        with closing(iter(left.stream)) as reader:
            while not exhausted:
                with machine.budget.reserve(chunk_capacity):
                    build: Dict[Any, List[Tuple]] = {}
                    loaded = 0
                    for row in reader:
                        build.setdefault(left_key(row), []).append(row)
                        loaded += 1
                        if loaded == chunk_capacity:
                            break
                    else:
                        exhausted = True
                    if not build:
                        break
                    # em: ok(EM102) the ceil(|R|/M) rescans of S ARE
                    # the block nested loop algorithm; its declared
                    # bound charges them
                    with closing(right.rows()) as rescan:
                        for right_row in rescan:
                            for left_row in build.get(right_key(right_row),
                                                      ()):
                                out.append(tuple(left_row)
                                           + tuple(right_row))
        out.finalize()
    except BaseException:
        out.delete()
        raise
    return Table(left.machine, _joined_columns(left, right), out, name=name)


@io_bound(lambda machine, n: 3 * scan_io(n, machine.B, machine.D)
          + 2 * machine.m,
          factor=3.0,
          n=lambda table, key_column, aggregates, name="hgrouped": len(
              table.stream))
def hash_group_by(
    table: Table,
    key_column: str,
    aggregates,
    name: str = "hgrouped",
):
    """Partitioned (Grace-style) hash aggregation.

    Hash-partitions the input so each partition's distinct groups fit in
    memory, then aggregates every partition with an in-memory dict:
    ``~2 scans`` of the input when the group count is below ``M`` per
    partition — cheaper than sort-based GROUP BY when groups are few,
    but the output is unordered.
    """
    from .operators import AGGREGATES
    from .table import Table as _Table

    machine = table.machine
    key_fn = table.key_fn(key_column)
    specs = []
    for agg_name, value_column in aggregates:
        if agg_name not in AGGREGATES:
            raise ConfigurationError(
                f"unknown aggregate {agg_name!r}; "
                # em: ok(EM004) fixed aggregate-name table, error message
                f"choose from {sorted(AGGREGATES)}"
            )
        specs.append(
            (AGGREGATES[agg_name], table.column_index(value_column),
             f"{agg_name}_{value_column}")
        )
    num_partitions = max(2, machine.m - 2)
    parts = [
        FileStream(machine, name=f"hgb/part/{i}")
        for i in range(num_partitions)
    ]
    streams = list(parts)   # every stream to delete on failure
    try:
        for row in table.rows():
            index = _hash_bits(key_fn(row)) % num_partitions
            parts[index].append(row)
        for part in parts:
            part.finalize()

        out = FileStream(machine, name=f"table/{name}")
        streams.append(out)
        state_capacity = machine.M - 2 * machine.B
        for part in parts:
            if len(part) == 0:
                part.delete()
                continue
            with machine.budget.reserve(state_capacity):
                states: Dict[Any, list] = {}
                for row in part:
                    group = key_fn(row)
                    if group not in states:
                        if len(states) >= state_capacity:
                            raise EMError(
                                "hash aggregation overflow: too many "
                                "distinct groups per partition; use "
                                "sort-based group_by instead"
                            )
                        states[group] = [spec[0].init() for spec in specs]
                    states[group] = [
                        spec[0].step(state, row[spec[1]])
                        for spec, state in zip(specs, states[group])
                    ]
                for group, group_states in states.items():
                    out.append(
                        tuple([group] + [
                            spec[0].final(state)
                            for spec, state in zip(specs, group_states)
                        ])
                    )
            part.delete()
        out.finalize()
    except BaseException:
        for stream in streams:
            stream.delete()
        raise
    columns = [key_column] + [spec[2] for spec in specs]
    return _Table(machine, columns, out, name=name)


# em: ok(EM201) the max-recursion fallback is block-nested-loop —
# O(N²/(M·B)) by design, reached only when one join key cannot split
@io_bound(_ghj_theory, factor=8.0, n=_join_n)
def grace_hash_join(
    left: Table,
    right: Table,
    left_column: str,
    right_column: str,
    name: str = "ghj",
    _depth: int = 0,
    _salt: int = 0,
) -> Table:
    """Grace hash join: hash-partition both inputs, then join each
    partition pair with an in-memory hash table on the (smaller) left
    side.  Oversized partitions are recursively re-partitioned with a
    different hash salt.  Costs ``~3·(scan(R) + scan(S))`` I/Os per
    partitioning level plus the output scan."""
    machine = left.machine
    left_key = left.key_fn(left_column)
    right_key = right.key_fn(right_column)
    if _depth > _MAX_HASH_RECURSION:
        # Re-partitioning cannot split further (e.g. one massive join
        # key); fall back to block-nested-loop over this partition pair.
        return block_nested_loop_join(
            left, right, left_column, right_column, name=name
        )
    num_partitions = max(2, machine.m - 2)
    out = FileStream(machine, name=f"table/{name}")
    streams = [out]   # every stream to delete on failure

    def partition(table: Table, key_fn) -> List[FileStream]:
        parts = [
            FileStream(machine, name=f"ghj/part{_depth}/{i}")
            for i in range(num_partitions)
        ]
        streams.extend(parts)
        for row in table.rows():
            index = (_hash_bits((key_fn(row), _salt))) % num_partitions
            parts[index].append(row)
        for part in parts:
            part.finalize()
        return parts

    try:
        left_parts = partition(left, left_key)
        right_parts = partition(right, right_key)
        # Resident during probe: build dict + left reader + right
        # reader + output writer frame.
        build_capacity = machine.M - 3 * machine.B

        for left_part, right_part in zip(left_parts, right_parts):
            if len(left_part) == 0 or len(right_part) == 0:
                continue
            if len(left_part) > build_capacity:
                # Recurse on the oversized partition pair with a fresh
                # salt.  Release the output writer's staging frame
                # first; the nested call needs the full frame budget
                # for its own partitioning.
                out.sync()
                sub = grace_hash_join(
                    Table(machine, left.columns, left_part,
                          name="ghj/sub-l"),
                    Table(machine, right.columns, right_part,
                          name="ghj/sub-r"),
                    left_column,
                    right_column,
                    _depth=_depth + 1,
                    _salt=_salt + 1,
                )
                streams.append(sub.stream)
                for row in sub.rows():
                    out.append(row)
                sub.delete()
                continue
            with machine.budget.reserve(len(left_part)):
                build: Dict[Any, List[Tuple]] = {}
                for row in left_part:
                    build.setdefault(left_key(row), []).append(row)
                for right_row in right_part:
                    for left_row in build.get(right_key(right_row), ()):
                        out.append(tuple(left_row) + tuple(right_row))

        for part in left_parts + right_parts:
            part.delete()
        out.finalize()
    except BaseException:
        for stream in streams:
            stream.delete()
        raise
    return Table(machine, _joined_columns(left, right), out, name=name)
