"""Single-table operators: selection, projection, sort, group-by.

Each operator is a full-table batch operation charged to the machine:
selection and projection are one scan + one write; ``order_by`` and
``group_by`` pay the external-sorting bound, which is exactly how real
engines implement ORDER BY and sort-based aggregation.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError, MemoryLimitExceeded
from ..core.machine import Machine
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter, _primed, sorted_unique
from ..sort.merge import external_merge_sort
from .table import Table


def _table_n(table: Table, *args, **kwargs) -> int:
    return len(table.stream)


def _scan_out_theory(machine: Machine, n: int, result: Table) -> int:
    """One input scan plus the output write."""
    return (scan_io(n, machine.B, machine.D)
            + scan_io(len(result.stream), machine.B, machine.D))


def _sort_out_theory(machine: Machine, n: int, result: Table) -> int:
    """One external sort plus the pre/post scans and the output write."""
    return (sort_io(n, machine.M, machine.B, machine.D)
            + 2 * scan_io(n, machine.B, machine.D)
            + scan_io(len(result.stream), machine.B, machine.D))


@io_bound(_scan_out_theory, factor=2.0, n=_table_n)
def select(
    table: Table,
    predicate: Callable[[Tuple], bool],
    name: str = "selected",
) -> Table:
    """Filter rows: one scan of the input, one write of the output."""
    machine = table.machine
    out = FileStream(machine, name=f"table/{name}")
    for row in table.rows():
        if predicate(row):
            out.append(row)
    return Table(machine, table.columns, out.finalize(), name=name)


@io_bound(_scan_out_theory, factor=2.0, n=_table_n)
def project(
    table: Table,
    columns: Sequence[str],
    name: str = "projected",
) -> Table:
    """Keep only ``columns`` (in the given order): one scan + write."""
    machine = table.machine
    indexes = [table.column_index(c) for c in columns]
    out = FileStream(machine, name=f"table/{name}")
    for row in table.rows():
        out.append(tuple(row[i] for i in indexes))
    return Table(machine, columns, out.finalize(), name=name)


@io_bound(_sort_out_theory, factor=3.0, n=_table_n)
def order_by(
    table: Table,
    column: str,
    name: str = "ordered",
) -> Table:
    """Sort rows by ``column`` with external merge sort: ``O(Sort(N))``."""
    machine = table.machine
    ordered = external_merge_sort(
        machine, table.stream, key=table.key_fn(column)
    )
    return Table(machine, table.columns, ordered, name=name)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
class Aggregate:
    """A streaming aggregate: ``init`` -> ``step(state, value)`` ->
    ``final(state)``."""

    def __init__(self, init, step, final=lambda s: s):
        self.init = init
        self.step = step
        self.final = final


AGGREGATES: Dict[str, Aggregate] = {
    "count": Aggregate(lambda: 0, lambda s, v: s + 1),
    "sum": Aggregate(lambda: 0, lambda s, v: s + v),
    "min": Aggregate(lambda: None, lambda s, v: v if s is None else min(s, v)),
    "max": Aggregate(lambda: None, lambda s, v: v if s is None else max(s, v)),
    "avg": Aggregate(
        lambda: (0, 0),
        lambda s, v: (s[0] + v, s[1] + 1),
        lambda s: s[0] / s[1] if s[1] else None,
    ),
}
"""Built-in aggregate functions by name."""


@io_bound(_sort_out_theory, factor=3.0, n=_table_n)
def distinct(
    table: Table,
    name: str = "distinct",
) -> Table:
    """Remove duplicate rows: the standard DISTINCT plan, ``O(Sort(N))``
    — one input scan into a pipelined sort whose merge is pulled
    through a de-duplicating writer (the sort's runs written and read
    back, nothing when the table fits one memoryload)."""
    out = sorted_unique(table.machine, table.stream, f"table/{name}")
    return Table(table.machine, table.columns, out, name=name)


@io_bound(_scan_out_theory, factor=2.0, n=_table_n)
def top_k(
    table: Table,
    column: str,
    k: int,
    descending: bool = True,
    name: str = "topk",
) -> Table:
    """ORDER BY ... LIMIT k without a full sort: one scan with a k-record
    in-memory heap (``k`` must fit in memory; the budget enforces it).

    Output is in rank order (best first).
    """
    import heapq

    machine = table.machine
    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k}")
    if k > machine.M:
        # The k-record heap must itself fit in memory.
        raise MemoryLimitExceeded(k, machine.budget.in_use, machine.M)
    key_fn = table.key_fn(column)
    with machine.budget.reserve(max(1, k)):
        heap: List[Tuple] = []  # (comparable key, seq, row)
        sequence = 0
        for row in table.rows():
            value = key_fn(row)
            # Min-heap keeps the k entries with the LARGEST rank keys, so
            # rank by the value itself for descending top-k and by its
            # inverse for ascending.
            rank_key = value if descending else _Reversed(value)
            entry = (rank_key, sequence, row)
            sequence += 1
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif heap and entry > heap[0]:
                heapq.heapreplace(heap, entry)
        # em: ok(EM004) k-record heap, reserved above
        winners = [row for _, _, row in sorted(heap, reverse=True)]
    out = FileStream(machine, name=f"table/{name}")
    for row in winners:
        out.append(row)
    return Table(machine, table.columns, out.finalize(), name=name)


class _Reversed:
    """Order-inverting key wrapper (for descending top-k)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __gt__(self, other):
        return other.value > self.value

    def __eq__(self, other):
        return other.value == self.value


@io_bound(_sort_out_theory, factor=3.0, n=_table_n)
def group_by(
    table: Table,
    key_column: str,
    aggregates: Sequence[Tuple[str, str]],
    name: str = "grouped",
) -> Table:
    """Sort-based GROUP BY.

    Args:
        key_column: grouping column.
        aggregates: ``(aggregate_name, value_column)`` pairs, e.g.
            ``[("sum", "amount"), ("count", "amount")]``.

    Cost: ``O(Sort(N))`` — one input scan into a pipelined sort whose
    merge is pulled through the aggregating writer (the sort's runs
    written and read back, nothing when the table fits one
    memoryload).  Output columns are ``(key_column, "agg_column",
    ...)``.
    """
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

    def groups(ordered: Iterator[Tuple]) -> Iterator[Tuple]:
        for key, rows in groupby(ordered, key=key_fn):
            states = [spec[0].init() for spec in specs]
            for row in rows:
                states = [
                    spec[0].step(state, row[spec[1]])
                    for spec, state in zip(specs, states)
                ]
            yield tuple([key] + [
                spec[0].final(state) for spec, state in zip(specs, states)
            ])

    with Sorter(machine, key=key_fn, name=f"table/{name}") as ordered:
        ordered.consume(table.stream)
        out = FileStream.from_records(
            machine, _primed(groups(ordered)), name=f"table/{name}")
    columns = [key_column] + [spec[2] for spec in specs]
    return Table(machine, columns, out, name=name)
