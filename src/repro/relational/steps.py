"""Cooperative joins: intent-yielding generator variants.

The OLAP join jobs of the multi-tenant query service
(:mod:`repro.service`): sort-merge join recast as a generator that
yields :class:`~repro.core.intents.StreamRead` intents, reserves every
frame of working memory from a caller-supplied budget (a tenant's
:class:`~repro.core.memory.SubBudget` under the service), and writes
its output through ``append_block`` from a self-reserved buffer — no
hidden staging reservation lands on the parent ledger.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..analysis.sanitizer import io_bound
from ..core.intents import StreamRead, drive
from ..core.machine import Machine
from ..core.stream import FileStream
from ..sort.steps import merge_sort_steps
from .joins import _join_n, _joined_columns, _smj_theory
from .table import Table


class _RowCursor:
    """Sequential row cursor over a finalized stream, one block resident.

    The generator owning the cursor fetches blocks itself (so fetches
    are yielded intents); the cursor only tracks position.
    """

    __slots__ = ("ids", "next_block", "records", "offset")

    def __init__(self, stream: FileStream):
        self.ids = list(stream.block_ids)
        self.next_block = 0
        self.records: List[Any] = []
        self.offset = 0


def _next_row(cursor: _RowCursor):
    """Advance ``cursor`` one row (fetching its next block as a yielded
    intent when the resident one is spent); returns ``None`` at EOF.
    Used as ``row = yield from _next_row(cursor)``."""
    if cursor.offset >= len(cursor.records):
        if cursor.next_block >= len(cursor.ids):
            return None
        [payload] = yield StreamRead([cursor.ids[cursor.next_block]])
        cursor.records = payload
        cursor.next_block += 1
        cursor.offset = 0
    row = cursor.records[cursor.offset]
    cursor.offset += 1
    return row


def _paired(machine: Machine, out: FileStream, buffer: List[Tuple],
            left_row: Tuple, group: List[Tuple]) -> None:
    """Append ``left_row`` joined with each row of ``group`` to
    ``buffer``, writing every block it fills to ``out``."""
    B = machine.block_size
    for match in group:
        buffer.append(tuple(left_row) + tuple(match))
        if len(buffer) >= B:
            out.append_block(buffer[:B])
            del buffer[:B]


def merge_join_steps(
    machine: Machine,
    left_stream: FileStream,
    right_stream: FileStream,
    left_key: Callable[[Tuple], Any],
    right_key: Callable[[Tuple], Any],
    budget=None,
    name: str = "coop-mj",
):
    """Cooperatively merge-join two streams already sorted by their keys.

    Yields :class:`~repro.core.intents.StreamRead` intents; *returns*
    the finalized output stream of ``left_row + right_row`` tuples.
    Many-to-many matches buffer the current right-side key group in
    memory reserved from ``budget``, the standard assumption that no
    single join-key group exceeds the (share of) memory.
    """
    budget = budget if budget is not None else machine.budget
    B = machine.block_size
    left = _RowCursor(left_stream)
    right = _RowCursor(right_stream)
    out = FileStream(machine, name=name)
    # Two cursor frames plus the output buffer.
    with budget.reserve(3 * B):
        try:
            buffer: List[Tuple] = []
            left_row = yield from _next_row(left)
            right_row = yield from _next_row(right)
            while left_row is not None and right_row is not None:
                lk = left_key(left_row)
                rk = right_key(right_row)
                if lk < rk:
                    left_row = yield from _next_row(left)
                elif lk > rk:
                    right_row = yield from _next_row(right)
                else:
                    # Buffer the right group for this key under the
                    # budget; acquire-before-append keeps len(group)
                    # equal to the acquired count at all times.
                    group = [right_row]
                    budget.acquire(1)
                    try:
                        right_row = yield from _next_row(right)
                        while right_row is not None \
                                and right_key(right_row) == lk:
                            budget.acquire(1)
                            group.append(right_row)
                            right_row = yield from _next_row(right)
                        while left_row is not None \
                                and left_key(left_row) == lk:
                            _paired(machine, out, buffer, left_row, group)
                            left_row = yield from _next_row(left)
                    finally:
                        budget.release(len(group))
            if buffer:
                out.append_block(buffer)
        except BaseException:
            out.delete()
            raise
    return out.finalize()


@io_bound(_smj_theory, factor=3.0, n=_join_n)
def sort_merge_join_steps(
    left: Table,
    right: Table,
    left_column: str,
    right_column: str,
    budget=None,
    name: str = "coop-smj",
):
    """Cooperative sort-merge join of two tables: both inputs sorted
    through :func:`~repro.sort.steps.merge_sort_steps`, then merged
    with :func:`merge_join_steps` — ``Sort(R) + Sort(S) + scan`` I/Os,
    all interleavable and charged to ``budget``.

    Returns the joined :class:`~repro.relational.table.Table` (columns
    concatenated, right-side clashes renamed as in the eager join).
    """
    machine = left.machine
    left_key = left.key_fn(left_column)
    right_key = right.key_fn(right_column)
    left_sorted = yield from merge_sort_steps(
        machine, left.stream, key=left_key, budget=budget,
        name=f"{name}/l",
    )
    try:
        right_sorted = yield from merge_sort_steps(
            machine, right.stream, key=right_key, budget=budget,
            name=f"{name}/r",
        )
    except BaseException:
        left_sorted.delete()
        raise
    try:
        out = yield from merge_join_steps(
            machine, left_sorted, right_sorted, left_key, right_key,
            budget=budget, name=f"table/{name}",
        )
    finally:
        left_sorted.delete()
        right_sorted.delete()
    return Table(machine, _joined_columns(left, right), out, name=name)


@io_bound(_smj_theory, factor=3.0, n=_join_n)
def sort_merge_join_materialized(
    left: Table,
    right: Table,
    left_column: str,
    right_column: str,
    name: str = "smj",
) -> Table:
    """:func:`~repro.relational.joins.sort_merge_join` with its sorts on
    disk: :func:`sort_merge_join_steps` driven alone, which sorts both
    inputs to disk and merge-joins the sorted streams.

    Kept as the measured control for the pipelining experiment (F25)
    and the fused/materialized parity suite; new code should call
    :func:`~repro.relational.joins.sort_merge_join`, which skips both
    sorted-intermediate boundaries."""
    return drive(left.machine, sort_merge_join_steps(
        left, right, left_column, right_column, name=name))
