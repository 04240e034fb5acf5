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

from typing import List, Tuple

from ..analysis.sanitizer import io_bound
from ..core.intents import drive
from ..core.stream import FileStream
from ..runtime.prefetch import ForecastingPrefetcher
from ..sort.merge import BlockMerger
from ..sort.steps import merge_sort_steps
from .joins import _by_key_and_side, _join_n, _join_tagged, \
    _joined_columns, _smj_theory, _tagged_sides
from .table import Table


@io_bound(_smj_theory, factor=3.0, n=_join_n)
def sort_merge_join_steps(
    left: Table,
    right: Table,
    left_column: str,
    right_column: str,
    budget=None,
    name: str = "coop-smj",
):
    """Cooperative sort-merge join: ``Sort(R) + Sort(S) + scan`` I/Os,
    all interleavable and charged to ``budget``.

    Each side is sorted to disk by
    :func:`~repro.sort.steps.merge_sort_steps` as the ``(key, side,
    row)`` records the fused :func:`~repro.relational.joins.sort_merge_join`
    pushes.  The sorted sides are merged by a
    :class:`~repro.sort.merge.BlockMerger` over forecast reads, as in
    :func:`~repro.sort.merge.merge_group_steps`, and paired by the fused
    join's :func:`~repro.relational.joins._join_tagged`: both sides are
    read to the end, and every right key group is held in ``budget``.

    Returns the joined :class:`~repro.relational.table.Table` (columns
    concatenated, right-side clashes renamed as in the eager join).
    """
    machine = left.machine
    budget = budget if budget is not None else machine.budget
    B = machine.block_size
    sides: List[FileStream] = []
    try:
        for rows, tag in _tagged_sides(left, right, left_column,
                                       right_column):
            sides.append((yield from merge_sort_steps(
                machine, rows, key=_by_key_and_side, map_fn=tag,
                budget=budget, name=f"{name}/{'rl'[len(sides)]}",
            )))
        out = FileStream(machine, name=f"table/{name}")
        buffer: List[Tuple] = []

        def append(row: Tuple) -> None:
            buffer.append(row)
            if len(buffer) == B:
                out.append_block(buffer.copy())
                buffer.clear()

        # The output buffer; the prefetcher reserves the two readers.
        with budget.reserve(B):
            pairing = _join_tagged(budget, append)
            next(pairing)
            prefetcher = ForecastingPrefetcher(
                machine.runtime, [side.block_ids for side in sides],
                key=_by_key_and_side, pin_slack=machine.num_disks - 1,
                budget=budget,
            )
            try:
                merger = BlockMerger([(yield from prefetcher.next_block(0)),
                                      (yield from prefetcher.next_block(1))],
                                     _by_key_and_side)
                for item in merger.segments():
                    if item.__class__ is int:
                        # A refill request: side ``item``'s next block.
                        merger.feed((yield from prefetcher.next_block(item)))
                    else:
                        payload, start, stop = item
                        pairing.send(payload[start:stop])
                out.append_block(buffer)
                out.finalize()
            except BaseException:
                out.delete()
                raise
            finally:
                pairing.close()
                prefetcher.close()
    finally:
        for side in sides:
            side.delete()
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
