"""Cooperative external merge sort: an intent-yielding generator.

The OLAP workhorse of the multi-tenant query service
(:mod:`repro.service`): the same memoryload-runs-then-k-way-merge
algorithm as :func:`~repro.sort.merge.external_merge_sort`, but every
read is a yielded :class:`~repro.core.intents.StreamRead` intent, so a
driver can interleave the sort's waves with other jobs, and every byte
of working memory is reserved from a caller-supplied *budget* — a
tenant's :class:`~repro.core.memory.SubBudget` under the service, the
machine's global :class:`~repro.core.memory.MemoryBudget` standalone.

It runs the eager sort's engines, not copies of them: each memoryload
is ordered key-pointer style (one stable ``argsort``, one ``take``; a
typed payload stays typed), and each merge group is a
:class:`~repro.sort.merge.BlockMerger` whose refill requests become
``StreamRead`` intents — one block each, in the order a
record-at-a-time heap merge would ask for them.

The memoryload follows the eager run formation's rule
(:func:`~repro.sort.runs.memoryload_blocks`) over the budget actually
available, so a tenant with a small share forms shorter runs (and pays
more merge passes) instead of overflowing its share — the fair-share
analogue of the survey's ``M``-bounded run formation.

Optional ``filter_fn``/``map_fn`` stages run on each memoryload before
it is ordered, so a scan → filter → map → sort job (the service's
``pipeline_job``) never writes and re-reads the transformed
intermediate: the ``2·(N/DB)`` I/Os of that boundary are fused away.

Writes go through :meth:`~repro.core.stream.FileStream.append_block`
from a buffer the generator reserves itself, so no hidden staging
reservation lands on the parent ledger: the tenant's ``in_use`` peak is
exactly what its jobs reserved.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..core.exceptions import ConfigurationError
from ..core.intents import StreamRead
from ..core.machine import Machine
from ..core.records import BlockBuilder, argsort, concat, take
from ..core.stream import FileStream
from .merge import BlockMerger
from .runs import identity, memoryload_blocks


def merge_sort_steps(
    machine: Machine,
    stream: FileStream,
    key: Optional[Callable[[Any], Any]] = None,
    map_fn: Optional[Callable[[Any], Any]] = None,
    filter_fn: Optional[Callable[[Any], bool]] = None,
    budget=None,
    name: str = "coop",
):
    """Sort ``stream`` cooperatively; a generator for a driver loop.

    Yields :class:`~repro.core.intents.StreamRead` intents and expects
    the payload list back via ``send``; *returns* the finalized sorted
    :class:`~repro.core.stream.FileStream` (surfaced by the driver from
    ``StopIteration``).  Stable, like the eager sort.

    Args:
        machine: the machine whose disk the stream lives on.
        key: sort key (over the ``map_fn``-transformed records); default
            sorts records directly.
        map_fn: per-record transform, applied to each memoryload after
            ``filter_fn`` and before sorting.
        filter_fn: per-record predicate, applied to each memoryload
            first; a memoryload it empties forms no run.
        budget: ledger to reserve working memory from — a tenant's
            :class:`~repro.core.memory.SubBudget` under the service;
            defaults to ``machine.budget``.
        name: label prefix for the intermediate run streams.
    """
    key = key or identity
    budget = budget if budget is not None else machine.budget
    B = machine.block_size
    block_ids = list(stream.block_ids)

    # ------------------------------------------------------------------
    # run formation: budget-sized memoryloads, counted in *input*
    # records (the reservation covers a filter that drops nothing)
    # ------------------------------------------------------------------
    blocks_per_run = memoryload_blocks(machine, budget.available)
    runs: List[FileStream] = []
    next_runs: List[FileStream] = []
    run: Optional[FileStream] = None
    try:
        for start in range(0, len(block_ids), blocks_per_run):
            wanted = block_ids[start:start + blocks_per_run]
            with budget.reserve(len(wanted) * B):
                chunk = concat((yield StreamRead(wanted)))
                if filter_fn is not None:
                    chunk = [record for record in chunk
                             if filter_fn(record)]
                    if not chunk:
                        continue
                if map_fn is not None:
                    chunk = [map_fn(record) for record in chunk]
                # Key-pointer ordering, as in the eager run formation:
                # one stable argsort, records moved once by ``take``.
                chunk = take(chunk, argsort(chunk, key))
                run = FileStream(machine, name=f"{name}/run/{len(runs)}")
                for offset in range(0, len(chunk), B):
                    run.append_block(chunk[offset:offset + B])
                runs.append(run.finalize())
                run = None

        # --------------------------------------------------------------
        # merge passes: one cursor frame per run + one output frame
        # --------------------------------------------------------------
        level = 0
        while len(runs) > 1:
            level += 1
            arity = min(machine.fan_in, budget.available // B - 1)
            if arity < 2:
                raise ConfigurationError(
                    f"cooperative merge fan-in must be >= 2, got {arity} "
                    f"(budget {budget!r} too small)"
                )
            for start in range(0, len(runs), arity):
                group = runs[start:start + arity]
                if len(group) == 1:
                    # Straggler: carried forward untouched.
                    next_runs.append(group[0])
                    continue
                merged = yield from _merge_group_steps(
                    machine, group, key, budget,
                    f"{name}/merge-{level}/{len(next_runs)}",
                )
                next_runs.append(merged)
                for member in group:
                    member.delete()
            runs = next_runs
            next_runs = []
    except BaseException:
        # A fault (or a driver .throw) mid-sort must not leak blocks:
        # the job fails alone, its intermediates reclaimed.  delete()
        # is idempotent, so a straggler run appearing in both lists
        # (or a group member already deleted) is harmless.
        if run is not None:
            run.delete()
        for formed in runs + next_runs:
            formed.delete()
        raise

    if not runs:
        return FileStream(machine, name=f"{name}/sorted").finalize()
    return runs[0]


def _merge_group_steps(
    machine: Machine,
    group: List[FileStream],
    key: Callable[[Any], Any],
    budget,
    name: str,
):
    """Merge one group of sorted runs cooperatively.

    Holds one block per input run plus one output buffer, all reserved
    from ``budget``.  The merge is a :class:`~repro.sort.merge.BlockMerger`
    without a fetch hook: each block it asks for becomes one
    ``StreamRead`` (the driver batches refills across jobs into shared
    waves), and each full output block is appended as it completes.
    """
    B = machine.block_size
    ids = [list(member.block_ids) for member in group]
    out = FileStream(machine, name=name)
    with budget.reserve((len(group) + 1) * B):
        try:
            first = iter((yield StreamRead(
                [run_ids[0] for run_ids in ids if run_ids])))
            fetched = [1] * len(ids)
            segments = BlockMerger(
                [next(first) if run_ids else None for run_ids in ids], key
            ).segments()
            builder = BlockBuilder(B, out.append_block)
            block = None
            try:
                while True:
                    item = segments.send(block)
                    block = None
                    if item.__class__ is int:
                        # A refill request: run ``item``'s next block.
                        if fetched[item] < len(ids[item]):
                            [block] = yield StreamRead(
                                [ids[item][fetched[item]]])
                            fetched[item] += 1
                    else:
                        builder.push(*item)
            except StopIteration:
                builder.flush()
        except BaseException:
            out.delete()
            raise
    return out.finalize()
