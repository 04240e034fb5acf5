"""Cooperative external merge sort: an intent-yielding generator.

The OLAP workhorse of the multi-tenant query service
(:mod:`repro.service`), and the composition of the sort's three phase
generators — the only load-sort code there is:

* :func:`~repro.sort.runs.form_runs_steps` — memoryload runs, ordered
  by :func:`~repro.core.records.sort_payload` (Arge–Thorup's
  key-pointer sort, or ``np.sort`` for integer identity keys; a typed
  payload stays typed), with optional ``filter_fn``/``map_fn`` stages;
* :func:`~repro.sort.merge.merge_group_steps` — one group merged by a
  :class:`~repro.sort.merge.BlockMerger` whose refills are forecast
  batches (Knuth's forecasting rule, one block per idle disk);
* :func:`~repro.sort.merge.merge_pass_steps` — one pass of group
  merges, stragglers carried forward.

Every read is a yielded :class:`~repro.core.intents.StreamRead`
intent, so a driver can interleave the sort's waves with other jobs,
and every frame of working memory — memoryloads, reader and writer
frames, staging pins — is reserved from a caller-supplied *budget*: a
tenant's :class:`~repro.core.memory.SubBudget` under the service, the
machine's global :class:`~repro.core.memory.MemoryBudget` standalone.
The eager :func:`~repro.sort.runs.form_runs_load_sort`,
:func:`~repro.sort.merge.merge_streams` and
:func:`~repro.sort.merge.merge_pass` are
:func:`~repro.core.intents.drive` loops over the same generators.

The memoryload and the merge arity follow the eager rules
(:func:`~repro.sort.runs.memoryload_blocks`,
:func:`~repro.sort.merge.plan_merge_arity`) over the budget actually
available, so a tenant with a small share forms shorter runs (and pays
more merge passes) instead of overflowing its share — the fair-share
analogue of the survey's ``M``-bounded run formation.

The ``filter_fn``/``map_fn`` stages let a scan → filter → map → sort job
(the service's ``pipeline_job``) skip writing and re-reading the
transformed intermediate: the ``2·(N/DB)`` I/Os of that boundary are
fused away.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..analysis.sanitizer import io_bound
from ..core.bounds import sort_io
from ..core.machine import Machine
from ..core.stream import FileStream
from .merge import merge_pass_steps, plan_merge_arity
from .runs import form_runs_steps


@io_bound(lambda machine, n: sort_io(n, machine.M, machine.B),
          factor=3.0)
def merge_sort_steps(
    machine: Machine,
    stream: FileStream,
    key: Optional[Callable[[Any], Any]] = None,
    map_fn: Optional[Callable[[Any], Any]] = None,
    filter_fn: Optional[Callable[[Any], bool]] = None,
    budget=None,
    name: str = "coop",
):
    """Sort ``stream`` cooperatively in ``Sort(N)`` I/Os; a generator
    for a driver loop.

    Yields :class:`~repro.core.intents.StreamRead` intents and expects
    the payload list back via ``send``; *returns* the finalized sorted
    :class:`~repro.core.stream.FileStream` (surfaced by the driver from
    ``StopIteration``).  Stable, like the eager sort.  A fault (or a
    driver ``throw``) deletes every intermediate run.

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
    budget = budget if budget is not None else machine.budget
    runs = yield from form_runs_steps(
        machine, stream, key, map_fn=map_fn, filter_fn=filter_fn,
        budget=budget, name=f"{name}/run",
    )
    if not runs:
        return FileStream(machine, name=f"{name}/sorted").finalize()
    landed: List[FileStream] = []
    try:
        arity = plan_merge_arity(machine, len(runs), budget=budget)
        level = 0
        while len(runs) > 1:
            level += 1
            landed = []
            runs = yield from merge_pass_steps(
                machine, runs, arity, key, level=level,
                name_prefix=f"{name}/merge", out=landed, budget=budget,
            )
    except BaseException:
        # The job fails alone, its intermediates reclaimed.  delete()
        # is idempotent, so a straggler in both lists (or a group
        # member already deleted) is harmless.
        for run in runs + landed:
            run.delete()
        raise
    return runs[0]
