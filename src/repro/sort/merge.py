"""k-way block merging, and external merge sort.

The merge pass is the second half of external merge sort: up to ``m - 1``
sorted runs are merged in a single pass (one input frame per run plus one
output frame), so the total cost is ``2·(N/B)`` I/Os per pass and the pass
count is ``1 + ceil(log_{m-1} ceil(N/M))`` — the survey's
``Θ((N/B) log_{M/B}(N/B))`` sorting bound.

:class:`BlockMerger` is the one merge engine: the sort's group merge,
the pipelined ``Sorter``'s pulled merge and the sequence heap's level
merges all run it.  It consumes whole block payloads and asks for a
run's next block only when its resident block is used up.  Typed
payloads merge in incremental rounds of a constant number of numpy
calls and are never unpacked into Python objects — integer keys carry
no run tags until two runs tie; other payloads gallop by binary search
and move records as slices.  It is stable: ties are broken by ascending
source index.

The merge phase of the sort is two cooperative generators, the only
merge-phase code: :func:`merge_group_steps` merges one group, its
refills yielded as forecast ``StreamRead`` batches
(:meth:`~repro.runtime.prefetch.ForecastingPrefetcher.next_block`), and
:func:`merge_pass_steps` merges the groups of one pass.  The eager
:func:`merge_streams` and :func:`merge_pass` are
:func:`~repro.core.intents.drive` loops over them; the cooperative
:func:`~repro.sort.steps.merge_sort_steps` runs them under the query
service.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Any, Callable, Iterator, List, Optional, Sequence, \
    Tuple

from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError, StreamError
from ..core.intents import drive
from ..core.machine import Machine
from ..core.records import BlockBuilder, concat, key_column, key_list, \
    merge_values, np, sorts_by_value
from ..core.stream import FileStream
from ..runtime.prefetch import ForecastingPrefetcher
from .runs import form_runs_load_sort, form_runs_replacement_selection, identity


class BlockMerger:
    """Merge ``k`` sorted runs given as whole block payloads.

    The merger starts from each run's first block and asks for a run's
    next block only when that run's resident block is used up — the
    same refill order as a record-at-a-time heap merge.  It does no I/O
    itself: :meth:`segments` and :meth:`blocks` *yield* the index of
    the run they need next, and the caller answers with :meth:`feed`
    (``None`` once the run is exhausted).  The sort's group merge
    (:func:`merge_group_steps`) turns each refill into a forecast
    ``StreamRead``; the pipelined ``Sorter``'s pulled merge answers from
    ``ForecastingPrefetcher.block_reader``, and the sequence heap's
    level merge from each run's own block reader.

    Two engines sit behind :meth:`segments`:

    * **The typed round**, when every head is an ndarray of one dtype
      with a vectorizable key column.  It keeps one sorted key column
      of the resident records not yet emitted, an ``int32`` run tag
      per record (equal keys stay in run order), the payload column
      for :func:`~repro.core.records.field` keys, and a heap of
      ``(last resident key, run)``.  With ``bound, c = heap[0]``,
      unseen records of run ``c`` are ``>= bound`` and unseen records
      of any other run exceed their own last key ``>= bound``; so a
      round emits the resident prefix up to ``bound`` plus the
      ``== bound`` ties tagged ``<= c`` — exactly run ``c``'s block
      and everything before it — refills ``c``, and places the new
      block with one ``searchsorted`` and one mask (plus, when it ties
      a resident key, a running count of lower-run tags).  A round is
      a constant number of numpy calls, whatever ``k``.  Integer
      identity keys keep no tags while no key is resident from two
      runs: the ties at ``bound`` are then all run ``c``'s, and a
      refill is one :func:`~repro.core.records.merge_values`.  The
      first tie across runs rebuilds the tags from each run's current
      block and hands the merge to the tagged round.
    * **Galloping**, for object payloads and opaque keys: the leading
      run's key list is binary-searched for the longest prefix below
      the runner-up, emitted as one segment — ``O(log B)`` comparisons
      per segment instead of ``O(log k)`` per record.

    Both are stable: ties go to the lower run index, then input order.

    Args:
        heads: each run's first block, or ``None`` for an empty run.
        key: key extraction function (defaults to identity; pass
            :func:`repro.core.records.field` to keep column extraction
            vectorized on structured arrays).
    """

    def __init__(
        self,
        heads: List[Optional[Sequence[Any]]],
        key: Optional[Callable[[Any], Any]] = None,
    ):
        self._heads = list(heads)
        self._key = key or identity
        self._fed: Optional[Sequence[Any]] = None

    def feed(self, block: Optional[Sequence[Any]]) -> None:
        """Answer the refill request just yielded: the run's next
        block, or ``None`` once it is exhausted."""
        self._fed = block

    def _refill(self, run: int):
        """The next non-empty block of ``run``, or ``None`` at its end
        (a sub-generator: yields ``run``, then reads the answer given
        to :meth:`feed`)."""
        while True:
            yield run
            block = self._fed
            if block is None or len(block):
                return block

    def _rest(self, run: int):
        """Stream a lone surviving run's remaining blocks whole."""
        block = yield from self._refill(run)
        while block is not None:
            yield block, 0, len(block)
            block = yield from self._refill(run)

    def segments(self) -> Iterator[Tuple[Sequence[Any], int, int]]:
        """Yield the merge as ``(payload, start, stop)`` segments, in
        key order, between the refill requests."""
        live = [head for head in self._heads if head is not None]
        column = key_column(live[0], self._key) if live else None
        if column is not None and column.dtype != object and all(
                isinstance(head, np.ndarray)
                and head.dtype == live[0].dtype for head in live):
            return self._typed_rounds(live[0].dtype)
        return self._gallop()

    def _typed_rounds(self, dtype):
        key = self._key
        by_value = key is identity
        blocks, tags, heap = {}, [], []
        for run, head in enumerate(self._heads):
            if head is not None and not len(head):
                head = yield from self._refill(run)
            if head is None:
                continue
            blocks[run] = head = np.asarray(head, dtype=dtype)
            tags.append(np.full(len(head), run, np.int32))
            heap.append((key_column(head, key).item(-1), run))
        if not heap:
            return
        heapq.heapify(heap)
        payload = concat(list(blocks.values()))
        keys = key_column(payload, key)
        order = keys.argsort(kind="stable")
        keys = keys[order]
        tags = np.concatenate(tags)[order]
        payload = keys if by_value else payload[order]
        # Equal integers are the same bytes: while no key is resident
        # from two runs, no order among ties can show, so integer keys
        # go untagged until the first tie across runs.
        if sorts_by_value(payload, key) and not np.count_nonzero(
                (keys[1:] == keys[:-1]) & (tags[1:] != tags[:-1])):
            tags = None
        steps = np.arange(max(map(len, blocks.values())))
        while heap:
            bound, run = heap[0]
            if len(heap) == 1:
                yield payload, 0, len(payload)
                yield from self._rest(run)
                return
            cut = keys.searchsorted(bound, "right")
            if tags is not None and cut > 1 \
                    and keys.item(cut - 2) == bound:
                # Ties at the bound: only those of runs up to ``run``.
                low = keys.searchsorted(bound, "left")
                cut = low + int(tags[low:cut].searchsorted(run, "right"))
            yield payload, 0, cut
            keys = keys[cut:]
            payload = keys if by_value else payload[cut:]
            if tags is not None:
                tags = tags[cut:]
            block = yield from self._refill(run)
            if block is None:
                heapq.heappop(heap)
                continue
            # A heterogeneous run may slip in a list block: lift it.
            block = np.asarray(block, dtype=dtype)
            column = block if by_value else key_column(block, key)
            heapq.heapreplace(heap, (column.item(-1), run))
            # Each record of the block goes after the resident records
            # of smaller keys and, among equal keys, of lower runs.
            where = keys.searchsorted(column)
            tied = np.count_nonzero(keys.take(where, mode="clip") == column)
            if tags is None:
                if not tied:
                    blocks[run] = column
                    keys = payload = merge_values(keys, column)
                    continue
                tags = _run_tags(blocks, bound)
            if tied:
                below = np.zeros(len(keys) + 1, np.intp)
                np.cumsum(tags < run, out=below[1:])
                after = keys.searchsorted(column, "right")
                where += below[after] - below[where]
            if len(block) > len(steps):
                steps = np.arange(len(block))
            where += steps[:len(block)]
            rest = np.empty(len(keys) + len(block), bool)
            rest[:] = True  # cheaper than ``np.ones`` at block sizes
            rest[where] = False
            keys = _place(keys, column, where, rest)
            tags = _place(tags, run, where, rest)
            payload = keys if by_value else \
                _place(payload, block, where, rest)

    def _gallop(self):
        key = self._key
        blocks = list(self._heads)
        keys = [None] * len(blocks)
        pos = [0] * len(blocks)
        heap: List[Tuple[Any, int]] = []
        for run, head in enumerate(blocks):
            if head is not None and not len(head):
                head = blocks[run] = yield from self._refill(run)
            if head is not None:
                keys[run] = key_list(head, key)
                heap.append((keys[run][0], run))
        heapq.heapify(heap)
        while heap:
            _, run = heap[0]
            run_keys = keys[run]
            start = pos[run]
            if len(heap) == 1:
                yield blocks[run], start, len(run_keys)
                yield from self._rest(run)
                return
            # The runner-up is the smaller child of the heap root.
            runner_key, runner = heap[1]
            if len(heap) > 2 and heap[2] < heap[1]:
                runner_key, runner = heap[2]
            # Gallop: everything below the runner-up key is safe to
            # emit, and so are ties when this run wins them (lower
            # index).  The root strictly precedes the runner-up, so the
            # segment is never empty.
            if run < runner:
                stop = bisect_right(run_keys, runner_key, start)
            else:
                stop = bisect_left(run_keys, runner_key, start)
            yield blocks[run], start, stop
            if stop < len(run_keys):
                pos[run] = stop
                heapq.heapreplace(heap, (run_keys[stop], run))
                continue
            block = yield from self._refill(run)
            if block is None:
                heapq.heappop(heap)
                continue
            blocks[run], keys[run], pos[run] = block, key_list(block, key), 0
            heapq.heapreplace(heap, (keys[run][0], run))

    def blocks(self, block_size: int) -> Iterator[Sequence[Any]]:
        """Yield the merge re-blocked into exactly-``block_size``-record
        payloads (the last may be short) — fed straight to
        ``append_block``, so output block counts match the seed's
        record-at-a-time writer.  The refill requests (run indexes)
        are passed through."""
        pending: deque = deque()
        builder = BlockBuilder(block_size, pending.append)
        for item in self.segments():
            if item.__class__ is int:
                yield item
                continue
            builder.push(*item)
            while pending:
                yield pending.popleft()
        builder.flush()
        while pending:
            yield pending.popleft()


def _run_tags(blocks, bound):
    """The run tags of the resident keys, built when an untagged merge
    meets its first tie across runs: each run's resident records are
    its current block's above the last ``bound``, and no key is
    resident from two runs, so their key order is the resident one."""
    parts = [block[block.searchsorted(bound, "right"):]
             for block in blocks.values()]
    tags = np.repeat(np.fromiter(blocks, np.int32), list(map(len, parts)))
    return tags[np.concatenate(parts).argsort(kind="stable")]


def _place(resident, new, where, rest):
    """Merge ``new`` into ``resident``: ``where`` holds the new
    records' output slots, ``rest`` masks the resident ones."""
    out = np.empty(len(rest), resident.dtype)
    out[where] = new
    out[rest] = resident
    return out


def merge_group_steps(
    machine: Machine,
    group: List[FileStream],
    key: Optional[Callable[[Any], Any]] = None,
    stream_cls=FileStream,
    name: str = "merged",
    budget=None,
):
    """Merge the sorted runs of ``group`` into one run; a cooperative
    generator.

    Holds the output writer's frames (1, or ``D`` for a striped writer)
    and one reader frame per run, reserved from ``budget`` (default:
    the machine's) before any staging pin is taken, so pins consume
    only true spares.  The merge is a :class:`BlockMerger`; each block
    it asks for comes from
    :meth:`~repro.runtime.prefetch.ForecastingPrefetcher.next_block`,
    whose forecast batches the refill with the next blocks of the most
    urgent other runs, one per idle disk — yielded as one
    :class:`~repro.core.intents.StreamRead` and staged in frames pinned
    from ``budget``.  Each full output block is appended as it
    completes.  One read per input block and one write per output
    block.

    Returns the finalized output run.  A fault (or a driver ``throw``)
    deletes the half-written output, so the group can be re-merged
    from its inputs.
    """
    key = key or identity
    budget = budget if budget is not None else machine.budget
    for run in group:
        if not run.is_finalized:
            raise StreamError(
                f"stream {run.name!r} must be finalized before merging"
            )
    out = stream_cls(machine, name=name)
    writer_frames = stream_cls.writer_frames(machine)
    # A writer that stages its own full stripe leaves the forecast free
    # to pin every spare frame; a one-block writer needs D-1 of them
    # kept available for its write-behind window.
    pin_slack = 0 if writer_frames >= machine.num_disks \
        else machine.num_disks - 1
    try:
        with budget.reserve(writer_frames * machine.B):
            prefetcher = ForecastingPrefetcher(
                machine.runtime, [run.block_ids for run in group],
                key=key, pin_slack=pin_slack, budget=budget,
            )
            try:
                heads = []
                for index in range(len(group)):
                    heads.append((yield from prefetcher.next_block(index)))
                merger = BlockMerger(heads, key)
                for item in merger.blocks(machine.B):
                    if item.__class__ is int:
                        # A refill request: run ``item``'s next block.
                        merger.feed((yield from prefetcher.next_block(item)))
                    else:
                        out.append_block(item)
            finally:
                prefetcher.close()
            return out.finalize()
    except BaseException:
        out.delete()
        raise


# Transfers, not steps: the envelope is D-independent (see runs.py).
@io_bound(lambda machine, n: 2 * scan_io(n, machine.B),
          factor=2.0,
          n=lambda machine, streams, **kwargs: sum(
              len(stream) for stream in streams))
def merge_streams(
    machine: Machine,
    streams: List[FileStream],
    key: Optional[Callable[[Any], Any]] = None,
    stream_cls=FileStream,
    name: str = "merged",
) -> FileStream:
    """Merge sorted ``streams`` into one sorted stream in a single pass.

    The eager driver of :func:`merge_group_steps`: one input frame per
    stream plus the output writer's frames must fit in ``M`` (the
    memory budget raises otherwise).  Costs one read per input block and
    one write per output block.

    On a multi-disk machine the input reads are scheduled by the
    *forecasting* rule (the run whose newest block has the smallest
    last key is fetched next, batched one block per idle disk), so the
    merge approaches ``D`` transfers per parallel step instead of one.
    """
    return drive(machine, merge_group_steps(
        machine, streams, key, stream_cls, name))


RUN_STRATEGIES = {
    "load": form_runs_load_sort,
    "replacement": form_runs_replacement_selection,
}


def _merge_levels(num_runs: int, arity: int) -> int:
    """Merge passes needed to reduce ``num_runs`` runs at ``arity``."""
    levels = 0
    while num_runs > 1:
        num_runs = -(-num_runs // arity)
        levels += 1
    return levels


def plan_merge_arity(
    machine: Machine,
    num_runs: int = 0,
    fan_in: Optional[int] = None,
    stream_cls=FileStream,
    budget=None,
) -> int:
    """The merge arity a sort of ``num_runs`` runs will use.

    One input frame per run plus the output writer's frames (1, or ``D``
    for a striped writer) must fit in the *available* ``budget``
    (default: the machine's): callers holding resident frames (an open
    block file, a tenant's other jobs) lower the arity instead of
    overflowing ``M``.  On a multi-disk machine the arity additionally
    shrinks toward prefetch/write-behind headroom — but never enough to
    add a merge pass over ``num_runs`` runs, since an extra pass costs a
    whole scan and headroom only steps.

    Deterministic given the same free budget, so a resumed
    checkpointed sort recomputes the same pass structure it crashed in.
    Raises :class:`~repro.core.exceptions.ConfigurationError` when even
    a binary merge cannot fit, or when a caller's ``fan_in`` needs more
    frames than are free — before the sort spends any I/O.
    """
    budget = budget if budget is not None else machine.budget
    frames = budget.available // machine.B
    writer_frames = stream_cls.writer_frames(machine)
    most = frames - writer_frames
    if fan_in is not None and fan_in > most:
        raise ConfigurationError(
            f"merge fan-in {fan_in} needs {fan_in + writer_frames} "
            f"frames but only {frames} are free"
        )
    arity = fan_in if fan_in is not None else min(machine.fan_in, most)
    if arity < 2:
        raise ConfigurationError(f"merge fan-in must be >= 2, got {arity}")
    if fan_in is None and machine.num_disks > 1 and num_runs > 1:
        target = max(2, min(arity, most - 2 * (machine.num_disks - 1)))
        if target < arity:
            passes = _merge_levels(num_runs, arity)
            low, high = 2, arity
            while low < high:
                mid = (low + high) // 2
                if _merge_levels(num_runs, mid) <= passes:
                    high = mid
                else:
                    low = mid + 1
            arity = max(target, low)
    return arity


def merge_pass_steps(
    machine: Machine,
    runs: List[FileStream],
    arity: int,
    key: Optional[Callable[[Any], Any]] = None,
    stream_cls=FileStream,
    level: int = 1,
    name_prefix: str = "merge",
    delete_inputs: bool = True,
    out: Optional[List[FileStream]] = None,
    budget=None,
):
    """One merge pass as a cooperative generator: consecutive groups
    of ``arity`` runs are each merged by :func:`merge_group_steps`.

    A lone straggler run is carried forward untouched (it then appears
    in both the input and output lists — don't double-delete it).  With
    ``delete_inputs``, every group's inputs are deleted the moment its
    merge lands, keeping peak disk usage ``O(N/B)`` blocks.  ``out``,
    when given, is used as the output list and filled incrementally, so
    a caller can see which group outputs already landed when the pass
    dies mid-merge and clean them up.  Returns the output list.
    """
    next_runs: List[FileStream] = [] if out is None else out
    for start in range(0, len(runs), arity):
        group = runs[start:start + arity]
        if len(group) == 1:
            next_runs.append(group[0])
            continue
        merged = yield from merge_group_steps(
            machine, group, key, stream_cls,
            f"{name_prefix}/{level}/{len(next_runs)}", budget,
        )
        if delete_inputs:
            for run in group:
                run.delete()
        next_runs.append(merged)
    return next_runs


def merge_pass(
    machine: Machine,
    runs: List[FileStream],
    arity: int,
    key: Optional[Callable[[Any], Any]] = None,
    stream_cls=FileStream,
    level: int = 1,
    name_prefix: str = "merge",
    delete_inputs: bool = True,
    out: Optional[List[FileStream]] = None,
) -> List[FileStream]:
    """One merge pass: the eager driver of :func:`merge_pass_steps`,
    traced as the phase ``{name_prefix}-pass-{level}``.

    The checkpointed sort passes ``delete_inputs=False`` and deletes
    inputs only after the pass's manifest commits, so a pass that dies
    mid-merge can be re-run from its surviving inputs; its ``out`` list
    shows which group outputs already landed.
    """
    with machine.trace(f"{name_prefix}-pass-{level}"):
        return drive(machine, merge_pass_steps(
            machine, runs, arity, key, stream_cls, level, name_prefix,
            delete_inputs, out,
        ))


def _merge_sort_theory(machine: Machine, n: int, call: dict) -> int:
    """``Sort(N)`` transfers with the call's actual merge arity
    (``fan_in=2`` reproduces the binary baseline's extra passes).
    D-independent: the sanitizer counts transfers, not steps."""
    fan_in = call.get("fan_in") or 0
    return sort_io(n, machine.M, machine.B, fan_in=fan_in)


@io_bound(_merge_sort_theory, factor=3.0)
def external_merge_sort(
    machine: Machine,
    stream: FileStream,
    key: Optional[Callable[[Any], Any]] = None,
    fan_in: Optional[int] = None,
    run_strategy: str = "load",
    stream_cls=FileStream,
    keep_input: bool = True,
) -> FileStream:
    """Sort ``stream`` by ``key`` using external merge sort.

    Args:
        machine: the external-memory machine to charge I/O to.
        key: key function; default sorts records directly.
        fan_in: merge arity; defaults to the machine maximum ``m - 1``
            (less a little headroom for prefetch and write-behind frames
            on multi-disk machines).  Lower values (e.g. 2) reproduce the
            naive baseline with more passes.
        run_strategy: ``"load"`` (memoryload runs of ``M``) or
            ``"replacement"`` (replacement selection, ~``2M`` runs).
        stream_cls: stream class for intermediates and output (pass
            :class:`~repro.core.stream.StripedStream` on multi-disk
            machines).
        keep_input: when false, the input stream's blocks are freed as soon
            as runs are formed.

    Returns a finalized sorted stream.  Intermediate runs are deleted, so
    peak disk usage stays ``O(N/B)`` blocks — also when a merge pass
    fails.  The sort is stable.
    """
    if run_strategy not in RUN_STRATEGIES:
        raise ConfigurationError(
            f"unknown run strategy {run_strategy!r}; "
            # em: ok(EM004) two-entry strategy-name dict in an error message
            f"choose from {sorted(RUN_STRATEGIES)}"
        )
    # Validate before forming runs: an un-mergeable configuration should
    # fail fast rather than after a full run-formation scan.
    plan_merge_arity(machine, 0, fan_in=fan_in, stream_cls=stream_cls)

    runs = RUN_STRATEGIES[run_strategy](
        machine, stream, key=key, stream_cls=stream_cls
    )
    if not keep_input:
        stream.delete()
    if not runs:
        return stream_cls(machine, name="sorted").finalize()

    landed: List[FileStream] = []
    try:
        arity = plan_merge_arity(
            machine, len(runs), fan_in=fan_in, stream_cls=stream_cls
        )
        level = 0
        while len(runs) > 1:
            level += 1
            landed = []
            runs = merge_pass(
                machine, runs, arity,
                key=key, stream_cls=stream_cls, level=level, out=landed,
            )
    except BaseException:
        # A failed pass leaves its surviving inputs and the outputs
        # that already landed; delete() is idempotent, so a straggler
        # in both lists (or an input already merged) is harmless.
        for run in runs + landed:
            run.delete()
        raise
    return runs[0]
