"""The cooperative merge sort keeps the exact I/O schedule of a
record-at-a-time heap merge.

``merge_sort_steps`` merges each group with
:func:`~repro.sort.merge.merge_group_steps`, a
:class:`~repro.sort.merge.BlockMerger` fed by forecast batches.  The
first oracle below is the per-record heap merge it replaced, taking its
refills through the same forecast batches; the second is the
record-wise fused pipeline sort its ``filter_fn``/``map_fn`` stages
replaced, merging with the shared group generator.  Each pair is run on
identical machines and must yield the same intents with the same block
writes between them, and leave the same ``IOStats``.
"""

from heapq import heapify, heappop, heappush

import numpy as np
import pytest

from repro.core import intents
from repro.core.exceptions import RetryExhaustedError
from repro.core.intents import StreamRead, drive, fulfill
from repro.core.machine import Machine
from repro.core.records import field
from repro.core.stream import FileStream
from repro.faults import FaultPlan
from repro.runtime.prefetch import ForecastingPrefetcher
from repro.service import QueryService, pipeline_job
from repro.sort import external_merge_sort, merge
from repro.sort.merge import merge_group_steps, plan_merge_arity
from repro.sort.runs import form_runs_steps
from repro.sort.steps import merge_sort_steps


def _heap_merge_group_steps(machine, group, key=None,
                            stream_cls=FileStream, name="merged",
                            budget=None):
    """Oracle: merge one group with one heap push/pop per record, its
    refills taken through the forecasting prefetcher's batches."""
    key = key if key is not None else (lambda record: record)
    B = machine.block_size
    budget = budget if budget is not None else machine.budget
    out = stream_cls(machine, name=name)
    writer_frames = stream_cls.writer_frames(machine)
    pin_slack = 0 if writer_frames >= machine.num_disks \
        else machine.num_disks - 1
    try:
        with budget.reserve(writer_frames * B):
            prefetcher = ForecastingPrefetcher(
                machine.runtime, [member.block_ids for member in group],
                key=key, pin_slack=pin_slack, budget=budget)
            try:
                blocks = []
                for index in range(len(group)):
                    block = yield from prefetcher.next_block(index)
                    blocks.append([] if block is None else block)
                offset = [1] * len(group)  # next record within the block
                heap = [(key(block[0]), index, block[0])
                        for index, block in enumerate(blocks) if len(block)]
                heapify(heap)
                buffer = []
                while heap:
                    _, index, record = heappop(heap)
                    buffer.append(record)
                    if len(buffer) == B:
                        out.append_block(buffer)
                        buffer = []
                    if offset[index] >= len(blocks[index]):
                        block = yield from prefetcher.next_block(index)
                        if block is None:
                            continue
                        blocks[index] = block
                        offset[index] = 0
                    record = blocks[index][offset[index]]
                    offset[index] += 1
                    heappush(heap, (key(record), index, record))
                if buffer:
                    out.append_block(buffer)
            finally:
                prefetcher.close()
            return out.finalize()
    except BaseException:
        out.delete()
        raise


def _pipeline_sort_steps(machine, stream, key=None, map_fn=None,
                         filter_fn=None, budget=None, name="coop"):
    """Oracle: the fused pipeline sort with record-wise stages — lists
    of records, a ``(key, index)`` pair sort per memoryload — merging
    with the shared group generator."""
    key = key if key is not None else (lambda record: record)
    budget = budget if budget is not None else machine.budget
    B = machine.block_size
    block_ids = list(stream.block_ids)
    spare = machine.num_disks - 1
    blocks_per_run = max(
        1, min(machine.m - spare, budget.available // B - spare)
    )
    if blocks_per_run > machine.num_disks:
        blocks_per_run -= blocks_per_run % machine.num_disks
    runs = []
    for start in range(0, len(block_ids), blocks_per_run):
        wanted = block_ids[start:start + blocks_per_run]
        with budget.reserve(len(wanted) * B):
            payloads = yield StreamRead(wanted)
            chunk = [record for payload in payloads for record in payload]
            if filter_fn is not None:
                chunk = [record for record in chunk if filter_fn(record)]
            if map_fn is not None:
                chunk = [map_fn(record) for record in chunk]
            pairs = [(key(record), index)
                     for index, record in enumerate(chunk)]
            pairs.sort()
            if pairs:
                run = FileStream(machine, name=f"{name}/run/{len(runs)}")
                for offset in range(0, len(pairs), B):
                    run.append_block([chunk[index] for _, index
                                      in pairs[offset:offset + B]])
                runs.append(run.finalize())
    if not runs:
        return FileStream(machine, name=f"{name}/sorted").finalize()
    arity = plan_merge_arity(machine, len(runs), budget=budget)
    level = 0
    while len(runs) > 1:
        level += 1
        next_runs = []
        for start in range(0, len(runs), arity):
            group = runs[start:start + arity]
            if len(group) == 1:
                next_runs.append(group[0])
                continue
            next_runs.append((yield from merge_group_steps(
                machine, group, key,
                name=f"{name}/merge/{level}/{len(next_runs)}",
                budget=budget,
            )))
            for member in group:
                member.delete()
        runs = next_runs
    return runs[0]


def _plain(record):
    return record.item() if hasattr(record, "item") else record


def _values(stream):
    return [_plain(record)
            for block in stream.iter_blocks() for record in block]


def _sort(data, key, D, monkeypatch, sort_steps=merge_sort_steps,
          **stages):
    """Drive ``sort_steps`` on a fresh machine, recording every intent
    and every block write in one sequence; returns (events, IOStats
    delta, output values, in_use)."""
    machine = Machine(block_size=8, memory_blocks=6, num_disks=D)
    if isinstance(data, np.ndarray):
        stream = FileStream.from_payload(machine, data)
    else:
        stream = FileStream.from_records(machine, data)
    events = []
    append_block = FileStream.append_block
    append_blocks = FileStream.append_blocks

    def recording_append_block(self, records):
        events.append(("write", self.name, len(records)))
        append_block(self, records)

    def recording_append_blocks(self, payloads):
        events.extend(("write", self.name, len(records))
                      for records in payloads)
        append_blocks(self, payloads)

    monkeypatch.setattr(FileStream, "append_block", recording_append_block)
    monkeypatch.setattr(FileStream, "append_blocks",
                        recording_append_blocks)
    before = machine.stats()
    job = sort_steps(machine, stream, key=key, **stages)
    payloads = None
    try:
        while True:
            intent = job.send(payloads)
            if intent is None:  # a checkpoint: no I/O requested
                events.append(("checkpoint",))
                payloads = None
                continue
            events.append((type(intent).__name__, intent.block_ids))
            payloads = fulfill(machine, intent)
    except StopIteration as done:
        out = done.value
    monkeypatch.setattr(FileStream, "append_block", append_block)
    monkeypatch.setattr(FileStream, "append_blocks", append_blocks)
    return events, machine.stats() - before, _values(out), \
        machine.budget.in_use


def _inputs():
    rng = np.random.default_rng(7)
    n = 1512
    info = np.iinfo(np.int64)

    # Keys in 0..3 tie from the first blocks on.  In ``late_ties``
    # every 24 records start with 8 distinct negative keys, so each
    # run's first block is unique and runs first share keys mid-merge.
    late_ties = rng.integers(0, 40, n)
    late_ties.reshape(-1, 24)[:, :8] = -1 - np.arange(n // 3).reshape(-1, 8)

    def structured(keys):
        records = np.zeros(n, dtype=[("k", "<i8"), ("v", "<i8")])
        records["k"] = keys
        records["v"] = np.arange(n)
        return records

    tagged = [(int(k), tag) for tag, k in enumerate(rng.integers(0, 4, n))]
    return {
        "random_int64": (rng.integers(info.min, info.max, n), None),
        "ties_int64": (rng.integers(0, 4, n).astype(np.int64), None),
        "late_ties_int64": (late_ties, None),
        "structured_field": (structured(rng.integers(0, 6, n)), field("k")),
        "late_ties_structured_field": (structured(late_ties), field("k")),
        "tuples_lambda": (tagged, lambda record: record[0]),
    }


INPUTS = _inputs()


@pytest.mark.parametrize("D", [1, 4])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cooperative_sort_keeps_heap_merge_schedule(monkeypatch, name, D):
    data, key = INPUTS[name]
    merges = []
    original = merge.merge_group_steps

    def counting(machine, group, key, stream_cls, name, budget):
        merges.append(name)
        return original(machine, group, key, stream_cls, name, budget)

    monkeypatch.setattr(merge, "merge_group_steps", counting)
    events, stats, out, in_use = _sort(data, key, D, monkeypatch)
    monkeypatch.setattr(merge, "merge_group_steps", _heap_merge_group_steps)
    want_events, want_stats, want_out, want_in_use = _sort(
        data, key, D, monkeypatch)

    assert any("/merge/2/" in name for name in merges)
    assert events == want_events
    assert stats == want_stats
    assert out == want_out
    assert in_use == want_in_use == 0
    if isinstance(data, np.ndarray):
        keys = data["k"] if data.dtype.names else data
        assert out == data[np.argsort(keys, kind="stable")].tolist()
    else:
        assert out == sorted(data, key=key)


def _stage_inputs():
    rng = np.random.default_rng(11)
    n = 1512
    # Every key in the first 48 records (one D=1 memoryload, two D=4
    # ones) is a multiple of 3, so the filter below empties it.
    keys = rng.integers(0, 300, n)
    keys[:48] = 3 * rng.integers(0, 100, 48)
    tagged = [(int(k), tag) for tag, k in enumerate(keys)]
    return {
        "tuples": (tagged, lambda r: r[0] % 3 != 0,
                   lambda r: (r[0] // 4, r[1]), lambda r: r[0]),
        "int64": (keys.astype(np.int64), lambda r: r % 3 != 0,
                  lambda r: -(r // 4), None),
    }


STAGE_INPUTS = _stage_inputs()


@pytest.mark.parametrize("D", [1, 4])
@pytest.mark.parametrize("name", sorted(STAGE_INPUTS))
def test_stages_keep_pipeline_sort_schedule(monkeypatch, name, D):
    """``filter_fn`` then ``map_fn`` on each memoryload, then the
    key-pointer sort: the same intents, writes, ``IOStats`` and output
    as the record-wise pipeline sort, and no run for an emptied load."""
    data, filter_fn, map_fn, key = STAGE_INPUTS[name]
    events, stats, out, in_use = _sort(
        data, key, D, monkeypatch, filter_fn=filter_fn, map_fn=map_fn)
    want_events, want_stats, want_out, want_in_use = _sort(
        data, key, D, monkeypatch, sort_steps=_pipeline_sort_steps,
        filter_fn=filter_fn, map_fn=map_fn)

    writes = [event[1] for event in events if event[0] == "write"]
    assert any("/merge/2/" in write for write in writes)
    # The filter emptied the first memoryload: no run write follows it.
    assert [event[0] for event in events[:2]] == ["StreamRead"] * 2
    assert events == want_events
    assert stats == want_stats
    assert out == want_out
    assert in_use == want_in_use == 0
    kept = [map_fn(r) for r in data if filter_fn(r)]
    assert out == [_plain(r) for r in sorted(kept, key=key)]


def test_pipeline_job_without_stages_keeps_typed_blocks():
    machine = Machine(block_size=8, memory_blocks=6, num_disks=2)
    data = np.random.default_rng(3).integers(0, 1000, 400)
    stream = FileStream.from_payload(machine, data)
    service = QueryService(machine)
    service.add_tenant("olap")
    job = service.submit("olap", pipeline_job(machine, stream))
    service.run()
    blocks = list(job.result.iter_blocks())
    assert all(isinstance(block, np.ndarray) and block.dtype == np.int64
               for block in blocks)
    assert np.concatenate(blocks).tolist() == sorted(data.tolist())
    assert machine.budget.in_use == 0


def _parity_inputs():
    rng = np.random.default_rng(5)
    n = 3000
    return {
        "int64": rng.integers(-10**6, 10**6, n),
        "tuples": [(int(k), tag)
                   for tag, k in enumerate(rng.integers(0, 50, n))],
    }


PARITY_INPUTS = _parity_inputs()


def _parity_machine(data, D):
    machine = Machine(block_size=16, memory_blocks=8, num_disks=D)
    if isinstance(data, np.ndarray):
        return machine, FileStream.from_payload(machine, data)
    return machine, FileStream.from_records(machine, data)


@pytest.mark.parametrize("D", [1, 4])
@pytest.mark.parametrize("name", sorted(PARITY_INPUTS))
def test_eager_and_cooperative_drivers_agree(name, D):
    """``external_merge_sort`` and ``drive(merge_sort_steps)`` run the
    same phase generators: equal output and transfers, identical
    ``IOStats`` on one disk, and the budget back to zero."""
    data = PARITY_INPUTS[name]
    results = []
    for sort in (external_merge_sort,
                 lambda m, s: drive(m, merge_sort_steps(m, s))):
        machine, stream = _parity_machine(data, D)
        machine.reset_stats()
        out = sort(machine, stream)
        assert machine.budget.in_use == 0
        results.append((_values(out), machine.stats()))
    (eager_out, eager_stats), (coop_out, coop_stats) = results
    assert eager_out == coop_out == sorted(_plain(r) for r in data)
    assert eager_stats.total == coop_stats.total
    if D == 1:
        assert eager_stats == coop_stats


def test_read_failure_mid_merge_leaks_nothing(monkeypatch):
    """A read that exhausts its retries inside a forecast batch of the
    first merge (D=4: the batch also pinned staging frames for other
    runs) fails the cooperative sort with every intermediate block
    freed and every frame — staging pins included — released."""
    data = PARITY_INPUTS["int64"]

    def fresh():
        machine = Machine(block_size=16, memory_blocks=16, num_disks=4)
        return machine, FileStream.from_payload(machine, data)

    machine, stream = fresh()
    runs = drive(machine, form_runs_steps(machine, stream,
                                          name="coop/run"))
    # Allocation is deterministic: on a fresh machine the sort's runs
    # get the same block ids.
    victim = runs[0].block_ids[1]
    machine, stream = fresh()
    served = []

    def recording_fulfill(machine, intent):
        served.append(intent)
        return fulfill(machine, intent)

    monkeypatch.setattr(intents, "fulfill", recording_fulfill)
    plan = FaultPlan(fail_block_reads={victim: None})
    with machine.inject_faults(plan):
        with pytest.raises(RetryExhaustedError):
            drive(machine, merge_sort_steps(machine, stream))
    assert victim in served[-1].block_ids
    assert len(served[-1].block_ids) > 1  # staging pins were taken
    assert machine.disk.allocated_blocks == stream.num_blocks
    assert machine.budget.in_use == 0
