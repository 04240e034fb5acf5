"""The cooperative merge sort keeps the exact I/O schedule of a
record-at-a-time heap merge.

``merge_sort_steps`` merges with :class:`~repro.sort.merge.BlockMerger`.
The oracle below is the per-record heap merge it replaced; both are run
on identical machines and must yield the same intents with the same
block writes between them, and leave the same ``IOStats``.
"""

from heapq import heapify, heappop, heappush

import numpy as np
import pytest

from repro.core.intents import StreamRead, fulfill
from repro.core.machine import Machine
from repro.core.records import field
from repro.core.stream import FileStream
from repro.sort import steps
from repro.sort.steps import merge_sort_steps


def _heap_merge_group_steps(machine, group, key, budget, name):
    """Oracle: merge one group with one heap push/pop per record."""
    B = machine.block_size
    ids = [list(member.block_ids) for member in group]
    out = FileStream(machine, name=name)
    with budget.reserve((len(group) + 1) * B):
        try:
            first = [run_ids[0] for run_ids in ids if run_ids]
            payloads = iter((yield StreamRead(first)))
            blocks = [next(payloads) if run_ids else [] for run_ids in ids]
            cursor = [1] * len(group)  # next block to fetch per run
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
                    if cursor[index] == len(ids[index]):
                        continue
                    [blocks[index]] = yield StreamRead(
                        [ids[index][cursor[index]]])
                    cursor[index] += 1
                    offset[index] = 0
                record = blocks[index][offset[index]]
                offset[index] += 1
                heappush(heap, (key(record), index, record))
            if buffer:
                out.append_block(buffer)
        except BaseException:
            out.delete()
            raise
    return out.finalize()


def _values(stream):
    return [record.item() if hasattr(record, "item") else record
            for block in stream.iter_blocks() for record in block]


def _sort(data, key, D, monkeypatch):
    """Drive ``merge_sort_steps`` on a fresh machine, recording every
    intent and every block write in one sequence; returns (events,
    IOStats delta, output values, in_use)."""
    machine = Machine(block_size=8, memory_blocks=6, num_disks=D)
    if isinstance(data, np.ndarray):
        stream = FileStream.from_payload(machine, data)
    else:
        stream = FileStream.from_records(machine, data)
    events = []
    append_block = FileStream.append_block

    def recording_append_block(self, records):
        events.append(("write", self.name, len(records)))
        append_block(self, records)

    monkeypatch.setattr(FileStream, "append_block", recording_append_block)
    before = machine.stats()
    job = merge_sort_steps(machine, stream, key=key)
    payloads = None
    try:
        while True:
            intent = job.send(payloads)
            events.append((type(intent).__name__, intent.block_ids))
            payloads = fulfill(machine, intent)
    except StopIteration as done:
        out = done.value
    monkeypatch.setattr(FileStream, "append_block", append_block)
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
    original = steps._merge_group_steps

    def counting(machine, group, key, budget, name):
        merges.append(name)
        return original(machine, group, key, budget, name)

    monkeypatch.setattr(steps, "_merge_group_steps", counting)
    events, stats, out, in_use = _sort(data, key, D, monkeypatch)
    monkeypatch.setattr(steps, "_merge_group_steps", _heap_merge_group_steps)
    want_events, want_stats, want_out, want_in_use = _sort(
        data, key, D, monkeypatch)

    assert any("/merge-2/" in merge for merge in merges)
    assert events == want_events
    assert stats == want_stats
    assert out == want_out
    assert in_use == want_in_use == 0
    if isinstance(data, np.ndarray):
        keys = data["k"] if data.dtype.names else data
        assert out == data[np.argsort(keys, kind="stable")].tolist()
    else:
        assert out == sorted(data, key=key)
