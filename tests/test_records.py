"""Tests for typed block payloads (``repro.core.records``) and the
raw-speed bugfixes that ride on them: the single-copy ``DiskArray.write``
path, the canonical-bytes checksum (no ``repr`` elision collisions), and
type preservation through the buffer pool and torn-write paths.
"""

import random
from array import array
from typing import Any, Sequence

import numpy as np
import pytest

from repro.core import (
    BlockBuilder,
    BufferPool,
    DiskArray,
    Machine,
    argsort,
    canonical_bytes,
    concat,
    copy_payload,
    decode_block,
    encode_block,
    field,
    is_typed,
    key_column,
    key_list,
    take,
)
from repro.core.disk import block_checksum
from repro.core.stream import FileStream
from repro.faults.plan import FaultPlan


def machine(B=8, m=6, D=1):
    return Machine(block_size=B, memory_blocks=m, num_disks=D)


# ----------------------------------------------------------------------
# representation helpers
# ----------------------------------------------------------------------
class TestHelpers:
    @pytest.mark.parametrize("payload", [
        [3, 1, 2],
        array("i", [3, 1, 2]),
        np.array([3, 1, 2]),
    ])
    def test_copy_preserves_representation(self, payload):
        copied = copy_payload(payload)
        assert type(copied) is type(payload)
        assert list(copied) == list(payload)
        assert copied is not payload

    def test_copy_compacts_ndarray_views(self):
        base = np.arange(10)
        view = base[2:5]
        copied = copy_payload(view)
        base[3] = 99
        assert list(copied) == [2, 3, 4]
        assert copied.base is None  # owns its buffer

    def test_is_typed(self):
        assert is_typed(np.arange(3))
        assert is_typed(array("d", [1.0]))
        assert not is_typed([1, 2, 3])
        assert not is_typed((1, 2, 3))

    def test_concat_same_representation(self):
        assert concat([[1], [2, 3]]) == [1, 2, 3]
        out = concat([np.array([1, 2]), np.array([3])])
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [1, 2, 3]
        out = concat([array("i", [1]), array("i", [2])])
        assert isinstance(out, array)
        assert out.tolist() == [1, 2]

    def test_concat_mixed_falls_back_to_list(self):
        assert concat([np.array([1]), [2]]) == [1, 2]
        assert concat([]) == []

    def test_take(self):
        assert take([10, 20, 30], [2, 0]) == [30, 10]
        out = take(np.array([10, 20, 30]), [2, 0])
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [30, 10]
        out = take(array("i", [10, 20, 30]), [2, 0])
        assert isinstance(out, array)
        assert out.tolist() == [30, 10]

    @pytest.mark.parametrize("payload", [
        [5, 1, 4, 1, 3],
        array("i", [5, 1, 4, 1, 3]),
        np.array([5, 1, 4, 1, 3]),
    ])
    def test_argsort_matches_sorted(self, payload):
        order = argsort(payload)
        assert [payload[i] for i in order] == sorted(payload)

    def test_argsort_is_stable(self):
        payload = [(2, "a"), (1, "b"), (2, "c"), (1, "d")]
        order = argsort(payload, key=lambda r: r[0])
        assert [payload[i] for i in order] == [
            (1, "b"), (1, "d"), (2, "a"), (2, "c")
        ]

    def test_field_key_vectorizes_on_structured_arrays(self):
        payload = np.array([(3, 0.5), (1, 1.5)],
                           dtype=[("k", "i4"), ("v", "f8")])
        column = key_column(payload, field("k"))
        assert isinstance(column, np.ndarray)
        assert column.tolist() == [3, 1]
        order = argsort(payload, field("k"))
        assert list(order) == [1, 0]
        # And the scalar protocol still works record-at-a-time.
        assert field("k")(payload[0]) == 3

    def test_key_column_is_none_for_object_payloads(self):
        assert key_column([1, 2, 3]) is None
        assert key_column(np.arange(3), key=lambda r: -r) is None

    def test_key_list_plain_scalars(self):
        keys = key_list(np.array([3, 1, 2]))
        assert keys == [3, 1, 2]
        assert all(type(k) is int for k in keys)
        assert key_list([(1, "a")], key=lambda r: r[0]) == [1]


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
class TestEncodeDecode:
    @pytest.mark.parametrize("payload", [
        [1, "two", (3, 4)],
        array("d", [1.5, 2.5]),
        np.arange(6, dtype=np.int64),
        np.array([1.0, 2.0], dtype=np.float32),
        np.array([(1, 2.0)], dtype=[("a", "i4"), ("b", "f8")]),
        [],
    ])
    def test_round_trip(self, payload):
        out = decode_block(encode_block(payload))
        assert type(out) is type(payload)
        assert list(out) == list(payload)
        if isinstance(payload, np.ndarray):
            assert out.dtype == payload.dtype

    def test_decoded_ndarray_is_writable(self):
        out = decode_block(encode_block(np.arange(4)))
        out[0] = 7  # frombuffer alone would be read-only
        assert out[0] == 7

    def test_object_dtype_arrays_pickle_whole(self):
        payload = np.array([{"a": 1}, None], dtype=object)
        out = decode_block(encode_block(payload))
        assert isinstance(out, np.ndarray)
        assert out[0] == {"a": 1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            decode_block(b"Zjunk")


# ----------------------------------------------------------------------
# the checksum bugfix: canonical bytes, not repr
# ----------------------------------------------------------------------
class TestCanonicalBytes:
    def test_elided_middle_no_longer_collides(self):
        # numpy reprs of large arrays elide the middle with `...`; the
        # seed checksummed repr(list(...)) of the *payload object*, so
        # two ndarray blocks differing only in elided elements hashed
        # identically and a torn write there went undetected.
        a = np.arange(10_000)
        b = a.copy()
        b[5_000] = -1
        assert "..." in repr(a)  # the premise: repr elides
        assert repr(a.tolist()) != repr(b.tolist())  # lists are honest
        assert canonical_bytes(a) != canonical_bytes(b)
        assert block_checksum(a) != block_checksum(b)

    def test_dtype_reinterpretation_does_not_collide(self):
        ones = np.ones(4, dtype=np.int32)
        same_bytes = ones.view(np.uint32)
        assert ones.tobytes() == same_bytes.tobytes()
        assert canonical_bytes(ones) != canonical_bytes(same_bytes)

    def test_equal_object_blocks_agree(self):
        assert canonical_bytes([1, 2, 3]) == canonical_bytes([1, 2, 3])
        assert canonical_bytes([1, 2, 3]) != canonical_bytes([1, 2, 4])

    def test_unpicklable_records_fall_back_to_repr(self):
        payload = [lambda: None]
        assert canonical_bytes(payload).startswith(b"R:")


# ----------------------------------------------------------------------
# the single-copy write bugfix
# ----------------------------------------------------------------------
class _CountingSeq(Sequence):
    """A payload that counts how many times it is materialized."""

    def __init__(self, records):
        self._records = list(records)
        self.iterations = 0

    def __len__(self):
        return len(self._records)

    def __getitem__(self, index):
        return self._records[index]

    def __iter__(self):
        self.iterations += 1
        return iter(self._records)


class TestSingleCopyWrite:
    def test_write_copies_payload_exactly_once(self):
        disk = DiskArray(block_capacity=4)
        block = disk.allocate()
        payload = _CountingSeq([1, 2, 3, 4])
        disk.write(block, payload)
        # The seed copied in _pre_write AND again in write(): two
        # materializations of the caller's sequence per store.
        assert payload.iterations == 1

    def test_write_counters_unchanged(self):
        disk = DiskArray(block_capacity=4)
        block = disk.allocate()
        disk.write(block, [1, 2, 3, 4])
        stats = disk.counter.snapshot()
        assert stats.writes == 1
        assert stats.reads == 0
        assert stats.write_steps == 1

    def test_stored_payload_is_isolated_from_caller(self):
        disk = DiskArray(block_capacity=4)
        block = disk.allocate()
        records = [1, 2, 3]
        disk.write(block, records)
        records.append(99)  # caller mutation must not reach the disk
        assert disk.read(block) == [1, 2, 3]
        read_back = disk.read(block)
        read_back.append(77)  # nor reader mutation
        assert disk.read(block) == [1, 2, 3]

    def test_typed_payload_stored_typed(self):
        disk = DiskArray(block_capacity=4)
        block = disk.allocate()
        payload = np.array([1, 2, 3, 4], dtype=np.int16)
        disk.write(block, payload)
        out = disk.read(block)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.int16
        payload[0] = 99
        assert disk.read(block)[0] == 1


# ----------------------------------------------------------------------
# type preservation through the machine's plumbing
# ----------------------------------------------------------------------
class TestTypePreservation:
    def test_buffer_pool_round_trip_preserves_type(self):
        disk = DiskArray(block_capacity=4)
        pool = BufferPool(disk, capacity=2)
        blocks = [disk.allocate() for _ in range(3)]
        pool.put_new(blocks[0], np.array([1, 2, 3, 4], dtype=np.int32))
        pool.put_new(blocks[1], array("d", [1.0, 2.0]))
        pool.put_new(blocks[2], [1, 2])  # evicts block 0 to disk
        pool.flush_all()
        pool.drop_all()
        out = pool.get(blocks[0])  # miss: reloaded from disk
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.int32
        assert isinstance(pool.get(blocks[1]), array)
        assert isinstance(pool.get(blocks[2]), list)

    def test_stream_round_trip_preserves_type(self):
        m = machine()
        payload = np.arange(50, dtype=np.int64)
        stream = FileStream.from_payload(m, payload)
        for block in stream.iter_blocks():
            assert isinstance(block, np.ndarray)
            assert block.dtype == np.int64
        chunk = stream.read_block_range(0, stream.num_blocks)
        assert isinstance(chunk, np.ndarray)
        assert chunk.tolist() == payload.tolist()

    def test_torn_prefix_preserves_type(self):
        m = machine()
        with m.inject_faults(FaultPlan(torn_writes={0})):
            stream = FileStream.from_payload(
                m, np.arange(2 * m.B, dtype=np.int32)
            )
        torn = m.disk.peek(stream.block_ids[0])
        assert isinstance(torn, np.ndarray)
        assert 0 < len(torn) < m.B

    def test_scheduler_write_path_preserves_type(self):
        m = machine()
        block = m.disk.allocate()
        m.runtime.scheduler.queue_write(
            block, np.array([1, 2, 3], dtype=np.int8)
        )
        m.runtime.scheduler.drain()
        out = m.disk.read(block)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.int8

    def test_cooperative_sort_preserves_type(self, monkeypatch):
        from repro.core.intents import drive
        from repro.sort import merge_sort_steps
        m = machine()
        data = np.random.default_rng(3).integers(-999, 999, 400)
        stream = FileStream.from_payload(m, data)
        written = []
        append_block = FileStream.append_block
        append_blocks = FileStream.append_blocks

        def spy(self, records):
            written.append(records)
            append_block(self, records)

        def spy_batch(self, payloads):
            written.extend(payloads)
            append_blocks(self, payloads)

        monkeypatch.setattr(FileStream, "append_block", spy)
        monkeypatch.setattr(FileStream, "append_blocks", spy_batch)
        out = drive(m, merge_sort_steps(m, stream))
        # Runs (one batch per memoryload) and merge outputs (block by
        # block) are both written as whole blocks.
        assert len(written) > 2 * stream.num_blocks
        for block in written + list(out.iter_blocks()):
            assert isinstance(block, np.ndarray)
            assert block.dtype == data.dtype
        assert list(out) == sorted(data.tolist())


# ----------------------------------------------------------------------
# block assembly
# ----------------------------------------------------------------------
class TestBlockBuilder:
    def test_exact_blocks_and_final_partial(self):
        out = []
        builder = BlockBuilder(4, out.append)
        builder.push([1, 2, 3])
        builder.push([4, 5, 6, 7, 8, 9])
        builder.flush()
        assert [list(b) for b in out] == [[1, 2, 3, 4], [5, 6, 7, 8], [9]]

    def test_aligned_full_blocks_pass_through(self):
        out = []
        builder = BlockBuilder(4, out.append)
        payload = np.arange(8)
        builder.push(payload)
        assert len(out) == 2
        assert all(isinstance(b, np.ndarray) for b in out)
        builder.flush()
        assert len(out) == 2  # nothing pending

    def test_segment_slices(self):
        out = []
        builder = BlockBuilder(3, out.append)
        builder.push([0, 1, 2, 3, 4, 5], start=1, stop=5)
        builder.flush()
        assert [list(b) for b in out] == [[1, 2, 3], [4]]

    def test_mixed_representations_concat_to_list(self):
        out = []
        builder = BlockBuilder(4, out.append)
        builder.push(np.array([1, 2]))
        builder.push([3, 4])
        assert [list(b) for b in out] == [[1, 2, 3, 4]]


# ----------------------------------------------------------------------
# the typed path sorts correctly end to end
# ----------------------------------------------------------------------
class TestTypedSortEndToEnd:
    def test_merge_sort_on_ndarray_stream(self):
        from repro.sort.merge import external_merge_sort
        m = machine()
        rng = random.Random(3)
        data = np.array([rng.randrange(10_000) for _ in range(300)])
        stream = FileStream.from_payload(m, data)
        out = external_merge_sort(m, stream)
        assert list(out) == sorted(data.tolist())
        # Sorted runs were written as typed blocks, not object lists.
        for block in out.iter_blocks():
            assert isinstance(block, np.ndarray)

    def test_distribution_sort_on_ndarray_stream(self):
        from repro.sort.distribution import distribution_sort
        m = machine(B=8, m=8)
        rng = random.Random(4)
        data = np.array([rng.randrange(500) for _ in range(400)])
        stream = FileStream.from_payload(m, data)
        out = distribution_sort(m, stream)
        assert list(out) == sorted(data.tolist())

    def test_sorter_pipeline_matches_object_path(self):
        from repro.pipeline.sorter import Sorter
        m = machine()
        rng = random.Random(5)
        data = [rng.randrange(1000) for _ in range(200)]
        with Sorter(m) as sorter:
            sorter.consume(iter(data))
            assert list(sorter) == sorted(data)
        assert m.budget.in_use == 0
