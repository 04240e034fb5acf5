"""Tests for Machine configuration, measurement, memory budget, streams."""

import math

import pytest

from repro.core import (
    ConfigurationError,
    FileStream,
    Machine,
    MemoryBudget,
    MemoryLimitExceeded,
    StreamError,
    StripedStream,
    scan_io,
)


class TestMachine:
    def test_derived_parameters(self):
        m = Machine(block_size=32, memory_blocks=8, num_disks=2)
        assert m.B == 32
        assert m.m == 8
        assert m.M == 256
        assert m.D == 2
        assert m.fan_in == 7

    def test_fan_in_on_minimal_machines(self):
        # Regression: fan_in once returned max(2, m - 1), claiming a
        # 2-frame machine could merge 2 ways (which needs 3 frames).
        assert Machine(block_size=4, memory_blocks=2).fan_in == 1
        assert Machine(block_size=4, memory_blocks=3).fan_in == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_size": 0, "memory_blocks": 4},
            {"block_size": 8, "memory_blocks": 1},
            {"block_size": 8, "memory_blocks": 4, "num_disks": 0},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Machine(**kwargs)

    def test_measure_reports_delta_only(self):
        m = Machine(block_size=4, memory_blocks=4)
        FileStream.from_records(m, range(40))  # pre-existing I/O
        with m.measure() as io:
            FileStream.from_records(m, range(20))
        assert io.writes == 5
        assert io.reads == 0

    def test_measure_flushes_dirty_pool_frames(self):
        m = Machine(block_size=4, memory_blocks=4)
        bid = m.disk.allocate()
        with m.measure() as io:
            m.pool.put_new(bid, [1, 2])
        assert io.writes == 1

    def test_reset_stats(self):
        m = Machine(block_size=4, memory_blocks=4)
        FileStream.from_records(m, range(40))
        m.reset_stats()
        assert m.stats().total == 0


class TestMemoryBudget:
    def test_acquire_release_cycle(self):
        b = MemoryBudget(100)
        b.acquire(60)
        assert b.in_use == 60
        assert b.available == 40
        b.release(60)
        assert b.in_use == 0
        assert b.peak == 60

    def test_overflow_raises(self):
        b = MemoryBudget(100)
        b.acquire(80)
        with pytest.raises(MemoryLimitExceeded):
            b.acquire(30)

    def test_reserve_context_manager_releases_on_error(self):
        b = MemoryBudget(100)
        with pytest.raises(ValueError):
            with b.reserve(50):
                raise ValueError("boom")
        assert b.in_use == 0

    def test_over_release_rejected(self):
        b = MemoryBudget(100)
        b.acquire(10)
        with pytest.raises(ConfigurationError):
            b.release(20)

    def test_exception_carries_details(self):
        b = MemoryBudget(10)
        b.acquire(5)
        with pytest.raises(MemoryLimitExceeded) as info:
            b.acquire(10)
        assert info.value.requested == 10
        assert info.value.in_use == 5
        assert info.value.capacity == 10


class TestFileStream:
    def test_round_trip_preserves_order(self):
        m = Machine(block_size=8, memory_blocks=4)
        data = list(range(100))
        s = FileStream.from_records(m, data)
        assert list(s) == data

    def test_empty_stream(self):
        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream(m).finalize()
        assert list(s) == []
        assert len(s) == 0
        assert s.num_blocks == 0

    def test_write_io_equals_scan_bound(self):
        m = Machine(block_size=8, memory_blocks=4)
        with m.measure() as io:
            FileStream.from_records(m, range(100))
        assert io.writes == scan_io(100, 8) == 13

    def test_read_io_equals_scan_bound(self):
        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream.from_records(m, range(100))
        with m.measure() as io:
            list(s)
        assert io.reads == scan_io(100, 8)

    def test_partial_final_block(self):
        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream.from_records(m, range(9))
        assert s.num_blocks == 2
        assert s.read_block(1) == [8]

    def test_append_after_finalize_raises(self):
        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream.from_records(m, range(4))
        with pytest.raises(StreamError):
            s.append(5)

    def test_read_before_finalize_raises(self):
        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream(m)
        s.append(1)
        with pytest.raises(StreamError):
            iter(s)

    def test_finalize_is_idempotent(self):
        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream.from_records(m, range(4))
        s.finalize()
        assert list(s) == list(range(4))

    def test_delete_frees_blocks(self):
        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream.from_records(m, range(64))
        before = m.disk.allocated_blocks
        s.delete()
        assert m.disk.allocated_blocks == before - 8
        with pytest.raises(StreamError):
            list(s)

    def test_delete_is_idempotent(self):
        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream.from_records(m, range(8))
        s.delete()
        s.delete()

    def test_read_block_out_of_range(self):
        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream.from_records(m, range(8))
        with pytest.raises(StreamError):
            s.read_block(5)

    def test_writer_reserves_one_frame(self):
        m = Machine(block_size=8, memory_blocks=2)
        s = FileStream(m)
        s.append(1)
        assert m.budget.in_use == 8
        s.finalize()
        assert m.budget.in_use == 0

    def test_abandoned_reader_releases_budget(self):
        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream.from_records(m, range(64))
        it = iter(s)
        next(it)
        assert m.budget.in_use == 8
        it.close()
        assert m.budget.in_use == 0

    def test_multiple_concurrent_readers(self):
        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream.from_records(m, range(16))
        pairs = list(zip(iter(s), iter(s)))
        assert all(a == b for a, b in pairs)
        assert len(pairs) == 16

    @pytest.mark.parametrize("stream_cls", [FileStream, StripedStream])
    @pytest.mark.parametrize("D", [1, 4])
    @pytest.mark.parametrize("typed", [False, True])
    def test_append_payload_cuts_blocks_as_append(self, typed, D,
                                                  stream_cls):
        import numpy as np

        values = np.arange(1000, dtype=np.int64)
        payload = values if typed else values.tolist()
        sizes = [1, 7, 8, 3, 40, 0, 17, 9, 64, 5]
        outcomes = []
        for batched in (False, True):
            m = Machine(block_size=8, memory_blocks=16, num_disks=D)
            s = stream_cls(m)
            start = turn = 0
            while start < len(payload):
                size = sizes[turn % len(sizes)]
                chunk = payload[start:start + size]
                if batched:
                    s.append_payload(chunk)
                else:
                    for record in chunk:
                        s.append(record)
                start += size
                turn += 1
            s.finalize()
            blocks = [m.disk.peek(b) for b in s.block_ids]
            outcomes.append((m.stats(), m.budget.peak, len(s),
                             [list(block) for block in blocks]))
            if batched:
                # Typed payloads land as typed blocks, the short
                # tail included.
                assert all(isinstance(block, np.ndarray) == typed
                           for block in blocks)
            assert m.budget.in_use == 0
        assert outcomes[0] == outcomes[1]

    def test_append_after_typed_tail_keeps_order(self):
        import numpy as np

        m = Machine(block_size=8, memory_blocks=4)
        s = FileStream(m)
        s.append_payload(np.arange(5, dtype=np.int64))
        s.append(5)
        s.append_payload([6, 7, 8])
        s.finalize()
        assert [int(v) for v in s] == list(range(9))


class TestStripedStream:
    def test_round_trip(self):
        m = Machine(block_size=8, memory_blocks=8, num_disks=4)
        data = list(range(100))
        s = StripedStream.from_records(m, data)
        assert list(s) == data

    def test_blocks_spread_across_disks(self):
        m = Machine(block_size=4, memory_blocks=8, num_disks=4)
        s = StripedStream.from_records(m, range(32))
        disks = {m.disk.disk_of(bid) for bid in s._block_ids}
        assert disks == {0, 1, 2, 3}

    def test_scan_steps_divided_by_d(self):
        m = Machine(block_size=4, memory_blocks=16, num_disks=4)
        s = StripedStream.from_records(m, range(64))  # 16 blocks
        m.reset_stats()
        list(s)
        stats = m.stats()
        assert stats.reads == 16
        assert stats.read_steps == 4  # 16 blocks / 4 disks

    def test_write_steps_divided_by_d(self):
        m = Machine(block_size=4, memory_blocks=16, num_disks=4)
        with m.measure() as io:
            StripedStream.from_records(m, range(64))
        assert io.writes == 16
        assert io.total_steps == 4

    def test_partial_stripe_flushed_on_finalize(self):
        m = Machine(block_size=4, memory_blocks=16, num_disks=4)
        s = StripedStream.from_records(m, range(10))  # 3 blocks < D
        assert list(s) == list(range(10))

    def test_empty_stream(self):
        m = Machine(block_size=4, memory_blocks=8, num_disks=4)
        s = StripedStream(m).finalize()
        assert list(s) == []
        assert s.num_blocks == 0
        assert m.stats().total == 0
        assert m.budget.in_use == 0

    def test_fewer_blocks_than_disks(self):
        m = Machine(block_size=4, memory_blocks=8, num_disks=4)
        s = StripedStream.from_records(m, range(10))  # 3 blocks < D
        assert s.num_blocks == 3
        assert list(s) == list(range(10))
        stats = m.stats()
        assert stats.writes == 3 and stats.write_steps == 1
        assert stats.reads == 3 and stats.read_steps == 1

    def test_finalize_twice_flushes_once(self):
        m = Machine(block_size=4, memory_blocks=8, num_disks=4)
        s = StripedStream(m)
        s.extend(range(10))
        s.finalize()
        writes = m.stats().writes
        s.finalize()
        assert m.stats().writes == writes  # no duplicate flush
        assert s.num_blocks == 3
        assert list(s) == list(range(10))

    def test_single_disk_striped_equals_plain(self):
        m = Machine(block_size=4, memory_blocks=8, num_disks=1)
        with m.measure() as io:
            s = StripedStream.from_records(m, range(40))
        assert io.writes == io.write_steps == 10
        assert list(s) == list(range(40))
