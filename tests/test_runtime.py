"""Tests for the I/O runtime: scheduler, write-behind, prefetch."""

from math import ceil

import pytest

from repro.core import (
    ConfigurationError,
    FileStream,
    Machine,
    StripedStream,
)
from repro.core.exceptions import RetryExhaustedError
from repro.faults import FaultPlan
from repro.runtime import ForecastingPrefetcher, read_ahead
from repro.sort import external_merge_sort, merge_streams
from repro.workloads import uniform_ints


def machine_with_blocks(num_disks, num_blocks, block_size=4,
                        memory_blocks=8):
    """A machine plus ``num_blocks`` allocated blocks striped over its
    disks, each holding a distinct payload."""
    machine = Machine(block_size=block_size, memory_blocks=memory_blocks,
                      num_disks=num_disks)
    block_ids = []
    for index in range(num_blocks):
        block_id = machine.disk.allocate(index % num_disks)
        machine.disk.write(block_id, [index] * block_size)
        block_ids.append(block_id)
    machine.reset_stats()
    return machine, block_ids


class TestIOScheduler:
    def test_disk_distinct_batch_is_one_step(self):
        machine, blocks = machine_with_blocks(4, 4)
        payloads = machine.runtime.scheduler.read_batch(blocks)
        assert payloads == [[i] * 4 for i in range(4)]
        stats = machine.stats()
        assert stats.reads == 4
        assert stats.read_steps == 1

    def test_same_disk_requests_take_one_step_each(self):
        machine, _ = machine_with_blocks(4, 0)
        blocks = [machine.disk.allocate(0) for _ in range(3)]
        for block_id in blocks:
            machine.disk.write(block_id, [block_id])
        machine.reset_stats()
        machine.runtime.scheduler.read_batch(blocks)
        assert machine.stats().read_steps == 3

    def test_drain_issues_writes_before_reads(self):
        machine, blocks = machine_with_blocks(2, 2)
        scheduler = machine.runtime.scheduler
        scheduler.queue_write(blocks[0], ["new"])
        scheduler.queue_read(blocks[0])
        results = scheduler.drain()
        assert results[blocks[0]] == ["new"]

    def test_waves_larger_than_d_split_into_steps(self):
        machine, blocks = machine_with_blocks(2, 6)  # 3 blocks per disk
        machine.runtime.scheduler.read_batch(blocks)
        stats = machine.stats()
        assert stats.reads == 6
        assert stats.read_steps == 3

    def test_write_batch_counts_parallel_steps(self):
        machine, blocks = machine_with_blocks(4, 4)
        machine.runtime.scheduler.write_batch(
            [(block_id, ["x"]) for block_id in blocks]
        )
        stats = machine.stats()
        assert stats.writes == 4
        assert stats.write_steps == 1

    def test_try_pin_charges_budget_until_exhausted(self):
        machine = Machine(block_size=4, memory_blocks=2)
        scheduler = machine.runtime.scheduler
        assert scheduler.try_pin()
        assert scheduler.try_pin()
        assert machine.budget.in_use == 8
        assert not scheduler.try_pin()  # no spare frame left
        scheduler.unpin(2)
        assert machine.budget.in_use == 0

    def test_try_pin_slack_keeps_frames_available(self):
        machine = Machine(block_size=4, memory_blocks=4)
        scheduler = machine.runtime.scheduler
        machine.budget.acquire(8)  # 2 of 4 frames taken
        assert not scheduler.try_pin(slack_frames=2)
        assert scheduler.try_pin(slack_frames=1)
        scheduler.unpin()
        machine.budget.release(8)

    def test_pin_count_capped_at_frame_budget(self):
        machine = Machine(block_size=4, memory_blocks=3)
        scheduler = machine.runtime.scheduler
        pins = 0
        while scheduler.try_pin():
            pins += 1
        assert pins == 3  # never beyond m frames
        scheduler.unpin(pins)

    def test_unpin_more_than_pinned_rejected(self):
        machine = Machine(block_size=4, memory_blocks=4)
        with pytest.raises(ConfigurationError):
            machine.runtime.scheduler.unpin()


class TestWriteBehind:
    def test_defers_until_every_disk_covered(self):
        machine, blocks = machine_with_blocks(4, 4)
        writer = machine.runtime.writer
        for block_id in blocks[:3]:
            writer.put(block_id, ["w"])
        assert machine.stats().writes == 0  # still deferred
        writer.put(blocks[3], ["w"])  # fourth disk completes the window
        stats = machine.stats()
        assert stats.writes == 4
        assert stats.write_steps == 1
        assert machine.budget.in_use == 0  # pins returned on flush

    def test_single_disk_writes_through(self):
        machine, blocks = machine_with_blocks(1, 1)
        machine.runtime.writer.put(blocks[0], ["w"])
        stats = machine.stats()
        assert stats.writes == 1
        assert len(machine.runtime.writer) == 0

    def test_same_disk_collision_flushes_window(self):
        machine, _ = machine_with_blocks(4, 0)
        a = machine.disk.allocate(0)
        b = machine.disk.allocate(0)
        machine.disk.write(a, [])
        machine.disk.write(b, [])
        machine.reset_stats()
        writer = machine.runtime.writer
        writer.put(a, ["a"])
        writer.put(b, ["b"])  # same disk: window with `a` flushed
        assert machine.stats().writes == 1
        assert machine.disk.peek(a) == ["a"]
        writer.flush()
        assert machine.disk.peek(b) == ["b"]

    def test_rewrite_coalesces_in_window(self):
        machine, blocks = machine_with_blocks(2, 1)
        writer = machine.runtime.writer
        writer.put(blocks[0], ["v1"])
        writer.put(blocks[0], ["v2"])
        writer.flush()
        assert machine.stats().writes == 1
        assert machine.disk.peek(blocks[0]) == ["v2"]

    def test_discard_drops_deferred_blocks(self):
        machine, blocks = machine_with_blocks(4, 2)
        writer = machine.runtime.writer
        writer.put(blocks[0], ["a"])
        writer.put(blocks[1], ["b"])
        writer.discard([blocks[0]])
        writer.flush()
        assert machine.stats().writes == 1
        assert machine.disk.peek(blocks[1]) == ["b"]
        assert machine.budget.in_use == 0

    def test_ensure_flushed_makes_block_readable(self):
        machine, blocks = machine_with_blocks(4, 1)
        machine.runtime.writer.put(blocks[0], ["w"])
        machine.runtime.writer.ensure_flushed(blocks[0])
        assert machine.disk.read(blocks[0]) == ["w"]

    def test_budget_pressure_reclaims_window(self):
        # A deferred window's pins are droppable on demand: an acquire
        # that would otherwise overflow M flushes it instead of raising.
        machine, blocks = machine_with_blocks(4, 2, memory_blocks=4)
        writer = machine.runtime.writer
        writer.put(blocks[0], ["a"])
        writer.put(blocks[1], ["b"])
        assert machine.budget.in_use == 8  # two pinned frames
        machine.budget.acquire(16)  # needs every frame
        assert len(writer) == 0  # window was flushed, not an error
        machine.budget.release(16)


class TestReadAhead:
    def test_yields_payloads_in_order_with_batched_steps(self):
        machine, blocks = machine_with_blocks(4, 8, memory_blocks=16)
        payloads = list(read_ahead(machine.runtime, blocks))
        assert payloads == [[i] * 4 for i in range(8)]
        stats = machine.stats()
        assert stats.reads == 8
        assert stats.read_steps == 2  # 8 blocks / 4 disks
        assert machine.budget.in_use == 0

    def test_single_disk_is_demand_paged(self):
        machine, blocks = machine_with_blocks(1, 5)
        list(read_ahead(machine.runtime, blocks))
        stats = machine.stats()
        assert stats.reads == stats.read_steps == 5

    def test_abandoned_generator_unpins_staged_frames(self):
        machine, blocks = machine_with_blocks(4, 8, memory_blocks=16)
        it = read_ahead(machine.runtime, blocks)
        next(it)  # fetched a batch, staging 3 blocks
        assert machine.budget.in_use > 0
        it.close()
        assert machine.budget.in_use == 0

    def test_failed_batch_unpins_its_staging(self):
        # The batch read dies after its successors were pinned: the
        # pins must come back with the error, not stay held forever.
        machine, blocks = machine_with_blocks(4, 8, memory_blocks=16)
        it = read_ahead(machine.runtime, blocks)
        with machine.inject_faults(
                FaultPlan(fail_block_reads={blocks[1]: None})):
            with pytest.raises(RetryExhaustedError):
                next(it)
        assert machine.budget.in_use == 0

    def test_never_pins_beyond_budget(self):
        # m=2: a scan's read-ahead slack (D frames) forbids any pin, so
        # the scan degrades to demand paging instead of overflowing M.
        machine, blocks = machine_with_blocks(4, 8, memory_blocks=2)
        payloads = list(read_ahead(machine.runtime, blocks))
        assert payloads == [[i] * 4 for i in range(8)]
        assert machine.budget.in_use == 0


class TestForecastingPrefetcher:
    def striped_runs(self, machine, num_runs, blocks_per_run):
        """Finalized sorted striped runs with interleaved key ranges."""
        runs = []
        for r in range(num_runs):
            records = [r + num_runs * i
                       for i in range(blocks_per_run * machine.B)]
            runs.append(StripedStream.from_records(
                machine, records, name=f"run/{r}"
            ))
        return runs

    def test_readers_yield_each_run_in_order(self):
        machine = Machine(block_size=4, memory_blocks=16, num_disks=4)
        runs = self.striped_runs(machine, 3, 4)
        prefetcher = ForecastingPrefetcher(
            machine.runtime, [run.block_ids for run in runs],
            key=lambda r: r,
        )
        try:
            for index, run in enumerate(runs):
                records = [record
                           for payload in prefetcher.block_reader(index)
                           for record in payload]
                assert records == list(run)
        finally:
            prefetcher.close()
        assert machine.budget.in_use == 0

    def test_close_is_idempotent_and_releases_reader_frames(self):
        machine = Machine(block_size=4, memory_blocks=16, num_disks=4)
        runs = self.striped_runs(machine, 3, 2)
        prefetcher = ForecastingPrefetcher(
            machine.runtime, [run.block_ids for run in runs],
            key=lambda r: r,
        )
        assert machine.budget.in_use == 3 * machine.B  # reader frames
        next(prefetcher.block_reader(0))
        prefetcher.close()
        prefetcher.close()
        assert machine.budget.in_use == 0

    def test_merge_read_steps_near_optimal(self):
        machine = Machine(block_size=4, memory_blocks=16, num_disks=4)
        runs = self.striped_runs(machine, 3, 8)
        machine.reset_stats()
        merged = merge_streams(machine, runs, stream_cls=StripedStream)
        stats = machine.stats()
        assert list(merged) != []
        # 24 input blocks over 4 disks: forecasting batches reads close
        # to the 6-step floor; without it every read is its own step.
        assert stats.read_steps - stats.reads // 4 <= 24 // 2


class TestScheduledSortAcceptance:
    # Striped at m=16 exercises a tight frame budget; plain FileStream
    # needs a few more spare frames before forecasting can batch (11 of
    # 16 frames are hard-committed to reader buffers at m=16).
    @pytest.mark.parametrize("stream_cls,memory_blocks",
                             [(FileStream, 24), (StripedStream, 16)])
    def test_d4_merge_sort_within_1_5x_of_step_optimal(
        self, stream_cls, memory_blocks
    ):
        machine = Machine(block_size=32, memory_blocks=memory_blocks,
                          num_disks=4)
        data = uniform_ints(4096, seed=42)
        stream = stream_cls.from_records(machine, data)
        machine.reset_stats()
        result = external_merge_sort(machine, stream,
                                     stream_cls=stream_cls)
        stats = machine.stats()
        assert list(result) == sorted(data)
        assert machine.budget.in_use == 0
        optimal = ceil(stats.total / machine.D)
        assert stats.total_steps <= 1.5 * optimal

    def test_d1_counts_identical_to_unscheduled_model(self):
        # The runtime must be invisible on a single disk: exact transfer
        # counts equal the textbook 2·(N/B)·(1 + passes) formula.
        machine = Machine(block_size=8, memory_blocks=4)
        data = uniform_ints(512, seed=1)
        stream = FileStream.from_records(machine, data)
        machine.reset_stats()
        external_merge_sort(machine, stream)
        stats = machine.stats()
        assert stats.total == stats.total_steps
