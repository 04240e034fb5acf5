"""Tests for the real-file block device (``repro.core.filedisk``).

The contract is bit-compatibility: :class:`FileDiskArray` inherits every
accounting path from the in-memory :class:`~repro.core.disk.DiskArray`,
so any workload must produce *identical* counters (reads, writes,
parallel steps, faults, retries, stalls) on both backends.  On top of
that, only a real file can be torn on real bytes or reopened after a
process death — those recovery stories are covered here and charged
against the metadata-sidecar durability point (:meth:`sync_metadata` /
:meth:`FileDiskArray.open`).
"""

import os
import random

import pytest

from repro.core import Machine
from repro.core.exceptions import ChecksumError, SimulatedCrash
from repro.core.filedisk import FileDiskArray
from repro.core.records import np
from repro.core.stream import FileStream, StripedStream
from repro.faults import FaultPlan, SortManifest, checkpointed_merge_sort
from repro.pipeline.sorter import Sorter
from repro.sort.distribution import distribution_sort
from repro.sort.merge import external_merge_sort

requires_numpy = pytest.mark.skipif(np is None, reason="numpy not available")


def memory_machine(B=8, m=6, D=1):
    return Machine(block_size=B, memory_blocks=m, num_disks=D)


def file_machine(tmp_path, B=8, m=6, D=1, name="disk.blocks"):
    disk = FileDiskArray(B, num_disks=D, path=str(tmp_path / name))
    return Machine(block_size=B, memory_blocks=m, num_disks=D, disk=disk)


def shuffled(n, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(10 * n) for _ in range(n)]


# ----------------------------------------------------------------------
# counter parity: same workload, both backends, identical IOStats
# ----------------------------------------------------------------------
def _merge_load(m, data):
    stream = FileStream.from_records(m, data)
    return list(external_merge_sort(m, stream, fan_in=2))


def _merge_replacement(m, data):
    stream = FileStream.from_records(m, data)
    return list(external_merge_sort(m, stream, fan_in=2,
                                    run_strategy="replacement"))


def _distribution(m, data):
    stream = FileStream.from_records(m, data)
    return list(distribution_sort(m, stream))


def _sorter_pipeline(m, data):
    # On the parity machines (B=8, m=6) 300 records spill more runs
    # than the pull's width, so the pull merges some down first.
    sorter = Sorter(m)
    for record in data:
        sorter.push(record)
    return list(sorter.finish())


def _faulty_merge(m, data):
    with m.inject_faults(FaultPlan(seed=5, read_error_rate=0.08,
                                   write_error_rate=0.04)):
        stream = FileStream.from_records(m, data)
        return list(external_merge_sort(m, stream, fan_in=2))


WORKLOADS = {
    "merge-load": _merge_load,
    "merge-replacement": _merge_replacement,
    "distribution": _distribution,
    "sorter-pipeline": _sorter_pipeline,
    "faulty-merge": _faulty_merge,
}


class TestCounterParity:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_sort_family_counters_identical(self, tmp_path, name):
        workload = WORKLOADS[name]
        data = shuffled(300, seed=3)
        reference_machine = memory_machine()
        reference = workload(reference_machine, data)
        file_backed = file_machine(tmp_path, name=f"{name}.blocks")
        result = workload(file_backed, data)
        assert result == reference == sorted(data)
        # Whole-snapshot equality: every field of IOStats, including
        # faults/retries/stall_steps on the chaos workload.
        assert file_backed.stats() == reference_machine.stats()
        assert (file_backed.disk.allocated_blocks
                == reference_machine.disk.allocated_blocks)

    def test_striped_scan_steps_identical_on_two_disks(self, tmp_path):
        data = shuffled(128, seed=4)
        reference_machine = memory_machine(D=2)
        list(StripedStream.from_records(reference_machine, data))
        file_backed = file_machine(tmp_path, D=2)
        list(StripedStream.from_records(file_backed, data))
        stats = file_backed.stats()
        assert stats == reference_machine.stats()
        # D=2 striping actually halves the steps — the parity is not
        # trivially comparing two single-disk tallies.
        assert stats.read_steps < stats.reads

    @requires_numpy
    def test_typed_payload_counters_identical(self, tmp_path):
        values = np.array(shuffled(256, seed=5), dtype=np.int64)
        reference_machine = memory_machine()
        stream = FileStream.from_payload(reference_machine, values)
        reference = list(external_merge_sort(reference_machine, stream,
                                             fan_in=2))
        file_backed = file_machine(tmp_path)
        stream = FileStream.from_payload(file_backed, values)
        result = list(external_merge_sort(file_backed, stream, fan_in=2))
        assert result == reference == sorted(values.tolist())
        assert file_backed.stats() == reference_machine.stats()

    @requires_numpy
    def test_typed_striped_sort_counters_identical_on_four_disks(
            self, tmp_path):
        # The benchmark's shape in miniature: typed int64 payloads,
        # StripedStream over D=4, default fan-in, parallel-disk waves.
        values = np.array(shuffled(2048, seed=6), dtype=np.int64)
        outputs = []
        machines = [memory_machine(B=16, m=8, D=4),
                    file_machine(tmp_path, B=16, m=8, D=4)]
        for m in machines:
            stream = StripedStream.from_payload(m, values)
            out = external_merge_sort(m, stream, stream_cls=StripedStream)
            outputs.append([block.tolist() for block in out.iter_blocks()])
        assert outputs[0] == outputs[1]
        assert sum(outputs[1], []) == sorted(values.tolist())
        assert machines[1].stats() == machines[0].stats()
        assert machines[1].stats().read_steps < machines[1].stats().reads


# ----------------------------------------------------------------------
# real-bytes persistence
# ----------------------------------------------------------------------
class TestPersistence:
    def test_open_recovers_to_last_sync(self, tmp_path):
        path = str(tmp_path / "sync.blocks")
        disk = FileDiskArray(4, path=path)
        synced = disk.allocate()
        disk.write(synced, [1, 2, 3, 4])
        disk.sync_metadata()
        unsynced = disk.allocate()
        disk.write(unsynced, [9, 9, 9, 9])
        disk.close(remove=False)

        recovered = FileDiskArray.open(path)
        # Counters start at zero: the restarted process has done no I/O.
        assert recovered.counter.snapshot().total == 0
        assert recovered.is_allocated(synced)
        assert not recovered.is_allocated(unsynced)
        assert list(recovered.read(synced)) == [1, 2, 3, 4]
        recovered.close(remove=False)

    @requires_numpy
    def test_typed_block_survives_reopen_with_type(self, tmp_path):
        path = str(tmp_path / "typed.blocks")
        disk = FileDiskArray(4, path=path)
        block = disk.allocate()
        payload = np.array([5, -6, 7, -8], dtype=np.int32)
        disk.write(block, payload)
        disk.sync_metadata()
        disk.close(remove=False)

        recovered = FileDiskArray.open(path)
        loaded = recovered.read(block)
        assert isinstance(loaded, np.ndarray)
        assert loaded.dtype == np.int32
        assert loaded.tolist() == [5, -6, 7, -8]
        recovered.close(remove=False)

    def test_torn_prefix_persisted_and_detected_after_reopen(self, tmp_path):
        path = str(tmp_path / "torn.blocks")
        m = file_machine(tmp_path, name="torn.blocks")
        data = list(range(16))
        with m.inject_faults(FaultPlan(torn_writes={0})):
            stream = FileStream.from_records(m, data)
        torn_id = stream.block_ids[0]
        m.disk.sync_metadata()
        m.disk.close(remove=False)

        # The torn image is real bytes in the real file: reattaching
        # sees the stored prefix (B=8, torn_keep=0.5 keeps 4 records)...
        recovered = FileDiskArray.open(path)
        assert list(recovered.peek(torn_id)) == data[:4]
        # ...and the checksum, which recorded the *intended* payload,
        # still convicts it on the first paid read after the restart.
        assert recovered.checksums_enabled
        assert not recovered.verify_checksum(torn_id)
        with pytest.raises(ChecksumError):
            recovered.read(torn_id)
        # The clean sibling block reads back intact.
        assert list(recovered.read(stream.block_ids[1])) == data[8:]
        recovered.close(remove=False)


# ----------------------------------------------------------------------
# the commit rule: writes after a sync never touch committed bytes
# ----------------------------------------------------------------------
class TestCommitRule:
    def test_relocated_block_extent_not_reused_before_next_sync(
            self, tmp_path):
        path = str(tmp_path / "cow.blocks")
        disk = FileDiskArray(64, path=path)
        a = disk.allocate()
        disk.write(a, [1, 2])
        disk.sync_metadata()
        disk.write(a, list(range(60)))  # outgrows its extent: relocates
        c = disk.allocate()
        disk.write(c, ["c"])  # must not land on a's committed extent
        disk.close(remove=False)  # crash: nothing after the sync counts

        recovered = FileDiskArray.open(path)
        assert list(recovered.read(a)) == [1, 2]
        assert not recovered.is_allocated(c)
        recovered.close(remove=False)

    def test_in_place_rewrite_after_sync_keeps_committed_image(
            self, tmp_path):
        path = str(tmp_path / "inplace.blocks")
        disk = FileDiskArray(64, path=path)
        a = disk.allocate()
        disk.write(a, list(range(20)))
        disk.sync_metadata()
        disk.write(a, list(range(100, 121)))  # fits the old extent
        disk.close(remove=False)

        recovered = FileDiskArray.open(path)
        assert list(recovered.read(a)) == list(range(20))
        recovered.close(remove=False)

    def test_freed_committed_block_survives_crash(self, tmp_path):
        path = str(tmp_path / "park.blocks")
        disk = FileDiskArray(4, path=path)
        a = disk.allocate()
        disk.write(a, [7, 7, 7, 7])
        disk.sync_metadata()
        disk.free(a)
        b = disk.allocate()
        disk.write(b, [8, 8, 8, 8])  # a's extent is parked, not reused
        disk.close(remove=False)

        recovered = FileDiskArray.open(path)
        assert list(recovered.read(a)) == [7, 7, 7, 7]
        assert not recovered.is_allocated(b)
        recovered.close(remove=False)

    def test_parked_extent_is_reused_after_next_sync(self, tmp_path):
        path = str(tmp_path / "unpark.blocks")
        disk = FileDiskArray(4, path=path)
        a = disk.allocate()
        disk.write(a, [7, 7, 7, 7])
        disk.sync_metadata()
        disk.free(a)
        disk.sync_metadata()  # no committed table names a's extent now
        size = os.path.getsize(path)
        b = disk.allocate()
        disk.write(b, [8, 8, 8, 8])
        assert os.path.getsize(path) == size
        assert list(disk.read(b)) == [8, 8, 8, 8]
        disk.close(remove=False)


# ----------------------------------------------------------------------
# repeated use of one file
# ----------------------------------------------------------------------
class TestReuse:
    @requires_numpy
    def test_repeated_striped_sorts_do_not_grow_the_file(self, tmp_path):
        path = str(tmp_path / "reuse.blocks")
        disk = FileDiskArray(16, num_disks=4, path=path)
        m = Machine(block_size=16, memory_blocks=8, num_disks=4, disk=disk)
        values = np.array(shuffled(3000, seed=10), dtype=np.int64)
        stream = StripedStream.from_payload(m, values)
        sizes = []
        for _ in range(3):
            out = external_merge_sort(m, stream, stream_cls=StripedStream)
            got = np.concatenate(list(out.iter_blocks()))
            assert got.tolist() == sorted(values.tolist())
            out.delete()
            sizes.append(os.path.getsize(path))
        assert sizes[1] == sizes[0] and sizes[2] == sizes[0]

        disk.sync_metadata()
        disk.close(remove=False)
        recovered = FileDiskArray.open(path)
        block = recovered.allocate()
        recovered.write(block, values[:16].copy())
        assert os.path.getsize(path) == sizes[0]
        assert recovered.read(block).tolist() == values[:16].tolist()
        recovered.close(remove=False)


# ----------------------------------------------------------------------
# crash / restart
# ----------------------------------------------------------------------
class _DurableManifest(SortManifest):
    """A manifest persisted at every commit point, the way a real
    deployment writes it next to the data file: ``committed_json`` is
    the snapshot a restarted process would find on disk."""

    def __init__(self):
        super().__init__()
        self.committed_json = self.to_json()

    def commit_pass(self, streams):
        super().commit_pass(streams)
        self.committed_json = self.to_json()

    def commit_result(self, stream):
        super().commit_result(stream)
        self.committed_json = self.to_json()


class TestCrashRestart:
    def test_crash_restart_resume_byte_identical(self, tmp_path):
        data = shuffled(400, seed=8)
        reference_machine = memory_machine()
        reference = list(external_merge_sort(
            reference_machine, FileStream.from_records(reference_machine,
                                                       data),
            fan_in=2,
        ))

        path = str(tmp_path / "crash.blocks")
        m = file_machine(tmp_path, name="crash.blocks")
        stream = FileStream.from_records(m, data)
        m.disk.sync_metadata()  # the input itself is durable
        input_blocks = list(stream.block_ids)
        manifest = _DurableManifest()
        with pytest.raises(SimulatedCrash):
            with m.inject_faults(FaultPlan(crash_after_writes=120)):
                checkpointed_merge_sort(m, stream, manifest, fan_in=2)
        assert manifest.committed_passes >= 1
        m.disk.close(remove=False)  # process death: the table is gone

        # Restart: reattach the file, rebuild handles from the durable
        # manifest, resume.  Committed passes were synced with their
        # commits, so every block the manifest names is recoverable.
        recovered = FileDiskArray.open(path)
        m2 = Machine(block_size=8, memory_blocks=6, disk=recovered)
        stream2 = FileStream.adopt(m2, input_blocks, len(data), name="input")
        assert list(stream2) == data  # input is byte-identical
        manifest2 = SortManifest.from_json(manifest.committed_json)
        out = checkpointed_merge_sort(m2, stream2, manifest2, fan_in=2)
        assert list(out) == reference
        assert manifest2.done
        assert m2.budget.in_use == 0
        recovered.close(remove=False)

    def test_restart_at_every_crash_point(self, tmp_path):
        data = shuffled(200, seed=9)
        for crash_after in (10, 40, 80, 120):
            name = f"crash{crash_after}.blocks"
            path = str(tmp_path / name)
            m = file_machine(tmp_path, name=name)
            stream = FileStream.from_records(m, data)
            m.disk.sync_metadata()
            input_blocks = list(stream.block_ids)
            manifest = _DurableManifest()
            out = None
            try:
                with m.inject_faults(FaultPlan(crash_after_writes=crash_after)):
                    out = checkpointed_merge_sort(m, stream, manifest,
                                                  fan_in=2)
            except SimulatedCrash:
                m.disk.close(remove=False)
                recovered = FileDiskArray.open(path)
                m = Machine(block_size=8, memory_blocks=6, disk=recovered)
                stream = FileStream.adopt(m, input_blocks, len(data),
                                          name="input")
                manifest = SortManifest.from_json(manifest.committed_json)
                out = checkpointed_merge_sort(m, stream, manifest, fan_in=2)
            assert list(out) == sorted(data)
            m.disk.close(remove=False)
