"""Tests for the fault-injection and recovery layer (``repro.faults``).

Covers the injector's determinism, the scheduler's retry policy, torn
writes surfacing as checksum errors, stuck-slow disk stalls, and the
pass-granular checkpoint/restart of external merge sort.
"""

import random

import pytest

from repro.core import Machine
from repro.core.blockfile import BlockFile
from repro.core.filedisk import FileDiskArray
from repro.core.exceptions import (
    ChecksumError,
    ConfigurationError,
    RetryExhaustedError,
    SimulatedCrash,
    TransientReadError,
)
from repro.core.stream import FileStream, StripedStream
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SortManifest,
    checkpointed_merge_sort,
)
from repro.faults.checkpoint import MAX_REDOS
from repro.sort.merge import external_merge_sort


def machine(B=8, m=6, D=1):
    return Machine(block_size=B, memory_blocks=m, num_disks=D)


def shuffled(n, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(10 * n) for _ in range(n)]


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(read_error_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(torn_keep=1.0)

    def test_same_seed_same_faults(self):
        plan = FaultPlan(seed=13, read_error_rate=0.1)
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(plan)
            outcomes.append([
                injector.read_fault(block, 0) is not None
                for block in range(200)
            ])
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0])

    def test_injector_counts_what_it_injects(self):
        m = machine()
        with m.inject_faults(FaultPlan(seed=3, read_error_rate=0.2)) as inj:
            stream = FileStream.from_records(m, shuffled(200))
            list(stream)
        assert inj.injected["read-error"] > 0
        assert m.stats().faults == inj.injected["read-error"]


class TestRetryPolicy:
    def test_transient_faults_are_retried_transparently(self):
        m = machine()
        data = shuffled(300, seed=1)
        with m.inject_faults(FaultPlan(seed=5, read_error_rate=0.1,
                                       write_error_rate=0.05)):
            stream = FileStream.from_records(m, data)
            out = external_merge_sort(m, stream, fan_in=2)
            assert list(out) == sorted(data)
        stats = m.stats()
        assert stats.faults > 0
        assert stats.retries == stats.faults
        # Backoff is charged as stall steps, visible in wall_steps but
        # kept out of total_steps so transfer accounting is unchanged.
        assert stats.stall_steps > 0
        assert stats.wall_steps == stats.total_steps + stats.stall_steps

    def test_retry_exhaustion_raises(self):
        m = machine()
        stream = FileStream.from_records(m, shuffled(50))
        bad_block = stream.block_ids[0]
        # None = the block fails on every read attempt: unrecoverable.
        with m.inject_faults(FaultPlan(fail_block_reads={bad_block: None})):
            with pytest.raises(RetryExhaustedError) as exc_info:
                list(stream)
        error = exc_info.value
        assert error.attempts == RetryPolicy().max_attempts
        assert isinstance(error.last_error, TransientReadError)
        assert m.stats().retries == RetryPolicy().max_attempts - 1

    def test_bounded_transient_burst_recovers(self):
        m = machine()
        stream = FileStream.from_records(m, shuffled(50))
        bad_block = stream.block_ids[0]
        with m.inject_faults(FaultPlan(fail_block_reads={bad_block: 2})):
            assert sorted(list(stream)) == sorted(shuffled(50))
        assert m.stats().retries == 2

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=1)
        assert [policy.backoff_steps(k) for k in (1, 2, 3)] == [1, 2, 4]


class TestChecksums:
    def test_torn_write_detected_at_read(self):
        m = machine()
        # torn_writes indexes *performed* writes; index 2 tears the
        # third block written after the plan is installed.
        with m.inject_faults(FaultPlan(torn_writes={2})):
            stream = FileStream.from_records(m, shuffled(100))
            with pytest.raises(ChecksumError):
                list(stream)

    def test_checksum_error_is_not_retried(self):
        m = machine()
        with m.inject_faults(FaultPlan(torn_writes={0})):
            stream = FileStream.from_records(m, shuffled(20))
            with pytest.raises(ChecksumError):
                list(stream)
        assert m.stats().retries == 0

    def test_checksums_stay_enabled_after_plan_exits(self):
        m = machine()
        with m.inject_faults(FaultPlan(torn_writes={0})):
            stream = FileStream.from_records(m, shuffled(20))
        assert m.disk.fault_injector is None
        assert m.disk.checksums_enabled
        with pytest.raises(ChecksumError):
            list(stream)

    def test_fault_free_runs_have_no_checksum_state(self):
        m = machine()
        FileStream.from_records(m, shuffled(20))
        assert not m.disk.checksums_enabled

    def test_blockfile_verify_reports_torn_blocks(self):
        m = machine()
        with m.inject_faults(FaultPlan(torn_writes={1})):
            with BlockFile.from_records(m, shuffled(40), name="t") as bf:
                assert bf.verify() == [1]
                # Repair by rewriting, as the verify() contract says.
                bf.write_block(1, list(range(m.B)))
                assert bf.verify() == []
                bf.delete()


class TestStalls:
    def test_slow_disk_charges_stall_steps(self):
        m = machine(D=2)
        with m.inject_faults(FaultPlan(slow_disks={0: 3})):
            stream = StripedStream.from_records(m, shuffled(64))
            list(stream)
        stats = m.stats()
        assert stats.stall_steps > 0
        assert stats.stall_steps % 3 == 0
        assert stats.wall_steps > stats.total_steps


class TestTracer:
    def test_fault_retry_stall_lanes(self):
        m = machine()
        tracer = m.runtime.start_trace()
        with m.inject_faults(FaultPlan(seed=5, read_error_rate=0.15)):
            with m.trace("faulty-scan"):
                stream = FileStream.from_records(m, shuffled(200))
                list(stream)
        tracer.stop()
        stats = tracer.phase_summary()["faulty-scan"]
        assert stats.faults > 0
        assert stats.retries == stats.faults
        assert stats.stall_steps > 0
        names = {event["name"] for event in tracer.to_chrome()["traceEvents"]}
        assert "fault:read-error" in names
        assert "retry:read" in names
        assert "stall:backoff" in names
        table = tracer.summary_table()
        assert "faults" in table and "retries" in table

    def test_fault_free_summary_has_no_fault_columns(self):
        m = machine()
        tracer = m.runtime.start_trace()
        with m.trace("clean-scan"):
            list(FileStream.from_records(m, shuffled(100)))
        tracer.stop()
        assert "faults" not in tracer.summary_table()


class TestCheckpointedSort:
    def _reference(self, data):
        m = machine()
        return list(
            external_merge_sort(m, FileStream.from_records(m, data),
                                fan_in=2)
        )

    def test_matches_plain_sort_without_faults(self):
        data = shuffled(400, seed=7)
        m = machine()
        stream = FileStream.from_records(m, data)
        manifest = SortManifest()
        out = checkpointed_merge_sort(m, stream, manifest, fan_in=2)
        assert list(out) == sorted(data)
        assert manifest.done
        # The input survives (unlike keep_input=False paths) and no
        # intermediate blocks leak.
        assert m.disk.allocated_blocks == stream.num_blocks + out.num_blocks

    def test_crash_resume_identical_output_no_repeated_passes(self):
        data = shuffled(400, seed=8)
        reference = self._reference(data)
        m = machine()
        stream = FileStream.from_records(m, data)
        manifest = SortManifest()
        tracer = m.runtime.start_trace()
        with pytest.raises(SimulatedCrash):
            with m.inject_faults(FaultPlan(crash_after_writes=120)):
                checkpointed_merge_sort(m, stream, manifest, fan_in=2)
        crashed_at = manifest.committed_passes
        assert crashed_at >= 1  # at least run formation committed

        # Resume from a JSON round-trip of the manifest, tracing which
        # passes actually run again.
        manifest = SortManifest.from_json(manifest.to_json())
        out = checkpointed_merge_sort(m, stream, manifest, fan_in=2)
        tracer.stop()
        assert list(out) == reference
        assert manifest.done

        labels = [label for label, _, _ in tracer._spans]
        # Passes committed before the crash ran exactly once across
        # crash + resume — resume must not repeat their I/O.  (The pass
        # that was *in flight* at the crash legitimately appears twice:
        # once aborted, once re-run.)
        assert labels.count("run-formation") == 1
        for level in range(1, crashed_at):
            assert labels.count(f"merge-pass-{level}") == 1
        assert labels.count(f"merge-pass-{crashed_at}") == 2
        # No leaked blocks, no leaked frames.
        assert m.disk.allocated_blocks == stream.num_blocks + out.num_blocks
        assert m.budget.in_use == 0

    def test_resume_at_every_crash_point(self):
        data = shuffled(300, seed=9)
        reference = self._reference(data)
        for crash_after in (10, 60, 110, 160):
            m = machine()
            stream = FileStream.from_records(m, data)
            manifest = SortManifest()
            out = None
            plan = FaultPlan(crash_after_writes=crash_after)
            try:
                with m.inject_faults(plan):
                    out = checkpointed_merge_sort(
                        m, stream, manifest, fan_in=2
                    )
            except SimulatedCrash:
                out = checkpointed_merge_sort(m, stream, manifest, fan_in=2)
            assert list(out) == reference
            assert (m.disk.allocated_blocks
                    == stream.num_blocks + out.num_blocks)
            assert m.budget.in_use == 0

    def test_verify_outputs_redoes_torn_pass(self):
        data = shuffled(300, seed=10)
        reference = self._reference(data)
        m = machine()
        stream = FileStream.from_records(m, data)
        manifest = SortManifest()
        with m.inject_faults(FaultPlan(torn_writes={3})) as inj:
            out = checkpointed_merge_sort(
                m, stream, manifest, fan_in=2, verify_outputs=True
            )
        assert inj.injected["torn-write"] == 1
        assert manifest.passes_redone == 1
        assert list(out) == reference

    def test_done_manifest_short_circuits(self):
        data = shuffled(100, seed=11)
        m = machine()
        stream = FileStream.from_records(m, data)
        manifest = SortManifest()
        out = checkpointed_merge_sort(m, stream, manifest, fan_in=2)
        before = m.stats()
        again = checkpointed_merge_sort(m, stream, manifest, fan_in=2)
        assert (m.stats() - before).total == 0
        assert list(again) == sorted(data)

    def test_manifest_of_another_version_rejected(self):
        import json
        m = machine()
        stream = FileStream.from_records(m, shuffled(100, seed=12))
        manifest = SortManifest()
        checkpointed_merge_sort(m, stream, manifest, fan_in=2)
        text = manifest.to_json()
        assert SortManifest.from_json(text).done
        for version in (None, 0, 2, "1"):
            data = json.loads(text)
            if version is None:
                del data["version"]
            else:
                data["version"] = version
            with pytest.raises(ConfigurationError, match="version"):
                SortManifest.from_json(json.dumps(data))
        # Malformed manifests are rejected too, not half-read.
        for entry in ("passes", "done"):
            data = json.loads(text)
            del data[entry]
            with pytest.raises(ConfigurationError, match=entry):
                SortManifest.from_json(json.dumps(data))
        with pytest.raises(ConfigurationError, match="object"):
            SortManifest.from_json("[]")

    @pytest.mark.parametrize("num_disks", [1, 4])
    @pytest.mark.parametrize("stream_cls", [FileStream, StripedStream])
    @pytest.mark.parametrize("fan_in", [2, None])
    def test_costs_what_the_plain_sort_costs(self, num_disks, stream_cls,
                                             fan_in):
        # Without faults or verification the checkpoint adds no I/O:
        # the same passes, transfers, steps, peak memory and phases.
        data = list(range(3000))
        random.Random(1).shuffle(data)
        options = dict(fan_in=fan_in, stream_cls=stream_cls)
        sorts = (
            lambda m, s: external_merge_sort(m, s, **options),
            lambda m, s: checkpointed_merge_sort(m, s, SortManifest(),
                                                 **options),
        )
        costs = []
        for sort in sorts:
            m = machine(m=12, D=num_disks)
            stream = stream_cls.from_records(m, data)
            m.reset_stats()
            tracer = m.runtime.start_trace()
            out = sort(m, stream)
            tracer.stop()
            labels = {label for label, _, _ in tracer._spans}
            costs.append((m.stats(), m.budget.peak, labels))
            assert list(out) == sorted(data)
        assert costs[0] == costs[1]

    def test_every_write_torn_exhausts_redos(self):
        data = shuffled(300, seed=13)
        m = machine()
        stream = FileStream.from_records(m, data)
        manifest = SortManifest()
        with pytest.raises(RetryExhaustedError):
            with m.inject_faults(FaultPlan(torn_writes=range(10_000))):
                checkpointed_merge_sort(
                    m, stream, manifest, fan_in=2, verify_outputs=True
                )
        assert manifest.passes_redone == MAX_REDOS + 1
        assert manifest.committed_passes == 0
        # Every torn attempt was deleted before the next one.
        assert m.disk.allocated_blocks == stream.num_blocks
        assert m.budget.in_use == 0

    @pytest.mark.parametrize("crash_after", [10, 40, 90, 160, 200])
    @pytest.mark.parametrize("torn", [{3}, {70}, {3, 120}])
    def test_resume_after_crash_and_torn_writes(self, crash_after, torn):
        data = shuffled(300, seed=14)
        m = machine()
        stream = FileStream.from_records(m, data)
        manifest = SortManifest()
        plan = FaultPlan(crash_after_writes=crash_after, torn_writes=torn)
        try:
            with m.inject_faults(plan):
                out = checkpointed_merge_sort(
                    m, stream, manifest, fan_in=2, verify_outputs=True
                )
        except SimulatedCrash:
            manifest = SortManifest.from_json(manifest.to_json())
            out = checkpointed_merge_sort(
                m, stream, manifest, fan_in=2, verify_outputs=True
            )
        assert list(out) == sorted(data)
        assert m.disk.allocated_blocks == stream.num_blocks + out.num_blocks
        assert m.budget.in_use == 0


class TestFileBackedFaults:
    """The whole fault stack — injection, retries, torn writes,
    checkpoint/restart — runs unchanged on the real-file backend."""

    def _file_machine(self, tmp_path, name, B=8, m=6, D=1):
        disk = FileDiskArray(B, num_disks=D, path=str(tmp_path / name))
        return Machine(block_size=B, memory_blocks=m, num_disks=D, disk=disk)

    def test_chaos_sort_counters_match_memory_backend(self, tmp_path):
        data = shuffled(300, seed=21)
        plan = FaultPlan(seed=6, read_error_rate=0.08, write_error_rate=0.04)
        results = []
        for m in (machine(), self._file_machine(tmp_path, "chaos.blocks")):
            with m.inject_faults(plan):
                stream = FileStream.from_records(m, data)
                out = external_merge_sort(m, stream, fan_in=2)
                results.append((list(out), m.stats()))
        (mem_out, mem_stats), (file_out, file_stats) = results
        assert file_out == mem_out == sorted(data)
        assert file_stats == mem_stats  # faults/retries/stalls included
        assert file_stats.faults > 0

    def test_crash_resume_on_file_backend_byte_identical(self, tmp_path):
        data = shuffled(400, seed=22)
        m = self._file_machine(tmp_path, "resume.blocks")
        stream = FileStream.from_records(m, data)
        manifest = SortManifest()
        with pytest.raises(SimulatedCrash):
            with m.inject_faults(FaultPlan(crash_after_writes=120)):
                checkpointed_merge_sort(m, stream, manifest, fan_in=2)
        assert manifest.committed_passes >= 1
        # In-process resume (the restart-after-close path lives in
        # tests/test_filedisk.py) from a JSON round-trip of the manifest.
        manifest = SortManifest.from_json(manifest.to_json())
        out = checkpointed_merge_sort(m, stream, manifest, fan_in=2)
        assert list(out) == sorted(data)
        assert m.disk.allocated_blocks == stream.num_blocks + out.num_blocks
        assert m.budget.in_use == 0

    def test_verify_outputs_redoes_torn_pass_on_file_backend(self, tmp_path):
        data = shuffled(300, seed=23)
        m = self._file_machine(tmp_path, "redo.blocks")
        stream = FileStream.from_records(m, data)
        manifest = SortManifest()
        with m.inject_faults(FaultPlan(torn_writes={3})) as inj:
            out = checkpointed_merge_sort(
                m, stream, manifest, fan_in=2, verify_outputs=True
            )
        assert inj.injected["torn-write"] == 1
        assert manifest.passes_redone == 1
        assert list(out) == sorted(data)


class TestInjectFaultsContext:
    def test_nesting_restores_previous_injector(self):
        m = machine()
        with m.inject_faults(FaultPlan(seed=1)) as outer:
            with m.inject_faults(FaultPlan(seed=2)) as inner:
                assert m.disk.fault_injector is inner
            assert m.disk.fault_injector is outer
        assert m.disk.fault_injector is None

    def test_crash_fires_exactly_once(self):
        m = machine()
        with m.inject_faults(FaultPlan(crash_after_writes=3)) as inj:
            with pytest.raises(SimulatedCrash):
                FileStream.from_records(m, shuffled(200))
            # The machine is usable again after the crash is observed.
            stream = FileStream.from_records(m, shuffled(40))
            assert len(stream) == 40
        assert inj.injected["crash"] == 1
