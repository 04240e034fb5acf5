"""Tests for the block merger, the benchmark's loser-tree baseline,
merge passes, and external merge sort."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConfigurationError,
    FileDiskArray,
    FileStream,
    Machine,
    MemoryLimitExceeded,
    field,
    merge_passes,
    scan_io,
    sort_io,
)
from repro.core.records import concat
from repro.core.exceptions import RetryExhaustedError
from repro.faults import FaultPlan
from repro.sort import (
    external_merge_sort,
    is_sorted_stream,
    merge_streams,
    two_way_merge_sort,
)
from repro.sort import merge as merge_module
from repro.sort.merge import BlockMerger
from repro.sort.runs import memoryload_blocks
from repro.workloads import uniform_ints

# The record-at-a-time loser tree is the raw-speed gate's baseline in
# tools/bench_smoke.py; its correctness keeps its tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_smoke import LoserTree  # noqa: E402


def machine(B=16, m=8):
    return Machine(block_size=B, memory_blocks=m)


class TestLoserTree:
    def test_merges_two_sources(self):
        tree = LoserTree([iter([1, 3, 5]), iter([2, 4, 6])])
        assert list(tree) == [1, 2, 3, 4, 5, 6]

    def test_single_source_passthrough(self):
        assert list(LoserTree([iter([1, 2, 3])])) == [1, 2, 3]

    def test_empty_sources(self):
        assert list(LoserTree([iter([]), iter([])])) == []

    def test_mixed_empty_and_nonempty(self):
        tree = LoserTree([iter([]), iter([2, 4]), iter([]), iter([1])])
        assert list(tree) == [1, 2, 4]

    def test_no_sources_rejected(self):
        with pytest.raises(ConfigurationError):
            LoserTree([])

    def test_stability_ties_go_to_lower_source(self):
        a = [("x", 0), ("x", 1)]
        b = [("x", 2)]
        tree = LoserTree([iter(a), iter(b)], key=lambda r: r[0])
        assert list(tree) == [("x", 0), ("x", 1), ("x", 2)]

    def test_key_function(self):
        a = [(3, "a"), (1, "b")]
        b = [(2, "c")]
        tree = LoserTree(
            [iter(sorted(a)), iter(b)], key=lambda r: r[0]
        )
        assert [r[0] for r in tree] == [1, 2, 3]

    @given(
        st.lists(
            st.lists(st.integers(-1000, 1000), max_size=50),
            min_size=1,
            max_size=9,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted_concatenation(self, lists):
        sources = [iter(sorted(chunk)) for chunk in lists]
        expected = sorted(x for chunk in lists for x in chunk)
        assert list(LoserTree(sources)) == expected

    @given(st.integers(2, 33), st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_arity_round_robin_split(self, k, n):
        data = sorted(uniform_ints(n, seed=k))
        chunks = [data[i::k] for i in range(k)]
        tree = LoserTree([iter(c) for c in chunks])
        assert list(tree) == data


def block_merge(sources, key=None, B=3, typed=False):
    """Merge sorted ``sources`` with a :class:`BlockMerger`, answering
    each refill request from the source's list of ``B``-record blocks."""
    blocks = [
        iter([np.asarray(source[i:i + B], dtype=np.int64) if typed
              else source[i:i + B] for i in range(0, len(source), B)])
        for source in sources
    ]
    merger = BlockMerger([next(run, None) for run in blocks], key)
    merged = []
    for item in merger.blocks(B):
        if item.__class__ is int:
            merger.feed(next(blocks[item], None))
        else:
            assert 0 < len(item) <= B
            merged.extend(item.tolist() if typed else item)
    return merged


class TestBlockMerger:
    def test_merges_two_sources(self):
        assert block_merge([[1, 3, 5], [2, 4, 6]]) == [1, 2, 3, 4, 5, 6]

    def test_single_source_passthrough(self):
        assert block_merge([[1, 2, 3, 4]]) == [1, 2, 3, 4]

    def test_empty_sources(self):
        assert block_merge([[], []]) == []

    def test_mixed_empty_and_nonempty(self):
        assert block_merge([[], [2, 4], [], [1]]) == [1, 2, 4]

    def test_no_sources_merge_to_nothing(self):
        assert block_merge([]) == []

    def test_stability_ties_go_to_lower_source(self):
        a = [("x", 0), ("x", 1), ("x", 2), ("x", 3)]
        b = [("x", 4)]
        merged = block_merge([a, b], key=lambda r: r[0])
        assert merged == a + b

    def test_key_function(self):
        a = [(3, "a"), (1, "b")]
        b = [(2, "c")]
        merged = block_merge([sorted(a), b], key=lambda r: r[0])
        assert [r[0] for r in merged] == [1, 2, 3]

    @given(
        st.lists(
            st.lists(st.integers(-1000, 1000), max_size=50),
            min_size=1,
            max_size=9,
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted_concatenation(self, lists, typed):
        sources = [sorted(chunk) for chunk in lists]
        expected = sorted(x for chunk in lists for x in chunk)
        assert block_merge(sources, typed=typed) == expected

    @given(st.integers(2, 33), st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_arity_round_robin_split(self, k, n):
        data = sorted(uniform_ints(n, seed=k))
        chunks = [data[i::k] for i in range(k)]
        assert block_merge(chunks) == data


class TestMergeStreams:
    def test_merge_two_streams(self):
        m = machine()
        a = FileStream.from_records(m, [1, 3, 5])
        b = FileStream.from_records(m, [2, 4])
        out = merge_streams(m, [a, b])
        assert list(out) == [1, 2, 3, 4, 5]

    def test_merge_empty_list(self):
        m = machine()
        assert list(merge_streams(m, [])) == []

    def test_io_cost_single_pass(self):
        m = machine()
        a = FileStream.from_records(m, sorted(uniform_ints(320, seed=1)))
        b = FileStream.from_records(m, sorted(uniform_ints(320, seed=2)))
        with m.measure() as io:
            merge_streams(m, [a, b])
        assert io.reads == scan_io(640, m.B)
        assert io.writes == scan_io(640, m.B)

    def test_fan_in_beyond_memory_rejected_by_budget(self):
        m = machine(B=16, m=4)  # only 4 frames
        streams = [
            FileStream.from_records(m, sorted(uniform_ints(64, seed=i)))
            for i in range(6)
        ]
        with pytest.raises(MemoryLimitExceeded):
            merge_streams(m, streams)


class TestExternalMergeSort:
    def test_sorts_random_input(self):
        m = machine()
        data = uniform_ints(3000, seed=11)
        out = external_merge_sort(m, FileStream.from_records(m, data))
        assert list(out) == sorted(data)

    def test_in_memory_case_single_pass(self):
        m = machine()
        data = uniform_ints(100, seed=1)  # < M = 128
        s = FileStream.from_records(m, data)
        with m.measure() as io:
            out = external_merge_sort(m, s)
        assert list(out) == sorted(data)
        assert io.total == 2 * scan_io(100, m.B)

    def test_io_matches_closed_form_bound(self):
        m = machine()
        data = uniform_ints(5000, seed=1)
        s = FileStream.from_records(m, data)
        with m.measure() as io:
            external_merge_sort(m, s)
        assert io.total == sort_io(5000, m.M, m.B)

    def test_two_way_needs_more_io(self):
        data = uniform_ints(5000, seed=1)
        m1 = machine()
        with m1.measure() as io_full:
            external_merge_sort(m1, FileStream.from_records(m1, data))
        m2 = machine()
        with m2.measure() as io_two:
            two_way_merge_sort(m2, FileStream.from_records(m2, data))
        assert io_two.total > io_full.total
        # pass ratio should follow the bound
        expected_ratio = merge_passes(5000, 128, 16, fan_in=2) / merge_passes(
            5000, 128, 16
        )
        assert io_two.total / io_full.total == pytest.approx(
            expected_ratio, rel=0.25
        )

    def test_stability(self):
        m = machine()
        data = [(i % 7, i) for i in range(1000)]
        out = external_merge_sort(
            m, FileStream.from_records(m, data), key=lambda r: r[0]
        )
        result = list(out)
        assert result == sorted(data, key=lambda r: r[0])  # Timsort stable

    def test_replacement_selection_strategy(self):
        m = machine()
        data = uniform_ints(3000, seed=13)
        out = external_merge_sort(
            m,
            FileStream.from_records(m, data),
            run_strategy="replacement",
        )
        assert list(out) == sorted(data)

    def test_replacement_selection_saves_a_pass_near_boundary(self):
        """With ceil(N/M) runs just above a power of the fan-in, the ~2x
        longer replacement-selection runs remove one whole merge pass."""
        data = uniform_ints(6600, seed=13)
        m1 = machine(B=16, m=8)
        with m1.measure() as io_load:
            external_merge_sort(
                m1, FileStream.from_records(m1, data), run_strategy="load"
            )
        m2 = machine(B=16, m=8)
        with m2.measure() as io_repl:
            external_merge_sort(
                m2,
                FileStream.from_records(m2, data),
                run_strategy="replacement",
            )
        assert io_repl.total < io_load.total

    def test_unknown_strategy_rejected(self):
        m = machine()
        s = FileStream.from_records(m, [1])
        with pytest.raises(ConfigurationError):
            external_merge_sort(m, s, run_strategy="quantum")

    def test_fan_in_below_two_rejected(self):
        m = machine()
        s = FileStream.from_records(m, [1])
        with pytest.raises(ConfigurationError):
            external_merge_sort(m, s, fan_in=1)

    def test_fan_in_beyond_free_frames_rejected_before_any_io(self):
        # 8 frames: at most 7 readers beside the output writer.
        m = machine(B=16, m=8)
        s = FileStream.from_records(m, uniform_ints(2000, seed=3))
        m.reset_stats()
        with pytest.raises(ConfigurationError):
            external_merge_sort(m, s, fan_in=64)
        assert m.stats().total == 0
        assert m.budget.in_use == 0

    def test_empty_stream(self):
        m = machine()
        out = external_merge_sort(m, FileStream(m).finalize())
        assert list(out) == []

    def test_single_record(self):
        m = machine()
        out = external_merge_sort(m, FileStream.from_records(m, [42]))
        assert list(out) == [42]

    def test_all_equal_records(self):
        m = machine()
        out = external_merge_sort(m, FileStream.from_records(m, [5] * 999))
        assert list(out) == [5] * 999

    def test_intermediate_runs_deleted(self):
        m = machine()
        data = uniform_ints(5000, seed=1)
        s = FileStream.from_records(m, data)
        blocks_before = m.disk.allocated_blocks
        out = external_merge_sort(m, s)
        # input + output only; no leaked run blocks
        assert m.disk.allocated_blocks == blocks_before + out.num_blocks

    @pytest.mark.parametrize("D", [1, 4])
    def test_failed_merge_pass_deletes_its_runs(self, D):
        # Write 300 falls in the first merge pass, after some group
        # outputs have landed; eight failures in a row exhaust retries.
        m = Machine(block_size=16, memory_blocks=8, num_disks=D)
        data = uniform_ints(4000, seed=5)
        s = FileStream.from_records(m, data)
        blocks_before = m.disk.allocated_blocks
        with pytest.raises(RetryExhaustedError):
            with m.inject_faults(FaultPlan(write_errors=range(300, 308))):
                external_merge_sort(m, s)
        assert m.disk.allocated_blocks == blocks_before
        assert m.budget.in_use == 0
        assert list(s) == data  # the input survives

    def test_keep_input_false_frees_input(self):
        m = machine()
        data = uniform_ints(1000, seed=1)
        s = FileStream.from_records(m, data)
        out = external_merge_sort(m, s, keep_input=False)
        assert m.disk.allocated_blocks == out.num_blocks

    @given(st.lists(st.integers(-10**6, 10**6), max_size=600))
    @settings(max_examples=30, deadline=None)
    def test_property_sorts_any_input(self, data):
        m = machine(B=8, m=4)
        out = external_merge_sort(m, FileStream.from_records(m, data))
        assert list(out) == sorted(data)
        assert m.budget.in_use == 0  # no leaked reservations

    @given(
        st.lists(st.integers(0, 50), max_size=400),
        st.integers(2, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_any_fan_in_sorts(self, data, fan_in):
        m = machine(B=8, m=8)
        out = external_merge_sort(
            m, FileStream.from_records(m, data), fan_in=fan_in
        )
        assert list(out) == sorted(data)


class TestTypedMergeIO:
    """The typed merge round refills runs in the galloping merge's
    order: an int64 ndarray and the same values as a list of ints sort
    to the same output with the same ``IOStats``."""

    @staticmethod
    def _sort(data, D, key=None):
        m = Machine(block_size=8, memory_blocks=6, num_disks=D)
        if isinstance(data, list):
            stream = FileStream.from_records(m, data)
        else:
            stream = FileStream.from_payload(m, data)
        before = m.stats()
        out = external_merge_sort(m, stream, key=key)
        values = [record.item() if hasattr(record, "item") else record
                  for block in out.iter_blocks() for record in block]
        return values, m.stats() - before

    @pytest.mark.parametrize("D", [1, 4])
    @pytest.mark.parametrize("high", [4, 20_000, 1 << 40])
    def test_typed_and_list_payloads_cost_the_same(self, D, high):
        data = np.random.default_rng(D).integers(0, high, 1500)
        typed, typed_stats = self._sort(data, D)
        listed, listed_stats = self._sort(data.tolist(), D)
        assert typed == listed == sorted(data.tolist())
        assert typed_stats == listed_stats

    @pytest.mark.parametrize("D", [1, 4])
    @pytest.mark.parametrize("high", [5, 20_000])
    def test_structured_field_key_is_stable(self, D, high):
        rng = np.random.default_rng(5)
        data = np.zeros(1500, dtype=[("k", "<i8"), ("v", "<f8")])
        data["k"] = rng.integers(0, high, len(data))
        data["v"] = rng.random(len(data))
        out, _ = self._sort(data, D, key=field("k"))
        assert out == data[np.argsort(data["k"], kind="stable")].tolist()


class TestIntegerTieParity:
    """Integer identity keys sort with ``np.sort`` and merge untagged
    until two runs tie; the same keys as a one-field structured dtype
    under a ``field`` key always take the tagged round.  Both give the
    same output, the same ``IOStats`` and the same ``budget.peak``."""

    B, M_BLOCKS = 8, 6

    def _machine(self, backend, D, tmp_path):
        disk = None
        if backend == "file":
            disk = FileDiskArray(self.B, num_disks=D,
                                 path=str(tmp_path / "disk.blocks"))
        return Machine(block_size=self.B, memory_blocks=self.M_BLOCKS,
                       num_disks=D, disk=disk)

    def _sort(self, backend, D, tmp_path, data, key=None):
        m = self._machine(backend, D, tmp_path)
        try:
            stream = FileStream.from_payload(m, data)
            before = m.stats()
            out = external_merge_sort(m, stream, key=key)
            return concat(list(out.iter_blocks())), m.stats() - before, \
                m.budget.peak
        finally:
            if backend == "file":
                m.disk.close()

    def _load(self, D):
        """Records per run-formation memoryload at ``D`` disks."""
        m = Machine(block_size=self.B, memory_blocks=self.M_BLOCKS,
                    num_disks=D)
        return memoryload_blocks(m, m.budget.available) * self.B

    def _case(self, case, dtype, load):
        rng = np.random.default_rng(7)
        if dtype == np.bool_:
            if case == "heads_tie":
                return rng.random(600) < 0.5
            # Run 0 opens with False, run 1 is all True: no tie at the
            # heads; run 0's True tail ties run 1 mid-merge.
            head = np.zeros(load, bool)
            if case == "handoff":
                head[-4:] = True
            return np.concatenate([head, np.ones(load, bool)])
        n = 240 if dtype == np.uint8 else 2000
        if case == "heads_tie":
            return rng.integers(0, 4, n).astype(dtype)
        if case == "handoff":
            # Distinct keys but for one middle value every run holds.
            data = rng.permutation(n)
            data[::7] = n // 2
            return data.astype(dtype)
        # One run of three repeated keys, every other key distinct.
        rest = rng.permutation(np.arange(3, 3 + n - load))
        return np.concatenate([rng.integers(0, 3, load), rest]).astype(dtype)

    @pytest.mark.parametrize("backend", ["memory", "file"])
    @pytest.mark.parametrize("D", [1, 2, 4])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_])
    @pytest.mark.parametrize("case", ["heads_tie", "handoff", "within_run"])
    def test_untagged_merge_matches_tagged(self, monkeypatch, tmp_path,
                                           backend, D, dtype, case):
        data = self._case(case, dtype, self._load(D))
        reference = np.zeros(len(data), [("k", dtype)])
        reference["k"] = data
        expected, ref_stats, ref_peak = self._sort(
            backend, D, tmp_path, reference, key=field("k"))
        calls = {"_run_tags": 0, "merge_values": 0}
        for name in calls:
            def spy(*args, _name=name, _real=getattr(merge_module, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(merge_module, name, spy)
        out, stats, peak = self._sort(backend, D, tmp_path, data)
        assert out.dtype == dtype
        assert np.array_equal(out, expected["k"])
        assert np.array_equal(out, np.sort(data))
        assert stats == ref_stats
        assert peak == ref_peak
        # Each case reaches the path it names.
        if case == "heads_tie":
            assert calls == {"_run_tags": 0, "merge_values": 0}
        elif case == "handoff":
            assert calls["_run_tags"] > 0
        else:
            assert calls["_run_tags"] == 0 and calls["merge_values"] > 0

    @pytest.mark.parametrize("backend", ["memory", "file"])
    @pytest.mark.parametrize("D", [1, 4])
    def test_float_zeros_keep_stable_order(self, tmp_path, backend, D):
        data = np.random.default_rng(3).choice([-0.0, 0.0, 1.5, -2.0], 600)
        reference = np.zeros(len(data), [("k", "<f8")])
        reference["k"] = data
        expected, ref_stats, ref_peak = self._sort(
            backend, D, tmp_path, reference, key=field("k"))
        out, stats, peak = self._sort(backend, D, tmp_path, data)
        stable = data[np.argsort(data, kind="stable")]
        assert np.array_equal(np.signbit(out), np.signbit(stable))
        assert np.array_equal(np.signbit(expected["k"]), np.signbit(stable))
        assert np.array_equal(out, stable)
        assert (stats, peak) == (ref_stats, ref_peak)
