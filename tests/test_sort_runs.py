"""Tests for run formation strategies."""

import pytest

from repro.core import ConfigurationError, FileStream, Machine, scan_io
from repro.core.stream import StripedStream
from repro.pipeline import Sorter
from repro.sort import (
    average_run_length,
    form_runs_load_sort,
    form_runs_replacement_selection,
    is_sorted_stream,
    merge_sort_steps,
)
from repro.sort.runs import memoryload_blocks
from repro.workloads import reversed_ints, sorted_ints, uniform_ints


def machine():
    return Machine(block_size=16, memory_blocks=8)  # B=16, M=128


class TestLoadSortRuns:
    def test_runs_are_sorted(self):
        m = machine()
        s = FileStream.from_records(m, uniform_ints(1000, seed=3))
        runs = form_runs_load_sort(m, s)
        assert all(is_sorted_stream(r) for r in runs)

    def test_runs_cover_all_records(self):
        m = machine()
        data = uniform_ints(1000, seed=3)
        runs = form_runs_load_sort(m, FileStream.from_records(m, data))
        merged = sorted(x for r in runs for x in r)
        assert merged == sorted(data)

    def test_run_count_is_ceil_n_over_m(self):
        m = machine()
        s = FileStream.from_records(m, uniform_ints(1000, seed=3))
        runs = form_runs_load_sort(m, s)
        assert len(runs) == 8  # ceil(1000/128)

    def test_full_runs_have_m_records(self):
        m = machine()
        runs = form_runs_load_sort(
            m, FileStream.from_records(m, uniform_ints(300, seed=0))
        )
        assert [len(r) for r in runs] == [128, 128, 44]

    def test_io_cost_is_one_read_one_write_pass(self):
        m = machine()
        s = FileStream.from_records(m, uniform_ints(1000, seed=3))
        with m.measure() as io:
            form_runs_load_sort(m, s)
        blocks = scan_io(1000, 16)
        assert io.reads == blocks
        assert io.writes == blocks

    def test_empty_input(self):
        m = machine()
        runs = form_runs_load_sort(m, FileStream(m).finalize())
        assert runs == []

    def test_key_function_respected(self):
        m = machine()
        data = [(i, -i) for i in range(200)]
        runs = form_runs_load_sort(
            m, FileStream.from_records(m, data), key=lambda r: r[1]
        )
        assert all(is_sorted_stream(r, key=lambda r: r[1]) for r in runs)


@pytest.mark.parametrize("D, stream_cls, held, blocks", [
    (1, FileStream, 0, 12),
    (1, FileStream, 3, 9),
    (3, FileStream, 0, 9),     # D-1 write-behind frames, stripe-aligned
    (3, FileStream, 3, 6),
    (3, StripedStream, 0, 12),  # a striped writer needs no window
    (3, StripedStream, 3, 9),
    (4, FileStream, 0, 8),
    (4, FileStream, 3, 4),
    (4, StripedStream, 0, 12),
    (4, StripedStream, 3, 8),
])
def test_callers_share_the_memoryload_rule(D, stream_cls, held, blocks):
    """Load-sort run formation, the pipelined ``Sorter`` and the
    cooperative sort all size their memoryloads by ``memoryload_blocks``
    over the budget left unheld."""
    m = Machine(block_size=8, memory_blocks=12, num_disks=D)
    data = list(range(400, 0, -1))
    stream = FileStream.from_records(m, data)
    with m.budget.reserve(held * m.B):
        available = m.budget.available
        assert memoryload_blocks(m, available, stream_cls) == blocks

        runs = form_runs_load_sort(m, stream, stream_cls=stream_cls)
        assert len(runs[0]) == blocks * m.B
        for run in runs:
            run.delete()

        # The Sorter's runs are FileStreams.
        with Sorter(m) as sorter:
            sorter.consume(data)
            assert len(sorter._runs[0]) == memoryload_blocks(
                m, available) * m.B

        # The cooperative sort writes its runs block by block through a
        # FileStream; its first intent reads one memoryload.
        job = merge_sort_steps(m, stream)
        first = next(job)
        job.close()
        assert len(first.block_ids) == memoryload_blocks(
            m, available, FileStream)
    assert m.budget.in_use == 0


class TestReplacementSelection:
    def test_runs_are_sorted(self):
        m = machine()
        s = FileStream.from_records(m, uniform_ints(1000, seed=5))
        runs = form_runs_replacement_selection(m, s)
        assert all(is_sorted_stream(r) for r in runs)

    def test_runs_cover_all_records(self):
        m = machine()
        data = uniform_ints(1000, seed=5)
        runs = form_runs_replacement_selection(
            m, FileStream.from_records(m, data)
        )
        assert sorted(x for r in runs for x in r) == sorted(data)

    def test_average_run_length_near_2m_on_random_input(self):
        m = machine()
        heap = m.M - 2 * m.B  # 96
        s = FileStream.from_records(m, uniform_ints(6000, seed=5))
        runs = form_runs_replacement_selection(m, s)
        avg = average_run_length(runs)
        assert 1.6 * heap <= avg <= 2.6 * heap

    def test_sorted_input_yields_single_run(self):
        m = machine()
        runs = form_runs_replacement_selection(
            m, FileStream.from_records(m, sorted_ints(2000))
        )
        assert len(runs) == 1
        assert len(runs[0]) == 2000

    def test_reversed_input_degrades_to_heap_size_runs(self):
        m = machine()
        heap = m.M - 2 * m.B
        runs = form_runs_replacement_selection(
            m, FileStream.from_records(m, reversed_ints(2000))
        )
        full_runs = runs[:-1]
        assert all(len(r) == heap for r in full_runs)

    def test_fewer_runs_than_load_sort_on_random_input(self):
        data = uniform_ints(4000, seed=9)
        m1 = machine()
        load = form_runs_load_sort(m1, FileStream.from_records(m1, data))
        m2 = machine()
        repl = form_runs_replacement_selection(
            m2, FileStream.from_records(m2, data)
        )
        assert len(repl) < len(load)

    def test_input_smaller_than_heap(self):
        m = machine()
        runs = form_runs_replacement_selection(
            m, FileStream.from_records(m, [3, 1, 2])
        )
        assert len(runs) == 1
        assert list(runs[0]) == [1, 2, 3]

    def test_empty_input(self):
        m = machine()
        runs = form_runs_replacement_selection(m, FileStream(m).finalize())
        assert runs == []

    def test_requires_three_memory_blocks(self):
        m = Machine(block_size=16, memory_blocks=2)
        with pytest.raises(ConfigurationError):
            form_runs_replacement_selection(m, FileStream(m).finalize())

    def test_reader_frame_released_while_fault_propagates(self):
        """Regression (EM301): the input reader was opened with a bare
        ``iter(stream)``, so a fault in the key function left its pinned
        frame held for as long as the propagating exception's traceback
        kept the generator frame alive.  The reader is now wrapped in
        ``closing()``, which releases the frame on the way out — the
        budget must already be balanced *inside* the handler, while the
        traceback (and with it the generator) is still referenced."""
        m = machine()
        s = FileStream.from_records(m, uniform_ints(500, seed=7))

        calls = {"n": 0}

        def fragile_key(record):
            calls["n"] += 1
            if calls["n"] > 120:
                raise RuntimeError("keyer died mid-pass")
            return record

        try:
            form_runs_replacement_selection(m, s, key=fragile_key)
        except RuntimeError:
            assert m.budget.in_use == 0
            # The fault handler also deleted every half-formed run.
            assert m.disk.allocated_blocks == s.num_blocks
        else:
            pytest.fail("fragile key never raised")

    def test_duplicate_keys_handled(self):
        m = machine()
        data = [7] * 500 + [3] * 500
        runs = form_runs_replacement_selection(
            m, FileStream.from_records(m, data)
        )
        assert sorted(x for r in runs for x in r) == sorted(data)
        assert all(is_sorted_stream(r) for r in runs)
