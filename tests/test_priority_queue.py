"""Tests for the external priority queue and its B-tree baseline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, EMError, Machine, sort_io
from repro.pq import BTreePriorityQueue, ExternalPriorityQueue


def machine(B=16, m=16):
    return Machine(block_size=B, memory_blocks=m)


class TestSequenceHeap:
    def test_insert_delete_min_sorted(self):
        m = machine()
        with ExternalPriorityQueue(m) as pq:
            rng = random.Random(1)
            values = [rng.randrange(10**6) for _ in range(3000)]
            for v in values:
                pq.insert(v)
            drained = [pq.delete_min()[0] for _ in range(len(values))]
        assert drained == sorted(values)

    def test_items_carried_with_priorities(self):
        m = machine()
        with ExternalPriorityQueue(m) as pq:
            pq.insert(3, "c")
            pq.insert(1, "a")
            pq.insert(2, "b")
            assert pq.delete_min() == (1, "a")
            assert pq.delete_min() == (2, "b")
            assert pq.delete_min() == (3, "c")

    def test_fifo_among_equal_priorities(self):
        m = machine()
        with ExternalPriorityQueue(m) as pq:
            for i in range(100):
                pq.insert(5, i)
            assert [pq.delete_min()[1] for _ in range(100)] == list(range(100))

    def test_peek_does_not_remove(self):
        m = machine()
        with ExternalPriorityQueue(m) as pq:
            pq.insert(4, "x")
            assert pq.peek_min() == (4, "x")
            assert len(pq) == 1
            assert pq.delete_min() == (4, "x")

    def test_empty_delete_raises(self):
        m = machine()
        with ExternalPriorityQueue(m) as pq:
            with pytest.raises(EMError):
                pq.delete_min()

    def test_empty_peek_raises(self):
        m = machine()
        with ExternalPriorityQueue(m) as pq:
            with pytest.raises(EMError):
                pq.peek_min()

    def test_interleaved_insert_delete(self):
        """Inserts with priorities below already-deleted minima must still
        surface correctly (monotone violation handled by the heap)."""
        m = machine()
        with ExternalPriorityQueue(m) as pq:
            import heapq

            reference = []
            rng = random.Random(3)
            drained = []
            expected = []
            for _ in range(4000):
                if reference and rng.random() < 0.45:
                    expected.append(heapq.heappop(reference)[0])
                    drained.append(pq.delete_min()[0])
                else:
                    v = rng.randrange(10**6)
                    heapq.heappush(reference, (v,))
                    pq.insert(v)
            while reference:
                expected.append(heapq.heappop(reference)[0])
                drained.append(pq.delete_min()[0])
            assert drained == expected

    def test_spills_create_disk_levels(self):
        # Frames: the insertion heap plus one per live on-disk run, so
        # memory must cover the run fan-out across levels.
        m = machine(B=8, m=16)
        with ExternalPriorityQueue(m, insertion_capacity=16) as pq:
            for i in range(500):
                pq.insert(i)
            assert pq.num_levels >= 1
            assert m.disk.allocated_blocks > 0

    def test_close_releases_budget_and_disk(self):
        m = machine()
        pq = ExternalPriorityQueue(m, insertion_capacity=16)
        for i in range(500):
            pq.insert(i)
        pq.close()
        assert m.budget.in_use == 0
        assert m.disk.allocated_blocks == 0

    def test_close_releases_frames_after_exception(self):
        """Reader frames pinned by open runs are released by close()
        deterministically (not left to GC), even when the algorithm
        using the queue dies mid-drain."""
        m = machine()
        with pytest.raises(RuntimeError):
            with ExternalPriorityQueue(m, insertion_capacity=16) as pq:
                rng = random.Random(4)
                for _ in range(2000):
                    pq.insert(rng.randrange(1000))
                for _ in range(100):  # open several run readers
                    pq.delete_min()
                raise RuntimeError("algorithm died mid-use")
        assert m.budget.in_use == 0
        assert m.disk.allocated_blocks == 0

    def test_frame_budget_with_many_runs_and_resident_frame(self):
        """Regression for the bench_f19 n=8000 overflow: every open
        on-disk run pins a reader frame, and with a caller-resident
        frame (the SSSP distance table) plus the insertion heap, run
        proliferation pushed peak memory past M.  The queue now merges
        levels early when spare frames run out."""
        m = machine(B=64, m=16)
        m.budget.acquire(64)  # caller-resident frame, as in sssp
        try:
            rng = random.Random(20)
            with ExternalPriorityQueue(m) as pq:
                pending = 0
                # ~32k queue inserts is what Dijkstra over the n=8000,
                # avg-degree-6 benchmark graph performs: enough spills
                # for three run levels plus a cascading merge.
                for i in range(32000):
                    pq.insert(rng.randrange(10**6), i)
                    pending += 1
                    # Dijkstra-like interleaving: occasional deletes
                    # keep run readers open across spills.
                    if i % 5 == 4:
                        pq.delete_min()
                        pending -= 1
                drained = [pq.delete_min()[0] for _ in range(pending)]
            assert drained == sorted(drained)
            assert m.budget.peak <= m.M
            assert m.budget.in_use == 64
        finally:
            m.budget.release(64)

    def test_more_disks_move_the_same_blocks(self):
        """Disks only pack transfers into fewer steps.  A run read with
        sequential read-ahead pins staged blocks against the budget,
        so at D > 1 the frame guard saw fewer spare frames and merged
        levels early (3,732 transfers at D=2 against 2,376 at D=1)."""
        counts = {}
        for disks in (1, 2, 4):
            m = Machine(block_size=64, memory_blocks=16, num_disks=disks)
            m.budget.acquire(64)  # caller-resident frame, as in sssp
            rng = random.Random(20)
            with ExternalPriorityQueue(m) as pq:
                pending = 0
                for i in range(32000):
                    pq.insert(rng.randrange(10**6), i)
                    pending += 1
                    if i % 5 == 4:
                        pq.delete_min()
                        pending -= 1
                drained = [pq.delete_min()[0] for _ in range(pending)]
            assert drained == sorted(drained)
            assert m.budget.peak <= m.M
            assert m.budget.in_use == 64
            assert m.disk.allocated_blocks == 0
            m.budget.release(64)
            stats = m.stats()
            counts[disks] = (stats.total, stats.total_steps)
        assert counts[2][0] == counts[4][0] == counts[1][0]
        assert counts[4][1] < counts[2][1] < counts[1][1]

    def test_operations_after_close_rejected(self):
        m = machine()
        pq = ExternalPriorityQueue(m)
        pq.close()
        with pytest.raises(EMError):
            pq.insert(1)

    def test_close_is_idempotent(self):
        m = machine()
        pq = ExternalPriorityQueue(m)
        pq.close()
        pq.close()

    def test_faulted_close_retry_does_not_double_release(self):
        """Regression (EM303): close() used to release the insertion
        reservation *before* closing the runs and flip ``_closed`` only
        at the very end, so a run teardown fault left the flag unset —
        a retried close() (the standard cleanup idiom) then released
        the reservation a second time, silently stealing frames from
        whichever component held them.  The flag now flips first and
        the release sits in a ``finally``, so the retry is a no-op."""
        m = machine()
        bystander = 40  # another component's live reservation
        m.budget.acquire(bystander)
        try:
            pq = ExternalPriorityQueue(m, insertion_capacity=16)
            for i in range(500):
                pq.insert(i)
            victim = next(
                run for level in pq._levels for run in level
            )
            original_delete = victim.stream.delete

            def faulting_delete():
                raise OSError("transient device fault during teardown")

            victim.stream.delete = faulting_delete
            with pytest.raises(OSError):
                pq.close()
            victim.stream.delete = original_delete
            in_use_after_fault = m.budget.in_use
            pq.close()  # retry must pass the guard as a no-op
            assert m.budget.in_use == in_use_after_fault
        finally:
            # The bystander's reservation was never touched.
            m.budget.release(bystander)

    def test_bad_arity_rejected(self):
        with pytest.raises(ConfigurationError):
            ExternalPriorityQueue(machine(), group_arity=1)

    def test_io_near_sort_bound(self):
        m = machine()
        rng = random.Random(5)
        values = [rng.randrange(10**6) for _ in range(5000)]
        with ExternalPriorityQueue(m) as pq:
            with m.measure() as io:
                for v in values:
                    pq.insert(v)
                for _ in values:
                    pq.delete_min()
        assert io.total <= 3 * sort_io(len(values), m.M, m.B)

    @given(st.lists(st.integers(-10**9, 10**9), max_size=400))
    @settings(max_examples=25, deadline=None)
    def test_property_heapsort_equivalence(self, values):
        m = machine(B=8, m=12)
        with ExternalPriorityQueue(m, insertion_capacity=8) as pq:
            for v in values:
                pq.insert(v)
            drained = [pq.delete_min()[0] for _ in range(len(values))]
        assert drained == sorted(values)


class TestBTreePQ:
    def test_sorted_drain(self):
        m = machine()
        pq = BTreePriorityQueue(m)
        rng = random.Random(2)
        values = [rng.randrange(10**6) for _ in range(800)]
        for v in values:
            pq.insert(v)
        assert [pq.delete_min()[0] for _ in values] == sorted(values)

    def test_fifo_among_equal_priorities(self):
        m = machine()
        pq = BTreePriorityQueue(m)
        for i in range(50):
            pq.insert(1, i)
        assert [pq.delete_min()[1] for _ in range(50)] == list(range(50))

    def test_empty_raises(self):
        pq = BTreePriorityQueue(machine())
        with pytest.raises(EMError):
            pq.delete_min()
        with pytest.raises(EMError):
            pq.peek_min()

    def test_peek(self):
        pq = BTreePriorityQueue(machine())
        pq.insert(9, "z")
        pq.insert(2, "a")
        assert pq.peek_min() == (2, "a")
        assert len(pq) == 2

    def test_sequence_heap_beats_btree_pq(self):
        """The headline claim: batched PQ ops cost a small fraction of
        per-operation tree searches."""
        rng = random.Random(4)
        values = [rng.randrange(10**6) for _ in range(3000)]
        m1 = machine(m=16)
        with ExternalPriorityQueue(m1) as pq:
            with m1.measure() as io_seq:
                for v in values:
                    pq.insert(v)
                for _ in values:
                    pq.delete_min()
        m2 = machine(m=16)
        bpq = BTreePriorityQueue(m2)
        with m2.measure() as io_btree:
            for v in values:
                bpq.insert(v)
            for _ in values:
                bpq.delete_min()
        assert io_seq.total * 3 < io_btree.total
