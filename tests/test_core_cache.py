"""Unit tests for the buffer pool and eviction policies."""

import random

import pytest

from repro.core import (
    BufferPool,
    ClockPolicy,
    ConfigurationError,
    FIFOPolicy,
    LRUPolicy,
    Machine,
    MemoryLimitExceeded,
    MinPolicy,
    MRUPolicy,
    PoolError,
    SimulatedDisk,
)


def make_disk(num_blocks=16, capacity=4):
    disk = SimulatedDisk(block_capacity=capacity)
    ids = []
    for i in range(num_blocks):
        bid = disk.allocate()
        disk.write(bid, [i])
        ids.append(bid)
    disk.counter.reset()
    return disk, ids


class TestBufferPoolBasics:
    def test_miss_then_hit(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=4)
        pool.get(ids[0])
        pool.get(ids[0])
        assert pool.misses == 1
        assert pool.hits == 1
        assert disk.counter.reads == 1

    def test_capacity_enforced_by_eviction(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=2)
        for bid in ids[:5]:
            pool.get(bid)
        assert pool.resident_count == 2
        assert pool.evictions == 3

    def test_dirty_block_flushed_on_eviction(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=1)
        frame = pool.get(ids[0])
        frame.append(99)
        pool.mark_dirty(ids[0])
        pool.get(ids[1])  # evicts ids[0]
        assert disk.peek(ids[0]) == [0, 99]
        assert disk.counter.writes == 1

    def test_clean_eviction_costs_no_write(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=1)
        pool.get(ids[0])
        pool.get(ids[1])
        assert disk.counter.writes == 0

    def test_put_new_skips_read(self):
        disk, _ = make_disk()
        bid = disk.allocate()
        pool = BufferPool(disk, capacity=2)
        disk.counter.reset()
        frame = pool.put_new(bid, [5])
        assert frame == [5]
        assert disk.counter.reads == 0
        pool.flush(bid)
        assert disk.peek(bid) == [5]

    def test_put_new_resident_block_rejected(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=2)
        pool.get(ids[0])
        with pytest.raises(PoolError):
            pool.put_new(ids[0])

    def test_flush_all_writes_every_dirty_block(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=4)
        for bid in ids[:3]:
            frame = pool.get(bid)
            frame.append(1)
            pool.mark_dirty(bid)
        pool.flush_all()
        assert disk.counter.writes == 3
        pool.flush_all()  # idempotent
        assert disk.counter.writes == 3

    def test_drop_flushes_and_releases_frame(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=2)
        frame = pool.get(ids[0])
        frame.append(7)
        pool.mark_dirty(ids[0])
        pool.drop(ids[0])
        assert not pool.is_resident(ids[0])
        assert disk.peek(ids[0]) == [0, 7]

    def test_invalidate_discards_without_flush(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=2)
        frame = pool.get(ids[0])
        frame.append(7)
        pool.mark_dirty(ids[0])
        pool.invalidate(ids[0])
        assert disk.counter.writes == 0
        assert disk.peek(ids[0]) == [0]

    def test_mark_dirty_nonresident_raises(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=2)
        with pytest.raises(PoolError):
            pool.mark_dirty(ids[0])

    def test_zero_capacity_rejected(self):
        disk, _ = make_disk()
        with pytest.raises(ConfigurationError):
            BufferPool(disk, capacity=0)


class TestPinning:
    def test_pinned_block_survives_eviction_pressure(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=2)
        pool.get(ids[0])
        pool.pin(ids[0])
        for bid in ids[1:6]:
            pool.get(bid)
        assert pool.is_resident(ids[0])

    def test_all_pinned_raises(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=2)
        pool.get(ids[0])
        pool.pin(ids[0])
        pool.get(ids[1])
        pool.pin(ids[1])
        with pytest.raises(PoolError):
            pool.get(ids[2])

    def test_unpin_restores_evictability(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=1)
        pool.get(ids[0])
        pool.pin(ids[0])
        pool.unpin(ids[0])
        pool.get(ids[1])
        assert not pool.is_resident(ids[0])

    def test_unpin_unpinned_raises(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=1)
        pool.get(ids[0])
        with pytest.raises(PoolError):
            pool.unpin(ids[0])

    def test_nested_pins(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=1)
        pool.get(ids[0])
        pool.pin(ids[0])
        pool.pin(ids[0])
        pool.unpin(ids[0])
        with pytest.raises(PoolError):
            pool.get(ids[1])  # still pinned once
        pool.unpin(ids[0])
        pool.get(ids[1])


class TestEvictionPolicies:
    def run_trace(self, policy, trace, capacity, disk, ids):
        pool = BufferPool(disk, capacity=capacity, policy=policy)
        for i in trace:
            pool.get(ids[i])
        return pool

    def test_lru_evicts_least_recent(self):
        disk, ids = make_disk()
        pool = self.run_trace(LRUPolicy(), [0, 1, 0, 2], 2, disk, ids)
        assert pool.is_resident(ids[0])
        assert not pool.is_resident(ids[1])

    def test_mru_evicts_most_recent(self):
        disk, ids = make_disk()
        pool = self.run_trace(MRUPolicy(), [0, 1, 2], 2, disk, ids)
        assert pool.is_resident(ids[0])
        assert not pool.is_resident(ids[1])

    def test_fifo_ignores_recency(self):
        disk, ids = make_disk()
        # Access 0 again before overflow; FIFO still evicts 0 first.
        pool = self.run_trace(FIFOPolicy(), [0, 1, 0, 2], 2, disk, ids)
        assert not pool.is_resident(ids[0])
        assert pool.is_resident(ids[1])

    def test_fifo_requeues_a_returning_block_as_newest(self):
        """A block invalidated and read again queues behind the blocks
        that stayed: after 0, 1, 2, invalidate 1, 1, a capacity-3 pool
        evicts 0 then 2, and keeps 1."""
        disk, ids = make_disk()
        pool = self.run_trace(FIFOPolicy(), [0, 1, 2], 3, disk, ids)
        pool.invalidate(ids[1])
        pool.get(ids[1])
        pool.get(ids[3])
        assert not pool.is_resident(ids[0])
        assert pool.is_resident(ids[1]) and pool.is_resident(ids[2])
        pool.get(ids[4])
        assert not pool.is_resident(ids[2])
        assert pool.is_resident(ids[1])
        assert list(pool.policy._queue) == [ids[1], ids[3], ids[4]]

    def test_clock_sweep_evicts_unreferenced_first(self):
        disk, ids = make_disk()
        # After [0,1,2] the sweep has cleared 1's bit; 2 enters referenced,
        # so the next fault evicts 1 and keeps 2.
        pool = self.run_trace(ClockPolicy(), [0, 1, 2, 3], 2, disk, ids)
        assert pool.is_resident(ids[2])
        assert pool.is_resident(ids[3])

    def test_clock_tracks_lru_more_closely_than_fifo(self):
        """On a hot/cold skewed trace, clock (an LRU approximation) should
        land between FIFO and LRU in miss count."""
        import random

        rng = random.Random(3)
        trace = []
        for _ in range(600):
            if rng.random() < 0.5:
                trace.append(rng.randrange(4))  # hot set
            else:
                trace.append(4 + rng.randrange(12))  # cold set

        def misses(policy):
            disk, ids = make_disk(num_blocks=16)
            return self.run_trace(policy, trace, 8, disk, ids).misses

        clock = misses(ClockPolicy())
        fifo = misses(FIFOPolicy())
        lru = misses(LRUPolicy())
        assert lru <= clock <= fifo

    def test_min_policy_is_no_worse_than_lru_on_any_trace(self):
        import random

        rng = random.Random(7)
        trace = [rng.randrange(8) for _ in range(200)]
        disk1, ids1 = make_disk()
        lru_pool = self.run_trace(LRUPolicy(), trace, 3, disk1, ids1)
        disk2, ids2 = make_disk()
        min_pool = self.run_trace(MinPolicy(trace), trace, 3, disk2, ids2)
        assert min_pool.misses <= lru_pool.misses

    def test_mru_beats_lru_on_cyclic_scan(self):
        """The classic result: LRU gets zero hits on a loop one block larger
        than memory, MRU retains most of it."""
        trace = list(range(5)) * 10  # loop of 5 blocks, pool of 4
        disk1, ids1 = make_disk()
        lru_pool = self.run_trace(LRUPolicy(), trace, 4, disk1, ids1)
        disk2, ids2 = make_disk()
        mru_pool = self.run_trace(MRUPolicy(), trace, 4, disk2, ids2)
        assert lru_pool.hits == 0
        assert mru_pool.hits > len(trace) // 2


class TestDropPinned:
    """Regression: drop used to discard a pinned frame silently, leaving
    the pin count pointing at a ghost so the later unpin raised."""

    def test_drop_pinned_refused(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=2)
        pool.get(ids[0])
        pool.pin(ids[0])
        with pytest.raises(PoolError):
            pool.drop(ids[0])
        assert pool.is_resident(ids[0])
        pool.unpin(ids[0])  # the seed raised "not pinned" here
        pool.drop(ids[0])
        assert not pool.is_resident(ids[0])

    def test_drop_pinned_does_not_lose_dirty_data(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=2)
        frame = pool.get(ids[0])
        frame.append(42)
        pool.mark_dirty(ids[0])
        pool.pin(ids[0])
        with pytest.raises(PoolError):
            pool.drop(ids[0])
        pool.unpin(ids[0])
        pool.drop(ids[0])
        assert disk.peek(ids[0]) == [0, 42]

    def test_drop_all_refuses_while_pinned(self):
        disk, ids = make_disk()
        pool = BufferPool(disk, capacity=2)
        pool.get(ids[0])
        pool.pin(ids[0])
        with pytest.raises(PoolError):
            pool.drop_all()
        pool.unpin(ids[0])
        pool.drop_all()
        assert pool.resident_count == 0


class TestMinClockDrift:
    """Regression: MinPolicy._advance ticked its clock for blocks absent
    from the offline trace (fresh put_new allocations), desynchronizing
    every later future-position lookup — drifted MIN could lose to LRU."""

    @staticmethod
    def run_workload(policy_factory, ops, capacity, num_blocks):
        disk = SimulatedDisk(block_capacity=4)
        ids = [disk.allocate() for _ in range(num_blocks)]
        for bid in ids:
            disk.write(bid, [0])
        disk.counter.reset()
        pool = BufferPool(disk, capacity=capacity, policy=policy_factory())
        for kind, index in ops:
            if kind == "get":
                pool.get(ids[index])
            else:  # a fresh allocation the offline trace never saw
                pool.put_new(disk.allocate(), [0])
        return pool.misses

    @staticmethod
    def make_workload(seed=6, length=120, num_blocks=8, new_rate=0.25):
        import random

        rng = random.Random(seed)
        ops, trace = [], []
        for _ in range(length):
            if rng.random() < new_rate:
                ops.append(("new", None))
            else:
                index = rng.randrange(num_blocks)
                ops.append(("get", index))
                trace.append(index)
        return ops, trace

    def test_untraced_insert_does_not_tick_clock(self):
        policy = MinPolicy([0, 1, 0])
        policy.on_insert(99)  # absent from the trace
        assert policy._clock == 0
        policy.on_access(0)
        assert policy._clock == 1

    def test_min_beats_lru_on_trace_with_allocations(self):
        """Seed 6 is a witness for the drift bug: with the clock ticking
        on untraced inserts MIN scored 64 misses vs LRU's 62; in sync it
        scores 40."""
        ops, trace = self.make_workload()
        lru = self.run_workload(LRUPolicy, ops, 3, 8)
        offline = self.run_workload(lambda: MinPolicy(trace), ops, 3, 8)
        assert offline <= lru
        assert offline < 50


def _reference_victim(policy, candidates):
    """Each policy's choice over a materialized set of evictable ids,
    the way the pool chose victims before it tested frames in place."""
    if isinstance(policy, (LRUPolicy, MRUPolicy)):
        order = policy._order if isinstance(policy, LRUPolicy) \
            else reversed(policy._order)
        return next(b for b in order if b in candidates)
    if isinstance(policy, FIFOPolicy):
        queue = policy._queue
        while True:
            head = next(iter(queue))
            if head in candidates:
                return head
            queue.move_to_end(head)
    if isinstance(policy, ClockPolicy):
        ref = policy._ref
        for _ in range(2 * len(ref) + 1):
            block_id, referenced = next(iter(ref.items()))
            ref.move_to_end(block_id)
            if block_id not in candidates:
                continue
            if not referenced:
                return block_id
            ref[block_id] = False
        return next(b for b in ref if b in candidates)
    farthest, farthest_next = None, -1
    for block_id in candidates:
        positions = policy._future.get(block_id)
        next_use = positions[0] if positions else float("inf")
        if next_use > farthest_next:
            farthest, farthest_next = block_id, next_use
            if next_use == float("inf"):
                break
    return farthest


class _CandidateSetPool(BufferPool):
    """The reference chooser: every eviction builds the set of unpinned
    frames (less the dirty ones on reclaim's clean-first pass) and
    hands it to :func:`_reference_victim`."""

    passes = None  # reclaim passes taken, by kind

    def _unpinned(self):
        return {b for b in self._frames if self._pins.get(b, 0) == 0}

    def _make_room(self, needed):
        while len(self._frames) > self.capacity - needed:
            candidates = self._unpinned()
            if not candidates:
                raise PoolError("buffer pool exhausted: every frame is pinned")
            victim = _reference_victim(self.policy, candidates)
            self._retire(victim)
            self.evictions += 1
            self._notify("eviction", victim)

    def reclaim(self, deficit):
        freed, dirty_victims = 0, []
        while freed < deficit:
            candidates = self._unpinned()
            if not candidates:
                break
            clean = candidates - self._dirty
            if clean:
                self.passes["clean"] += 1
                victim = _reference_victim(self.policy, clean)
                payload = self._frames.pop(victim)
                self.policy.on_remove(victim)
                self._verify_retired(victim, payload, was_dirty=False)
            else:
                self.passes["dirty"] += 1
                victim = _reference_victim(self.policy, candidates)
                payload = self._frames.pop(victim)
                self._dirty.discard(victim)
                self.policy.on_remove(victim)
                dirty_victims.append((victim, payload))
            self._budget.release(self._frame_records, reclaimable=True)
            freed += self._frame_records
            self.evictions += 1
            self._notify("eviction", victim)
        if dirty_victims:
            runtime = self._runtime()
            runtime.writer.discard([b for b, _ in dirty_victims])
            runtime.scheduler.write_batch(dirty_victims)
        return freed


class TestVictimParity:
    """The pool tests frames in place (a pin-table or dirty-set lookup)
    instead of building a candidate set per eviction; every policy must
    still pick the victims the candidate-set chooser picked, and every
    counter must come out the same."""

    B, FRAMES, BLOCKS, OPS = 4, 10, 40, 600

    def make_ops(self, seed):
        rng = random.Random(seed)
        kinds = ["get"] * 8 + ["get_many"] * 2 + [
            "put_new", "pin", "unpin", "dirty", "invalidate", "hold",
            "free", "reclaim"]
        ops, trace = [], []
        for _ in range(self.OPS):
            kind = rng.choice(kinds)
            if kind == "get":
                arg = rng.randrange(self.BLOCKS)
                trace.append(arg)
            elif kind == "get_many":
                arg = [rng.randrange(self.BLOCKS)
                       for _ in range(rng.randint(1, 4))]
                trace.extend(arg)
            elif kind in ("hold", "reclaim"):
                arg = rng.randint(1, 4)
            else:
                arg = rng.random()
            ops.append((kind, arg))
        return ops, trace

    def run(self, pool_class, make_policy, seed):
        ops, trace = self.make_ops(seed)
        # MIN sees only the first quarter of the trace, so most of its
        # choices are ties between blocks it expects never to see again.
        machine = Machine(block_size=self.B, memory_blocks=self.FRAMES,
                          policy=make_policy(trace[:len(trace) // 4]))
        ids = []
        for i in range(self.BLOCKS):
            ids.append(machine.disk.allocate())
            machine.disk.write(ids[-1], [i])
        machine.reset_stats()
        machine.runtime  # noqa: B018 - installs the budget's reclaimer
        pool = machine.pool
        pool.__class__ = pool_class
        pool.passes = {"clean": 0, "dirty": 0}
        events, pinned, held = [], [], []
        notify = pool._notify
        pool._notify = lambda event, block_id: (
            events.append((event, block_id)), notify(event, block_id))

        def pick(r, pool_of):
            return pool_of[int(r * len(pool_of))] if pool_of else None

        for kind, arg in ops:
            resident = sorted(pool._frames)
            try:
                if kind == "get":
                    pool.get(ids[arg])
                elif kind == "get_many":
                    pool.get_many([ids[i] for i in arg])
                elif kind == "put_new":
                    pool.put_new(machine.disk.allocate(), [kind])
                elif kind == "pin" and len(pinned) < 3:
                    block_id = pick(arg, resident)
                    if block_id is not None:
                        pool.pin(block_id)
                        pinned.append(block_id)
                elif kind == "unpin" and pinned:
                    pool.unpin(pinned.pop(int(arg * len(pinned))))
                elif kind == "dirty" and resident:
                    pool.mark_dirty(pick(arg, resident))
                elif kind == "invalidate" and resident:
                    block_id = pick(arg, resident)
                    pool.invalidate(block_id)
                    pinned = [b for b in pinned if b != block_id]
                elif kind == "hold" and len(held) < 3:
                    machine.budget.acquire(arg * self.B)
                    held.append(arg * self.B)
                elif kind == "free" and held:
                    machine.budget.release(held.pop())
                elif kind == "reclaim":
                    pool.reclaim(arg * self.B)
            except (PoolError, MemoryLimitExceeded) as exc:
                events.append(("raised", type(exc).__name__))
        pool.flush_all()
        counters = (pool.hits, pool.misses, pool.evictions, pool.bypasses)
        return events, counters, machine.stats(), pool.passes

    @pytest.mark.parametrize("make_policy", [
        lambda trace: LRUPolicy(),
        lambda trace: MRUPolicy(),
        lambda trace: FIFOPolicy(),
        lambda trace: ClockPolicy(),
        MinPolicy,
    ], ids=["lru", "mru", "fifo", "clock", "min"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_victims_and_counters(self, make_policy, seed):
        events, counters, stats, passes = self.run(
            _CandidateSetPool, make_policy, seed)
        assert self.run(BufferPool, make_policy, seed)[:3] == \
            (events, counters, stats)
        # The trace reaches every branch the in-place test replaced.
        assert passes["clean"] and passes["dirty"]
        assert {"eviction", "bypass"} <= {event for event, _ in events}

    @pytest.mark.parametrize("make_policy", [
        LRUPolicy, MRUPolicy, FIFOPolicy, ClockPolicy,
        lambda: MinPolicy([]),
    ], ids=["lru", "mru", "fifo", "clock", "min"])
    def test_pinned_frames_stop_eviction(self, make_policy):
        machine = Machine(block_size=self.B, memory_blocks=3,
                          policy=make_policy())
        ids = [machine.disk.allocate() for _ in range(4)]
        for block_id in ids:
            machine.disk.write(block_id, [block_id])
        pool = machine.pool
        for block_id in ids[:3]:
            pool.get(block_id)
            pool.pin(block_id)
        with pytest.raises(PoolError, match="every frame is pinned"):
            pool.get(ids[3])
        pool.unpin(ids[0])
        pool.mark_dirty(ids[0])
        assert pool.reclaim(10 * self.B) == self.B  # the one dirty frame
        assert pool.reclaim(self.B) == 0  # only pinned frames are left
        assert sorted(pool._frames) == sorted(ids[1:3])
        assert machine.disk.peek(ids[0]) == [ids[0]]
