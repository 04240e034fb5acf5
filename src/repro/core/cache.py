"""Buffer pool with pluggable eviction policies.

The I/O model assumes the algorithm controls which ``M/B`` blocks reside in
internal memory.  Data structures in this library (B+-tree, hashing, buffer
tree) access disk through a :class:`BufferPool` whose frame budget is the
machine's ``m = M/B``; repeated access to a cached block is then free, and
the pool's hit/miss statistics expose the paging behaviour.

Eviction is pluggable so the survey's remark that the model assumes optimal
(or at least explicit) paging can be quantified: the ablation benchmark
compares LRU, FIFO, Clock, MRU, and Belady's offline MIN on the same access
traces.

A machine-attached pool (the default: :class:`~repro.core.machine.Machine`
wires its pool to its budget and runtime) is a first-class citizen of the
I/O runtime rather than a side door around it:

* **Misses** go through :meth:`~repro.runtime.Runtime.read_block`, so a
  transiently failing cached read is retried with backoff (charged as
  stall steps) exactly like streaming I/O, instead of surfacing a raw
  :class:`~repro.core.exceptions.TransientReadError` to a B+-tree lookup.
* **Dirty write-backs** go through the runtime's
  :class:`~repro.runtime.writebehind.WriteBehind`, coalescing into
  ``D``-block waves on a multi-disk machine (write-through with
  bit-identical counts at ``D == 1``).
* **Frames are charged to the machine's memory budget** (``B``
  reclaimable records each) so structures plus algorithms share one
  ``M``; under algorithm pressure the budget's reclaimer shrinks the
  pool via :meth:`BufferPool.reclaim`, evicting clean frames first.
* **Torn writes are scrubbed.**  When checksums are enabled (a fault
  plan is or was installed), a payload leaving memory is verified
  against the disk image and rewritten while the pool still holds the
  good copy; a cold miss on a block torn by someone else consults the
  optional :attr:`BufferPool.redo_hook` (recompute-and-rewrite, the
  :meth:`~repro.core.blockfile.BlockFile.verify` scrub model) and
  otherwise surfaces the documented
  :class:`~repro.core.exceptions.ChecksumError`.
* **Pool traffic is traced**: hits, misses, evictions, scrubs, and
  bypasses are reported per phase to the runtime's tracer.

A standalone ``BufferPool(disk, capacity)`` (no budget, no runtime) keeps
the original direct-to-disk behaviour for unit tests and ablations.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .disk import Block
from .records import copy_payload
from .exceptions import (
    ChecksumError,
    ConfigurationError,
    MemoryLimitExceeded,
    PoolError,
)

_NO_DIRTY: frozenset = frozenset()
"""``victim``'s default ``dirty``: an eviction that may write back."""


class EvictionPolicy:
    """Interface for eviction policies.

    The pool notifies the policy of every access and insertion; when a frame
    is needed the pool asks :meth:`victim` which resident, unpinned block to
    evict; an online policy stops at the first evictable block of its
    own order.
    """

    name = "abstract"

    def on_insert(self, block_id: int) -> None:
        """A block became resident."""
        raise NotImplementedError

    def on_access(self, block_id: int) -> None:
        """A resident block was accessed (pool hit)."""
        raise NotImplementedError

    def on_remove(self, block_id: int) -> None:
        """A block left the pool (evicted or explicitly dropped)."""
        raise NotImplementedError

    def victim(self, pinned, dirty=_NO_DIRTY) -> Optional[int]:
        """Choose a resident block in neither ``pinned`` nor ``dirty``
        (containers with constant-time ``in``) to evict, or return
        ``None`` when there is none; a search that finds nothing leaves
        the policy's state as it was."""
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Evict the least recently used block."""

    name = "lru"

    def __init__(self):
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def on_insert(self, block_id: int) -> None:
        self._order[block_id] = None

    def on_access(self, block_id: int) -> None:
        self._order.move_to_end(block_id)

    def on_remove(self, block_id: int) -> None:
        self._order.pop(block_id, None)

    def victim(self, pinned, dirty=_NO_DIRTY) -> Optional[int]:
        for block_id in self._order:
            if block_id not in pinned and block_id not in dirty:
                return block_id
        return None


class MRUPolicy(EvictionPolicy):
    """Evict the most recently used block.

    MRU is optimal for cyclic scans that slightly exceed the pool size,
    which is exactly the trace where LRU degenerates to 100% misses.
    """

    name = "mru"

    def __init__(self):
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def on_insert(self, block_id: int) -> None:
        self._order[block_id] = None

    def on_access(self, block_id: int) -> None:
        self._order.move_to_end(block_id)

    def on_remove(self, block_id: int) -> None:
        self._order.pop(block_id, None)

    def victim(self, pinned, dirty=_NO_DIRTY) -> Optional[int]:
        for block_id in reversed(self._order):
            if block_id not in pinned and block_id not in dirty:
                return block_id
        return None


class FIFOPolicy(EvictionPolicy):
    """Evict blocks in the order they entered the pool (a block that
    leaves and comes back queues as the newest arrival)."""

    name = "fifo"

    def __init__(self):
        self._queue: "OrderedDict[int, None]" = OrderedDict()

    def on_insert(self, block_id: int) -> None:
        self._queue[block_id] = None

    def on_access(self, block_id: int) -> None:
        pass  # FIFO ignores accesses

    def on_remove(self, block_id: int) -> None:
        self._queue.pop(block_id, None)

    def victim(self, pinned, dirty=_NO_DIRTY) -> Optional[int]:
        skipped = []
        for block_id in self._queue:
            if block_id not in pinned and block_id not in dirty:
                break
            skipped.append(block_id)
        else:
            return None
        for ahead in skipped:  # pinned or dirty: rotate to the back
            self._queue.move_to_end(ahead)
        return block_id


class ClockPolicy(EvictionPolicy):
    """Second-chance (clock) approximation of LRU."""

    name = "clock"

    def __init__(self):
        self._ref: "OrderedDict[int, bool]" = OrderedDict()

    def on_insert(self, block_id: int) -> None:
        self._ref[block_id] = True

    def on_access(self, block_id: int) -> None:
        if block_id in self._ref:
            self._ref[block_id] = True

    def on_remove(self, block_id: int) -> None:
        self._ref.pop(block_id, None)

    def victim(self, pinned, dirty=_NO_DIRTY) -> Optional[int]:
        # Sweep the clock hand: clear reference bits until an unreferenced
        # evictable block is found.  Two turns find one if any exists; two
        # turns that find none leave hand and bits where they were.
        for _ in range(2 * len(self._ref)):
            block_id, referenced = next(iter(self._ref.items()))
            self._ref.move_to_end(block_id)
            if block_id in pinned or block_id in dirty:
                continue
            if referenced:
                self._ref[block_id] = False
            else:
                return block_id
        return None


class MinPolicy(EvictionPolicy):
    """Belady's offline-optimal MIN policy.

    Requires the full future access trace up front, so it is only usable in
    ablation experiments where the trace is known.  Evicts the evictable
    block whose next use is farthest in the future, scanning every
    evictable block.
    """

    name = "min"

    def __init__(self, trace: Sequence[int]):
        self._future: Dict[int, deque] = {}
        for position, block_id in enumerate(trace):
            self._future.setdefault(block_id, deque()).append(position)
        self._clock = 0
        # Resident blocks in the pool's frame order: the scan's order.
        self._resident: Dict[int, None] = {}

    def on_insert(self, block_id: int) -> None:
        self._resident[block_id] = None
        self._advance(block_id)

    def on_access(self, block_id: int) -> None:
        self._advance(block_id)

    def on_remove(self, block_id: int) -> None:
        self._resident.pop(block_id, None)

    def _advance(self, block_id: int) -> None:
        # Blocks absent from the offline trace (e.g. fresh allocations
        # installed with put_new) have no position in it; ticking the
        # clock for them would shift every later comparison against the
        # recorded positions, so MIN would evict against a phantom
        # future.  Only accesses the trace knows about advance the clock.
        positions = self._future.get(block_id)
        if positions is None:
            return
        # Drop every trace position up to and including the current
        # access, leaving only strictly future uses of this block.
        while positions and positions[0] <= self._clock:
            positions.popleft()
        self._clock += 1

    def victim(self, pinned, dirty=_NO_DIRTY) -> Optional[int]:
        # Ties (blocks never used again) break in the iteration order of
        # the unpinned set built in frame order — less the dirty set on a
        # clean-first pass — so MIN keeps its historical victims.
        candidates = {b for b in self._resident if b not in pinned}
        if dirty is not _NO_DIRTY:
            candidates = candidates - dirty
        farthest_block = None
        farthest_next = -1
        for block_id in candidates:
            positions = self._future.get(block_id)
            next_use = positions[0] if positions else float("inf")
            if next_use > farthest_next:
                farthest_next = next_use
                farthest_block = block_id
                if next_use == float("inf"):
                    break
        return farthest_block


class BufferPool:
    """A fixed budget of in-memory frames caching disk blocks.

    Args:
        disk: the backing :class:`~repro.core.disk.SimulatedDisk` or
            :class:`~repro.core.disk.DiskArray`.
        capacity: frame budget in blocks (the model's ``m = M/B``).
        policy: eviction policy instance; defaults to a fresh
            :class:`LRUPolicy`.
        budget: optional :class:`~repro.core.memory.MemoryBudget` the
            pool charges its frames to (``B`` reclaimable records per
            resident frame; pinned frames are hardened).  ``None`` for a
            standalone pool with free frames.
        runtime_provider: optional zero-argument callable returning the
            machine's :class:`~repro.runtime.Runtime`; when set, misses
            and write-backs are routed through it (retry, write-behind,
            tracing).  ``None`` reads and writes the disk directly.

    The payload handed out by :meth:`get` is the pool's own mutable list;
    callers that mutate it must call :meth:`mark_dirty` so the block is
    flushed on eviction.

    Attributes:
        redo_hook: optional ``hook(block_id) -> records | None``.  When a
            miss hits a :class:`~repro.core.exceptions.ChecksumError`
            (torn block on disk) the pool asks the hook to reproduce the
            payload — e.g. re-derive it the way a scrubber replays a
            pass after :meth:`~repro.core.blockfile.BlockFile.verify` —
            then rewrites and verifies the block.  Without a hook (or on
            ``None``) the ``ChecksumError`` propagates.
    """

    def __init__(
        self,
        disk,
        capacity: int,
        policy: Optional[EvictionPolicy] = None,
        budget=None,
        runtime_provider: Optional[Callable[[], Any]] = None,
    ):
        if capacity < 1:
            raise ConfigurationError(
                f"buffer pool capacity must be >= 1, got {capacity}"
            )
        self.disk = disk
        self.capacity = capacity
        self.policy = policy if policy is not None else LRUPolicy()
        self.redo_hook: Optional[Callable[[int], Optional[Sequence[Any]]]] = \
            None
        self._budget = budget
        self._runtime_provider = runtime_provider
        self._frames: Dict[int, Block] = {}
        self._dirty: set = set()
        self._pins: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.scrubs = 0
        self.bypasses = 0

    # ------------------------------------------------------------------
    # frame access
    # ------------------------------------------------------------------
    def get(self, block_id: int) -> Block:
        """Return the in-memory payload of ``block_id``, faulting it in
        (one read I/O) on a miss.

        On a machine-attached pool the miss is retried under the
        runtime's :class:`~repro.faults.retry.RetryPolicy`; a torn block
        is repaired through :attr:`redo_hook` or raises
        :class:`~repro.core.exceptions.ChecksumError`.  If the memory
        budget cannot spare a frame even after reclaim (an algorithm
        hard-holds ~``M``), the read is served uncached (*bypass*)."""
        frame = self._frames.get(block_id)
        if frame is not None:
            self.hits += 1
            self.policy.on_access(block_id)
            self._notify("hit", block_id)
            return frame
        self.misses += 1
        self._notify("miss", block_id)
        self._make_room(1)
        if not self._charge_frame():
            self.bypasses += 1
            self._notify("bypass", block_id)
            return self._read_through(block_id)
        try:
            frame = self._read_through(block_id)
        except BaseException:
            self._budget.release(self._frame_records, reclaimable=True)
            raise
        self._frames[block_id] = frame
        self.policy.on_insert(block_id)
        return frame

    def get_many(self, block_ids: Sequence[int]) -> List[Block]:
        """Batched :meth:`get`: payloads for ``block_ids`` in request
        order (duplicates allowed; fetched once).

        Resident blocks are served as hits; on a machine-attached pool
        the misses are fetched through the scheduler in parallel waves —
        a batch with at most one miss per disk costs a single step — so
        B+-tree range queries, hashing ``items()``, and matrix tile
        reads pay ``ceil(k/D)`` steps for ``k`` misses instead of ``k``.
        Blocks the budget cannot cache are read in the same waves but
        not installed (*bypass*); the returned payloads are usable
        either way.  Intended for read paths: mutating callers must
        check residency and :meth:`mark_dirty` per block."""
        order = list(block_ids)
        payloads: Dict[int, Block] = {}
        missing: List[int] = []
        for block_id in order:
            if block_id in payloads or block_id in self._frames:
                if block_id not in payloads:
                    self.hits += 1
                    self.policy.on_access(block_id)
                    self._notify("hit", block_id)
                    payloads[block_id] = self._frames[block_id]
                continue
            if block_id in missing:
                continue
            self.misses += 1
            self._notify("miss", block_id)
            missing.append(block_id)
        runtime = self._runtime()
        if runtime is None:
            for block_id in missing:
                payloads[block_id] = self._install_miss(block_id)
        else:
            # Fetch misses chunk by chunk so a huge batch cannot evict
            # its own earlier blocks before the caller sees them.
            chunk_size = max(1, self.capacity - len(self._pins))
            for start in range(0, len(missing), chunk_size):
                chunk = missing[start:start + chunk_size]
                self._fetch_wave(chunk, payloads, runtime)
        return [payloads[block_id] for block_id in order]

    def _fetch_wave(
        self,
        chunk: List[int],
        payloads: Dict[int, Block],
        runtime,
    ) -> None:
        """Read one chunk of misses as parallel waves, installing what
        the frame and memory budgets allow and bypassing the rest."""
        cacheable: List[int] = []
        short_of_memory = False
        for block_id in chunk:
            roomy = True
            try:
                self._make_room(1 + len(cacheable))
            except PoolError:
                roomy = False  # every frame pinned: serve uncached
            if roomy and not short_of_memory and self._charge_frame():
                cacheable.append(block_id)
            else:
                short_of_memory = short_of_memory or roomy
        try:
            try:
                results = runtime.read_batch(chunk)
            except ChecksumError:
                # Re-issue block by block so the torn block(s) can be
                # repaired through the redo hook (fault plans only).
                results = [
                    self._read_through(block_id) for block_id in chunk
                ]
        except BaseException:
            for _ in cacheable:
                self._budget.release(self._frame_records, reclaimable=True)
            raise
        cacheable_set = set(cacheable)
        for block_id, payload in zip(chunk, results):
            payloads[block_id] = payload
            if block_id in cacheable_set:
                self._frames[block_id] = payload
                self.policy.on_insert(block_id)
            else:
                self.bypasses += 1
                self._notify("bypass", block_id)

    def put_new(self, block_id: int,
                records: Optional[Iterable[Any]] = None) -> Block:
        """Install a freshly allocated block into the pool, dirty, without
        reading it from disk (there is nothing to read yet).

        Raises:
            MemoryLimitExceeded: on a budget-attached pool when even
                reclaim cannot free a frame's worth of memory (a new
                dirty block cannot be served uncached).
        """
        if block_id in self._frames:
            raise PoolError(f"block {block_id} is already resident")
        self._make_room(1)
        if not self._charge_frame():
            raise MemoryLimitExceeded(
                self._frame_records, self._budget.occupancy,
                self._budget.capacity,
            )
        # Type-preserving: a typed payload installed into the pool
        # stays typed through residency, eviction, and write-back.
        frame = copy_payload(records) if records is not None else []
        self._frames[block_id] = frame
        self._dirty.add(block_id)
        self.policy.on_insert(block_id)
        return frame

    def mark_dirty(self, block_id: int) -> None:
        """Record that the resident payload differs from the disk image."""
        if block_id not in self._frames:
            raise PoolError(f"block {block_id} is not resident")
        self._dirty.add(block_id)

    def is_resident(self, block_id: int) -> bool:
        """Return whether ``block_id`` currently occupies a frame."""
        return block_id in self._frames

    @property
    def resident_count(self) -> int:
        """Number of occupied frames."""
        return len(self._frames)

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------
    def pin(self, block_id: int) -> None:
        """Protect a resident block from eviction until unpinned.  On a
        budget-attached pool the frame's charge hardens: the budget's
        reclaimer may no longer take it."""
        if block_id not in self._frames:
            raise PoolError(f"cannot pin non-resident block {block_id}")
        count = self._pins.get(block_id, 0)
        if count == 0 and self._budget is not None:
            self._budget.harden(self._frame_records)
        self._pins[block_id] = count + 1

    def unpin(self, block_id: int) -> None:
        """Release one pin on ``block_id``."""
        count = self._pins.get(block_id, 0)
        if count <= 0:
            raise PoolError(f"block {block_id} is not pinned")
        if count == 1:
            del self._pins[block_id]
            if self._budget is not None:
                self._budget.soften(self._frame_records)
        else:
            self._pins[block_id] = count - 1

    # ------------------------------------------------------------------
    # write-back
    # ------------------------------------------------------------------
    def flush(self, block_id: int) -> None:
        """Write a dirty resident block back to disk (one write I/O; on
        a machine-attached multi-disk pool the write joins the runtime's
        write-behind window and coalesces into a ``D``-block wave)."""
        if block_id not in self._frames:
            raise PoolError(f"block {block_id} is not resident")
        if block_id not in self._dirty:
            return
        runtime = self._runtime()
        if runtime is None:
            self.disk.write(block_id, self._frames[block_id])
        else:
            runtime.writer.put(block_id, self._frames[block_id])
        self._dirty.discard(block_id)

    def flush_all(self) -> None:
        """Write back every dirty resident block, then drain any
        deferred write-behind window so the disk image is current."""
        for block_id in list(self._dirty):
            self.flush(block_id)
        runtime = self._runtime()
        if runtime is not None:
            runtime.writer.flush()

    def drop(self, block_id: int) -> None:
        """Discard a resident block, flushing it first if dirty.

        Raises:
            PoolError: if the block is pinned.  Dropping a pinned frame
                used to succeed silently, leaving the pin count pointing
                at a ghost so the later ``unpin`` raised instead; the
                caller must unpin first.
        """
        if block_id not in self._frames:
            return
        pins = self._pins.get(block_id, 0)
        if pins:
            raise PoolError(
                f"cannot drop pinned block {block_id} "
                f"({pins} pin(s) held); unpin it first"
            )
        self._retire(block_id)

    def drop_all(self) -> None:
        """Flush and discard every resident block (e.g. between phases).
        Raises :class:`~repro.core.exceptions.PoolError` if any frame is
        still pinned."""
        for block_id in list(self._frames):
            self.drop(block_id)

    def invalidate(self, block_id: int) -> None:
        """Discard a resident block *without* flushing (the caller freed
        the underlying disk block).  Any write still deferred for it in
        the write-behind window is discarded too — flushing it later
        would resurrect the freed block."""
        if block_id not in self._frames:
            return
        pinned = self._pins.pop(block_id, 0)
        del self._frames[block_id]
        self._dirty.discard(block_id)
        self.policy.on_remove(block_id)
        if self._budget is not None:
            # A pinned frame's charge was hardened; release the right
            # column either way.
            self._budget.release(self._frame_records,
                                 reclaimable=not pinned)
        runtime = self._runtime()
        if runtime is not None:
            runtime.writer.discard([block_id])

    # ------------------------------------------------------------------
    # budget cooperation
    # ------------------------------------------------------------------
    def reclaim(self, deficit: int) -> int:
        """Shrink the pool under memory pressure: evict unpinned frames
        until at least ``deficit`` records are freed (or nothing
        evictable remains), clean frames first so dropping cache costs
        no transfer before write-backs do.  Dirty victims are written as
        one batched wave.  Called by the runtime on behalf of
        :attr:`~repro.core.memory.MemoryBudget.reclaimer`; returns the
        records freed."""
        if self._budget is None or deficit <= 0:
            return 0
        freed = 0
        dirty_victims: List[Tuple[int, Block]] = []
        # Pins name only resident frames, so equal sizes mean every
        # frame is pinned.
        while freed < deficit and len(self._pins) < len(self._frames):
            victim = self.policy.victim(self._pins, self._dirty)
            if victim is not None:
                payload = self._frames.pop(victim)
                self.policy.on_remove(victim)
                self._verify_retired(victim, payload, was_dirty=False)
            else:
                victim = self.policy.victim(self._pins)
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
            if runtime is None:  # pragma: no cover - reclaim implies runtime
                for block_id, payload in dirty_victims:
                    self.disk.write(block_id, payload)
            else:
                runtime.writer.discard([b for b, _ in dirty_victims])
                runtime.scheduler.write_batch(dirty_victims)
                for block_id, payload in dirty_victims:
                    self._verify_written(block_id, payload, runtime)
        return freed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @property
    def _frame_records(self) -> int:
        """Records one frame charges to the budget (the disk's ``B``)."""
        return self.disk.block_capacity

    def _runtime(self):
        if self._runtime_provider is None:
            return None
        return self._runtime_provider()

    def _notify(self, event: str, block_id: int) -> None:
        """Tell the disk's listener (the tracer) about pool traffic."""
        listener = self.disk.listener
        if listener is not None:
            handler = getattr(listener, "on_pool", None)
            if handler is not None:
                handler(event, block_id)

    def _charge_frame(self) -> bool:
        """Charge one frame (``B`` reclaimable records) to the budget.
        False — after the budget's reclaimer already had its chance —
        means memory is hard-committed elsewhere and the caller must
        bypass the cache."""
        if self._budget is None:
            return True
        try:
            self._budget.acquire(self._frame_records, reclaimable=True)
        except MemoryLimitExceeded:
            return False
        return True

    def _read_through(self, block_id: int) -> Block:
        """Read a block via the runtime (retry + read-your-writes), with
        redo-hook repair for torn blocks; direct when standalone."""
        runtime = self._runtime()
        if runtime is None:
            return self.disk.read(block_id)
        try:
            return runtime.read_block(block_id)
        except ChecksumError:
            return self._redo(block_id, runtime)

    def _redo(self, block_id: int, runtime) -> Block:
        """Repair a torn block through :attr:`redo_hook`, rewriting and
        verifying the disk image (a read-triggered scrub)."""
        hook = self.redo_hook
        payload = hook(block_id) if hook is not None else None
        if payload is None:
            raise  # noqa: PLE0704 - re-raise the active ChecksumError
        payload = copy_payload(payload)
        self._scrub_write(block_id, payload, runtime)
        return payload

    def _scrub_write(self, block_id: int, payload: Block, runtime) -> None:
        """Rewrite ``payload`` until the disk image verifies, bounded by
        the retry policy's attempt budget (each rewrite may tear again
        under an adversarial plan)."""
        attempts = runtime.scheduler.retry.max_attempts
        while True:
            runtime.scheduler.write_batch([(block_id, payload)])
            self.scrubs += 1
            self._notify("scrub", block_id)
            if self.disk.verify_checksum(block_id):
                return
            attempts -= 1
            if attempts <= 0:
                raise ChecksumError(block_id)

    def _verify_written(self, block_id: int, payload: Block,
                        runtime) -> None:
        if self.disk.checksums_enabled and \
                not self.disk.verify_checksum(block_id):
            self._scrub_write(block_id, payload, runtime)

    def _verify_retired(self, block_id: int, payload: Block,
                        was_dirty: bool) -> None:
        """A payload is leaving memory: make the disk image current and
        — with checksums on — verified, while the good copy is still in
        hand.  This is the last moment a torn flush is recoverable
        without a redo hook."""
        if not was_dirty and not self.disk.is_allocated(block_id):
            # The caller freed the block while its clean frame stayed
            # resident (e.g. a table deleted right after extraction);
            # there is nothing on disk left to verify against.
            return
        runtime = self._runtime()
        if runtime is None:
            if was_dirty:
                self.disk.write(block_id, payload)
            return
        if not self.disk.checksums_enabled:
            if was_dirty:
                runtime.writer.put(block_id, payload)
            return
        if was_dirty:
            # Supersede any older deferred write and write through so
            # the image can be verified now (coalescing is sacrificed
            # only while a fault plan is or was installed).
            runtime.writer.discard([block_id])
            runtime.scheduler.write_batch([(block_id, payload)])
        else:
            runtime.writer.ensure_flushed(block_id)
        self._verify_written(block_id, payload, runtime)

    def _retire(self, block_id: int) -> None:
        """Remove an unpinned frame, writing back and verifying as
        needed, and return its budget charge."""
        payload = self._frames.pop(block_id)
        was_dirty = block_id in self._dirty
        self._dirty.discard(block_id)
        self.policy.on_remove(block_id)
        self._verify_retired(block_id, payload, was_dirty)
        if self._budget is not None:
            self._budget.release(self._frame_records, reclaimable=True)

    def _make_room(self, needed: int) -> None:
        """Evict victims until ``needed`` frames are free."""
        while len(self._frames) > self.capacity - needed:
            if len(self._pins) == len(self._frames):
                raise PoolError(
                    "buffer pool exhausted: every frame is pinned"
                )
            victim = self.policy.victim(self._pins)
            self._retire(victim)
            self.evictions += 1
            self._notify("eviction", victim)

    def _install_miss(self, block_id: int) -> Block:
        """Fault in one block whose miss is already counted (standalone
        ``get_many`` path)."""
        self._make_room(1)
        frame = self.disk.read(block_id)
        self._frames[block_id] = frame
        self.policy.on_insert(block_id)
        return frame


POLICIES = {
    "lru": LRUPolicy,
    "mru": MRUPolicy,
    "fifo": FIFOPolicy,
    "clock": ClockPolicy,
}
"""Registry of online policies by name (MIN is offline and excluded)."""
