"""A block device backed by a real file.

:class:`FileDiskArray` stores every block's payload as serialized bytes
in one ordinary file, while inheriting **all** accounting from
:class:`~repro.core.disk.DiskArray` — reads, writes, parallel steps,
stalls, fault injection, torn writes, and checksums run through the
exact same code paths, so every counter is bit-compatible with the
dict-backed array on any workload.  Only the four storage hooks differ:
``_load`` is one positional ``os.pread`` plus a decode, ``_store`` an
encode plus one ``os.pwrite`` — no seek, no user-space buffer.

The point is honest wall-clock: the simulated-step axis says how an
algorithm *would* behave on 1998 hardware; running the same algorithm
unchanged on a :class:`FileDiskArray` adds a second axis — actual bytes
through an actual file — so the benchmark suite can report both.  Typed
payloads (:mod:`repro.core.records`) serialize via ``tobytes()``; object
payloads fall back to pickle.

Layout: blocks live at extents ``(offset, capacity, length)`` of the
data file.  Every capacity is a *size class* — four classes per power of
two, so an extent's slack is under 25% of its image — and the free
extents of each class form one LIFO stack, so placing a block is O(1): a
rewrite keeps the block's extent when the new image fits, else pops the
stack for its class, else appends at the high-water mark.  The same rule
serves fixed-width typed blocks and variable-size pickled ones.

Commit rule: :meth:`sync_metadata` fsyncs the data and atomically
persists the block table and free stacks to a JSON sidecar
(``<path>.meta``); a process that "crashes" after it can :meth:`open`
the file again and see exactly the blocks that commit recorded.  To keep
those bytes intact, an extent the last commit recorded is never written
again before the next one: rewriting its block takes a fresh extent
(copy-on-write), and freeing it parks it until the next commit, when it
joins the free stacks.  Before the first commit nothing is parked.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from typing import Any, Dict, List, Optional, Set, Tuple

from .disk import Block, DiskArray
from .exceptions import ConfigurationError
from .records import decode_block, encode_block


@functools.lru_cache(maxsize=None)
def _size_class(size: int) -> int:
    """The smallest capacity ``>= size`` of the form ``k·2^e`` with
    ``k`` in 4..7: four classes per power of two, so the slack is under
    25% of ``size`` (sizes up to 8 bytes are their own class)."""
    step = 1 << max(0, (size - 1).bit_length() - 3)
    return -(-size // step) * step


class FileDiskArray(DiskArray):
    """A :class:`~repro.core.disk.DiskArray` whose blocks live in a real
    file.

    Args:
        block_capacity: records per block (the model parameter ``B``).
        num_disks: simulated disk count ``D`` — purely an accounting
            dimension here (one file holds all stripes), so parallel
            steps are counted exactly as on the in-memory array.
        path: data file path.  Created if missing; a temporary file is
            used when omitted (removed by :meth:`close`).

    Use :meth:`sync_metadata` to commit the block table and
    :meth:`open` to reattach after a restart.  :meth:`close` releases
    the file handle (and deletes an unnamed temporary).  Extents are
    size-classed with one free stack per class; writes after a commit
    never overwrite an extent that commit recorded (see the module
    docstring).
    """

    def __init__(
        self,
        block_capacity: int,
        num_disks: int = 1,
        path: Optional[str] = None,
    ):
        super().__init__(block_capacity, num_disks)
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-disk-",
                                        suffix=".blocks")
            os.close(fd)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        if not os.path.exists(path):
            # em: ok(EM002) this IS the device layer; the file is the disk
            with open(path, "wb"):
                pass
        # "r+b", not append mode: extents are rewritten in place.  The
        # handle only owns the fd (closed on GC); I/O is pread/pwrite.
        # em: ok(EM002) this IS the device layer; the file is the disk
        self._file = open(path, "r+b", buffering=0)
        self._fd = self._file.fileno()
        self._high_water = os.fstat(self._fd).st_size
        # block_id -> (offset, capacity, length) of its current extent;
        # None for an allocated-but-never-written (empty) block.
        self._extents: Dict[int, Optional[Tuple[int, int, int]]] = {}
        # Reusable extents: capacity (a size class) -> LIFO offset stack.
        self._free: Dict[int, List[int]] = {}
        # Offsets of the extents the last commit recorded, and the
        # (capacity, offset) extents released since, parked until the
        # next commit.
        self._committed: Set[int] = set()
        self._parked: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # storage hooks (see DiskArray)
    # ------------------------------------------------------------------
    def _new_slot(self) -> Any:
        # The base class stores this in ``_blocks`` purely for
        # allocation bookkeeping; payload bytes live in the file.
        return None

    def _pre_write(self, block_id: int, records: Any) -> Block:
        # Serialization *is* the defensive copy here: ``_store`` turns
        # the payload into fresh bytes and retains no reference, so the
        # base class's in-memory copy would be pure waste.  Fault plans
        # still go through the base path (the torn prefix must be an
        # independent object).
        if self._injector is None:
            return records
        return super()._pre_write(block_id, records)

    def _maybe_tear(self, block_id: int, records: Any) -> Block:
        # Same reasoning for the parallel-write wave.
        if self._injector is None:
            return records
        return super()._maybe_tear(block_id, records)

    def _load(self, block_id: int) -> Block:
        if block_id not in self._blocks:
            raise KeyError(block_id)
        extent = self._extents.get(block_id)
        if extent is None:
            return []
        offset, _, length = extent
        # em: ok(EM002) this IS the device layer; the file is the disk
        data = os.pread(self._fd, length, offset)
        if len(data) != length:
            raise ConfigurationError(
                f"block {block_id}: file {self.path!r} truncated "
                f"(wanted {length} bytes at {offset}, got {len(data)})"
            )
        return decode_block(data)

    def _store(self, block_id: int, payload: Block) -> None:
        data = encode_block(payload)
        size = len(data)
        offset, capacity = self._place(block_id, size)
        # em: ok(EM002) this IS the device layer; the file is the disk
        if os.pwrite(self._fd, data, offset) != size:
            raise OSError(f"block {block_id}: short write to {self.path!r}")
        self._extents[block_id] = (offset, capacity, size)

    def _export(self, payload: Block) -> Block:
        # ``_load`` decoded a fresh object; no defensive copy needed.
        return payload

    # ------------------------------------------------------------------
    # extent management
    # ------------------------------------------------------------------
    def _place(self, block_id: int, size: int) -> Tuple[int, int]:
        """An extent ``(offset, capacity)`` able to hold ``size`` bytes:
        the block's current extent when it fits and no commit recorded
        it, else the top of the free stack for ``size``'s class, else
        fresh space at the end of the file."""
        current = self._extents.get(block_id)
        if current is not None:
            offset, capacity, _ = current
            if size <= capacity and offset not in self._committed:
                return offset, capacity
            self._release(offset, capacity)
        capacity = _size_class(size)
        stack = self._free.get(capacity)
        if stack:
            return stack.pop(), capacity
        offset = self._high_water
        self._high_water += capacity
        return offset, capacity

    def _release(self, offset: int, capacity: int) -> None:
        if offset in self._committed:
            self._parked.append((capacity, offset))
        else:
            self._free.setdefault(capacity, []).append(offset)

    def free(self, block_id: int) -> None:
        extent = self._extents.pop(block_id, None)
        super().free(block_id)
        if extent is not None:
            offset, capacity, _ = extent
            self._release(offset, capacity)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def sync_metadata(self) -> None:
        """Flush data bytes and atomically commit the block table to the
        ``<path>.meta`` sidecar — the durability point a later
        :meth:`open` recovers to (a checkpointed sort calls this when it
        commits its manifest).  Extents parked since the previous commit
        join the free stacks: the new table no longer names them."""
        os.fsync(self._fd)
        free = {capacity: list(stack)
                for capacity, stack in self._free.items()}
        for capacity, offset in self._parked:
            free.setdefault(capacity, []).append(offset)
        meta = {
            "block_capacity": self.block_capacity,
            "num_disks": self.num_disks,
            "next_id": self._next_id,
            "rr_next_disk": self._rr_next_disk,
            "high_water": self._high_water,
            "allocated_high_water": self._allocated_high_water,
            "checksums_enabled": self.checksums_enabled,
            "blocks": {
                str(block_id): self._extents.get(block_id)
                for block_id in self._blocks
            },
            "disk_of": {str(b): d for b, d in self._disk_of.items()},
            "sums": {str(b): s for b, s in self._sums.items()},
            "free": {str(c): stack for c, stack in free.items()},
        }
        tmp_path = self.path + ".meta.tmp"
        # em: ok(EM002) device metadata sidecar, not model-visible data
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path + ".meta")
        self._free, self._parked = free, []
        self._mark_committed()

    def _mark_committed(self) -> None:
        """Record every current extent as named by the latest commit."""
        self._committed = {extent[0] for extent in self._extents.values()
                           if extent is not None}

    @classmethod
    def open(cls, path: str) -> "FileDiskArray":
        """Reattach to a file as of its last :meth:`sync_metadata`.

        Blocks written after that commit are simply absent from the
        table — exactly a machine that lost its page cache — so a resume
        re-runs the uncommitted work.  I/O counters start at zero (the
        restarted process has performed no transfers yet).
        """
        meta_path = path + ".meta"
        # em: ok(EM002) device metadata sidecar, not model-visible data
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        disk = cls(meta["block_capacity"], meta["num_disks"], path=path)
        disk._next_id = meta["next_id"]
        disk._rr_next_disk = meta["rr_next_disk"]
        disk._high_water = meta["high_water"]
        disk._allocated_high_water = meta["allocated_high_water"]
        disk.checksums_enabled = meta["checksums_enabled"]
        for block_str, extent in meta["blocks"].items():
            block_id = int(block_str)
            disk._blocks[block_id] = None
            disk._extents[block_id] = \
                tuple(extent) if extent is not None else None
        disk._disk_of = {int(b): d for b, d in meta["disk_of"].items()}
        disk._sums = {int(b): s for b, s in meta["sums"].items()}
        disk._free = {int(c): stack for c, stack in meta["free"].items()}
        disk._mark_committed()
        return disk

    def close(self, remove: Optional[bool] = None) -> None:
        """Close the file handle.  ``remove`` deletes the data and
        metadata files; defaults to True for unnamed temporaries."""
        if self._file.closed:
            return
        self._file.close()
        if remove is None:
            remove = self._owns_file
        if remove:
            for target in (self.path, self.path + ".meta"):
                try:
                    os.unlink(target)
                except FileNotFoundError:
                    pass

    def __enter__(self) -> "FileDiskArray":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FileDiskArray(B={self.block_capacity}, D={self.num_disks}, "
            f"path={self.path!r}, blocks={len(self._blocks)})"
        )
