"""A disk-resident B+-tree.

The survey's canonical online search structure: fan-out ``Θ(B)`` gives
``Θ(log_B N)`` I/Os per point query and ``Θ(log_B N + Z/B)`` for a range
query reporting ``Z`` records — compare internal binary search trees,
whose ``Θ(log_2 N)`` node accesses each cost an I/O when the tree does not
fit in memory.

Layout: one node per disk block, accessed through the machine's buffer
pool.  A node's payload is a Python list whose first record is a header:

* leaf:      ``["L", next_leaf_id]`` followed by ``(key, value)`` entries
  in key order.  Leaves are chained through ``next_leaf_id`` for range
  scans.
* internal:  ``["I", child_0]`` followed by ``(key, child)`` entries; keys
  separate the children (``key_i`` is the smallest key in ``child_i``'s
  subtree).

The header occupies one record, so a node holds at most ``B - 1`` entries
(the tree's *order*).  Deletion rebalances by borrowing from or merging
with siblings; underfull nodes never persist below ``order // 2`` entries
except the root.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..core.exceptions import ConfigurationError, KeyNotFound
from ..core.intents import PoolRead, drive
from ..core.machine import Machine

_LEAF = "L"
_INTERNAL = "I"
_NO_LEAF = -1


class BPlusTree:
    """A B+-tree of ``(key, value)`` pairs stored on the simulated disk.

    Args:
        machine: machine whose disk, pool, and block size the tree uses.
        order: maximum entries per node; defaults to ``B - 1``.  Must be at
            least 3 so that splits and merges are well defined.

    Point queries cost one buffer-pool access per level; with a cold pool
    that is ``height`` read I/Os, the survey's ``Θ(log_B N)``.
    """

    def __init__(self, machine: Machine, order: Optional[int] = None):
        self.machine = machine
        self.order = order if order is not None else machine.block_size - 1
        if self.order < 3:
            raise ConfigurationError(
                f"B+-tree order must be >= 3, got {self.order} "
                "(block size too small)"
            )
        if self.order + 1 > machine.block_size:
            raise ConfigurationError(
                f"order {self.order} entries plus a header do not fit in a "
                f"block of {machine.block_size} records"
            )
        self._pool = machine.pool
        self._disk = machine.disk
        self._size = 0
        self._height = 1
        self._root_id = self._new_leaf()

    # ------------------------------------------------------------------
    # node helpers
    # ------------------------------------------------------------------
    def _new_leaf(self, entries: Optional[List[tuple]] = None,
                  next_leaf: int = _NO_LEAF) -> int:
        block_id = self._disk.allocate()
        payload = [[_LEAF, next_leaf]]
        if entries:
            payload.extend(entries)
        self._pool.put_new(block_id, payload)
        return block_id

    def _new_internal(self, first_child: int,
                      entries: Optional[List[tuple]] = None) -> int:
        block_id = self._disk.allocate()
        payload = [[_INTERNAL, first_child]]
        if entries:
            payload.extend(entries)
        self._pool.put_new(block_id, payload)
        return block_id

    def _node(self, block_id: int) -> List[Any]:
        return self._pool.get(block_id)

    @contextmanager
    def _pinned(self, block_id: int):
        """Fault in a node and pin it so further pool traffic inside the
        ``with`` block cannot evict it mid-mutation."""
        frame = self._pool.get(block_id)
        self._pool.pin(block_id)
        try:
            yield frame
        finally:
            self._pool.unpin(block_id)

    @staticmethod
    def _is_leaf(node: List[Any]) -> bool:
        return node[0][0] == _LEAF

    @staticmethod
    def _child_for(node: List[Any], key: Any) -> Tuple[int, int]:
        """For an internal node, return ``(slot, child_id)`` where ``slot``
        is the entry index (0 meaning the header child)."""
        keys = [entry[0] for entry in node[1:]]
        slot = bisect_right(keys, key)
        child = node[0][1] if slot == 0 else node[slot][1]
        return slot, child

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        """Return the value stored under ``key`` or ``default``."""
        node = self._node(self._root_id)
        while not self._is_leaf(node):
            _, child = self._child_for(node, key)
            node = self._node(child)
        keys = [entry[0] for entry in node[1:]]
        slot = bisect_left(keys, key)
        if slot < len(keys) and keys[slot] == key:
            return node[1 + slot][1]
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def range_query(self, low: Any, high: Any) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs with ``low <= key <= high`` in key
        order, following the leaf chain: ``Θ(log_B N + Z/B)`` I/Os.

        Runs :meth:`range_steps` under the single-tenant
        :func:`~repro.core.intents.drive` loop, so on a multi-disk
        machine the leaves under the last internal node arrive in one
        batched pool read and the chain walk pays ``ceil(misses/D)``
        steps instead of one step per leaf.
        """
        yield from drive(self.machine, self.range_steps(low, high))

    # ------------------------------------------------------------------
    # cooperative queries (intent-yielding generators)
    # ------------------------------------------------------------------
    def lookup_steps(self, key: Any, default: Any = None):
        """Cooperative :meth:`get`: a generator that yields one
        :class:`~repro.core.intents.PoolRead` per root-to-leaf level and
        *returns* the value (or ``default``) — same blocks, same order
        as the eager walk, but a driver decides when each read happens
        and may batch it with other jobs' intents into one wave."""
        block_id = self._root_id
        while True:
            [node] = yield PoolRead([block_id])
            if self._is_leaf(node):
                break
            _, block_id = self._child_for(node, key)
        keys = [entry[0] for entry in node[1:]]
        slot = bisect_left(keys, key)
        if slot < len(keys) and keys[slot] == key:
            return node[1 + slot][1]
        return default

    def range_steps(self, low: Any, high: Any):
        """Range query as a generator: yields ``PoolRead`` intents for
        the root-to-leaf walk, batches the candidate leaves under the
        last internal node into one intent (capped below the pool
        capacity so the wave cannot evict the leaves it fetched), then
        follows the leaf chain.  Returns the list of matching
        ``(key, value)`` pairs; :meth:`range_query` drives it."""
        results: List[Tuple[Any, Any]] = []
        prefetched = {}
        block_id = self._root_id
        depth = 0
        while True:
            if block_id in prefetched:
                node = prefetched.pop(block_id)
            else:
                [node] = yield PoolRead([block_id])
            if self._is_leaf(node):
                break
            slot, child = self._child_for(node, low)
            if depth == self._height - 2:
                keys = [entry[0] for entry in node[1:]]
                child_ids = [node[0][1]] + [entry[1] for entry in node[1:]]
                end = slot
                while end < len(keys) and keys[end] <= high:
                    end += 1
                wanted = child_ids[slot:end + 1]
                cap = max(1, self._pool.capacity - 2)
                wanted = wanted[:cap]
                if len(wanted) > 1:
                    payloads = yield PoolRead(wanted)
                    prefetched = dict(zip(wanted, payloads))
            block_id = child
            depth += 1
        while True:
            next_leaf = node[0][1]
            for key, value in node[1:]:
                if key > high:
                    return results
                if key >= low:
                    results.append((key, value))
            if next_leaf == _NO_LEAF:
                return results
            if next_leaf in prefetched:
                node = prefetched.pop(next_leaf)
            else:
                [node] = yield PoolRead([next_leaf])

    def min_item(self) -> Optional[Tuple[Any, Any]]:
        """Return the ``(key, value)`` pair with the smallest key, or
        ``None`` when the tree is empty.  Costs one leftmost root-to-leaf
        walk: ``Θ(log_B N)`` I/Os cold."""
        node = self._node(self._root_id)
        while not self._is_leaf(node):
            node = self._node(node[0][1])
        if len(node) == 1:
            return None
        entry = node[1]
        return entry[0], entry[1]

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Yield every ``(key, value)`` pair in key order."""
        node = self._node(self._root_id)
        while not self._is_leaf(node):
            node = self._node(node[0][1])
        while True:
            next_leaf = node[0][1]
            for entry in node[1:]:
                yield entry[0], entry[1]
            if next_leaf == _NO_LEAF:
                return
            node = self._node(next_leaf)

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf)."""
        return self._height

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Insert ``key -> value``; an existing key's value is replaced."""
        split = self._insert_into(self._root_id, key, value)
        if split is not None:
            middle_key, new_child = split
            self._root_id = self._new_internal(
                self._root_id, [(middle_key, new_child)]
            )
            self._height += 1

    def _insert_into(self, block_id: int, key: Any,
                     value: Any) -> Optional[Tuple[Any, int]]:
        """Insert under ``block_id``; return ``(separator, new_node)`` if
        the node split, else ``None``."""
        node = self._node(block_id)
        if self._is_leaf(node):
            keys = [entry[0] for entry in node[1:]]
            slot = bisect_left(keys, key)
            if slot < len(keys) and keys[slot] == key:
                node[1 + slot] = (key, value)  # upsert
                self._pool.mark_dirty(block_id)
                return None
            node.insert(1 + slot, (key, value))
            self._size += 1
            self._pool.mark_dirty(block_id)
            if len(node) - 1 > self.order:
                return self._split_leaf(block_id)
            return None

        slot, child = self._child_for(node, key)
        split = self._insert_into(child, key, value)
        if split is None:
            return None
        middle_key, new_child = split
        # Re-fetch: the recursion may have evicted this node's frame.  The
        # slot stays valid because a child split never edits its parent.
        node = self._node(block_id)
        node.insert(1 + slot, (middle_key, new_child))
        self._pool.mark_dirty(block_id)
        if len(node) - 1 > self.order:
            return self._split_internal(block_id)
        return None

    def _split_leaf(self, block_id: int) -> Tuple[Any, int]:
        with self._pinned(block_id) as node:
            entries = node[1:]
            mid = len(entries) // 2
            right_entries = entries[mid:]
            next_leaf = node[0][1]
            right_id = self._new_leaf(right_entries, next_leaf)
            del node[1 + mid:]
            node[0] = [_LEAF, right_id]
            self._pool.mark_dirty(block_id)
        return right_entries[0][0], right_id

    def _split_internal(self, block_id: int) -> Tuple[Any, int]:
        with self._pinned(block_id) as node:
            entries = node[1:]
            mid = len(entries) // 2
            middle_key, middle_child = entries[mid]
            right_id = self._new_internal(middle_child, entries[mid + 1:])
            del node[1 + mid:]
            self._pool.mark_dirty(block_id)
        return middle_key, right_id

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, key: Any) -> None:
        """Remove ``key``.

        Raises:
            KeyNotFound: if the key is not present.
        """
        self._delete_from(self._root_id, key)
        root = self._node(self._root_id)
        if not self._is_leaf(root) and len(root) == 1:
            # Root has a single child: collapse one level.
            old_root = self._root_id
            self._root_id = root[0][1]
            self._pool.invalidate(old_root)
            self._disk.free(old_root)
            self._height -= 1

    def _delete_from(self, block_id: int, key: Any) -> None:
        node = self._node(block_id)
        if self._is_leaf(node):
            keys = [entry[0] for entry in node[1:]]
            slot = bisect_left(keys, key)
            if slot >= len(keys) or keys[slot] != key:
                raise KeyNotFound(key)
            del node[1 + slot]
            self._size -= 1
            self._pool.mark_dirty(block_id)
            return

        slot, child = self._child_for(node, key)
        self._delete_from(child, key)
        child_node = self._node(child)
        if len(child_node) - 1 < self._min_fill(child_node):
            self._rebalance(block_id, slot, child)

    def _min_fill(self, node: List[Any]) -> int:
        return self.order // 2

    def _rebalance(self, parent_id: int, slot: int,
                   child_id: int) -> None:
        """Fix an underfull ``child_id`` (the ``slot``-th child of the
        parent) by borrowing from a sibling or merging.  All touched nodes
        are pinned for the duration so eviction cannot tear the update."""
        with ExitStack() as stack:
            parent = stack.enter_context(self._pinned(parent_id))
            child = stack.enter_context(self._pinned(child_id))
            num_children = len(parent)  # header child + entries
            left_slot = slot - 1
            right_slot = slot + 1

            def child_at(s: int) -> int:
                return parent[0][1] if s == 0 else parent[s][1]

            # Try borrowing from the left sibling.
            if left_slot >= 0:
                left_id = child_at(left_slot)
                left = stack.enter_context(self._pinned(left_id))
                if len(left) - 1 > self._min_fill(left):
                    self._borrow_from_left(parent, slot, left, child)
                    self._mark_all(parent_id, left_id, child_id)
                    return
            # Try borrowing from the right sibling.
            if right_slot < num_children:
                right_id = child_at(right_slot)
                right = stack.enter_context(self._pinned(right_id))
                if len(right) - 1 > self._min_fill(right):
                    self._borrow_from_right(parent, right_slot, child, right)
                    self._mark_all(parent_id, right_id, child_id)
                    return
            # Merge with a sibling (prefer left).
            if left_slot >= 0:
                left_id = child_at(left_slot)
                left = self._node(left_id)  # already pinned above
                self._merge(parent, slot, left, child)
                self._mark_all(parent_id, left_id)
                merged_away = child_id
            else:
                right_id = child_at(right_slot)
                right = self._node(right_id)  # already pinned above
                self._merge(parent, right_slot, child, right)
                self._mark_all(parent_id, child_id)
                merged_away = right_id
        # Pins released; now the merged-away node can leave the pool.
        self._pool.invalidate(merged_away)
        self._disk.free(merged_away)

    def _mark_all(self, *block_ids: int) -> None:
        for block_id in block_ids:
            self._pool.mark_dirty(block_id)

    def _borrow_from_left(self, parent: List[Any], slot: int,
                          left: List[Any], child: List[Any]) -> None:
        if self._is_leaf(child):
            entry = left.pop()
            child.insert(1, entry)
            parent[slot] = (entry[0], parent[slot][1])
        else:
            # Rotate through the parent separator.
            separator_key = parent[slot][0]
            last_key, last_child = left.pop()
            child.insert(1, (separator_key, child[0][1]))
            child[0] = [_INTERNAL, last_child]
            parent[slot] = (last_key, parent[slot][1])

    def _borrow_from_right(self, parent: List[Any], right_slot: int,
                           child: List[Any], right: List[Any]) -> None:
        if self._is_leaf(child):
            entry = right.pop(1)
            child.append(entry)
            parent[right_slot] = (right[1][0], parent[right_slot][1])
        else:
            separator_key = parent[right_slot][0]
            first_child = right[0][1]
            first_key, next_child = right[1]
            del right[1]
            right[0] = [_INTERNAL, next_child]
            child.append((separator_key, first_child))
            parent[right_slot] = (first_key, parent[right_slot][1])

    def _merge(self, parent: List[Any], right_parent_slot: int,
               left: List[Any], right: List[Any]) -> None:
        """Merge the ``right`` node into ``left`` (both pinned frames); the
        separator entry at ``parent[right_parent_slot]`` disappears."""
        if self._is_leaf(left):
            left.extend(right[1:])
            left[0] = [_LEAF, right[0][1]]
        else:
            separator_key = parent[right_parent_slot][0]
            left.append((separator_key, right[0][1]))
            left.extend(right[1:])
        del parent[right_parent_slot]

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        machine: Machine,
        items: Iterator[Tuple[Any, Any]],
        order: Optional[int] = None,
        fill: float = 1.0,
    ) -> "BPlusTree":
        """Build a tree bottom-up from ``items`` sorted by key.

        Costs one write per node — ``Θ(N/B)`` I/Os instead of the
        ``Θ(N log_B N)`` of repeated insertion.

        Args:
            items: ``(key, value)`` pairs in strictly increasing key order.
            fill: target leaf occupancy in ``(0, 1]``.
        """
        if not 0 < fill <= 1:
            raise ConfigurationError(f"fill must be in (0, 1], got {fill}")
        tree = cls(machine, order=order)
        per_leaf = max(2, int(tree.order * fill))

        # Build the leaf level.  Each leaf is written exactly once: the
        # pending batch is held back until the following leaf's block id is
        # known, so the chain pointer goes into the initial write.
        leaves: List[Tuple[Any, int]] = []  # (smallest key, block id)
        pending: Optional[List[tuple]] = None
        pending_id = -1
        batch: List[tuple] = []
        count = 0
        previous_key = None

        def emit(next_id: int) -> None:
            payload = [[_LEAF, next_id]] + pending
            tree._pool.put_new(pending_id, payload)

        for key, value in items:
            if previous_key is not None and key <= previous_key:
                raise ConfigurationError(
                    "bulk_load requires strictly increasing keys; "
                    f"saw {previous_key!r} then {key!r}"
                )
            previous_key = key
            batch.append((key, value))
            count += 1
            if len(batch) == per_leaf:
                block_id = tree._disk.allocate()
                if pending is not None:
                    emit(block_id)
                leaves.append((batch[0][0], block_id))
                pending, pending_id = batch, block_id
                batch = []
        if batch:
            block_id = tree._disk.allocate()
            if pending is not None:
                emit(block_id)
            leaves.append((batch[0][0], block_id))
            pending, pending_id = batch, block_id
        if pending is not None:
            emit(_NO_LEAF)

        if not leaves:
            return tree  # keep the fresh empty root leaf

        # The constructor made an empty root leaf we no longer need.
        tree._pool.invalidate(tree._root_id)
        tree._disk.free(tree._root_id)

        # Build internal levels.
        level = leaves
        height = 1
        per_node = max(2, int(tree.order * fill))
        while len(level) > 1:
            group_size = per_node + 1  # children per internal node
            boundaries = list(range(0, len(level), group_size))
            # Never leave a final group with a single child (an internal
            # node needs at least one separator key): shift the split left.
            if len(level) - boundaries[-1] == 1 and len(boundaries) > 1:
                boundaries[-1] -= 1
            next_level: List[Tuple[Any, int]] = []
            for index, start in enumerate(boundaries):
                stop = (
                    boundaries[index + 1]
                    if index + 1 < len(boundaries)
                    else len(level)
                )
                group = level[start:stop]
                first_key, first_child = group[0]
                node_id = tree._new_internal(
                    first_child, [(k, c) for k, c in group[1:]]
                )
                next_level.append((first_key, node_id))
            level = next_level
            height += 1
        tree._root_id = level[0][1]
        tree._height = height
        tree._size = count
        return tree

    # ------------------------------------------------------------------
    # invariants (test support)
    # ------------------------------------------------------------------
    def check_invariants(self, strict_fill: bool = True) -> None:
        """Verify structural invariants; raises ``AssertionError`` on
        violation.  Reads the whole tree — test use only.

        Args:
            strict_fill: also require every non-root node to hold at least
                ``order // 2`` entries.  Bulk-loaded trees may legitimately
                have one trailing underfull node per level; pass ``False``
                for those.
        """
        self._strict_fill = strict_fill
        leaf_depths = set()
        counted = self._check_node(self._root_id, None, None, 1, leaf_depths,
                                   is_root=True)
        assert counted == self._size, (
            f"size mismatch: counted {counted}, recorded {self._size}"
        )
        assert len(leaf_depths) <= 1, f"leaves at depths {leaf_depths}"
        if leaf_depths:
            assert leaf_depths == {self._height}, (
                f"height {self._height} but leaves at {leaf_depths}"
            )
        # Leaf chain must be globally sorted and complete.
        chained = [key for key, _ in self.items()]
        # em: ok(EM004) test-support invariant check, not an algorithm
        assert chained == sorted(chained), "leaf chain out of order"
        assert len(chained) == self._size

    def _check_node(self, block_id, low, high, depth, leaf_depths,
                    is_root=False) -> int:
        node = self._node(block_id)
        entries = node[1:]
        keys = [entry[0] for entry in entries]
        # em: ok(EM004) one node's ≤ order keys, test-support check
        assert keys == sorted(keys), f"node {block_id} keys unsorted"
        if not is_root and getattr(self, "_strict_fill", True):
            assert len(entries) >= self._min_fill(node), (
                f"node {block_id} underfull: {len(entries)}"
            )
        if not is_root and not self._is_leaf(node):
            assert len(entries) >= 1, f"internal node {block_id} has no keys"
        assert len(entries) <= self.order, f"node {block_id} overfull"
        for key in keys:
            if low is not None:
                assert key >= low, f"key {key} below subtree bound {low}"
            if high is not None:
                assert key < high, f"key {key} above subtree bound {high}"
        if self._is_leaf(node):
            leaf_depths.add(depth)
            return len(entries)
        count = 0
        children = [node[0][1]] + [entry[1] for entry in entries]
        bounds = [low] + keys + [high]
        for index, child in enumerate(children):
            count += self._check_node(
                child, bounds[index], bounds[index + 1], depth + 1,
                leaf_depths,
            )
        return count
