"""External-memory list ranking.

Given a linked list stored in *storage order* (uncorrelated with logical
order), compute each node's rank — its distance from the head.  In RAM
this is a trivial pointer walk; on disk the walk pays one I/O per hop
(``Θ(N)``), because each successor lives in an unrelated block.  The
survey's solution contracts the list with a randomized independent set,
recurses, and reintegrates — a geometric series of sorts and merge joins
totalling ``O(Sort(N))`` I/Os.

List ranking is the survey's gateway to graph problems: Euler tours,
tree labelling, and connectivity all bootstrap from it.

Input format: an iterable of ``(node, successor)`` pairs, nodes numbered
arbitrarily, ``-1`` marking the tail.  Output: ``{node: rank}`` with the
head at rank 0.

The contraction rounds run a block or merge segment at a time on typed
``int64`` records (numpy structured arrays sorted by
:func:`~repro.core.records.field` keys): every sort takes the typed
merge round and every merge-join is a ``searchsorted`` of a batch
(see :func:`_rank_recursive`).
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..analysis.sanitizer import io_bound
from ..core.blockfile import BlockFile
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError, MemoryLimitExceeded
from ..core.machine import Machine
from ..core.records import concat, field, np
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter
from ..search.hashing import _hash_bits
from ..sort.merge import external_merge_sort

_TAIL = -1
_INT64_MAX = 2 ** 63 - 1

# The contraction's record types, all int64 and sorted by a field key.
_NODE = np.dtype([("node", np.int64), ("succ", np.int64),
                  ("w", np.int64)])
_PRED = np.dtype([("at", np.int64), ("pred", np.int64)])
_REMOVED = np.dtype([("node", np.int64), ("pred", np.int64),
                     ("succ", np.int64), ("w", np.int64)])
_RANK = np.dtype([("node", np.int64), ("rank", np.int64)])


def _ranking_theory(machine: Machine, n: int) -> float:
    """``O(Sort(N))`` expected for the contraction, with a log-factor
    margin covering the per-level sorts, joins, and coin retries.
    Unsized inputs (n ≤ 0) have no static bound."""
    if n <= 0:
        return float("inf")
    rounds = max(1, n.bit_length())
    return rounds * (4 * sort_io(n, machine.M, machine.B, machine.D)
                     + 6 * scan_io(n, machine.B, machine.D))


@io_bound(lambda machine, n: 2 * n + 2 * scan_io(
              n, machine.B, machine.D),
          factor=3.0,
          n=lambda machine, pairs, num_nodes: num_nodes)
def pointer_chase_ranking(
    machine: Machine,
    pairs: Iterable[Tuple[int, int]],
    num_nodes: int,
) -> Dict[int, int]:
    """The naive walk: follow successors one hop (and ~one I/O) at a time.

    Successor pointers are stored by node id in a block file; the head is
    found with one scan.  The walk then reads the block containing each
    visited node — on a random storage order nearly every hop misses the
    pool.  Each hop depends on the previous one, so unlike the batched
    table scans elsewhere there is nothing to wave-read with
    ``get_many``; the cached reads do, however, inherit the runtime's
    retry/scrub handling like all pool traffic.
    """
    B = machine.block_size
    with BlockFile(
        machine, (num_nodes + B - 1) // B, name="listrank"
    ) as table:
        staging: Dict[int, List] = {}
        successors_seen = set()
        count = 0
        for node, successor in pairs:
            staging.setdefault(node // B, [None] * B)[node % B] = successor
            if successor != _TAIL:
                successors_seen.add(successor)
            count += 1
        if count != num_nodes:
            raise ConfigurationError(
                f"expected {num_nodes} pairs, got {count}"
            )
        for block_index, payload in staging.items():
            table.write_block(block_index, payload)
        heads = [v for v in range(num_nodes) if v not in successors_seen]
        if len(heads) != 1:
            raise ConfigurationError(
                f"input is not a single linked list "
                f"(found {len(heads)} heads)"
            )

        ranks: Dict[int, int] = {}
        node = heads[0]
        rank = 0
        while node != _TAIL:
            ranks[node] = rank
            block = machine.pool.get(table.block_id(node // B))
            node = block[node % B]
            rank += 1
        table.delete()
    return ranks


@io_bound(_ranking_theory, factor=4.0)
def list_ranking(
    machine: Machine,
    pairs: Iterable[Tuple[int, int]],
    seed: int = 0,
) -> Dict[int, int]:
    """Rank a linked list in ``O(Sort(N))`` expected I/Os by randomized
    independent-set contraction.

    Each round: nodes that drew heads while their predecessor drew tails
    form an independent set; they are spliced out (their predecessor
    inherits their weight) and remembered on a side stream.  Once the
    list fits in memory it is walked directly; side streams are then
    replayed in reverse to reintegrate the spliced nodes.

    Every sort in the contraction is pipelined (see
    :func:`_rank_recursive`); :func:`list_ranking_materialized` keeps
    the stream-to-stream rounds as the measured control.  Node ids
    follow :func:`weighted_list_ranking`'s input rule.
    """
    return _ranked(machine, pairs, False, seed)


@io_bound(_ranking_theory, factor=4.0)
def list_ranking_materialized(
    machine: Machine,
    pairs: Iterable[Tuple[int, int]],
    seed: int = 0,
) -> Dict[int, int]:
    """The stream-to-stream contraction: every round materializes its
    intermediate streams and sorts them disk-to-disk.

    Kept as the measured control for the pipelining experiment (F25)
    and the fused/materialized parity suite; new code should call
    :func:`list_ranking`."""
    records = FileStream(machine, name="listrank/input")
    for node, successor in pairs:
        records.append((node, successor, 1))
    records.finalize()
    ordered = external_merge_sort(
        machine, records, key=lambda r: r[0], keep_input=False
    )
    ranked = _rank_recursive_materialized(machine, ordered, seed)
    ordered.delete()
    ranks = {node: rank for node, rank in ranked}
    ranked.delete()
    return ranks


@io_bound(_ranking_theory, factor=4.0)
def weighted_list_ranking(
    machine: Machine,
    triples: Iterable[Tuple[int, int, int]],
    seed: int = 0,
) -> Dict[int, int]:
    """Generalized list ranking: given ``(node, successor, weight)``,
    return for each node the sum of the weights of all nodes strictly
    before it (the head gets 0).

    With unit weights this is :func:`list_ranking`; with signed weights
    it computes prefix sums along the list — the primitive behind Euler
    tour tree labelling (depths via ±1 weights).  Same ``O(Sort(N))``
    expected cost.

    Input rule: node ids, successors and weights are integers (Python
    or numpy; ``bool`` counts as 0/1) that fit ``int64``, and the
    absolute weights sum to at most ``2**63 - 1``, so no rank can
    overflow.  Negative node ids are allowed; ``-1`` is the tail
    marker, never a node.  Anything else — a float (even ``2.0``), a
    string, an id beyond ``int64``, a tuple of the wrong length —
    raises :class:`~repro.core.exceptions.ConfigurationError`; nothing
    is rounded or truncated.
    """
    return _ranked(machine, triples, True, seed)


def _ranked(machine: Machine, items: Iterable[Tuple[int, ...]],
            weighted: bool, seed: int) -> Dict[int, int]:
    """``{node: rank}`` of the typed contraction; a failure frees every
    stream it made."""
    ordered = _ordered_input(machine, items, weighted)
    try:
        ranked = _rank_recursive(machine, ordered, seed)
    finally:
        ordered.delete()
    try:
        return _ranks_of(ranked)
    finally:
        ranked.delete()


def _typed_chunks(
    items: Iterable[Tuple[int, ...]],
    size: int,
    weighted: bool,
) -> Iterator["np.ndarray"]:
    """The input as ``(node, succ, w)`` record blocks of ``size``
    items: pairs get weight 1.  Values that break
    :func:`weighted_list_ranking`'s input rule raise
    :class:`~repro.core.exceptions.ConfigurationError` rather than
    being truncated."""
    width = 3 if weighted else 2
    magnitude = 0  # sum of |weight| so far: bounds every rank
    items = iter(items)
    while True:
        chunk = list(islice(items, size))
        if not chunk:
            return
        try:
            values = np.array(chunk)
        except (TypeError, ValueError):
            values = None
        if values is None or values.ndim != 2 \
                or values.shape[1] != width:
            raise ConfigurationError(
                f"list ranking expects {width}-tuples "
                f"(node, successor{', weight' if weighted else ''})"
            )
        kind = values.dtype.kind
        if kind not in "biu" or (
                kind == "u" and values.max() > _INT64_MAX):
            raise ConfigurationError(
                "list ranking takes integer node ids"
                f"{' and weights' if weighted else ''} that fit int64; "
                f"got {values.dtype} values"
            )
        records = np.empty(len(chunk), _NODE)
        records["node"] = values[:, 0]
        records["succ"] = values[:, 1]
        if weighted:
            magnitude += sum(map(abs, values[:, 2].tolist()))
            if magnitude > _INT64_MAX:
                raise ConfigurationError(
                    "list ranking weights must sum to at most 2**63 - 1 "
                    "in absolute value, so that every rank fits int64"
                )
            records["w"] = values[:, 2]
        else:
            records["w"] = 1
        yield records


def _ordered_input(
    machine: Machine,
    items: Iterable[Tuple[int, ...]],
    weighted: bool,
) -> FileStream:
    """Sort the input's ``(node, succ, w)`` records by node id straight
    off the producer: the input is converted a block at a time and
    pushed into a pipelined sorter, and only the node-ordered recursion
    input is ever written."""
    out = FileStream(machine, name="listrank/input")
    try:
        with Sorter(
            machine, key=field("node"), name="listrank/input-sort"
        ) as sorter:
            for records in _typed_chunks(items, machine.B, weighted):
                sorter.push_block(records)
            for segment in sorter.finish_segments():
                out.append_payload(segment)
        return out.finalize()
    except BaseException:
        out.delete()
        raise


def _ranks_of(ranked: FileStream) -> Dict[int, int]:
    """``{node: rank}`` from a stream of ``(node, rank)`` records."""
    ranks: Dict[int, int] = {}
    for block in ranked.iter_blocks():
        ranks.update(zip(block["node"].tolist(), block["rank"].tolist()))
    return ranks


class _Cursor:
    """One side of a merge-join: a key-sorted payload source and the
    payload that the per-record join's entry stands in.

    The per-record join steps its entry past every key below the
    current record's and reads the source's next payload when it steps
    off the end of the held one.  :func:`_pieces` cuts a batch where
    those reads fall, so each read happens between the same records as
    in the per-record loop.
    """

    __slots__ = ("source", "name", "rows")

    def __init__(self, source: Iterator["np.ndarray"], name: str):
        self.source = source
        self.name = name
        self.rows = next(source, None)

    def reach(self, keys: "np.ndarray") -> int:
        """How many of the sorted ``keys`` the held payload serves."""
        if self.rows is None:
            return len(keys)
        return int(keys.searchsorted(self.rows[self.name].item(-1),
                                     "right"))

    def cover(self, key: int) -> None:
        """Read on, as the per-record entry does for ``key``."""
        while self.rows is not None \
                and self.rows[self.name].item(-1) < key:
            self.rows = next(self.source, None)

    def lookup(self, keys: "np.ndarray"):
        """``(index, found)``: where each of ``keys`` (all served) sits
        in the held payload, and whether it is there."""
        if self.rows is None:
            return np.zeros(len(keys), np.intp), np.zeros(len(keys), bool)
        index = self.rows[self.name].searchsorted(keys)
        return index, self.rows[self.name][index] == keys

    def close(self) -> None:
        self.source.close()


def _pieces(keys: "np.ndarray", *cursors: _Cursor
            ) -> Iterator[Tuple[int, int]]:
    """Cut a batch of sorted ``keys`` into ``(start, stop)`` pieces the
    cursors' held payloads serve.  Between pieces each cursor, in
    order, reads on for the next key, as the per-record join would."""
    start, count = 0, len(keys)
    while True:
        stop = min(cursor.reach(keys) for cursor in cursors)
        if stop > start:
            yield start, stop
        if stop >= count:
            return
        for cursor in cursors:
            cursor.cover(keys.item(stop))
        start = stop


def _coins(nodes: "np.ndarray", salt: int) -> "np.ndarray":
    """Each node's coin, ``_hash_bits((node, salt)) & 1``, as bools."""
    bits = np.fromiter(map(_hash_bits, zip(nodes.tolist(), repeat(salt))),
                       np.uint64, len(nodes))
    return (bits & 1).astype(bool)


def _rank_recursive(
    machine: Machine,
    records: FileStream,
    salt: int,
) -> FileStream:
    """Rank a list given as a stream of ``(node, succ, w)`` records
    sorted by node id; returns a stream of ``(node, rank)`` records
    sorted by node id.

    The input stream is read but never deleted — the caller owns it (and
    may still need it after the call, e.g. for reintegration weights).

    Every sort in a round is a pipelined :class:`Sorter`: producers push
    records straight into run formation and consumers pull the final
    merge, so none of the round's intermediates (predecessor pairs,
    survivors, patched pieces, restored ranks) ever exists as a stream
    on disk.  Only two round-local streams are materialized — the
    ``removed`` side records, which are read twice (splice and
    reintegration) and arrive already in node order, and the
    ``contracted`` list, which is both the recursion input and the
    predecessor-weight lookup.  That is also the round's whole
    across-the-recursion disk footprint, so the peak stays ``O(N/B)``
    blocks over all depths (the geometric series), a property
    regression-tested in ``test_pipeline.py``.

    A round moves one block or merge segment at a time: the records are
    ``int64`` structured arrays (``(node, succ, w)``, ``(at, pred)``,
    ``(node, pred, succ, w)``, ``(node, rank)``) sorted by
    :func:`~repro.core.records.field` keys, so every sort takes the
    typed merge round, and each merge-join is a ``searchsorted`` of a
    batch against a :class:`_Cursor`, cut wherever a cursor reads its
    next block.

    Each pull is planned once the scans and the ``removed`` writer that
    run beside it hold their frames; the next sorter's run buffer takes
    the frame every pull leaves, and grows as the pull gives back its
    resident blocks.
    """
    n = len(records)
    base_capacity = machine.M - 2 * machine.B
    if n <= base_capacity:
        return _rank_in_memory(machine, records)

    # A failed round frees every stream, scan and sorter it opened.
    opened: List[Any] = []  # sorters and scans, closed on the way out
    removed = FileStream(machine, name="listrank/removed")
    contracted = sub_ranks = merged = None

    try:
        removed.reserve_writer()  # step 2's side stream, held throughout
        # --- 1. attach predecessors: pred[succ] = node, pushed
        # straight into a sorter keyed by successor -------------------
        preds = Sorter(machine, key=field("at"), name="listrank/preds")
        opened.append(preds)
        for block in records.iter_blocks():
            linked = block[block["succ"] != _TAIL]
            pairs = np.empty(len(linked), _PRED)
            pairs["at"] = linked["succ"]
            pairs["pred"] = linked["node"]
            preds.push_block(pairs)

        # --- 2. classify: independent set = coin(v) & ~coin(pred(v)).
        # Join records (by node) with the pulled preds (by node);
        # survivors go straight into the splice sorter keyed by
        # *successor*, removed nodes land on a side stream — appended
        # in node order, so it never needs sorting. -------------------
        blocks = records.iter_blocks()
        opened.append(blocks)
        held = [next(blocks)]  # the scan's frame, held before the plan
        pred_cursor = _Cursor(preds.finish_segments(), "at")
        by_succ = Sorter(machine, key=field("succ"), name="listrank/by-succ")
        opened.append(by_succ)
        for block in chain(held, blocks):
            for start, stop in _pieces(block["node"], pred_cursor):
                piece = block[start:stop]
                nodes = piece["node"]
                index, in_set = pred_cursor.lookup(nodes)
                in_set &= _coins(nodes, salt)
                predecessors = pred_cursor.rows["pred"][index[in_set]] \
                    if in_set.any() else index[:0]
                keep = ~_coins(predecessors, salt)
                in_set[in_set] = keep
                gone = piece[in_set]
                # (node, pred, succ, weight): enough to splice and
                # restore.
                side = np.empty(len(gone), _REMOVED)
                side["node"] = gone["node"]
                side["pred"] = predecessors[keep]
                side["succ"] = gone["succ"]
                side["w"] = gone["w"]
                by_succ.push_block(piece[~in_set])
                removed.append_payload(side)
        pred_cursor.close()  # release the pull's reader frames eagerly
        removed.finalize()

        if len(removed) == 0:
            # Unlucky coins removed nothing: the survivors are exactly
            # the input, so retry straight on it with a fresh salt.
            removed.delete()
            return _rank_recursive(machine, records, salt + 1)

        # --- 3. splice: survivors whose successor was removed now
        # point to the removed node's successor and absorb its weight.
        # The pulled by-successor order joins against a plain scan of
        # ``removed`` (node order); patched pieces go straight into the
        # next sorter, back toward node order. ------------------------
        removed_cursor = _Cursor(removed.iter_blocks(), "node")
        opened.append(removed_cursor)
        by_succ_segments = by_succ.finish_segments()
        contractor = Sorter(machine, key=field("node"),
                            name="listrank/contracted")
        opened.append(contractor)
        for segment in by_succ_segments:
            for start, stop in _pieces(segment["succ"], removed_cursor):
                patched = segment[start:stop].copy()
                successors = patched["succ"]
                index, spliced = removed_cursor.lookup(successors)
                spliced &= successors != _TAIL
                if spliced.any():
                    held = removed_cursor.rows[index[spliced]]
                    patched["succ"][spliced] = held["succ"]
                    patched["w"][spliced] += held["w"]
                contractor.push_block(patched)
        removed_cursor.close()

        # The contracted list is the one intermediate that must be
        # materialized: it is the recursion input and, afterwards, the
        # predecessor-weight lookup.
        contracted = FileStream(machine, name="listrank/contracted")
        for segment in contractor.finish_segments():
            contracted.append_payload(segment)
        contracted.finalize()

        # --- 4. recurse ----------------------------------------------
        sub_ranks = _rank_recursive(machine, contracted, salt + 1)

        # --- 5. reintegrate: rank(removed) = rank(pred) + weight(pred
        # at time of removal) = rank(pred) + (pred's contracted weight
        # - removed node's own weight).  Removed records are re-pushed
        # keyed by *predecessor* and the pull joins against scans of
        # sub_ranks and contracted (both in node order). --------------
        # Both lookup scans hold their frames before the pull is
        # planned: one beside the push, one in the frame its scan of
        # ``removed`` gives back.
        rank_cursor = _Cursor(sub_ranks.iter_blocks(), "node")
        opened.append(rank_cursor)
        by_pred = Sorter(machine, key=field("pred"), name="listrank/by-pred")
        opened.append(by_pred)
        for block in removed.iter_blocks():
            by_pred.push_block(block)
        info_cursor = _Cursor(contracted.iter_blocks(), "node")
        opened.append(info_cursor)
        by_pred_segments = by_pred.finish_segments()
        restored = Sorter(machine, key=field("node"),
                          name="listrank/restored")
        opened.append(restored)
        for segment in by_pred_segments:
            for start, stop in _pieces(segment["pred"], rank_cursor,
                                       info_cursor):
                piece = segment[start:stop]
                rank_at, rank_found = rank_cursor.lookup(piece["pred"])
                info_at, info_found = info_cursor.lookup(piece["pred"])
                assert rank_found.all() and info_found.all()
                ranked = np.empty(len(piece), _RANK)
                ranked["node"] = piece["node"]
                ranked["rank"] = rank_cursor.rows["rank"][rank_at] \
                    + (info_cursor.rows["w"][info_at] - piece["w"])
                restored.push_block(ranked)
        rank_cursor.close()
        info_cursor.close()
        contracted.delete()
        removed.delete()

        # --- 6. merge sub_ranks with the pulled restored order (both
        # sorted by node) into the result stream. ---------------------
        merged = FileStream(machine, name="listrank/ranks")
        for piece in _merged_by_node(sub_ranks.iter_blocks(), restored):
            merged.append_payload(piece)
        merged.finalize()
        sub_ranks.delete()
        return merged
    except BaseException:
        # delete() is idempotent: streams already freed are no-ops.
        removed.delete()
        for stream in (contracted, sub_ranks, merged):
            if stream is not None:
                stream.delete()
        raise
    finally:
        for item in opened:
            item.close()


def _merged_by_node(a_iter: Iterator["np.ndarray"], b_sorter: Sorter
                    ) -> Iterator["np.ndarray"]:
    """Merge a node-sorted payload source and the pull of ``b_sorter``
    (planned once ``a``'s scan holds its frame) into node-sorted
    pieces, ``b``'s record first on a tie, as a record merge would:
    each side's held payload is emitted up to the other side's last
    key, and the side whose payload ran out is read next, where a
    record merge reads it."""
    try:
        a = next(a_iter, None)
        b_iter = b_sorter.finish_segments()
        b = next(b_iter, None)
        while a is not None or b is not None:
            if b is None:
                yield a
                a = next(a_iter, None)
            elif a is None:
                yield b
                b = next(b_iter, None)
            elif a["node"].item(-1) < b["node"].item(-1):
                cut = b["node"].searchsorted(a["node"].item(-1), "right")
                yield _by_node(b[:cut], a)
                b = b[cut:]
                a = next(a_iter, None)
            else:
                cut = a["node"].searchsorted(b["node"].item(-1))
                yield _by_node(b, a[:cut])
                a = a[cut:]
                b = next(b_iter, None)
    finally:
        a_iter.close()


def _by_node(first: "np.ndarray", second: "np.ndarray") -> "np.ndarray":
    """Two node-sorted payloads merged, ``first``'s records ahead on a
    tie."""
    both = concat([first, second])
    return both[both["node"].argsort(kind="stable")]


def _rank_recursive_materialized(
    machine: Machine,
    records: FileStream,
    salt: int,
) -> FileStream:
    """The stream-to-stream round: every intermediate is materialized
    and every sort is disk-to-disk — the measured control for
    :func:`_rank_recursive`'s fused rounds."""
    n = len(records)
    base_capacity = machine.M - 2 * machine.B
    if n <= base_capacity:
        return _rank_in_memory(machine, records)

    # --- 1. attach predecessors: pred[succ] = node ------------------
    pred_stream = FileStream(machine, name="listrank/preds")
    for node, successor, _ in records:
        if successor != _TAIL:
            pred_stream.append((successor, node))
    pred_stream.finalize()
    # em: ok(EM103) materialized control for F25/parity
    preds = external_merge_sort(
        machine, pred_stream, key=lambda r: r[0], keep_input=False
    )

    # --- 2. classify: independent set = coin(v) & ~coin(pred(v)) ----
    def coin(node: int) -> bool:
        return bool(_hash_bits((node, salt)) & 1)

    # Merge records (by node) with preds (by node) to see each node's
    # predecessor; emit contracted list pieces and side records.
    survivors = FileStream(machine, name="listrank/survivors")
    removed = FileStream(machine, name="listrank/removed")
    pred_iter = iter(preds)
    pred_entry = next(pred_iter, None)
    for node, successor, weight in records:
        while pred_entry is not None and pred_entry[0] < node:
            pred_entry = next(pred_iter, None)
        predecessor = (
            pred_entry[1]
            if pred_entry is not None and pred_entry[0] == node
            else None
        )
        in_set = (
            predecessor is not None
            and coin(node)
            and not coin(predecessor)
        )
        if in_set:
            # (node, pred, succ, weight): enough to splice and restore.
            removed.append((node, predecessor, successor, weight))
        else:
            survivors.append((node, successor, weight))
    pred_iter.close()  # release the lookup reader's frame
    survivors.finalize()
    removed.finalize()
    preds.delete()

    if len(removed) == 0:
        # Unlucky coins removed nothing; retry with a fresh salt.
        result = _rank_recursive_materialized(
            machine, survivors, salt + 1
        )
        survivors.delete()
        removed.delete()
        return result

    # --- 3. splice: survivors whose successor was removed now point to
    # the removed node's successor and absorb its weight. -------------
    # Join survivors (keyed by successor) with removed (keyed by node;
    # it was appended in node order, so the sort is a formality kept
    # for the control's stream-to-stream shape).
    # em: ok(EM103) materialized control for F25/parity
    by_successor = external_merge_sort(
        machine, survivors, key=lambda r: r[1], keep_input=False
    )
    # em: ok(EM103) materialized control for F25/parity
    removed_sorted = external_merge_sort(
        machine, removed, key=lambda r: r[0]
    )
    patched = FileStream(machine, name="listrank/patched")
    removed_iter = iter(removed_sorted)
    removed_entry = next(removed_iter, None)
    for node, successor, weight in by_successor:
        while removed_entry is not None and removed_entry[0] < successor:
            removed_entry = next(removed_iter, None)
        if (
            successor != _TAIL
            and removed_entry is not None
            and removed_entry[0] == successor
        ):
            _, _, removed_succ, removed_weight = removed_entry
            patched.append((node, removed_succ, weight + removed_weight))
        else:
            patched.append((node, successor, weight))
    removed_iter.close()
    patched.finalize()
    by_successor.delete()
    removed_sorted.delete()

    contracted = external_merge_sort(
        machine, patched, key=lambda r: r[0], keep_input=False
    )

    # --- 4. recurse -------------------------------------------------
    sub_ranks = _rank_recursive_materialized(machine, contracted, salt + 1)

    # --- 5. reintegrate: rank(removed) = rank(pred) + weight(pred at
    # time of removal).  The predecessor's weight then was its *current*
    # weight before absorbing; we stored the removed node's own weight,
    # so recompute: rank(node) = rank(pred) + (weight added when stepping
    # pred -> node), which equals pred's weight before splicing =
    # pred's weight in the contracted list minus node's weight.
    # em: ok(EM103) materialized control for F25/parity
    removed_by_pred = external_merge_sort(
        machine, removed, key=lambda r: r[1], keep_input=False
    )
    # The predecessor's contracted weight comes straight from the
    # contracted stream, which is already sorted by node id.
    pred_info = contracted
    restored = FileStream(machine, name="listrank/restored")
    rank_iter = iter(sub_ranks)
    info_iter = iter(pred_info)
    rank_entry = next(rank_iter, None)
    info_entry = next(info_iter, None)
    for node, predecessor, _, weight in removed_by_pred:
        while rank_entry is not None and rank_entry[0] < predecessor:
            rank_entry = next(rank_iter, None)
        while info_entry is not None and info_entry[0] < predecessor:
            info_entry = next(info_iter, None)
        assert rank_entry is not None and rank_entry[0] == predecessor
        assert info_entry is not None and info_entry[0] == predecessor
        pred_rank = rank_entry[1]
        pred_weight_now = info_entry[2]
        restored.append((node, pred_rank + (pred_weight_now - weight)))
    rank_iter.close()
    info_iter.close()
    restored.finalize()
    removed_by_pred.delete()
    contracted.delete()

    # --- 6. merge sub_ranks with restored (both → sorted by node) ----
    # em: ok(EM103) materialized control for F25/parity
    restored_sorted = external_merge_sort(
        machine, restored, key=lambda r: r[0], keep_input=False
    )
    merged = FileStream(machine, name="listrank/ranks")
    a_iter = iter(sub_ranks)
    b_iter = iter(restored_sorted)
    a = next(a_iter, None)
    b = next(b_iter, None)
    while a is not None or b is not None:
        if b is None or (a is not None and a[0] < b[0]):
            merged.append(a)
            a = next(a_iter, None)
        else:
            merged.append(b)
            b = next(b_iter, None)
    merged.finalize()
    sub_ranks.delete()
    restored_sorted.delete()
    removed.delete()
    survivors.delete()
    return merged


def _rank_in_memory(machine: Machine, records: FileStream) -> FileStream:
    """Base case: the list fits in memory; walk it directly.

    Serves both representations: typed ``(node, succ, w)`` records give
    typed ``(node, rank)`` records, tuples (the materialized control)
    give tuples."""
    if len(records) > machine.M:
        raise MemoryLimitExceeded(
            len(records), machine.budget.in_use, machine.M)
    with machine.budget.reserve(len(records)):
        table = concat(list(records.iter_blocks()))
        typed = isinstance(table, np.ndarray)
        if typed:
            nodes = table["node"].tolist()
            succs = table["succ"].tolist()
            weights = table["w"].tolist()
        else:
            nodes = [node for node, _, _ in table]
            succs = [succ for _, succ, _ in table]
            weights = [w for _, _, w in table]
        successor: Dict[int, int] = dict(zip(nodes, succs))
        weight: Dict[int, int] = dict(zip(nodes, weights))
        targets = set(succs)
        targets.discard(_TAIL)
        ranks: Dict[int, int] = {}
        if successor:
            heads = [v for v in successor if v not in targets]
            if len(heads) != 1:
                raise ConfigurationError(
                    f"input is not a single linked list "
                    f"(found {len(heads)} heads)"
                )
            node = heads[0]
            rank = 0
            while node != _TAIL:
                ranks[node] = rank
                rank += weight[node]
                node = successor[node]
        # em: ok(EM004) base case: ≤ M - 2B nodes, reserved above
        order = sorted(ranks)
        if typed:
            ranked = np.empty(len(order), _RANK)
            ranked["node"] = order
            ranked["rank"] = [ranks[node] for node in order]
        else:
            ranked = [(node, ranks[node]) for node in order]
        output = FileStream(machine, name="listrank/ranks")
        try:
            output.append_payload(ranked)
            return output.finalize()
        except BaseException:
            output.delete()
            raise
