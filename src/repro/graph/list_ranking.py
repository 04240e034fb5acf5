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

from itertools import islice, repeat
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

from ..analysis.sanitizer import io_bound
from ..core.blockfile import BlockFile
from ..core.bounds import scan_io, sort_io
from ..core.exceptions import ConfigurationError, MemoryLimitExceeded
from ..core.machine import Machine
from ..core.records import concat, field, np
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter, _primed
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
    """:func:`list_ranking` with its sorts on disk: the same stages and
    coins, but every record set the fused rounds push into a Sorter is
    written and sorted by :func:`~repro.sort.merge.external_merge_sort`
    (see :func:`_rank_on_disk`).

    Kept as the measured control for the pipelining experiment (F25)
    and the fused/materialized parity suite; new code should call
    :func:`list_ranking`."""
    ordered = _sorted_on_disk(machine, _typed_chunks(pairs, machine.B, False),
                              "node", "listrank/input")
    try:
        ranked = _rank_on_disk(machine, ordered, seed)
    finally:
        ordered.delete()
    try:
        return _ranks_of(ranked)
    finally:
        ranked.delete()


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
    with Sorter(
        machine, key=field("node"), name="listrank/input-sort"
    ) as sorter:
        for records in _typed_chunks(items, machine.B, weighted):
            sorter.push_block(records)
        return _written(machine, sorter.finish_segments(), "listrank/input")


def _written(machine: Machine, payloads: Iterable["np.ndarray"],
             name: str) -> FileStream:
    """A stream of ``payloads``, finalized; freed if a payload fails."""
    out = FileStream(machine, name=name)
    try:
        for payload in payloads:
            out.append_payload(payload)
        return out.finalize()
    except BaseException:
        out.delete()
        raise


def _ranks_of(ranked: FileStream) -> Dict[int, int]:
    """``{node: rank}`` from a stream of ``(node, rank)`` records."""
    ranks: Dict[int, int] = {}
    for block in ranked.iter_blocks():
        # em: ok(EM005) the N-entry rank map is the declared in-RAM
        # result
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
    sorted by node id.  The input stream is read but never deleted: the
    caller owns it.

    A round is five stages — :func:`_pred_pairs`, :func:`_classified`,
    :func:`_spliced`, :func:`_restored` and :func:`_merged_by_node` —
    and every sort between them is a pipelined :class:`Sorter`, so no
    intermediate but two exists as a stream on disk: the ``removed``
    side records (read twice, already in node order) and the
    ``contracted`` list (the recursion input and the predecessor-weight
    lookup).  Those two are the round's whole footprint across the
    recursion, so the peak stays ``O(N/B)`` blocks over all depths (the
    geometric series, regression-tested in ``test_pipeline.py``).

    The records are ``int64`` structured arrays sorted by
    :func:`~repro.core.records.field` keys, so every sort takes the
    typed merge round and each merge-join is a ``searchsorted`` of a
    batch against a :class:`_Cursor`.  Each pull is planned once the
    scans and the ``removed`` writer that run beside it hold their
    frames; the next sorter's run buffer takes the frame every pull
    leaves.
    """
    if len(records) <= machine.M - 2 * machine.B:
        return _rank_in_memory(machine, records)

    # A failed round frees every stream, scan and sorter it opened.
    opened: List[Any] = []  # sorters, scans and cursors, closed on exit
    removed = FileStream(machine, name="listrank/removed")
    contracted = sub_ranks = merged = None

    try:
        removed.reserve_writer()  # step 2's side stream, held throughout
        # --- 1. attach predecessors, keyed by successor ---------------
        preds = Sorter(machine, key=field("at"), name="listrank/preds")
        opened.append(preds)
        for pairs in _pred_pairs(records.iter_blocks()):
            preds.push_block(pairs)

        # --- 2. classify against the pulled preds: survivors go to the
        # splice sorter keyed by *successor*, removed nodes to the side
        # stream, in node order, so it never needs sorting. -----------
        blocks = records.iter_blocks()
        opened.append(blocks)
        scan = _primed(blocks)  # the scan's frame, held before the plan
        pred_cursor = _Cursor(preds.finish_segments(), "at")
        opened.append(pred_cursor)
        by_succ = Sorter(machine, key=field("succ"), name="listrank/by-succ")
        opened.append(by_succ)
        for kept, gone in _classified(scan, pred_cursor, salt):
            by_succ.push_block(kept)
            removed.append_payload(gone)
        removed.finalize()

        if len(removed) == 0:
            # Unlucky coins removed nothing: the survivors are exactly
            # the input, so retry straight on it with a fresh salt.
            removed.delete()
            return _rank_recursive(machine, records, salt + 1)

        # --- 3. splice the pulled by-successor order against a scan of
        # ``removed``; patched pieces go back toward node order. -------
        removed_cursor = _Cursor(removed.iter_blocks(), "node")
        opened.append(removed_cursor)
        by_succ_segments = by_succ.finish_segments()
        contractor = Sorter(machine, key=field("node"),
                            name="listrank/contracted")
        opened.append(contractor)
        for patched in _spliced(by_succ_segments, removed_cursor):
            contractor.push_block(patched)

        # The contracted list is the one intermediate that must be
        # materialized: it is the recursion input and, afterwards, the
        # predecessor-weight lookup.
        contracted = _written(machine, contractor.finish_segments(),
                              "listrank/contracted")

        # --- 4. recurse ----------------------------------------------
        sub_ranks = _rank_recursive(machine, contracted, salt + 1)

        # --- 5. reintegrate: removed records are re-pushed keyed by
        # *predecessor*, and the pull joins against scans of sub_ranks
        # and contracted.  Both lookup scans hold their frames before
        # the pull is planned: one beside the push, one in the frame
        # its scan of ``removed`` gives back. -------------------------
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
        for ranked in _restored(by_pred_segments, rank_cursor, info_cursor):
            restored.push_block(ranked)
        contracted.delete()
        removed.delete()

        # --- 6. merge sub_ranks with the pulled restored order, planned
        # once the scan of sub_ranks holds its frame. ------------------
        merged = FileStream(machine, name="listrank/ranks")
        for piece in _merged_by_node(sub_ranks.iter_blocks(),
                                     restored.finish_segments):
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


def _rank_on_disk(
    machine: Machine,
    records: FileStream,
    salt: int,
) -> FileStream:
    """:func:`_rank_recursive`'s round with its sorts on disk, the F25
    control: the same stages on the same cursors, but what the fused
    round pushes into a Sorter is written and sorted by
    :func:`~repro.sort.merge.external_merge_sort`, and the next stage
    scans the sorted stream where the fused round pulls."""
    if len(records) <= machine.M - 2 * machine.B:
        return _rank_in_memory(machine, records)

    # em: ok(EM103) materialized control for F25/parity
    preds = _sorted_on_disk(machine, _pred_pairs(records.iter_blocks()),
                            "at", "listrank/preds")
    survivors = FileStream(machine, name="listrank/survivors")
    removed = FileStream(machine, name="listrank/removed")
    for kept, gone in _classified(records.iter_blocks(),
                                  _Cursor(preds.iter_blocks(), "at"), salt):
        survivors.append_payload(kept)
        removed.append_payload(gone)
    preds.delete()
    survivors.finalize()
    removed.finalize()
    if len(removed) == 0:
        survivors.delete()
        removed.delete()
        return _rank_on_disk(machine, records, salt + 1)

    # em: ok(EM103) materialized control for F25/parity
    by_succ = external_merge_sort(machine, survivors, key=field("succ"),
                                  keep_input=False)
    contracted = _sorted_on_disk(
        machine, _spliced(by_succ.iter_blocks(),
                          _Cursor(removed.iter_blocks(), "node")),
        "node", "listrank/contracted")
    by_succ.delete()

    sub_ranks = _rank_on_disk(machine, contracted, salt + 1)

    # em: ok(EM103) materialized control for F25/parity
    by_pred = external_merge_sort(machine, removed, key=field("pred"),
                                  keep_input=False)
    restored = _sorted_on_disk(
        machine, _restored(by_pred.iter_blocks(),
                           _Cursor(sub_ranks.iter_blocks(), "node"),
                           _Cursor(contracted.iter_blocks(), "node")),
        "node", "listrank/restored")
    by_pred.delete()
    contracted.delete()

    merged = _written(machine, _merged_by_node(sub_ranks.iter_blocks(),
                                               restored.iter_blocks),
                      "listrank/ranks")
    sub_ranks.delete()
    restored.delete()
    return merged


def _sorted_on_disk(machine: Machine, payloads: Iterable["np.ndarray"],
                    key: str, name: str) -> FileStream:
    """``payloads`` written to a stream and sorted to disk by the field
    ``key`` — the control's boundary where the fused round has a
    Sorter."""
    return external_merge_sort(machine, _written(machine, payloads, name),
                               key=field(key), keep_input=False)


def _pred_pairs(blocks: Iterable["np.ndarray"]) -> Iterator["np.ndarray"]:
    """Stage 1: the ``(at, pred)`` pair of every linked node of the
    ``(node, succ, w)`` blocks — ``pred[succ] = node``."""
    for block in blocks:
        linked = block[block["succ"] != _TAIL]
        pairs = np.empty(len(linked), _PRED)
        pairs["at"] = linked["succ"]
        pairs["pred"] = linked["node"]
        yield pairs


def _classified(blocks: Iterable["np.ndarray"], preds: _Cursor, salt: int
                ) -> Iterator[Tuple["np.ndarray", "np.ndarray"]]:
    """Stage 2: the independent set is ``coin(v) & ~coin(pred(v))``.

    Joins the node-ordered ``(node, succ, w)`` blocks with the
    ``(at, pred)`` pairs in ``at`` order and yields, per piece, the
    survivors and the removed nodes' ``(node, pred, succ, w)`` records
    — enough to splice and restore.  ``preds`` is closed once the
    blocks are spent."""
    try:
        for block in blocks:
            for start, stop in _pieces(block["node"], preds):
                piece = block[start:stop]
                nodes = piece["node"]
                index, in_set = preds.lookup(nodes)
                in_set &= _coins(nodes, salt)
                predecessors = preds.rows["pred"][index[in_set]] \
                    if in_set.any() else index[:0]
                keep = ~_coins(predecessors, salt)
                in_set[in_set] = keep
                gone = piece[in_set]
                side = np.empty(len(gone), _REMOVED)
                side["node"] = gone["node"]
                side["pred"] = predecessors[keep]
                side["succ"] = gone["succ"]
                side["w"] = gone["w"]
                yield piece[~in_set], side
    finally:
        preds.close()  # release the pull's reader frames eagerly


def _spliced(survivors: Iterable["np.ndarray"], removed: _Cursor
             ) -> Iterator["np.ndarray"]:
    """Stage 3: survivors in successor order whose successor was
    removed now point to the removed node's successor and absorb its
    weight.  ``removed`` (node order) is closed once the survivors are
    spent."""
    try:
        for segment in survivors:
            for start, stop in _pieces(segment["succ"], removed):
                patched = segment[start:stop].copy()
                successors = patched["succ"]
                index, spliced = removed.lookup(successors)
                spliced &= successors != _TAIL
                if spliced.any():
                    held = removed.rows[index[spliced]]
                    patched["succ"][spliced] = held["succ"]
                    patched["w"][spliced] += held["w"]
                yield patched
    finally:
        removed.close()


def _restored(removed: Iterable["np.ndarray"], ranks: _Cursor,
              info: _Cursor) -> Iterator["np.ndarray"]:
    """Stage 5: ``rank(removed) = rank(pred) + weight(pred at time of
    removal) = rank(pred) + (pred's contracted weight - removed node's
    own weight)``, as ``(node, rank)`` records.  ``removed`` comes in
    predecessor order; the ``ranks`` and contracted ``info`` cursors
    (node order) are closed once it is spent."""
    try:
        for segment in removed:
            for start, stop in _pieces(segment["pred"], ranks, info):
                piece = segment[start:stop]
                rank_at, rank_found = ranks.lookup(piece["pred"])
                info_at, info_found = info.lookup(piece["pred"])
                assert rank_found.all() and info_found.all()
                ranked = np.empty(len(piece), _RANK)
                ranked["node"] = piece["node"]
                ranked["rank"] = ranks.rows["rank"][rank_at] \
                    + (info.rows["w"][info_at] - piece["w"])
                yield ranked
    finally:
        ranks.close()
        info.close()


def _merged_by_node(a_iter: Iterator["np.ndarray"],
                    b_source: Callable[[], Iterator["np.ndarray"]]
                    ) -> Iterator["np.ndarray"]:
    """Stage 6: two node-sorted payload sources merged into node-sorted
    pieces, ``b``'s record first on a tie, as a record merge would:
    each side's held payload is emitted up to the other side's last
    key, and the side whose payload ran out is read next, where a
    record merge reads it.  ``b_source()`` opens the ``b`` side once
    ``a``'s scan holds its frame (a Sorter's pull is planned then)."""
    try:
        a = next(a_iter, None)
        b_iter = b_source()
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


def _rank_in_memory(machine: Machine, records: FileStream) -> FileStream:
    """Base case: the list fits in memory; walk it directly."""
    if len(records) > machine.M:
        raise MemoryLimitExceeded(
            len(records), machine.budget.in_use, machine.M)
    with machine.budget.reserve(len(records)):
        # em: ok(EM001) base case: ≤ M - 2B nodes, reserved above
        table = concat(list(records.iter_blocks())
                       or [np.empty(0, _NODE)])
        nodes = table["node"].tolist()
        successor = dict(zip(nodes, table["succ"].tolist()))
        weight = dict(zip(nodes, table["w"].tolist()))
        heads = successor.keys() - set(successor.values())
        if successor and len(heads) != 1:
            raise ConfigurationError(
                f"input is not a single linked list "
                f"(found {len(heads)} heads)"
            )
        ranks: Dict[int, int] = {}
        node, rank = next(iter(heads), _TAIL), 0
        while node != _TAIL:
            ranks[node] = rank
            rank += weight[node]
            node = successor[node]
        # em: ok(EM004) base case: ≤ M - 2B nodes, reserved above
        order = sorted(ranks)
        ranked = np.empty(len(order), _RANK)
        ranked["node"] = order
        ranked["rank"] = [ranks[node] for node in order]
        output = FileStream(machine, name="listrank/ranks")
        try:
            output.append_payload(ranked)
            return output.finalize()
        except BaseException:
            output.delete()
            raise
