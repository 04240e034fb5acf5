#!/usr/bin/env python
"""Toy-size benchmark smoke run for CI.

Runs the F1 (sort scaling) and F12 (parallel disks) experiments at small
sizes — seconds, not minutes — and writes a JSON summary so CI uploads a
machine-readable record of the runtime's scheduling quality per commit:

    python tools/bench_smoke.py [--output BENCH.json]

The JSON reports, per disk count, the parallel steps, total transfers,
and the steps/optimal ratio (optimal = ceil(transfers / D)) of the eager
striped sort and of the cooperative sort (``drive(merge_sort_steps)``);
both must stay within 1.5x of their step-optimal schedule, the same
bound the full F12 benchmark enforces.

A raw-speed record compares the key-pointer sort (typed payloads,
blockwise permutation) against the seed's record-object path — same
machine, same data, same simulated I/O schedule (asserted counter by
counter) — on both the in-memory and the real-file disk backends at
the F1 sizes, recording wall-clock for each and gating the in-memory
speedup at 2x (the file backend's shared syscall floor gets a 1.4x
sanity floor instead).

Two fault-layer records ride along: the transfer overhead of a
seeded-fault checkpointed sort over the clean sort (retries re-transfer
failed blocks, verification re-reads each pass), and the bench_f19
sequence-heap configuration (B=64, m=16, one caller-resident frame,
~32k queue operations, D=1 and D=4) that used to overflow the memory
budget — it must now complete with peak memory <= M and, once closed,
hold no frame and no block.

Two buffer-pool records cover the cached path: the pool hit rate of a
skewed B+-tree query workload (with the pool's frames charged to the
shared memory budget), and the transfer overhead of the same queries,
with an upsert on every 4th so pages go dirty, under a seeded fault
plan vs clean — torn write-backs must be scrubbed (``scrubs > 0``), and
retried cache misses and scrubbed write-backs must stay within the same
2.0x bound as the sort.

One analyzer record times the emlint pass — every tier (per-line
EM0xx, flow EM1xx, cost EM2xx, typestate EM3xx) over one shared project
build — on ``src/repro`` so regressions in analysis wall-time show up
per commit; the tree must also stay triaged (zero unwaived findings).

A multi-tenant service record runs the F24 chaos mix (OLTP point reads
interleaved with an OLAP sort) at smoke scale, asserting the
interleaved schedule beats the serial baseline on wall steps, each
tenant's memory peak stays within its fair share, and a fault plan
targeting OLAP blocks charges zero faults/stalls to the OLTP tenant.

A Sorter-tails record checks that a sort fitting one memoryload moves
no block at D = 1 and 4, and that a pull over a single run reads
``D``-wide (at most ``ceil(blocks / D) + 1`` read steps at D = 4).

A pipelining record runs the F25 fused-vs-materialized comparison at
smoke scale for all three refactored consumers (sort-merge join,
time-forward processing, list ranking), recording the fused/
materialized I/O ratio per consumer — fused must never lose — and
gates on the EM103 fusion baseline, counted from the same emlint pass:
no unwaived sort-then-scan boundary anywhere in ``src/repro``, and the
waived ones are exactly the F25 controls' sorts that one scan reads.
"""

import argparse
import functools
import json
import statistics
import sys
import time
from math import ceil
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import random  # noqa: E402

import numpy as np  # noqa: E402

from repro.core import (  # noqa: E402
    FileDiskArray,
    FileStream,
    Machine,
    StripedStream,
    sort_io,
)
from repro.faults import (  # noqa: E402
    FaultPlan,
    SortManifest,
    checkpointed_merge_sort,
)
from repro.pq import ExternalPriorityQueue  # noqa: E402
from repro.search import BPlusTree  # noqa: E402
from repro.core.intents import drive  # noqa: E402
from repro.core.exceptions import ConfigurationError  # noqa: E402
from repro.sort import (  # noqa: E402
    external_merge_sort,
    identity,
    merge_sort_steps,
)
from repro.sort.merge import plan_merge_arity  # noqa: E402
from repro.workloads import uniform_ints  # noqa: E402

# Toy sizes: ~10x smaller than benchmarks/bench_f1_* and bench_f12_*.
F1_B, F1_M_BLOCKS, F1_SIZES = 64, 8, (2_000, 8_000)
F12_B, F12_M_BLOCKS, F12_N = 32, 24, 4_608
RATIO_BOUND = 1.5
FAULT_B, FAULT_M_BLOCKS, FAULT_N = 32, 8, 6_000
FAULT_OVERHEAD_BOUND = 2.0
F19_B, F19_M_BLOCKS, F19_OPS = 64, 16, 32_000
F19_DISKS = (1, 4)
POOL_B, POOL_M_BLOCKS, POOL_N, POOL_QUERIES = 16, 8, 2_000, 1_500
POOL_FAULT_OVERHEAD_BOUND = 2.0
POOL_UPSERT_EVERY = 4  # faulted-query mix: dirty pages for torn writes
# Raw-speed gate: the key-pointer sort must beat the seed's
# record-object path by 2x wall-clock on the in-memory backend at every
# F1 size, with bit-identical simulated I/O.  The real-file backend adds
# the same syscall floor to both paths, compressing the ratio, so it
# carries a sanity floor rather than the full gate.  Each rep times the
# seed path and then the key-pointer path back to back, so both halves
# of a pair see the same host phase, and the gate takes the median of
# the paired ratios.  The largest size runs RAW_REPS pairs; smaller
# sizes run proportionally more (20 at n=2000), so every point times
# about as many records and a short burst of host noise cannot decide
# the gate.
RAW_REPS = 5
RAW_SPEEDUP_BOUND = 2.0
RAW_FILE_SPEEDUP_BOUND = 1.4


def f1_smoke():
    """Single-disk sort I/O vs the closed form, at two toy sizes."""
    points = []
    for n in F1_SIZES:
        machine = Machine(block_size=F1_B, memory_blocks=F1_M_BLOCKS)
        stream = FileStream.from_records(machine, uniform_ints(n, seed=2))
        machine.reset_stats()
        external_merge_sort(machine, stream)
        stats = machine.stats()
        theory = sort_io(n, machine.M, machine.B)
        assert 0.9 * theory <= stats.total <= theory
        points.append({
            "n": n,
            "transfers": stats.total,
            "steps": stats.total_steps,
            "theory": theory,
        })
    return {"name": "f1_sort_scaling", "B": F1_B,
            "M": F1_B * F1_M_BLOCKS, "points": points}


class LoserTree:
    """Merge ``k`` sorted iterators into one sorted iterator.

    Args:
        sources: sorted input iterators.
        key: key extraction function (defaults to identity).

    The tree keeps one *current* record per source plus ``k - 1`` internal
    loser slots; memory use is ``O(k)`` records.  Exhausted sources act as
    ``+infinity`` sentinels.  Ties are won by the lower source index,
    making the merge stable when earlier sources hold earlier records.
    """

    def __init__(
        self,
        sources: List[Iterator[Any]],
        key: Optional[Callable[[Any], Any]] = None,
    ):
        if not sources:
            raise ConfigurationError("LoserTree needs at least one source")
        self._key = key or identity
        self._k = len(sources)
        self._sources = sources
        self._records: List[Any] = [None] * self._k
        self._keys: List[Any] = [None] * self._k
        self._exhausted = [False] * self._k
        self._active = 0
        for index in range(self._k):
            self._fetch(index)
            if not self._exhausted[index]:
                self._active += 1
        # Internal loser slots 1..k-1; slot 0 holds the champion.
        self._tree = [-1] * max(1, self._k)
        if self._k == 1:
            self._tree[0] = 0
        else:
            for source in range(self._k):
                self._play_initial(source)

    # ------------------------------------------------------------------
    def _fetch(self, source: int) -> None:
        """Advance ``source`` to its next record (or mark it exhausted)."""
        try:
            record = next(self._sources[source])
        except StopIteration:
            self._records[source] = None
            self._keys[source] = None
            self._exhausted[source] = True
        else:
            self._records[source] = record
            self._keys[source] = self._key(record)

    def _beats(self, a: int, b: int) -> bool:
        """Whether source ``a``'s current record should be emitted before
        source ``b``'s (exhausted sources lose to everything)."""
        if self._exhausted[a]:
            return False
        if self._exhausted[b]:
            return True
        if self._keys[a] != self._keys[b]:
            return self._keys[a] < self._keys[b]
        return a < b  # stability: lower source index wins ties

    def _play_initial(self, source: int) -> None:
        """Insert a leaf during construction: walk up depositing the loser
        in the first empty slot, or the overall champion in slot 0."""
        node = (source + self._k) >> 1
        contender = source
        while node > 0:
            occupant = self._tree[node]
            if occupant == -1:
                self._tree[node] = contender
                return
            if self._beats(occupant, contender):
                self._tree[node], contender = contender, occupant
            node >>= 1
        self._tree[0] = contender

    def _replay(self, source: int) -> None:
        """After refilling ``source``, replay its path to the root."""
        node = (source + self._k) >> 1
        contender = source
        while node > 0:
            occupant = self._tree[node]
            if self._beats(occupant, contender):
                self._tree[node], contender = contender, occupant
            node >>= 1
        self._tree[0] = contender

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        return self

    def __next__(self) -> Any:
        if self._active == 0:
            raise StopIteration
        champion = self._tree[0]
        record = self._records[champion]
        self._fetch(champion)
        if self._exhausted[champion]:
            self._active -= 1
        if self._k > 1:
            self._replay(champion)
        return record


def _seed_record_sort(machine, stream):
    """The seed's record-object sort path, reconstructed verbatim.

    Memoryloads are sorted as Python lists of records, runs are written
    one ``append`` at a time, and merging feeds a loser tree record by
    record — every per-record cost the key-pointer refactor removed.
    Kept here as the wall-clock baseline; its simulated I/O schedule is
    identical to ``external_merge_sort``'s, which the caller asserts.
    """
    key = lambda r: r  # noqa: E731
    runs = []
    num_blocks = stream.num_blocks
    for start in range(0, num_blocks, machine.m):
        end = min(start + machine.m, num_blocks)
        chunk = list(stream.read_block_range(start, end))
        chunk.sort(key=key)  # em: ok(EM004) one m-block memoryload
        run = FileStream(machine, name=f"seedrun/{len(runs)}")
        for record in chunk:
            run.append(record)
        runs.append(run.finalize())
    while len(runs) > 1:
        arity = plan_merge_arity(machine, len(runs))
        next_runs = []
        for g in range(0, len(runs), arity):
            group = runs[g:g + arity]
            out = FileStream(machine, name=f"seedmerge/{len(next_runs)}")
            tree = LoserTree([iter(r) for r in group], key=key)
            for record in tree:
                out.append(record)
            next_runs.append(out.finalize())
            for run in group:
                run.delete()
        runs = next_runs
    return runs[0]


def _seed_path(machine, data, payload):
    """The seed's ingest (one append per record) and record sort."""
    return _seed_record_sort(machine, FileStream.from_records(machine, data))


def _key_pointer_path(machine, data, payload):
    """Block-copy ingest and the key-pointer sort."""
    return external_merge_sort(machine,
                               FileStream.from_payload(machine, payload))


def _timed_sort(path, backend, data, payload, reference):
    """Run one sort path on a fresh machine: ``(seconds, stats)``."""
    machine = _raw_machine(backend)
    start = time.perf_counter()
    out = path(machine, data, payload)
    elapsed = time.perf_counter() - start
    assert list(out) == reference
    stats = machine.stats()
    _raw_close(machine, backend)
    return elapsed, stats


def raw_speed_smoke():
    """Key-pointer sort vs the seed record-object path, both backends.

    Times the full pipeline — ingest plus sort — because the typed path
    earns its speed everywhere the record path pays per-record Python:
    ``from_payload`` block-copies what ``from_records`` appends one
    record at a time.  Every point asserts the two paths produce the
    same sorted output through the exact same simulated I/O schedule
    (whole-counter equality), so the wall-clock ratio measures constant
    factors only, never a different algorithm.
    """
    points = []
    for n in F1_SIZES:
        data = uniform_ints(n, seed=2)
        payload = np.asarray(data, dtype=np.int64)
        reference = sorted(data)
        reps = RAW_REPS * max(F1_SIZES) // n
        for backend in ("memory", "file"):
            seed_walls, kp_walls, ratios = [], [], []
            for _ in range(reps):
                seed_wall, seed_stats = _timed_sort(
                    _seed_path, backend, data, payload, reference)
                kp_wall, kp_stats = _timed_sort(
                    _key_pointer_path, backend, data, payload, reference)
                assert seed_stats == kp_stats, (
                    f"n={n} {backend}: simulated I/O diverged — "
                    f"seed {seed_stats} vs key-pointer {kp_stats}"
                )
                seed_walls.append(seed_wall)
                kp_walls.append(kp_wall)
                ratios.append(seed_wall / kp_wall)
            ratio = statistics.median(ratios)
            seed_wall = statistics.median(seed_walls)
            kp_wall = statistics.median(kp_walls)
            bound = (RAW_SPEEDUP_BOUND if backend == "memory"
                     else RAW_FILE_SPEEDUP_BOUND)
            assert ratio >= bound, (
                f"n={n} {backend}: key-pointer sort only "
                f"{ratio:.2f}x faster than the record path "
                f"(median of {reps} pairs; {kp_wall * 1e3:.1f}ms vs "
                f"{seed_wall * 1e3:.1f}ms), bound {bound}x"
            )
            points.append({
                "n": n,
                "backend": backend,
                "reps": reps,
                "seed_ms": round(seed_wall * 1e3, 2),
                "key_pointer_ms": round(kp_wall * 1e3, 2),
                "speedup": round(ratio, 2),
                "transfers": kp_stats.total,
                "steps": kp_stats.total_steps,
            })
    return {"name": "raw_speed_sort", "B": F1_B,
            "M": F1_B * F1_M_BLOCKS,
            "memory_bound": RAW_SPEEDUP_BOUND,
            "file_bound": RAW_FILE_SPEEDUP_BOUND, "points": points}


def _raw_machine(backend):
    if backend == "memory":
        return Machine(block_size=F1_B, memory_blocks=F1_M_BLOCKS)
    return Machine(block_size=F1_B, memory_blocks=F1_M_BLOCKS,
                   disk=FileDiskArray(F1_B))


def _raw_close(machine, backend):
    if backend == "file":
        machine.disk.close()


def f12_smoke():
    """Scheduled sort steps vs ceil(transfers/D) per disk count, for the
    eager striped sort and the cooperative sort under ``drive`` — the
    same phase generators, so both stay within the same bound."""
    points = []
    for driver in ("eager", "cooperative"):
        for num_disks in (1, 2, 4, 8):
            machine = Machine(block_size=F12_B, memory_blocks=F12_M_BLOCKS,
                              num_disks=num_disks)
            data = uniform_ints(F12_N, seed=13)
            if driver == "eager":
                stream = StripedStream.from_records(machine, data)
                machine.reset_stats()
                result = external_merge_sort(machine, stream,
                                             stream_cls=StripedStream)
            else:
                stream = FileStream.from_records(machine, data)
                machine.reset_stats()
                result = drive(machine, merge_sort_steps(machine, stream))
            stats = machine.stats()
            assert len(result) == F12_N
            optimal = ceil(stats.total / num_disks)
            ratio = stats.total_steps / optimal
            assert ratio <= RATIO_BOUND, (
                f"{driver} D={num_disks}: {stats.total_steps} steps vs "
                f"{optimal} optimal (ratio {ratio:.3f})"
            )
            points.append({
                "driver": driver,
                "num_disks": num_disks,
                "transfers": stats.total,
                "steps": stats.total_steps,
                "steps_optimal": optimal,
                "steps_over_optimal": round(ratio, 4),
            })
    return {"name": "f12_parallel_disks", "B": F12_B,
            "M": F12_B * F12_M_BLOCKS, "n": F12_N,
            "ratio_bound": RATIO_BOUND, "points": points}


def faulted_sort_smoke():
    """Transfer overhead of a seeded-fault checkpointed sort vs clean."""
    data = uniform_ints(FAULT_N, seed=5)

    clean = Machine(block_size=FAULT_B, memory_blocks=FAULT_M_BLOCKS)
    stream = FileStream.from_records(clean, data)
    clean.reset_stats()
    reference = list(external_merge_sort(clean, stream))
    clean_stats = clean.stats()

    faulty = Machine(block_size=FAULT_B, memory_blocks=FAULT_M_BLOCKS)
    stream = FileStream.from_records(faulty, data)
    faulty.reset_stats()
    plan = FaultPlan(seed=7, read_error_rate=0.01, write_error_rate=0.005,
                     torn_writes={40})
    with faulty.inject_faults(plan):
        result = list(checkpointed_merge_sort(
            faulty, stream, SortManifest(), verify_outputs=True
        ))
    assert result == reference
    stats = faulty.stats()
    overhead = stats.total / clean_stats.total
    assert overhead <= FAULT_OVERHEAD_BOUND, (
        f"faulted sort {stats.total} transfers vs clean "
        f"{clean_stats.total} (overhead {overhead:.3f})"
    )
    return {"name": "faulted_sort_overhead", "B": FAULT_B,
            "M": FAULT_B * FAULT_M_BLOCKS, "n": FAULT_N,
            "overhead_bound": FAULT_OVERHEAD_BOUND,
            "points": [{
                "clean_transfers": clean_stats.total,
                "faulted_transfers": stats.total,
                "faults": stats.faults,
                "retries": stats.retries,
                "stall_steps": stats.stall_steps,
                "overhead": round(overhead, 4),
            }]}


def f19_pq_budget_smoke():
    """The bench_f19 sequence-heap configuration that used to overflow:
    run proliferation now triggers early merges and peak stays <= M, at
    one disk and at four, with the same transfers at both.  After
    ``close()`` the queue must have handed back every frame and every
    block it took."""
    points = []
    for disks in F19_DISKS:
        machine = Machine(block_size=F19_B, memory_blocks=F19_M_BLOCKS,
                          num_disks=disks)
        machine.budget.acquire(F19_B)  # caller-resident frame (sssp table)
        in_use = machine.budget.in_use
        allocated = machine.disk.allocated_blocks
        rng = random.Random(20)
        machine.reset_stats()
        with ExternalPriorityQueue(machine) as queue:
            pending = 0
            for op in range(F19_OPS):
                queue.insert(rng.randrange(10**6), op)
                pending += 1
                if op % 5 == 4:
                    queue.delete_min()
                    pending -= 1
            drained = [queue.delete_min()[0] for _ in range(pending)]
        assert drained == sorted(drained)
        stats = machine.stats()
        peak = machine.budget.peak
        assert peak <= machine.M, \
            f"D={disks}: peak {peak} exceeds M={machine.M}"
        assert machine.budget.in_use == in_use, \
            f"D={disks}: queue kept {machine.budget.in_use - in_use} records"
        assert machine.disk.allocated_blocks == allocated, (
            f"D={disks}: queue kept "
            f"{machine.disk.allocated_blocks - allocated} blocks")
        machine.budget.release(F19_B)
        points.append({
            "disks": disks,
            "transfers": stats.total,
            "steps": stats.total_steps,
            "peak_memory": peak,
            "memory_capacity": machine.M,
        })
    # More disks only pack the same transfers into fewer steps: a run
    # reader whose staging pins count against the budget would make
    # the queue merge levels early, and the D=4 point would move more.
    by_disks = {point["disks"]: point["transfers"] for point in points}
    assert by_disks[4] == by_disks[1], (
        f"D=4 sequence heap moved {by_disks[4]} blocks, "
        f"D=1 moved {by_disks[1]}")
    return {"name": "f19_pq_frame_budget", "B": F19_B,
            "M": F19_B * F19_M_BLOCKS, "ops": F19_OPS, "points": points}


def _btree_query_workload(machine, tree, seed=3, upsert_every=0):
    """A skewed point-query mix: 80% of queries land in one hot
    contiguous run of 100 keys (a few leaves), the rest uniform.  With
    ``upsert_every``, every such query first re-inserts its key (same
    value), dirtying the leaf."""
    rng = random.Random(seed)
    base = rng.randrange(POOL_N - 100)
    hot = list(range(base, base + 100))
    for query in range(POOL_QUERIES):
        key = rng.choice(hot) if rng.random() < 0.8 \
            else rng.randrange(POOL_N)
        if upsert_every and query % upsert_every == 0:
            tree.insert(key, key * 3)
        value = tree.get(key)
        assert value == key * 3


def _build_query_tree(machine):
    tree = BPlusTree(machine)
    for key in range(POOL_N):
        tree.insert(key, key * 3)
    machine.pool.flush_all()
    machine.pool.drop_all()
    return tree


def pool_hit_rate_smoke():
    """Pool hit rate of the skewed query mix, with the pool's frames
    charged to the shared memory budget."""
    machine = Machine(block_size=POOL_B, memory_blocks=POOL_M_BLOCKS)
    tree = _build_query_tree(machine)
    machine.reset_stats()
    hits0, misses0 = machine.pool.hits, machine.pool.misses
    _btree_query_workload(machine, tree)
    stats = machine.stats()
    hits = machine.pool.hits - hits0
    misses = machine.pool.misses - misses0
    hit_rate = hits / max(1, hits + misses)
    assert hit_rate > 0.5, f"hit rate {hit_rate:.3f} too low for skew"
    assert machine.budget.reclaimable == \
        machine.pool.resident_count * machine.B
    assert machine.budget.occupancy <= machine.M
    return {"name": "pool_hit_rate", "B": POOL_B,
            "M": POOL_B * POOL_M_BLOCKS, "n": POOL_N,
            "queries": POOL_QUERIES,
            "points": [{
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hit_rate, 4),
                "reads": stats.reads,
                "budget_reclaimable": machine.budget.reclaimable,
                "budget_occupancy": machine.budget.occupancy,
            }]}


def faulted_query_smoke():
    """Transfer overhead of the cached query workload, with upserts so
    write-backs happen, under a seeded fault plan (retried misses +
    scrubbed torn write-backs) vs clean."""
    clean = Machine(block_size=POOL_B, memory_blocks=POOL_M_BLOCKS)
    tree = _build_query_tree(clean)
    clean.reset_stats()
    _btree_query_workload(clean, tree, upsert_every=POOL_UPSERT_EVERY)
    clean.pool.flush_all()
    clean_stats = clean.stats()

    faulty = Machine(block_size=POOL_B, memory_blocks=POOL_M_BLOCKS)
    tree = _build_query_tree(faulty)
    faulty.reset_stats()
    plan = FaultPlan(seed=17, read_error_rate=0.05, torn_write_rate=0.02)
    with faulty.inject_faults(plan):
        _btree_query_workload(faulty, tree,
                              upsert_every=POOL_UPSERT_EVERY)
        faulty.pool.flush_all()
    stats = faulty.stats()
    assert stats.retries > 0
    assert faulty.pool.scrubs > 0, "no torn write-back was scrubbed"
    overhead = stats.total / max(1, clean_stats.total)
    assert overhead <= POOL_FAULT_OVERHEAD_BOUND, (
        f"faulted queries {stats.total} transfers vs clean "
        f"{clean_stats.total} (overhead {overhead:.3f})"
    )
    return {"name": "faulted_query_overhead", "B": POOL_B,
            "M": POOL_B * POOL_M_BLOCKS, "n": POOL_N,
            "queries": POOL_QUERIES, "upsert_every": POOL_UPSERT_EVERY,
            "overhead_bound": POOL_FAULT_OVERHEAD_BOUND,
            "points": [{
                "clean_transfers": clean_stats.total,
                "faulted_transfers": stats.total,
                "faults": stats.faults,
                "retries": stats.retries,
                "stall_steps": stats.stall_steps,
                "scrubs": faulty.pool.scrubs,
                "overhead": round(overhead, 4),
            }]}


@functools.lru_cache(maxsize=None)
def _tree_lint():
    """One emlint pass over ``src/repro``: (findings, wall seconds)."""
    from repro.analysis import lint_paths

    start = time.perf_counter()
    findings = lint_paths([str(Path(__file__).resolve().parent.parent
                               / "src" / "repro")])
    return findings, time.perf_counter() - start


def analyzer_smoke():
    """Wall-time of the emlint pass over ``src/repro``, plus the
    finding counts — the tree must stay triaged (zero unwaived)."""
    findings, elapsed = _tree_lint()
    unwaived = sum(1 for f in findings if not f.waived)
    assert unwaived == 0, (
        f"{unwaived} unwaived finding(s) in src/repro"
    )
    return {"name": "analyzer", "target": "src/repro",
            "points": [{
                "wall_time_s": round(elapsed, 4),
                "unwaived": unwaived,
                "waived": len(findings) - unwaived,
            }]}


SORTER_B, SORTER_M_BLOCKS = 64, 32


def sorter_tails_smoke():
    """The pipelined Sorter's tails: a sort that fits one memoryload is
    served from memory with zero transfers at D = 1 and 4, and a pull
    over a single run reads D-wide at D = 4 (at most ceil(blocks / 4)
    + 1 read steps)."""
    from repro.pipeline import Sorter
    from repro.sort.runs import memoryload_blocks

    points = []
    for disks in (1, 4):
        machine = Machine(block_size=SORTER_B, memory_blocks=SORTER_M_BLOCKS,
                          num_disks=disks)
        data = uniform_ints(SORTER_B * SORTER_M_BLOCKS // 2, seed=5)
        with machine.measure() as io:
            with Sorter(machine) as sorter:
                sorter.consume(data)
                assert list(sorter) == sorted(data)
        assert io.total == 0, (
            f"D={disks}: a one-memoryload sort moved {io.total} blocks")
        points.append({"case": "one_memoryload", "D": disks,
                       "records": len(data), "transfers": io.total})

    # A full memoryload is spilled as one run by the record after it,
    # which stays in memory: the pull reads that run alone.
    machine = Machine(block_size=SORTER_B, memory_blocks=SORTER_M_BLOCKS,
                      num_disks=4)
    blocks = memoryload_blocks(machine, machine.M)
    data = uniform_ints(blocks * SORTER_B + 1, seed=6)
    with Sorter(machine) as sorter:
        sorter.consume(data)
        pull = sorter.finish()
        with machine.measure() as io:
            assert list(pull) == sorted(data)
    bound = -(-blocks // 4) + 1
    assert io.reads == blocks and io.read_steps <= bound, (
        f"one-run pull of {blocks} blocks took {io.read_steps} read "
        f"steps for {io.reads} reads (bound {bound})")
    points.append({"case": "one_run_pull", "D": 4, "blocks": blocks,
                   "read_steps": io.read_steps, "bound": bound})
    return {"name": "sorter_tails", "B": SORTER_B,
            "M": SORTER_B * SORTER_M_BLOCKS, "points": points}


PIPE_B, PIPE_M_BLOCKS = 64, 48
PIPE_JOIN_N, PIPE_TFP_N, PIPE_LISTRANK_N = 8_000, 4_000, 8_000
#: the one EM103 waiver reason allowed: the F25 materialized controls
EM103_CONTROL = "materialized control for F25/parity"
#: the control sorts that one scan reads: time-forward's sort, and
#: list ranking's ``by_succ``, ``by_pred`` and ``preds`` (sorted by
#: the helper ``_sorted_on_disk``).  List ranking's other control sorts
#: are read more than once or handed on, and the join control drives
#: the cooperative join
EM103_CONTROLS = 4


def pipeline_smoke():
    """F25 at smoke scale: fused vs materialized I/O per consumer, the
    same answer both ways, and the EM103 fusion baseline (no unwaived
    sort-then-scan boundary; the waived ones are exactly the F25
    controls)."""
    from repro.graph import (
        list_ranking,
        list_ranking_materialized,
        time_forward_process,
        time_forward_process_materialized,
    )
    from repro.relational import (
        Table,
        sort_merge_join,
        sort_merge_join_materialized,
    )
    from repro.workloads import foreign_key_relations, random_linked_list

    def pipe_machine():
        return Machine(block_size=PIPE_B, memory_blocks=PIPE_M_BLOCKS)

    def join_io(fused):
        build, probe = foreign_key_relations(
            PIPE_JOIN_N // 20, PIPE_JOIN_N, seed=41
        )
        machine = pipe_machine()
        left = Table.from_rows(machine, ("k", "b"), build, name="build")
        right = Table.from_rows(machine, ("k", "p"), probe, name="probe")
        join = sort_merge_join if fused else sort_merge_join_materialized
        with machine.measure() as io:
            out = join(left, right, "k", "k", name="out")
        rows = list(out.rows())
        out.delete()
        return io.total, rows

    def tfp_io(fused):
        rng = random.Random(42)
        edges = sorted(
            {(u, rng.randrange(u + 1, PIPE_TFP_N))
             for u in (rng.randrange(PIPE_TFP_N - 1)
                       for _ in range(4 * PIPE_TFP_N))}
        )
        machine = pipe_machine()
        run = time_forward_process if fused \
            else time_forward_process_materialized
        with machine.measure() as io:
            values = run(machine, PIPE_TFP_N, iter(edges),
                         lambda v, incoming: len(incoming))
        return io.total, values

    def listrank_io(fused):
        pairs = random_linked_list(PIPE_LISTRANK_N, seed=43)
        machine = pipe_machine()
        run = list_ranking if fused else list_ranking_materialized
        with machine.measure() as io:
            ranks = run(machine, pairs, seed=44)
        return io.total, ranks

    points = []
    for consumer, runner in (("join", join_io),
                             ("time_forward", tfp_io),
                             ("list_ranking", listrank_io)):
        (fused, answer), (materialized, control) = runner(True), runner(False)
        assert answer == control, (
            f"{consumer}: the fused and materialized outputs differ")
        ratio = fused / materialized
        assert fused < materialized, (
            f"{consumer}: fused {fused} I/Os vs materialized "
            f"{materialized} — fusion must win on this geometry"
        )
        points.append({
            "consumer": consumer,
            "fused_io": fused,
            "materialized_io": materialized,
            "fused_over_materialized": round(ratio, 4),
        })

    em103 = [f for f in _tree_lint()[0] if f.rule == "EM103"]
    unwaived = sum(1 for f in em103 if not f.waived)
    assert unwaived == 0, (
        f"{unwaived} unwaived EM103 sort-then-scan boundary(ies) in "
        "src/repro"
    )
    others = [f"{f.path}:{f.line}" for f in em103
              if f.waiver_reason != EM103_CONTROL]
    assert not others and len(em103) == EM103_CONTROLS, (
        f"EM103 waivers must be the {EM103_CONTROLS} F25 controls; "
        f"found {len(em103)}, other than controls: {others}"
    )
    points.append({
        "consumer": "(em103_gate)",
        "unwaived": unwaived,
        "waived": len(em103) - unwaived,
    })
    return {"name": "f25_pipelining", "B": PIPE_B,
            "M": PIPE_B * PIPE_M_BLOCKS,
            "join_n": PIPE_JOIN_N, "tfp_n": PIPE_TFP_N,
            "listrank_n": PIPE_LISTRANK_N, "points": points}


SVC_B, SVC_M_BLOCKS, SVC_DISKS = 16, 16, 4
SVC_TREE_N, SVC_SORT_N, SVC_LOOKUPS = 1_200, 900, 24


def _service_run(max_running=None, faulted=False):
    from repro.service import QueryService, btree_lookup_job, sort_job

    machine = Machine(block_size=SVC_B, memory_blocks=SVC_M_BLOCKS,
                      num_disks=SVC_DISKS)
    tree = BPlusTree.bulk_load(
        machine, ((i, i) for i in range(SVC_TREE_N))
    )
    rng = random.Random(3)
    sort_in = FileStream.from_records(
        machine,
        [rng.randrange(10 * SVC_SORT_N) for _ in range(SVC_SORT_N)],
        name="olap/in",
    )
    machine.pool.flush_all()
    machine.runtime.flush()
    machine.reset_stats()
    service = QueryService(machine, max_running=max_running)
    oltp = service.add_tenant("oltp", weight=1, max_running=8)
    olap = service.add_tenant("olap", weight=2, max_running=1)
    picker = random.Random(5)
    for _ in range(SVC_LOOKUPS):
        service.submit("oltp", btree_lookup_job(
            tree, picker.randrange(SVC_TREE_N)
        ))
    service.submit("olap", sort_job(machine, sort_in, name="bigsort"))
    if faulted:
        victim = list(sort_in.block_ids)[0]
        plan = FaultPlan(seed=11, fail_block_reads={victim: 2})
        with machine.inject_faults(plan):
            summary = service.run()
    else:
        summary = service.run()
    for tenant in (oltp, olap):
        assert tenant.share.peak <= tenant.share.capacity, (
            f"{tenant.name}: peak {tenant.share.peak} exceeds "
            f"share {tenant.share.capacity}"
        )
        assert tenant.metrics.failed == 0, (
            f"{tenant.name}: {tenant.metrics.failed} job(s) failed")
    return summary


def service_smoke():
    """F24 at smoke scale: interleaved vs serial wall steps, fair-share
    peaks, and per-tenant fault isolation."""
    interleaved = _service_run()
    serial = _service_run(max_running=1)
    faulted = _service_run(faulted=True)
    assert (interleaved["total_wall_steps"]
            < serial["total_wall_steps"]), (
        f"interleaved {interleaved['total_wall_steps']} wall steps vs "
        f"serial {serial['total_wall_steps']}"
    )
    oltp = faulted["tenants"]["oltp"]
    olap = faulted["tenants"]["olap"]
    assert oltp["faults"] == 0 and oltp["stall_steps"] == 0
    assert olap["faults"] > 0 and olap["stall_steps"] > 0
    points = []
    for label, run in (("interleaved", interleaved),
                       ("serial", serial), ("faulted", faulted)):
        for name, row in sorted(run["tenants"].items()):
            points.append({
                "schedule": label,
                "tenant": name,
                "completed": row["completed"],
                "io_steps": row["io_steps"],
                "stall_steps": row["stall_steps"],
                "p50_io": row["p50_io"],
                "p99_io": row["p99_io"],
                "p50_wall": row["p50_wall"],
                "p99_wall": row["p99_wall"],
            })
        points.append({
            "schedule": label,
            "tenant": "(total)",
            "io_steps": run["total_io_steps"],
            "stall_steps": run["total_stall_steps"],
            "wall_steps": run["total_wall_steps"],
        })
    return {"name": "f24_service", "B": SVC_B,
            "M": SVC_B * SVC_M_BLOCKS, "D": SVC_DISKS,
            "lookups": SVC_LOOKUPS, "sort_n": SVC_SORT_N,
            "points": points}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH.json",
                        help="path of the JSON summary (default: %(default)s)")
    args = parser.parse_args(argv)
    summary = {"benchmarks": [f1_smoke(), raw_speed_smoke(), f12_smoke(),
                              faulted_sort_smoke(), f19_pq_budget_smoke(),
                              pool_hit_rate_smoke(),
                              faulted_query_smoke(),
                              analyzer_smoke(), service_smoke(),
                              sorter_tails_smoke(), pipeline_smoke()]}
    with open(args.output, "w") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    for bench in summary["benchmarks"]:
        print(f"{bench['name']}:")
        for point in bench["points"]:
            print("  " + ", ".join(f"{k}={v}" for k, v in point.items()))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
