"""The five end-to-end workloads.

Each workload builds its inputs from the seed, sets up a machine
(timed as ``setup_s``), and then runs *units* of work: one sort and the
read-back of its output, one batch of key-value operations, one service
session, one join plus list ranking.  A unit's output is checked
against an in-RAM reference before the next unit starts.

``unit(state, call, wrap_gen, now)`` returns the unit's output and its
timed steps: for each kind of step (``"sort"``, ``"get"``, ...), the
start and end times read from ``now()``.  ``call(layer, name, fn,
*args)`` runs the unit's top-level calls (plain calls, or root spans
when tracing) and ``wrap_gen`` wraps service job generators (identity,
or a proxy timing each ``send``).

``latency`` names the step kind and percentile behind each gated
latency slot.  A request workload (``btree_file_rw``, ``oltp_olap_mix``)
pools one request kind over the whole run for p50 and p99.  A batch
workload has about ten units per run, too few for a p99, so its two
slots carry the median times of its two steps.

Sizes are the full-scale ones; ``scale`` shrinks every input size (the
smoke test runs at ``0.01``).
"""

from __future__ import annotations

import os
import statistics
from math import ceil

import numpy as np

from repro import Machine
from repro.core.filedisk import FileDiskArray
from repro.core.stream import FileStream, StripedStream
from repro.graph.list_ranking import list_ranking
from repro.relational.joins import sort_merge_join
from repro.relational.table import Table
from repro.search.btree import BPlusTree
from repro.service import QueryService, btree_lookup_job, sort_job
from repro.sort.merge import external_merge_sort
from repro.workloads import foreign_key_relations, random_linked_list

from e2e_clock import Steps


def nearest_rank(values, pct):
    """The nearest-rank ``pct``-th percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def pooled(units, kind):
    """The steps of one kind across every unit of a run."""
    steps = Steps()
    for _, _, unit_steps in units:
        steps.extend(unit_steps[kind])
    return steps


def _median_wall(units, kind):
    return float(np.median(pooled(units, kind).walls()))


def _scaled(size, scale, floor):
    return max(floor, int(size * scale))


def _stream_payload(machine, stream):
    """A stream's records as one array, read without charging I/O."""
    blocks = [np.asarray(machine.disk.peek(block_id))
              for block_id in stream.block_ids]
    return np.concatenate(blocks) if blocks else np.empty(0, np.int64)


class _State:
    def __init__(self, machine, **fields):
        self.machine = machine
        self.__dict__.update(fields)


class _Workload:
    """Common shape; subclasses fill in set-up, units, and checks."""

    name = ""
    #: a fresh machine and input per unit (the unit mutates nothing
    #: else); otherwise one set-up serves every unit.
    fresh_per_unit = False
    #: gated latency slot -> (step kind, nearest-rank percentile).
    latency = {}
    #: raw-span sampling for the trace: every ``root_every``-th root,
    #: every ``child_every``-th child subtree of a kept root (0: all),
    #: and whether to sample beyond the first traced unit.
    root_every, child_every, sample_every_unit = 1, 0, False
    #: layers (or ``layer.name`` spans) that must / must not fire
    #: inside the traced units — a wrapper at the wrong name fails here.
    expect_fire = ()
    expect_silent = ()

    def __init__(self, scratch):
        self.scratch = scratch

    def _file_disk(self, block_size, num_disks):
        path = os.path.join(self.scratch, f"{self.name}.blocks")
        return FileDiskArray(block_size, num_disks, path=path)

    def close(self, state):
        close = getattr(state.machine.disk, "close", None)
        if close is not None:
            close(remove=True)

    def release(self, state, output):
        """Free a unit's output once it is checked."""

    def finish(self, state):
        """Final whole-state check; ``(attempted, failed)``."""
        return 0, 0

    def user_bytes(self, state, output):
        """Live payload bytes after a unit (0: not a file backend)."""
        return 0

    def service_counts(self, output):
        return {"rounds": 0, "oltp_p50_steps": 0, "oltp_p99_steps": 0}

    def details(self, units):
        """The workload's own metrics in wall-clock units, from
        ``units`` = ``[(start, end, steps), ...]``; printed, not gated."""
        return {}


# ----------------------------------------------------------------------
# external merge sort, memory and file backends
# ----------------------------------------------------------------------
def _read_blocks(stream):
    return list(stream.iter_blocks())


class SortWorkload(_Workload):
    fresh_per_unit = True
    latency = {"latency_p50_ref": ("sort", 50),
               "latency_p99_ref": ("read", 50)}
    B, M_BLOCKS = 256, 32

    def __init__(self, seed, scale, scratch, name, num_disks, on_file):
        super().__init__(scratch)
        self.name = name
        self.num_disks = num_disks
        self.on_file = on_file
        self.stream_cls = StripedStream if num_disks > 1 else FileStream
        self.n = _scaled(2_000_000, scale, 8192)
        info = np.iinfo(np.int64)
        rng = np.random.default_rng(seed)
        self.data = rng.integers(info.min, info.max, size=self.n,
                                 dtype=np.int64)
        self.reference = np.sort(self.data)
        self.expect_fire = ("kernel.run_formation", "kernel.merge",
                            "stream", "runtime", "device")
        self.expect_silent = ("pool", "service")
        if on_file:
            self.expect_fire += ("device.codec",)
        else:
            self.expect_silent += ("device.codec",)

    def setup(self):
        disk = (self._file_disk(self.B, self.num_disks) if self.on_file
                else None)
        machine = Machine(self.B, self.M_BLOCKS, self.num_disks, disk=disk)
        stream = self.stream_cls.from_payload(machine, self.data,
                                              name="input")
        return _State(machine, stream=stream)

    def unit(self, state, call, wrap_gen, now):
        start = now()
        out = call("kernel", "external_merge_sort", external_merge_sort,
                   state.machine, state.stream, stream_cls=self.stream_cls)
        middle = now()
        # The user reads the sorted output back: the scan path (read-ahead
        # waves, device reads, decoding) rather than the sort's.
        blocks = call("kernel", "read_output", _read_blocks, out)
        end = now()
        steps = {"sort": Steps(), "read": Steps()}
        steps["sort"].add(start, middle)
        steps["read"].add(middle, end)
        return (out, blocks), steps

    def check(self, state, output):
        _, blocks = output
        got = np.concatenate(blocks) if blocks else np.empty(0, np.int64)
        return 1, int(not np.array_equal(got, self.reference))

    def user_bytes(self, state, output):
        return (len(state.stream) + len(output[0])) * 8

    def details(self, units):
        return {"sort_mrec_s":
                (self.n / _median_wall(units, "sort") / 1e6, "Mrec/s")}


# ----------------------------------------------------------------------
# B+-tree on the file backend: closed loop, 90% get / 10% insert
# ----------------------------------------------------------------------
class BTreeWorkload(_Workload):
    name = "btree_file_rw"
    latency = {"latency_p50_ref": ("get", 50),
               "latency_p99_ref": ("get", 99)}
    root_every = 100
    sample_every_unit = True
    expect_fire = ("kernel.get", "kernel.insert", "pool", "runtime",
                   "device", "device.codec")
    expect_silent = ("service", "kernel.run_formation", "kernel.merge")
    B, M_BLOCKS = 64, 64
    ZIPF, INSERT_SHARE = 1.1, 0.1

    def __init__(self, seed, scale, scratch):
        super().__init__(scratch)
        self.keys = _scaled(200_000, scale, 2000)
        self.batch = _scaled(10_000, scale, 200)
        self.rng = np.random.default_rng(seed)
        space = 2 * self.keys
        weights = np.arange(1, space + 1, dtype=np.float64) ** -self.ZIPF
        self.cdf = np.cumsum(weights) / weights.sum()
        # Zipf over ranks, scattered over the key space by a permutation;
        # even keys are bulk-loaded, odd ones arrive by insert.
        self.rank_to_key = self.rng.permutation(space)
        self.insert_order = self.rng.permutation(self.keys) * 2 + 1

    def setup(self):
        machine = Machine(self.B, self.M_BLOCKS, 1,
                          disk=self._file_disk(self.B, 1))
        tree = BPlusTree.bulk_load(
            machine, ((2 * i, 6 * i) for i in range(self.keys)))
        machine.pool.flush_all()
        machine.runtime.flush()
        return _State(machine, tree=tree, inserted=set())

    def _insert_key(self, index):
        if index < self.keys:
            return int(self.insert_order[index])
        return 2 * self.keys + 2 * (index - self.keys) + 1

    def _expected(self, state, key):
        loaded = key % 2 == 0 and key < 2 * self.keys
        return 3 * key if loaded or key in state.inserted else None

    def unit(self, state, call, wrap_gen, now):
        ranks = np.searchsorted(self.cdf, self.rng.random(self.batch))
        keys = self.rank_to_key[np.minimum(ranks, len(self.cdf) - 1)]
        inserts = self.rng.random(self.batch) < self.INSERT_SHARE
        tree = state.tree
        gets, puts = Steps(), Steps()
        wrong = 0
        for key, is_insert in zip(keys.tolist(), inserts.tolist()):
            if is_insert:
                key = self._insert_key(len(state.inserted))
                start = now()
                call("kernel", "insert", tree.insert, key, 3 * key)
                puts.add(start, now())
                state.inserted.add(key)
            else:
                start = now()
                value = call("kernel", "get", tree.get, key)
                gets.add(start, now())
                wrong += value != self._expected(state, key)
        return wrong, {"get": gets, "insert": puts}

    def check(self, state, wrong):
        return self.batch, wrong

    def finish(self, state):
        """Every loaded and inserted key, in order, with its value."""
        expected_count = self.keys + len(state.inserted)
        seen = wrong = 0
        previous = None
        for key, value in state.tree.items():
            seen += 1
            if (previous is not None and key <= previous) \
                    or value != self._expected(state, key):
                wrong += 1
            previous = key
        return 1, int(wrong > 0 or seen != expected_count)

    def user_bytes(self, state, output):
        # A key and a value, each an 8-byte integer.
        return (self.keys + len(state.inserted)) * 16

    def details(self, units):
        walls = [end - start for start, end, _ in units]
        metrics = {"kv_ops_s": (self.batch / statistics.median(walls),
                                "ops/s")}
        for op in ("get", "insert"):
            latencies = pooled(units, op).walls()
            for pct in (50, 99):
                metrics[f"{op}_p{pct}_us"] = (
                    nearest_rank(latencies, pct) * 1e6, "us")
        return metrics


# ----------------------------------------------------------------------
# multi-tenant service: OLTP lookups beside an OLAP sort
# ----------------------------------------------------------------------
class _Session:
    """One service session: an OLAP client running one sort while
    ``clients`` OLTP clients each submit their next lookup as soon as
    the previous one returns (a closed loop).  The session ends when
    the sort finishes and the lookups in flight drain."""

    def __init__(self, workload, state, wrap_gen, now):
        self.workload = workload
        self.state = state
        self.wrap_gen = wrap_gen
        self.now = now
        self.service = QueryService(state.machine)
        self.service.add_tenant("oltp", weight=1,
                                max_running=workload.CLIENTS)
        self.service.add_tenant("olap", weight=2, max_running=1)
        self.lookups = Steps()
        self.wrong = 0
        self.sorted = None
        self._keys = []

    def _next_key(self):
        if not self._keys:
            self._keys = self.workload.rng.integers(
                0, self.workload.TREE_KEYS, size=4096).tolist()
        return self._keys.pop()

    def submit_lookup(self):
        key = self._next_key()
        job = btree_lookup_job(self.state.tree, key)
        make = job.make
        submitted = self.now()
        job.make = lambda budget: self.wrap_gen(
            self._lookup(make(budget), key, submitted))
        self.service.submit("oltp", job)

    def _lookup(self, gen, key, submitted):
        value = yield from gen
        self.lookups.add(submitted, self.now())
        self.wrong += value != 3 * key
        if self.sorted is None:
            self.submit_lookup()
        return value

    def submit_sort(self):
        job = sort_job(self.state.machine, self.state.stream, name="olap")
        make = job.make
        job.make = lambda budget: self.wrap_gen(self._sort(make(budget)))
        self.service.submit("olap", job)

    def _sort(self, gen):
        self.sorted = yield from gen
        return self.sorted


class MixWorkload(_Workload):
    name = "oltp_olap_mix"
    latency = {"latency_p50_ref": ("lookup", 50),
               "latency_p99_ref": ("lookup", 99)}
    child_every = 100
    sample_every_unit = True
    expect_fire = ("service", "kernel.send", "pool", "stream", "runtime",
                   "device")
    expect_silent = ("device.codec",)
    B, M_BLOCKS, DISKS = 64, 64, 4
    TREE_KEYS, CLIENTS = 2000, 8

    def __init__(self, seed, scale, scratch):
        super().__init__(scratch)
        self.n = _scaled(200_000, scale, 8192)
        self.rng = np.random.default_rng(seed)
        info = np.iinfo(np.int64)
        self.data = self.rng.integers(info.min, info.max, size=self.n,
                                      dtype=np.int64)
        self.reference = np.sort(self.data)

    def setup(self):
        machine = Machine(self.B, self.M_BLOCKS, self.DISKS)
        tree = BPlusTree.bulk_load(
            machine, ((k, 3 * k) for k in range(self.TREE_KEYS)))
        stream = FileStream.from_payload(machine, self.data, name="olap/in")
        machine.pool.flush_all()
        machine.runtime.flush()
        return _State(machine, tree=tree, stream=stream)

    def unit(self, state, call, wrap_gen, now):
        session = _Session(self, state, wrap_gen, now)
        for _ in range(self.CLIENTS):
            session.submit_lookup()
        session.submit_sort()
        call("service", "run", session.service.run)
        return session, {"lookup": session.lookups}

    def check(self, state, session):
        failed_jobs = sum(tenant.metrics.failed
                          for tenant in session.service.tenants.values())
        sort_wrong = session.sorted is None or not np.array_equal(
            _stream_payload(state.machine, session.sorted), self.reference)
        attempted = len(session.lookups) + 1
        return attempted, session.wrong + int(sort_wrong) + failed_jobs

    def release(self, state, session):
        if session.sorted is not None:
            session.sorted.delete()

    def service_counts(self, session):
        metrics = session.service.tenants["oltp"].metrics
        return {"rounds": session.service.rounds,
                "oltp_p50_steps": metrics.p50_io(),
                "oltp_p99_steps": metrics.p99_io()}

    def details(self, units):
        walls = [end - start for start, end, _ in units]
        latencies = pooled(units, "lookup").walls()
        return {
            "sort_mrec_s": (self.n / statistics.median(walls) / 1e6,
                            "Mrec/s"),
            "lookups_s": (len(latencies) / sum(walls), "lookups/s"),
            "lookup_p50_ms": (nearest_rank(latencies, 50) * 1e3, "ms"),
            "lookup_p99_ms": (nearest_rank(latencies, 99) * 1e3, "ms"),
        }


# ----------------------------------------------------------------------
# fused sort-merge join plus list ranking on tuple records
# ----------------------------------------------------------------------
class JoinRankWorkload(_Workload):
    name = "join_rank"
    latency = {"latency_p50_ref": ("join", 50),
               "latency_p99_ref": ("rank", 50)}
    expect_fire = ("kernel.sort_merge_join", "kernel.list_ranking",
                   "stream", "runtime", "device")
    expect_silent = ("service", "device.codec")
    B, M_BLOCKS = 64, 48

    def __init__(self, seed, scale, scratch):
        super().__init__(scratch)
        self.build_rows = _scaled(5_000, scale, 100)
        self.probe_rows = _scaled(100_000, scale, 1000)
        self.nodes = _scaled(25_000, scale, 500)
        self.build, self.probe = foreign_key_relations(
            self.build_rows, self.probe_rows, seed=seed)
        self.pairs = random_linked_list(self.nodes, seed=seed)
        self.key_sum = sum(key for key, _ in self.probe)
        # The true order: walk the list from the one node nobody points to.
        successor = dict(self.pairs)
        node = (set(successor) - set(successor.values())).pop()
        self.ranks = {}
        while node != -1:
            self.ranks[node] = len(self.ranks)
            node = successor[node]

    def setup(self):
        machine = Machine(self.B, self.M_BLOCKS, 1)
        build = Table.from_rows(machine, ("k", "b"), self.build, name="build")
        probe = Table.from_rows(machine, ("k", "p"), self.probe, name="probe")
        return _State(machine, build=build, probe=probe)

    def unit(self, state, call, wrap_gen, now):
        start = now()
        joined = call("kernel", "sort_merge_join", sort_merge_join,
                      state.build, state.probe, "k", "k")
        middle = now()
        # The coin flips keep the library's default seed: only the list
        # comes from --seed (tying both to it couples them and doubles
        # the work's spread across seeds).
        ranks = call("kernel", "list_ranking", list_ranking,
                     state.machine, self.pairs)
        end = now()
        steps = {"join": Steps(), "rank": Steps()}
        steps["join"].add(start, middle)
        steps["rank"].add(middle, end)
        return (joined, ranks), steps

    def check(self, state, output):
        joined, ranks = output
        rows = [row for block_id in joined.stream.block_ids
                for row in state.machine.disk.peek(block_id)]
        join_wrong = (len(rows) != self.probe_rows
                      or sum(row[0] for row in rows) != self.key_sum
                      or any(row[0] != row[2] for row in rows))
        return 2, int(join_wrong) + int(ranks != self.ranks)

    def release(self, state, output):
        output[0].delete()

    def details(self, units):
        return {
            "join_krows_s": (self.probe_rows / _median_wall(units, "join")
                             / 1e3, "krows/s"),
            "rank_knodes_s": (self.nodes / _median_wall(units, "rank")
                              / 1e3, "knodes/s"),
        }


def make_workload(name, seed, scale, scratch):
    """Build the named workload's inputs from ``seed``."""
    if name == "sort_mem":
        return SortWorkload(seed, scale, scratch, name, 1, on_file=False)
    if name == "sort_file_d4":
        return SortWorkload(seed, scale, scratch, name, 4, on_file=True)
    if name == "btree_file_rw":
        return BTreeWorkload(seed, scale, scratch)
    if name == "oltp_olap_mix":
        return MixWorkload(seed, scale, scratch)
    if name == "join_rank":
        return JoinRankWorkload(seed, scale, scratch)
    raise ValueError(f"unknown workload {name!r}")
