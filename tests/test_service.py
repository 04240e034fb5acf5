"""Tests for the multi-tenant query service (``repro.service``).

Covers the cooperative entry points' parity with their eager
counterparts, admission control, round-based scheduling, per-tenant
metrics and latency percentiles, trace namespacing, and the acceptance
property that the interleaved schedule beats serial execution on wall
steps for a mixed OLTP/OLAP workload.
"""

import random
import sys
from pathlib import Path

import pytest

from repro.core import FileStream, Machine
from repro.core.stats import IOStats
from repro.graph.adjacency import AdjacencyStore
from repro.relational.table import Table
from repro.search.btree import BPlusTree
from repro.search.hashing import ExtendibleHashTable
from repro.service import (
    DONE,
    AdmissionError,
    QueryService,
    bfs_job,
    btree_lookup_job,
    btree_range_job,
    drive,
    hash_lookup_job,
    join_job,
    nearest_rank,
    sort_job,
)
from repro.sort import external_merge_sort

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_smoke  # noqa: E402


def machine(B=16, m=16, D=4):
    return Machine(block_size=B, memory_blocks=m, num_disks=D)


def records(n, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(10 * n) for _ in range(n)]


@pytest.fixture
def loaded():
    """A machine with a B+-tree, a hash table, and an OLAP stream,
    caches flushed and the stats clock zeroed."""
    m = machine()
    tree = BPlusTree.bulk_load(m, ((i, 2 * i) for i in range(2000)))
    table = ExtendibleHashTable(m)
    for i in range(0, 500, 3):
        table.insert(i, -i)
    stream = FileStream.from_records(m, records(1200, seed=3), name="olap")
    m.pool.flush_all()
    m.runtime.flush()
    m.reset_stats()
    return m, tree, table, stream


class TestCooperativeParity:
    """The generator entry points return what their eager twins return."""

    def test_btree_lookup_steps(self, loaded):
        m, tree, _, _ = loaded
        for key in (0, 777, 1999, 5000):
            assert drive(m, tree.lookup_steps(key)) == tree.get(key)

    def test_btree_range_steps(self, loaded):
        m, tree, _, _ = loaded
        coop = drive(m, tree.range_steps(100, 400))
        assert coop == [(k, 2 * k) for k in range(100, 401)]
        assert list(tree.range_query(100, 400)) == coop

    def test_hash_lookup_steps(self, loaded):
        m, _, table, _ = loaded
        for key in (0, 3, 499, 998):
            assert drive(m, table.lookup_steps(key)) == table.get(key)

    def test_sort_steps_matches_eager(self, loaded):
        from repro.sort import merge_sort_steps
        m, _, _, stream = loaded
        out = drive(m, merge_sort_steps(m, stream))
        assert list(out) == sorted(stream)
        assert m.budget.in_use == 0

    def test_bfs_steps_matches_eager(self):
        from repro.graph import bfs_extract_steps, semi_external_bfs
        m = machine()
        rng = random.Random(11)
        edges = [(rng.randrange(60), rng.randrange(60)) for _ in range(150)]
        adjacency = AdjacencyStore.from_edges(m, 60, edges)
        eager = semi_external_bfs(m, adjacency, 0)
        coop = drive(m, bfs_extract_steps(m, adjacency, 0))
        assert coop == eager
        assert m.budget.in_use == 0


def submit_mix(svc, m, tree, stream, lookups=24):
    """Queue the standard OLTP/OLAP mix; returns (lookup_jobs, sort)."""
    rng = random.Random(5)
    oltp_jobs = [
        svc.submit("oltp", btree_lookup_job(tree, rng.randrange(2000)))
        for _ in range(lookups)
    ]
    olap_job = svc.submit("olap", sort_job(m, stream, name="bigsort"))
    return oltp_jobs, olap_job


class TestQueryService:
    def test_mixed_workload_completes_correctly(self, loaded):
        m, tree, _, stream = loaded
        svc = QueryService(m)
        svc.add_tenant("oltp", weight=1, max_running=8)
        svc.add_tenant("olap", weight=2, max_running=2)
        oltp_jobs, olap_job = submit_mix(svc, m, tree, stream)
        report = svc.run()

        assert all(j.status == DONE for j in oltp_jobs)
        for job in oltp_jobs:
            key = job.result // 2 if job.result is not None else None
            assert job.result == tree.get(key)
        assert olap_job.status == DONE
        assert (list(olap_job.result)
                == sorted(stream))
        assert report["tenants"]["oltp"]["completed"] == len(oltp_jobs)
        assert report["tenants"]["olap"]["completed"] == 1
        assert m.budget.in_use == 0

    def test_tenant_peaks_stay_within_shares(self, loaded):
        m, tree, _, stream = loaded
        svc = QueryService(m)
        oltp = svc.add_tenant("oltp", weight=1, max_running=8)
        olap = svc.add_tenant("olap", weight=2, max_running=2)
        submit_mix(svc, m, tree, stream)
        svc.run()
        assert oltp.share.peak <= oltp.share.capacity
        assert olap.share.peak <= olap.share.capacity

    def test_interleaved_beats_serial_on_wall_steps(self, loaded):
        m, tree, _, stream = loaded
        svc = QueryService(m)
        svc.add_tenant("oltp", weight=1, max_running=8)
        svc.add_tenant("olap", weight=2, max_running=2)
        submit_mix(svc, m, tree, stream)
        interleaved = svc.run()

        m2 = machine()
        tree2 = BPlusTree.bulk_load(m2, ((i, 2 * i) for i in range(2000)))
        stream2 = FileStream.from_records(
            m2, records(1200, seed=3), name="olap"
        )
        m2.pool.flush_all()
        m2.runtime.flush()
        m2.reset_stats()
        serial = QueryService(m2, max_running=1)
        serial.add_tenant("oltp", weight=1, max_running=8)
        serial.add_tenant("olap", weight=2, max_running=2)
        submit_mix(serial, m2, tree2, stream2)
        serial_report = serial.run()

        assert (interleaved["total_wall_steps"]
                < serial_report["total_wall_steps"])

    def test_per_tenant_io_attribution_sums_to_total(self, loaded):
        m, tree, _, stream = loaded
        svc = QueryService(m)
        svc.add_tenant("oltp", weight=1, max_running=8)
        svc.add_tenant("olap", weight=2, max_running=2)
        submit_mix(svc, m, tree, stream)
        report = svc.run()
        # Tenant ledgers cover everything except the final cross-tenant
        # flush the service itself pays for.
        per_tenant = sum(
            t["io_steps"] for t in report["tenants"].values()
        )
        assert per_tenant <= report["total_io_steps"]
        assert per_tenant > 0

    def test_all_job_kinds_run_together(self):
        m = machine()
        tree = BPlusTree.bulk_load(m, ((i, i) for i in range(800)))
        table = ExtendibleHashTable(m)
        for i in range(200):
            table.insert(i, i * 3)
        rng = random.Random(9)
        edges = [(rng.randrange(40), rng.randrange(40)) for _ in range(90)]
        adjacency = AdjacencyStore.from_edges(m, 40, edges)
        left = Table.from_rows(
            m, ["k", "a"],
            [[rng.randrange(50), i] for i in range(220)], name="L",
        )
        right = Table.from_rows(
            m, ["k", "b"],
            [[rng.randrange(50), -i] for i in range(180)], name="R",
        )
        stream = FileStream.from_records(m, records(400, seed=1), name="s")
        m.pool.flush_all()
        m.runtime.flush()
        m.reset_stats()

        svc = QueryService(m)
        svc.add_tenant("point", weight=1, max_running=4)
        svc.add_tenant("scan", weight=3, max_running=3)
        jobs = [
            svc.submit("point", btree_lookup_job(tree, 123)),
            svc.submit("point", btree_range_job(tree, 50, 90)),
            svc.submit("point", hash_lookup_job(table, 77)),
            svc.submit("scan", sort_job(m, stream)),
            svc.submit("scan", join_job(left, right, "k", "k")),
            svc.submit("scan", bfs_job(m, adjacency, 0)),
        ]
        svc.run()
        assert all(j.status == DONE for j in jobs), [
            (j.name, j.error) for j in jobs
        ]
        assert jobs[0].result == 123
        assert jobs[1].result == [(k, k) for k in range(50, 91)]
        assert jobs[2].result == 231
        assert (list(jobs[3].result)
                == sorted(stream))
        from repro.relational import sort_merge_join
        expected = sort_merge_join(left, right, "k", "k")
        assert (sorted(map(tuple, jobs[4].result.rows()))
                == sorted(map(tuple, expected.rows())))
        from repro.graph import semi_external_bfs
        assert jobs[5].result == semi_external_bfs(m, adjacency, 0)
        assert m.budget.in_use == 0


class TestAdmission:
    def test_infeasible_reservation_rejected(self, loaded):
        m, tree, _, stream = loaded
        svc = QueryService(m)
        tenant = svc.add_tenant("tiny", weight=1, max_running=2)
        job = sort_job(m, stream)
        job.reservation = tenant.share.capacity + 1
        with pytest.raises(AdmissionError):
            svc.submit("tiny", job)
        assert tenant.metrics.rejected == 1

    def test_bounded_queue_rejects_overflow(self, loaded):
        m, tree, _, _ = loaded
        svc = QueryService(m, max_queued=3)
        tenant = svc.add_tenant("t", weight=1, max_running=1)
        for i in range(3):
            svc.submit("t", btree_lookup_job(tree, i))
        with pytest.raises(AdmissionError):
            svc.submit("t", btree_lookup_job(tree, 99))
        assert tenant.metrics.rejected == 1
        assert tenant.metrics.submitted == 3

    def test_per_tenant_concurrency_cap(self, loaded):
        m, tree, _, _ = loaded
        svc = QueryService(m)
        tenant = svc.add_tenant("t", weight=1, max_running=2)
        for i in range(5):
            svc.submit("t", btree_lookup_job(tree, i))
        started = svc.admission.admit()
        assert len(started) == 2
        assert len(tenant.running) == 2
        assert svc.admission.pending == 3

    def test_service_wide_slots_cap(self, loaded):
        m, tree, _, _ = loaded
        svc = QueryService(m, max_running=1)
        svc.add_tenant("a", weight=1, max_running=4)
        svc.add_tenant("b", weight=1, max_running=4)
        for i in range(3):
            svc.submit("a", btree_lookup_job(tree, i))
            svc.submit("b", btree_lookup_job(tree, 100 + i))
        started = svc.admission.admit(1)
        assert len(started) == 1

    def test_unknown_tenant_raises(self, loaded):
        m, tree, _, _ = loaded
        svc = QueryService(m)
        from repro.core import ConfigurationError
        with pytest.raises(ConfigurationError):
            svc.submit("ghost", btree_lookup_job(tree, 1))

    def test_job_names_deduplicated_per_tenant(self, loaded):
        m, tree, _, _ = loaded
        svc = QueryService(m)
        svc.add_tenant("t", weight=1, max_running=8)
        names = [
            svc.submit("t", btree_lookup_job(tree, i)).name
            for i in range(3)
        ]
        assert names == ["btree-get", "btree-get#1", "btree-get#2"]
        assert len(set(names)) == 3


class TestMetrics:
    def test_nearest_rank_edge_cases(self):
        assert nearest_rank([], 50) is None
        assert nearest_rank([7], 50) == 7
        assert nearest_rank([7], 99) == 7
        values = list(range(1, 101))
        assert nearest_rank(values, 50) == 50
        assert nearest_rank(values, 99) == 99
        assert nearest_rank(values, 100) == 100

    def test_latencies_recorded_per_completion(self, loaded):
        m, tree, _, stream = loaded
        svc = QueryService(m)
        oltp = svc.add_tenant("oltp", weight=1, max_running=8)
        olap = svc.add_tenant("olap", weight=2, max_running=2)
        oltp_jobs, olap_job = submit_mix(svc, m, tree, stream, lookups=10)
        report = svc.run()
        assert len(oltp.metrics.latency_io) == 10
        assert len(olap.metrics.latency_wall) == 1
        for job in oltp_jobs + [olap_job]:
            assert job.latency_io is not None
            assert job.latency_wall >= job.latency_io
        snap = report["tenants"]["oltp"]
        for key in ("p50_io", "p99_io", "p50_wall", "p99_wall"):
            assert snap[key] is not None
        assert snap["p99_io"] >= snap["p50_io"]

    def test_snapshot_shape(self):
        from repro.service import TenantMetrics
        metrics = TenantMetrics()
        snap = metrics.snapshot()
        assert snap["submitted"] == 0
        assert snap["p99_wall"] is None
        metrics.charge(IOStats(reads=3, read_steps=2))
        metrics.record_latency(4, 6)
        snap = metrics.snapshot()
        assert snap["reads"] == 3
        assert snap["io_steps"] == 2
        assert snap["p50_io"] == 4
        assert snap["p50_wall"] == 6


class TestTraceNamespacing:
    def test_phases_namespaced_and_never_double_counted(self, loaded):
        m, tree, _, stream = loaded
        tracer = m.runtime.start_trace()
        svc = QueryService(m)
        svc.add_tenant("oltp", weight=1, max_running=8)
        svc.add_tenant("olap", weight=2, max_running=2)
        submit_mix(svc, m, tree, stream, lookups=8)
        svc.run()
        tracer.stop()

        labels = set(tracer.phase_summary()) | set(tracer.pool_summary())
        # Generator-body I/O (and any wave serving exactly one job) is
        # attributed to the job phase; shared multi-job waves land on
        # the tenant phase — they cannot be split per job.
        assert "svc/oltp" in labels
        assert any(label.startswith("svc/olap/bigsort")
                   for label in labels)
        # Each transfer lands under exactly one leaf label, so any
        # roll-up depth preserves the totals.
        flat = sum(tracer.phase_summary().values(), IOStats())
        for depth in (1, 2, 3):
            rolled = sum(tracer.namespace_summary(depth).values(),
                         IOStats())
            assert rolled == flat
        by_tenant = tracer.namespace_summary(2)
        assert "svc/oltp" in by_tenant and "svc/olap" in by_tenant

    def test_namespace_table_and_lanes(self, loaded):
        m, tree, _, stream = loaded
        tracer = m.runtime.start_trace()
        svc = QueryService(m)
        svc.add_tenant("oltp", weight=1, max_running=8)
        svc.add_tenant("olap", weight=2, max_running=2)
        submit_mix(svc, m, tree, stream, lookups=8)
        svc.run()
        tracer.stop()

        table = tracer.namespace_table(2)
        assert "svc/oltp" in table and "svc/olap" in table
        chrome = tracer.to_chrome(namespace_lanes=2)
        lanes = {
            e["args"]["name"]
            for e in chrome["traceEvents"] if e.get("ph") == "M"
        }
        assert {"svc/oltp", "svc/olap"} <= lanes

    def test_default_chrome_export_unchanged(self, loaded):
        m, tree, _, stream = loaded
        tracer = m.runtime.start_trace()
        with m.trace("solo"):
            external_merge_sort(m, stream)
        tracer.stop()
        assert tracer.to_chrome() == tracer.to_chrome(namespace_lanes=0)
        lanes = {
            e["args"]["name"]
            for e in tracer.to_chrome()["traceEvents"]
            if e.get("ph") == "M"
        }
        assert lanes == (
            {f"disk {d}" for d in range(m.num_disks)} | {"phases"}
        )

    def test_lone_job_wave_attributed_to_job_phase(self, loaded):
        m, tree, _, _ = loaded
        tracer = m.runtime.start_trace()
        svc = QueryService(m)
        svc.add_tenant("solo", weight=1, max_running=1)
        svc.submit("solo", btree_lookup_job(tree, 1234))
        svc.run()
        tracer.stop()
        labels = set(tracer.phase_summary()) | set(tracer.pool_summary())
        assert "svc/solo/btree-get" in labels

    def test_namespace_depth_validated(self, loaded):
        m, _, _, _ = loaded
        from repro.core import ConfigurationError
        tracer = m.runtime.start_trace()
        tracer.stop()
        with pytest.raises(ConfigurationError):
            tracer.namespace_summary(0)


# ---------------------------------------------------------------------
# the F24 smoke service runs, pinned report for report
# ---------------------------------------------------------------------

def _tenant(io_steps, reads, writes, p50_io, p99_io, jobs=24,
            faults=0, stalls=0):
    return {"submitted": jobs, "admitted": jobs, "rejected": 0,
            "completed": jobs, "failed": 0, "reads": reads,
            "writes": writes, "io_steps": io_steps,
            "wall_steps": io_steps + stalls, "stall_steps": stalls,
            "faults": faults, "retries": faults, "p50_io": p50_io,
            "p99_io": p99_io, "p50_wall": p50_io + stalls,
            "p99_wall": p99_io + stalls}


_WAVES = [14] * 8 + [39] * 8 + [65] * 8
_SERIAL = [1, 2, 2, 3, 4, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
           18, 19, 20, 21, 22, 23]

#: ``(run kwargs, rounds, total io/stall steps, per-tenant snapshot,
#: per-tenant (latency_io, latency_wall))`` of ``_service_run``.  The
#: round bookkeeping may get cheaper; the schedule and every counter
#: stay exactly these.
PINNED_RUNS = {
    "interleaved": (
        {}, 130, 194, 0,
        {"olap": _tenant(180, 171, 171, 194, 194, jobs=1),
         "oltp": _tenant(14, 28, 0, 39, 65)},
        {"olap": ([194], [194]), "oltp": (_WAVES, _WAVES)}),
    "serial": (
        {"max_running": 1}, 226, 203, 0,
        {"olap": _tenant(180, 171, 171, 203, 203, jobs=1),
         "oltp": _tenant(23, 23, 0, 10, 23)},
        {"olap": ([203], [203]), "oltp": (_SERIAL, _SERIAL)}),
    "faulted": (
        {"faulted": True}, 130, 194, 3,
        {"olap": _tenant(180, 171, 171, 194, 194, jobs=1, faults=2,
                         stalls=3),
         "oltp": dict(_tenant(14, 28, 0, 39, 65), p50_wall=42,
                      p99_wall=68)},
        {"olap": ([194], [197]),
         "oltp": (_WAVES, [w + 3 for w in _WAVES])}),
}


class TestPinnedReports:
    @pytest.mark.parametrize("label", sorted(PINNED_RUNS))
    def test_service_report_is_pinned(self, monkeypatch, label):
        kwargs, rounds, io_steps, stalls, tenants, latencies = \
            PINNED_RUNS[label]
        services = []

        class Recording(QueryService):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                services.append(self)

        monkeypatch.setattr("repro.service.QueryService", Recording)
        report = bench_smoke._service_run(**kwargs)
        assert report == {
            "rounds": rounds, "total_io_steps": io_steps,
            "total_wall_steps": io_steps + stalls,
            "total_stall_steps": stalls, "tenants": tenants,
        }
        (service,) = services
        for name, (lat_io, lat_wall) in latencies.items():
            metrics = service.tenants[name].metrics
            assert metrics.latency_io == lat_io
            assert metrics.latency_wall == lat_wall
            assert metrics.snapshot() == tenants[name]


class TestF24Gate:
    def test_gate_fails_when_jobs_are_served_alone(self, monkeypatch):
        # Serving each job's intent alone (the fault fallback) instead
        # of the shared per-tenant batch loses the cross-job waves, and
        # the smoke's interleaved-beats-serial assert must catch it.
        monkeypatch.setattr(QueryService, "_fulfill_batch",
                            QueryService._fulfill_individually)
        with pytest.raises(AssertionError, match="interleaved .* vs serial"):
            bench_smoke.service_smoke()
