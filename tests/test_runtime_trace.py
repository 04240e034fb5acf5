"""Tests for the runtime tracer: phase attribution and Chrome export."""

import hashlib
import json
import random

import pytest

from repro.core import FileStream, IOStats, Machine, StripedStream
from repro.faults import FaultPlan
from repro.runtime.trace import UNTRACED
from repro.search.btree import BPlusTree
from repro.service import QueryService, btree_lookup_job, sort_job
from repro.sort import external_merge_sort
from repro.workloads import uniform_ints


def traced_sort(num_disks=4, n=2048):
    """Run a traced striped merge sort; returns (machine, tracer, delta)."""
    machine = Machine(block_size=16, memory_blocks=16, num_disks=num_disks)
    stream = StripedStream.from_records(machine, uniform_ints(n, seed=5))
    tracer = machine.runtime.start_trace()
    before = machine.stats()
    external_merge_sort(machine, stream, stream_cls=StripedStream)
    tracer.stop()
    return machine, tracer, machine.stats() - before


class TestPhaseAttribution:
    def test_phase_sums_equal_machine_stats_delta(self):
        _, tracer, delta = traced_sort()
        total = IOStats()
        for stats in tracer.phase_summary().values():
            total = total + stats
        assert total == delta
        assert tracer.steps == delta.total_steps

    def test_sort_phases_are_labeled(self):
        _, tracer, _ = traced_sort()
        labels = set(tracer.phase_summary())
        assert "run-formation" in labels
        assert "merge-pass-1" in labels

    def test_nested_phases_join_with_slash(self):
        machine = Machine(block_size=4, memory_blocks=4, num_disks=2)
        tracer = machine.runtime.start_trace()
        with machine.trace("outer"):
            with machine.trace("inner"):
                StripedStream.from_records(machine, range(16))
        assert set(tracer.phase_summary()) == {"outer/inner"}

    def test_io_outside_any_phase_is_untraced(self):
        machine = Machine(block_size=4, memory_blocks=4, num_disks=2)
        tracer = machine.runtime.start_trace()
        StripedStream.from_records(machine, range(16))
        assert set(tracer.phase_summary()) == {UNTRACED}

    def test_stop_detaches_listener(self):
        machine = Machine(block_size=4, memory_blocks=4)
        tracer = machine.runtime.start_trace()
        tracer.stop()
        StripedStream.from_records(machine, range(16))
        assert tracer.phase_summary() == {}

    def test_start_resets_previous_trace(self):
        machine = Machine(block_size=4, memory_blocks=4)
        tracer = machine.runtime.start_trace()
        StripedStream.from_records(machine, range(16))
        tracer = machine.runtime.start_trace()
        assert tracer.phase_summary() == {}
        assert tracer.steps == 0

    def test_summary_table_lists_phases_and_total(self):
        _, tracer, delta = traced_sort()
        table = tracer.summary_table()
        assert "run-formation" in table
        assert "total" in table
        assert str(delta.total) in table


class TestChromeExport:
    def test_export_is_valid_chrome_trace_json(self):
        _, tracer, _ = traced_sort()
        trace = json.loads(tracer.to_json())
        events = trace["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 1

    def test_one_lane_per_disk_plus_phase_lane(self):
        machine, tracer, _ = traced_sort(num_disks=4)
        events = tracer.to_chrome()["traceEvents"]
        lanes = {e["tid"] for e in events if e.get("cat") == "io"}
        assert lanes <= set(range(machine.num_disks))
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {"disk 0", "disk 1", "disk 2", "disk 3", "phases"}

    def test_event_step_sums_match_phase_stats(self):
        # Every io event carries its phase; per-phase transfer counts
        # recomputed from the raw events equal the summary (and thus the
        # machine's counters, per TestPhaseAttribution).
        _, tracer, _ = traced_sort()
        per_phase = {}
        for event in tracer.to_chrome()["traceEvents"]:
            if event.get("cat") != "io":
                continue
            label = event["args"]["phase"]
            per_phase[label] = (per_phase.get(label, 0)
                                + len(event["args"]["blocks"]))
        summary = tracer.phase_summary()
        assert per_phase == {
            label: stats.total for label, stats in summary.items()
        }

    def test_phase_spans_cover_their_steps(self):
        _, tracer, _ = traced_sort()
        spans = [e for e in tracer.to_chrome()["traceEvents"]
                 if e.get("cat") == "phase"]
        assert spans
        summary = tracer.phase_summary()
        for span in spans:
            assert span["args"]["steps"] == \
                summary[span["name"]].total_steps

    def test_save_round_trips_through_file(self, tmp_path):
        _, tracer, _ = traced_sort()
        path = tmp_path / "trace.json"
        tracer.save(str(path))
        assert json.loads(path.read_text()) == tracer.to_chrome()


def traced_service(faulted):
    """A traced two-tenant service run, 12 lookups beside one sort;
    returns the stopped tracer."""
    machine = Machine(block_size=16, memory_blocks=16, num_disks=4)
    tree = BPlusTree.bulk_load(machine, ((i, i) for i in range(600)))
    rng = random.Random(3)
    stream = FileStream.from_records(
        machine, [rng.randrange(9000) for _ in range(700)], name="olap/in")
    machine.pool.flush_all()
    machine.runtime.flush()
    tracer = machine.runtime.start_trace()
    service = QueryService(machine)
    service.add_tenant("oltp", weight=1, max_running=4)
    service.add_tenant("olap", weight=2, max_running=1)
    for key in range(0, 600, 50):
        service.submit("oltp", btree_lookup_job(tree, key))
    service.submit("olap", sort_job(machine, stream, name="bigsort"))
    if faulted:
        plan = FaultPlan(seed=11, fail_block_reads={stream.block_ids[0]: 2})
        with machine.inject_faults(plan):
            service.run()
    else:
        service.run()
    tracer.stop()
    return tracer


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


_ROWS = [
    "svc/olap/bigsort    132     132        264    124{}     0       0"
    "      10",
    "        svc/oltp     13       0         13      7{}     7      13"
    "       9",
    "           total    145     132        277    131{}     7      13"
    "      19",
]

#: faulted -> (summary table, sha256 of to_json(), sha256 of the
#: namespace-lane export).  Pinned: the tracer's phase bookkeeping may
#: get cheaper, its output may not change by a byte.
PINNED_TRACES = {
    False: (
        "\n".join(
            ["           phase  reads  writes  transfers  steps  hits"
             "  misses  evicts",
             "----------------  -----  ------  ---------  -----  ----"
             "  ------  ------"] + [row.format("") for row in _ROWS]),
        "3f9d6780d51e34c50bdd2d9fcbeacade13b51939247d96ba025f200eba8253d3",
        "e2c70ff8bf484f43d92d11cd4d67439bf35cb70faad8cb2d639891018b1fb9e9",
    ),
    True: (
        "\n".join(
            ["           phase  reads  writes  transfers  steps  faults"
             "  retries  stalls  hits  misses  evicts",
             "----------------  -----  ------  ---------  -----  ------"
             "  -------  ------  ----  ------  ------"]
            + [row.format(cells) for row, cells in zip(_ROWS, [
                "       2        2       3",
                "       0        0       0",
                "       2        2       3"])]),
        "939f72bbb7fa21ac530fd41db1789da9dc2e0934533cc61d7592fb506f56c24b",
        "3ccb178c89a8ae4d66bbd7553906055a7217b32165f2734444eff02a9d8153c2",
    ),
}


class TestServiceTraceOutputs:
    @pytest.mark.parametrize("faulted", [False, True])
    def test_table_and_chrome_export_are_pinned(self, faulted):
        table, export, lanes = PINNED_TRACES[faulted]
        tracer = traced_service(faulted)
        assert tracer.summary_table() == table
        assert sha256(tracer.to_json()) == export
        assert sha256(json.dumps(tracer.to_chrome(namespace_lanes=2))) \
            == lanes

    def test_tracer_started_inside_open_phase_labels_under_it(self):
        machine = Machine(block_size=4, memory_blocks=4, num_disks=2)
        with machine.trace("a"):
            tracer = machine.runtime.start_trace()
            assert tracer.current_phase == "a"
            FileStream.from_records(machine, range(16))
            with machine.trace("b"):
                FileStream.from_records(machine, range(8))
        tracer.stop()
        assert tracer.current_phase == UNTRACED
        assert set(tracer.phase_summary()) == {"a", "a/b"}
        spans = [(e["name"], e["ts"], e["args"]["steps"])
                 for e in tracer.to_chrome()["traceEvents"]
                 if e.get("cat") == "phase"]
        assert spans == [("a/b", 2, 1), ("a", 0, 3)]
        io_phases = {e["args"]["phase"]
                     for e in tracer.to_chrome()["traceEvents"]
                     if e.get("cat") == "io"}
        assert io_phases == {"a", "a/b"}

    def test_phase_of_an_idle_tracer_records_no_span(self):
        machine = Machine(block_size=4, memory_blocks=4)
        tracer = machine.runtime.tracer
        with machine.trace("outer"):
            with machine.trace("inner"):
                assert tracer.current_phase == "outer/inner"
        assert tracer.current_phase == UNTRACED
        assert not [e for e in tracer.to_chrome()["traceEvents"]
                    if e.get("cat") == "phase"]
