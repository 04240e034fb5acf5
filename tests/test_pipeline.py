"""Tests for the pipelined sorter, external vector, and Pipeline API.

Covers the unit behavior of :mod:`repro.pipeline`, the fused vs.
materialized parity of every refactored consumer (sort-merge join,
time-forward processing, list ranking — including under injected
faults), the measured I/O savings of fusion, and the across-recursion
disk-footprint regression for list ranking.
"""

import random
import sys
from pathlib import Path

import pytest

from repro.core import ConfigurationError, Machine, StreamError
from repro.core.exceptions import RetryExhaustedError
from repro.core.stream import FileStream
from repro.faults import FaultPlan
from repro.graph import (
    list_ranking,
    list_ranking_materialized,
    time_forward_process,
    time_forward_process_materialized,
)
from repro.graph.list_ranking import weighted_list_ranking
from repro.pipeline import ExVector, Pipeline, Sorter
from repro.relational import (
    Table,
    sort_merge_join,
    sort_merge_join_materialized,
)
from repro.sort.merge import external_merge_sort
from repro.workloads import (
    foreign_key_relations,
    random_linked_list,
    uniform_ints,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_smoke  # noqa: E402


def machine(B=16, m=16):
    return Machine(block_size=B, memory_blocks=m)


def shuffled(n, seed=0):
    values = list(range(n))
    random.Random(seed).shuffle(values)
    return values


def random_dag(n, avg_out=2.5, seed=0):
    rng = random.Random(seed)
    edges = set()
    target = min(int(n * avg_out), n * (n - 1) // 2)
    while len(edges) < target:
        u = rng.randrange(n - 1)
        v = rng.randrange(u + 1, n)
        edges.add((u, v))
    return sorted(edges)


# ---------------------------------------------------------------------
# ExVector
# ---------------------------------------------------------------------
class TestExVector:
    def test_append_len_getitem(self):
        m = machine()
        v = ExVector(m)
        for i in range(100):
            v.append(i * 3)
        assert len(v) == 100
        assert v[0] == 0
        assert v[99] == 297
        assert v[-1] == 297
        v.delete()

    def test_iteration_in_order(self):
        m = machine()
        v = ExVector(m)
        data = shuffled(500, seed=3)
        v.extend(data)
        assert list(v) == data
        v.delete()

    def test_setitem_roundtrip(self):
        m = machine()
        v = ExVector(m)
        v.extend(range(200))
        v[7] = -7
        v[150] = -150
        assert v[7] == -7
        assert v[150] == -150
        v.delete()

    def test_larger_than_memory(self):
        m = machine(B=16, m=4)
        v = ExVector(m)
        n = 16 * 4 * 8  # 8x the memory envelope
        v.extend(range(n))
        assert len(v) == n
        assert v[n - 1] == n - 1
        v.delete()

    def test_out_of_range_rejected(self):
        m = machine()
        v = ExVector(m)
        v.append(1)
        with pytest.raises(StreamError):
            v[5]
        v.delete()

    def test_delete_frees_blocks(self):
        m = machine()
        baseline = m.disk.allocated_blocks
        v = ExVector(m)
        v.extend(range(1000))
        assert m.disk.allocated_blocks > baseline
        v.delete()
        assert m.disk.allocated_blocks == baseline


# ---------------------------------------------------------------------
# Sorter
# ---------------------------------------------------------------------
class TestSorter:
    def test_sorts_shuffled_records(self):
        m = machine()
        data = shuffled(2000, seed=1)
        with Sorter(m) as sorter:
            sorter.consume(data)
            assert list(sorter) == sorted(data)

    def test_key_and_stability(self):
        m = machine()
        data = [(i % 7, i) for i in range(700)]
        with Sorter(m, key=lambda r: r[0]) as sorter:
            sorter.consume(data)
            out = list(sorter)
        # stable: equal keys keep input (second-component) order
        assert out == sorted(data, key=lambda r: r[0])

    def test_empty_input(self):
        m = machine()
        with Sorter(m) as sorter:
            assert list(sorter.finish()) == []

    def test_push_after_finish_rejected(self):
        m = machine()
        with Sorter(m) as sorter:
            sorter.push(1)
            sorter.finish()
            with pytest.raises(StreamError):
                sorter.push(2)

    def test_close_frees_everything(self):
        m = machine()
        baseline = m.disk.allocated_blocks
        budget_baseline = m.budget.available
        sorter = Sorter(m)
        sorter.consume(shuffled(1000, seed=2))
        sorter.close()
        assert m.disk.allocated_blocks == baseline
        assert m.budget.available == budget_baseline
        sorter.close()  # idempotent

    def test_abandoned_pull_reclaimed_by_close(self):
        m = machine()
        baseline = m.disk.allocated_blocks
        sorter = Sorter(m)
        sorter.consume(shuffled(1000, seed=4))
        pull = sorter.finish()
        next(pull)  # start but do not exhaust
        sorter.close()
        assert m.disk.allocated_blocks == baseline

    @pytest.mark.parametrize("D", [1, 4])
    def test_failed_merge_pass_frees_landed_outputs(self, D):
        # Run formation is writes 0-249; the 63 (D=4) or 32 (D=1) runs
        # are more than a 7-frame pull holds, so the first pull merges
        # some down first, and write 310 falls in that merge-down after
        # its first merge has landed.
        m = Machine(block_size=16, memory_blocks=8, num_disks=D)
        baseline = m.disk.allocated_blocks
        sorter = Sorter(m)
        with pytest.raises(RetryExhaustedError):
            with m.inject_faults(FaultPlan(write_errors=range(310, 318))):
                sorter.consume(shuffled(4000, seed=1))
                next(sorter.finish())
        # A failed pull is not retried: it would read freed runs.
        with pytest.raises(StreamError):
            sorter.finish()
        with pytest.raises(StreamError):
            sorter.finish_segments()
        sorter.close()
        assert m.disk.allocated_blocks == baseline
        assert m.budget.in_use == 0

    def test_fused_beats_materialized_sort(self):
        """The pipelined sort elides the input write pass and the
        output materialization: strictly fewer I/Os end to end."""
        data = shuffled(3000, seed=5)

        fused_machine = machine()
        with fused_machine.measure() as fused_io:
            with Sorter(fused_machine) as sorter:
                sorter.consume(iter(data))
                result = list(sorter)

        mat_machine = machine()
        with mat_machine.measure() as mat_io:
            stream = FileStream(mat_machine, name="in")
            for record in data:
                stream.append(record)
            stream.finalize()
            out = external_merge_sort(mat_machine, stream,
                                      keep_input=False)
            mat_result = list(out)
            out.delete()

        assert result == mat_result == sorted(data)
        assert fused_io.total < mat_io.total

    def test_width_one_matches_materialized_io(self):
        """A consumer holding all but two frames when the pull is
        planned gets a one-reader pull: every run is merged down to a
        single run before the first record and that run is scanned —
        the materialized sort's pass structure, never worse."""
        data = shuffled(3000, seed=6)

        floor_machine = machine(B=16, m=8)
        with floor_machine.measure() as floor_io:
            with Sorter(floor_machine) as sorter:
                # A share held while the sort runs and given back before
                # the first record, as a join's key-group share: the
                # merge-down may use it, the pull may not.
                with floor_machine.budget.reserve(6 * 16):
                    sorter.consume(iter(data))
                    pull = sorter.finish()
                first = next(pull)
                assert floor_machine.budget.in_use == 16  # one reader
                assert [first] + list(pull) == sorted(data)
        # Each block is written once (run or merge-down output) and
        # read once (by the merge-down or the final scan).
        assert floor_io.reads == floor_io.writes

        wide_machine = machine(B=16, m=8)
        with wide_machine.measure() as wide_io:
            with Sorter(wide_machine) as sorter:
                sorter.consume(iter(data))
                assert list(sorter) == sorted(data)

        # the one-reader pull pays one extra merge level (write + read)
        assert floor_io.total > wide_io.total


class TestSorterBlockPath:
    """``push_block`` and ``finish_segments`` are ``push`` and
    ``finish`` a payload at a time: same runs, I/O, budget and order."""

    @staticmethod
    def records(kind, n=3000):
        import numpy as np

        values = np.array(shuffled(n, seed=7), dtype=np.int64)
        if kind == "int64":
            return values, None
        from repro.core.records import field

        rows = np.empty(n, [("k", np.int64), ("v", np.int64)])
        rows["k"] = values % 97          # many ties: stability shows
        rows["v"] = np.arange(n)
        return rows, field("k")

    @staticmethod
    def chunks(payload, seed=8):
        # Irregular sizes, most straddling a memoryload boundary.
        rng = random.Random(seed)
        start = 0
        while start < len(payload):
            size = rng.randrange(1, 150)
            yield payload[start:start + size]
            start += size

    @staticmethod
    def as_list(records):
        return [r.item() if hasattr(r, "item") else r for r in records]

    @pytest.mark.parametrize("D", [1, 4])
    @pytest.mark.parametrize("kind", ["int64", "struct"])
    def test_push_block_matches_push(self, kind, D):
        data, key = self.records(kind)
        outcomes = []
        for how in ("push", "push_block", "mixed"):
            m = Machine(block_size=16, memory_blocks=16, num_disks=D)
            with Sorter(m, key=key) as sorter:
                for turn, chunk in enumerate(self.chunks(data)):
                    if how == "push_block" or (how == "mixed"
                                               and turn % 2):
                        sorter.push_block(chunk)
                    else:
                        for record in chunk:
                            sorter.push(record)
                runs = [len(run) for run in sorter._runs]
                pushed = m.stats()
                out = self.as_list(sorter)
            assert m.disk.allocated_blocks == 0
            assert m.budget.in_use == 0
            outcomes.append((runs, pushed, m.stats(), m.budget.peak, out))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        runs, _, _, _, out = outcomes[1]
        assert len(runs) > 2  # the last run is spilled by finish()
        assert out == sorted(self.as_list(data),
                             key=(lambda r: r[0]) if key else None)

    @pytest.mark.parametrize("D", [1, 4])
    @pytest.mark.parametrize("kind", ["int64", "struct"])
    def test_segment_pull_concatenates_to_record_pull(self, kind, D):
        from repro.core.records import concat

        data, key = self.records(kind)
        pulled = []
        for segmented in (False, True):
            m = Machine(block_size=16, memory_blocks=16, num_disks=D)
            with Sorter(m, key=key) as sorter:
                for chunk in self.chunks(data):
                    sorter.push_block(chunk)
                if segmented:
                    segments = list(sorter.finish_segments())
                    assert all(len(segment) for segment in segments)
                    out = self.as_list(concat(segments))
                else:
                    out = self.as_list(sorter.finish())
            pulled.append((out, m.stats(), m.budget.peak))
        assert pulled[0] == pulled[1]

    @pytest.mark.parametrize("D", [1, 4])
    @pytest.mark.parametrize("segmented", [False, True])
    def test_close_mid_pull_returns_everything(self, segmented, D):
        data, key = self.records("struct")
        m = Machine(block_size=16, memory_blocks=16, num_disks=D)
        sorter = Sorter(m, key=key)
        for chunk in self.chunks(data):
            sorter.push_block(chunk)
        pull = sorter.finish_segments() if segmented else sorter.finish()
        next(pull)  # start but do not exhaust
        assert m.budget.in_use > 0
        sorter.close()
        assert m.disk.allocated_blocks == 0
        assert m.budget.in_use == 0
        sorter.close()  # idempotent

    def test_push_block_after_finish_rejected(self):
        data, key = self.records("int64", n=100)
        with Sorter(machine()) as sorter:
            sorter.push_block(data)
            sorter.finish_segments()
            with pytest.raises(StreamError):
                sorter.push_block(data)


class TestSorterFramePlan:
    """The Sorter's own frame plan: a memoryload that fits stays in
    memory, a lone run reads ``D`` blocks a step, and a pull mixing
    both gives everything back."""

    @staticmethod
    def payload(kind, n, seed=9):
        import numpy as np

        values = np.array(shuffled(n, seed=seed), dtype=np.int64)
        if kind == "int64":
            return values, None
        from repro.core.records import field

        rows = np.empty(n, [("k", np.int64), ("v", np.int64)])
        rows["k"] = values % 13          # ties: stability shows
        rows["v"] = np.arange(n)
        return rows, field("k")

    @staticmethod
    def stable_sorted(data, key):
        import numpy as np

        column = data if key is None else data["k"]
        return [r.item() for r in data[np.argsort(column, kind="stable")]]

    @staticmethod
    def pushed(sorter, data, how):
        if how == "push":
            for record in data:
                sorter.push(record)
        else:
            sorter.push_block(data)

    @pytest.mark.parametrize("D", [1, 4])
    @pytest.mark.parametrize("kind", ["int64", "struct"])
    @pytest.mark.parametrize("how", ["push", "push_block"])
    def test_one_memoryload_costs_no_io(self, how, kind, D):
        from repro.core.records import concat

        data, key = self.payload(kind, 150)  # 10 blocks of 16 frames
        m = Machine(block_size=16, memory_blocks=16, num_disks=D)
        with m.measure() as io:
            with Sorter(m, key=key) as sorter:
                self.pushed(sorter, data, how)
                out = concat(list(sorter.finish_segments()))
        assert io.total == 0
        assert [r.item() for r in out] == self.stable_sorted(data, key)
        assert m.budget.in_use == 0

    @pytest.mark.parametrize("D", [1, 4])
    @pytest.mark.parametrize("n", [356, 600])
    def test_resident_last_memoryload_costs_only_spilled_runs(self, n, D):
        # One or two (D=1) or three (D=4, n=600) memoryloads spill; the
        # last one stays beside their readers.
        data, key = self.payload("struct", n)
        m = Machine(block_size=16, memory_blocks=16, num_disks=D)
        with m.measure() as io:
            with Sorter(m, key=key) as sorter:
                sorter.push_block(data)
                pull = sorter.finish()
                spilled = sum(run.num_blocks for run in sorter._runs)
                out = [r.item() for r in pull]
        assert out == self.stable_sorted(data, key)
        assert io.writes == spilled
        assert io.reads == spilled
        assert spilled * 16 < n  # some records never touched disk
        assert m.disk.allocated_blocks == 0
        assert m.budget.in_use == 0

    def test_one_run_pull_reads_d_wide(self):
        m = Machine(block_size=16, memory_blocks=32, num_disks=4)
        # One 28-block memoryload at D=4 spilled by the 449th record,
        # which stays resident: the pull reads a single run.
        data = shuffled(449)
        with Sorter(m) as sorter:
            sorter.consume(data)
            pull = sorter.finish()
            assert [run.num_blocks for run in sorter._runs] == [28]
            with m.measure() as io:
                assert list(pull) == sorted(data)
        assert io.reads == 28
        assert io.read_steps <= -(-28 // 4) + 1

    def test_finish_beside_leaves_records_for_the_consumer(self):
        # 75 blocks of records at m = 16: four runs spilled while
        # pushing, then a last memoryload.  Planned beside nothing, the
        # pull leaves one frame; beside 64 records, the consumer can
        # reserve them once the first record is pulled and hold them
        # to the end.
        data = shuffled(1200)
        for beside, free in ((0, 16), (64, 176)):
            m = machine()
            with Sorter(m) as sorter:
                sorter.consume(data)
                with pytest.raises(ConfigurationError):
                    sorter.finish(beside=-1)
                pull = sorter.finish(beside=beside)
                assert sorter.finish(beside=beside) is pull
                assert sorter.finish_segments() is sorter.finish_segments()
                assert iter(sorter) is pull
                first = next(pull)
                assert m.budget.available == free
                if beside:
                    with m.budget.reserve(beside):
                        assert [first, *pull] == sorted(data)
            assert m.budget.in_use == 0

    @pytest.mark.parametrize("D", [1, 4])
    def test_close_mid_mixed_pull_returns_everything(self, D):
        data, key = self.payload("struct", 600)
        m = Machine(block_size=16, memory_blocks=16, num_disks=D)
        sorter = Sorter(m, key=key)
        sorter.push_block(data)
        pull = sorter.finish_segments()
        assert sorter._runs  # runs on disk beside the resident memoryload
        assert m.budget.in_use > len(sorter._runs) * 16
        next(pull)
        assert m.budget.in_use > 0
        sorter.close()
        assert m.disk.allocated_blocks == 0
        assert m.budget.in_use == 0


# ---------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------
class TestPipeline:
    def test_source_map_filter_sort_to_stream(self):
        m = machine()
        data = shuffled(1000, seed=7)
        out = (Pipeline.source(m, data)
               .filter(lambda x: x % 3 == 0)
               .map(lambda x: x * 2)
               .sort()
               .to_stream())
        expected = sorted(x * 2 for x in data if x % 3 == 0)
        assert list(out) == expected
        out.delete()

    def test_scan_external_source(self):
        m = machine()
        data = shuffled(600, seed=8)
        stream = FileStream.from_records(m, data)
        total = Pipeline.scan(m, stream).reduce(lambda a, b: a + b, 0)
        assert total == sum(data)
        stream.delete()

    def test_flat_map(self):
        m = machine()
        out = (Pipeline.source(m, range(10))
               .flat_map(lambda x: [x, x])
               .reduce(lambda a, b: a + b, 0))
        assert out == 2 * sum(range(10))

    def test_flat_map_before_sort_binds_its_stage(self):
        # Regression: the lazy flat_map expansion must capture its own
        # callable — a later sort stage rebinds the build loop's stage
        # variable before the expansion is ever pulled.
        m = machine()
        out = list(Pipeline.source(m, [3, 1, 2])
                   .flat_map(lambda x: [x, 10 * x])
                   .sort()
                   .iterate())
        assert out == [1, 2, 3, 10, 20, 30]

    def test_to_exvector(self):
        m = machine()
        v = (Pipeline.source(m, shuffled(300, seed=9))
             .sort()
             .to_exvector())
        assert list(v) == list(range(300))
        assert v[0] == 0
        v.delete()

    def test_group_reduce(self):
        m = machine()
        data = [(i % 5, 1) for i in range(500)]
        groups = dict(
            Pipeline.source(m, data)
            .group_reduce(key=lambda r: r[0],
                          fn=lambda acc, r: acc + r[1],
                          initial=lambda: 0)
            .iterate()
        )
        assert groups == {k: 100 for k in range(5)}

    def test_merge_join(self):
        m = machine()
        left = [(k, f"l{k}") for k in shuffled(50, seed=10)]
        right = [(k % 50, f"r{k}") for k in shuffled(150, seed=11)]
        joined = list(
            Pipeline.source(m, left).sort(key=lambda r: r[0])
            .merge_join(
                Pipeline.source(m, right).sort(key=lambda r: r[0]),
                left_key=lambda r: r[0],
                right_key=lambda r: r[0],
            )
            .iterate()
        )
        expected = sorted(
            (l, r) for l in left for r in right if l[0] == r[0]
        )
        assert sorted(joined) == expected

    @pytest.mark.parametrize("D", [1, 4])
    def test_merge_join_both_sides_spill(self, D):
        """Both sides form dozens of runs on an 8-frame machine: the
        side that starts first leaves the other room to plan its own
        pull, and the pairs come in the unfused join's order."""
        m = Machine(block_size=16, memory_blocks=8, num_disks=D)
        rng = random.Random(D)
        left = [(rng.randrange(3000), f"l{i}") for i in range(3000)]
        right = [(rng.randrange(3000), f"r{i}") for i in range(3000)]
        before = m.disk.allocated_blocks
        joined = list(
            Pipeline.source(m, left).sort(key=lambda r: r[0])
            .merge_join(
                Pipeline.source(m, right).sort(key=lambda r: r[0]),
                left_key=lambda r: r[0],
                right_key=lambda r: r[0],
            )
            .iterate()
        )
        groups = {}
        for row in sorted(right, key=lambda r: r[0]):
            groups.setdefault(row[0], []).append(row)
        assert joined == [(l, r) for l in sorted(left, key=lambda r: r[0])
                          for r in groups.get(l[0], ())]
        assert m.stats().reads > 0  # both sides spilled runs
        assert m.budget.peak <= m.M
        assert m.budget.in_use == 0
        assert m.disk.allocated_blocks == before

    def test_single_shot(self):
        m = machine()
        p = Pipeline.source(m, range(10))
        p.reduce(lambda a, b: a + b, 0)
        with pytest.raises(ConfigurationError):
            p.reduce(lambda a, b: a + b, 0)

    def test_no_source_rejected(self):
        m = machine()
        with pytest.raises(ConfigurationError):
            Pipeline(m).to_stream()

    def test_abandoned_iterator_cleans_up(self):
        m = machine()
        baseline = m.disk.allocated_blocks
        it = Pipeline.source(m, shuffled(1000, seed=12)).sort().iterate()
        next(it)
        it.close()
        assert m.disk.allocated_blocks == baseline

    def test_fusion_skips_intermediate_io(self):
        """scan → map → sort fused vs. map-to-stream then sort: the
        fused chain never writes the mapped intermediate."""
        data = shuffled(2000, seed=13)

        fused_machine = machine()
        source = FileStream.from_records(fused_machine, data)
        with fused_machine.measure() as fused_io:
            out = (Pipeline.scan(fused_machine, source)
                   .map(lambda x: x + 1)
                   .sort()
                   .to_stream())
        assert list(out) == sorted(x + 1 for x in data)

        mat_machine = machine()
        mat_source = FileStream.from_records(mat_machine, data)
        with mat_machine.measure() as mat_io:
            mapped = FileStream(mat_machine, name="mapped")
            for record in mat_source:
                mapped.append(record + 1)
            mapped.finalize()
            ordered = external_merge_sort(mat_machine, mapped,
                                          keep_input=False)
        assert list(ordered) == sorted(x + 1 for x in data)
        assert fused_io.total < mat_io.total


# ---------------------------------------------------------------------
# Fused/materialized parity of the refactored consumers
# ---------------------------------------------------------------------
class TestParity:
    def test_join_parity(self):
        m = machine()
        build, probe = foreign_key_relations(40, 600, seed=1)
        left = Table.from_rows(m, ("k", "b"), build, name="l")
        right = Table.from_rows(m, ("k", "p"), probe, name="r")
        fused = sort_merge_join(left, right, "k", "k", name="f")
        control = sort_merge_join_materialized(
            left, right, "k", "k", name="c"
        )
        assert list(fused.rows()) == list(control.rows())

    def test_timeforward_parity(self):
        m = machine()
        edges = random_dag(300, seed=2)

        def compute(v, incoming):
            return v + sum(incoming)

        assert (time_forward_process(m, 300, edges, compute)
                == time_forward_process_materialized(
                    m, 300, list(edges), compute))

    def test_list_ranking_parity(self):
        m = machine()
        pairs = random_linked_list(800, seed=3)
        assert (list_ranking(m, pairs, seed=4)
                == list_ranking_materialized(m, pairs, seed=4))

    def test_join_parity_under_faults(self):
        m = machine()
        build, probe = foreign_key_relations(30, 400, seed=5)
        left = Table.from_rows(m, ("k", "b"), build, name="l")
        right = Table.from_rows(m, ("k", "p"), probe, name="r")
        control = sort_merge_join_materialized(
            left, right, "k", "k", name="c"
        )
        with m.inject_faults(FaultPlan(seed=7, read_error_rate=0.05,
                                       write_error_rate=0.02)):
            fused = sort_merge_join(left, right, "k", "k", name="f")
        assert list(fused.rows()) == list(control.rows())
        assert m.stats().faults > 0

    def test_list_ranking_parity_under_faults(self):
        m = machine()
        pairs = random_linked_list(500, seed=8)
        expected = list_ranking_materialized(m, pairs, seed=9)
        with m.inject_faults(FaultPlan(seed=11, read_error_rate=0.05)):
            ranked = list_ranking(m, pairs, seed=9)
        assert ranked == expected
        assert m.stats().faults > 0

    def test_weighted_ranking_against_prefix_sums(self):
        m = machine()
        pairs = random_linked_list(300, seed=12)
        rng = random.Random(13)
        weights = {node: rng.randrange(1, 9) for node, _ in pairs}
        triples = [(node, succ, weights[node]) for node, succ in pairs]
        ranks = weighted_list_ranking(m, triples, seed=14)
        order = sorted(list_ranking(m, pairs, seed=15).items(),
                       key=lambda kv: kv[1])
        prefix, expected = 0, {}
        for node, _ in order:
            expected[node] = prefix
            prefix += weights[node]
        assert ranks == expected


# ---------------------------------------------------------------------
# Fusion wins on measured I/O
# ---------------------------------------------------------------------
class TestFusionSavesIO:
    def test_join_fused_beats_materialized(self):
        # m=32: the final-merge width covers each side's runs, so no
        # materialized pass survives and both sorted outputs are
        # elided.  (On smaller machines the frame plan degrades to the
        # materialized pass structure — equal I/O, never worse.)
        build, probe = foreign_key_relations(50, 1500, seed=21)

        fused_machine = machine(m=32)
        fl = Table.from_rows(fused_machine, ("k", "b"), build, name="l")
        fr = Table.from_rows(fused_machine, ("k", "p"), probe, name="r")
        with fused_machine.measure() as fused_io:
            sort_merge_join(fl, fr, "k", "k", name="f")

        mat_machine = machine(m=32)
        ml = Table.from_rows(mat_machine, ("k", "b"), build, name="l")
        mr = Table.from_rows(mat_machine, ("k", "p"), probe, name="r")
        with mat_machine.measure() as mat_io:
            sort_merge_join_materialized(ml, mr, "k", "k", name="c")

        assert fused_io.total < mat_io.total

    def test_timeforward_fused_beats_materialized(self):
        edges = random_dag(800, seed=22)

        def compute(v, incoming):
            return 1 + max(incoming) if incoming else 0

        fused_machine = machine()
        with fused_machine.measure() as fused_io:
            time_forward_process(fused_machine, 800, iter(edges), compute)

        mat_machine = machine()
        with mat_machine.measure() as mat_io:
            time_forward_process_materialized(
                mat_machine, 800, iter(edges), compute)

        assert fused_io.total < mat_io.total

    def test_list_ranking_fused_beats_materialized(self):
        pairs = random_linked_list(1200, seed=23)

        fused_machine = machine()
        with fused_machine.measure() as fused_io:
            list_ranking(fused_machine, pairs, seed=24)

        mat_machine = machine()
        with mat_machine.measure() as mat_io:
            list_ranking_materialized(mat_machine, pairs, seed=24)

        assert fused_io.total < mat_io.total


class TestJoinControlReadAhead:
    def test_join_control_moves_about_d_blocks_per_step(self):
        # bench_smoke's join_io shape on four disks: the cooperative
        # join's merge reads forecast batches, so its steps stay within
        # 1.2x of one step per D transfers.
        D = 4
        build, probe = foreign_key_relations(
            bench_smoke.PIPE_JOIN_N // 20, bench_smoke.PIPE_JOIN_N, seed=41)
        m = Machine(block_size=bench_smoke.PIPE_B,
                    memory_blocks=bench_smoke.PIPE_M_BLOCKS, num_disks=D)
        left = Table.from_rows(m, ("k", "b"), build, name="build")
        right = Table.from_rows(m, ("k", "p"), probe, name="probe")
        with m.measure() as io:
            sort_merge_join_materialized(left, right, "k", "k", name="out")
        ideal = -(-io.total // D)
        assert io.total_steps <= 1.2 * ideal, (io.total_steps, io.total)


class TestF25Gate:
    @pytest.mark.parametrize("package, consumer, fused, control", [
        ("repro.relational", "join", "sort_merge_join",
         sort_merge_join_materialized),
        ("repro.graph", "time_forward", "time_forward_process",
         time_forward_process_materialized),
        ("repro.graph", "list_ranking", "list_ranking",
         list_ranking_materialized),
    ], ids=["join", "time_forward", "list_ranking"])
    def test_gate_fails_when_a_consumer_is_materialized(
            self, monkeypatch, package, consumer, fused, control):
        # With a fused consumer swapped for its materialized control,
        # the smoke's fused-must-win assert has to catch it.
        import importlib

        monkeypatch.setattr(importlib.import_module(package), fused,
                            control)
        with pytest.raises(AssertionError, match=f"{consumer}: fused"):
            bench_smoke.pipeline_smoke()


# ---------------------------------------------------------------------
# Disk-footprint regression (satellite: reclaim temps eagerly)
# ---------------------------------------------------------------------
class TestRecursionFootprint:
    def test_list_ranking_peak_blocks_bounded(self, monkeypatch):
        """Each contraction round keeps only its ``removed`` and
        ``contracted`` streams live while recursing, so the peak disk
        footprint across all depths is a geometric series in N/B — it
        must not grow with a per-round constant times depth (the old
        never-deleted ``removed_index`` failure mode)."""
        import importlib

        # the package re-exports the function under the module's name,
        # so fetch the module itself for monkeypatching
        lr = importlib.import_module("repro.graph.list_ranking")

        m = machine(B=16, m=8)
        n = 1500
        pairs = random_linked_list(n, seed=31)

        peak = {"blocks": 0, "depth": 0, "calls": 0}
        original = lr._rank_recursive

        def instrumented(mach, records, salt):
            peak["calls"] += 1
            peak["depth"] = max(peak["depth"], peak["calls"])
            peak["blocks"] = max(peak["blocks"],
                                 mach.disk.allocated_blocks)
            return original(mach, records, salt)

        monkeypatch.setattr(lr, "_rank_recursive", instrumented)
        ranked = lr.list_ranking(m, pairs, seed=32)
        assert len(ranked) == n

        assert peak["depth"] >= 3  # the instrument saw real recursion
        blocks_n = -(-n // 16)  # input size in blocks
        # Geometric series: the input plus each depth's live
        # (removed + contracted) pair sums to ~(1 + 1/p)·N/B blocks
        # where p is the per-round removal fraction (~1/4 ideally,
        # a bit lower with hash coins), i.e. ~5.5x in practice; 7x
        # allows for coin variance while staying far below the
        # never-deleted-temps failure mode (one leaked stream per
        # round adds another full geometric series, ~9x+).
        assert peak["blocks"] <= 7 * blocks_n
