"""Tests for the relational layer."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Machine, scan_io
from repro.core.exceptions import EMError
from repro.core.filedisk import FileDiskArray
from repro.faults import FaultPlan
from repro.relational import (
    Table,
    block_nested_loop_join,
    grace_hash_join,
    group_by,
    hash_group_by,
    merge_join_iterators,
    order_by,
    project,
    select,
    sort_merge_join,
    sort_merge_join_materialized,
)
from repro.service import DONE, QueryService, join_job
from repro.workloads import foreign_key_relations, relation


def machine(B=16, m=8):
    return Machine(block_size=B, memory_blocks=m)


def reference_join(left_rows, right_rows, li, ri):
    return sorted(
        tuple(l) + tuple(r)
        for l in left_rows
        for r in right_rows
        if l[li] == r[ri]
    )


class TestTable:
    def test_from_rows_round_trip(self):
        m = machine()
        rows = [(1, "a"), (2, "b")]
        t = Table.from_rows(m, ("id", "name"), rows)
        assert list(t.rows()) == rows
        assert len(t) == 2

    def test_width_mismatch_rejected(self):
        m = machine()
        with pytest.raises(ConfigurationError):
            Table.from_rows(m, ("id",), [(1, 2)])

    def test_duplicate_columns_rejected(self):
        m = machine()
        with pytest.raises(ConfigurationError):
            Table.from_rows(m, ("id", "id"), [])

    def test_missing_column_rejected(self):
        m = machine()
        t = Table.from_rows(m, ("id",), [(1,)])
        with pytest.raises(ConfigurationError):
            t.column_index("nope")

    def test_key_fn(self):
        m = machine()
        t = Table.from_rows(m, ("a", "b"), [(1, 2)])
        assert t.key_fn("b")((1, 2)) == 2


class TestOperators:
    def test_select(self):
        m = machine()
        t = Table.from_rows(m, ("k", "v"), [(i, i * i) for i in range(50)])
        s = select(t, lambda r: r[0] % 2 == 0)
        assert len(s) == 25
        assert all(r[0] % 2 == 0 for r in s.rows())

    def test_select_io_is_two_scans(self):
        m = machine()
        t = Table.from_rows(m, ("k",), [(i,) for i in range(320)])
        with m.measure() as io:
            select(t, lambda r: True)
        assert io.reads == scan_io(320, m.B)
        assert io.writes == scan_io(320, m.B)

    def test_project(self):
        m = machine()
        t = Table.from_rows(m, ("a", "b", "c"), [(1, 2, 3), (4, 5, 6)])
        p = project(t, ("c", "a"))
        assert p.columns == ("c", "a")
        assert list(p.rows()) == [(3, 1), (6, 4)]

    def test_order_by(self):
        m = machine()
        rows = [(i % 17, i) for i in range(500)]
        t = Table.from_rows(m, ("k", "v"), rows)
        o = order_by(t, "k")
        keys = [r[0] for r in o.rows()]
        assert keys == sorted(keys)
        assert sorted(o.rows()) == sorted(rows)

    def test_group_by_aggregates(self):
        m = machine()
        rows = [(i % 4, i) for i in range(100)]
        t = Table.from_rows(m, ("k", "v"), rows)
        g = group_by(t, "k", [("count", "v"), ("sum", "v"), ("min", "v"),
                              ("max", "v"), ("avg", "v")])
        assert g.columns == ("k", "count_v", "sum_v", "min_v", "max_v",
                             "avg_v")
        result = {r[0]: r[1:] for r in g.rows()}
        for k in range(4):
            values = [i for i in range(100) if i % 4 == k]
            assert result[k] == (
                len(values), sum(values), min(values), max(values),
                sum(values) / len(values),
            )

    def test_group_by_unknown_aggregate_rejected(self):
        m = machine()
        t = Table.from_rows(m, ("k", "v"), [(1, 2)])
        with pytest.raises(ConfigurationError):
            group_by(t, "k", [("median", "v")])

    def test_group_by_empty_table(self):
        m = machine()
        t = Table.from_rows(m, ("k", "v"), [])
        g = group_by(t, "k", [("count", "v")])
        assert list(g.rows()) == []


JOINS = [sort_merge_join, grace_hash_join, block_nested_loop_join]


class TestJoins:
    @pytest.mark.parametrize("join", JOINS)
    def test_foreign_key_join(self, join):
        m = machine()
        build, probe = foreign_key_relations(100, 400, seed=1)
        L = Table.from_rows(m, ("id", "b"), build)
        R = Table.from_rows(m, ("fk", "p"), probe)
        result = join(L, R, "id", "fk")
        assert sorted(result.rows()) == reference_join(build, probe, 0, 0)
        assert result.columns == ("id", "b", "fk", "p")

    @pytest.mark.parametrize("join", JOINS)
    def test_many_to_many(self, join):
        m = machine()
        left = [(k % 3, f"l{i}") for i, k in enumerate(range(30))]
        right = [(k % 3, f"r{i}") for i, k in enumerate(range(20))]
        L = Table.from_rows(m, ("k", "l"), left)
        R = Table.from_rows(m, ("k", "r"), right)
        result = join(L, R, "k", "k")
        assert sorted(result.rows()) == reference_join(left, right, 0, 0)

    @pytest.mark.parametrize("join", JOINS)
    def test_no_matches(self, join):
        m = machine()
        L = Table.from_rows(m, ("k", "l"), [(1, "a")])
        R = Table.from_rows(m, ("k", "r"), [(2, "b")])
        assert list(join(L, R, "k", "k").rows()) == []

    @pytest.mark.parametrize("join", JOINS)
    def test_empty_inputs(self, join):
        m = machine()
        L = Table.from_rows(m, ("k",), [])
        R = Table.from_rows(m, ("k",), [(1,)])
        assert list(join(L, R, "k", "k").rows()) == []

    @pytest.mark.parametrize("join", JOINS)
    def test_skewed_keys(self, join):
        m = machine(m=8)
        left = [(7, f"l{i}") for i in range(300)] + [(1, "x")]
        right = [(7, "r0"), (1, "y"), (2, "z")]
        L = Table.from_rows(m, ("k", "l"), left)
        R = Table.from_rows(m, ("k", "r"), right)
        result = join(L, R, "k", "k")
        assert sorted(result.rows()) == reference_join(left, right, 0, 0)

    def test_column_name_clash_renamed(self):
        m = machine()
        L = Table.from_rows(m, ("k", "v"), [(1, "a")])
        R = Table.from_rows(m, ("k", "v"), [(1, "b")])
        result = sort_merge_join(L, R, "k", "k")
        assert result.columns == ("k", "v", "k_r", "v_r")

    def test_smj_output_sorted_by_key(self):
        m = machine()
        build, probe = foreign_key_relations(80, 200, seed=2)
        L = Table.from_rows(m, ("id", "b"), build)
        R = Table.from_rows(m, ("fk", "p"), probe)
        result = sort_merge_join(L, R, "id", "fk")
        keys = [r[0] for r in result.rows()]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("join", JOINS)
    def test_large_join_beyond_memory(self, join):
        m = machine(B=16, m=8)  # M = 128
        build, probe = foreign_key_relations(600, 1500, seed=3)
        L = Table.from_rows(m, ("id", "b"), build)
        R = Table.from_rows(m, ("fk", "p"), probe)
        result = join(L, R, "id", "fk")
        assert len(result) == 1500  # every probe tuple matches exactly once
        assert m.budget.in_use == 0

    @given(
        st.lists(st.tuples(st.integers(0, 8), st.integers()), max_size=80),
        st.lists(st.tuples(st.integers(0, 8), st.integers()), max_size=80),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_all_joins_agree(self, left, right):
        expected = reference_join(left, right, 0, 0)
        for join in JOINS:
            m = machine(B=8, m=8)
            L = Table.from_rows(m, ("k", "l"), left)
            R = Table.from_rows(m, ("k", "r"), right)
            assert sorted(join(L, R, "k", "k").rows()) == expected


class TestMergeJoinIterators:
    def test_unmatched_right_group_is_not_buffered(self):
        """Only a right-side key group with a left match is held in
        memory: an unmatched group ten times ``M`` passes through."""
        m = machine()
        left = [(0, "a"), (2, "b")]
        right = [(0, "x")] + [(1, i) for i in range(10 * m.M)] + [(2, "y")]
        key = lambda row: row[0]  # noqa: E731
        pairs = list(merge_join_iterators(m, iter(left), iter(right),
                                          key, key))
        assert pairs == [((0, "a"), (0, "x")), ((2, "b"), (2, "y"))]
        assert m.budget.peak <= m.M
        assert m.budget.in_use == 0

    def test_stops_reading_when_one_side_runs_out(self):
        pulled = []

        def right():
            for i in range(100):
                pulled.append(i)
                yield (i, "r")

        key = lambda row: row[0]  # noqa: E731
        pairs = list(merge_join_iterators(machine(), iter([(1, "l")]),
                                          right(), key, key))
        assert pairs == [((1, "l"), (1, "r"))]
        assert pulled == [0, 1, 2]


def _service_join(left, right, left_column, right_column):
    """:func:`join_job` run alone under a :class:`QueryService`."""
    service = QueryService(left.machine)
    service.add_tenant("olap")
    job = service.submit("olap", join_job(left, right, left_column,
                                          right_column))
    service.run()
    assert job.status == DONE, job.error
    return job.result


class TestJoinParity:
    """The fused join, its materialized control and the service's
    ``join_job`` pair the same rows in the same order."""

    SIDES = {
        # Keys 1, 4 and 6 match many-to-many; 0 and 3 occur only on
        # the left, 2, 5 and 8 only on the right.
        "many_to_many": (
            [((0, 1, 3, 4, 6)[i % 5], f"l{i}") for i in range(90)],
            [((1, 2, 4, 5, 6, 8)[i % 6], f"r{i}") for i in range(70)],
        ),
        "empty_left": ([], [(k % 4, f"r{k}") for k in range(40)]),
        "empty_right": ([(k % 4, f"l{k}") for k in range(40)], []),
    }

    @pytest.mark.parametrize("backend", ["memory", "file"])
    @pytest.mark.parametrize("D", [1, 4])
    @pytest.mark.parametrize("sides", sorted(SIDES))
    def test_same_rows_in_same_order(self, tmp_path, backend, D, sides):
        disk = FileDiskArray(8, num_disks=D, path=str(tmp_path / "d")) \
            if backend == "file" else None
        m = Machine(block_size=8, memory_blocks=8, num_disks=D, disk=disk)
        left_rows, right_rows = self.SIDES[sides]
        left = Table.from_rows(m, ("k", "l"), left_rows, name="l")
        right = Table.from_rows(m, ("k", "r"), right_rows, name="r")
        m.runtime.flush()
        blocks = m.disk.allocated_blocks
        answers = []
        for join in (sort_merge_join, sort_merge_join_materialized,
                     _service_join):
            result = join(left, right, "k", "k")
            answers.append(list(result.rows()))
            result.delete()
            m.runtime.flush()
            assert m.budget.in_use == 0, join.__name__
            assert m.disk.allocated_blocks == blocks, join.__name__
        expected = sorted(reference_join(left_rows, right_rows, 0, 0),
                          key=lambda row: row[0])
        assert sorted(answers[0]) == sorted(expected)
        assert [row[0] for row in answers[0]] == \
            [row[0] for row in expected]
        assert answers[1] == answers[0]
        assert answers[2] == answers[0]


FAILING_CALLS = {
    "grace": lambda l, r: grace_hash_join(l, r, "k", "k"),
    "bnl": lambda l, r: block_nested_loop_join(l, r, "k", "k"),
    "hash_group_by": lambda l, r: hash_group_by(r, "k", [("count", "p")]),
    "smj": lambda l, r: sort_merge_join(l, r, "k", "k"),
    "smj_materialized":
        lambda l, r: sort_merge_join_materialized(l, r, "k", "k"),
}


class TestFailureCleanup:
    @pytest.mark.parametrize("call", sorted(FAILING_CALLS))
    def test_failed_call_frees_blocks_and_budget(self, call):
        """A call whose read or write exhausts its retries gives back
        every block and budget record it took, and its input readers
        are closed by the time the caller sees the exception (a service
        job keeps its exception).  The second build side is larger than
        one block nested loop load, and runs every fault plan."""
        for build_rows, enough in ((100, 4), (1000, 40)):
            build, probe = foreign_key_relations(build_rows, 1500)
            failures = 0
            for seed in range(40):
                m = Machine(block_size=16, memory_blocks=12)
                left = Table.from_rows(m, ("k", "b"), build, name="l")
                right = Table.from_rows(m, ("k", "p"), probe, name="r")
                gc.collect()
                blocks, in_use = m.disk.allocated_blocks, m.budget.in_use
                plan = FaultPlan(seed=seed, read_error_rate=0.3,
                                 write_error_rate=0.2)
                try:
                    with m.inject_faults(plan):
                        FAILING_CALLS[call](left, right)
                except EMError:
                    failures += 1
                    assert m.budget.in_use == in_use, (build_rows, seed)
                else:
                    continue
                gc.collect()
                assert m.disk.allocated_blocks == blocks, (build_rows, seed)
                if failures == enough:
                    break
            assert failures >= 4, (
                f"only {failures} of 40 fault plans failed {call}")


class TestJoinIOProfiles:
    def test_hash_join_beats_bnl_for_large_build_side(self):
        build, probe = foreign_key_relations(2000, 2000, seed=4)
        m1 = machine(B=16, m=8)
        L1 = Table.from_rows(m1, ("id", "b"), build)
        R1 = Table.from_rows(m1, ("fk", "p"), probe)
        with m1.measure() as io_hash:
            grace_hash_join(L1, R1, "id", "fk")
        m2 = machine(B=16, m=8)
        L2 = Table.from_rows(m2, ("id", "b"), build)
        R2 = Table.from_rows(m2, ("fk", "p"), probe)
        with m2.measure() as io_bnl:
            block_nested_loop_join(L2, R2, "id", "fk")
        assert io_hash.total < io_bnl.total

    def test_bnl_wins_when_build_fits_in_memory(self):
        build, probe = foreign_key_relations(50, 3000, seed=5)
        m1 = machine(B=16, m=8)
        L1 = Table.from_rows(m1, ("id", "b"), build)
        R1 = Table.from_rows(m1, ("fk", "p"), probe)
        with m1.measure() as io_bnl:
            block_nested_loop_join(L1, R1, "id", "fk")
        m2 = machine(B=16, m=8)
        L2 = Table.from_rows(m2, ("id", "b"), build)
        R2 = Table.from_rows(m2, ("fk", "p"), probe)
        with m2.measure() as io_smj:
            sort_merge_join(L2, R2, "id", "fk")
        assert io_bnl.total < io_smj.total
