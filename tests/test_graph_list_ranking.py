"""Tests for list ranking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Machine
from repro.graph import (
    list_ranking,
    pointer_chase_ranking,
    weighted_list_ranking,
)
from repro.workloads import random_linked_list


def machine(B=16, m=8):
    return Machine(block_size=B, memory_blocks=m)


def reference_ranks(pairs):
    successor = dict(pairs)
    targets = {s for _, s in pairs if s != -1}
    head = next(v for v in successor if v not in targets)
    ranks = {}
    node, rank = head, 0
    while node != -1:
        ranks[node] = rank
        node = successor[node]
        rank += 1
    return ranks


class TestPointerChase:
    def test_matches_reference(self):
        m = machine()
        pairs = random_linked_list(500, seed=1)
        assert pointer_chase_ranking(m, pairs, 500) == reference_ranks(pairs)

    def test_costs_about_one_io_per_hop(self):
        m = machine(B=16, m=4)
        pairs = random_linked_list(2000, seed=2)
        with m.measure() as io:
            pointer_chase_ranking(m, pairs, 2000)
        assert io.reads > 1500  # nearly every hop misses

    def test_sequential_layout_is_cheap(self):
        """A list stored in logical order degenerates to a scan."""
        m = machine(B=16, m=4)
        pairs = [(i, i + 1) for i in range(1999)] + [(1999, -1)]
        with m.measure() as io:
            pointer_chase_ranking(m, pairs, 2000)
        assert io.reads < 2 * (2000 // 16) + 10

    def test_wrong_count_rejected(self):
        m = machine()
        with pytest.raises(ConfigurationError):
            pointer_chase_ranking(m, [(0, -1)], 2)

    def test_multiple_heads_rejected(self):
        m = machine()
        pairs = [(0, -1), (1, -1)]  # two lists
        with pytest.raises(ConfigurationError):
            pointer_chase_ranking(m, pairs, 2)


class TestContractionRanking:
    def test_matches_reference_small(self):
        m = machine()
        pairs = random_linked_list(50, seed=3)
        assert list_ranking(m, pairs) == reference_ranks(pairs)

    def test_matches_reference_with_recursion(self):
        # N = 2000 >> M = 128 forces several contraction rounds.
        m = machine()
        pairs = random_linked_list(2000, seed=4)
        assert list_ranking(m, pairs) == reference_ranks(pairs)

    def test_matches_pointer_chase(self):
        m1, m2 = machine(), machine()
        pairs = random_linked_list(1200, seed=5)
        assert list_ranking(m1, pairs) == pointer_chase_ranking(
            m2, pairs, 1200
        )

    def test_single_node(self):
        m = machine()
        assert list_ranking(m, [(0, -1)]) == {0: 0}

    def test_two_nodes(self):
        m = machine()
        assert list_ranking(m, [(1, 0), (0, -1)]) == {1: 0, 0: 1}

    def test_empty(self):
        m = machine()
        assert list_ranking(m, []) == {}

    def test_sequential_list(self):
        m = machine()
        pairs = [(i, i + 1) for i in range(999)] + [(999, -1)]
        ranks = list_ranking(m, pairs)
        assert ranks == {i: i for i in range(1000)}

    def test_reverse_stored_list(self):
        m = machine()
        pairs = [(i, i - 1) for i in range(1000, 0, -1)] + [(0, -1)]
        ranks = list_ranking(m, pairs)
        assert ranks[1000] == 0
        assert ranks[0] == 1000

    def test_no_leaks(self):
        m = machine()
        pairs = random_linked_list(1500, seed=6)
        before = m.disk.allocated_blocks
        list_ranking(m, pairs)
        assert m.disk.allocated_blocks == before
        assert m.budget.in_use == 0

    def test_different_seeds_agree(self):
        pairs = random_linked_list(800, seed=7)
        results = {
            frozenset(list_ranking(machine(), pairs, seed=s).items())
            for s in range(3)
        }
        assert len(results) == 1

    @given(st.integers(1, 400), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_matches_reference(self, n, seed):
        m = machine(B=8, m=6)
        pairs = random_linked_list(n, seed=seed)
        assert list_ranking(m, pairs) == reference_ranks(pairs)


class TestTypedInput:
    """The contraction runs on int64 records: inputs that do not fit
    must be rejected, never rounded or truncated."""

    def test_negative_node_ids(self):
        # 2,000 nodes with ids below -1 and the -1 tail: several rounds.
        ids = [-(3 * i + 2) for i in range(2000)]
        import random

        random.Random(9).shuffle(ids)
        pairs = [(ids[i], ids[i + 1]) for i in range(1999)]
        pairs.append((ids[-1], -1))
        random.Random(10).shuffle(pairs)
        assert list_ranking(machine(), pairs) == reference_ranks(pairs)

    def test_tail_and_int64_extremes(self):
        top = 2 ** 63 - 1
        bottom = -(2 ** 63)
        pairs = [(bottom, top), (top, 0), (0, -1)]
        assert list_ranking(machine(), pairs) == {bottom: 0, top: 1, 0: 2}

    def test_numpy_and_bool_values_accepted(self):
        import numpy as np

        pairs = [(np.int64(1), np.int32(0)), (0, -1)]
        assert list_ranking(machine(), pairs) == {1: 0, 0: 1}
        triples = [(1, 0, True), (0, -1, False)]
        assert weighted_list_ranking(machine(), triples) == {1: 0, 0: 1}

    @pytest.mark.parametrize("pairs", [
        [(0, 1.0), (1.0, -1)],          # integral floats are not ids
        [(0.5, -1)],
        [("a", -1)],
        [(0, None), (None, -1)],
    ])
    def test_non_integer_ids_rejected(self, pairs):
        with pytest.raises(ConfigurationError):
            list_ranking(machine(), pairs)

    @pytest.mark.parametrize("pairs", [
        [(0, 2 ** 63), (2 ** 63, -1)],
        [(0, -(2 ** 63) - 1), (-(2 ** 63) - 1, -1)],
        [(0, 2 ** 64), (2 ** 64, -1)],
    ])
    def test_ids_beyond_int64_rejected(self, pairs):
        with pytest.raises(ConfigurationError):
            list_ranking(machine(), pairs)

    def test_malformed_tuples_rejected(self):
        with pytest.raises(ConfigurationError):
            list_ranking(machine(), [(0, 1, 5), (1, -1, 5)])
        with pytest.raises(ConfigurationError):
            weighted_list_ranking(machine(), [(0, 1), (1, -1)])

    def test_float_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_list_ranking(machine(), [(0, 1, 0.5), (1, -1, 2)])
        with pytest.raises(ConfigurationError):
            weighted_list_ranking(machine(), [(0, 1, 2.0), (1, -1, 2)])

    def test_weights_that_could_overflow_rejected(self):
        big = 2 ** 62
        with pytest.raises(ConfigurationError):
            weighted_list_ranking(
                machine(), [(0, 1, big), (1, 2, big), (2, -1, 1)])
        # Half the magnitude fits, and ranks exactly.
        half = 2 ** 61
        assert weighted_list_ranking(
            machine(), [(0, 1, half), (1, 2, -half), (2, -1, 1)]
        ) == {0: 0, 1: half, 2: 0}

    def test_rejection_mid_stream_leaks_nothing(self):
        m = machine()
        pairs = random_linked_list(1000, seed=11)
        pairs[700] = (pairs[700][0], 0.5)
        with pytest.raises(ConfigurationError):
            list_ranking(m, pairs)
        assert m.disk.allocated_blocks == 0
        assert m.budget.in_use == 0
