"""Tests for permuting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, FileStream, Machine, sort_io
from repro.permute import (
    bit_reversal_permutation,
    permute,
    permute_by_sort,
    permute_naive,
)
from repro.workloads import distinct_ints


def machine(B=16, m=8):
    return Machine(block_size=B, memory_blocks=m)


def apply_reference(data, targets):
    out = [None] * len(data)
    for i, t in enumerate(targets):
        out[t] = data[i]
    return out


class TestCorrectness:
    @pytest.mark.parametrize("fn", [permute_naive, permute_by_sort, permute])
    def test_random_permutation(self, fn):
        m = machine()
        data = [f"r{i}" for i in range(500)]
        targets = distinct_ints(500, seed=3)
        out = fn(m, FileStream.from_records(m, data), targets)
        assert list(out) == apply_reference(data, targets)

    @pytest.mark.parametrize("fn", [permute_naive, permute_by_sort])
    def test_identity_permutation(self, fn):
        m = machine()
        data = list(range(200))
        out = fn(m, FileStream.from_records(m, data), list(range(200)))
        assert list(out) == data

    @pytest.mark.parametrize("fn", [permute_naive, permute_by_sort])
    def test_reversal_permutation(self, fn):
        m = machine()
        data = list(range(200))
        targets = list(range(199, -1, -1))
        out = fn(m, FileStream.from_records(m, data), targets)
        assert list(out) == list(reversed(data))

    @pytest.mark.parametrize("fn", [permute_naive, permute_by_sort, permute])
    def test_empty(self, fn):
        m = machine()
        out = fn(m, FileStream(m).finalize(), [])
        assert list(out) == []

    def test_length_mismatch_rejected(self):
        m = machine()
        s = FileStream.from_records(m, [1, 2, 3])
        with pytest.raises(ConfigurationError):
            permute(m, s, [0, 1])

    def test_non_permutation_rejected(self):
        m = machine()
        s = FileStream.from_records(m, [1, 2, 3])
        with pytest.raises(ConfigurationError):
            permute(m, s, [0, 0, 1])

    @given(st.integers(1, 300), st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_property_both_strategies_agree(self, n, seed):
        m = machine(B=8, m=4)
        data = list(range(n))
        targets = distinct_ints(n, seed=seed)
        s = FileStream.from_records(m, data)
        naive = list(permute_naive(m, s, targets))
        sorted_ = list(permute_by_sort(m, s, targets))
        assert naive == sorted_ == apply_reference(data, targets)


class TestIOBehaviour:
    def test_naive_costs_about_2n_on_random_permutation(self):
        m = machine(B=16, m=4)
        n = 2000
        s = FileStream.from_records(m, range(n))
        targets = distinct_ints(n, seed=5)
        with m.measure() as io:
            permute_naive(m, s, targets)
        assert io.total > n  # ~1 read + ~1 write per record
        assert io.total < 3 * n

    def test_naive_degrades_to_scan_on_identity(self):
        m = machine(B=16, m=4)
        n = 2000
        s = FileStream.from_records(m, range(n))
        with m.measure() as io:
            permute_naive(m, s, list(range(n)))
        # coalesced writes: ~3 I/Os per block, far below 2 per record
        assert io.total < 6 * (n // m.B)

    def test_sort_based_beats_naive_for_large_blocks(self):
        m1 = machine(B=64, m=8)
        n = 4000
        targets = distinct_ints(n, seed=6)
        s1 = FileStream.from_records(m1, range(n))
        with m1.measure() as io_naive:
            permute_naive(m1, s1, targets)
        m2 = machine(B=64, m=8)
        s2 = FileStream.from_records(m2, range(n))
        with m2.measure() as io_sort:
            permute_by_sort(m2, s2, targets)
        assert io_sort.total < io_naive.total

    def test_dispatcher_picks_cheaper_branch(self):
        # The F5 block sizes at m = 8: the naive branch wins on tiny
        # blocks, the sort from B = 8 on, and at every one the
        # dispatcher must take the branch that measures cheaper.
        n = 4000
        targets = distinct_ints(n, seed=7)
        expected = apply_reference(list(range(n)), targets)

        def measured(branch, B):
            m = machine(B=B, m=8)
            s = FileStream.from_records(m, range(n))
            with m.measure() as io:
                out = branch(m, s, targets)
            assert list(out) == expected
            return io.total

        for B in (1, 2, 8, 64, 256):
            cheaper = min(measured(permute_naive, B),
                          measured(permute_by_sort, B))
            assert measured(permute, B) == cheaper, B
        # Large blocks: sorting wins.
        assert measured(permute, 64) < 2 * n


class TestBitReversal:
    def test_is_a_permutation(self):
        targets = bit_reversal_permutation(6)
        assert sorted(targets) == list(range(64))

    def test_is_an_involution(self):
        targets = bit_reversal_permutation(5)
        assert all(targets[targets[i]] == i for i in range(32))

    def test_known_values(self):
        assert bit_reversal_permutation(3) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_permuting_by_bit_reversal(self):
        m = machine(B=8, m=4)
        data = list(range(64))
        targets = bit_reversal_permutation(6)
        out = permute(m, FileStream.from_records(m, data), targets)
        assert list(out) == apply_reference(data, targets)
