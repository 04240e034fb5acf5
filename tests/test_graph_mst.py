"""Tests for minimum spanning trees."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Machine, MemoryLimitExceeded
from repro.graph import external_boruvka, semi_external_kruskal
from repro.workloads import components_graph, connected_random_graph


def machine(B=32, m=16):
    return Machine(block_size=B, memory_blocks=m)


def weighted_graph(n, seed, avg_degree=5):
    _, edges = connected_random_graph(n, avg_degree=avg_degree, seed=seed)
    rng = random.Random(seed)
    return [(u, v, rng.randint(1, 1_000)) for u, v in edges]


def reference_weight(wedges):
    graph = nx.Graph()
    for u, v, w in wedges:
        if not graph.has_edge(u, v) or graph[u][v]["weight"] > w:
            graph.add_edge(u, v, weight=w)
    forest = nx.minimum_spanning_forest = nx.minimum_spanning_tree(graph)
    return sum(d["weight"] for _, _, d in forest.edges(data=True))


ALGORITHMS = [semi_external_kruskal, external_boruvka]


class TestMST:
    @pytest.mark.parametrize("mst", ALGORITHMS)
    def test_matches_networkx_weight(self, mst):
        n = 300
        wedges = weighted_graph(n, seed=1)
        total, chosen = mst(machine(), n, wedges)
        assert total == reference_weight(wedges)
        assert len(chosen) == n - 1

    @pytest.mark.parametrize("mst", ALGORITHMS)
    def test_chosen_edges_form_spanning_tree(self, mst):
        n = 200
        wedges = weighted_graph(n, seed=2)
        total, chosen = mst(machine(), n, wedges)
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_weighted_edges_from(chosen)
        assert nx.is_connected(graph)
        assert graph.number_of_edges() == n - 1
        assert sum(w for _, _, w in chosen) == total

    @pytest.mark.parametrize("mst", ALGORITHMS)
    def test_disconnected_graph_gives_forest(self, mst):
        n, edges, labels = components_graph(150, 5, seed=3)
        rng = random.Random(3)
        wedges = [(u, v, rng.randint(1, 100)) for u, v in edges]
        total, chosen = mst(machine(), n, wedges)
        assert len(chosen) == n - 5  # n - #components edges
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_weighted_edges_from(chosen)
        assert nx.number_connected_components(graph) == 5

    @pytest.mark.parametrize("mst", ALGORITHMS)
    def test_both_pick_same_weight_under_ties(self, mst):
        n = 120
        _, edges = connected_random_graph(n, avg_degree=4, seed=4)
        wedges = [(u, v, 7) for u, v in edges]  # all weights equal
        total, chosen = mst(machine(), n, wedges)
        assert total == 7 * (n - 1)
        assert len(chosen) == n - 1

    @pytest.mark.parametrize("mst", ALGORITHMS)
    def test_self_loops_ignored(self, mst):
        wedges = [(0, 0, 1), (0, 1, 5)]
        total, chosen = mst(machine(), 2, wedges)
        assert total == 5
        assert chosen == [(0, 1, 5)]

    @pytest.mark.parametrize("mst", ALGORITHMS)
    def test_parallel_edges_take_cheapest(self, mst):
        wedges = [(0, 1, 9), (0, 1, 2), (1, 2, 4)]
        total, chosen = mst(machine(), 3, wedges)
        assert total == 6
        assert (0, 1, 2) in chosen

    @pytest.mark.parametrize("mst", ALGORITHMS)
    def test_no_edges(self, mst):
        total, chosen = mst(machine(), 5, [])
        assert total == 0
        assert chosen == []

    @pytest.mark.parametrize("mst", ALGORITHMS)
    def test_out_of_range_edge_rejected(self, mst):
        with pytest.raises(ConfigurationError):
            mst(machine(), 2, [(0, 7, 1)])

    def test_kruskal_requires_vertices_in_memory(self):
        n = 5_000  # > M = 512
        wedges = weighted_graph(200, seed=5)
        with pytest.raises(MemoryLimitExceeded):
            semi_external_kruskal(machine(), n, wedges)

    @pytest.mark.parametrize("D", [1, 4])
    def test_kruskal_pulls_the_sort_beside_a_small_union_find(self, D):
        """With ``V`` far below ``M`` the union-find runs beside the
        sort's final merge: the sorted order is never written, the
        last memoryload is never spilled, and edges that fit in memory
        cost nothing."""
        n = 300
        wedges = weighted_graph(n, seed=9)
        m = Machine(block_size=16, memory_blocks=40, num_disks=D)
        with m.measure() as io:
            total, _ = semi_external_kruskal(m, n, wedges)
        assert total == reference_weight(wedges)
        assert io.writes < -(-len(wedges) // 16)
        assert io.reads == io.writes
        small = weighted_graph(100, seed=9)
        m = Machine(block_size=16, memory_blocks=32, num_disks=D)
        with m.measure() as io:
            semi_external_kruskal(m, 100, small)
        assert io.stats.total == 0
        assert m.budget.in_use == 0

    def test_boruvka_no_leaks(self):
        m = machine()
        n = 200
        wedges = weighted_graph(n, seed=6)
        before = m.disk.allocated_blocks
        external_boruvka(m, n, wedges)
        assert m.disk.allocated_blocks == before
        assert m.budget.in_use == 0

    def test_algorithms_agree_on_distinct_weights(self):
        n = 400
        _, edges = connected_random_graph(n, avg_degree=4, seed=7)
        wedges = [(u, v, i * 2 + 1) for i, (u, v) in enumerate(edges)]
        w1, c1 = semi_external_kruskal(machine(m=32), n, wedges)
        w2, c2 = external_boruvka(machine(), n, wedges)
        assert w1 == w2
        assert sorted(c1) == sorted(c2)  # unique MST when weights distinct

    @given(st.integers(2, 80), st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_matches_networkx(self, n, seed):
        wedges = weighted_graph(n, seed=seed, avg_degree=3)
        expected = reference_weight(wedges)
        w1, _ = semi_external_kruskal(machine(B=8, m=16), n, wedges)
        w2, _ = external_boruvka(machine(B=8, m=8), n, wedges)
        assert w1 == w2 == expected
