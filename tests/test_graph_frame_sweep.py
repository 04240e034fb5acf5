"""Frame plans of the pipelined-Sorter algorithms across machine shapes.

Hook-and-contract connectivity, Borůvka, semi-external Kruskal, list
ranking, the sort-merge join, time-forward processing and suffix-array
doubling run their sorts as pipelined Sorters whose pulls share memory
with a lookup scan, a writer, the next Sorter's run buffer, the
union-find, a priority queue or the join's key groups.  Over
``D ∈ {1, 2, 4}`` and ``(B, m) ∈ {(16, 8), (32, 16), (64, 48)}`` the
answer must be right, the budget peak must stay within ``M``, and both a
finished run and one killed mid-way by a fault plan must give back
every frame and every block.
"""

import random

import pytest

from repro.core import FileStream, Machine
from repro.core.exceptions import RetryExhaustedError, SimulatedCrash
from repro.faults import FaultPlan
from repro.graph import (
    external_boruvka,
    external_components,
    list_ranking,
    semi_external_kruskal,
    time_forward_process,
    weighted_list_ranking,
)
from repro.relational import Table, sort_merge_join
from repro.text import suffix_array, suffix_array_naive
from repro.workloads import (
    components_graph,
    connected_random_graph,
    foreign_key_relations,
    random_linked_list,
)

DISKS = [1, 2, 4]
SHAPES = [(16, 8), (32, 16), (64, 48)]


def weighted(n, seed):
    _, edges = connected_random_graph(n, avg_degree=4, seed=seed)
    rng = random.Random(seed)
    return [(u, v, rng.randint(1, 50)) for u, v in edges]


def reference_forest(num_vertices, wedges):
    """Kruskal in RAM with the library's tie-break (weight, position)."""
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    order = sorted(range(len(wedges)), key=lambda i: (wedges[i][2], i))
    for i in order:
        u, v, w = wedges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            chosen.append((u, v, w))
    return sum(w for _, _, w in chosen), sorted(chosen)


def components_case(n):
    n, edges, truth = components_graph(n, 4, seed=5)
    minimum = {}
    for vertex, component in enumerate(truth):
        minimum.setdefault(component, vertex)
    expected = {v: minimum[c] for v, c in enumerate(truth)}

    def run(machine):
        stream = FileStream.from_records(machine, edges)
        return lambda: external_components(machine, n, stream)

    return run, expected


def boruvka_case(n):
    wedges = weighted(n, seed=6)
    expected = reference_forest(n, wedges)

    def run(machine):
        return lambda: external_boruvka(machine, n, wedges)

    return run, expected


def kruskal_case(B, m):
    """Vertices filling all but about two frames of ``M``."""
    n = (m - 2) * B + B // 2
    wedges = weighted(n, seed=7)
    expected = reference_forest(n, wedges)

    def run(machine):
        return lambda: semi_external_kruskal(machine, n, wedges)

    return run, expected


def ranking_case(B, m, weighted=False):
    """A list of twice ``M`` nodes: contraction rounds, then the base."""
    pairs = random_linked_list(2 * B * m, seed=8)
    weight = {node: node % 5 - 2 for node, _ in pairs}
    successor = dict(pairs)
    head = (set(successor) - set(successor.values())).pop()
    expected, rank, node = {}, 0, head
    while node != -1:
        expected[node] = rank
        rank += weight[node] if weighted else 1
        node = successor[node]
    if weighted:
        triples = [(node, succ, weight[node]) for node, succ in pairs]
        return (lambda machine: lambda: weighted_list_ranking(
            machine, triples, seed=3)), expected
    return (lambda machine: lambda: list_ranking(machine, pairs, seed=3)), \
        expected


def join_rows(left_rows, right_rows):
    """The join in RAM, in the pipelined join's output order."""
    matches = {}
    for row in right_rows:
        matches.setdefault(row[0], []).append(row)
    return [tuple(left) + tuple(right)
            for left in sorted(left_rows, key=lambda row: row[0])
            for right in matches.get(left[0], ())]


def join_case(build, probe):
    def run(machine):
        left = Table.from_rows(machine, ("k", "b"), build, name="l")
        right = Table.from_rows(machine, ("k", "p"), probe, name="r")

        def call():
            joined = sort_merge_join(left, right, "k", "k")
            rows = list(joined.rows())
            joined.delete()
            return rows

        return call

    return run, join_rows(build, probe)


def join_group_case(B, m):
    """One right-side key group as large as the group headroom the
    pipelined join guaranteed with two pulls of ``max(1, (m - 6) // 4)``
    readers each and a writer, beside ``2M`` other probe rows."""
    group = (m - 1 - 2 * max(1, (m - 6) // 4)) * B
    build, probe = foreign_key_relations(B * m // 4, 2 * B * m, seed=9)
    probe = [row for row in probe if row[0] != 7] \
        + [(7, f"g{i}") for i in range(group)]
    random.Random(9).shuffle(probe)
    return join_case(build, probe)


def timeforward_case(B, m):
    """Longest paths over a DAG of ``M`` vertices and about ``3M``
    edges."""
    n = B * m
    rng = random.Random(10)
    edges = sorted({(u, rng.randrange(u + 1, n))
                    for u in (rng.randrange(n - 1) for _ in range(3 * n))})
    depth = [0] * n
    for u, v in edges:
        depth[v] = max(depth[v], depth[u] + 1)

    def compute(vertex, incoming):
        return 1 + max(incoming) if incoming else 0

    def run(machine):
        return lambda: time_forward_process(machine, n, iter(edges),
                                            compute)

    return run, dict(enumerate(depth))


def suffix_case(B, m):
    rng = random.Random(11)
    text = "".join(rng.choice("ab") for _ in range(B * m))
    return (lambda machine: lambda: suffix_array(machine, text)), \
        suffix_array_naive(text)


# Twice as many vertices as M: multi-round, multi-run sorts that merge
# down to the pull width.  Half of M: single-run sorts.
CASES = {
    "components": lambda B, m: components_case(2 * B * m),
    "components-small": lambda B, m: components_case(B * m // 2),
    "boruvka": lambda B, m: boruvka_case(2 * B * m),
    "boruvka-small": lambda B, m: boruvka_case(B * m // 2),
    "kruskal": kruskal_case,
    "list-ranking": ranking_case,
    "weighted-list-ranking": lambda B, m: ranking_case(B, m, True),
    "join": lambda B, m: join_case(*foreign_key_relations(
        B * m // 4, 2 * B * m, seed=12)),
    "join-group": join_group_case,
    "time-forward": timeforward_case,
    "suffix-array": suffix_case,
}

# Parallel steps of the materialized (pre-pipelining) rounds at the
# smallest shape on four disks; the pipelined rounds must not be slower.
STEP_CEILINGS = {
    ("components", 16, 8, 4): 1320,
    ("components-small", 16, 8, 4): 184,
    ("boruvka", 16, 8, 4): 1596,
    ("boruvka-small", 16, 8, 4): 326,
}


def normalized(algorithm, result):
    if algorithm in ("boruvka", "boruvka-small", "kruskal"):
        total, chosen = result
        return total, sorted(chosen)
    return result


@pytest.mark.parametrize("algorithm", sorted(CASES))
@pytest.mark.parametrize("B,m", SHAPES)
@pytest.mark.parametrize("D", DISKS)
def test_frames_and_cleanup(algorithm, B, m, D):
    run, expected = CASES[algorithm](B, m)

    machine = Machine(block_size=B, memory_blocks=m, num_disks=D)
    call = run(machine)
    blocks = machine.disk.allocated_blocks
    with machine.measure() as io:
        result = call()
    assert normalized(algorithm, result) == expected
    assert io.total_steps <= STEP_CEILINGS.get((algorithm, B, m, D),
                                               io.total_steps)
    assert machine.budget.peak <= machine.M
    assert machine.budget.in_use == 0
    assert machine.disk.allocated_blocks == blocks

    # The same run killed by seeded read errors or, at the latest, a
    # crash half-way through its writes: nothing it held may outlive it.
    machine = Machine(block_size=B, memory_blocks=m, num_disks=D)
    call = run(machine)
    blocks = machine.disk.allocated_blocks
    plan = FaultPlan(seed=D * 1000 + B * m, read_error_rate=0.02,
                     crash_after_writes=io.writes // 2)
    with machine.inject_faults(plan):
        with pytest.raises((SimulatedCrash, RetryExhaustedError)):
            call()
    assert machine.budget.peak <= machine.M
    assert machine.budget.in_use == 0
    assert machine.disk.allocated_blocks == blocks
