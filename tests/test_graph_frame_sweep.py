"""Frame plans of the pipelined-Sorter algorithms across machine shapes.

Hook-and-contract connectivity, Borůvka, semi-external Kruskal, list
ranking, the sort-merge join, time-forward processing, suffix-array
doubling, Munagala–Ranade BFS, the Euler tour, both adjacency builders,
permuting and transposing by sort, DISTINCT and GROUP BY run their
sorts as pipelined Sorters whose pulls share memory with a lookup
scan, a writer, the next Sorter's run buffer, the union-find, a
priority queue, the join's key groups, two level scans or an output
buffer.  Over
``D ∈ {1, 2, 4}`` and ``(B, m) ∈ {(16, 8), (32, 16), (64, 48)}`` the
answer must be right, the budget peak must stay within ``M``, and both a
finished run and one killed mid-way by a fault plan must give back
every frame and every block.  The clean run's ``(reads, writes,
total_steps, budget.peak)`` must equal the pinned table in
``frame_sweep_counters.py``, so a change to any pull's schedule shows
up in that table's diff; ``python -m tests.test_graph_frame_sweep``
(with ``src`` on the path) prints the table afresh.
"""

import random

import pytest

from repro.core import FileStream, Machine
from repro.core.exceptions import RetryExhaustedError, SimulatedCrash
from repro.faults import FaultPlan
from repro.graph import (
    AdjacencyStore,
    build_euler_tour,
    external_boruvka,
    external_components,
    list_ranking,
    mr_bfs,
    semi_external_kruskal,
    time_forward_process,
    weighted_list_ranking,
)
from repro.matrix import ExternalMatrix, transpose_by_sort
from repro.permute import permute_by_sort
from repro.relational import Table, distinct, group_by, sort_merge_join
from repro.text import suffix_array, suffix_array_naive
from repro.workloads import (
    components_graph,
    connected_random_graph,
    distinct_ints,
    foreign_key_relations,
    random_linked_list,
)

from .frame_sweep_counters import COUNTERS

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


def bfs_case(n):
    n, edges = connected_random_graph(n, avg_degree=4, seed=13)
    neighbors = {v: set() for v in range(n)}
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    expected, frontier, level = {0: 0}, {0}, 0
    while frontier:
        level += 1
        frontier = {w for v in frontier for w in neighbors[v]
                    if w not in expected}
        expected.update((w, level) for w in frontier)

    def run(machine):
        adjacency = AdjacencyStore.from_edges(machine, n, edges)
        return lambda: mr_bfs(machine, adjacency, 0)

    return run, expected


def euler_case(n):
    """A random tree: arcs numbered in ``(dst, src)`` order, each arc
    followed by the arc leaving its head toward the next neighbor."""
    rng = random.Random(14)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    arcs = sorted(edges + [(v, u) for u, v in edges],
                  key=lambda arc: (arc[1], arc[0]))
    arc_id = {arc: i for i, arc in enumerate(arcs)}
    sources = {}
    for src, dst in arcs:
        sources.setdefault(dst, []).append(src)
    start = arc_id[(0, min(sources[0]))]
    successors = []
    for (src, dst), this in arc_id.items():
        around = sources[dst]
        succ = arc_id[(dst, around[(around.index(src) + 1) % len(around)])]
        successors.append((this, -1 if succ == start else succ))
    expected = (successors, {i: arc for arc, i in arc_id.items()})

    def run(machine):
        return lambda: build_euler_tour(machine, n, edges, 0)

    return run, expected


def adjacency_case(n, weights):
    """A multigraph with self-loops and repeated edges."""
    rng = random.Random(15)
    edges = [(rng.randrange(n), rng.randrange(n), rng.randint(1, 3))
             for _ in range(2 * n)]
    lists = {}
    for u, v, w in edges:
        if u != v:
            lists.setdefault(u, []).append((v, w) if weights else v)
            lists.setdefault(v, []).append((u, w) if weights else u)
    expected = {v: sorted(out if weights else set(out))
                for v, out in lists.items()}

    def run(machine):
        def call():
            if weights:
                store = AdjacencyStore.from_weighted_edges(machine, n, edges)
            else:
                store = AdjacencyStore.from_edges(
                    machine, n, [(u, v) for u, v, _ in edges])
            result = {v: store.neighbors(v) for v in range(n)
                      if store.degree(v)}
            store.delete()
            return result

        return call

    return run, expected


def permute_case(n):
    targets = distinct_ints(n, seed=16)
    expected = [None] * n
    for position, target in enumerate(targets):
        expected[target] = position

    def run(machine):
        stream = FileStream.from_records(machine, range(n))

        def call():
            permuted = permute_by_sort(machine, stream, targets)
            result = list(permuted)
            permuted.delete()
            return result

        return call

    return run, expected


def transpose_case(p, q):
    """A ``p × q`` matrix, neither side a multiple of ``B``.  The input
    is built inside the call: a matrix holds its staging frame."""
    def run(machine):
        def call():
            matrix = ExternalMatrix.from_function(
                machine, p, q, lambda i, j: i * q + j)
            try:
                result = transpose_by_sort(machine, matrix)
                try:
                    return result.to_rows()
                finally:
                    result.delete()
            finally:
                matrix.delete()

        return call

    return run, [[i * q + j for i in range(p)] for j in range(q)]


def table_case(n, operator):
    """``n`` rows over ``n / 8`` keys and four values."""
    rng = random.Random(17)
    rows = [(rng.randrange(n // 8), rng.randrange(4)) for _ in range(n)]
    if operator == "distinct":
        expected = sorted(set(rows))
    else:
        sums = {}
        for key, value in rows:
            total, count = sums.get(key, (0, 0))
            sums[key] = (total + value, count + 1)
        expected = [(key,) + sums[key] for key in sorted(sums)]

    def run(machine):
        table = Table.from_rows(machine, ("k", "v"), rows, name="t")

        def call():
            if operator == "distinct":
                out = distinct(table)
            else:
                out = group_by(table, "k", [("sum", "v"), ("count", "v")])
            result = list(out.rows())
            out.delete()
            return result

        return call

    return run, expected


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
    "mr-bfs": lambda B, m: bfs_case(2 * B * m),
    "euler-tour": lambda B, m: euler_case(B * m),
    "adjacency": lambda B, m: adjacency_case(B * m, weights=False),
    "adjacency-weighted": lambda B, m: adjacency_case(B * m, weights=True),
    "permute-by-sort": lambda B, m: permute_case(2 * B * m),
    "transpose-by-sort": lambda B, m: transpose_case(2 * m + 1, B - 1),
    "distinct": lambda B, m: table_case(2 * B * m, "distinct"),
    "group-by": lambda B, m: table_case(2 * B * m, "group-by"),
}

# Parallel steps of the materialized (pre-pipelining) rounds at the
# smallest shape on four disks; the pipelined rounds must not be slower.
STEP_CEILINGS = {
    ("components", 16, 8, 4): 1320,
    ("components-small", 16, 8, 4): 184,
    ("boruvka", 16, 8, 4): 1596,
    ("boruvka-small", 16, 8, 4): 326,
}


def counters(io, machine):
    """What the pinned table holds for one clean run."""
    return io.reads, io.writes, io.total_steps, machine.budget.peak


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
    assert counters(io, machine) == COUNTERS[algorithm, B, m, D]
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


if __name__ == "__main__":
    from . import frame_sweep_counters

    print(f'"""{frame_sweep_counters.__doc__}"""\n\nCOUNTERS = {{')
    for algorithm in sorted(CASES):
        for B, m in SHAPES:
            for D in DISKS:
                machine = Machine(block_size=B, memory_blocks=m,
                                  num_disks=D)
                call = CASES[algorithm](B, m)[0](machine)
                with machine.measure() as io:
                    call()
                print(f"    {(algorithm, B, m, D)!r}: "
                      f"{counters(io, machine)!r},")
    print("}")
