"""Frame plans of the graph contraction rounds across machine shapes.

Hook-and-contract connectivity, Borůvka and semi-external Kruskal run
every sort as a pipelined Sorter whose pull shares memory with a lookup
scan, a writer, the next Sorter's run buffer or the union-find.  Over
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
    semi_external_kruskal,
)
from repro.workloads import components_graph, connected_random_graph

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


# Twice as many vertices as M: multi-round, multi-run sorts that merge
# down to the pull width.  Half of M: single-run sorts.
CASES = {
    "components": lambda B, m: components_case(2 * B * m),
    "components-small": lambda B, m: components_case(B * m // 2),
    "boruvka": lambda B, m: boruvka_case(2 * B * m),
    "boruvka-small": lambda B, m: boruvka_case(B * m // 2),
    "kruskal": kruskal_case,
}


def normalized(algorithm, result):
    if algorithm.startswith("components"):
        return result
    total, chosen = result
    return total, sorted(chosen)


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
