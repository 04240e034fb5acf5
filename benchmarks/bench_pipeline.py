"""F25 (extension) — pipelined (fused) vs materialized sort boundaries.

Paper claim: TPIE/STXXL-style pipelining feeds a producer's records
straight into run formation and pulls the consumer straight out of the
final merge, so neither the unsorted input nor the sorted output ever
exists as a stream on disk — each fused boundary skips ~2·(N/DB) I/Os
(one write + one read of the data), a constant-factor saving that
compounds across multi-sort algorithms.

Reproduction: the three refactored consumers — sort-merge join,
time-forward processing, and recursive list ranking — each run fused
(`repro.pipeline.Sorter` boundaries) and as their materialized
controls, the same code with every sort written to disk and sorted by
`external_merge_sort` (the join control drives the cooperative
`sort_merge_join_steps`, which sorts each side to disk with
`merge_sort_steps` and pairs the merged sides with the fused join's
key-group routine); same inputs, same machine; I/O counts are
compared.
The machine is sized so the final-merge fan-in covers the run counts
(m = 48): on smaller machines the fused plan degrades toward the
materialized pass structure and the gap narrows to zero, never negative.
"""

import random

from conftest import report

from repro.core import Machine
from repro.graph import (
    list_ranking,
    list_ranking_materialized,
    time_forward_process,
    time_forward_process_materialized,
)
from repro.relational import (
    Table,
    sort_merge_join,
    sort_merge_join_materialized,
)
from repro.workloads import foreign_key_relations, random_linked_list

B, M_BLOCKS = 64, 48  # final merge width must cover the run count


def machine():
    return Machine(block_size=B, memory_blocks=M_BLOCKS)


def random_dag(n, avg_out, seed):
    rng = random.Random(seed)
    edges = set()
    target = min(int(n * avg_out), n * (n - 1) // 2)
    while len(edges) < target:
        u = rng.randrange(n - 1)
        edges.add((u, rng.randrange(u + 1, n)))
    return sorted(edges)


def join_pair(n, fused):
    build, probe = foreign_key_relations(n // 20, n, seed=41)
    m = machine()
    left = Table.from_rows(m, ("k", "b"), build, name="build")
    right = Table.from_rows(m, ("k", "p"), probe, name="probe")
    join = sort_merge_join if fused else sort_merge_join_materialized
    with m.measure() as io:
        result = join(left, right, "k", "k", name="out")
    size = len(result)
    result.delete()
    return io.total, io.total_steps, size


def tfp_pair(n, fused):
    edges = random_dag(n, avg_out=4, seed=42)

    def compute(vertex, incoming):
        return 1 + max(incoming) if incoming else 0

    m = machine()
    run = time_forward_process if fused \
        else time_forward_process_materialized
    with m.measure() as io:
        result = run(m, n, iter(edges), compute)
    return io.total, io.total_steps, len(result)


def listrank_pair(n, fused):
    pairs = random_linked_list(n, seed=43)
    m = machine()
    run = list_ranking if fused else list_ranking_materialized
    with m.measure() as io:
        result = run(m, pairs, seed=44)
    return io.total, io.total_steps, len(result)


def run_experiment():
    rows = []
    for label, pair, n in (
        ("join", join_pair, 12_000),
        ("join", join_pair, 24_000),
        ("time-forward", tfp_pair, 6_000),
        ("time-forward", tfp_pair, 12_000),
        ("list-ranking", listrank_pair, 12_000),
        ("list-ranking", listrank_pair, 24_000),
    ):
        fused_io, fused_steps, fused_out = pair(n, fused=True)
        mat_io, mat_steps, mat_out = pair(n, fused=False)
        assert fused_out == mat_out  # same answer both ways
        assert fused_io < mat_io  # fusion must win on this geometry
        assert fused_steps < mat_steps  # and on wall steps
        saved = 1 - fused_io / mat_io
        rows.append([label, n, fused_io, mat_io,
                     fused_steps, mat_steps, f"{saved:.1%}"])
    return rows


def test_f25_pipelining(once):
    rows = once(run_experiment)
    report(
        "F25", "fused vs materialized sort boundaries (per run)",
        ["consumer", "N", "fused I/O", "mat. I/O",
         "fused steps", "mat. steps", "I/O saved"],
        rows,
    )
