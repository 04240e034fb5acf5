"""Assemble EXPERIMENTS.md from the benchmark result tables.

Run the benchmarks first (they write ``benchmarks/results/*.txt``), then:

    python tools/build_experiments.py

Each experiment entry pairs the survey's claim with the measured series
and a short verdict on whether the claimed *shape* reproduced.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "benchmarks", "results")

CLAIMS = [
    ("T1", "Fundamental bounds table",
     "Scan = Θ(N/B); Sort = Θ((N/B)·log_{M/B}(N/B)); Search = Θ(log_B N) "
     "per query; Output = Θ(log_B N + Z/B).",
     "All four measured costs track the closed forms: scans are exact, "
     "sorting is exact or slightly below (straggler-run optimization), "
     "searches equal the B-tree height, and range reporting adds ~Z/B."),
    ("F1", "Sorting scales as (N/B)·passes",
     "External merge sort performs 2·(N/B)·(1 + ceil(log_{m-1}(N/M))) "
     "I/Os: piecewise linear in N, one extra pass at each fan-in power.",
     "Measured/theory ratio is 0.995–1.000 across a 64x size sweep; the "
     "pass column shows the log_{M/B} staircase."),
    ("F2", "Merge fan-in ablation (log_2 vs log_{M/B})",
     "The base of the logarithm is the external-memory win: 2-way "
     "merging needs log_2(N/M) passes, full fan-in log_{m-1}(N/M).",
     "Implied pass counts match the formula exactly for every fan-in "
     "(7.95 / 5.00 / 4.00 / 3.00); 2-way costs 2.6x the I/O of 15-way "
     "on the same input."),
    ("F3", "Merge vs distribution sort",
     "Both optimal sorting paradigms meet the same bound; they differ "
     "in constants and in distribution's sensitivity to pivot quality.",
     "Both are within small constants of the bound on uniform and "
     "Zipf-skewed keys; merge sits exactly on the bound and "
     "distribution within 1.2–1.5x of it (its fan-out spends memory on "
     "pivot and equality buckets)."),
    ("F4", "Replacement selection doubles run length",
     "Expected run length 2M on random input (Knuth); one run on sorted "
     "input; M on reverse-sorted input.",
     "Mean run length / heap size = 1.94 on random input, exactly one "
     "run when sorted, 0.99 when reversed — the classic table, plus a "
     "nearly-sorted row collapsing 40 runs to 2."),
    ("F5", "Permuting = Θ(min(N, Sort(N)))",
     "Moving records one-by-one costs ~2N I/Os; routing them by sorting "
     "costs Sort(N).  The winner flips as B grows: permuting is as hard "
     "as sorting except for tiny blocks.",
     "Naive wins at B=1–2; sort-based wins from B=8 up — by 22x at "
     "B=64 and 102x at B=256, the tags going through a pipelined "
     "Sorter.  The dispatcher picks the winner on both sides."),
    ("F6", "Matrix transpose",
     "With a B×B tile resident, transpose is one read + one write pass "
     "(2N/B); the RAM column loop degenerates toward one I/O per "
     "element once columns exceed the pool.",
     "Blocked transpose measures exactly 2N/B at every size; the naive "
     "loop ties while the matrix still fits the pool (32x32) and is "
     "8.5x worse beyond."),
    ("F7", "B-tree search and range queries",
     "Point queries cost the height ~log_B N; bigger B flattens the "
     "tree; range queries cost log_B N + Z/B.",
     "Cold lookups equal the height at every N; the height falls from "
     "6 to 2 as B grows 8→512; range cost is linear in Z (100x output "
     "costs 26x the I/O, the log_B N term amortizing away)."),
    ("F8", "Buffer tree amortization",
     "Attaching M-sized buffers gives amortized O((1/B)·log_{M/B}(N/B)) "
     "per update — ~B times cheaper than a B-tree insert — and routing "
     "N records through it sorts at O(Sort(N)).",
     "Buffer-tree inserts cost 0.17–0.21 I/Os per op vs 1.6–2.3 for "
     "the B-tree: a 9–11x speedup; buffer-tree sorting lands within "
     "2.8x of the merge-sort bound."),
    ("F9", "External priority queue",
     "N inserts + N delete-mins cost O(Sort(N)) total — the engine of "
     "time-forward processing — versus Θ(log_B N) per op for a "
     "tree-based queue.",
     "The sequence heap lands just under the Sort(N) estimate; the "
     "B-tree queue pays 21–23x more I/O on the same workload."),
    ("F10", "List ranking",
     "Pointer chasing through a randomly stored list costs ~1 I/O per "
     "hop; independent-set contraction ranks in O(Sort(N)) expected.",
     "Chasing climbs to ~0.96 I/O per hop once lists outgrow the pool; "
     "contraction costs 0.09–0.28 I/O per record and wins at every size "
     "(3.5x at 80k, B=256), its share of chasing's cost falling from "
     "0.36 at 5k to 0.23–0.29 beyond — ~6 pipelined sorts per level, "
     "the small ones kept in memory."),
    ("F11", "External BFS (Munagala–Ranade)",
     "Naive BFS pays ~1 random I/O per edge against its on-disk visited "
     "structure; MR-BFS costs O(V + Sort(E)).  Meshes' locality narrows "
     "the gap, random layouts show it in full.",
     "MR-BFS beats the fully external naive BFS 5.3x on the random "
     "graph and 3.6x on the grid, whose locality softens the naive "
     "baseline — both halves as predicted.  Each level is one "
     "pipelined sort pulled straight through the dedupe-and-subtract "
     "scan."),
    ("F12", "Parallel disks (PDM)",
     "One I/O step moves D blocks, so striped scans speed up ~D; "
     "striped sorting gains less because each striped run costs D "
     "frames, shrinking the fan-in (striping loses part of the log "
     "factor).",
     "Scan steps speed up 2.0/4.0/7.9x at D=2/4/8.  The sort does the "
     "same 2,500 transfers at every D — forecasting prefetch and "
     "write-behind keep the full fan-in that striping alone would "
     "lose — and its steps speed up 2.0/3.9/6.3x, within 1.26x of "
     "step-optimal at D=8."),
    ("F13", "Paging-policy ablation",
     "The model assumes favorable paging; LRU is the online stand-in, "
     "MIN (Belady) the offline optimum.  The cyclic-scan trace is LRU's "
     "classic worst case.",
     "On the loop trace LRU misses 100% while MRU/MIN retain the loop "
     "(52 misses); on the hot/cold trace LRU ≤ Clock ≤ FIFO; on the "
     "uniform trace the online policies tie; MIN dominates everything "
     "everywhere."),
    ("F14", "Extendible hashing",
     "Exact-match lookups cost O(1) I/Os at any size — the tradeoff "
     "being no ordered access — versus the B-tree's log_B N.",
     "Hash lookups measure exactly 1.0 I/O from 2k to 128k keys; "
     "B-tree lookups grow 3→4 with the height."),
    ("F15", "Database joins",
     "Sort-merge = Sort(R)+Sort(S); Grace hash ≈ 3(scan R + scan S); "
     "block nested loop = scan R + ceil(|R|/M)·scan S — best only while "
     "the build side fits in memory.",
     "BNL wins while the build side is within a few memoryloads (300 "
     "and 2000 rows); at 8000 rows BNL is worst and sort-merge takes "
     "over (Grace hash pays recursive re-partitioning at this small M) "
     "— the textbook crossover, with the sort/hash order set by "
     "constants."),
    ("F16", "Distribution sweeping: segment intersection",
     "Batched orthogonal segment intersection runs in O(Sort(N) + Z/B) "
     "versus the quadratic all-pairs baseline.",
     "The sweep grows near-linearly while the baseline grows "
     "quadratically; the crossover lands between 8k and 32k segments "
     "and the sweep wins 1.6x at the largest size."),
    ("F17", "Connected components",
     "Hook-and-contract solves connectivity in O(Sort(E)·log V) versus "
     "~1 random I/O per vertex for DFS; the semi-external union-find "
     "scan is cheapest but needs V in memory.",
     "Contraction beats DFS at both sizes (2.5–3.1x); the semi-external "
     "scan is two orders of magnitude cheaper than either, quantifying "
     "exactly what holding V in RAM buys. Every sort of a round is a "
     "pipelined `Sorter`, so no sort input or output is written; only "
     "streams read twice (labels, the edge list, the pointer-jump "
     "pointers, the round's roots) stay on disk."),
    ("F18", "Time-forward processing",
     "Evaluating a local DAG function costs O(Sort(E)) by sending "
     "values forward through an external PQ, versus ~1 I/O per edge of "
     "value-table pointer chasing.",
     "Time-forward wins 2.5x at 4k vertices growing to 5.1x at 16k — "
     "the batched PQ amortization at work."),
    ("F19", "External Dijkstra",
     "Shortest paths inherit the PQ separation: a batched sequence-heap "
     "queue versus a per-operation tree queue.",
     "The sequence-heap Dijkstra beats the B-tree-PQ variant 1.5–1.6x "
     "on identical graphs; the shared per-edge settled-table traffic "
     "dilutes the pure PQ gap of F9, as the cost model predicts."),
    ("F20", "Batched dominance counting",
     "The distribution-sweeping template generalizes: 2-D dominance "
     "counts in O(Sort(N)) versus the all-pairs baseline.",
     "Near-linear sweep growth against quadratic baseline growth, with "
     "the crossover before 16k points where the sweep wins 1.9x — the "
     "same shape as F16 on a second problem."),
    ("F21", "Minimum spanning trees",
     "Semi-external Kruskal is Sort(E) + a scan when V fits in memory; "
     "fully external Borůvka pays O(log V) contraction rounds.",
     "Both compute identical forest weights (validated against "
     "networkx); Kruskal stays within Sort(2E) — it pushes the edges "
     "straight into a pipelined `Sorter` and pulls the sorted order "
     "beside the union-find — while Borůvka costs 11–18x more: the "
     "O(log V) contraction rounds, the price of not holding V in "
     "memory."),
    ("F22", "Selection vs sorting",
     "Order statistics need only O(scan(N)) I/Os; sorting pays the full "
     "log_{M/B} factor.",
     "Median extraction stays flat at 4.1–4.4 scans worth of I/O "
     "across a 16x size sweep while sorting grows with its pass count, "
     "stretching sorting's cost to 2.0x selection's."),
    ("F23", "External suffix-array construction",
     "Text indexes over corpora larger than memory are built with "
     "batched primitives: prefix doubling costs O(Sort(N)) per round "
     "and O(log N) rounds, with no random access to the text.",
     "I/O per suffix is 0.8–1.4 (≈11–13 Sort(N)-equivalents total, the "
     "log-round factor on a binary alphabet), versus the ~log2(N) ≈ 15 "
     "I/Os per suffix a random-access comparison build would pay; "
     "growth across a 16x sweep is logarithmic."),
]

HEADER = """# EXPERIMENTS — paper claims vs measured results

Every experiment from DESIGN.md's per-experiment index, regenerated by
`pytest benchmarks/ --benchmark-only`.  All numbers are **simulated-disk
I/O counts** (deterministic; see the substitution note in DESIGN.md).
Absolute constants are ours; the *shapes* — who wins, slopes, pass
counts, crossovers — are the survey's claims, and each benchmark asserts
them programmatically.

Machine configurations are stated in each table header (`B` records per
block, `m` frames, `M = m·B` records of memory, `D` disks).

"""


def main() -> int:
    sections = [HEADER]
    missing = []
    for name, title, claim, verdict in CLAIMS:
        path = os.path.join(RESULTS, f"{name}.txt")
        if os.path.exists(path):
            with open(path) as fh:
                table = fh.read().strip()
            table_block = "```\n" + table + "\n```"
        else:
            table_block = "*(results file missing — run the benchmarks)*"
            missing.append(name)
        sections.append(
            f"## {name} — {title}\n\n"
            f"**Paper claim.** {claim}\n\n"
            f"**Measured.**\n\n{table_block}\n\n"
            f"**Verdict.** {verdict}\n"
        )
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), "w") as fh:
        fh.write("\n".join(sections))
    print(f"wrote EXPERIMENTS.md ({len(CLAIMS)} experiments, "
          f"{len(missing)} missing: {missing})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
