"""F24 — multi-tenant service: interleaving, fair shares, tail latency.

Paper link: Vitter's survey treats the machine as dedicated to one
algorithm; a query service multiplexes it.  This experiment runs a
chaos mix — an OLTP tenant issuing B+-tree and hash point reads against
an OLAP tenant running external sorts and a sort-merge join — through
``repro.service`` and measures what the multi-tenant layer claims:

* the *interleaved* schedule beats the *serial* baseline on total wall
  steps (cross-job waves share parallel-disk steps);
* each tenant's hard-memory peak stays within its fair share;
* under a fault plan targeting OLAP blocks, the OLAP tenant degrades
  alone — OLTP's ledger shows zero faults, retries, and stalls, and its
  tail latency is unchanged while OLAP's wall-clock tail widens.

Per tenant the series reports completed jobs, I/O steps, and p50/p99
latency on both clocks (transfer steps and wall steps).
"""

import random

from conftest import report

from repro.core import FileStream, Machine
from repro.faults import FaultPlan
from repro.relational import Table
from repro.search import BPlusTree
from repro.search.hashing import ExtendibleHashTable
from repro.service import (
    QueryService,
    btree_lookup_job,
    hash_lookup_job,
    join_job,
    sort_job,
)

B, M_BLOCKS, DISKS = 16, 16, 4
TREE_N, HASH_N, SORT_N, JOIN_N = 2_000, 600, 1_500, 400
OLTP_LOOKUPS = 48


def build_machine():
    machine = Machine(block_size=B, memory_blocks=M_BLOCKS,
                      num_disks=DISKS)
    tree = BPlusTree.bulk_load(
        machine, ((i, 2 * i) for i in range(TREE_N))
    )
    table = ExtendibleHashTable(machine)
    for i in range(HASH_N):
        table.insert(i, -i)
    rng = random.Random(3)
    sort_in = FileStream.from_records(
        machine, [rng.randrange(10 * SORT_N) for _ in range(SORT_N)],
        name="olap/sort-in",
    )
    left = Table.from_rows(
        machine, ["k", "a"],
        [(rng.randrange(80), i) for i in range(JOIN_N)], name="L",
    )
    right = Table.from_rows(
        machine, ["k", "b"],
        [(rng.randrange(80), -i) for i in range(JOIN_N // 2)], name="R",
    )
    machine.pool.flush_all()
    machine.runtime.flush()
    machine.reset_stats()
    return machine, tree, table, sort_in, left, right


def submit_chaos_mix(service, machine, tree, table, sort_in, left, right):
    rng = random.Random(5)
    for _ in range(OLTP_LOOKUPS // 2):
        service.submit("oltp", btree_lookup_job(
            tree, rng.randrange(TREE_N)
        ))
        service.submit("oltp", hash_lookup_job(
            table, rng.randrange(HASH_N)
        ))
    service.submit("olap", sort_job(machine, sort_in, name="bigsort"))
    service.submit("olap", join_job(left, right, "k", "k"))


def run_service(max_running=None, fault_plan=None):
    machine, tree, table, sort_in, left, right = build_machine()
    service = QueryService(machine, max_running=max_running)
    oltp = service.add_tenant("oltp", weight=1, max_running=8)
    # OLAP runs one job at a time: two concurrent sorts inside one
    # share halve each other's memoryloads and add merge passes,
    # costing more than the interleaving saves.  The win measured
    # here is cross-tenant wave sharing, not intra-tenant overlap.
    olap = service.add_tenant("olap", weight=2, max_running=1)
    submit_chaos_mix(service, machine, tree, table, sort_in, left, right)
    if fault_plan is None:
        service_report = service.run()
    else:
        victim_blocks = dict.fromkeys(list(sort_in.block_ids)[:1], 2)
        plan = FaultPlan(seed=fault_plan,
                         fail_block_reads=victim_blocks)
        with machine.inject_faults(plan):
            service_report = service.run()
    for tenant in (oltp, olap):
        assert tenant.metrics.failed == 0, (
            f"{tenant.name}: {tenant.metrics.failed} job(s) failed")
        assert tenant.share.peak <= tenant.share.capacity, (
            f"{tenant.name}: peak {tenant.share.peak} exceeds share "
            f"{tenant.share.capacity}"
        )
    assert machine.budget.in_use == 0
    return service_report


def run_experiment():
    interleaved = run_service()
    serial = run_service(max_running=1)
    faulted = run_service(fault_plan=11)

    # The headline claim: sharing waves across concurrent jobs beats
    # running the same mix one job at a time.
    assert (interleaved["total_wall_steps"]
            < serial["total_wall_steps"]), (
        f"interleaved {interleaved['total_wall_steps']} wall steps vs "
        f"serial {serial['total_wall_steps']}"
    )

    # Fault isolation: only the OLAP tenant pays for its bad blocks.
    clean_oltp = interleaved["tenants"]["oltp"]
    faulted_oltp = faulted["tenants"]["oltp"]
    faulted_olap = faulted["tenants"]["olap"]
    for tenant_row in (faulted_oltp,):
        assert tenant_row["faults"] == 0
        assert tenant_row["retries"] == 0
        assert tenant_row["stall_steps"] == 0
    assert faulted_olap["faults"] > 0
    assert faulted_olap["stall_steps"] > 0
    assert faulted_olap["p99_wall"] > faulted_olap["p99_io"]
    assert clean_oltp["completed"] == faulted_oltp["completed"]

    rows = []
    for label, service_report in (("interleaved", interleaved),
                                  ("serial", serial),
                                  ("faulted", faulted)):
        for name, tenant_row in sorted(
                service_report["tenants"].items()):
            rows.append([
                label, name,
                tenant_row["completed"],
                tenant_row["io_steps"],
                tenant_row["stall_steps"],
                tenant_row["p50_io"], tenant_row["p99_io"],
                tenant_row["p50_wall"], tenant_row["p99_wall"],
            ])
        rows.append([
            label, "(total)", "",
            service_report["total_io_steps"],
            service_report["total_stall_steps"],
            "", "", "",
            service_report["total_wall_steps"],
        ])
    return rows


def test_f24_service(once):
    rows = once(run_experiment)
    report(
        "F24",
        "multi-tenant service: per-tenant steps and p50/p99 latency "
        f"(B={B}, m={M_BLOCKS}, D={DISKS})",
        ["schedule", "tenant", "done", "io_steps", "stalls",
         "p50_io", "p99_io", "p50_wall", "p99_wall"],
        rows,
    )
