"""The multi-tenant query service: admit, schedule, meter.

One :class:`QueryService` owns one shared
:class:`~repro.core.machine.Machine` and interleaves many tenants'
cooperative jobs against it:

* **Scheduling** is round-based.  Each round, every tenant's running
  jobs advance one intent; the intents of one tenant's jobs are then
  fulfilled as *batches* — all their pool blocks in one
  :meth:`~repro.core.cache.BufferPool.get_many`, all their stream
  blocks in one :meth:`~repro.runtime.Runtime.read_batch` — so
  concurrent jobs share parallel-disk waves instead of paying one step
  per lone block.  That cross-job batching (and the write-behind
  coalescing of interleaved jobs' writes) is why the interleaved
  service beats serial execution on wall steps.
* **Isolation** is per-tenant.  Batches never mix tenants, each
  tenant's I/O (stalls, faults and retries included) lands on its own
  ledger, and a failing block read is re-tried per-job so only the
  requesting job is failed (via ``generator.throw``, which runs its
  cleanup).
* **Attribution** threads the tracer: a tenant's I/O lands under
  ``service/tenant/job`` phases, so the tracer's tables and Chrome
  export split the shared machine by who asked.
* **Round cost** is the scheduled work plus, per tenant and per job,
  one tracer phase (a push and a pop while tracing is off): the ledger
  reads the raw counter fields at tenant boundaries and is charged
  only when one moved, latencies are two step-clock stamps, and a job
  reserving nothing skips the headroom query.

The tenant order rotates every round, so no tenant always goes first
into a warm (or cold) buffer pool.

The service holds only running jobs.  A finished job is counted in its
tenant's :class:`~repro.service.metrics.TenantMetrics` (completed or
failed, and its latencies) and then dropped; its result and error stay
on the :class:`~repro.service.jobs.Job` that :meth:`QueryService.submit`
returned to the caller.
"""

from __future__ import annotations

from contextlib import nullcontext as _nullcontext
from itertools import islice
from operator import sub
from typing import Any, Dict, List, Optional, Tuple

from ..core.exceptions import ConfigurationError
from ..core.intents import PoolRead, StreamRead, fulfill
from ..core.machine import Machine
from ..core.memory import FairShare, SubBudget
from ..core.stats import IOStats, counter_fields
from .admission import AdmissionController
from .jobs import DONE, FAILED, Job
from .metrics import TenantMetrics


class Tenant:
    """One tenant: a named fair share plus its running jobs and
    metrics."""

    def __init__(self, name: str, share: SubBudget, weight: int,
                 max_running: int):
        self.name = name
        self.share = share
        self.weight = weight
        self.max_running = max_running
        self.running: List[Job] = []
        self.metrics = TenantMetrics()
        self._job_names: Dict[str, int] = {}

    def unique_job_name(self, base: str) -> str:
        """Disambiguate ``base`` within this tenant so tracer phases
        (``tenant/job``) never collide between concurrent jobs."""
        count = self._job_names.get(base, 0)
        self._job_names[base] = count + 1
        return base if count == 0 else f"{base}#{count}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tenant({self.name!r}, weight={self.weight}, "
            f"running={len(self.running)})"
        )


class QueryService:
    """A multi-tenant query service over one shared machine.

    Usage::

        service = QueryService(machine)
        oltp = service.add_tenant("oltp", weight=2, max_running=8)
        olap = service.add_tenant("olap", weight=1, max_running=2)
        service.submit("oltp", btree_lookup_job(tree, 42))
        service.submit("olap", sort_job(machine, big_stream))
        report = service.run()

    Args:
        machine: the shared machine; its budget is partitioned across
            tenants by a :class:`~repro.core.memory.FairShare`.
        max_queued: bound on the admission queue across all tenants.
        max_running: optional service-wide concurrency cap across
            tenants (``1`` makes the service execute jobs serially —
            the baseline the interleaved schedule is measured against).
        name: the tracer phase wrapping everything the service runs.
    """

    def __init__(self, machine: Machine, max_queued: int = 64,
                 max_running: Optional[int] = None, name: str = "svc"):
        if max_running is not None and max_running < 1:
            raise ConfigurationError(
                f"service-wide max_running must be >= 1, got {max_running}"
            )
        self.machine = machine
        self.name = name
        self.fair = FairShare(machine.budget)
        self.admission = AdmissionController(self.fair, max_queued)
        self.max_running = max_running
        self.tenants: Dict[str, Tenant] = {}
        self.rounds = 0

    # ------------------------------------------------------------------
    # setup & submission
    # ------------------------------------------------------------------
    def add_tenant(self, name: str, weight: int = 1,
                   max_running: int = 2) -> Tenant:
        """Register a tenant with the given fair-share weight and
        per-tenant concurrency cap."""
        if name in self.tenants:
            raise ConfigurationError(f"tenant {name!r} already exists")
        if max_running < 1:
            raise ConfigurationError(
                f"max_running must be >= 1, got {max_running}"
            )
        share = self.fair.add_share(name, weight=weight)
        tenant = Tenant(name, share, weight, max_running)
        self.tenants[name] = tenant
        return tenant

    def tenant(self, name: str) -> Tenant:
        try:
            return self.tenants[name]
        except KeyError:
            raise ConfigurationError(f"no tenant named {name!r}") from None

    def submit(self, tenant_name: str, job: Job) -> Job:
        """Queue ``job`` for ``tenant_name``.

        Raises:
            AdmissionError: infeasible reservation or full queue.
        """
        tenant = self.tenant(tenant_name)
        job.name = tenant.unique_job_name(job.name)
        job.submitted_at = self._clocks()
        self.admission.submit(tenant, job)
        return job

    # ------------------------------------------------------------------
    # the scheduling loop
    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Drive every queued and running job to completion; returns the
        service report (per-tenant metrics snapshots and totals).

        Deferred writes are flushed before returning, charged to the
        service phase (coalesced cross-tenant waves cannot be split)."""
        machine = self.machine
        before = machine.stats()
        with machine.trace(self.name):
            while self.admission.pending or self._running():
                self._round()
            machine.pool.flush_all()
            machine.runtime.flush()
        return self._report(machine.stats() - before)

    def _running(self) -> int:
        return sum(len(t.running) for t in self.tenants.values())

    def _clocks(self) -> Tuple[int, int]:
        """The machine's transfer-steps and wall-steps clocks."""
        counter = self.machine.disk.counter
        steps = counter.read_steps + counter.write_steps
        return steps, steps + counter.stall_steps

    def _round(self) -> None:
        """One scheduling round: admit, then advance each tenant."""
        self.admission.admit(None if self.max_running is None else
                             max(0, self.max_running - self._running()))
        order = sorted(self.tenants)  # em: ok(EM004) tenant names, few
        if order:
            shift = self.rounds % len(order)
            order = order[shift:] + order[:shift]
        counter = self.machine.disk.counter
        for name in order:
            tenant = self.tenants[name]
            if not tenant.running:
                continue
            before = counter_fields(counter)
            with self.machine.trace(name):
                self._advance_tenant(tenant)
            after = counter_fields(counter)
            if after != before:
                tenant.metrics.charge(IOStats(*map(sub, after, before)))
        self.rounds += 1

    def _advance_tenant(self, tenant: Tenant) -> None:
        """Advance every running job of ``tenant`` one intent, then
        fulfill all their intents as per-tenant batches."""
        machine = self.machine
        phase = machine.runtime.tracer.phase
        intents = []  # (job, intent) in job order
        for job in list(tenant.running):
            try:
                with phase(job.name):
                    intent = job.gen.send(job.pending)
            except StopIteration as done:
                self._complete(tenant, job, done.value)
            except Exception as exc:
                self._fail(tenant, job, exc)
            else:
                job.pending = None
                if intent is not None:
                    intents.append((job, intent))
        if intents:
            self._fulfill_batch(tenant, intents)

    def _fulfill_batch(self, tenant: Tenant, intents) -> None:
        """Serve every job's intent from one pool and one stream batch."""
        machine = self.machine
        pool_ids: List[int] = []
        stream_ids: List[int] = []
        for _, intent in intents:
            if isinstance(intent, PoolRead):
                pool_ids.extend(intent.block_ids)
            elif isinstance(intent, StreamRead):
                stream_ids.extend(intent.block_ids)
            else:
                raise TypeError(f"job yielded a non-intent: {intent!r}")
        # A shared wave serving several jobs is charged to the tenant
        # phase (it cannot be split per job); a wave serving exactly one
        # job is unambiguous and traced under that job's phase.
        lone = intents[0][0].name if len(intents) == 1 else None
        try:
            with machine.trace(lone) if lone else _nullcontext():
                pools = iter(machine.pool.get_many(pool_ids)
                             if pool_ids else ())
                streams = iter(machine.runtime.read_batch(stream_ids)
                               if stream_ids else ())
        except Exception:
            # The shared batch died and cannot say for which block.
            # Re-serve each job alone: the victim fails alone (its
            # retries/stalls already on this tenant's ledger), the
            # innocent majority proceed.
            self._fulfill_individually(tenant, intents)
            return
        for job, intent in intents:
            served = pools if isinstance(intent, PoolRead) else streams
            job.pending = list(islice(served, len(intent.block_ids)))

    def _fulfill_individually(self, tenant: Tenant, intents) -> None:
        """Fallback after a failed shared batch: serve each job's intent
        alone, failing only the job whose blocks actually fail."""
        machine = self.machine
        for job, intent in intents:
            while intent is not None:
                try:
                    with machine.trace(job.name):
                        job.pending = fulfill(machine, intent)
                    intent = None
                except Exception as exc:
                    intent = self._throw(tenant, job, exc)

    def _throw(self, tenant: Tenant, job: Job, exc: BaseException):
        """Deliver ``exc`` into ``job``'s generator (running its cleanup
        handlers).  Returns a follow-up intent if the generator survived
        and asked for more I/O, else ``None``."""
        try:
            with self.machine.trace(job.name):
                intent = job.gen.throw(exc)
        except StopIteration as done:
            self._complete(tenant, job, done.value)
            return None
        except Exception as err:
            self._fail(tenant, job, err)
            return None
        if intent is None:
            job.pending = None
        return intent

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def _complete(self, tenant: Tenant, job: Job, result: Any) -> None:
        job.status = DONE
        job.result = result
        self._finish(tenant, job)
        tenant.metrics.completed += 1

    def _fail(self, tenant: Tenant, job: Job, error: BaseException) -> None:
        job.status = FAILED
        job.error = error
        self._finish(tenant, job)
        tenant.metrics.failed += 1

    def _finish(self, tenant: Tenant, job: Job) -> None:
        tenant.running.remove(job)
        (io, wall), (io_at, wall_at) = self._clocks(), job.submitted_at
        job.latency_io, job.latency_wall = io - io_at, wall - wall_at
        tenant.metrics.record_latency(job.latency_io, job.latency_wall)
        job.pending = None
        job.gen = None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(self, total) -> dict:
        return {
            "rounds": self.rounds,
            "total_io_steps": total.total_steps,
            "total_wall_steps": total.wall_steps,
            "total_stall_steps": total.stall_steps,
            "tenants": {
                name: tenant.metrics.snapshot()
                for name, tenant in self.tenants.items()
            },
        }
