"""Admission control: a bounded queue with fair-share-aware starts.

Three gates stand between ``submit`` and a running job:

1. **Feasibility** — a job whose reservation exceeds its tenant's whole
   share can never start; it is rejected outright
   (:class:`~repro.core.exceptions.AdmissionError`), not queued to
   starve.
2. **The bounded queue** — at most ``max_queued`` jobs wait across all
   tenants; submission beyond that is rejected (backpressure instead of
   unbounded buffering).
3. **Start gating** — each admission pass scans the queue FIFO and
   starts a job only when its tenant is under its concurrency cap and
   its reservation fits the share's current headroom (unreserved share
   plus permitted borrowing).  A job blocked on headroom registers its
   unmet demand with the :class:`~repro.core.memory.FairShare`, which
   immediately stops other tenants borrowing beyond their shares —
   the deficit-aware reclaim rule — and defers the tenant's later jobs
   too, preserving per-tenant FIFO order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..core.exceptions import AdmissionError
from ..core.memory import FairShare
from .jobs import Job


class AdmissionController:
    """Bounded-queue admission against a fair-share partition."""

    def __init__(self, fair: FairShare, max_queued: int = 64):
        self.fair = fair
        self.max_queued = max_queued
        self.queue: Deque[Job] = deque()

    @property
    def pending(self) -> int:
        """Jobs waiting in the admission queue."""
        return len(self.queue)

    def submit(self, tenant, job: Job) -> None:
        """Queue ``job`` for ``tenant`` or reject it.

        Raises:
            AdmissionError: the reservation cannot ever fit the
                tenant's share, or the bounded queue is full.
        """
        if job.reservation > tenant.share.capacity:
            tenant.metrics.rejected += 1
            raise AdmissionError(
                f"job {job.name!r}: reservation of {job.reservation} "
                f"records exceeds tenant {tenant.name!r}'s whole share "
                f"of {tenant.share.capacity}"
            )
        if len(self.queue) >= self.max_queued:
            tenant.metrics.rejected += 1
            raise AdmissionError(
                f"admission queue full ({self.max_queued} jobs waiting); "
                f"job {job.name!r} rejected"
            )
        job.tenant = tenant
        self.queue.append(job)
        tenant.metrics.submitted += 1

    def admit(self, slots: Optional[int] = None) -> List[Job]:
        """One admission pass: start every queued job whose tenant has a
        free slot and whose reservation fits the share's headroom.
        Returns the jobs started.

        Args:
            slots: optional global cap on how many jobs to start this
                pass (the service uses it to enforce a service-wide
                concurrency limit, e.g. 1 for a serial baseline).

        Demand registration is re-derived from scratch each pass, so a
        deficit clears the moment the blocked job starts (or is no
        longer first in its tenant's line).
        """
        started: List[Job] = []
        if not self.queue:
            return started
        deferred: Dict[str, bool] = {}
        for name in {job.tenant.name for job in self.queue}:
            self.fair.clear_demand(name)
        remaining: Deque[Job] = deque()
        while self.queue:
            job = self.queue.popleft()
            tenant = job.tenant
            if slots is not None and len(started) >= slots:
                remaining.append(job)
                continue
            if deferred.get(tenant.name):
                # Keep per-tenant FIFO: a blocked head blocks the line.
                remaining.append(job)
                continue
            if len(tenant.running) >= tenant.max_running:
                deferred[tenant.name] = True
                remaining.append(job)
                continue
            # Headroom is never negative: a zero reservation fits.
            if job.reservation and job.reservation > tenant.share.headroom():
                # Under-share demand stops other tenants borrowing
                # until this job can start.
                self.fair.register_demand(tenant.name, job.reservation)
                deferred[tenant.name] = True
                remaining.append(job)
                continue
            job.start(tenant.share)
            tenant.running.append(job)
            tenant.metrics.admitted += 1
            started.append(job)
        self.queue = remaining
        return started
