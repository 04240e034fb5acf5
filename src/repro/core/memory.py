"""Cooperative accounting of in-memory working space.

The I/O model's central constraint is that an algorithm may hold at most
``M`` records in internal memory at once.  Pure Python cannot enforce this
physically, so algorithms in this library *declare* their working space
through a :class:`MemoryBudget`.  Tests then run algorithms under small
budgets: an algorithm that tried to hold more than ``M`` records (i.e. to
cheat the model) raises :class:`~repro.core.exceptions.MemoryLimitExceeded`
instead of silently producing an unrealistically low I/O count.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional

from .exceptions import (
    ConfigurationError,
    MemoryLimitExceeded,
    ShareLimitExceeded,
)


class MemoryBudget:
    """Tracks reserved in-memory records against a hard capacity.

    Args:
        capacity: maximum records resident at once (the model's ``M``).

    Usage::

        budget = MemoryBudget(capacity=4096)
        with budget.reserve(1024):
            ...  # hold up to 1024 records here

    The ledger has two columns.  :attr:`in_use` is *hard* working space —
    records an algorithm (or a pinned staging frame) is actively using,
    which only the owner can give back.  :attr:`reclaimable` is space the
    installed ``reclaimer`` can free on demand: the buffer pool's cached
    frames.  Their sum, :attr:`occupancy`, is what physically sits in
    memory and can never exceed ``capacity`` — structures plus algorithms
    share one ``M``.  :attr:`available` deliberately ignores the
    reclaimable column: an algorithm sizing its memoryloads sees the full
    machine, and its ``acquire`` evicts cached frames to make room.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(
                f"memory capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.reclaimer = None  # see acquire()
        self._in_use = 0
        self._reclaimable = 0
        self._peak = 0
        self._reclaiming = False

    @property
    def in_use(self) -> int:
        """Records hard-reserved (algorithm working space and pinned
        frames; cached pool frames are in :attr:`reclaimable` instead)."""
        return self._in_use

    @property
    def reclaimable(self) -> int:
        """Records the reclaimer can free on demand (the buffer pool's
        unpinned cached frames)."""
        return self._reclaimable

    @property
    def occupancy(self) -> int:
        """Records physically resident: ``in_use + reclaimable``.  The
        hard ``M`` constraint is enforced on this sum."""
        return self._in_use + self._reclaimable

    @property
    def peak(self) -> int:
        """High-water mark of :attr:`occupancy`."""
        return self._peak

    @property
    def available(self) -> int:
        """Records an algorithm may still hard-reserve.  Reclaimable
        (cached) space counts as free here — acquiring it evicts the
        cache on demand."""
        return self.capacity - self._in_use

    def acquire(self, records: int, reclaimable: bool = False) -> None:
        """Reserve ``records`` of working space.

        If the reservation would overflow ``capacity`` and a
        ``reclaimer`` callback is installed (the machine's runtime: it
        flushes the write-behind window and shrinks the buffer pool,
        clean frames first), it is invoked once with the record deficit
        and the reservation retried.

        Args:
            reclaimable: book the reservation in the reclaimable column
                (buffer-pool cached frames) instead of hard working
                space; see the class docstring.

        Raises:
            MemoryLimitExceeded: if the reservation still overflows ``M``.
        """
        if records < 0:
            raise ConfigurationError("cannot acquire a negative reservation")
        occupancy = self._in_use + self._reclaimable + records
        if occupancy > self.capacity:
            if self.reclaimer is not None and not self._reclaiming:
                self._reclaiming = True
                try:
                    self.reclaimer(occupancy - self.capacity)
                finally:
                    self._reclaiming = False
                occupancy = self._in_use + self._reclaimable + records
            if occupancy > self.capacity:
                raise MemoryLimitExceeded(records, self.occupancy,
                                          self.capacity)
        if reclaimable:
            self._reclaimable += records
        else:
            self._in_use += records
        if occupancy > self._peak:
            self._peak = occupancy

    def release(self, records: int, reclaimable: bool = False) -> None:
        """Return ``records`` of working space to the budget."""
        if records < 0:
            raise ConfigurationError("cannot release a negative reservation")
        if reclaimable:
            if records > self._reclaimable:
                raise ConfigurationError(
                    f"releasing {records} reclaimable records but only "
                    f"{self._reclaimable} are reclaimable"
                )
            self._reclaimable -= records
            return
        if records > self._in_use:
            raise ConfigurationError(
                f"releasing {records} records but only {self._in_use} in use"
            )
        self._in_use -= records

    def harden(self, records: int) -> None:
        """Move ``records`` from the reclaimable column to hard working
        space (a pool frame being pinned: the reclaimer may no longer
        evict it).  Occupancy is unchanged."""
        if records > self._reclaimable:
            raise ConfigurationError(
                f"hardening {records} records but only "
                f"{self._reclaimable} are reclaimable"
            )
        self._reclaimable -= records
        self._in_use += records

    def soften(self, records: int) -> None:
        """Move ``records`` from hard working space back to the
        reclaimable column (a pool frame's last pin released)."""
        if records > self._in_use:
            raise ConfigurationError(
                f"softening {records} records but only {self._in_use} "
                "are hard-reserved"
            )
        self._in_use -= records
        self._reclaimable += records

    @contextmanager
    def reserve(self, records: int):
        """Context manager combining :meth:`acquire` and :meth:`release`."""
        self.acquire(records)
        try:
            yield
        finally:
            self.release(records)

    def reset(self) -> None:
        """Clear hard reservations and the peak (between experiments).
        The reclaimable column is left alone: the buffer pool still
        holds its cached frames and keeps its own books."""
        self._in_use = 0
        self._peak = self._reclaimable


class SubBudget:
    """One tenant's slice of a parent :class:`MemoryBudget`.

    A sub-budget is a *ledger over a ledger*: every ``acquire`` both
    charges the parent (so the machine-wide ``M`` stays enforced, and
    the parent's reclaimer can still evict cache to make room) and
    tallies the tenant's own hard use against its fair share.  Created
    by :meth:`FairShare.add_share`, never directly.

    Two rules connect the shares:

    * **Hard floor** — a tenant reserving at or below its share is never
      refused by the partition (only by the physical ``M``, which the
      parent's reclaimer defends by evicting reclaimable cache).
    * **Deficit-aware borrowing** — reserving *beyond* the share is
      allowed only out of capacity other tenants are not using, and
      never while any under-share tenant has registered unmet demand
      (see :meth:`FairShare.register_demand`); an over-share tenant is
      then refused with
      :class:`~repro.core.exceptions.ShareLimitExceeded` until the
      borrowers drain.
    """

    def __init__(self, fair: "FairShare", name: str):
        self._fair = fair
        self.name = name
        self._in_use = 0
        self._peak = 0

    @property
    def capacity(self) -> int:
        """The share's current fair capacity in records (recomputed when
        shares are added or removed; the capacities always sum to the
        parent's ``M``)."""
        return self._fair.capacity_of(self.name)

    @property
    def in_use(self) -> int:
        """Records this tenant has hard-reserved through the share."""
        return self._in_use

    @property
    def peak(self) -> int:
        """High-water mark of :attr:`in_use`."""
        return self._peak

    @property
    def available(self) -> int:
        """Records still reservable without borrowing (0 when the
        tenant is at or over its share)."""
        return max(0, self.capacity - self._in_use)

    @property
    def borrowed(self) -> int:
        """Records held beyond the share (0 when within it)."""
        return max(0, self._in_use - self.capacity)

    def headroom(self) -> int:
        """Records an :class:`~repro.service.admission.AdmissionController`
        may promise this tenant right now: the unreserved share plus
        whatever borrowing the fair-share rules currently permit."""
        return self.available + self._fair.borrowable(self.name)

    def acquire(self, records: int) -> None:
        """Hard-reserve ``records`` for this tenant.

        Raises:
            ShareLimitExceeded: the reservation overflows the share and
                borrowing is not permitted (spare capacity is committed,
                or an under-share tenant has registered demand).
            MemoryLimitExceeded: the parent budget is physically full
                even after reclaim.
        """
        if records < 0:
            raise ConfigurationError("cannot acquire a negative reservation")
        overshoot = self._in_use + records - self.capacity
        if overshoot > 0 and not self._fair.may_borrow(self.name, overshoot):
            raise ShareLimitExceeded(
                self.name, records, self._in_use, self.capacity
            )
        self._fair.budget.acquire(records)
        self._in_use += records
        self._peak = max(self._peak, self._in_use)

    def release(self, records: int) -> None:
        """Return ``records`` to the share (and the parent budget)."""
        if records < 0:
            raise ConfigurationError("cannot release a negative reservation")
        if records > self._in_use:
            raise ConfigurationError(
                f"share {self.name!r}: releasing {records} records but "
                f"only {self._in_use} in use"
            )
        self._fair.budget.release(records)
        self._in_use -= records

    @contextmanager
    def reserve(self, records: int):
        """Context manager combining :meth:`acquire` and :meth:`release`."""
        self.acquire(records)
        try:
            yield
        finally:
            self.release(records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubBudget({self.name!r}, in_use={self._in_use}, "
            f"share={self.capacity})"
        )


class FairShare:
    """Weighted partition of one :class:`MemoryBudget` across tenants.

    The partition is exact: share capacities are ``capacity·w_i/W``
    rounded by largest remainder (ties broken by insertion order), so
    they always sum to the parent's capacity — no record of ``M`` is
    unowned, and no phantom record exists for two tenants to both
    count on.

    Usage::

        fair = FairShare(machine.budget)
        oltp = fair.add_share("oltp", weight=2)
        olap = fair.add_share("olap", weight=1)
        with oltp.reserve(512):
            ...

    Demand registration makes reclaim *deficit-aware*: when an
    under-share tenant's job cannot be admitted because others borrowed
    its capacity, the admission layer registers the unmet demand, which
    immediately stops further borrowing until the deficit clears.
    """

    def __init__(self, budget: MemoryBudget):
        self.budget = budget
        self._weights: Dict[str, int] = {}
        self._capacities: Dict[str, int] = {}
        self._shares: Dict[str, SubBudget] = {}
        self._demand: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # shares
    # ------------------------------------------------------------------
    def add_share(self, name: str, weight: int = 1) -> SubBudget:
        """Create the share ``name`` with the given integer weight and
        recompute every share's capacity."""
        if name in self._shares:
            raise ConfigurationError(f"share {name!r} already exists")
        if weight < 1:
            raise ConfigurationError(
                f"share weight must be >= 1, got {weight}"
            )
        share = SubBudget(self, name)
        self._weights[name] = weight
        self._shares[name] = share
        self._recompute()
        return share

    def remove_share(self, name: str) -> None:
        """Remove an empty share, returning its capacity to the rest."""
        share = self._require(name)
        if share.in_use:
            raise ConfigurationError(
                f"share {name!r} still has {share.in_use} records in use"
            )
        del self._weights[name]
        del self._shares[name]
        del self._capacities[name]
        self._demand.pop(name, None)
        self._recompute()

    def share(self, name: str) -> SubBudget:
        """The :class:`SubBudget` registered under ``name``."""
        return self._require(name)

    @property
    def shares(self) -> Dict[str, SubBudget]:
        """Read-only view of the registered shares by name."""
        return dict(self._shares)

    def capacity_of(self, name: str) -> int:
        """Current fair capacity of share ``name`` in records."""
        self._require(name)
        return self._capacities[name]

    def _recompute(self) -> None:
        """Largest-remainder apportionment of the parent capacity."""
        if not self._weights:
            self._capacities = {}
            return
        total_weight = sum(self._weights.values())
        capacity = self.budget.capacity
        floors: Dict[str, int] = {}
        remainders = []
        for name, weight in self._weights.items():
            exact = capacity * weight
            floors[name] = exact // total_weight
            remainders.append((-(exact % total_weight), len(remainders),
                               name))
        leftover = capacity - sum(floors.values())
        for _, _, name in sorted(remainders)[:leftover]:
            floors[name] += 1
        self._capacities = floors

    def _require(self, name: str) -> SubBudget:
        try:
            return self._shares[name]
        except KeyError:
            raise ConfigurationError(f"no share named {name!r}") from None

    # ------------------------------------------------------------------
    # borrowing & deficit-aware demand
    # ------------------------------------------------------------------
    def idle_capacity(self, excluding: Optional[str] = None) -> int:
        """Records of share capacity their owners are not hard-using
        (the pool borrowers may draw from)."""
        return sum(
            share.available
            for name, share in self._shares.items()
            if name != excluding
        )

    def outstanding_borrow(self, excluding: Optional[str] = None) -> int:
        """Records currently held beyond their owners' shares."""
        return sum(
            share.borrowed
            for name, share in self._shares.items()
            if name != excluding
        )

    def has_deficit(self, excluding: Optional[str] = None) -> bool:
        """Whether any under-share tenant has registered demand it could
        not meet — the signal that stops further borrowing."""
        for name, records in self._demand.items():
            if name == excluding or records <= 0:
                continue
            share = self._shares.get(name)
            if share is not None and share.in_use < share.capacity:
                return True
        return False

    def may_borrow(self, name: str, overshoot: int) -> bool:
        """Whether share ``name`` may go ``overshoot`` records beyond
        its capacity right now: only out of other tenants' idle
        capacity (net of what is already borrowed), and never while an
        under-share tenant has registered unmet demand."""
        if self.has_deficit(excluding=name):
            return False
        spare = self.idle_capacity(excluding=name) \
            - self.outstanding_borrow(excluding=name)
        return overshoot <= spare

    def borrowable(self, name: str) -> int:
        """Records share ``name`` could borrow right now (0 while any
        other tenant runs a deficit)."""
        if self.has_deficit(excluding=name):
            return 0
        return max(0, self.idle_capacity(excluding=name)
                   - self.outstanding_borrow(excluding=name))

    def register_demand(self, name: str, records: int) -> None:
        """Record that tenant ``name`` has ``records`` of demand it
        could not reserve (a queued job).  While an under-share tenant
        has demand registered, no tenant may borrow further."""
        self._require(name)
        if records < 0:
            raise ConfigurationError("demand cannot be negative")
        self._demand[name] = records

    def clear_demand(self, name: str) -> None:
        """Drop tenant ``name``'s registered demand."""
        self._demand.pop(name, None)
