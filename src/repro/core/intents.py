"""I/O intents: the contract between cooperative jobs and their driver.

A *cooperative* algorithm variant runs as a generator that, instead of
touching the pool or runtime directly, ``yield``\\ s an intent describing
the blocks it needs next and receives their payloads back via
``generator.send``.  The driver — :class:`repro.service.QueryService`,
or the trivial :func:`drive` loop below — decides *when* and *how* each
intent is fulfilled: it can interleave many jobs' intents, batch them
into parallel-disk waves, attribute their I/O and stalls to the tenant
that asked, and fail one job with ``generator.throw`` while the rest
keep running.

Two intents cover the substrate's two read paths:

* :class:`PoolRead` — blocks that live behind the buffer pool (B+-tree
  nodes, hash buckets, packed adjacency blocks).  Payloads may be dirty
  in the pool; fulfillment goes through
  :meth:`~repro.core.cache.BufferPool.get_many`.
* :class:`StreamRead` — write-once stream blocks (sorted runs, table
  scans).  Fulfillment goes through
  :meth:`~repro.runtime.Runtime.read_batch`, which observes deferred
  write-behind blocks first.

A bare ``yield`` (or ``yield None``) is a *checkpoint*: no I/O is
requested, the job only offers the driver a chance to reschedule.

The generator's ``return`` value is the job's result; drivers surface
it from the terminating ``StopIteration``.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple


class PoolRead:
    """Request payloads of blocks resident behind the buffer pool.

    The driver answers with ``pool.get_many(block_ids)`` — a list of
    payloads in request order (duplicates allowed, fetched once).
    """

    __slots__ = ("block_ids",)

    def __init__(self, block_ids: Sequence[int]):
        self.block_ids: Tuple[int, ...] = tuple(block_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PoolRead({list(self.block_ids)!r})"


class StreamRead:
    """Request payloads of write-once stream blocks.

    The driver answers with ``runtime.read_batch(block_ids)`` — a list
    of payloads in request order, deferred writes observed first.
    """

    __slots__ = ("block_ids",)

    def __init__(self, block_ids: Sequence[int]):
        self.block_ids: Tuple[int, ...] = tuple(block_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamRead({list(self.block_ids)!r})"


def fulfill(machine, intent) -> List[Any]:
    """Serve one intent against ``machine`` and return the payloads.

    The shared single-intent fulfillment path: the service's scheduler
    and the standalone :func:`drive` loop both route through here so an
    intent means the same I/O no matter which driver runs the job.
    """
    if isinstance(intent, PoolRead):
        return machine.pool.get_many(list(intent.block_ids))
    if isinstance(intent, StreamRead):
        return machine.runtime.read_batch(list(intent.block_ids))
    raise TypeError(f"not an I/O intent: {intent!r}")


def drive(machine, job) -> Any:
    """Run a cooperative ``job`` generator to completion, serving every
    intent immediately — the single-tenant driver.

    Equivalent to the eager algorithm it wraps (same blocks, same
    order): the eager sort phases are this loop over their generators.
    An intent that fails is thrown into the job, as the service does,
    so the job's cleanup runs before the error propagates.  Returns the
    job's ``return`` value.
    """
    try:
        intent = job.send(None)
        while True:
            try:
                payloads = None if intent is None \
                    else fulfill(machine, intent)
            except BaseException as error:
                intent = job.throw(error)
            else:
                intent = job.send(payloads)
    except StopIteration as done:
        return done.value
