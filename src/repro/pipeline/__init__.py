"""repro.pipeline — stream fusion: sorters and scanners composed
without touching disk between passes.

The survey's descendants (STXXL, TPIE) converged on *pipelined
streaming*: a sorter whose run formation consumes the producer's
iterator directly and whose final merge is itself an iterator, so
chains like ``scan → map → sort → reduce`` pay only the I/O the sort
fundamentally owes (write runs, read runs) — every elided
stream-materialization boundary saves ``~2·(N/DB)`` transfers.

* :class:`~repro.pipeline.exvector.ExVector` — a budget-accounted
  external vector over :class:`~repro.core.blockfile.BlockFile`
  segments: staged appends, pool-cached random access.
* :class:`~repro.pipeline.sorter.Sorter` — push-runs / pull-merge
  external sort; runs are ordered by (key, pointer) pairs per
  Arge–Thorup so payloads ride for free.
* :class:`~repro.pipeline.api.Pipeline` — lazy fused combinators:
  ``scan/source → map/filter/flat_map/sort → to_stream/reduce/
  merge_join/group_reduce``.

The cooperative (intent-yielding) variant for the multi-tenant query
service is :func:`~repro.sort.steps.merge_sort_steps` itself: its
``filter_fn``/``map_fn`` stages run inside run formation, so a
scan → filter → map → sort job never writes the transformed stream.
"""

from .api import Pipeline
from .exvector import ExVector
from .sorter import Sorter

__all__ = [
    "ExVector",
    "Pipeline",
    "Sorter",
]
