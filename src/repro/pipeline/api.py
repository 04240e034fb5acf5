"""Pipeline: fused scan → map/filter → sort → reduce/join chains.

A :class:`Pipeline` is a lazy description of a streaming computation.
Stages are fused: record-wise stages (``map``, ``filter``,
``flat_map``) cost zero I/O — they run inside the producing iterator —
and a ``sort`` stage is a :class:`~repro.pipeline.sorter.Sorter`
boundary whose push phase consumes the upstream iterator directly and
whose pull phase feeds the downstream stage as an iterator.  Relative
to the materialized idiom (write a stream, call
:func:`~repro.sort.merge.external_merge_sort`, scan the result, delete
both), every fused sort boundary skips ``~2·(N/DB)`` I/Os on the way in
and ``~2·(N/DB)`` on the way out.

Terminals either keep the data external (:meth:`to_stream`,
:meth:`to_exvector`) or fold it down (:meth:`reduce`, :meth:`for_each`,
:meth:`group_reduce`); :meth:`merge_join` fuses two pipelines sorted on
their join keys into one joined pipeline without materializing either
side.  Execution is wrapped in a trace phase named after the pipeline,
so per-stage transfers land in ``machine.runtime.tracer`` reports.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from ..core.exceptions import ConfigurationError
from ..core.machine import Machine
from ..core.stream import FileStream
from .exvector import ExVector
from .sorter import Sorter


class Pipeline:
    """A lazy, fused chain of streaming stages over one machine.

    Build with :meth:`scan` (external source) or :meth:`source` (any
    iterable, e.g. a generator producing records), chain record-wise
    and sort stages, then run exactly one terminal.  A pipeline
    description is single-shot: terminals consume it.

    Args:
        machine: the machine every stage's I/O and frames are charged
            to.
        name: trace-phase label and prefix for intermediate run files.
    """

    def __init__(self, machine: Machine, name: str = "pipeline"):
        self.machine = machine
        self.name = name
        self._source: Optional[Callable[[], Iterator[Any]]] = None
        self._stages: List[Tuple[str, Any]] = []
        self._sorters: List[Sorter] = []
        self._consumed = False

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    @classmethod
    def scan(cls, machine: Machine, source: Any,
             name: str = "pipeline") -> "Pipeline":
        """Start a pipeline from an external container (a finalized
        stream, an :class:`~repro.pipeline.exvector.ExVector`, a
        :class:`~repro.relational.table.Table`'s stream...): one read
        I/O per block as records are pulled."""
        pipeline = cls(machine, name=name)
        pipeline._source = lambda: iter(source)
        return pipeline

    @classmethod
    def source(cls, machine: Machine, records: Iterable[Any],
               name: str = "pipeline") -> "Pipeline":
        """Start a pipeline from any iterable producer.  The records
        are consumed lazily by the first stage — nothing is written to
        disk unless a sort or an external terminal needs it."""
        pipeline = cls(machine, name=name)
        pipeline._source = lambda: iter(records)
        return pipeline

    # ------------------------------------------------------------------
    # fused stages
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any]) -> "Pipeline":
        """Transform each record; fused, zero I/O."""
        self._stages.append(("map", fn))
        return self

    def filter(self, predicate: Callable[[Any], bool]) -> "Pipeline":
        """Keep records satisfying ``predicate``; fused, zero I/O."""
        self._stages.append(("filter", predicate))
        return self

    def flat_map(
        self, fn: Callable[[Any], Iterable[Any]]
    ) -> "Pipeline":
        """Expand each record into zero or more; fused, zero I/O."""
        self._stages.append(("flat_map", fn))
        return self

    def sort(self, key: Optional[Callable[[Any], Any]] = None
             ) -> "Pipeline":
        """A fused sort boundary: upstream records are pushed straight
        into a :class:`~repro.pipeline.sorter.Sorter` and the merged
        order is pulled straight out — the input is never written and
        the output never materialized, saving ``~4·(N/DB)`` I/Os over
        the stream-to-stream sort.

        The Sorter plans its run buffer and pull from the frames free
        when it runs; a downstream sort's run buffer grows into the
        frames the pull gives back."""
        self._stages.append(("sort", key))
        return self

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def iterate(self) -> Iterator[Any]:
        """Run the pipeline as a plain iterator (the caller is the
        terminal).  Nothing runs — and no frames are taken — until the
        first record is pulled; sorter resources are reclaimed when the
        iterator is exhausted or closed."""
        self._claim()
        return self._drive(0)

    def _drive(self, beside: int) -> Iterator[Any]:
        try:
            for record in self._build(beside):
                yield record
        finally:
            self._cleanup()

    def _claim(self) -> None:
        if self._source is None:
            raise ConfigurationError(
                f"pipeline {self.name!r} has no source stage"
            )
        if self._consumed:
            raise ConfigurationError(
                f"pipeline {self.name!r} has already run its terminal"
            )
        self._consumed = True

    def _build(self, beside: int) -> Iterator[Any]:
        """Start the stages; every sort's pull is planned beside
        ``beside`` records kept for work the consumer starts later."""
        records = self._source()
        for index, (kind, payload) in enumerate(self._stages):
            if kind == "map":
                records = map(payload, records)
            elif kind == "filter":
                records = filter(payload, records)
            elif kind == "flat_map":
                # bind ``payload`` now: a lazy genexp would read the
                # loop variable after later stages rebind it
                records = chain.from_iterable(map(payload, records))
            else:  # sort
                sorter = Sorter(self.machine, payload,
                                f"{self.name}/sort{index}")
                self._sorters.append(sorter)
                sorter.consume(records)
                records = sorter.finish(beside)
        return records

    def _cleanup(self) -> None:
        while self._sorters:
            self._sorters.pop().close()

    # ------------------------------------------------------------------
    # terminals
    # ------------------------------------------------------------------
    def to_stream(self, name: Optional[str] = None,
                  stream_cls=FileStream) -> FileStream:
        """Materialize the result as a finalized stream — the one write
        pass the pipeline actually owes."""
        out = stream_cls(self.machine, name=name or f"{self.name}/out")
        try:
            with self.machine.trace(self.name):
                for record in self.iterate():
                    out.append(record)
            return out.finalize()
        except BaseException:
            out.delete()
            raise

    def to_exvector(self, name: Optional[str] = None) -> ExVector:
        """Materialize the result as a closed
        :class:`~repro.pipeline.exvector.ExVector`."""
        vector = ExVector(self.machine, name=name or f"{self.name}/out")
        try:
            with self.machine.trace(self.name):
                vector.extend(self.iterate())
        except BaseException:
            vector.delete()
            raise
        vector.close()
        return vector

    def reduce(self, fn: Callable[[Any, Any], Any],
               initial: Any) -> Any:
        """Fold all records into one value; zero output I/O."""
        value = initial
        with self.machine.trace(self.name):
            for record in self.iterate():
                value = fn(value, record)
        return value

    def for_each(self, fn: Callable[[Any], None]) -> int:
        """Apply ``fn`` to each record; returns the record count."""
        count = 0
        with self.machine.trace(self.name):
            for record in self.iterate():
                fn(record)
                count += 1
        return count

    def group_reduce(
        self,
        key: Callable[[Any], Any],
        fn: Callable[[Any, Any], Any],
        initial: Callable[[], Any],
    ) -> "Pipeline":
        """Sorted grouping: sort by ``key`` (fused), then fold each
        key's run of records into ``(key, value)`` pairs — external
        GROUP BY at ``Sort(N)`` minus the fused boundaries, with only
        one group's accumulator in memory."""
        # em: ok(EM004) Pipeline.sort is the fused external sort stage
        upstream = self.sort(key=key)

        def fold(records: Iterator[Any]) -> Iterator[Tuple[Any, Any]]:
            current = _SENTINEL
            value = None
            for record in records:
                group = key(record)
                if group != current:
                    if current is not _SENTINEL:
                        yield current, value
                    current = group
                    value = initial()
                value = fn(value, record)
            if current is not _SENTINEL:
                yield current, value

        downstream = Pipeline(self.machine, name=f"{self.name}/groups")
        downstream._source = lambda: fold(upstream.iterate())
        return downstream

    def merge_join(
        self,
        other: "Pipeline",
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
    ) -> "Pipeline":
        """Fuse two pipelines into their merge join.

        Both sides must end sorted on their join keys (normally via
        :meth:`sort`); neither side's sorted order is materialized —
        the join merges the two pull iterators directly, buffering only
        the current right-side key group (charged to the budget).
        Yields ``(left_record, right_record)`` pairs as a new pipeline.

        The left side starts first and plans its pulls beside half of
        memory, kept for the right side's sorts; the right side plans
        beside an eighth, kept for the key groups.
        """
        from ..relational.joins import merge_join_iterators

        if other.machine is not self.machine:
            raise ConfigurationError(
                "merge_join requires both pipelines on the same machine"
            )

        def joined() -> Iterator[Tuple[Any, Any]]:
            self._claim()
            other._claim()
            left = self._drive(self.machine.M // 2)
            right = other._drive(self.machine.M // 8)
            try:
                for pair in merge_join_iterators(
                    self.machine, left, right, left_key, right_key
                ):
                    yield pair
            finally:
                left.close()
                right.close()

        downstream = Pipeline(self.machine, name=f"{self.name}/join")
        downstream._source = joined
        return downstream


_SENTINEL = object()
