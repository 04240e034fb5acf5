"""Structured I/O tracing: who spent which parallel step, and where.

The tracer listens to the machine's :class:`~repro.core.disk.DiskArray`
(every transfer method reports the op, the blocks, their disks, and the
step cost), so its per-phase tallies agree with the machine's
:class:`~repro.core.stats.IOStats` *by construction*.  Algorithms label
regions with :meth:`~repro.core.machine.Machine.trace`::

    tracer = machine.runtime.start_trace()
    with machine.trace("merge-pass-1"):
        ...
    print(tracer.summary_table())
    open("trace.json", "w").write(tracer.to_json())

Phases nest; I/O is attributed to the full phase path (e.g.
``sort/merge-pass-1``).  The exported JSON follows the Chrome trace-event
format — load it in ``chrome://tracing`` or Perfetto: each disk is a
lane (``tid``), each event a complete span whose timestamp is the
parallel-step clock, so idle lanes are visible gaps.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..core.stats import IOStats, format_table

UNTRACED = "(untraced)"


class _Phase:
    """The context manager :meth:`Tracer.phase` returns: it pushes the
    phase on entry and pops it on exit, and joins the ``/`` path only
    when the tracer is recording (a phase of a tracer that is off costs
    one push and one pop)."""

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        tracer._stack.append(self._name)
        self._start = tracer._clock

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        if tracer.active:
            tracer._spans.append(
                ("/".join(tracer._stack), self._start, tracer._clock))
        tracer._stack.pop()


class Tracer:
    """Per-phase I/O attribution and Chrome trace-event export.

    The tracer is inert until :meth:`start` installs it as the disk's
    listener; :meth:`stop` detaches it, keeping the collected events.
    """

    def __init__(self, machine):
        self.machine = machine
        self.active = False
        self._stack: List[str] = []
        self._events: List[dict] = []
        self._spans: List[Tuple[str, int, int]] = []
        self._phase_stats: Dict[str, IOStats] = {}
        self._pool_stats: Dict[str, Dict[str, int]] = {}
        self._clock = 0  # parallel steps since start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Tracer":
        """Begin a fresh trace and attach to the machine's disk."""
        self._events.clear()
        self._spans.clear()
        self._phase_stats.clear()
        self._pool_stats.clear()
        self._clock = 0
        self.machine.disk.listener = self
        self.active = True
        return self

    def stop(self) -> None:
        """Detach from the disk, keeping the collected trace."""
        if self.machine.disk.listener is self:
            self.machine.disk.listener = None
        self.active = False

    @property
    def current_phase(self) -> str:
        """The innermost phase path, ``/``-joined."""
        return "/".join(self._stack) if self._stack else UNTRACED

    def phase(self, name: str) -> "_Phase":
        """Label all I/O inside the ``with`` block as phase ``name``."""
        return _Phase(self, name)

    # ------------------------------------------------------------------
    # DiskArray listener protocol
    # ------------------------------------------------------------------
    def on_io(
        self,
        op: str,
        block_ids: Sequence[int],
        disks: Sequence[int],
        steps: int,
    ) -> None:
        """Record one transfer batch (called by the disk array)."""
        label = self.current_phase
        delta = IOStats(
            reads=len(block_ids) if op == "read" else 0,
            writes=len(block_ids) if op == "write" else 0,
            read_steps=steps if op == "read" else 0,
            write_steps=steps if op == "write" else 0,
        )
        base = self._phase_stats.get(label, IOStats())
        self._phase_stats[label] = base + delta
        per_disk: Dict[int, List[int]] = {}
        for block_id, disk in zip(block_ids, disks):
            per_disk.setdefault(disk, []).append(block_id)
        for disk, blocks in per_disk.items():
            self._events.append({
                "name": op,
                "cat": "io",
                "ph": "X",
                "ts": self._clock,
                "dur": max(1, len(blocks)),
                "pid": 0,
                "tid": disk,
                "args": {
                    "phase": label,
                    "blocks": blocks,
                    "step": self._clock,
                },
            })
        self._clock += steps

    def on_fault(self, kind: str, block_id: int, disk: int) -> None:
        """Record one injected fault (called by the disk array)."""
        label = self.current_phase
        base = self._phase_stats.get(label, IOStats())
        self._phase_stats[label] = base + IOStats(faults=1)
        self._events.append({
            "name": f"fault:{kind}",
            "cat": "fault",
            "ph": "i",
            "s": "t",
            "ts": self._clock,
            "pid": 0,
            "tid": max(0, disk),
            "args": {"phase": label, "block": block_id},
        })

    def on_retry(self, op: str, block_id: int, attempt: int) -> None:
        """Record one re-issued transfer attempt (called by the retry
        policy through the device)."""
        label = self.current_phase
        base = self._phase_stats.get(label, IOStats())
        self._phase_stats[label] = base + IOStats(retries=1)
        self._events.append({
            "name": f"retry:{op}",
            "cat": "fault",
            "ph": "i",
            "s": "t",
            "ts": self._clock,
            "pid": 0,
            "tid": 0,
            "args": {"phase": label, "block": block_id,
                     "attempt": attempt},
        })

    _POOL_EVENTS = ("hit", "miss", "eviction", "scrub", "bypass")

    def on_pool(self, event: str, block_id: int) -> None:
        """Record one buffer-pool event (called by the pool; duck-typed
        extension of the listener protocol).  Hits are tallied only —
        they cost no step — while misses, evictions, scrubs, and
        bypasses also emit Chrome-trace instants on the block's disk
        lane so cache behaviour lines up with the transfers it causes."""
        label = self.current_phase
        tally = self._pool_stats.setdefault(
            label, {name: 0 for name in self._POOL_EVENTS}
        )
        tally[event] = tally.get(event, 0) + 1
        if event == "hit":
            return
        try:
            disk = self.machine.disk.disk_of(block_id)
        except Exception:
            disk = 0
        self._events.append({
            "name": f"pool:{event}",
            "cat": "pool",
            "ph": "i",
            "s": "t",
            "ts": self._clock,
            "pid": 0,
            "tid": disk,
            "args": {"phase": label, "block": block_id},
        })

    def on_stall(
        self, steps: int, disks: Sequence[int], reason: str
    ) -> None:
        """Record ``steps`` of stall (backoff / stuck-slow latency) on
        ``disks``; advances the step clock so the degradation shows as
        occupied lanes in the exported trace."""
        label = self.current_phase
        base = self._phase_stats.get(label, IOStats())
        self._phase_stats[label] = base + IOStats(stall_steps=steps)
        for disk in (disks or [0]):
            self._events.append({
                "name": f"stall:{reason}",
                "cat": "stall",
                "ph": "X",
                "ts": self._clock,
                "dur": max(1, steps),
                "pid": 0,
                "tid": disk,
                "args": {"phase": label, "steps": steps},
            })
        self._clock += steps

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Parallel steps observed since :meth:`start`."""
        return self._clock

    def phase_summary(self) -> Dict[str, IOStats]:
        """Per-phase I/O totals; the values sum to the machine's stats
        delta over the traced region."""
        return dict(self._phase_stats)

    def pool_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-phase buffer-pool tallies (hits / misses / evictions /
        scrubs / bypasses); empty when no pool traffic was traced."""
        return {label: dict(tally)
                for label, tally in self._pool_stats.items()}

    @staticmethod
    def _namespace(label: str, depth: int) -> str:
        """``label`` truncated to its first ``depth`` path components
        (the untraced bucket passes through whole)."""
        if label == UNTRACED:
            return label
        return "/".join(label.split("/")[:depth])

    def namespace_summary(self, depth: int = 1) -> Dict[str, IOStats]:
        """Per-phase totals aggregated by the first ``depth`` components
        of each phase path.  With service traces (``svc/tenant/job``
        phases), ``depth=2`` rolls everything up per tenant; each
        transfer is tallied under exactly one leaf phase, so the
        roll-up never double-counts and still sums to the machine's
        stats delta."""
        if depth < 1:
            raise ConfigurationError(
                f"namespace depth must be >= 1, got {depth}"
            )
        grouped: Dict[str, IOStats] = {}
        for label, stats in self._phase_stats.items():
            group = self._namespace(label, depth)
            grouped[group] = grouped.get(group, IOStats()) + stats
        return grouped

    def namespace_pool_summary(
        self, depth: int = 1
    ) -> Dict[str, Dict[str, int]]:
        """Buffer-pool tallies aggregated like :meth:`namespace_summary`."""
        if depth < 1:
            raise ConfigurationError(
                f"namespace depth must be >= 1, got {depth}"
            )
        grouped: Dict[str, Dict[str, int]] = {}
        for label, tally in self._pool_stats.items():
            group = self._namespace(label, depth)
            into = grouped.setdefault(
                group, {name: 0 for name in self._POOL_EVENTS}
            )
            for name, count in tally.items():
                into[name] = into.get(name, 0) + count
        return grouped

    def namespace_table(self, depth: int = 1) -> str:
        """:meth:`summary_table`, but with phases rolled up to their
        first ``depth`` path components — the per-tenant view of a
        service trace."""
        return self._render_table(
            self.namespace_summary(depth),
            self.namespace_pool_summary(depth),
        )

    def summary_table(self) -> str:
        """The per-phase totals as an aligned plain-text table.  Fault,
        retry, and stall columns appear only when a fault plan actually
        fired; pool columns (hits/misses/evicts, plus scrubs and
        bypasses when any occurred) only when the buffer pool was used —
        so the untouched cases look as before."""
        return self._render_table(self._phase_stats, self._pool_stats)

    def _render_table(
        self,
        phase_stats: Dict[str, IOStats],
        pool_stats: Dict[str, Dict[str, int]],
    ) -> str:
        stats_list = list(phase_stats.values())
        degraded = any(
            s.faults or s.retries or s.stall_steps for s in stats_list
        )
        pooled = bool(pool_stats)
        scrubbed = any(
            t.get("scrub") or t.get("bypass")
            for t in pool_stats.values()
        )
        headers = ["phase", "reads", "writes", "transfers", "steps"]
        if degraded:
            headers += ["faults", "retries", "stalls"]
        if pooled:
            headers += ["hits", "misses", "evicts"]
        if scrubbed:
            headers += ["scrubs", "bypasses"]

        empty_tally = {name: 0 for name in self._POOL_EVENTS}

        def cells(label, stats, tally):
            row = [label, stats.reads, stats.writes, stats.total,
                   stats.total_steps]
            if degraded:
                row += [stats.faults, stats.retries, stats.stall_steps]
            if pooled:
                row += [tally.get("hit", 0), tally.get("miss", 0),
                        tally.get("eviction", 0)]
            if scrubbed:
                row += [tally.get("scrub", 0), tally.get("bypass", 0)]
            return row

        # A phase may have pool hits but no transfers (or vice versa):
        # iterate the union of both tallies' phase labels.
        labels = sorted(set(phase_stats) | set(pool_stats))
        rows = [
            cells(label,
                  phase_stats.get(label, IOStats()),
                  pool_stats.get(label, empty_tally))
            for label in labels
        ]
        total = IOStats()
        for stats in stats_list:
            total = total + stats
        pool_total = dict(empty_tally)
        for tally in pool_stats.values():
            for name, count in tally.items():
                pool_total[name] = pool_total.get(name, 0) + count
        rows.append(cells("total", total, pool_total))
        return format_table(headers, rows)

    def to_chrome(self, namespace_lanes: int = 0) -> dict:
        """The trace in Chrome trace-event format (a JSON-able dict).

        Disk lanes are threads ``0..D-1``; phase spans render on lane
        ``D`` above them.  Timestamps are parallel steps.

        Args:
            namespace_lanes: when ``> 0``, add one extra lane per
                distinct phase-path prefix of that depth (e.g. ``2``
                with ``svc/tenant/job`` phases gives every tenant its
                own lane of job spans).  ``0`` — the default — leaves
                the export exactly as before.
        """
        events: List[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": disk,
                "args": {"name": f"disk {disk}"},
            }
            for disk in range(self.machine.num_disks)
        ]
        phase_lane = self.machine.num_disks
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": phase_lane,
            "args": {"name": "phases"},
        })
        for label, start, end in self._spans:
            events.append({
                "name": label,
                "cat": "phase",
                "ph": "X",
                "ts": start,
                "dur": max(1, end - start),
                "pid": 0,
                "tid": phase_lane,
                "args": {"steps": end - start},
            })
        if namespace_lanes > 0:
            groups = sorted({
                self._namespace(label, namespace_lanes)
                for label, _, _ in self._spans
            })
            for offset, group in enumerate(groups):
                lane = phase_lane + 1 + offset
                events.append({
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": lane,
                    "args": {"name": group},
                })
                for label, start, end in self._spans:
                    if self._namespace(label, namespace_lanes) != group:
                        continue
                    events.append({
                        "name": label,
                        "cat": "phase",
                        "ph": "X",
                        "ts": start,
                        "dur": max(1, end - start),
                        "pid": 0,
                        "tid": lane,
                        "args": {"steps": end - start},
                    })
        events.extend(self._events)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_json(self) -> str:
        """The Chrome trace serialized as a JSON string."""
        return json.dumps(self.to_chrome())

    def save(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path`` (host-side output,
        outside the I/O model)."""
        with open(path, "w") as fh:  # em: ok(EM002) host-side trace export
            fh.write(self.to_json())
