"""I/O statistics: snapshots, deltas, and pretty-printing.

The unit of cost in the I/O model is the *block transfer*.  Every component
of the substrate funnels its transfers through :class:`IOCounter` objects so
that an experiment can take a snapshot before running an algorithm and
report the exact number of reads and writes it caused.

With ``D > 1`` disks the relevant cost is the number of *parallel I/O
steps*: one step moves up to ``D`` blocks, one per disk.  The
:class:`~repro.core.disk.DiskArray` tracks those separately as
``read_steps`` / ``write_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter


@dataclass
class IOCounter:
    """Mutable tally of block transfers performed by one device.

    Attributes:
        reads: number of blocks transferred from disk to memory.
        writes: number of blocks transferred from memory to disk.
        read_steps: parallel read steps (== ``reads`` on a single disk).
        write_steps: parallel write steps (== ``writes`` on a single disk).
        faults: injected failures observed (transient errors and torn
            writes; see :mod:`repro.faults`).
        retries: transfer attempts re-issued after a transient failure.
        stall_steps: parallel steps during which a disk was busy without
            transferring a block — retry backoff and stuck-slow latency.
    """

    reads: int = 0
    writes: int = 0
    read_steps: int = 0
    write_steps: int = 0
    faults: int = 0
    retries: int = 0
    stall_steps: int = 0

    def snapshot(self) -> "IOStats":
        """Return an immutable copy of the current totals."""
        return IOStats(
            reads=self.reads,
            writes=self.writes,
            read_steps=self.read_steps,
            write_steps=self.write_steps,
            faults=self.faults,
            retries=self.retries,
            stall_steps=self.stall_steps,
        )

    def reset(self) -> None:
        """Zero every counter."""
        self.reads = 0
        self.writes = 0
        self.read_steps = 0
        self.write_steps = 0
        self.faults = 0
        self.retries = 0
        self.stall_steps = 0


@dataclass(frozen=True)
class IOStats:
    """Immutable snapshot of I/O totals, supporting subtraction.

    ``stats_after - stats_before`` yields the I/O performed in between,
    which is how :meth:`repro.core.machine.Machine.measure` reports the
    cost of a measured region.
    """

    reads: int = 0
    writes: int = 0
    read_steps: int = 0
    write_steps: int = 0
    faults: int = 0
    retries: int = 0
    stall_steps: int = 0

    @property
    def total(self) -> int:
        """Total block transfers (reads + writes)."""
        return self.reads + self.writes

    @property
    def total_steps(self) -> int:
        """Total parallel I/O steps (read steps + write steps).

        Stall steps are excluded: they occupy wall-clock on a disk but
        move no blocks, so the model's transfer bounds stay comparable
        with and without fault injection.  Use :attr:`wall_steps` for the
        degraded schedule length."""
        return self.read_steps + self.write_steps

    @property
    def wall_steps(self) -> int:
        """Parallel steps including stalls (backoff and slow-disk
        latency) — the length of the schedule a faulted run actually
        experienced."""
        return self.read_steps + self.write_steps + self.stall_steps

    def __sub__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            reads=self.reads - other.reads,
            writes=self.writes - other.writes,
            read_steps=self.read_steps - other.read_steps,
            write_steps=self.write_steps - other.write_steps,
            faults=self.faults - other.faults,
            retries=self.retries - other.retries,
            stall_steps=self.stall_steps - other.stall_steps,
        )

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            read_steps=self.read_steps + other.read_steps,
            write_steps=self.write_steps + other.write_steps,
            faults=self.faults + other.faults,
            retries=self.retries + other.retries,
            stall_steps=self.stall_steps + other.stall_steps,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IOStats(reads={self.reads}, writes={self.writes}, "
            f"total={self.total}, steps={self.total_steps})"
        )


#: The totals of an :class:`IOCounter` as a tuple in field order, read
#: in one C call (``IOStats(*counter_fields(c)) == c.snapshot()``): for
#: callers that compare counters often and rarely need a snapshot.
counter_fields = attrgetter(*(f.name for f in fields(IOStats)))


@dataclass
class Measurement:
    """Mutable holder filled in by ``Machine.measure()`` context managers.

    The ``stats`` field is populated when the ``with`` block exits; until
    then it holds an all-zero :class:`IOStats`.
    """

    stats: IOStats = field(default_factory=IOStats)

    @property
    def reads(self) -> int:
        return self.stats.reads

    @property
    def writes(self) -> int:
        return self.stats.writes

    @property
    def read_steps(self) -> int:
        return self.stats.read_steps

    @property
    def write_steps(self) -> int:
        return self.stats.write_steps

    @property
    def total(self) -> int:
        return self.stats.total

    @property
    def total_steps(self) -> int:
        return self.stats.total_steps

    @property
    def faults(self) -> int:
        return self.stats.faults

    @property
    def retries(self) -> int:
        return self.stats.retries

    @property
    def stall_steps(self) -> int:
        return self.stats.stall_steps


def format_table(headers, rows) -> str:
    """Render ``rows`` (sequences of cells) under ``headers`` as an aligned
    plain-text table.  Used by the benchmark harnesses to print the series
    each experiment reproduces.
    """
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        line = "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        lines.append(line)
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
