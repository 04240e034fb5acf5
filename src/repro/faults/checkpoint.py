"""Pass-granular checkpoint/restart for external merge sort.

External merge sort has a natural recovery grain: each pass (run
formation, then every merge pass) reads only the previous pass's output
and writes a new generation of runs.  :class:`SortManifest` records each
completed pass as a list of run descriptors (block ids plus record
count), and :func:`checkpointed_merge_sort` commits the manifest after
every pass — so a sort killed by a
:class:`~repro.core.exceptions.SimulatedCrash` (or any other error)
resumes from the last committed pass instead of restarting from the
input::

    manifest = SortManifest()
    try:
        result = checkpointed_merge_sort(machine, stream, manifest)
    except SimulatedCrash:
        result = checkpointed_merge_sort(machine, stream, manifest)

Resume costs no I/O by itself: committed runs are re-opened with
:meth:`~repro.core.stream.FileStream.adopt`, which only validates that
the recorded blocks are still allocated.  Unlike the plain sort, a
pass's inputs are deleted only *after* the next pass commits, so a pass
that dies mid-merge can always be re-run from its surviving inputs
(the partial outputs it left behind are recorded in the manifest and
deleted on resume).

Torn writes are silent at write time and surface as
:class:`~repro.core.exceptions.ChecksumError` when the block is next
read.  With ``verify_outputs=True`` every pass's fresh output is
re-read before its manifest commit (charged as ordinary read I/O) and a
corrupt pass is redone — so a committed pass is always intact and a
torn write can never poison a later pass's input.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional

from ..core.exceptions import ChecksumError, ConfigurationError, \
    RetryExhaustedError
from ..core.machine import Machine
from ..core.stream import FileStream
from ..sort.merge import RUN_STRATEGIES, merge_pass, plan_merge_arity
from ..sort.runs import identity

_MANIFEST_VERSION = 1
# Redo budget per pass for ``verify_outputs``: a pass whose fresh
# output fails its checksum is redone at most this many times.
MAX_REDOS = 3


def _describe(stream: FileStream) -> Dict[str, Any]:
    return {"blocks": list(stream.block_ids), "length": len(stream)}


def _sync_device(machine: Machine) -> None:
    """Make a manifest commit durable on a file-backed device: a
    :class:`~repro.core.filedisk.FileDiskArray` flushes its block table
    so a post-crash ``open()`` recovers exactly the committed blocks.
    In-memory devices have nothing to flush."""
    sync = getattr(machine.disk, "sync_metadata", None)
    if sync is not None:
        sync()


class SortManifest:
    """Durable record of a checkpointed sort's progress.

    Attributes:
        passes: one entry per committed pass (entry 0 is run formation),
            each a list of run descriptors ``{"blocks": [...],
            "length": n}``.
        partial_runs: descriptors of group outputs a crashed merge pass
            left behind; deleted on resume before the pass is re-run.
        arity: the merge arity fixed by the first invocation, so a
            resume reproduces the original pass structure even if the
            free memory budget differs slightly.
        done: whether the sort finished; ``result`` then describes the
            output stream.
        passes_redone: passes re-run because verification found a
            corrupt (torn) output block.
    """

    def __init__(self):
        self.passes: List[List[Dict[str, Any]]] = []
        self.partial_runs: List[Dict[str, Any]] = []
        self.arity: Optional[int] = None
        self.done = False
        self.result: Optional[Dict[str, Any]] = None
        self.passes_redone = 0

    # ------------------------------------------------------------------
    # progress recording
    # ------------------------------------------------------------------
    def commit_pass(self, streams: List[FileStream]) -> None:
        """Record one completed pass; clears any partial-pass debris."""
        self.passes.append([_describe(s) for s in streams])
        self.partial_runs = []

    def record_partial(self, streams: List[FileStream]) -> None:
        """Record the group outputs a dying pass already finished."""
        self.partial_runs = [_describe(s) for s in streams]

    def commit_result(self, stream: FileStream) -> None:
        """Mark the sort finished."""
        self.result = _describe(stream)
        self.done = True
        self.partial_runs = []

    @property
    def committed_passes(self) -> int:
        """Number of committed passes (run formation counts as one)."""
        return len(self.passes)

    # ------------------------------------------------------------------
    # serialization (round-trips through JSON for durable storage)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "version": _MANIFEST_VERSION,
            "passes": self.passes,
            "partial_runs": self.partial_runs,
            "arity": self.arity,
            "done": self.done,
            "result": self.result,
            "passes_redone": self.passes_redone,
        })

    @classmethod
    def from_json(cls, text: str) -> "SortManifest":
        """Rebuild a manifest written by :meth:`to_json`; a manifest of
        any other format version is rejected, never half-read."""
        data = json.loads(text)
        version = data.get("version")
        if version != _MANIFEST_VERSION:
            raise ConfigurationError(
                f"sort manifest version {version!r} is not supported "
                f"(expected {_MANIFEST_VERSION})"
            )
        manifest = cls()
        manifest.passes = data["passes"]
        manifest.partial_runs = data.get("partial_runs", [])
        manifest.arity = data.get("arity")
        manifest.done = data["done"]
        manifest.result = data.get("result")
        manifest.passes_redone = data.get("passes_redone", 0)
        return manifest


# ----------------------------------------------------------------------
# verification helpers
# ----------------------------------------------------------------------
def _scan_for_corruption(machine: Machine, stream: FileStream
                         ) -> Optional[ChecksumError]:
    """Re-read every block of ``stream`` (charged reads, with the
    scheduler's transient-fault retry) and report the first checksum
    mismatch, or ``None`` if the stream is intact."""
    for block_id in stream.block_ids:
        try:
            machine.runtime.read_block(block_id)
        except ChecksumError as error:
            return error
    return None


def _verify_or_none(machine: Machine, streams: List[FileStream]
                    ) -> Optional[ChecksumError]:
    for stream in streams:
        error = _scan_for_corruption(machine, stream)
        if error is not None:
            return error
    return None


# ----------------------------------------------------------------------
# the checkpointed sort
# ----------------------------------------------------------------------
def checkpointed_merge_sort(
    machine: Machine,
    stream: FileStream,
    manifest: SortManifest,
    key: Optional[Callable[[Any], Any]] = None,
    fan_in: Optional[int] = None,
    stream_cls=FileStream,
    verify_outputs: bool = False,
) -> FileStream:
    """External merge sort that commits ``manifest`` after every pass.

    Semantics match :func:`~repro.sort.merge.external_merge_sort` (same
    passes, same trace labels, stable) with three differences: the input
    stream is never deleted, a pass's inputs outlive it until the next
    pass commits, and progress is recorded in ``manifest`` so a crashed
    sort re-invoked with the *same* manifest (or one rebuilt via
    :meth:`SortManifest.from_json`) resumes from the last committed
    pass.

    Args:
        verify_outputs: re-read each pass's fresh output before
            committing it; a pass whose output fails its checksum (torn
            write) is deleted and redone, up to :data:`MAX_REDOS`
            times, after which
            :class:`~repro.core.exceptions.RetryExhaustedError` is
            raised.

    Returns the finalized sorted stream (also recorded in
    ``manifest.result``).
    """
    key = key or identity
    if manifest.done:
        described = manifest.result
        return stream_cls.adopt(
            machine, described["blocks"], described["length"],
            name="sorted",
        )

    # Debris from a pass that died mid-merge: its completed group
    # outputs will be regenerated when the pass is re-run.
    for described in manifest.partial_runs:
        stream_cls.adopt(
            machine, described["blocks"], described["length"],
            name="ckpt-partial",
        ).delete()
    manifest.partial_runs = []

    if not manifest.passes:
        runs = _form_runs_checkpointed(
            machine, stream, key, stream_cls, verify_outputs, manifest,
        )
        manifest.commit_pass(runs)
        _sync_device(machine)
    else:
        generation = manifest.committed_passes - 1
        runs = [
            stream_cls.adopt(
                machine, described["blocks"], described["length"],
                name=f"ckpt/{generation}/{index}",
            )
            for index, described in enumerate(manifest.passes[-1])
        ]

    if not runs:
        empty = stream_cls(machine, name="sorted").finalize()
        manifest.commit_result(empty)
        _sync_device(machine)
        return empty

    if manifest.arity is None:
        manifest.arity = plan_merge_arity(
            machine, len(runs), fan_in=fan_in, stream_cls=stream_cls
        )
    arity = manifest.arity

    while len(runs) > 1:
        level = manifest.committed_passes  # formation was pass 0
        next_runs = _merge_pass_checkpointed(
            machine, runs, arity, key, stream_cls, level,
            verify_outputs, manifest,
        )
        manifest.commit_pass(next_runs)
        _sync_device(machine)
        # Only now is the previous generation safe to drop.  A lone
        # straggler is *carried forward* (same object in both lists) —
        # deleting it would destroy part of the committed pass.
        carried = {id(run) for run in next_runs}
        for run in runs:
            if id(run) not in carried:
                run.delete()
        runs = next_runs

    manifest.commit_result(runs[0])
    _sync_device(machine)
    return runs[0]


def _form_runs_checkpointed(
    machine: Machine,
    stream: FileStream,
    key: Callable[[Any], Any],
    stream_cls,
    verify_outputs: bool,
    manifest: SortManifest,
) -> List[FileStream]:
    """Run formation with the verify-and-redo loop.  Run formation
    cleans up its own partial output on error, so a crash here leaves
    nothing for the manifest to track."""
    form = RUN_STRATEGIES["load"]
    last_error: Optional[ChecksumError] = None
    for _ in range(MAX_REDOS + 1):
        runs = form(machine, stream, key=key, stream_cls=stream_cls)
        if not verify_outputs:
            return runs
        last_error = _verify_or_none(machine, runs)
        if last_error is None:
            return runs
        manifest.passes_redone += 1
        for run in runs:
            run.delete()
    raise RetryExhaustedError(MAX_REDOS + 1, last_error)


def _merge_pass_checkpointed(
    machine: Machine,
    runs: List[FileStream],
    arity: int,
    key: Callable[[Any], Any],
    stream_cls,
    level: int,
    verify_outputs: bool,
    manifest: SortManifest,
) -> List[FileStream]:
    """One merge pass with crash bookkeeping and the verify-and-redo
    loop.  Inputs are never deleted here — the caller drops them after
    the pass commits."""
    inputs = {id(run) for run in runs}
    last_error: Optional[ChecksumError] = None
    for _ in range(MAX_REDOS + 1):
        landed: List[FileStream] = []
        try:
            next_runs = merge_pass(
                machine, runs, arity,
                key=key, stream_cls=stream_cls, level=level,
                delete_inputs=False, out=landed,
            )
        except BaseException:
            # The in-flight group's output was already deleted by
            # merge_group_steps; completed groups' outputs survive on
            # disk.
            # Record them so resume can reclaim their blocks.
            manifest.record_partial(
                [run for run in landed if id(run) not in inputs]
            )
            raise
        if not verify_outputs:
            return next_runs
        fresh = [run for run in next_runs if id(run) not in inputs]
        last_error = _verify_or_none(machine, fresh)
        if last_error is None:
            return next_runs
        manifest.passes_redone += 1
        for run in fresh:
            run.delete()
    raise RetryExhaustedError(MAX_REDOS + 1, last_error)
