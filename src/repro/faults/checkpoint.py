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

Run formation and every merge pass share one verify-and-commit step
(``_commit_pass``): run the pass, record the outputs that already
landed if it dies, re-read its fresh outputs when asked, then commit
the manifest and sync the device.

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
        """Rebuild a manifest written by :meth:`to_json`.  Anything
        else — another format version, a JSON value that is not an
        object, or an object without ``passes`` or ``done`` — raises
        :class:`~repro.core.exceptions.ConfigurationError`: a manifest
        is rejected, never half-read."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigurationError("sort manifest is not a JSON object")
        version = data.get("version")
        if version != _MANIFEST_VERSION:
            raise ConfigurationError(
                f"sort manifest version {version!r} is not supported "
                f"(expected {_MANIFEST_VERSION})"
            )
        manifest = cls()
        try:
            manifest.passes = data["passes"]
            manifest.done = data["done"]
        except KeyError as missing:
            raise ConfigurationError(
                f"sort manifest has no {missing} entry") from None
        manifest.partial_runs = data.get("partial_runs", [])
        manifest.arity = data.get("arity")
        manifest.result = data.get("result")
        manifest.passes_redone = data.get("passes_redone", 0)
        return manifest


def _first_corruption(machine: Machine, streams: List[FileStream]
                      ) -> Optional[ChecksumError]:
    """Re-read every block of ``streams`` (charged reads, with the
    scheduler's transient-fault retry) and return the first checksum
    mismatch, or ``None`` if every stream is intact."""
    for stream in streams:
        for block_id in stream.block_ids:
            try:
                machine.runtime.read_block(block_id)
            except ChecksumError as error:
                return error
    return None


def _commit_pass(machine: Machine, manifest: SortManifest,
                 verify_outputs: bool, inputs: List[FileStream],
                 run_pass: Callable[[List[FileStream]], List[FileStream]]
                 ) -> List[FileStream]:
    """Run one pass and commit its output generation to ``manifest``.

    ``run_pass(landed)`` runs the pass: run formation, or one merge
    pass that appends its group outputs to ``landed`` as they land.
    If it dies, the landed outputs are recorded as partial runs, so a
    resume reclaims their blocks.  With ``verify_outputs`` the fresh
    outputs are re-read and a torn pass is deleted and redone, up to
    :data:`MAX_REDOS` times.  ``inputs`` are never deleted here; a
    straggler carried forward from them is not fresh output.
    """
    carried = {id(run) for run in inputs}
    error: Optional[ChecksumError] = None
    for _ in range(MAX_REDOS + 1):
        landed: List[FileStream] = []
        try:
            runs = run_pass(landed)
        except BaseException:
            # The in-flight group's output was already deleted by
            # merge_group_steps; completed groups' outputs survive.
            manifest.record_partial(
                [run for run in landed if id(run) not in carried])
            raise
        fresh = [run for run in runs if id(run) not in carried]
        error = _first_corruption(machine, fresh) if verify_outputs else None
        if error is None:
            manifest.commit_pass(runs)
            _sync_device(machine)
            return runs
        manifest.passes_redone += 1
        for run in fresh:
            run.delete()
    raise RetryExhaustedError(MAX_REDOS + 1, error)


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

    def adopt(described: Dict[str, Any], name: str) -> FileStream:
        return stream_cls.adopt(
            machine, described["blocks"], described["length"], name=name)

    if manifest.done:
        return adopt(manifest.result, "sorted")

    # Debris from a pass that died mid-merge: its completed group
    # outputs will be regenerated when the pass is re-run.
    for described in manifest.partial_runs:
        adopt(described, "ckpt-partial").delete()
    manifest.partial_runs = []

    if manifest.passes:
        generation = manifest.committed_passes - 1
        runs = [adopt(described, f"ckpt/{generation}/{index}")
                for index, described in enumerate(manifest.passes[-1])]
    else:
        # Run formation cleans up its own partial output on error.
        runs = _commit_pass(
            machine, manifest, verify_outputs, [],
            lambda landed: RUN_STRATEGIES["load"](
                machine, stream, key=key, stream_cls=stream_cls))
    if runs and manifest.arity is None:
        manifest.arity = plan_merge_arity(
            machine, len(runs), fan_in=fan_in, stream_cls=stream_cls)

    while len(runs) > 1:
        level = manifest.committed_passes  # formation was pass 0
        next_runs = _commit_pass(
            machine, manifest, verify_outputs, runs,
            lambda landed: merge_pass(
                machine, runs, manifest.arity, key=key, stream_cls=stream_cls,
                level=level, delete_inputs=False, out=landed))
        # Only now is the previous generation safe to drop.  A lone
        # straggler is *carried forward* (same object in both lists) —
        # deleting it would destroy part of the committed pass.
        carried = {id(run) for run in next_runs}
        for run in runs:
            if id(run) not in carried:
                run.delete()
        runs = next_runs

    result = runs[0] if runs else stream_cls(machine, name="sorted").finalize()
    manifest.commit_result(result)
    _sync_device(machine)
    return result
