"""EM-state: typestate analysis for resource lifecycles and
fault-safety protocols.

The EM300-series tier reuses the EM-flow CFGs (exception/finally edges)
and call-graph summaries to track abstract objects through the
runtime's resource state machines — frame pins (pinned -> released),
stream readers and handles (open -> closed), the checkpoint manifest
(staged -> committed -> done), and the write-behind window (pending ->
flushed) — and reports paths that violate a protocol: leaks on
exception paths (EM301), handles without a guaranteed close (EM302),
use-after-release and repeatable releases (EM303), raw disk I/O that
bypasses the runtime (EM304), checkpoint-protocol violations (EM305),
and durability points reached with write-behind unflushed (EM306).

The checks run in the emlint pass (:mod:`repro.analysis.engine`) over
the project build the flow and cost tiers share;
:data:`~repro.analysis.state.machines.PROTOCOLS` holds the declarative
resource state machines they consume.
"""

from .machines import PROTOCOLS, ResourceProtocol

__all__ = [
    "PROTOCOLS",
    "ResourceProtocol",
]
