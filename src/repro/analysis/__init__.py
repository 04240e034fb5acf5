"""EM-lint: static and dynamic I/O-model compliance tooling.

The library's contract is that every algorithm pays for its work in
block transfers through :class:`~repro.core.machine.Machine` and never
holds more than ``M`` records in internal memory.  This package checks
that contract from two sides:

* :mod:`repro.analysis.engine` — the emlint pass.  Every run checks all
  four tiers over one shared project build: the per-line AST rules
  (EM001–EM007, :mod:`repro.analysis.emlint`) that flag code which
  could bypass the model; the whole-program flow rules (EM101–EM105,
  :mod:`repro.analysis.flow`) over per-function CFGs with exception
  edges and a call graph with stream/budget taint summaries; the
  symbolic cost certification of declared bounds (EM201–EM205,
  :mod:`repro.analysis.cost`); and the typestate rules for resource
  lifecycles (EM301–EM306, :mod:`repro.analysis.state`).  Legitimate
  in-memory steps are *documented*, not invisible, via
  ``# em: ok(<rule>) <reason>`` waiver comments; output can be SARIF
  2.1.0, gated against a CI baseline.
* :mod:`repro.analysis.sanitizer` — an :func:`io_bound` decorator
  registry turning the survey's fundamental-bounds table into an
  executable contract: with ``REPRO_IO_SANITIZE=1`` every decorated
  algorithm asserts measured I/Os ≤ c·theory and reports
  measured-vs-theory ratios.

Run the linter with ``python tools/emlint.py src/repro`` (or the
``emlint`` console script).
"""

from .emlint import Finding, Waiver, lint_source, unwaived
from .engine import lint_paths, lint_sources
from .flow import to_sarif, write_baseline
from .sanitizer import (
    IOBoundViolation,
    SanitizerRecord,
    clear_records,
    io_bound,
    records,
    registry,
    sanitize_enabled,
    sanitizer_report,
    sized,
)


def __getattr__(name: str):
    """The rule catalogues load with the per-line rules, on first use:
    an algorithm that imports the sanitizer loads no analyzer tier."""
    if name in ("ALL_RULES", "FLOW_RULES", "RULES"):
        from . import rules
        return getattr(rules, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Finding",
    "Waiver",
    "ALL_RULES",
    "RULES",
    "FLOW_RULES",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "to_sarif",
    "unwaived",
    "write_baseline",
    "IOBoundViolation",
    "SanitizerRecord",
    "io_bound",
    "registry",
    "records",
    "clear_records",
    "sanitize_enabled",
    "sanitizer_report",
    "sized",
]
