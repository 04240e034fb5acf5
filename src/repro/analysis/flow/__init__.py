"""Interprocedural budget- and stream-dataflow analysis (EM100 rules).

The emlint pass (:mod:`repro.analysis.engine`) builds one
:class:`~repro.analysis.flow.summaries.Project` for the flow, cost and
state tiers; this package root exports what reads the findings: SARIF
2.1.0 output and the baseline helpers.
"""

from .baseline import load_baseline, split_by_baseline, write_baseline
from .sarif import fingerprint, to_sarif

__all__ = [
    "fingerprint",
    "load_baseline",
    "split_by_baseline",
    "to_sarif",
    "write_baseline",
]
