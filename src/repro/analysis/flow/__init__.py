"""Interprocedural budget- and stream-dataflow analysis (EM100 rules).

Public surface (the emlint pass in :mod:`repro.analysis.engine` runs
the checks over the shared project build):

* :func:`build_cfg` — per-function control-flow graphs;
* :class:`Project` — call graph + taint summaries, built once per pass
  and shared by the flow, cost and state tiers;
* :func:`to_sarif` — SARIF 2.1.0 output;
* baseline helpers (:func:`write_baseline`, :func:`split_by_baseline`).
"""

from .baseline import load_baseline, split_by_baseline, write_baseline
from .cfg import CFG, build_cfg
from .sarif import fingerprint, to_sarif
from .summaries import Project

__all__ = [
    "CFG",
    "Project",
    "build_cfg",
    "fingerprint",
    "load_baseline",
    "split_by_baseline",
    "to_sarif",
    "write_baseline",
]
