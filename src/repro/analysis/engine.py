"""The emlint pass: every analyzer tier over one shared project build.

:func:`lint_paths` / :func:`lint_sources` run, in order:

1. the per-file stage — parse, the per-line rules (EM001-EM006) and
   waiver extraction (EM007) — fanned out over ``jobs`` processes;
2. one :class:`~repro.analysis.flow.summaries.Project` (CFGs, call
   graph, taint summaries) over every non-exempt file;
3. the flow (EM1xx), cost (EM2xx) and typestate (EM3xx) checks over
   that project; ``report``, when given, is filled with the cost tier's
   inferred/declared expression table;
4. waivers, with waiver usage judged against the full rule catalogue.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .emlint import (
    Finding, Waiver, classify, finish_findings, iter_python_files,
    parse_waivers, static_findings,
)

#: per-file result triple: (findings, waivers, waiver findings)
PerFile = Tuple[List[Finding], List[Waiver], List[Finding]]
#: the cost tier's expression table, keyed ``module.function``
CostReport = Dict[str, Dict[str, object]]


def _per_file(item: Tuple[str, str]) -> Tuple[str, PerFile]:
    path, source = item
    findings = static_findings(source, path)
    waivers, waiver_findings = parse_waivers(source, path)
    return path, (findings, waivers, waiver_findings)


def lint_paths(paths: Iterable[str], jobs: int = 1,
               report: Optional[CostReport] = None) -> List[Finding]:
    """Lint every Python file under ``paths`` with every rule; returns
    all findings, waived ones marked, sorted by (path, line, col,
    rule)."""
    sources: List[Tuple[str, str]] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            sources.append((path, handle.read()))
    return lint_sources(sources, jobs=jobs, report=report)


def lint_sources(sources: List[Tuple[str, str]], jobs: int = 1,
                 report: Optional[CostReport] = None) -> List[Finding]:
    """Same as :func:`lint_paths` for in-memory (path, source) pairs."""
    # The tiers load lazily: algorithm modules import this package for
    # the sanitizer, and should not pay for the analyzer.
    from .cost.checks import run_checks as cost_checks
    from .flow.checks import run_checks as flow_checks
    from .flow.summaries import Project
    from .rules import ALL_RULES
    from .state.checks import run_checks as state_checks

    work = [(path, source) for path, source in sources
            if classify(path) != "exempt"]
    if jobs > 1 and len(work) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(jobs, len(work))) as pool:
            per_file = dict(pool.map(_per_file, work))
    else:
        per_file = dict(map(_per_file, work))

    project = Project.build(work)
    for finding in (flow_checks(project)
                    + cost_checks(project, report=report)
                    + state_checks(project)):
        per_file[finding.path][0].append(finding)

    combined: List[Finding] = []
    for path, (findings, waivers, waiver_findings) in per_file.items():
        combined.extend(finish_findings(
            findings, waivers, waiver_findings, path, ALL_RULES))
    combined.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return combined
