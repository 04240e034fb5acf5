"""The EM200-series certification rules.

========  ===========================================================
EM201     The inferred cost asymptotically exceeds the declared
          ``@io_bound`` bound: some inferred term is not within a
          constant factor of any arm of the theory callable across
          the machine-regime grid.
EM202     The declared bound omits a term the code provably pays at
          leading order: the inferred/declared ratio stays >= 2 in
          every large regime (an extra materialization pass, not an
          asymptotically vanishing additive term).
EM203     Loop-carried I/O whose trip count is data-dependent with no
          recognizable clamp to N/B or M/B (the ``K`` factor).
EM204     Per-block reads issued one at a time in a hot loop over
          precomputed indices where a ``get_many`` wave batch is
          available, forfeiting the D-disk factor.
EM205     The ``@io_bound`` theory callable disagrees with the
          docstring's declared bound class (EM003's closed form).
========  ===========================================================

Findings for EM201/EM202/EM205 anchor on the decorated function
(decorator line through ``def`` line), so one standalone waiver above
the decorator covers the certification; EM203/EM204 anchor on the
offending loop.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..emlint import Finding
from ..flow.summaries import FunctionInfo, Project
from .declared import DeclaredBound, bound_class, declared_bound, \
    doc_classes
from .expr import any_arm_covers, leading_ratio, render, render_arms
from .infer import Inferencer, Summary

#: the EM202 trigger: at least this much constant-factor excess at
#: leading order in every large machine regime
RATIO_THRESHOLD = 2.0


def decorated_functions(project: Project) -> List[FunctionInfo]:
    out = []
    for module in project.modules.values():
        if module.kind != "algorithm":
            continue
        for func in module.functions.values():
            if "io_bound" in func.decorators:
                out.append(func)
    out.sort(key=lambda f: (f.path, f.node.lineno))
    return out


def _anchor(func: FunctionInfo) -> Tuple[int, int]:
    """(line, end_line) spanning decorator through ``def``."""
    line = func.node.lineno
    if func.node.decorator_list:
        line = min(d.lineno for d in func.node.decorator_list)
    return line, func.node.lineno


def run_checks(project: Project,
               report: Optional[Dict[str, Dict[str, object]]] = None,
               ) -> List[Finding]:
    """All EM200-series findings; optionally fills ``report`` with the
    per-function inferred/declared expression table."""
    inferencer = Inferencer(project)
    findings: List[Finding] = []
    seen_loops: Set[Tuple[str, str, int]] = set()

    for func in decorated_functions(project):
        summary = inferencer.summary(func)
        declared = declared_bound(func, project)
        entry: Dict[str, object] = {
            "path": func.path,
            "line": func.node.lineno,
            "inferred": render(summary.cost),
            "declared": (render_arms(declared.arms)
                         if declared else None),
            "certified": None,
        }
        if report is not None:
            report[func.display()] = entry

        findings.extend(_loop_findings(summary, seen_loops))

        if declared is not None:
            findings.extend(_certify(func, summary, declared, entry))
        findings.extend(_doc_check(func, declared))

    return findings


def _loop_findings(summary: Summary,
                   seen: Set[Tuple[str, str, int]]) -> List[Finding]:
    findings = []
    for path, line, message in sorted(summary.ksites):
        key = ("EM203", path, line)
        if key in seen:
            continue
        seen.add(key)
        findings.append(Finding(
            rule="EM203", path=path, line=line, col=1,
            message=message))
    for path, line, message in sorted(summary.bsites):
        key = ("EM204", path, line)
        if key in seen:
            continue
        seen.add(key)
        findings.append(Finding(
            rule="EM204", path=path, line=line, col=1,
            message=message))
    return findings


def _certify(func: FunctionInfo, summary: Summary,
             declared: DeclaredBound,
             entry: Dict[str, object]) -> List[Finding]:
    findings: List[Finding] = []
    line, end_line = _anchor(func)
    exceeding = [t for t in summary.cost
                 if not t.has_unknown
                 and not any_arm_covers(declared.arms, t)]
    if exceeding:
        entry["certified"] = False
        worst = render([exceeding[0]])
        findings.append(Finding(
            rule="EM201", path=func.path, line=line, col=1,
            end_line=end_line,
            message=(
                f"inferred cost of {func.qualname}() asymptotically "
                f"exceeds the declared bound: term {worst} is not "
                f"covered by {render_arms(declared.arms)} "
                f"(inferred total: {render(summary.cost)})"),
            trace=summary.origins))
        return findings

    if not declared.is_min:
        certifiable = [t for t in summary.cost if not t.has_unknown]
        ratio = leading_ratio(certifiable, declared.arms[0])
        if ratio >= RATIO_THRESHOLD:
            entry["certified"] = False
            findings.append(Finding(
                rule="EM202", path=func.path, line=line, col=1,
                end_line=end_line,
                message=(
                    f"declared bound of {func.qualname}() omits a "
                    f"term the code pays at leading order: inferred "
                    f"{render(certifiable)} is >= {ratio:.1f}x the "
                    f"declared {render(declared.arms[0])} in every "
                    "large machine regime"),
                trace=summary.origins))
            return findings
    entry["certified"] = True
    return findings


def _doc_check(func: FunctionInfo,
               declared: Optional[DeclaredBound]) -> List[Finding]:
    if declared is None:
        return []
    # A theory bound like ``4n + 2·Sort(E)`` contains terms of several
    # classes (a docstring may legitimately name any of them), so fire
    # only when NO term of the theory matches any class the docstring's
    # closed form reads as — a genuine contract disagreement, not a
    # leading-vs-secondary-term quibble.
    theory_classes: Set[str] = set()
    for arm in declared.arms:
        for t in arm:
            cls = bound_class([t])
            if cls is not None:
                theory_classes.add(cls)
    if not theory_classes:
        return []
    docstring = ast.get_docstring(func.node)
    classes = doc_classes(docstring)
    if not classes or theory_classes & classes:
        return []
    # scan and linear are the same closed-form family once D and the
    # constant factors are folded in; only cross-family disagreement
    # (sort vs scan, search vs linear) is a contract violation
    if theory_classes & {"scan", "linear"} \
            and classes & {"scan", "linear"}:
        return []
    label = "/".join(sorted(theory_classes))
    line, end_line = _anchor(func)
    return [Finding(
        rule="EM205", path=func.path, line=line, col=1,
        end_line=end_line,
        message=(
            f"theory callable of {func.qualname}() declares a "
            f"{label}-class bound but the docstring's closed "
            f"form reads as {'/'.join(sorted(classes))}; align the "
            "docstring with the @io_bound theory"))]
