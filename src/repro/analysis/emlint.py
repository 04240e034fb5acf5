"""EM-lint per-file stage: the per-line rules, waiver parsing, finding
assembly.

Each module is parsed and the
:class:`~repro.analysis.rules.ComplianceVisitor` run over its AST, then
*waivers* are applied: ``# em: ok(EM004) sorts one memoryload (≤ M)``
comments that suppress a finding while documenting why the construct is
legitimate.  A waiver on its own line covers the next line; an inline
waiver covers its own line.  Multiple rules may be waived at once:
``# em: ok(EM001, EM004) reason``.

Waivers are themselves checked (rule EM007): a waiver must use the exact
syntax, name known rules, carry a non-empty reason, and actually
suppress something.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Container, Dict, Iterable, List, Optional, Set, Tuple

#: matches a well-formed waiver comment and captures (rules, reason)
WAIVER_RE = re.compile(
    r"#\s*em:\s*ok\(\s*([A-Za-z0-9_*]+(?:\s*,\s*[A-Za-z0-9_*]+)*)\s*\)"
    r"\s*(.*)\s*$"
)
#: anything that *looks* like it wants to be an EM directive
MARKER_RE = re.compile(r"#\s*em\s*:")


@dataclass
class Finding:
    """One rule violation (or documented exception, once waived)."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    end_line: int = 0
    waived: bool = False
    waiver_reason: str = ""
    #: interprocedural evidence (call chain and path), one hop per entry
    trace: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.end_line:
            self.end_line = self.line

    def render(self) -> str:
        mark = "waived " if self.waived else ""
        text = (f"{self.path}:{self.line}:{self.col}: {mark}{self.rule} "
                f"{self.message}")
        if self.waived and self.waiver_reason:
            text += f" [{self.waiver_reason}]"
        return text

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }
        if self.trace:
            data["trace"] = list(self.trace)
        return data


@dataclass
class Waiver:
    """A parsed ``# em: ok(...)`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str
    standalone: bool
    #: for a standalone waiver: the next code line, which it covers
    target_line: int = 0
    #: rule ids this waiver actually suppressed (usage is per rule id,
    #: not per comment: ``ok(EM001,EM004)`` may be half dead)
    used_rules: Set[str] = field(default_factory=set)

    @property
    def used(self) -> bool:
        return bool(self.used_rules)

    def mark_used(self, rule: str) -> None:
        self.used_rules.add(rule)

    @property
    def covered_lines(self) -> Tuple[int, ...]:
        if self.standalone and self.target_line:
            return (self.line, self.target_line)
        return (self.line,)

    def covers(self, finding: Finding) -> bool:
        if finding.rule not in self.rules and "*" not in self.rules:
            return False
        span = range(finding.line, finding.end_line + 1)
        return any(line in span for line in self.covered_lines)


def parse_waivers(source: str, path: str) -> Tuple[List[Waiver],
                                                   List[Finding]]:
    """Extract waivers and EM007 syntax findings from comments."""
    from .rules import ALL_RULES

    waivers: List[Waiver] = []
    findings: List[Finding] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return [], []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        comment = token.string
        if not MARKER_RE.search(comment):
            continue
        row, col = token.start
        match = WAIVER_RE.search(comment)
        if not match:
            findings.append(Finding(
                rule="EM007", path=path, line=row, col=col + 1,
                message=f"malformed waiver comment {comment.strip()!r}; "
                        "expected '# em: ok(EM00X) reason'",
            ))
            continue
        rules = tuple(
            part.strip() for part in match.group(1).split(","))
        reason = match.group(2).strip()
        for rule in rules:
            if rule != "*" and rule not in ALL_RULES:
                findings.append(Finding(
                    rule="EM007", path=path, line=row, col=col + 1,
                    message=f"waiver names unknown rule {rule!r}",
                ))
        if not reason:
            findings.append(Finding(
                rule="EM007", path=path, line=row, col=col + 1,
                message="waiver has no reason; document why the "
                        "construct respects the model",
            ))
        prefix = lines[row - 1][:col] if row - 1 < len(lines) else ""
        standalone = not prefix.strip()
        target_line = 0
        if standalone:
            # A standalone waiver covers the next code line, skipping
            # blank lines and continuation comments.
            for offset in range(row, len(lines)):
                text = lines[offset].strip()
                if text and not text.startswith("#"):
                    target_line = offset + 1
                    break
        waivers.append(Waiver(
            line=row,
            rules=rules,
            reason=reason,
            standalone=standalone,
            target_line=target_line,
        ))
    return waivers, findings


def classify(path: str) -> str:
    """Module category for rule scoping (see ComplianceVisitor)."""
    normalized = path.replace(os.sep, "/")
    parts = normalized.split("/")
    if "analysis" in parts:
        return "exempt"
    if "core" in parts or "runtime" in parts:
        # The runtime (scheduler, prefetch, write-behind, trace) is
        # substrate like core: it *implements* the charged primitives,
        # so the algorithm-facing rules do not apply to it.
        return "core"
    if parts[-1] in ("workloads.py", "conftest.py", "setup.py"):
        return "support"
    return "algorithm"


def static_findings(source: str, path: str = "<string>",
                    kind: Optional[str] = None) -> List[Finding]:
    """Run the per-line rules (EM001-EM006) over one module, without
    any waiver processing."""
    from .rules import ComplianceVisitor

    if kind is None:
        kind = classify(path)
    if kind == "exempt":
        return []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding(
            rule="EM007", path=path, line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            message=f"could not parse module: {exc.msg}",
        )]
    visitor = ComplianceVisitor(kind, path)
    visitor.visit(tree)
    return visitor.findings


def apply_waivers(findings: Iterable[Finding],
                  waivers: Iterable[Waiver]) -> None:
    """Mark findings covered by a waiver, recording which rule ids each
    waiver suppressed."""
    for finding in findings:
        for waiver in waivers:
            if waiver.covers(finding):
                finding.waived = True
                finding.waiver_reason = waiver.reason
                waiver.mark_used(finding.rule)
                break


def unused_waiver_findings(waivers: Iterable[Waiver], path: str,
                           active_rules: Container[str]) -> List[Finding]:
    """EM007 findings for waiver rule ids that suppressed nothing.

    Usage is tracked per rule id, so ``# em: ok(EM001,EM004) ...`` where
    only EM001 ever fires is flagged for the dead EM004 entry.  Rule ids
    outside ``active_rules`` (e.g. flow rules during a per-line-only
    run) are not judged: the checker that would use them did not run.
    """
    findings: List[Finding] = []
    for waiver in waivers:
        if not waiver.reason:
            continue  # already flagged as malformed at parse time
        if "*" in waiver.rules:
            if not waiver.used:
                findings.append(Finding(
                    rule="EM007", path=path, line=waiver.line, col=1,
                    message="waiver suppresses nothing; remove it or "
                            f"fix the rule list {', '.join(waiver.rules)}",
                ))
            continue
        for rule in waiver.rules:
            if rule not in active_rules:
                continue  # unknown ids flagged at parse time; inactive
                          # ids were never checked this run
            if rule not in waiver.used_rules:
                findings.append(Finding(
                    rule="EM007", path=path, line=waiver.line, col=1,
                    message=f"waiver rule {rule} suppresses nothing; "
                            "remove it or fix the rule list "
                            f"{', '.join(waiver.rules)}",
                ))
    return findings


def finish_findings(findings: List[Finding], waivers: List[Waiver],
                    waiver_findings: List[Finding], path: str,
                    active_rules: Container[str]) -> List[Finding]:
    """Apply waivers, flag dead waiver entries, and sort."""
    apply_waivers(findings, waivers)
    waiver_findings = list(waiver_findings)
    waiver_findings.extend(
        unused_waiver_findings(waivers, path, active_rules))
    # EM007 findings may themselves be waived (e.g. fixture files that
    # intentionally hold broken waivers).
    apply_waivers(waiver_findings, waivers)
    findings = findings + waiver_findings
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_source(source: str, path: str = "<string>",
                kind: Optional[str] = None) -> List[Finding]:
    """Lint one module's source text with the per-line rules only;
    returns all findings, waived ones marked as such.  The whole pass
    over a file set is :func:`repro.analysis.engine.lint_paths`."""
    from .rules import RULES

    if kind is None:
        kind = classify(path)
    if kind == "exempt":
        return []
    findings = static_findings(source, path, kind)
    waivers, waiver_findings = parse_waivers(source, path)
    return finish_findings(findings, waivers, waiver_findings, path,
                           RULES)


def iter_python_files(paths: Iterable[str]) -> Iterable[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git", "results"))
                for name in sorted(files):
                    if name.endswith(".py"):
                        seen.append(os.path.join(root, name))
        elif path.endswith(".py"):
            seen.append(path)
    return seen


def unwaived(findings: Iterable[Finding]) -> List[Finding]:
    """The findings that still need fixing (not covered by a waiver)."""
    return [finding for finding in findings if not finding.waived]
