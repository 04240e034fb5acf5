"""``emlint`` command-line interface.

Every run checks all four tiers — per-line (EM0xx), flow (EM1xx), cost
(EM2xx) and typestate (EM3xx) — over one shared project build.

Usage::

    python tools/emlint.py src/repro          # every rule, every tier
    emlint --jobs 8 src/repro                 # parallel per-file stage
    emlint --cost-report costs.json src/repro # + cost expression table
    emlint --sarif out.sarif src/repro        # SARIF 2.1.0 log
    emlint --baseline em.json src/repro       # fail only on NEW
    emlint --write-baseline em.json src/repro # accept current
    emlint --list-rules                       # what each rule means
    emlint --format json src/repro            # machine-readable output
    emlint --show-waived src/repro            # audit documented waivers

Exit status: 0 when every finding is waived (or baselined), 1 when
unwaived findings remain, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .emlint import unwaived
from .engine import lint_paths
from .rules import ALL_RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emlint",
        description="AST-based I/O-model compliance linter for the "
                    "external-memory algorithm library",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format")
    parser.add_argument(
        "--show-waived", action="store_true",
        help="also print findings documented by waivers")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.add_argument(
        "--cost-report", metavar="FILE",
        help="write the inferred/declared cost expression table as "
             "JSON to FILE")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run the per-file analysis stage over N processes "
             "(default: 1)")
    parser.add_argument(
        "--sarif", metavar="FILE",
        help="write a SARIF 2.1.0 log of all findings to FILE")
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="suppress findings recorded in this baseline file; only "
             "new findings fail the run")
    parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="record the current unwaived findings as the accepted "
             "baseline and exit 0")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(ALL_RULES.items()):
            print(f"{rule}  {description}")
        return 0

    for path in args.paths:
        if not os.path.exists(path):
            parser.error(f"no such file or directory: {path}")

    report = {} if args.cost_report else None
    findings = lint_paths(args.paths, jobs=max(1, args.jobs),
                          report=report)
    open_findings = unwaived(findings)
    waived_count = len(findings) - len(open_findings)

    if args.cost_report:
        with open(args.cost_report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.sarif:
        from .flow.sarif import to_sarif
        with open(args.sarif, "w", encoding="utf-8") as handle:
            json.dump(to_sarif(findings, ALL_RULES), handle, indent=2)
            handle.write("\n")

    if args.write_baseline:
        from .flow.baseline import write_baseline
        count = write_baseline(open_findings, args.write_baseline)
        print(f"emlint: baseline written to {args.write_baseline} "
              f"({count} finding(s) accepted)")
        return 0

    known_count = 0
    if args.baseline:
        from .flow.baseline import split_by_baseline
        open_findings, known = split_by_baseline(
            open_findings, args.baseline)
        known_count = len(known)

    if args.format == "json":
        print(json.dumps(
            [f.to_dict() for f in
             (findings if args.show_waived else open_findings)],
            indent=2))
    else:
        shown = findings if args.show_waived else open_findings
        for finding in shown:
            print(finding.render())
        summary = (f"emlint: {len(open_findings)} unwaived finding(s), "
                   f"{waived_count} waived")
        if args.baseline:
            summary += f", {known_count} baselined"
        print(summary)
    return 1 if open_findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
