"""Tests for the EM100-series interprocedural flow analysis.

Each fixture is a tiny synthetic module fed through
:func:`lint_sources` and keeps only the per-line and EM100-series
findings; paths are chosen so the modules classify as algorithm code
(the strict tier).  Assertions filter by rule id so the
EM001-series static findings the fixtures also trigger (missing bound
docstrings etc.) don't interfere.
"""

import json

import pytest

from repro.analysis import lint_sources
from repro.analysis.flow import (
    load_baseline,
    split_by_baseline,
    to_sarif,
    write_baseline,
)
from repro.analysis.flow.sarif import SARIF_VERSION, fingerprint
from repro.analysis.rules import FLOW_RULES, RULES


def flow_lint(sources):
    """The flow tier's findings: per-line and EM100-series rules."""
    return [f for f in lint_sources(sources)
            if f.rule in RULES or f.rule in FLOW_RULES]


def flow_findings(sources, rule=None):
    findings = [f for f in flow_lint(sources) if not f.waived]
    if rule is not None:
        findings = [f for f in findings if f.rule == rule]
    return findings


ALGO = "src/repro/algo/fixture.py"


# ---------------------------------------------------------------------
# EM101: budget leaks
# ---------------------------------------------------------------------

class TestBudgetLeaks:
    def test_intraprocedural_exception_leak(self):
        src = '''
def _run(machine, stream):
    machine.budget.acquire(machine.B)
    total = _risky(stream)
    machine.budget.release(machine.B)
    return total
'''
        findings = flow_findings([(ALGO, src)], rule="EM101")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.line == 3
        assert "exception path" in finding.message
        assert any("leaking path" in hop for hop in finding.trace)

    def test_try_finally_is_clean(self):
        src = '''
def _run(machine, stream):
    machine.budget.acquire(machine.B)
    try:
        return _risky(stream)
    finally:
        machine.budget.release(machine.B)
'''
        assert flow_findings([(ALGO, src)], rule="EM101") == []

    def test_early_return_leak(self):
        src = '''
def _run(machine, items):
    machine.budget.acquire(machine.B)
    if not items:
        return []
    out = sorted(items)
    machine.budget.release(machine.B)
    return out
'''
        findings = flow_findings([(ALGO, src)], rule="EM101")
        assert findings
        assert any("return path" in f.message for f in findings)

    def test_interprocedural_leak_has_call_chain_trace(self):
        helper = '''
def grab(machine, count):
    machine.budget.acquire(count)
'''
        caller = '''
from .helper import grab

def _run(machine, items):
    grab(machine, len(items))
    return sorted(items)
'''
        helper_path = "src/repro/algo/helper.py"
        findings = flow_findings(
            [(helper_path, helper), (ALGO, caller)], rule="EM101"
        )
        assert findings
        # The trace walks from the acquiring helper to the caller.
        joined = " ".join(" ".join(f.trace) for f in findings)
        assert "helper.py" in joined
        assert any(f.path == ALGO for f in findings) \
            or any("fixture" in joined for f in findings)

    def test_interprocedural_leak_released_by_caller_is_clean(self):
        helper = '''
def grab(machine, count):
    machine.budget.acquire(count)
'''
        caller = '''
from .helper import grab

def _run(machine, items):
    grab(machine, len(items))
    try:
        return sorted(items)
    finally:
        machine.budget.release(len(items))
'''
        findings = flow_findings(
            [("src/repro/algo/helper.py", helper), (ALGO, caller)],
            rule="EM101",
        )
        assert findings == []


# ---------------------------------------------------------------------
# EM102 / EM103: stream dataflow
# ---------------------------------------------------------------------

class TestStreamFlow:
    def test_nested_full_scan_detected(self):
        src = '''
def _join(machine, left: FileStream, right: FileStream):
    out = []
    for a in left:
        for b in right:
            if a == b:
                out.append(a)
    return out
'''
        findings = flow_findings([(ALGO, src)], rule="EM102")
        assert len(findings) == 1
        assert findings[0].line == 5

    def test_scan_of_loop_local_stream_is_clean(self):
        src = '''
def _split(machine, runs):
    out = []
    for run in runs:
        for record in run:
            out.append(record)
    return out
'''
        assert flow_findings([(ALGO, src)], rule="EM102") == []

    def test_interprocedural_materialization(self):
        helper = '''
def collect(stream):
    return sorted(stream)
'''
        caller = '''
from .helper import collect

def _run(machine, stream: FileStream):
    return collect(stream)
'''
        findings = flow_findings(
            [("src/repro/algo/helper.py", helper), (ALGO, caller)],
            rule="EM103",
        )
        assert len(findings) == 1
        assert findings[0].path == ALGO
        assert "helper" in findings[0].message

    def test_nested_scan_via_callee_summary(self):
        helper = '''
def probe(stream, needle):
    for record in stream:
        if record == needle:
            return True
    return False
'''
        caller = '''
from .helper import probe

def _run(machine, left: FileStream, right: FileStream):
    hits = []
    for a in left:
        if probe(right, a):
            hits.append(a)
    return hits
'''
        findings = flow_findings(
            [("src/repro/algo/helper.py", helper), (ALGO, caller)],
            rule="EM102",
        )
        assert findings
        joined = " ".join(" ".join(f.trace) for f in findings)
        assert "helper.py" in joined


# ---------------------------------------------------------------------
# EM103 fusion sub-check: sort-then-single-scan is a Sorter candidate
# ---------------------------------------------------------------------

class TestFusionCandidates:
    def test_single_scan_over_materialized_sort_flagged(self):
        src = '''
def _run(machine, stream: FileStream):
    ordered = external_merge_sort(machine, stream, key=lambda r: r)
    total = 0
    for record in ordered:
        total += record
    ordered.delete()
    return total
'''
        findings = flow_findings([(ALGO, src)], rule="EM103")
        assert len(findings) == 1
        assert "pipelined Sorter" in findings[0].message

    def test_second_consumer_suppresses_fusion_finding(self):
        # Two scans genuinely need the materialized copy; fusing the
        # sort into the first would force a re-sort for the second.
        src = '''
def _run(machine, stream: FileStream):
    ordered = external_merge_sort(machine, stream, key=lambda r: r)
    total = 0
    for record in ordered:
        total += record
    for record in ordered:
        total -= record
    ordered.delete()
    return total
'''
        assert flow_findings([(ALGO, src)], rule="EM103") == []

    def test_lifecycle_calls_do_not_mask_the_single_scan(self):
        # delete()/len() are bookkeeping, not consumers: the stream is
        # still single-scan and the candidate must fire.
        src = '''
def _run(machine, stream: FileStream):
    ordered = external_merge_sort(machine, stream, key=lambda r: r)
    count = len(ordered)
    values = []
    for record in ordered:
        values.append(record)
    ordered.delete()
    return count, values
'''
        findings = flow_findings([(ALGO, src)], rule="EM103")
        assert len(findings) == 1

    def test_single_iter_blocks_scan_is_flagged(self):
        # ``x.iter_blocks()`` reads the sorted copy once, a block at a
        # time: the same round trip a Sorter boundary skips.
        src = '''
def _run(machine, stream: FileStream):
    ordered = external_merge_sort(machine, stream, key=lambda r: r)
    total = 0
    for payload in ordered.iter_blocks():
        total += len(payload)
    ordered.delete()
    return total
'''
        findings = flow_findings([(ALGO, src)], rule="EM103")
        assert len(findings) == 1
        assert "'ordered'" in findings[0].message

    def test_uncalled_iter_blocks_is_not_a_single_scan(self):
        # A bound ``x.iter_blocks`` handed on may be called any number
        # of times, so it is not counted as the one scan.
        src = '''
def _run(machine, stream: FileStream):
    ordered = external_merge_sort(machine, stream, key=lambda r: r)
    total = _consume(ordered.iter_blocks)
    ordered.delete()
    return total
'''
        assert flow_findings([(ALGO, src)], rule="EM103") == []

    def test_sort_returned_from_a_helper_is_flagged(self):
        # A helper that returns a materializing sort's result is a
        # materializing sort itself.
        src = '''
def _sorted(machine, stream: FileStream) -> FileStream:
    return external_merge_sort(machine, stream, key=lambda r: r)


def _run(machine, stream: FileStream):
    ordered = _sorted(machine, stream)
    total = 0
    for payload in ordered.iter_blocks():
        total += len(payload)
    ordered.delete()
    return total
'''
        findings = flow_findings([(ALGO, src)], rule="EM103")
        assert len(findings) == 1
        assert "_sorted()" in findings[0].message

    def test_refactored_modules_are_fusion_clean(self):
        # The pipelined refactor leaves no unwaived sort-then-scan
        # boundary in the fused join / time-forward / list-ranking /
        # suffix-array paths (the materialized control variants carry
        # explicit waivers).
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "src"
        modules = [
            root / "repro" / "relational" / "joins.py",
            root / "repro" / "graph" / "timeforward.py",
            root / "repro" / "graph" / "list_ranking.py",
            root / "repro" / "text" / "suffix_array.py",
        ]
        sources = [(str(path), path.read_text()) for path in modules]
        assert flow_findings(sources, rule="EM103") == []


# ---------------------------------------------------------------------
# EM104 / EM105: envelope discipline
# ---------------------------------------------------------------------

class TestEnvelope:
    def test_unguarded_data_dependent_reserve(self):
        src = '''
def _run(machine, items):
    with machine.budget.reserve(len(items)):
        return sorted(items)
'''
        findings = flow_findings([(ALGO, src)], rule="EM104")
        assert len(findings) == 1
        assert "no guard" in findings[0].message

    def test_guarded_reserve_is_clean(self):
        src = '''
def _run(machine, items):
    if len(items) > machine.M:
        raise MemoryLimitExceeded(len(items), 0, machine.M)
    with machine.budget.reserve(len(items)):
        return sorted(items)
'''
        assert flow_findings([(ALGO, src)], rule="EM104") == []

    def test_model_derived_reserve_is_clean(self):
        src = '''
def _run(machine, stream):
    with machine.budget.reserve(machine.M - 2 * machine.B):
        return list(range(3))
'''
        assert flow_findings([(ALGO, src)], rule="EM104") == []

    def test_machine_aliasing_detected(self):
        machine_mod = '''
class Machine:
    def __init__(self, block_size, memory_blocks):
        self.block_size = block_size
        self.memory_blocks = memory_blocks
'''
        helper = '''
def scan_all(machine, stream):
    return machine.B
'''
        caller = '''
from ..core.machine import Machine
from .helper import scan_all

def _run(machine, stream):
    private = Machine(block_size=4, memory_blocks=2)
    return scan_all(private, stream)
'''
        findings = flow_findings(
            [("src/repro/core/machine.py", machine_mod),
             ("src/repro/algo/helper.py", helper), (ALGO, caller)],
            rule="EM105",
        )
        assert len(findings) == 1
        assert "private" in findings[0].message


# ---------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------

LEAKY = '''
def _run(machine, stream):
    machine.budget.acquire(machine.B)
    total = _risky(stream)
    machine.budget.release(machine.B)
    return total
'''

WAIVED_SCAN = '''
def _join(machine, left: FileStream, right: FileStream):
    out = []
    for a in left:
        # em: ok(EM102) deliberate quadratic baseline
        for b in right:
            out.append((a, b))
    return out
'''


class TestSarif:
    def sarif_log(self):
        findings = flow_lint([
            (ALGO, LEAKY),
            ("src/repro/algo/waived.py", WAIVED_SCAN),
        ])
        rules = dict(RULES)
        rules.update(FLOW_RULES)
        return findings, to_sarif(findings, rules)

    def test_log_is_valid_sarif_2_1_0(self):
        findings, log = self.sarif_log()
        # JSON-serializable with the 2.1.0 required shape.
        log = json.loads(json.dumps(log))
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        assert len(log["runs"]) == 1
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "emlint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert {"EM101", "EM102", "EM103", "EM104", "EM105"} <= rule_ids
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
        assert len(run["results"]) == len(findings)
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert result["message"]["text"]
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith(".py")
            assert location["region"]["startLine"] >= 1
            assert "emlintFingerprint/v1" in result["partialFingerprints"]

    def test_waived_findings_are_suppressed_results(self):
        findings, log = self.sarif_log()
        results = log["runs"][0]["results"]
        suppressed = [r for r in results if r.get("suppressions")]
        open_results = [r for r in results if not r.get("suppressions")]
        assert any(r["ruleId"] == "EM102" for r in suppressed)
        for result in suppressed:
            assert result["suppressions"][0]["kind"] == "inSource"
        assert any(r["ruleId"] == "EM101" for r in open_results)

    def test_interprocedural_trace_becomes_code_flow(self):
        findings, log = self.sarif_log()
        results = log["runs"][0]["results"]
        flows = [r for r in results if r["ruleId"] == "EM101"
                 and r.get("codeFlows")]
        assert flows
        locations = flows[0]["codeFlows"][0]["threadFlows"][0]["locations"]
        for loc in locations:
            region = loc["location"]["physicalLocation"]["region"]
            assert region["startLine"] >= 1


# ---------------------------------------------------------------------
# Baseline workflow
# ---------------------------------------------------------------------

class TestBaseline:
    def test_round_trip_filters_known_findings(self, tmp_path):
        findings = flow_findings([(ALGO, LEAKY)])
        baseline = tmp_path / "baseline.json"
        count = write_baseline(findings, str(baseline))
        assert count == len(load_baseline(str(baseline))) > 0

        new, known = split_by_baseline(findings, str(baseline))
        assert new == []
        assert len(known) == len(findings)

    def test_new_findings_stay_open(self, tmp_path):
        old = flow_findings([(ALGO, LEAKY)])
        baseline = tmp_path / "baseline.json"
        write_baseline(old, str(baseline))

        grown = LEAKY + '''

def _later(machine, items):
    with machine.budget.reserve(len(items)):
        return sorted(items)
'''
        new, known = split_by_baseline(
            flow_findings([(ALGO, grown)]), str(baseline)
        )
        assert known  # the old leak is still filtered
        assert any(f.rule == "EM104" for f in new)

    def test_fingerprint_survives_line_shifts(self):
        shifted = "\n\n\n" + LEAKY
        a = flow_findings([(ALGO, LEAKY)], rule="EM101")
        b = flow_findings([(ALGO, shifted)], rule="EM101")
        assert a and b
        assert fingerprint(a[0]) == fingerprint(b[0])

    def test_version_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "fingerprints": {}}))
        with pytest.raises(ValueError):
            load_baseline(str(bad))


# ---------------------------------------------------------------------
# Repository gate
# ---------------------------------------------------------------------

class TestRepositoryIsClean:
    def test_src_tree_has_no_unwaived_flow_findings(self, tree_lint):
        findings, _ = tree_lint
        open_findings = [f for f in findings if not f.waived]
        assert open_findings == []
