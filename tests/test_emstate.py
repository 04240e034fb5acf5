"""Tests for the EM300-series typestate analysis.

Each fixture is a tiny synthetic module fed through
:func:`lint_sources` and keeps only the per-line and EM300-series
findings; paths are chosen so the modules classify as algorithm code
(the strict tier).  Every rule gets one seeded positive
and a clean (or waived) twin, mirroring the layout of
``test_emflow.py``.  Assertions filter by rule id so the EM001-series
static findings the fixtures also trigger don't interfere.
"""

import json

from repro.analysis import lint_sources
from repro.analysis.flow.sarif import SARIF_VERSION, to_sarif
from repro.analysis.rules import RULES, STATE_RULES


def state_lint(sources):
    """The typestate tier's findings: per-line and EM300-series rules."""
    return [f for f in lint_sources(sources)
            if f.rule in RULES or f.rule in STATE_RULES]


def state_findings(sources, rule=None, waived=False):
    findings = [f for f in state_lint(sources) if f.waived == waived]
    if rule is not None:
        findings = [f for f in findings if f.rule == rule]
    return findings


ALGO = "src/repro/algo/fixture.py"


# ---------------------------------------------------------------------
# EM301: pins and reservations not released on some path
# ---------------------------------------------------------------------

class TestPinLeaks:
    def test_pin_leaked_on_exception_path(self):
        src = '''
def _stage(machine, scheduler, blocks):
    scheduler.try_pin(machine.num_disks)
    payload = _fetch(blocks)
    scheduler.unpin(machine.num_disks)
    return payload
'''
        findings = state_findings([(ALGO, src)], rule="EM301")
        assert len(findings) == 1
        assert findings[0].line == 3
        assert "unpin" in findings[0].message
        assert findings[0].trace

    def test_unpin_in_finally_is_clean(self):
        src = '''
def _stage(machine, scheduler, blocks):
    scheduler.try_pin(machine.num_disks)
    try:
        return _fetch(blocks)
    finally:
        scheduler.unpin(machine.num_disks)
'''
        assert state_findings([(ALGO, src)], rule="EM301") == []

    def test_guarded_unpin_in_finally_is_trusted(self):
        # The read_ahead pattern: the finally's release sits behind a
        # dynamic guard mirroring the pin count.  Trusted by design.
        src = '''
def _prefetch(machine, scheduler, blocks):
    staged = []
    try:
        scheduler.try_pin(machine.num_disks)
        staged.extend(_fetch(blocks))
        for payload in staged:
            yield payload
    finally:
        if staged:
            scheduler.unpin(machine.num_disks)
'''
        assert state_findings([(ALGO, src)], rule="EM301") == []

    def test_class_holder_release_is_clean(self):
        # WriteBehind's window: put() pins, flush() — another method of
        # the same class — unpins the same self-rooted receiver.
        src = '''
class Window:
    def put(self, block_id, records):
        self.scheduler.try_pin()
        self.pending[block_id] = list(records)

    def flush(self):
        self.scheduler.unpin(len(self.pending))
        self.pending.clear()
'''
        assert state_findings([(ALGO, src)], rule="EM301") == []

    def test_unpaired_pin_reported(self):
        src = '''
def _grab(machine, scheduler):
    scheduler.try_pin(machine.num_disks)
    return True
'''
        findings = state_findings([(ALGO, src)], rule="EM301")
        assert len(findings) == 1
        assert "never paired" in findings[0].message


class TestWriterReserve:
    def test_reservation_without_finalize_on_exception(self):
        src = '''
def _emit(machine, records):
    out = FileStream(machine, name="emit")
    out.reserve_writer()
    for record in records:
        out.append(record)
    return out.finalize()
'''
        findings = state_findings([(ALGO, src)], rule="EM301")
        assert any("reserve_writer" in f.message
                   or "writer reservation" in f.message
                   for f in findings)

    def test_catchall_delete_and_reraise_is_clean(self):
        # The merge_streams pattern: a cleanup-and-reraise handler
        # covers the exceptional exit even though the CFG keeps an
        # unconditional propagate edge.
        src = '''
def _emit(machine, records):
    out = FileStream(machine, name="emit")
    try:
        out.reserve_writer()
        for record in records:
            out.append(record)
        return out.finalize()
    except BaseException:
        out.delete()
        raise
'''
        assert state_findings([(ALGO, src)], rule="EM301") == []


class TestReaderLeaks:
    def test_reader_open_across_handler(self):
        src = '''
def _drain(machine, stream: FileStream):
    reader = iter(stream)
    total = 0
    try:
        for record in reader:
            total += _weigh(record)
    except ValueError:
        total = -1
    return total
'''
        findings = state_findings([(ALGO, src)], rule="EM301")
        assert len(findings) == 1
        assert "closing" in findings[0].message

    def test_reader_over_an_attribute_stream(self):
        # ``iter(left.stream)`` opens a reader exactly as ``iter(s)``
        # does: the stream need not be a local name.
        src = '''
def _copy(machine, left, out):
    reader = iter(left.stream)
    try:
        for row in reader:
            out.append(row)
        out.finalize()
    except BaseException:
        out.delete()
        raise
'''
        findings = state_findings([(ALGO, src)], rule="EM301")
        assert len(findings) == 1
        assert "iter(left.stream)" in findings[0].message

    def test_reader_closed_in_finally_is_clean(self):
        src = '''
def _drain(machine, stream: FileStream):
    reader = iter(stream)
    total = 0
    try:
        for record in reader:
            total += _weigh(record)
    except ValueError:
        total = -1
    finally:
        reader.close()
    return total
'''
        assert state_findings([(ALGO, src)], rule="EM301") == []

    def test_contextlib_closing_is_clean(self):
        src = '''
from contextlib import closing


def _drain(machine, stream: FileStream):
    total = 0
    with closing(iter(stream)) as reader:
        try:
            for record in reader:
                total += _weigh(record)
        except ValueError:
            total = -1
    return total
'''
        assert state_findings([(ALGO, src)], rule="EM301") == []


# ---------------------------------------------------------------------
# EM302: handles without a guaranteed close
# ---------------------------------------------------------------------

class TestUnclosedHandles:
    def test_handle_without_close_on_return_path(self):
        src = '''
def _copy(machine, payloads):
    sink = BlockFile(machine, 4, name="copy")
    for index, payload in enumerate(payloads):
        sink.write_block(index, payload)
    return len(payloads)
'''
        findings = state_findings([(ALGO, src)], rule="EM302")
        assert len(findings) == 1
        assert "with BlockFile" in findings[0].message

    def test_with_statement_is_clean(self):
        src = '''
def _copy(machine, payloads):
    with BlockFile(machine, 4, name="copy") as sink:
        for index, payload in enumerate(payloads):
            sink.write_block(index, payload)
    return len(payloads)
'''
        assert state_findings([(ALGO, src)], rule="EM302") == []

    def test_returned_handle_escapes_ownership(self):
        src = '''
def _build(machine, payloads):
    sink = BlockFile(machine, 4, name="build")
    for index, payload in enumerate(payloads):
        sink.write_block(index, payload)
    return sink
'''
        assert state_findings([(ALGO, src)], rule="EM302") == []

    def test_bare_with_over_constructed_handle(self):
        src = '''
def _pack(machine, records):
    spill = ExternalStack(machine)
    with spill:
        for record in records:
            spill.push(record)
'''
        findings = state_findings([(ALGO, src)], rule="EM302")
        assert len(findings) == 1
        assert "merge into" in findings[0].message

    def test_merged_with_form_is_clean(self):
        src = '''
def _pack(machine, records):
    with ExternalStack(machine) as spill:
        for record in records:
            spill.push(record)
'''
        assert state_findings([(ALGO, src)], rule="EM302") == []


# ---------------------------------------------------------------------
# EM303: use-after-release and repeatable release
# ---------------------------------------------------------------------

class TestUseAfterRelease:
    def test_pop_after_close(self):
        src = '''
def _reuse(machine, records):
    spill = ExternalStack(machine)
    for record in records:
        spill.push(record)
    spill.close()
    return spill.pop()
'''
        findings = state_findings([(ALGO, src)], rule="EM303")
        assert len(findings) == 1
        assert "use-after-release" in findings[0].message

    def test_use_before_close_is_clean(self):
        src = '''
def _consume(machine, records):
    spill = ExternalStack(machine)
    for record in records:
        spill.push(record)
    top = spill.pop()
    spill.close()
    return top
'''
        assert state_findings([(ALGO, src)], rule="EM303") == []

    def test_loop_reconstruction_is_not_use_after_release(self):
        # The external_select shape: the handle is rebound at the top
        # of each iteration, so a release late in iteration k does not
        # poison the use early in iteration k+1.
        src = '''
def _rounds(machine, records):
    while records:
        spill = ExternalStack(machine)
        for record in records:
            spill.push(record)
        records = _shrink(spill.pop(), records)
        spill.close()
    return records
'''
        assert state_findings([(ALGO, src)], rule="EM303") == []


class TestRepeatableRelease:
    def test_release_before_idempotence_flag(self):
        src = '''
class Spill:
    def close(self):
        if self._closed:
            return
        self.machine.budget.release(self.capacity)
        self._flush_runs()
        self._closed = True
'''
        findings = state_findings([(ALGO, src)], rule="EM303")
        assert len(findings) == 1
        assert "can repeat" in findings[0].message

    def test_flag_first_release_in_finally_is_clean(self):
        src = '''
class Spill:
    def close(self):
        if self._closed:
            return
        self._closed = True
        try:
            self._flush_runs()
        finally:
            self.machine.budget.release(self.capacity)
'''
        assert state_findings([(ALGO, src)], rule="EM303") == []


# ---------------------------------------------------------------------
# EM304: raw disk I/O bypassing the runtime
# ---------------------------------------------------------------------

class TestRawIO:
    def test_raw_disk_write_flagged(self):
        src = '''
def _bulk_load(machine, payloads):
    for payload in payloads:
        block_id = machine.disk.allocate()
        machine.disk.write(block_id, payload)
'''
        findings = state_findings([(ALGO, src)], rule="EM304")
        assert len(findings) == 1
        assert "machine.runtime" in findings[0].message

    def test_runtime_routed_write_is_clean(self):
        src = '''
def _bulk_load(machine, payloads):
    for payload in payloads:
        block_id = machine.disk.allocate()
        machine.runtime.writer.put(block_id, payload)
'''
        assert state_findings([(ALGO, src)], rule="EM304") == []

    def test_runtime_internals_are_whitelisted(self):
        src = '''
def _drain(machine, pending):
    for block_id, payload in pending:
        machine.disk.write(block_id, payload)
'''
        path = "src/repro/runtime/fixture.py"
        assert state_findings([(path, src)], rule="EM304") == []

    def test_waiver_suppresses_finding(self):
        src = '''
def _scrub(machine, block_ids):
    for block_id in block_ids:
        # em: ok(EM304) deliberate raw read: the scrubber verifies
        # the device copy, bypassing the cache on purpose
        machine.disk.read(block_id)
'''
        assert state_findings([(ALGO, src)], rule="EM304") == []
        waived = state_findings([(ALGO, src)], rule="EM304",
                                waived=True)
        assert len(waived) == 1
        assert waived[0].waiver_reason


# ---------------------------------------------------------------------
# EM305: checkpoint-protocol violations
# ---------------------------------------------------------------------

class TestManifestProtocol:
    def test_adopt_of_unverified_blocks(self):
        src = '''
def _recover(machine, block_ids):
    return FileStream.adopt(machine, block_ids, name="recovered")
'''
        findings = state_findings([(ALGO, src)], rule="EM305")
        assert len(findings) == 1
        assert "adopt" in findings[0].message

    def test_adopt_of_manifest_described_blocks_is_clean(self):
        src = '''
def _recover(machine, manifest):
    block_ids = manifest.result
    return FileStream.adopt(machine, block_ids, name="recovered")
'''
        assert state_findings([(ALGO, src)], rule="EM305") == []

    def test_adopt_then_delete_reclaims_stale_blocks(self):
        src = '''
def _reclaim(machine, stale_ids):
    FileStream.adopt(machine, stale_ids, name="stale").delete()
'''
        assert state_findings([(ALGO, src)], rule="EM305") == []

    def test_write_after_result_commit(self):
        src = '''
def _finish(machine, manifest, output):
    manifest.commit_result([1, 2])
    output.append_block([0])
'''
        findings = state_findings([(ALGO, src)], rule="EM305")
        assert len(findings) == 1
        assert "after the result commit" in findings[0].message


# ---------------------------------------------------------------------
# EM306: durability points with write-behind unflushed
# ---------------------------------------------------------------------

class TestDurability:
    def test_commit_reachable_with_unflushed_write(self):
        src = '''
def _checkpoint(machine, manifest, output):
    output.append_block([0])
    manifest.commit_pass(0, [1])
'''
        findings = state_findings([(ALGO, src)], rule="EM306")
        assert len(findings) == 1
        assert "durability point" in findings[0].message

    def test_finalize_between_write_and_commit_is_clean(self):
        src = '''
def _checkpoint(machine, manifest, output):
    output.append_block([0])
    output.finalize()
    manifest.commit_pass(0, [1])
'''
        assert state_findings([(ALGO, src)], rule="EM306") == []
        # ...and writing before a later commit_result is equally fine.
        assert state_findings([(ALGO, src)], rule="EM305") == []


# ---------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------

LEAKY_PIN = '''
def _stage(machine, scheduler, blocks):
    scheduler.try_pin(machine.num_disks)
    payload = _fetch(blocks)
    scheduler.unpin(machine.num_disks)
    return payload
'''

WAIVED_RAW = '''
def _scrub(machine, block_ids):
    for block_id in block_ids:
        # em: ok(EM304) scrubber verifies the device copy directly
        machine.disk.read(block_id)
'''


class TestSarif:
    def sarif_log(self):
        findings = state_lint([
            (ALGO, LEAKY_PIN),
            ("src/repro/algo/waived.py", WAIVED_RAW),
        ])
        rules = dict(RULES)
        rules.update(STATE_RULES)
        return findings, to_sarif(findings, rules)

    def test_log_is_valid_sarif_2_1_0(self):
        findings, log = self.sarif_log()
        log = json.loads(json.dumps(log))
        assert log["version"] == SARIF_VERSION == "2.1.0"
        run = log["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"EM301", "EM302", "EM303", "EM304", "EM305",
                "EM306"} <= rule_ids
        assert len(run["results"]) == len(findings)
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert result["message"]["text"]
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith(".py")
            assert "emlintFingerprint/v1" in result["partialFingerprints"]

    def test_typestate_trace_becomes_code_flow(self):
        findings, log = self.sarif_log()
        results = log["runs"][0]["results"]
        flows = [r for r in results if r["ruleId"] == "EM301"
                 and r.get("codeFlows")]
        assert flows
        locations = flows[0]["codeFlows"][0]["threadFlows"][0]["locations"]
        assert locations
        for loc in locations:
            region = loc["location"]["physicalLocation"]["region"]
            assert region["startLine"] >= 1

    def test_waived_raw_io_is_suppressed(self):
        findings, log = self.sarif_log()
        results = log["runs"][0]["results"]
        suppressed = [r for r in results if r.get("suppressions")]
        assert any(r["ruleId"] == "EM304" for r in suppressed)
        for result in suppressed:
            assert result["suppressions"][0]["kind"] == "inSource"


# ---------------------------------------------------------------------
# Baseline workflow
# ---------------------------------------------------------------------

class TestBaseline:
    def test_state_findings_round_trip(self, tmp_path):
        from repro.analysis.flow.baseline import (
            split_by_baseline, write_baseline,
        )

        findings = state_findings([(ALGO, LEAKY_PIN)], rule="EM301")
        assert findings
        baseline = tmp_path / "baseline.json"
        write_baseline(findings, str(baseline))
        new, known = split_by_baseline(findings, str(baseline))
        assert new == []
        assert len(known) == len(findings)

    def test_new_state_findings_stay_open(self, tmp_path):
        from repro.analysis.flow.baseline import (
            split_by_baseline, write_baseline,
        )

        old = state_findings([(ALGO, LEAKY_PIN)])
        baseline = tmp_path / "baseline.json"
        write_baseline(old, str(baseline))
        grown = LEAKY_PIN + '''

def _later(machine, manifest, output):
    output.append_block([0])
    manifest.commit_pass(0, [1])
'''
        new, known = split_by_baseline(
            state_findings([(ALGO, grown)]), str(baseline)
        )
        assert known  # the old pin leak is still filtered
        assert any(f.rule == "EM306" for f in new)


# ---------------------------------------------------------------------
# Repository gate
# ---------------------------------------------------------------------

class TestRepositoryIsClean:
    def test_src_tree_has_no_unwaived_typestate_findings(self, tree_lint):
        findings, _ = tree_lint
        open_findings = [f for f in findings if not f.waived]
        assert open_findings == []

    def test_every_state_waiver_is_documented(self, tree_lint):
        findings, _ = tree_lint
        for finding in findings:
            if finding.waived and finding.rule in STATE_RULES:
                assert finding.waiver_reason, (
                    f"{finding.path}:{finding.line} waives "
                    f"{finding.rule} without a reason"
                )
