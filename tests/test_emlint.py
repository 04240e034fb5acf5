"""Self-tests for the EM-lint compliance analyzer.

Each rule gets a pair of fixtures: a snippet that must fire the rule and
a snippet (or a waiver) that must not.  Fixtures are linted through
:func:`lint_source`, whose default path classifies them as ``algorithm``
modules (all rules active).
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, Finding, lint_source, unwaived
from repro.analysis.emlint import Waiver, classify, parse_waivers

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint(snippet, **kwargs):
    return lint_source(textwrap.dedent(snippet), **kwargs)


def fired(findings):
    """Rules that fired, waived or not."""
    return {f.rule for f in findings}


def open_rules(findings):
    return {f.rule for f in unwaived(findings)}


class TestEM001Materialization:
    def test_list_of_stream_param_fires(self):
        findings = lint(
            """
            def _drain(machine, stream):
                return list(stream)
            """
        )
        assert fired(findings) == {"EM001"}

    def test_sorted_of_stream_fires_em001_not_em004(self):
        findings = lint(
            """
            def _drain(machine, stream):
                return sorted(stream)
            """
        )
        assert fired(findings) == {"EM001"}

    def test_stream_assigned_from_library_sort_is_tracked(self):
        findings = lint(
            """
            def _helper(machine, records):
                ordered = external_merge_sort(machine, records)
                return set(ordered)
            """
        )
        assert fired(findings) == {"EM001"}

    def test_sorter_pull_is_a_stream(self):
        findings = lint(
            """
            def _drain(machine, records):
                with Sorter(machine) as sorter:
                    sorter.consume(records)
                    return list(sorter.finish())
            """
        )
        assert fired(findings) == {"EM001"}

    def test_sorter_bound_by_assignment_is_a_stream(self):
        findings = lint(
            """
            def _drain(machine, records):
                sorter = Sorter(machine)
                sorter.consume(records)
                return tuple(sorter)
            """
        )
        assert fired(findings) == {"EM001"}

    def test_materializing_a_plain_list_is_fine(self):
        findings = lint(
            """
            def _helper(machine, values):
                return list(values)
            """
        )
        assert "EM001" not in fired(findings)


class TestEM002RawIO:
    def test_builtin_open_fires(self):
        findings = lint(
            """
            def _load(machine, path):
                with open(path) as handle:
                    return handle.read()
            """
        )
        assert "EM002" in fired(findings)

    def test_os_layer_fires(self):
        findings = lint(
            """
            import os

            def _load(machine, fd):
                return os.read(fd, 4096)
            """
        )
        assert "EM002" in fired(findings)

    def test_em002_applies_even_in_core_modules(self):
        findings = lint(
            """
            def helper(path):
                return open(path)
            """,
            kind="core",
        )
        assert fired(findings) == {"EM002"}

    def test_blockfile_usage_is_fine(self):
        findings = lint(
            """
            def _load(machine, name):
                return FileStream(machine, name=name)
            """
        )
        assert "EM002" not in fired(findings)


class TestEM003PublicSignature:
    def test_missing_machine_and_missing_bound_both_fire(self):
        findings = lint(
            """
            def run(records):
                return records
            """
        )
        em003 = [f for f in findings if f.rule == "EM003"]
        assert len(em003) == 2

    def test_machine_first_with_declared_bound_is_clean(self):
        findings = lint(
            '''
            def run(machine, records):
                """Scan the records in O(N/B) I/Os."""
                return records
            '''
        )
        assert "EM003" not in fired(findings)

    def test_machine_carrier_annotation_satisfies_signature(self):
        findings = lint(
            '''
            def run(table: Table, column):
                """One scan of the table."""
                return column
            '''
        )
        assert "EM003" not in fired(findings)

    def test_private_and_nested_functions_are_exempt(self):
        findings = lint(
            """
            def _internal(records):
                def inner(more):
                    return more
                return inner(records)
            """
        )
        assert "EM003" not in fired(findings)


class TestEM004PythonSort:
    def test_sorted_fires(self):
        findings = lint(
            """
            def _pick(machine, values):
                return sorted(values)
            """
        )
        assert fired(findings) == {"EM004"}

    def test_method_sort_fires(self):
        findings = lint(
            """
            def _pick(machine, values):
                values.sort()
                return values
            """
        )
        assert fired(findings) == {"EM004"}

    def test_core_modules_may_sort(self):
        findings = lint(
            """
            def helper(values):
                return sorted(values)
            """,
            kind="core",
        )
        assert "EM004" not in fired(findings)


class TestEM005UnbudgetedAccumulation:
    def test_append_in_stream_loop_fires(self):
        findings = lint(
            """
            def _collect(machine, stream):
                out = []
                for record in stream:
                    out.append(record)
                return out
            """
        )
        assert fired(findings) == {"EM005"}

    def test_subscript_assignment_in_stream_loop_fires(self):
        findings = lint(
            """
            def _index(machine, stream):
                table = {}
                for key, value in stream:
                    table[key] = value
                return table
            """
        )
        assert fired(findings) == {"EM005"}

    def test_comprehension_over_stream_fires(self):
        findings = lint(
            """
            def _collect(machine, stream):
                return [record for record in stream]
            """
        )
        assert fired(findings) == {"EM005"}

    def test_budget_reserve_suppresses(self):
        findings = lint(
            """
            def _collect(machine, stream):
                out = []
                with machine.budget.reserve(16):
                    for record in stream:
                        out.append(record)
                return out
            """
        )
        assert "EM005" not in fired(findings)

    def test_manual_acquire_suppresses(self):
        findings = lint(
            """
            def _collect(machine, stream):
                out = []
                for record in stream:
                    machine.budget.acquire(1)
                    out.append(record)
                return out
            """
        )
        assert "EM005" not in fired(findings)

    def test_appending_to_charged_sink_is_fine(self):
        findings = lint(
            """
            def _route(machine, stream):
                out = FileStream(machine, name="x")
                for record in stream:
                    out.append(record)
                return out
            """
        )
        assert "EM005" not in fired(findings)

    def test_append_in_sorter_pull_loop_fires(self):
        findings = lint(
            """
            def _collect(machine, records):
                out = []
                with Sorter(machine) as sorter:
                    sorter.consume(records)
                    for record in sorter:
                        out.append(record)
                return out
            """
        )
        assert fired(findings) == {"EM005"}

    def test_pushing_into_a_sorter_is_fine(self):
        findings = lint(
            """
            def _route(machine, stream):
                with Sorter(machine) as sorter:
                    for record in stream:
                        sorter.push(record)
                    return FileStream.from_records(machine, sorter)
            """
        )
        assert "EM005" not in fired(findings)

    def test_loop_over_plain_sequence_is_fine(self):
        findings = lint(
            """
            def _collect(machine, values):
                out = []
                for value in values:
                    out.append(value)
                return out
            """
        )
        assert "EM005" not in fired(findings)


class TestEM006PrivateMachinery:
    def test_machine_construction_fires(self):
        findings = lint(
            """
            def _cheat(machine, records):
                shadow = Machine(block_size=8, memory_blocks=4)
                return shadow
            """
        )
        assert fired(findings) == {"EM006"}

    def test_buffer_pool_construction_fires(self):
        findings = lint(
            """
            def _cheat(machine):
                return BufferPool(machine.disk, 4)
            """
        )
        assert fired(findings) == {"EM006"}

    def test_using_the_callers_machine_is_fine(self):
        findings = lint(
            """
            def _ok(machine, records):
                return machine.stats()
            """
        )
        assert "EM006" not in fired(findings)


class TestWaivers:
    def test_inline_waiver_suppresses_and_keeps_reason(self):
        findings = lint(
            """
            def _pick(machine, values):
                return sorted(values)  # em: ok(EM004) bounded to M records
            """
        )
        (finding,) = findings
        assert finding.rule == "EM004"
        assert finding.waived
        assert finding.waiver_reason == "bounded to M records"
        assert unwaived(findings) == []

    def test_standalone_waiver_covers_next_statement(self):
        findings = lint(
            """
            def _pick(machine, values):
                # em: ok(EM004) bounded to M records
                return sorted(values)
            """
        )
        assert open_rules(findings) == set()
        assert fired(findings) == {"EM004"}

    def test_two_line_standalone_waiver_skips_comment_lines(self):
        findings = lint(
            """
            def _pick(machine, values):
                # em: ok(EM004) bounded to M records,
                # reserved by the caller before entry
                return sorted(values)
            """
        )
        assert open_rules(findings) == set()

    def test_multi_rule_waiver(self):
        findings = lint(
            """
            def _drain(machine, stream):
                # em: ok(EM001, EM004) bounded base case under reserve
                return sorted(list(stream))
            """
        )
        assert open_rules(findings) == set()
        assert fired(findings) == {"EM001", "EM004"}

    def test_multi_rule_waiver_usage_is_per_rule_id(self):
        # Only EM001 fires on the covered line, so the EM004 entry of
        # the waiver suppresses nothing and must be flagged (EM007) —
        # usage is tracked per rule id, not per comment.
        findings = lint(
            """
            def _drain(machine, stream):
                # em: ok(EM001, EM004) bounded base case under reserve
                return list(stream)
            """
        )
        assert open_rules(findings) == {"EM007"}
        [em007] = [f for f in unwaived(findings) if f.rule == "EM007"]
        assert "EM004" in em007.message
        assert "suppresses nothing" in em007.message

    def test_wildcard_waiver(self):
        findings = lint(
            """
            def _cheat(machine, values):
                return sorted(values)  # em: ok(*) test fixture, anything goes
            """
        )
        assert open_rules(findings) == set()

    def test_waiver_does_not_leak_to_other_lines(self):
        findings = lint(
            """
            def _pick(machine, values):
                first = sorted(values)  # em: ok(EM004) bounded
                second = sorted(values)
                return first + second
            """
        )
        assert len(unwaived(findings)) == 1

    def test_waiver_for_wrong_rule_does_not_suppress(self):
        findings = lint(
            """
            def _pick(machine, values):
                return sorted(values)  # em: ok(EM001) wrong rule id
            """
        )
        # The EM004 stays open AND the EM001 waiver is flagged unused.
        assert open_rules(findings) == {"EM004", "EM007"}


class TestEM007WaiverHygiene:
    def test_malformed_waiver_fires(self):
        findings = lint(
            """
            def _pick(machine, values):
                return values  # em: ok EM004 forgot the parens
            """
        )
        assert fired(findings) == {"EM007"}

    def test_unknown_rule_id_fires(self):
        findings = lint(
            """
            def _pick(machine, values):
                return sorted(values)  # em: ok(EM999) no such rule
            """
        )
        assert "EM007" in open_rules(findings)

    def test_missing_reason_fires(self):
        findings = lint(
            """
            def _pick(machine, values):
                return sorted(values)  # em: ok(EM004)
            """
        )
        assert "EM007" in open_rules(findings)

    def test_unused_waiver_fires(self):
        findings = lint(
            """
            def _pick(machine, values):
                return values  # em: ok(EM004) suppresses nothing here
            """
        )
        assert open_rules(findings) == {"EM007"}

    def test_syntax_error_reports_em007(self):
        findings = lint("def broken(:\n")
        assert [f.rule for f in findings] == ["EM007"]

    def test_parse_waivers_extracts_rules_and_reason(self):
        waivers, hygiene = parse_waivers(
            "x = 1  # em: ok(EM004, EM005) two rules, one reason\n",
            path="<string>",
        )
        (waiver,) = waivers
        assert set(waiver.rules) == {"EM004", "EM005"}
        assert waiver.reason == "two rules, one reason"
        assert hygiene == []


class TestClassification:
    @pytest.mark.parametrize(
        "path,kind",
        [
            ("src/repro/analysis/emlint.py", "exempt"),
            ("src/repro/core/machine.py", "core"),
            ("src/repro/workloads.py", "support"),
            ("tests/conftest.py", "support"),
            ("src/repro/sort/merge.py", "algorithm"),
            ("<string>", "algorithm"),
        ],
    )
    def test_classify(self, path, kind):
        assert classify(path) == kind

    def test_exempt_modules_produce_no_findings(self):
        findings = lint(
            """
            def anything_goes(values):
                return sorted(open("x").read())
            """,
            kind="exempt",
        )
        assert findings == []

    def test_rule_table_is_complete(self):
        assert sorted(RULES) == [
            "EM001", "EM002", "EM003", "EM004", "EM005", "EM006", "EM007",
        ]


class TestFindingRendering:
    def test_render_and_to_dict_round_trip(self):
        findings = lint(
            """
            def _pick(machine, values):
                return sorted(values)
            """
        )
        (finding,) = findings
        text = finding.render()
        assert "EM004" in text and "<string>" in text
        payload = finding.to_dict()
        assert payload["rule"] == "EM004"
        assert payload["line"] == finding.line


class TestWholeTree:
    def test_library_is_lint_clean(self, tree_lint):
        """The acceptance gate: zero unwaived findings across src/repro."""
        findings, _ = tree_lint
        remaining = unwaived(findings)
        assert remaining == [], "\n".join(f.render() for f in remaining)

    def test_every_waiver_in_tree_has_a_reason(self, tree_lint):
        findings, _ = tree_lint
        for finding in findings:
            if finding.waived:
                assert finding.waiver_reason


class TestCLI:
    def test_clean_path_exits_zero(self, capsys):
        from repro.analysis.cli import main

        code = main([str(REPO_ROOT / "src" / "repro" / "sort")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 unwaived" in out

    def test_dirty_file_exits_one(self, tmp_path, capsys):
        from repro.analysis.cli import main

        bad = tmp_path / "algo.py"
        bad.write_text("def run(records):\n    return sorted(records)\n")
        code = main([str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "EM004" in out

    def test_flow_tier_finding_fails_plain_run(self, tmp_path, capsys):
        # No per-line rule fires here; only the flow tier sees the
        # budget leak on the exception path, and every run checks it.
        from repro.analysis.cli import main

        bad = tmp_path / "algo.py"
        bad.write_text(textwrap.dedent("""
            def _run(machine, stream):
                machine.budget.acquire(machine.B)
                total = _risky(stream)
                machine.budget.release(machine.B)
                return total
            """))
        assert lint_source(bad.read_text(), str(bad)) == []
        code = main([str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "EM101" in out

    def test_cost_report_needs_no_tier_flag(self, tmp_path, capsys):
        import json

        from repro.analysis.cli import main

        out = tmp_path / "costs.json"
        code = main(["--cost-report", str(out),
                     str(REPO_ROOT / "src" / "repro" / "sort")])
        capsys.readouterr()
        assert code == 0
        report = json.loads(out.read_text())
        entry = report["merge.external_merge_sort"]
        assert entry["inferred"] == "N·log_m(n)/B"
        assert entry["certified"] is True

    def test_sarif_carries_the_full_catalogue(self, tmp_path, capsys):
        import json

        from repro.analysis import ALL_RULES
        from repro.analysis.cli import main

        bad = tmp_path / "algo.py"
        bad.write_text("def run(records):\n    return sorted(records)\n")
        sarif = tmp_path / "out.sarif"
        assert main(["--sarif", str(sarif), str(bad)]) == 1
        capsys.readouterr()
        driver = json.loads(sarif.read_text())["runs"][0]["tool"]["driver"]
        assert {rule["id"] for rule in driver["rules"]} == set(ALL_RULES)

    def test_json_format(self, tmp_path, capsys):
        import json

        from repro.analysis.cli import main

        bad = tmp_path / "algo.py"
        bad.write_text("values.sort()\n")
        code = main(["--format", "json", str(bad)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert any(entry["rule"] == "EM004" for entry in payload)

    def test_nonexistent_path_is_a_usage_error(self, capsys):
        from repro.analysis.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["/no/such/path"])
        assert excinfo.value.code == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        from repro.analysis.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out
