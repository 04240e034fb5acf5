"""Tests for the EM200-series symbolic I/O-cost certification.

Three layers of coverage:

* unit tests for the term algebra and the numeric comparison grid
  (:mod:`repro.analysis.cost.expr`);
* one seeded regression per rule (EM201-EM205): a tiny synthetic
  module that must fire the rule, next to a corrected or waived twin
  that must not;
* golden inferred expressions for the sort family plus the clean-tree
  gate — ``src/repro`` must stay triaged to zero unwaived EM2xx
  findings and every ``@io_bound`` function must get an inferred cost;
* every row of the tree's cost report, pinned in ``emcost_pins.py``.

Fixture paths classify the snippets as ``algorithm`` modules (the
strict tier); assertions filter by rule id so the per-line findings the
fixtures also trigger don't interfere.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_source, lint_sources
from repro.analysis.cost import Term, render
from repro.analysis.cost.expr import (
    covers,
    leading_ratio,
    normalized,
    scan,
    sort_terms,
)
from repro.analysis.flow import split_by_baseline, write_baseline
from repro.analysis.rules import COST_RULES, RULES

from .emcost_pins import PINS

ALGO = "src/repro/algo/fixture.py"
REPO = Path(__file__).resolve().parents[1]


def cost_findings(sources, rule=None, waived=False):
    """The cost tier's findings: per-line and EM200-series rules."""
    findings = [f for f in lint_sources(sources)
                if (f.rule in RULES or f.rule in COST_RULES)
                and (waived or not f.waived)]
    if rule is not None:
        findings = [f for f in findings if f.rule == rule]
    return findings


def fixture(snippet):
    return [(ALGO, textwrap.dedent(snippet))]


# ---------------------------------------------------------------------
# Term algebra and the comparison grid
# ---------------------------------------------------------------------

class TestExpr:
    def test_normalized_merges_like_monomials(self):
        cost = normalized([scan(1.0), scan(2.0), Term(0.0, {"N": 1})])
        assert len(cost) == 1
        assert cost[0].coeff == 3.0
        assert cost[0].powers == {"N": 1, "B": -1}

    def test_sort_covers_scan_but_not_conversely(self):
        assert covers(sort_terms(), scan())
        n_logm_over_b = Term(1, {"N": 1, "B": -1, "logm": 1})
        assert not covers([scan()], n_logm_over_b)

    def test_scan_does_not_cover_quadratic(self):
        quadratic = Term(1, {"N": 2, "B": -1})
        assert not covers([scan()], quadratic)
        assert covers([quadratic], scan())

    def test_coefficients_are_stripped_for_coverage(self):
        # covers() is asymptotic: 5·N/B is within O(N/B)
        assert covers([scan(1.0)], scan(5.0))

    def test_leading_ratio_sees_constant_factor_excess(self):
        # three passes against a declared one: ratio 3 at leading order
        assert leading_ratio([scan(3.0)], [scan(1.0)]) == pytest.approx(
            3.0, rel=0.01)
        # an asymptotically vanishing extra term drives the ratio to ~1
        small = normalized(sort_terms() + [scan(1.0)])
        assert leading_ratio(small, sort_terms()) < 2.0

    def test_render_orders_by_dominance(self):
        text = render(sort_terms(2.0))
        assert text == "2·N·log_m(n)/B + 2·N/B"
        assert render([]) == "0"


# ---------------------------------------------------------------------
# EM201: inferred cost exceeds the declared bound
# ---------------------------------------------------------------------

EM201_SEED = """
from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io

@io_bound(lambda machine, n: scan_io(n, machine.B, machine.D))
def count_inversions(machine, stream):
    '''One pass: ``O(N/B)`` I/Os.'''
    total = 0
    for left in stream:
        for right in stream:
            if right < left:
                total += 1
    return total
"""


class TestEM201:
    def test_nested_scan_exceeds_declared_scan(self):
        findings = cost_findings(fixture(EM201_SEED), rule="EM201")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.line == 5  # anchors on the decorator
        assert "N^2/B" in finding.message
        assert "count_inversions" in finding.message

    def test_single_scan_is_certified(self):
        src = """
        from ..analysis.sanitizer import io_bound
        from ..core.bounds import scan_io

        @io_bound(lambda machine, n: scan_io(n, machine.B, machine.D))
        def total(machine, stream):
            '''One pass: ``O(N/B)`` I/Os.'''
            total = 0
            for record in stream:
                total += record
            return total
        """
        assert cost_findings(fixture(src), rule="EM201") == []

    def test_waiver_above_decorator_suppresses(self):
        src = EM201_SEED.replace(
            "@io_bound",
            "# em: ok(EM201) all-pairs baseline, quadratic by design\n"
            "@io_bound")
        assert cost_findings(fixture(src), rule="EM201") == []
        waived = cost_findings(fixture(src), rule="EM201", waived=True)
        assert len(waived) == 1 and waived[0].waived


SORTER_ROUNDS = """
from ..analysis.sanitizer import io_bound
from ..core.bounds import sort_io
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter

@io_bound(lambda machine, n:
          n.bit_length() * sort_io(n, machine.M, machine.B, machine.D))
def jump_until_stable(machine, stream):
    '''``log N`` rounds of one pipelined sort each.'''
    current = stream
    while True:
        with Sorter(machine, key=lambda r: r[1]) as sorter:
            sorter.consume(current)
            current = FileStream.from_records(machine, sorter)
        if _stable(current):
            return current

def _stable(current):
    return True
"""


class TestSorterConsume:
    def test_consume_in_round_loop_is_charged_over_its_iterable(self):
        # Like push_block, consume is charged for the records it is
        # given: one round's consume is that round's share of the data,
        # not N records times the N-bounded round count.  The round's
        # FileStream.from_records is one write pass over the pull, N/B,
        # and the pull it iterates one read pass, N/B.
        sorter_path = "src/repro/pipeline/sorter.py"
        sources = fixture(SORTER_ROUNDS) + [
            (sorter_path, (REPO / sorter_path).read_text())]
        report = {}
        findings = [f for f in lint_sources(sources, report=report)
                    if f.path == ALGO and f.rule == "EM201"]
        assert findings == []
        entry = report["fixture.jump_until_stable"]
        assert entry["inferred"] == "N·log_m(n)/B + 2·N/B"
        assert entry["certified"] is True


SORTER_PULL = """
from ..analysis.sanitizer import io_bound
from ..core.bounds import sort_io
from ..core.stream import FileStream
from ..pipeline.sorter import Sorter

def _first_of_each(records):
    previous = None
    for record in records:
        if record != previous:
            yield record
        previous = record

@io_bound(lambda machine, n: sort_io(n, machine.M, machine.B, machine.D))
def pulled(machine, stream):
    '''A sort and its pull into a writer: ``Sort(N)`` I/Os.'''
    with Sorter(machine) as ordered:
        ordered.consume(stream)
        out = FileStream(machine)
        PULL
        return out.finalize()
"""

#: each way of iterating a Sorter, and its ``finish()`` twin
SORTER_PULL_TWINS = [
    ("for record in ordered: out.append(record)",
     "for record in ordered.finish(): out.append(record)"),
    ("out.extend(_first_of_each(ordered))",
     "out.extend(_first_of_each(ordered.finish()))"),
    ("out.extend(record for record in ordered)",
     "out.extend(record for record in ordered.finish())"),
    ("out.extend(list(ordered))",
     "out.extend(list(ordered.finish()))"),
]


BLOCK_READER = """
from itertools import chain, islice

from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io
from ..core.stream import FileStream


@io_bound(lambda machine, n: scan_io(n, machine.B, machine.D))
def counted(machine, stream: FileStream):
    '''One pass: ``O(N/B)`` I/Os.'''
    BODY
    return total


def _count(blocks):
    return sum(len(block) for block in blocks)
"""

BLOCK_READER_BODIES = [
    # bound to a name and consumed later, by a callee
    "blocks = stream.iter_blocks()\n"
    "    held = list(islice(blocks, 1))\n"
    "    total = _count(chain(held, blocks))",
    # passed straight on as an argument
    "total = _count(stream.iter_blocks())",
]


class TestBlockReaders:
    @pytest.mark.parametrize("body", BLOCK_READER_BODIES)
    def test_a_block_reader_is_charged_where_it_is_opened(self, body):
        # The reader reads the stream once, whoever consumes it.
        report = {}
        lint_sources(fixture(BLOCK_READER.replace("BODY", body)),
                     report=report)
        assert report["fixture.counted"]["inferred"] == "N/B"
        assert report["fixture.counted"]["certified"] is True


class TestSorterPull:
    @pytest.mark.parametrize("iterated, finished", SORTER_PULL_TWINS)
    def test_iterating_a_sorter_is_charged_as_its_finish(
            self, iterated, finished):
        # Iterating the Sorter pulls its final merge as finish() does:
        # one read pass, N/B, beside the sort and the write.
        sorter_path = "src/repro/pipeline/sorter.py"
        rows = []
        for pull in (iterated, finished):
            sources = fixture(SORTER_PULL.replace("PULL", pull)) + [
                (sorter_path, (REPO / sorter_path).read_text())]
            report = {}
            lint_sources(sources, report=report)
            rows.append(report["fixture.pulled"])
        assert rows[0]["inferred"] == rows[1]["inferred"]
        assert "2·N/B" in rows[0]["inferred"]
        assert rows[0]["certified"] is rows[1]["certified"] is True


STREAM_BUILDERS = """
from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io
from ..core.stream import FileStream

@io_bound(lambda machine, n: 2 * scan_io(n, machine.B, machine.D))
def write_both(machine, records, payload):
    '''Two write passes: ``O(N/B)`` I/Os.'''
    first = FileStream.from_records(machine, records)
    second = FileStream.from_payload(machine, payload=payload)
    return first, second
"""


BUILT_THEN_READ = """
from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io
from ..core.stream import FileStream

@io_bound(lambda machine, n: 2 * scan_io(n, machine.B, machine.D))
def write_then_read(machine, records):
    '''A write pass and a read pass: ``O(N/B)`` I/Os.'''
    first = FileStream.from_records(machine, records)
    return list(first)
"""


class TestStreamBuilders:
    def test_from_records_and_from_payload_are_write_passes(self):
        # Each builder writes its argument once: N/B apiece.
        report = {}
        lint_sources(fixture(STREAM_BUILDERS), report=report)
        entry = report["fixture.write_both"]
        assert entry["inferred"] == "2·N/B"
        assert entry["certified"] is True

    def test_a_built_stream_is_a_stream(self):
        # The name a builder binds is a stream: reading it back is a
        # second pass, as it is for a hand-built FileStream.
        report = {}
        lint_sources(fixture(BUILT_THEN_READ), report=report)
        entry = report["fixture.write_then_read"]
        assert entry["inferred"] == "2·N/B"
        assert entry["certified"] is True


# ---------------------------------------------------------------------
# EM202: declared bound omits a leading-order term
# ---------------------------------------------------------------------

EM202_SEED = """
from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io
from ..core.stream import FileStream

@io_bound(lambda machine, n: %s * scan_io(n, machine.B, machine.D))
def copy_and_rescan(machine, stream):
    '''A few passes: ``O(N/B)`` I/Os.'''
    copy = FileStream(machine, name="copy")
    for record in stream:
        copy.append(record)
    copy.finalize()
    total = 0
    for record in stream:
        total += record
    for record in copy:
        total -= record
    copy.delete()
    return total
"""


class TestEM202:
    def test_undeclared_passes_fire(self):
        # the code pays 4 scan-class passes (copy write + three reads)
        # against a declared single scan: ratio 4 >= 2
        findings = cost_findings(fixture(EM202_SEED % "1"),
                                 rule="EM202")
        assert len(findings) == 1
        assert "omits a term" in findings[0].message
        assert "copy_and_rescan" in findings[0].message

    def test_honest_constant_is_certified(self):
        # declaring 3·scan leaves the excess under the 2x threshold
        assert cost_findings(fixture(EM202_SEED % "3"),
                             rule="EM202") == []


# ---------------------------------------------------------------------
# EM203: data-dependent loop-carried I/O with no clamp
# ---------------------------------------------------------------------

EM203_SEED = """
from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io

@io_bound(lambda machine, n: scan_io(n, machine.B, machine.D))
def iterate_until_stable(machine, stream):
    '''One pass per round: ``O(N/B)`` I/Os.'''
    state = 0
    while not _converged(state):
        for record in stream:
            state += record
    return state

def _converged(state):
    return state > 10
"""


class TestEM203:
    def test_unclamped_while_fires(self):
        findings = cost_findings(fixture(EM203_SEED), rule="EM203")
        assert len(findings) == 1
        assert findings[0].line == 9  # anchors on the loop
        assert "data-dependent trip count" in findings[0].message

    def test_geometric_halving_is_clamped(self):
        src = """
        from ..analysis.sanitizer import io_bound
        from ..core.bounds import scan_io

        @io_bound(lambda machine, n:
                  n.bit_length() * scan_io(n, machine.B, machine.D))
        def halve_until_small(machine, stream, n):
            '''``log2 N`` rounds of one pass each.'''
            size = n
            total = 0
            while size > 1:
                for record in stream:
                    total += record
                size //= 2
            return total
        """
        assert cost_findings(fixture(src), rule="EM203") == []

    def test_waived_site_is_suppressed_and_counted_used(self):
        src = EM203_SEED.replace(
            "    while not _converged",
            "    # em: ok(EM203) converges in O(1) rounds here\n"
            "    while not _converged")
        findings = cost_findings(fixture(src))
        assert all(f.rule != "EM203" for f in findings)
        # the waiver suppressed something, so no dead-waiver EM007
        assert all(f.rule != "EM007" for f in findings)


# ---------------------------------------------------------------------
# EM204: unbatched per-block reads where a wave is available
# ---------------------------------------------------------------------

EM204_SEED = """
from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io

@io_bound(lambda machine, n: scan_io(n, machine.B, machine.D))
def gather_blocks(machine, stream, indices):
    '''One pass over the touched blocks: ``O(N/B)`` I/Os.'''
    out = []
    for index in indices:
        out.append(machine.pool.get(stream, index))
    return out
"""


class TestEM204:
    def test_per_block_loop_fires(self):
        findings = cost_findings(fixture(EM204_SEED), rule="EM204")
        assert len(findings) == 1
        assert "get_many() wave" in findings[0].message

    def test_wave_batch_is_clean(self):
        src = """
        from ..analysis.sanitizer import io_bound
        from ..core.bounds import scan_io

        @io_bound(lambda machine, n: scan_io(n, machine.B, machine.D))
        def gather_blocks(machine, stream, indices):
            '''One wave over the touched blocks: ``O(N/B)`` I/Os.'''
            return machine.pool.get_many(stream, indices)
        """
        assert cost_findings(fixture(src), rule="EM204") == []


# ---------------------------------------------------------------------
# EM205: theory callable vs docstring bound class
# ---------------------------------------------------------------------

EM205_SEED = """
from ..analysis.sanitizer import io_bound
from ..core.bounds import scan_io

@io_bound(lambda machine, n: scan_io(n, machine.B, machine.D))
def mislabeled(machine, stream):
    '''Costs ``O(Sort(N))`` I/Os: log_{m} merge passes.'''
    total = 0
    for record in stream:
        total += record
    return total
"""


class TestEM205:
    def test_scan_theory_sort_docstring_fires(self):
        findings = cost_findings(fixture(EM205_SEED), rule="EM205")
        assert len(findings) == 1
        assert "scan-class bound" in findings[0].message
        assert "docstring" in findings[0].message

    def test_matching_docstring_is_clean(self):
        src = EM205_SEED.replace(
            "Costs ``O(Sort(N))`` I/Os: log_{m} merge passes.",
            "One pass: ``O(N/B)`` I/Os.")
        assert cost_findings(fixture(src), rule="EM205") == []

    def test_scan_and_linear_are_one_family(self):
        # "one I/O per record" reads as linear; a scan theory is the
        # same closed-form family, not a contract violation
        src = EM205_SEED.replace(
            "Costs ``O(Sort(N))`` I/Os: log_{m} merge passes.",
            "Costs one I/O per record in the worst case.")
        assert cost_findings(fixture(src), rule="EM205") == []


# ---------------------------------------------------------------------
# Waiver auditing and baseline gating over the EM2xx tier
# ---------------------------------------------------------------------

class TestWaiversAndBaseline:
    DEAD = """
    def _helper(machine, stream):
        total = 0
        # em: ok(EM203) nothing here actually fires
        for record in stream:
            total += record
        return total
    """

    def test_dead_cost_waiver_flagged_in_cost_mode(self):
        findings = cost_findings(fixture(self.DEAD), rule="EM007")
        assert len(findings) == 1
        assert "EM203" in findings[0].message

    def test_cost_waiver_not_dead_outside_cost_mode(self):
        # the per-line run doesn't evaluate EM2xx, so an EM2xx waiver
        # must not be reported as dead there
        findings = lint_source(textwrap.dedent(self.DEAD), path=ALGO)
        assert all(f.rule != "EM007" for f in findings)

    def test_baseline_round_trip_gates_cost_findings(self, tmp_path):
        findings = cost_findings(fixture(EM201_SEED))
        assert any(f.rule == "EM201" for f in findings)
        baseline = str(tmp_path / "baseline.json")
        write_baseline(findings, baseline)
        new, known = split_by_baseline(findings, baseline)
        assert new == []
        assert {f.rule for f in known} >= {"EM201"}

    def test_new_cost_finding_stays_open(self, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        write_baseline(cost_findings(fixture(EM201_SEED)), baseline)
        new, _ = split_by_baseline(
            cost_findings(fixture(EM203_SEED)), baseline)
        assert {f.rule for f in new} >= {"EM203"}


# ---------------------------------------------------------------------
# Golden expressions and the clean-tree gate
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def tree_report(tree_lint):
    return tree_lint[1]


@pytest.fixture(scope="module")
def tree_findings(tree_lint):
    return tree_lint[0]


class TestGoldenExpressions:
    def test_sort_family(self, tree_report):
        golden = {
            # load-sort run formation: read + write each memoryload
            "runs.form_runs_load_sort": "2·N/B",
            # snow-plow variant: read + write; its one reader is
            # charged once, though both a loop and next() consume it
            "runs.form_runs_replacement_selection": "2·N/B",
            # merge phase only (run formation is a separate callee)
            "merge.external_merge_sort": "N·log_m(n)/B",
            # one read pass per distribution level (the bucket writes
            # flow through BlockBuilder sinks charged at their streams)
            "distribution.distribution_sort": "2·N·log_m(n)/B",
        }
        for name, expression in golden.items():
            assert name in tree_report, name
            assert tree_report[name]["inferred"] == expression, name

    def test_sort_family_is_certified(self, tree_report):
        for name in ("runs.form_runs_load_sort",
                     "merge.external_merge_sort",
                     "distribution.distribution_sort",
                     "selection.external_select"):
            assert tree_report[name]["certified"] is True, name

    def test_every_io_bound_function_gets_a_cost(self, tree_report):
        assert len(tree_report) >= 45
        for name, entry in tree_report.items():
            assert entry["inferred"], name
            assert entry["inferred"] != "0", name

    def test_declared_bounds_are_interpretable(self, tree_report):
        undeclared = [name for name, entry in tree_report.items()
                      if entry["declared"] is None]
        assert undeclared == [], undeclared


class TestCleanTree:
    def test_src_tree_has_no_unwaived_cost_findings(self, tree_findings):
        open_findings = [f for f in tree_findings if not f.waived]
        assert open_findings == [], [
            f"{f.path}:{f.line} {f.rule} {f.message}"
            for f in open_findings]

    def test_waivers_carry_justifications(self, tree_findings):
        # every waived EM2xx finding is covered by a waiver comment in
        # the source; spot-check the deliberate quadratic fallbacks
        waived = {(Path(f.path).name, f.rule)
                  for f in tree_findings if f.waived}
        assert ("dominance.py", "EM201") in waived
        assert ("joins.py", "EM201") in waived


class TestCostPins:
    def test_report_matches_pins(self, tree_report):
        """Every row of the tree's cost report, as pinned: a change
        that moves a declared or inferred expression, or a
        certification, shows up in ``emcost_pins.py``'s diff."""
        rows = {name: (entry["declared"], entry["inferred"],
                       entry["certified"])
                for name, entry in tree_report.items()}
        assert rows == PINS


if __name__ == "__main__":
    from repro.analysis import lint_paths

    from . import emcost_pins

    report = {}
    lint_paths([str(REPO / "src" / "repro")], report=report)
    print(f'"""{emcost_pins.__doc__}"""\n\nPINS = {{')
    for name, entry in sorted(report.items()):
        print(f"    {name!r}: (")
        print(f"        {entry['declared']!r},")
        print(f"        {entry['inferred']!r},")
        print(f"        {entry['certified']!r}),")
    print("}")
