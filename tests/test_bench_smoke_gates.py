"""Gates of ``tools/bench_smoke.py`` must fail once what they guard is
gone: a gate that passes either way shows nothing."""

import sys
from pathlib import Path

import pytest

from repro.analysis import Finding
from repro.core import Machine, MRUPolicy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_smoke  # noqa: E402


def test_pool_hit_rate_gate_fails_without_caching(monkeypatch):
    """MRU evicts the frame just read, so the skewed query mix keeps
    almost nothing it touched: the ``hit_rate > 0.5`` gate must bite."""
    monkeypatch.setattr(
        bench_smoke, "Machine",
        lambda *args, **kwargs: Machine(*args, policy=MRUPolicy(), **kwargs))
    with pytest.raises(AssertionError, match="too low for skew"):
        bench_smoke.pool_hit_rate_smoke()


def test_raw_speed_gate_fails_without_key_pointer_sort(monkeypatch):
    """Timing the seed path against itself reads about 1x, below the
    2x bound on the memory backend."""
    monkeypatch.setattr(bench_smoke, "_key_pointer_path",
                        bench_smoke._seed_path)
    with pytest.raises(AssertionError, match="faster than the record path"):
        bench_smoke.raw_speed_smoke()


def test_analyzer_gate_fails_on_an_unwaived_finding(monkeypatch):
    """One finding nobody waived fails the analyzer record."""
    finding = Finding(rule="EM001", path="src/repro/x.py", line=1, col=1,
                      message="list(...) materializes a stream")
    monkeypatch.setattr(bench_smoke, "_tree_lint", lambda: ([finding], 0.0))
    with pytest.raises(AssertionError, match="unwaived finding"):
        bench_smoke.analyzer_smoke()


def test_em103_gate_fails_one_control_waiver_short(monkeypatch, tree_lint):
    """The F25 record counts the control sorts EM103 sees: with one
    control's waived finding gone, the count no longer matches."""
    findings = list(tree_lint[0])
    findings.remove(next(f for f in findings if f.rule == "EM103"))
    monkeypatch.setattr(bench_smoke, "_tree_lint", lambda: (findings, 0.0))
    with pytest.raises(AssertionError, match="EM103 waivers must be"):
        bench_smoke.pipeline_smoke()
