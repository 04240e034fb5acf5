"""Test-suite configuration.

Hypothesis runs derandomized so the suite is fully deterministic: the
simulated disk already makes every I/O count exact, and fixed example
generation extends that reproducibility to the property-based tests.
The whole-tree analyzer tests share one emlint pass (``tree_lint``).
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

REPO_ROOT = Path(__file__).resolve().parents[1]

settings.register_profile(
    "emkit",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("emkit")


@pytest.fixture(scope="session")
def tree_lint():
    """One emlint pass over ``src/repro``, shared by every whole-tree
    analyzer test: ``(findings, cost_report)``."""
    from repro.analysis import lint_paths

    report = {}
    findings = lint_paths([str(REPO_ROOT / "src" / "repro")],
                          report=report)
    return findings, report
