"""Each benchmark workload's tiny reference case still gives its committed
output digest.

``bench/run.py`` checks the program's output against ``bench/reference.json``
only when the benchmark runs; here the same check runs with the unit tests,
so a change that moves scores or generated graphs fails at once.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from run import reference_problems, run_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_case_matches_the_committed_digest(name, tmp_path):
    outcome = run_reference(WORKLOADS[name], tmp_path)
    assert outcome.problems == []
    assert reference_problems(name, outcome.digest) == []
