"""The benchmark's recorded outputs, checked on every test run.

One round of each ``perfbench`` workload at its default seed goes through
``trotterlab.cli.main``, and every output must pass ``checks.check`` against
the value recorded in ``perfbench/reference.json``.  A change that moves a
pinned output then fails here, not only in the benchmark.
"""

import sys
from pathlib import Path

import pytest

import trotterlab.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_round_matches_the_recorded_outputs(workload, tmp_path, monkeypatch):
    seed = workloads.DEFAULT_SEED
    monkeypatch.chdir(tmp_path)
    for argv in workloads.inputs(workload, seed):
        assert trotterlab.cli.main(argv) == 0, argv

    reference = worker.load_reference(workload, seed, False)
    reqs = workloads.requests(workload, seed)
    assert sorted(reference) == sorted(req["id"] for req in reqs)
    problems = {}
    for req in reqs:
        code, text = worker.call(req)
        found = checks.check(req, code, text, reference[req["id"]])
        if found:
            problems[req["id"]] = found
    assert problems == {}
