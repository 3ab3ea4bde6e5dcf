"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The traced report has self time and calls of every layer, declared or not.
LAYER_METRICS = [f"{layer}.{kind}" for layer in tracer.LAYERS for kind in ("self_s", "calls")]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_metric(trace):
    proc = bench("--workload", "all", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final, report = json.loads(lines[-1]), json.loads(lines[-2])

    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {f"{w}/{m['name']}" for w in workloads.WORKLOADS for m in declared}
    for w in workloads.WORKLOADS:
        for m in declared:
            assert final["metrics"][f"{w}/{m['name']}"]["unit"] == m["unit"]

    named = [m["name"] for m in BENCHMARK["end_to_end"]] + ["req_p50_ms", "fail_frac"]
    if trace:
        named += LAYER_METRICS + [m["name"] for m in BENCHMARK["per_layer"]]
    for rep in report["report"]:
        assert set(named) <= set(rep["metrics"]), rep["workload"]
        assert rep["metrics"]["fail_frac"] == 0.0
        assert ("req_tail_ms" in rep["metrics"]) == (rep["details"]["requests"] >= 20)
        if trace:
            assert rep["details"]["wrapped_callables"] > 50
            assert 0.5 < rep["metrics"]["trace.coverage"] <= 1.0
            assert (ROOT / rep["details"]["trace_file"]).is_file()


def test_corrupted_output_counts_in_fail_frac(tmp_path, monkeypatch):
    import trotterlab.cli

    real_main = trotterlab.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv[:2] == ["gatecount", "chain8.json"]:
            out = sys.stdout  # the request's captured output
            text = out.getvalue().replace('"r": 11436', '"r": 11437')
            out.seek(0)
            out.truncate()
            out.write(text)
        return code

    monkeypatch.chdir(tmp_path)
    for argv in workloads.inputs("planner", workloads.DEFAULT_SEED, tiny=True):
        assert real_main(argv) == 0
    monkeypatch.setattr(trotterlab.cli, "main", corrupting_main)
    reqs = workloads.requests("planner", workloads.DEFAULT_SEED, tiny=True)
    records, _ = worker.measure(reqs, None, {}, rounds=1)

    attempted, failed, problems = run.tally(records, [])
    assert (attempted, failed) == (len(reqs), 1)
    assert "gatecount-chain8-golden" in problems[0]


def test_reference_comparison_allows_roundoff_only():
    want = [["exact-pnorm", 2.0, 2.5e-08, None, None, 1.0]]
    assert checks.compare([["exact-pnorm", 2.0, 2.5e-08 * (1 + 1e-5), None, None, 1.0]], want) == []
    assert checks.compare([["exact-pnorm", 2.0, 2.5e-08 * (1 + 1e-3), None, None, 1.0]], want) != []
    assert checks.compare({"r": 11437}, {"r": 11436}) != []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "planner", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
