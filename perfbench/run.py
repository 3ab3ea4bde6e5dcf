"""trotterlab benchmark: closed-loop workloads with checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--tiny]

For each workload the benchmark starts ``SETUP_PROCESSES`` fresh worker
processes one after another (``worker.py``).  Each imports trotterlab from the
checkout's ``src/``, writes its inputs and returns one warm-up request; the
time from process start to that point is one ``setup_s`` sample.  The last
worker then runs the closed loop: one client sends the next request only
after the previous one returned, in whole rounds: ``--seconds``
(``run_seconds`` of ``BENCHMARK.json`` by default) divided by the mean round
time, rounded to the nearest whole number, and at least one.  BLAS is pinned
to one thread in every worker.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` the worker repeats the same rounds with span tracing installed
and the last line holds the per-layer metrics; ``BENCHMARK.json`` names the
metrics of both lines.  Lines before it print every metric by name with its
unit, plus run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 5
WORKLOAD_TIMEOUT_S = 170.0
BLAS_THREADS = "1"


def declared_metrics() -> tuple[int, dict, dict]:
    """(run seconds, end-to-end units, per-layer units) as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")}
    return bench["run_seconds"], units["end_to_end"], units["per_layer"]


def _unit(name: str, declared: dict) -> str:
    units = {"req_tail_ms": "ms", "fail_frac": "ratio", **declared}
    return units.get(name, "s" if name.endswith("_s") else "count")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


class WorkerError(RuntimeError):
    pass


def run_worker(cfg: dict, deadline: float) -> tuple[float, dict, dict]:
    """Start one worker, killed at ``deadline``; return (set-up seconds, ready event, result event or {})."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        result_line = proc.stdout.readline() if cfg["measure"] else ""
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not ready_line or (cfg["measure"] and not result_line):
        raise WorkerError(f"worker for {cfg['workload']} exited with code {code}")
    return setup_s, json.loads(ready_line), json.loads(result_line) if result_line else {}


def tail_percentile(latencies: list[float]):
    """(level in %, value): the highest percentile with at least 10 samples above it."""
    if len(latencies) < 20:
        return None
    ordered = sorted(latencies)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def source_metadata() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    lines = sum(len(f.read_text().splitlines()) for f in files)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"src_lines": lines, "git_commit": commit, "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS)}


def tally(records: list[dict], warmup_problems: list[str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems); a failed warm-up counts as one failed request."""
    problems = [f"warm-up: {p}" for p in warmup_problems]
    failed = 1 if warmup_problems else 0
    for rec in records:
        if rec["problems"]:
            failed += 1
            problems += [f"{rec['id']}: {p}" for p in rec["problems"]]
    return len(records) + (1 if warmup_problems else 0), failed, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    base = {"root": str(ROOT), "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "tiny": tiny}
    setups, imports, warmup_problems = [], [], []
    deadline = time.perf_counter() + WORKLOAD_TIMEOUT_S
    for i in range(SETUP_PROCESSES):
        setup_s, ready, res = run_worker(dict(base, measure=i == SETUP_PROCESSES - 1), deadline)
        setups.append(setup_s)
        imports.append(ready["import_s"])
        warmup_problems += ready["warmup_problems"]
        result = res  # the last worker measures

    records = result["records"]
    attempted, failed, problems = tally(records + result.get("traced_records", []), warmup_problems)
    busy_s = sum(r["s"] for r in records)
    latencies_ms = [1000.0 * r["s"] for r in records]
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": sum(r["units"] for r in records) / busy_s,
        "req_p50_ms": statistics.median(latencies_ms),
        "peak_rss_mb": result["peak_rss_mib"],
        "fail_frac": failed / attempted,
    }
    tail = tail_percentile(latencies_ms)
    if tail is not None:
        metrics["req_tail_ms"] = tail[1]
    if trace:
        metrics.update(result["layer_metrics"])
        metrics["cli.import_s"] = statistics.median(imports)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "requests": len(records),
            "rounds": result["rounds"],
            "work_unit": workloads.UNIT_NAMES[workload],
            "tail_level_pct": tail[0] if tail else None,
            "setup_samples_s": setups,
            "import_samples_s": imports,
            "reference_checked": result["reference_checked"],
            "trace_file": result.get("trace_file"),
            "wrapped_callables": result.get("wrapped"),
        },
        "versions": result["versions"],
        "problems": problems[:20],
    }


def print_report(rep: dict, declared: dict) -> None:
    d = rep["details"]
    print(f"== {rep['workload']}  seed={rep['seed']}  trace={int(rep['trace'])}  "
          f"requests={d['requests']} in {d['rounds']} round(s)  "
          f"work unit: {d['work_unit']}  reference-checked requests: {d['reference_checked']}")
    for name, value in rep["metrics"].items():
        note = ""
        if name == "req_tail_ms":
            note = f"  (p{d['tail_level_pct']:.1f}, {d['requests']} samples)"
        elif name == "req_p50_ms":
            note = f"  ({d['requests']} samples)"
        print(f"  {name:28s} {value:>16.6g} {_unit(name, declared)}{note}")
    for problem in rep["problems"]:
        print(f"  FAILED {problem}")


def final_line(reports: list[dict], names: dict) -> dict:
    """The result line: every metric of ``names`` (name -> unit) for every report."""
    prefix = len(reports) > 1
    metrics = {}
    for rep in reports:
        for name in names:
            key = f"{rep['workload']}/{name}" if prefix else name
            metrics[key] = {"value": rep["metrics"][name], "unit": names[name]}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "trotterlab" / "cli.py").is_file():
        print(f"error: no trotterlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_seconds, end_to_end, per_layer = declared_metrics()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes and one round, for the smoke test")
    args = parser.parse_args(argv)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.tiny) for w in names]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    declared = per_layer if args.trace else end_to_end
    meta = source_metadata()
    print(f"metadata: {json.dumps(dict(meta, **reports[0]['versions']))}")
    for rep in reports:
        print_report(rep, {**end_to_end, **per_layer})
    print(json.dumps({"report": reports, "metadata": meta}))
    print(json.dumps(final_line(reports, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
