"""One benchmark process: set-up, then optionally the closed-loop measurement.

Started by ``run.py`` with one JSON argument.  The process imports
``trotterlab.cli`` (timed), writes the workload's Hamiltonian files, sends one
warm-up request and prints a ``ready`` event.  A ``measure`` process then runs
whole rounds of the workload's requests for about ``seconds`` (one round with
``tiny``), one request at a time, checks every output and prints a ``result``
event.  With ``trace`` it repeats the same number of rounds with
the tracer installed.

Events are single JSON lines on the real stdout; request output is captured.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"


def emit(event: dict) -> None:
    sys.__stdout__.write(json.dumps(event) + "\n")
    sys.__stdout__.flush()


def call(req: dict) -> tuple[int, str]:
    """Send one request through ``trotterlab.cli.main``; return (exit code, output)."""
    import trotterlab.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = trotterlab.cli.main(req["argv"])
    return code, out.getvalue()


def spec(req: dict) -> dict:
    """The part of a request that fixes its output."""
    return {"kind": req["kind"], "argv": req["argv"]}


@contextlib.contextmanager
def workdir(root: Path, workload: str, seed: int, tiny: bool):
    """Run inside a fresh directory under ``.perfbench-out`` that holds the
    workload's generated Hamiltonian files; remove it afterwards."""
    import trotterlab.cli

    path = root / ".perfbench-out" / f"work-{workload}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        os.chdir(path)
        for argv in workloads.inputs(workload, seed, tiny):
            if trotterlab.cli.main(argv) != 0:
                raise RuntimeError(f"input generation failed: {argv}")
        yield path
    finally:
        os.chdir(root)
        shutil.rmtree(path, ignore_errors=True)


def load_reference(workload: str, seed: int, tiny: bool) -> dict:
    """Parsed reference outputs by request id, for requests identical to the recorded ones."""
    if tiny or seed != workloads.DEFAULT_SEED or not REFERENCE_FILE.is_file():
        return {}
    recorded = json.loads(REFERENCE_FILE.read_text())["workloads"].get(workload, {})
    return {
        req["id"]: recorded[req["id"]]["output"]
        for req in workloads.requests(workload, seed)
        if req["id"] in recorded and recorded[req["id"]]["request"] == spec(req)
    }


def run_checked(req: dict, reference=None, tracer=None, tag=None) -> tuple[float, str, list[str]]:
    """One request: (latency in s, output, problems)."""
    if tracer is not None:
        tracer.request = tag
    gc.collect()  # start each request from a clean heap, as a fresh CLI process would
    start = time.perf_counter()
    try:
        code, text = call(req)
    except Exception as exc:  # a request that raises is a failed request
        elapsed = time.perf_counter() - start
        return elapsed, "", [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    return elapsed, text, checks.check(req, code, text, reference)


def measure(reqs, seconds, reference, rounds=None, tracer=None, first_outputs=None):
    """Closed loop over whole rounds: ``rounds`` of them, or else ``seconds``
    divided by the mean round time so far, rounded to the nearest whole
    number (at least one).  Rounding, rather than counting only the rounds
    that fit, keeps a round near half of ``seconds`` from flipping between
    one and two rounds as the machine's speed drifts.

    Every output must equal the first output of the same request
    (``first_outputs``, filled on the way), so reruns are byte-identical.
    """
    first_outputs = {} if first_outputs is None else first_outputs
    records = []
    start = time.perf_counter()
    done = 0
    while True:
        for req in reqs:
            elapsed, text, problems = run_checked(req, reference.get(req["id"]), tracer, f"{done}:{req['id']}")
            if not problems:
                previous = first_outputs.setdefault(req["id"], text)
                if previous != text:
                    problems = ["output differs from the untraced or earlier output of the same request"]
            records.append({
                "id": req["id"], "kind": req["kind"], "units": req["units"],
                "s": elapsed, "problems": problems,
            })
        done += 1
        elapsed = time.perf_counter() - start
        if done == rounds or (rounds is None and elapsed * (done + 0.5) / done > seconds):
            return records, done


def layer_metrics(tracer, traced, untraced_s: float) -> dict:
    totals = tracer.layer_totals()
    traced_s = sum(r["s"] for r in traced)
    units = sum(r["units"] for r in traced)
    queries = sum(1 for r in traced if r["kind"] in ("gatecount", "norms"))
    calls = totals["calls_by_name"]
    metrics = {}
    for layer, t in totals["layers"].items():
        metrics[f"{layer}.self_s"] = t["self_s"]
        metrics[f"{layer}.calls"] = t["calls"]
    metrics["dense.schedule.steps"] = tracer.counters["dense.schedule.steps"]
    metrics["dense.spectral.per_op"] = calls.get("dense.schatten_norm", 0) / units
    metrics["dense.build.per_op"] = calls.get("dense.to_matrix", 0) / units
    metrics["bounds.doublings"] = tracer.counters["bounds.doublings"]
    metrics["norms.calls_per_query"] = calls.get("norms.local_norm", 0) / queries if queries else 0.0
    metrics["trace.coverage"] = tracer.top_level_seconds() / traced_s
    metrics["trace.overhead"] = traced_s / untraced_s
    return metrics


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(cfg: dict) -> int:
    root = Path(cfg["root"])
    start = time.perf_counter()
    import trotterlab.cli  # the timed import; nothing heavy is imported before it
    import_s = time.perf_counter() - start
    if root / "src" not in Path(trotterlab.cli.__file__).resolve().parents:
        print(f"error: trotterlab was imported from {trotterlab.cli.__file__}, not from the checkout", file=sys.stderr)
        return 2

    workload, seed, tiny = cfg["workload"], cfg["seed"], cfg["tiny"]
    with workdir(root, workload, seed, tiny):
        _, _, warmup_problems = run_checked(workloads.warmup(workload, seed, tiny))
        emit({"event": "ready", "import_s": import_s, "warmup_problems": warmup_problems})
        if not cfg["measure"]:
            return 0

        reqs = workloads.requests(workload, seed, tiny)
        reference = load_reference(workload, seed, tiny)
        outputs: dict = {}
        records, rounds = measure(reqs, cfg["seconds"], reference, rounds=1 if tiny else None,
                                  first_outputs=outputs)
        result = {
            "event": "result",
            "records": records,
            "rounds": rounds,
            "reference_checked": len(reference),
            "versions": versions(),
        }
        if cfg["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            result["wrapped"] = tracer.install()
            traced, _ = measure(reqs, None, reference, rounds=rounds, tracer=tracer, first_outputs=outputs)
            result["traced_records"] = traced
            result["layer_metrics"] = layer_metrics(tracer, traced, sum(r["s"] for r in records))
            trace_file = root / ".perfbench-out" / f"trace-{workload}-seed{seed}.jsonl"
            tracer.write_jsonl(trace_file)
            result["trace_file"] = str(trace_file.relative_to(root))
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        emit(result)
        return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
