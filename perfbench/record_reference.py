"""Record the reference outputs that ``checks.compare`` holds later runs to.

Runs one round of every workload at full size with the default seed and
writes each request with its parsed output to ``reference.json``.  Run it
from the root of a checkout, only on a commit whose outputs are trusted:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[key] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE_FILE, call, spec, workdir  # noqa: E402


def main() -> int:
    recorded = {}
    seed = workloads.DEFAULT_SEED
    for workload in workloads.WORKLOADS:
        entries = {}
        with workdir(HERE.parent, workload, seed, tiny=False):
            for req in workloads.requests(workload, seed):
                code, text = call(req)
                problems = checks.check(req, code, text)
                if problems:
                    print(f"{workload}/{req['id']}: {problems}", file=sys.stderr)
                    return 1
                entries[req["id"]] = {"request": spec(req), "output": checks.parse_output(req["kind"], text)}
                print(f"recorded {workload}/{req['id']}", file=sys.stderr)
        recorded[workload] = entries
    REFERENCE_FILE.write_text(json.dumps({"seed": seed, "workloads": recorded}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
