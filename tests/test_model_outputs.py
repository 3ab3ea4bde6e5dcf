"""The ``model`` command's stdout, pinned by SHA-256 and byte length.

The cases cover every family, the benchmark's planner and typical-dense
inputs at full and tiny sizes (the planner's SYK file on the seeds of
benchmark runs 1 and 2), ``k-local-syk`` for k = 1..5 on several seeds, and
``power-law`` on d = 2 and 3 lattices.  The digests in
``data/model_outputs.json`` were recorded when the models were built from
label strings and written through the indented ``json.dumps``; to record
them again from the source tree, run
``PYTHONPATH=src python tests/test_model_outputs.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from trotterlab.cli import main

DATA = Path(__file__).parent / "data" / "model_outputs.json"


def _model(family: str, **params) -> list[str]:
    argv = ["model", "--family", family]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    return argv


def _cases() -> dict[str, list[str]]:
    cases = {
        "chain-n2": _model("chain-heisenberg", n=2),
        "chain-n5": _model("chain-heisenberg", n=5),
        "chain-n65": _model("chain-heisenberg", n=65),
        "power-law-n1": _model("power-law", n=1, d=1, alpha=2),
        "power-law-n7-a0.5": _model("power-law", n=7, d=1, alpha=0.5),
        "power-law-n30-a1.7": _model("power-law", n=30, d=1, alpha=1.7),
        "power-law-n70-a6": _model("power-law", n=70, d=1, alpha=6),
        "zxyz-m1": _model("zxyz", m=1),
        "zxyz-m3": _model("zxyz", m=3),
        "fermi-hop-m1": _model("fermi-hop", m=1),
        "fermi-hop-m2": _model("fermi-hop", m=2),
    }
    # planner inputs: full and tiny sizes, SYK on the seeds of runs 1 and 2
    for tag, (pl1, pl2, pl3, syk, chain) in (
        ("full", (64, 64, 128, 20, 256)),
        ("tiny", (8, 9, 12, 6, 16)),
    ):
        cases[f"planner-{tag}-pl-d1-a"] = _model("power-law", n=pl1, d=1, alpha=2)
        cases[f"planner-{tag}-pl-d2"] = _model("power-law", n=pl2, d=2, alpha=3)
        cases[f"planner-{tag}-pl-d1-b"] = _model("power-law", n=pl3, d=1, alpha=2)
        for seed in (827628876, 329581969):
            cases[f"planner-{tag}-syk-{seed}"] = _model(
                "k-local-syk", n=syk, k=3, seed=seed
            )
        cases[f"planner-{tag}-chain-big"] = _model("chain-heisenberg", n=chain)
    cases["planner-chain8"] = _model("chain-heisenberg", n=8)
    # typical-dense inputs: full and tiny sizes
    for tag, (n8, n9, n10) in (("full", (8, 9, 10)), ("tiny", (3, 4, 5))):
        cases[f"typical-dense-{tag}-chain-a"] = _model("chain-heisenberg", n=n8)
        cases[f"typical-dense-{tag}-power-law"] = _model("power-law", n=n9, d=1, alpha=2)
        cases[f"typical-dense-{tag}-chain-b"] = _model("chain-heisenberg", n=n10)
    for k in (1, 2, 3, 4):
        for seed in (0, 1, 12345):
            cases[f"syk-n9-k{k}-s{seed}"] = _model("k-local-syk", n=9, k=k, seed=seed)
    cases["syk-n5-k5-s3"] = _model("k-local-syk", n=5, k=5, seed=3)
    cases["syk-n7-k3-j2.5-s4"] = _model("k-local-syk", n=7, k=3, j=2.5, seed=4)
    for n, d, alpha in ((16, 2, 1.5), (25, 2, 2), (8, 3, 1), (27, 3, 2.2), (64, 3, 3)):
        cases[f"power-law-n{n}-d{d}-a{alpha}"] = _model("power-law", n=n, d=d, alpha=alpha)
    return cases


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue().encode()


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DATA.read_text())


def test_pinned_cases_are_the_current_cases(pinned):
    assert list(pinned) == list(_cases())


@pytest.mark.parametrize("case", list(_cases()))
def test_model_stdout_is_byte_identical(case, pinned):
    assert _digest(_stdout(_cases()[case])) == pinned[case]


if __name__ == "__main__":
    record = {case: _digest(_stdout(argv)) for case, argv in _cases().items()}
    DATA.write_text(json.dumps(record, indent=1) + "\n")
    print(f"recorded {len(record)} cases in {DATA}")
