"""The planner commands' stdout, pinned byte for byte.

``gatecount`` runs on four Hamiltonians (the 8-site chain, a 20-site k = 3
SYK sample, a fermionic hopping model and the empty Hamiltonian) in every
regime and each valid order among 1, 2 and 4; ``table1`` for every family
and for each one; ``lowerbound`` in its regular, vacuous and eps = 0
branches.  The expected exit code and stdout of every case are stored in
``data/planner_cli_outputs.json``.  To record them again from the source
tree, run ``PYTHONPATH=src python tests/test_planner_outputs.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from trotterlab.cli import main

DATA = Path(__file__).parent / "data" / "planner_cli_outputs.json"

INPUTS = {
    "chain8.json": ["model", "--family", "chain-heisenberg", "--n", "8"],
    "syk20.json": [
        "model", "--family", "k-local-syk", "--n", "20", "--k", "3",
        "--seed", "827628876",
    ],
    "fermi.json": ["model", "--family", "fermi-hop", "--m", "2"],
    "empty.json": None,  # written directly: no family is empty
}

_ORDERS = {
    "nonrandom-typical": (1, 2, 4),
    "random-spectral": (2, 4),
    "random-fixed": (2, 4),
    "first-order-random-spectral": (1,),
    "first-order-random-fixed": (1,),
    "spectral-1norm-baseline": (1, 2, 4),
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for file in INPUTS:
        for regime, orders in _ORDERS.items():
            for order in orders:
                cases[f"gatecount-{file[:-5]}-{regime}-o{order}"] = [
                    "gatecount", file, "--regime", regime, "--order", str(order),
                    "--t", "1", "--eps", "0.1",
                ]
        cases[f"norms-{file[:-5]}"] = ["norms", file]
    for regime, orders in _ORDERS.items():
        cases[f"gatecount-chain8-{regime}-t0"] = [
            "gatecount", "chain8.json", "--regime", regime, "--order", str(orders[-1]),
            "--t", "0", "--eps", "0.1",
        ]
    for regime in ("nonrandom-typical", "random-fixed"):
        cases[f"gatecount-chain8-{regime}-p6"] = [
            "gatecount", "chain8.json", "--regime", regime, "--t", "2", "--eps", "0.01",
            "--delta", "0.3", "--p", "6",
        ]
    cases["table1-all"] = ["table1"]
    cases["table1-norm-form"] = ["table1", "--family", "norm-form"]
    for k in (1, 2, 3, 4):
        cases[f"table1-k-local-k{k}"] = ["table1", "--family", "k-local-uniform", "--k", str(k)]
    for d, alpha in (("1", "1"), ("1", "0.75"), ("2", "1.5"), ("3", "2.2")):
        cases[f"table1-power-law-d{d}-a{alpha}"] = [
            "table1", "--family", "power-law", "--d", d, "--alpha", alpha,
        ]
    cases["table1-power-law-confined"] = ["table1", "--family", "power-law", "--d", "1", "--alpha", "2"]
    for n, k, eps, branch in (
        ("8", "2", "0.1", "regular"),
        ("20", "3", "0.1", "regular"),
        ("8", "2", "10", "vacuous"),
        ("8", "2", "0", "eps0"),
    ):
        cases[f"lowerbound-n{n}-k{k}-{branch}"] = [
            "lowerbound", "--n", n, "--k", k, "--eps", eps,
        ]
    return cases


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _write_inputs(directory: Path) -> None:
    for name, argv in INPUTS.items():
        path = directory / name
        if argv is None:
            path.write_text('{"n": 4, "terms": []}\n')
        else:
            assert _run([*argv, "--out", str(path)])[0] == 0


def _with_paths(argv: list[str], directory: Path) -> list[str]:
    return [str(directory / a) if a in INPUTS else a for a in argv]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("planner-inputs")
    _write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DATA.read_text())


def test_pinned_cases_are_the_current_cases(pinned):
    assert list(pinned) == list(_cases())


@pytest.mark.parametrize("case", list(_cases()))
def test_planner_stdout_is_byte_identical(case, inputs, pinned):
    code, out = _run(_with_paths(_cases()[case], inputs))
    assert code == pinned[case]["exit"]
    assert out == pinned[case]["stdout"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_inputs(directory)
        record = {}
        for case, argv in _cases().items():
            code, out = _run(_with_paths(argv, directory))
            record[case] = {"exit": code, "stdout": out}
    DATA.write_text(json.dumps(record, indent=1) + "\n")
    print(f"recorded {len(record)} cases in {DATA}")
