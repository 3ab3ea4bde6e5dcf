"""Command-line interface: formats, exit codes, determinism, round-trips."""

import contextlib
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trotterlab
from trotterlab.cli import main
from trotterlab.pauli import pauli_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ model


def test_model_round_trip_preserves_order(tmp_path, capsys):
    path = tmp_path / "h.json"
    code, _, _ = run(
        capsys, "model", "--family", "chain-heisenberg", "--n", "4", "--out", str(path)
    )
    assert code == 0
    doc = json.loads(path.read_text())
    h = pauli_from_json(doc)
    assert [t.string.label() for t in h.terms] == [t["pauli"] for t in doc["terms"]]
    assert [t.coeff.real for t in h.terms] == [t["coeff"] for t in doc["terms"]]
    # Re-serialize: identical document.
    code, out, _ = run(capsys, "model", "--family", "chain-heisenberg", "--n", "4")
    assert json.loads(out) == doc


def test_model_syk_requires_seed(capsys):
    code, _, err = run(capsys, "model", "--family", "k-local-syk", "--n", "4", "--k", "2")
    assert code == 2
    assert "--seed" in err


def test_model_syk_deterministic(capsys):
    argv = ("model", "--family", "k-local-syk", "--n", "4", "--k", "2", "--seed", "9")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_model_missing_family_parameter(capsys):
    code, _, err = run(capsys, "model", "--family", "power-law", "--n", "4", "--d", "1")
    assert code == 2
    assert "--alpha" in err


# ------------------------------------------------------------ norms


def test_pipeline_zxyz_norm_profile(tmp_path, capsys):
    path = tmp_path / "zxyz.json"
    run(capsys, "model", "--family", "zxyz", "--m", "2", "--out", str(path))
    code, out, _ = run(capsys, "norms", str(path))
    assert code == 0
    prof = json.loads(out)
    assert prof["gamma"] == 8
    assert prof["k"] == 2
    assert prof["c_q_norms"]["0,2"] == pytest.approx(2.0 * math.sqrt(2.0))
    assert prof["c_q_norms"]["1,2"] == pytest.approx(2.0)
    assert prof["c_q_norms"]["1,1"] == pytest.approx(4.0)
    assert prof["c_q_norms"]["2,2"] == pytest.approx(1.0)
    assert prof["lambda_ferm"] is None


def test_norms_reads_stdin(capsys, monkeypatch):
    doc = {"n": 2, "terms": [{"pauli": "ZZ", "coeff": 2.0}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run(capsys, "norms", "-")
    assert code == 0
    assert json.loads(out)["c_q_norms"]["0,2"] == pytest.approx(2.0)


def test_norms_of_a_40_site_string_exits_3_before_enumerating(capsys, monkeypatch):
    # The string has C(40, 20) > 10**11 subsets at c = 20.
    doc = {"n": 40, "terms": [{"pauli": "X" * 40, "coeff": 1.0}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "norms", "-")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_norms_fermionic_profile(tmp_path, capsys):
    path = tmp_path / "fh.json"
    run(capsys, "model", "--family", "fermi-hop", "--m", "2", "--out", str(path))
    assert json.loads(path.read_text())["eta"] == 0.5
    code, out, _ = run(capsys, "norms", str(path))
    assert code == 0
    prof = json.loads(out)
    assert prof["ferm_zero_two"] == pytest.approx(4.0)
    assert prof["lambda_ferm"] == pytest.approx(prof["lambda"] + 8.0)


# The module entry point `python -m trotterlab` runs the same `cli:main` as the
# installed console script, so these tests need no install. The child gets the
# directory holding the imported package first on PYTHONPATH, so it runs the
# code under test.
PACKAGE_ROOT = str(Path(trotterlab.__file__).resolve().parent.parent)
MODULE_CMD = f"{shlex.quote(sys.executable)} -m trotterlab"


def module_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return env


def test_console_script_pipeline():
    proc = subprocess.run(
        [
            "sh",
            "-c",
            f"{MODULE_CMD} model --family zxyz --m 2 | {MODULE_CMD} norms -",
        ],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gamma"] == 8


@pytest.mark.skipif(
    shutil.which("trotterlab") is None, reason="trotterlab console script not on PATH"
)
def test_installed_console_script_pipeline():
    proc = subprocess.run(
        ["sh", "-c", "trotterlab model --family zxyz --m 2 | trotterlab norms -"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gamma"] == 8


def test_console_script_declared_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["trotterlab"] == "trotterlab.cli:main"


def test_module_entry_point_exit_code():
    proc = subprocess.run(
        [
            *(sys.executable, "-m", "trotterlab"),
            *("model", "--family", "power-law", "--n", "4", "--d", "1"),
        ],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert proc.returncode == 2
    assert "--alpha" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "--family", "chain-heisenberg", "--n", "4", "--out", "{h}"],
        ["norms", "{h}"],
        ["gatecount", "{h}", "--t", "1", "--eps", "0.1"],
        ["truncate", "--n", "4", "--d", "1", "--alpha", "2", "--t", "1", "--eps", "2"],
        ["table1"],
        ["lowerbound", "--n", "8", "--k", "2", "--eps", "0.1"],
    ],
    ids=lambda argv: argv[0],
)
def test_planner_commands_never_import_scipy(tmp_path, argv):
    """Only the dense engine needs scipy, which is most of the import time;
    `python -X importtime` lists every module the command imported."""
    path = tmp_path / "h.json"
    if argv[0] != "model":
        assert main(["model", "--family", "chain-heisenberg", "--n", "4", "--out", str(path)]) == 0
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "trotterlab", *(a.format(h=path) for a in argv)],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if "|" in line]
    assert "trotterlab.cli" in imported
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize(
    "coeff, argv",
    [
        ("NaN", ["gatecount", "{h}", "--t", "1", "--eps", "0.1"]),
        ("Infinity", ["gatecount", "{h}", "--t", "1", "--eps", "0.1"]),
        ("-Infinity", ["simulate", "{h}", "--t", "1", "--seed", "1"]),
        ("1.0", ["gatecount", "{h}", "--t", "nan", "--eps", "0.1"]),
        ("1.0", ["gatecount", "{h}", "--t", "inf", "--eps", "0.1"]),
        ("1.0", ["simulate", "{h}", "--t", "nan", "--seed", "1"]),
        ("1.0", ["simulate", "{h}", "--t", "1", "--seed", "1", "--p", "inf"]),
        ("1.0", ["gatecount", "{h}", "--t", "1", "--eps", "0.1", "--delta=-inf"]),
        ("1.0", ["truncate", "--n", "4", "--d", "1", "--alpha", "nan", "--t", "1", "--eps", "1"]),
    ],
)
def test_non_finite_input_exits_2_without_traceback(tmp_path, coeff, argv):
    path = tmp_path / "h.json"
    path.write_text(
        '{"n": 3, "terms": [{"pauli": "XXI", "coeff": 1.0}, '
        f'{{"pauli": "IZZ", "coeff": {coeff}}}]}}'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "trotterlab", *(a.format(h=path) for a in argv)],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


_PAULI_DOC = {"n": 2, "terms": [{"pauli": "XX", "coeff": 1.0}]}
_FERMION_DOC = {"n": 2, "eta": 0.5, "terms": [{"ops": [["+", 0], ["-", 1]], "coeff": 1.0}]}


def _with(doc, value, *path):
    """A copy of doc with the value at path replaced."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_with(_PAULI_DOC, 2.9, "n"), '"n" must be a JSON integer, got 2.9'),
        (_with(_PAULI_DOC, True, "n"), '"n" must be a JSON integer, got true'),
        (_with(_PAULI_DOC, "2", "n"), '"n" must be a JSON integer, got "2"'),
        (_with(_PAULI_DOC, True, "terms", 0, "coeff"), '"coeff" must be a finite JSON number, got true'),
        (_with(_PAULI_DOC, "2.5", "terms", 0, "coeff"), '"coeff" must be a finite JSON number, got "2.5"'),
        (_with(_FERMION_DOC, 2.9, "n"), '"n" must be a JSON integer, got 2.9'),
        (_with(_FERMION_DOC, True, "n"), '"n" must be a JSON integer, got true'),
        (_with(_FERMION_DOC, True, "eta"), '"eta" must be a finite JSON number, got true'),
        (_with(_FERMION_DOC, "0.5", "eta"), '"eta" must be a finite JSON number, got "0.5"'),
        (_with(_FERMION_DOC, True, "terms", 0, "coeff"), '"coeff" must be a finite JSON number, got true'),
        (_with(_FERMION_DOC, "2.5", "terms", 0, "coeff"), '"coeff" must be a finite JSON number, got "2.5"'),
        (_with(_FERMION_DOC, [["+", 0.5], ["-", 1]], "terms", 0, "ops"), "site index must be a JSON integer, got 0.5"),
    ],
)
def test_json_with_wrong_value_types_exits_2(monkeypatch, doc, message):
    # These used to be coerced by int()/float() and planned with exit 0.
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = _call(["norms", "-"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: malformed {'fermionic' if 'eta' in doc else 'Hamiltonian'} JSON: {message}"]


@pytest.mark.parametrize(
    "doc",
    [_with(_PAULI_DOC, 2, "terms", 0, "coeff"), _with(_FERMION_DOC, 0, "eta"), _with(_FERMION_DOC, -3, "terms", 0, "coeff")],
)
def test_json_integer_numbers_are_accepted(monkeypatch, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = _call(["norms", "-"])
    assert code == 0, err
    assert json.loads(out)["gamma"] >= 1


_LABEL_TEXT = st.text(alphabet="IXYZ", min_size=0, max_size=5) | st.text(max_size=4)
_COEFF_VALUES = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.sampled_from(["1.5", "abc", "nan", "", None, True, [1.0], {"re": 1.0}])
)


@st.composite
def malformed_pauli_json(draw):
    """Pauli Hamiltonian documents that are mostly well-formed: bad letters,
    wrong label lengths, non-finite, huge or string coefficients, missing
    keys, empty or cancelling term lists, and wrong JSON types."""
    n = draw(st.integers(min_value=-1, max_value=4) | st.sampled_from([10**30, "3", 2.5, None]))
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        size = n if isinstance(n, int) and 0 <= n <= 4 else 3
        label = draw(st.text(alphabet="IXYZ", min_size=size, max_size=size) | _LABEL_TEXT)
        coeff = draw(st.floats(min_value=-2.0, max_value=2.0) | _COEFF_VALUES)
        term = {"pauli": label, "coeff": coeff}
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            del term[draw(st.sampled_from(["pauli", "coeff"]))]
        terms.append(term)
        if draw(st.booleans()) and isinstance(coeff, float):
            terms.append({"pauli": label, "coeff": -coeff})  # cancels the term
    doc = {"n": n, "terms": terms}
    shape = draw(st.integers(min_value=0, max_value=9))
    if shape == 0:
        doc["terms"] = draw(st.sampled_from([{}, {"0": 1}, 5, "XX", None, [1, 2]]))
    elif shape == 1:
        del doc[draw(st.sampled_from(["n", "terms"]))]
    elif shape == 2:
        doc = draw(st.sampled_from([[doc], 3, "doc", None]))
    return json.dumps(doc)


_FUZZ_ARGV = [["norms", "-"]] + [
    ["gatecount", "-", "--regime", regime, "--order", order, "--t", "1", "--eps", "0.1"]
    for regime, order in (
        ("nonrandom-typical", "2"),
        ("random-fixed", "2"),
        ("first-order-random-spectral", "1"),
        ("spectral-1norm-baseline", "2"),
    )
]


@given(text=malformed_pauli_json(), argv=st.sampled_from(_FUZZ_ARGV))
@settings(max_examples=100, deadline=None)
def test_fuzz_malformed_pauli_json_exits_cleanly(text, argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) <= 1
    assert (code == 0) == (not errors)


_KINDS = st.sampled_from(["+", "-", "z"]) | st.sampled_from(["x", "", "++", 1, None])
_SITES = st.integers(min_value=-2, max_value=5) | st.sampled_from([10**30, 2.5, "1", True, None])


@st.composite
def malformed_fermion_json(draw):
    """Fermionic documents that are mostly well-formed: bad factor kinds,
    negative, out-of-range or non-integer sites, repeated ladder factors,
    non-finite or string coefficients and eta, missing keys and wrong JSON
    types."""
    n = draw(st.integers(min_value=-1, max_value=4) | st.sampled_from([10**30, "3", 2.5, None]))
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        ops = [[draw(_KINDS), draw(_SITES)] for _ in range(draw(st.integers(0, 3)))]
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            ops = draw(st.sampled_from([[["+"]], [["+", 0, 1]], "+0", [None], {"+": 0}]))
        term = {"ops": ops, "coeff": draw(st.floats(min_value=-2.0, max_value=2.0) | _COEFF_VALUES)}
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            del term[draw(st.sampled_from(["ops", "coeff"]))]
        terms.append(term)
    doc = {"n": n, "eta": draw(st.floats(0.0, 1.0) | _COEFF_VALUES), "terms": terms}
    shape = draw(st.integers(min_value=0, max_value=9))
    if shape == 0:
        doc["terms"] = draw(st.sampled_from([{}, 5, "ops", None, [1, 2], [{"ops": 1}]]))
    elif shape == 1:
        del doc[draw(st.sampled_from(["n", "eta", "terms"]))]
    return json.dumps(doc)


_FERMION_FUZZ_ARGV = _FUZZ_ARGV + [
    ["schedule", "-", "--order", "2", "--t", "0.5"],
    ["simulate", "-", "--t", "1", "--r", "2", "--seed", "1", "--samples", "3"],
]


@given(text=malformed_fermion_json(), argv=st.sampled_from(_FERMION_FUZZ_ARGV))
@settings(max_examples=150, deadline=None)
def test_fuzz_malformed_fermion_json_exits_cleanly(text, argv):
    with mock.patch("sys.stdin", io.StringIO(text)):
        _assert_clean_exit(*_call(argv))


def _call(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, out, err):
    """Exit 0, 2 or 3; a failure prints one error line and no result; exit 3
    without an error line is an infeasible plan, printed as JSON."""
    assert code in (0, 2, 3)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 0:
        assert not errors
    elif errors:
        assert len(errors) == 1 and out == ""
    else:
        assert code == 3 and json.loads(out)["feasible"] is False


# Small and large, zero and negative: n stays at most 70 below the lattice
# enumeration cap (4096 sites), whose distance matrix grows as n**2.
_FUZZ_INT = st.integers(min_value=-3, max_value=70) | st.sampled_from(
    [4097, 10**6, 10**30, -(10**30)]
)
_FUZZ_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e-300, 5e-324, 1e200, -1e200, 1.7e308]
)


@st.composite
def numeric_flag_argv(draw):
    """truncate, table1 and lowerbound with every numeric flag drawn."""
    command = draw(st.sampled_from(["truncate", "table1", "lowerbound"]))
    if command == "truncate":
        flags = {"n": _FUZZ_INT, "d": st.integers(-2, 6), "alpha": _FUZZ_FLOAT,
                 "t": _FUZZ_FLOAT, "eps": _FUZZ_FLOAT}
    elif command == "table1":
        family = draw(st.sampled_from(["norm-form", "k-local-uniform", "power-law"]))
        flags = {"family": st.just(family), "k": _FUZZ_INT, "d": _FUZZ_INT, "alpha": _FUZZ_FLOAT}
    else:
        flags = {"n": _FUZZ_INT, "k": st.integers(-2, 6) | _FUZZ_INT, "eps": _FUZZ_FLOAT,
                 "j": _FUZZ_FLOAT}
    # --flag=value, since argparse reads a separate "-1" as a flag
    return [command] + [f"--{name}={draw(value)}" for name, value in flags.items()]


@given(argv=numeric_flag_argv())
@settings(max_examples=300, deadline=None)
def test_fuzz_numeric_flags_exit_cleanly(argv):
    _assert_clean_exit(*_call(argv))


_FUZZ_ORDER = st.integers(min_value=-2, max_value=6) | st.sampled_from([40, 10**30])


@st.composite
def dense_flag_argv(draw):
    """schedule and simulate with every numeric flag drawn; simulate runs on
    at most four qubits and a few dozen samples, so each call stays fast."""
    if draw(st.booleans()):
        gamma = st.integers(min_value=-3, max_value=70) | st.sampled_from([10**6, 10**30])
        flags = {"gamma": gamma, "order": _FUZZ_ORDER, "t": _FUZZ_FLOAT}
        return ["schedule"] + [f"--{name}={draw(value)}" for name, value in flags.items()]
    family = draw(st.sampled_from(["chain-heisenberg", "power-law", "k-local-syk", "zxyz", "fermi-hop"]))
    argv = ["simulate", "--family", family]
    if family in ("zxyz", "fermi-hop"):
        argv.append(f"--m={draw(st.integers(-1, 1))}")
    else:
        argv.append(f"--n={draw(st.integers(-1, 4))}")
    if family == "power-law":
        argv += ["--d=1", f"--alpha={draw(_FUZZ_FLOAT)}"]
    if family == "k-local-syk":
        argv += [f"--k={draw(st.integers(-1, 4))}", f"--j={draw(_FUZZ_FLOAT)}"]
    flags = {
        "seed": st.integers(0, 3),
        "samples": st.integers(min_value=-1, max_value=30) | st.sampled_from([10**30]),
        "ensemble": st.sampled_from(["basis-1-design", "haar"]),
        "t": _FUZZ_FLOAT,
        "r": _FUZZ_INT,
        "order": _FUZZ_ORDER,
        "cap-n": _FUZZ_INT,
    }
    argv += [f"--{name}={draw(value)}" for name, value in flags.items()]
    for name in ("p", "eps"):
        argv += [f"--{name}={draw(_FUZZ_FLOAT)}" for _ in range(draw(st.integers(0, 2)))]
    return argv


@given(argv=dense_flag_argv())
@settings(max_examples=150, deadline=None)
def test_fuzz_schedule_and_simulate_flags_exit_cleanly(argv):
    _assert_clean_exit(*_call(argv))


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["schedule", "--gamma", "3", "--order", str(10**30), "--t", "1"], 3, "exponentials"),
        (["schedule", "--gamma", str(10**30), "--order", "1", "--t", "1"], 3, "exponentials"),
        (["simulate", "--family", "chain-heisenberg", "--n", "3", "--t", "1", "--seed", "1",
          "--order", "40"], 3, "exponentials"),
        (["simulate", "--family", "chain-heisenberg", "--n", "3", "--t", "1", "--seed", "1",
          "--samples", str(10**30)], 3, "samples"),
        (["simulate", "--family", "k-local-syk", "--n", "3", "--k", "2", "--t", "1", "--seed", "1",
          "--samples", str(10**30)], 3, "samples"),
        (["model", "--family", "power-law", "--n", "20000", "--d", "1", "--alpha", "2"], 3, "memory"),
        (["simulate", "--family", "power-law", "--n", "20000", "--d", "1", "--alpha", "2",
          "--t", "1", "--seed", "1"], 3, "memory"),
        (["simulate", "--family", "chain-heisenberg", "--n", "3", "--t", "1e308", "--seed", "1",
          "--samples", "3"], 2, "not finite"),
        (["simulate", "--family", "k-local-syk", "--n", "3", "--k", "2", "--t", "3", "--seed", "1",
          "--samples", "3", "--p", "1e308"], 2, "floating-point range"),
    ],
)
def test_model_schedule_and_simulate_limits_exit_cleanly(argv, code, message):
    got, out, err = _call(argv)
    assert (got, out) == (code, "")
    assert err.count("error:") == 1 and message in err


def test_simulate_past_the_float_range_prints_one_error_line():
    proc = subprocess.run(
        [
            *(sys.executable, "-m", "trotterlab", "simulate"),
            *("--family", "chain-heisenberg", "--n", "3", "--t", "1e308"),
            *("--seed", "1", "--samples", "3"),
        ],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_simulate_markov_bound_with_a_huge_schatten_index(capsys):
    code, out, _ = run(
        capsys, "simulate", "--family", "chain-heisenberg", "--n", "3", "--t", "1",
        "--seed", "1", "--samples", "5", "--p", "1e308",
    )
    assert code == 0
    tail = [line.split(",") for line in out.splitlines() if line.startswith("markov-tail")]
    assert [row[3] for row in tail] == ["1.0"]


@pytest.mark.parametrize(
    "doc", ['{"n": 600, "terms": []}', '{"n": %d, "eta": 0.5, "terms": []}' % 10**30]
)
def test_simulate_above_the_cap_exits_3_without_counting_bytes(monkeypatch, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = _call(["simulate", "-", "--t", "1", "--seed", "1"])
    assert (code, out) == (3, "")
    assert "bytes (cap is n=12" in err


def test_norms_of_a_fermionic_document_far_wider_than_its_sites(monkeypatch):
    # Subset codes are numbered in a radix of one more than the largest site;
    # in a radix of n, n = 10**30 overflowed int64 with a traceback.
    doc = '{"n": %d, "terms": [{"ops": [["+", 0], ["-", 3]], "coeff": 0.5}, {"ops": [["+", 3], ["-", 5]], "coeff": 1.0}]}'
    outputs = []
    for n in (6, 10**30):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc % n))
        code, out, err = _call(["norms", "-"])
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_truncate_overflow_is_a_validation_error(capsys):
    code, out, err = run(
        capsys, "truncate", "--n", "4", "--d", "1", "--alpha", "2", "--t", "1e200",
        "--eps", "0.1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "floating-point range" in err


def test_cached_parser_keeps_no_state_between_calls(capsys):
    first = run(capsys, "schedule", "--gamma", "3", "--order", "2", "--t", "0.5")
    run(capsys, "schedule", "--gamma", "2", "--order", "1", "--t", "1", "--no-merge")
    assert run(capsys, "schedule", "--gamma", "3", "--order", "2", "--t", "0.5") == first
    assert run(capsys, "norms", "/nonexistent/h.json")[0] == 2
    assert run(capsys, "schedule", "--gamma", "3", "--order", "2", "--t", "0.5") == first


# ---------------------------------------------------------- schedule


def test_schedule_gamma_flag_second_order(capsys):
    code, out, _ = run(capsys, "schedule", "--gamma", "2", "--order", "2", "--t", "0.5")
    assert code == 0
    steps = json.loads(out)
    assert steps == [
        {"gamma": 2, "coeff": 0.25},
        {"gamma": 1, "coeff": 0.5},
        {"gamma": 2, "coeff": 0.25},
    ]


def test_schedule_from_file_first_order(tmp_path, capsys):
    path = tmp_path / "h.json"
    run(capsys, "model", "--family", "chain-heisenberg", "--n", "3", "--out", str(path))
    code, out, _ = run(capsys, "schedule", str(path), "--order", "1", "--t", "0.1")
    assert code == 0
    steps = json.loads(out)
    gamma = len(json.loads(path.read_text())["terms"])
    assert [s["gamma"] for s in steps] == list(range(1, gamma + 1))
    assert all(s["coeff"] == pytest.approx(0.1) for s in steps)


def test_schedule_requires_one_source(tmp_path, capsys):
    code, _, err = run(capsys, "schedule", "--order", "1", "--t", "0.1")
    assert code == 2 and "exactly one" in err
    path = tmp_path / "h.json"
    run(capsys, "model", "--family", "chain-heisenberg", "--n", "3", "--out", str(path))
    code, _, err = run(
        capsys, "schedule", str(path), "--gamma", "3", "--order", "1", "--t", "0.1"
    )
    assert code == 2 and "exactly one" in err


# --------------------------------------------------------- gatecount


@pytest.fixture()
def chain8(tmp_path, capsys):
    path = tmp_path / "chain8.json"
    run(capsys, "model", "--family", "chain-heisenberg", "--n", "8", "--out", str(path))
    return str(path)


def test_gatecount_chain8_defaults(chain8, capsys):
    code, out, _ = run(
        capsys, "gatecount", chain8, "--t", "1", "--eps", "0.1", "--delta", "0.1"
    )
    assert code == 0
    res = json.loads(out)
    assert res["regime"] == "nonrandom-typical"
    assert res["r"] == 11436
    assert res["p_star"] == pytest.approx(2.0)
    assert res["gate_count"] == pytest.approx(2 * 21 * 11436)
    assert res["feasible"] is True
    assert res["asymptotic"] is False
    assert res["diagnostics"]["p_star_floored"] is True


def test_gatecount_empty_hamiltonian(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 3, "terms": []}'))
    code, out, _ = run(
        capsys,
        "gatecount",
        "-",
        "--regime",
        "first-order-random-fixed",
        "--order",
        "1",
        "--t",
        "1",
        "--eps",
        "0.1",
    )
    assert code == 0
    res = json.loads(out)
    assert res["gate_count"] == 0.0
    assert res["r"] == 0


def test_gatecount_first_order_regime_rejects_order_two(chain8, capsys):
    code, _, err = run(
        capsys,
        "gatecount",
        chain8,
        "--regime",
        "first-order-random-fixed",
        "--order",
        "2",
        "--t",
        "1",
        "--eps",
        "0.1",
    )
    assert code == 2
    assert err.startswith("error:")


def test_gatecount_p_override(chain8, capsys):
    code, out, _ = run(
        capsys, "gatecount", chain8, "--t", "1", "--eps", "0.1", "--p", "4"
    )
    assert code == 0
    assert json.loads(out)["p_star"] == pytest.approx(4.0)


# ---------------------------------------------------------- simulate


def test_simulate_csv_schema(tmp_path, capsys):
    path = tmp_path / "h.json"
    run(capsys, "model", "--family", "chain-heisenberg", "--n", "3", "--out", str(path))
    code, out, _ = run(
        capsys,
        "simulate",
        str(path),
        "--seed",
        "7",
        "--samples",
        "20",
        "--t",
        "0.5",
        "--r",
        "2",
        "--order",
        "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema=trotterlab-csv-1"
    assert lines[1] == "quantity,p,value,bound,margin,seed"
    rows = [line.split(",") for line in lines[2:]]
    assert all(len(row) == 6 for row in rows)
    assert all(row[5] == "7" for row in rows)
    quantities = {row[0] for row in rows}
    assert {"spectral", "mean-error", "exact-pnorm", "expected-pnorm"} <= quantities
    markov = [row for row in rows if row[0].startswith("markov-tail")]
    assert markov and all(row[3] != "" for row in markov)


def test_simulate_deterministic_bytes(tmp_path, capsys):
    h = tmp_path / "h.json"
    run(capsys, "model", "--family", "chain-heisenberg", "--n", "3", "--out", str(h))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ("simulate", str(h), "--seed", "5", "--samples", "30", "--t", "0.4",
            "--ensemble", "haar")
    assert run(capsys, *argv, "--out", str(a))[0] == 0
    assert run(capsys, *argv, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_random_family(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--family",
        "k-local-syk",
        "--n",
        "4",
        "--k",
        "2",
        "--seed",
        "11",
        "--samples",
        "15",
        "--t",
        "0.3",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    violations = [row for row in rows if row[0] == "trace-distance-violations"]
    assert violations and violations[0][2] == "0"


def test_simulate_requires_one_input(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--seed", "1", "--t", "0.5")
    assert code == 2 and "exactly one" in err
    h = tmp_path / "h.json"
    run(capsys, "model", "--family", "chain-heisenberg", "--n", "3", "--out", str(h))
    code, _, err = run(
        capsys, "simulate", str(h), "--family", "zxyz", "--m", "1",
        "--seed", "1", "--t", "0.5",
    )
    assert code == 2 and "exactly one" in err


# ------------------------------------------------------------ verify


def test_verify_suzuki_rows(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "suzuki", "--seed", "1")
    assert code == 0
    rows = {r[0]: r for r in (line.split(",") for line in out.splitlines()[2:])}
    assert abs(float(rows["q2"][4])) < 1e-12
    for order, expected in ((1, 1), (2, 2), (4, 10), (6, 50)):
        row = rows[f"upsilon-order{order}"]
        assert row[2] == str(expected) and row[4] == "0"


def test_verify_optimality_margins(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "optimality", "--seed", "1")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    spin = [r for r in rows if r[0].startswith("commutator-")]
    fermi = [r for r in rows if r[0].startswith("fermi-")]
    assert len(spin) == 8 and len(fermi) == 4
    assert all(abs(float(r[4])) < 1e-9 for r in spin)
    # Measured fermionic norms sit below the claimed closed forms.
    assert all(float(r[4]) < 0 for r in fermi)


def test_verify_zero_violations_and_determinism(capsys):
    argv = ("verify", "--suite", "smoothness", "--trials", "25", "--seed", "2")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    rows = [line.split(",") for line in out1.splitlines()[2:]]
    assert all(row[2] == "0" for row in rows)  # violation counts
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


# ---------------------------------------------------------- truncate


def test_truncate_chain4(capsys):
    code, out, _ = run(
        capsys, "truncate", "--n", "4", "--d", "1", "--alpha", "2", "--t", "1",
        "--eps", "2",
    )
    assert code == 0
    plan = json.loads(out)
    assert plan["ell_cut"] == 1
    assert plan["residual_norm"] == pytest.approx(
        math.sqrt(1.0 / 8.0 + 1.0 / 81.0), abs=1e-6
    )
    assert plan["feasible"] is True
    assert plan["t"] * plan["residual_norm"] <= plan["eps"]


def test_truncate_divergent_tail_exits_3(capsys):
    code, _, err = run(
        capsys, "truncate", "--n", "4", "--d", "1", "--alpha", "0.5", "--t", "1",
        "--eps", "0.1",
    )
    assert code == 3
    assert "error:" in err


# ------------------------------------------------------------ table1


def test_table1_every_cell(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    cells = json.loads(out)
    assert len(cells) == 25
    methods = {c["method"] for c in cells}
    assert len(methods) == 8
    assert all(c["asymptotic"] is True for c in cells)


def test_table1_klocal_family(capsys):
    code, out, _ = run(capsys, "table1", "--family", "k-local-uniform", "--k", "2")
    assert code == 0
    cells = {c["method"]: c for c in json.loads(out)}
    assert len(cells) == 8
    assert cells["qdrift"]["n_exponent"] == pytest.approx(3.0)
    assert cells["qubitization"]["n_exponent"] == pytest.approx(3.5)
    assert cells["higher-order-fixed"]["n_exponent"] == pytest.approx(2.0)
    assert cells["first-order-fixed"]["n_exponent"] == pytest.approx(2.5)


# -------------------------------------------------------- lowerbound


def test_lowerbound_chain_values(capsys):
    code, out, _ = run(capsys, "lowerbound", "--n", "8", "--k", "2", "--eps", "0.1")
    assert code == 0
    est = json.loads(out)
    assert est["gamma"] == 28
    assert est["net_size"] == 19
    assert est["vacuous"] is False


# -------------------------------------------------------- exit codes


def test_malformed_json_reports_line_and_column(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 2, "terms": [{"pauli":'))
    code, _, err = run(capsys, "norms", "-")
    assert code == 2
    assert "line 1" in err and "column" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "norms", "/nonexistent/h.json")
    assert code == 2
    assert "no such file" in err
