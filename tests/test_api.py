"""The public surface of the package: what ``trotterlab.__all__`` promises."""

import contextlib
import dataclasses
import inspect
import io
import typing
from pathlib import Path

import pytest

import trotterlab


@pytest.mark.parametrize("name", trotterlab.__all__)
def test_every_exported_name_resolves(name):
    # The dense and lab names load on first access.
    assert getattr(trotterlab, name) is not None


@pytest.mark.parametrize(
    "name",
    [
        "commutator",
        "adjoint_apply",
        "string_matrix",
        "is_unitary",
        "state_error",
        "local_norm",
        "lambda_k",
        "lambda_prime_k",
        "lambda_ferm_k",
        "ladder_part",
        "is_hermitian",
        "strings_commute",
        "fermion_term_site_matrices",
        "DEFAULT_CAP_N",
        "check_cap",
    ],
)
def test_deleted_names_are_gone(name):
    assert name not in trotterlab.__all__
    with pytest.raises(AttributeError):
        getattr(trotterlab, name)


@pytest.mark.parametrize(
    "module, function, parameter",
    [
        ("lab", "check_hypercontractivity", "n"),
        ("lab", "support_components", "n"),
        ("dense", "subset_component", "n"),
        ("lab", "fuzz_hypercontractivity", "n_range"),
        ("lab", "fuzz_hypercontractivity", "k_max"),
        ("lab", "fuzz_hypercontractivity", "p_values"),
        ("bounds", "gatecount", "n"),
        ("lab", "fermi_optimality_experiment", "cap_n"),
        ("lab", "check_order_condition", "cap_n"),
        ("lab", "optimality_experiment", "cap_n"),
        ("lab", "check_uniform_smoothness", "n"),
        ("dense", "_blocks", "transposed"),
    ],
)
def test_parameters_the_input_fixes_are_gone(module, function, parameter):
    # n is read off the Hamiltonian or the matrix; the sites are qubits; the
    # coset block stack is built in one layout.
    fn = getattr(getattr(trotterlab, module), function)
    assert parameter not in inspect.signature(fn).parameters


def test_bounds_take_no_norm_profile_as_hamiltonian():
    assert trotterlab.norms.NormProfile not in typing.get_args(trotterlab.bounds.HamiltonianLike)


@pytest.mark.parametrize(
    "module, name",
    [
        ("pauli", "commutator"),
        ("pauli", "adjoint_apply"),
        ("dense", "string_matrix"),
        ("dense", "is_unitary"),
        ("dense", "state_error"),
        ("norms", "local_norm"),
        ("norms", "lambda_k"),
        ("norms", "lambda_prime_k"),
        ("norms", "lambda_ferm_k"),
        ("norms", "ladder_part"),
        ("dense", "is_hermitian"),
        ("pauli", "strings_commute"),
        ("pauli", "fermion_term_site_matrices"),
        ("lab", "_hypercontractivity_checks"),
        ("dense", "unitary_power"),
        ("dense", "product_state_diagonal"),
        ("dense", "weighted_norm_diagonal"),
        ("dense", "errors_for_basis"),
        ("bounds", "gatecount_nonrandom"),
        ("bounds", "gatecount_random_first"),
        ("bounds", "gatecount_random_ho"),
        ("bounds", "baseline_1norm"),
        ("pauli.PauliHamiltonian", "bounds"),
        ("norms.NormProfile", "bounds"),
        ("models", "pair_distance"),
        ("bounds", "_ENUMERATION_CAP"),
        ("bounds", "_sphere_area"),
        ("bounds", "_lattice_pairs"),
        ("models", "_MODEL_BYTES"),
        ("models", "_check_size"),
        ("lab", "_SAMPLE_BYTES"),
        ("lab", "_check_samples"),
        ("norms", "_SUBSET_BYTES"),
        ("bounds", "_float_guard"),
        ("dense", "DEFAULT_CAP_N"),
        ("dense", "check_cap"),
        ("models", "lattice_coordinates"),
        ("dense", "_EIGH_LOOP_BLOCKS"),
        ("lab", "_with_identity_site"),
        ("lab", "_recenter_site"),
        ("dense._actions", "cache_clear"),
        ("bounds", "syk_first_order_gate_count"),
        ("lab", "random_r_sweep"),
        ("lab", "RSweepReport"),
        ("dense", "_eigvalsh"),
        ("pauli.FermionTerm", "adjoint"),
        ("bounds", "_first_order_log_term"),
        ("dense", "_holds_binary_power"),
        ("pauli", "_jw_site_products"),
        ("norms", "fermion_term_bound"),
        ("pauli", "_jw_factor"),
        ("pauli", "_SITE_MATRICES"),
    ],
)
def test_deleted_names_are_gone_from_their_modules(module, name):
    owner = trotterlab
    for part in module.split("."):
        owner = getattr(owner, part)
    assert not hasattr(owner, name)


def test_norms_holds_no_private_object_of_pauli():
    # Per-term bounds come from the terms themselves; the fermionic operator
    # convention stays inside pauli.
    private = {
        id(v)
        for name, v in vars(trotterlab.pauli).items()
        if name.startswith("_") and not name.startswith("__")
    }
    held = [name for name, v in vars(trotterlab.norms).items() if id(v) in private]
    assert held == []


@pytest.mark.parametrize("name", ["evolve", "_trotter_power", "_holds_binary_power"])
def test_lab_builds_no_error_operator_of_its_own(name):
    # The random ensemble takes e^{iHt} - S^r and e^{iHt}|0...0> from
    # dense._error_operator, which chooses the power path and memory order.
    assert not hasattr(trotterlab.lab, name)


def test_bounds_exports_are_pinned():
    assert trotterlab.bounds.__all__ == [
        "REGIMES",
        "GateCountQuery",
        "GateCountResult",
        "TruncationPlan",
        "CountingEstimate",
        "Table1Cell",
        "TABLE1_METHODS",
        "gatecount",
        "table1_exponents",
        "table1_all",
        "truncation_plan",
        "counting_net_size",
        "markov_tail",
    ]


def test_gatecount_is_the_one_public_function_returning_a_result():
    bounds = trotterlab.bounds
    returning = [
        name
        for name, fn in inspect.getmembers(bounds, inspect.isfunction)
        if not name.startswith("_")
        and fn.__module__ == bounds.__name__
        and inspect.signature(fn).return_annotation == "GateCountResult"
    ]
    assert returning == ["gatecount"]


@pytest.mark.parametrize(
    "function, parameter",
    [("_trotter_power", "cap_n"), ("_schedule_product", "cap_n"), ("_assembled", "layout")],
)
def test_private_dense_helpers_take_no_cap_or_layout(function, parameter):
    # The public dense entries check the cap once, before calling these.
    fn = getattr(trotterlab.dense, function)
    assert parameter not in inspect.signature(fn).parameters


def test_no_dense_entry_or_experiment_field_takes_a_qubit_cap():
    # One memory budget refuses dense work, by each entry's byte estimate.
    dense = trotterlab.dense
    public = [
        fn
        for name, fn in inspect.getmembers(dense, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == dense.__name__
    ]
    assert trotterlab.dense.to_matrix in public
    assert all("cap_n" not in inspect.signature(fn).parameters for fn in public)
    fields = [field.name for field in dataclasses.fields(trotterlab.ExperimentConfig)]
    assert "seed" in fields and "cap_n" not in fields


def test_simulate_has_no_cap_flag():
    from trotterlab.cli import main

    argv = ["simulate", "--family", "chain-heisenberg", "--n", "3", "--t", "1", "--seed", "1"]
    assert main(argv) == 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:  # argparse exits on a bad flag
            main(argv + ["--cap-n", "12"])
    assert (info.value.code, out.getvalue()) == (2, "")
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(errors) == 1 and "unrecognized arguments: --cap-n" in errors[0]


@pytest.mark.parametrize(
    "name",
    [
        name
        for name, value in vars(trotterlab.errors).items()
        if isinstance(value, type) and issubclass(value, trotterlab.errors.TrotterlabError)
    ],
)
def test_every_error_type_carries_the_readme_exit_code(name):
    # README: 3 for an infeasible bound or a resource cap, 2 for invalid input.
    assert name in trotterlab.__all__
    error = getattr(trotterlab, name)
    assert error.exit_code == (3 if name in ("ResourceCapError", "DivergentTailError") else 2)


def test_distribution_is_named_after_its_package():
    # pip show, install and uninstall find the package by this name.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["name"] == "trotterlab"
    assert project["version"] == trotterlab.__version__
