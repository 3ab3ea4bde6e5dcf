"""The public surface of the package: what ``trotterlab.__all__`` promises."""

import inspect
import tomllib
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
        ("bounds", "syk_first_order_gate_count", "d_local"),
        ("lab", "fermi_optimality_experiment", "cap_n"),
        ("lab", "check_order_condition", "cap_n"),
        ("lab", "optimality_experiment", "cap_n"),
        ("lab", "check_uniform_smoothness", "n"),
    ],
)
def test_parameters_the_input_fixes_are_gone(module, function, parameter):
    # n is read off the Hamiltonian or the matrix; the sites are qubits.
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
    ],
)
def test_deleted_names_are_gone_from_their_modules(module, name):
    owner = trotterlab
    for part in module.split("."):
        owner = getattr(owner, part)
    assert not hasattr(owner, name)


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
        "syk_first_order_gate_count",
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
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["name"] == "trotterlab"
    assert project["version"] == trotterlab.__version__
