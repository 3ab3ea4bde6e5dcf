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
        ("bounds", "gatecount_random_first", "n"),
        ("bounds", "gatecount_random_ho", "n"),
        ("bounds", "gatecount_random_first", "d_local"),
        ("bounds", "syk_first_order_gate_count", "d_local"),
        ("lab", "fermi_optimality_experiment", "cap_n"),
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
    ],
)
def test_deleted_names_are_gone_from_their_modules(module, name):
    assert not hasattr(getattr(trotterlab, module), name)




def test_distribution_is_named_after_its_package():
    # pip show, install and uninstall find the package by this name.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["name"] == "trotterlab"
    assert project["version"] == trotterlab.__version__
