"""The public surface of the package: what ``trotterlab.__all__`` promises."""

import pytest

import trotterlab


@pytest.mark.parametrize("name", trotterlab.__all__)
def test_every_exported_name_resolves(name):
    # The dense and lab names load on first access.
    assert getattr(trotterlab, name) is not None


@pytest.mark.parametrize("name", ["commutator", "adjoint_apply", "string_matrix", "is_unitary", "state_error"])
def test_deleted_names_are_gone(name):
    assert name not in trotterlab.__all__
    with pytest.raises(AttributeError):
        getattr(trotterlab, name)


@pytest.mark.parametrize(
    "module, name",
    [
        ("pauli", "commutator"),
        ("pauli", "adjoint_apply"),
        ("dense", "string_matrix"),
        ("dense", "is_unitary"),
        ("dense", "state_error"),
    ],
)
def test_deleted_names_are_gone_from_their_modules(module, name):
    assert not hasattr(getattr(trotterlab, module), name)

