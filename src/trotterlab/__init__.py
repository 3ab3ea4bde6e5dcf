"""trotterlab: Trotter-Suzuki error norms, concentration checks, and gate-count planning.

Subpackages:
    pauli   -- exact Pauli/fermionic operator algebra and Jordan-Wigner mapping
    norms   -- the local norm family ||H||_{(c),q} and derived constants
    suzuki  -- first-order and recursive higher-order product-formula schedules
    dense   -- exact dense-matrix engine (evolution, Schatten/weighted norms)
    models  -- built-in Hamiltonian families
    bounds  -- constant-explicit gate-count calculators and planners
    lab     -- Monte Carlo and property-based verification suites
    cli     -- command-line front end
"""

__version__ = "0.1.0"

import importlib

from .errors import (
    DimensionMismatchError,
    DivergentTailError,
    PartitionError,
    ResourceCapError,
    TrotterlabError,
    UnsupportedOrderError,
    ValidationError,
)
from .pauli import (
    FermionHamiltonian,
    FermionTerm,
    LeadingError,
    PauliHamiltonian,
    PauliString,
    PauliSum,
    PauliTerm,
    commutator_sum,
    jordan_wigner,
    leading_error,
    multiply,
)
from .norms import NormProfile, norm_profile
from .suzuki import Schedule, build_schedule, q_coefficient, upsilon
from .models import (
    KLocalGaussianModel,
    chain_heisenberg,
    fermi_hop,
    power_law,
    zxyz,
)
from .bounds import (
    CountingEstimate,
    GateCountQuery,
    GateCountResult,
    Table1Cell,
    TruncationPlan,
    counting_net_size,
    gatecount,
    markov_tail,
    table1_all,
    table1_exponents,
    truncation_plan,
)
# dense (and lab, on top of it) loads scipy's compiled LAPACK and BLAS
# wrappers, not the scipy.linalg package; their names load on first use
# (PEP 562), so planner commands never import scipy at all.
_LAZY = {
    "dense": (
        "WeightedNormSpec apply_schedule evolve schatten_norm to_matrix "
        "trotter_error_op weighted_norm"
    ).split(),
    "lab": (
        "ErrorReport ExperimentConfig check_hypercontractivity check_order_condition "
        "fermi_optimality_experiment optimality_experiment sample_random_hamiltonian "
        "sample_typical_error"
    ).split(),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "CountingEstimate",
    "ErrorReport",
    "ExperimentConfig",
    "GateCountQuery",
    "GateCountResult",
    "KLocalGaussianModel",
    "NormProfile",
    "Schedule",
    "Table1Cell",
    "TruncationPlan",
    "WeightedNormSpec",
    "apply_schedule",
    "build_schedule",
    "chain_heisenberg",
    "check_hypercontractivity",
    "check_order_condition",
    "counting_net_size",
    "evolve",
    "fermi_hop",
    "fermi_optimality_experiment",
    "gatecount",
    "markov_tail",
    "norm_profile",
    "optimality_experiment",
    "power_law",
    "q_coefficient",
    "sample_random_hamiltonian",
    "sample_typical_error",
    "schatten_norm",
    "table1_all",
    "table1_exponents",
    "to_matrix",
    "trotter_error_op",
    "truncation_plan",
    "upsilon",
    "weighted_norm",
    "zxyz",
    "DimensionMismatchError",
    "DivergentTailError",
    "FermionHamiltonian",
    "FermionTerm",
    "LeadingError",
    "PartitionError",
    "PauliHamiltonian",
    "PauliString",
    "PauliSum",
    "PauliTerm",
    "ResourceCapError",
    "TrotterlabError",
    "UnsupportedOrderError",
    "ValidationError",
    "commutator_sum",
    "jordan_wigner",
    "leading_error",
    "multiply",
    "__version__",
]
