"""Hamiltonian family generators.

Families
--------
- ``chain_heisenberg(n)``: nearest-neighbour Heisenberg chain with unit
  couplings; per bond the three terms XX, YY, ZZ in that order.
- ``power_law(n, d, alpha)``: all-pair ZZ couplings on a d-dimensional
  lattice with coefficient ``dist(x, y)**-alpha``.
- ``KLocalGaussianModel``: SYK-like ensemble -- one uniformly random
  k-site Pauli string per size-k site subset, with i.i.d. Gaussian
  coefficients of variance ``J**2 (k-1)! / (k n**(k-1))``.
- ``zxyz(m)``: the two-group 2-local model on three blocks of m qubits,
  ``A = sum Z_{s1} X_{s2}`` (blocks 1-2) and ``B = sum Y_{s2} Z_{s3}``
  (blocks 2-3), whose Trotter-error commutators have closed-form norms.
- ``fermi_hop(m)``: the fermionic analog built from hopping monomials
  between the same three blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError, ValidationError
from .pauli import (
    ANNIHILATE,
    CREATE,
    FermionHamiltonian,
    FermionTerm,
    PauliHamiltonian,
    _row_labels,
    _Rows,
    _site_rows,
)

_X, _Z, _Y = 1, 2, 3  # letter codes x_bit + 2*z_bit

# Memory a model and its JSON text may take.  Peaks of `trotterlab model`
# under tracemalloc: about 300 + 4.5 n bytes per Pauli term on n sites, and
# 2.4-2.9 KiB per fermionic term.
_MODEL_BYTES = 1 << 30
_FERMION_TERM_BYTES = 3072

__all__ = [
    "chain_heisenberg",
    "power_law",
    "lattice_coordinates",
    "pair_distance",
    "KLocalGaussianModel",
    "zxyz",
    "zxyz_groups",
    "fermi_hop",
    "fermi_hop_groups",
]


def _check_size(gamma: int, term_bytes: int) -> None:
    """Refuse a model whose terms would not fit in ``_MODEL_BYTES``."""
    if gamma * term_bytes > _MODEL_BYTES:
        raise ResourceCapError(
            f"a model of {gamma} terms needs more than {_MODEL_BYTES} bytes of memory"
        )


def _pauli_term_bytes(n: int) -> int:
    return 600 + 5 * n


def chain_heisenberg(n: int) -> PauliHamiltonian:
    """Open Heisenberg chain: sum over bonds of XX + YY + ZZ, unit couplings."""
    if n < 2:
        raise ValidationError("chain requires n >= 2")
    _check_size(3 * (n - 1), _pauli_term_bytes(n))
    bond = np.repeat(np.arange(n - 1), 3)
    letters = np.tile([_X, _Y, _Z], n - 1)
    sites = np.stack([bond, bond + 1], axis=1)
    codes = np.stack([letters, letters], axis=1)
    return PauliHamiltonian(n, _site_rows(n, sites, codes, np.ones(len(bond))))


def lattice_coordinates(n: int, d: int) -> list[tuple[int, ...]]:
    """Coordinates of the n sites of a d-dimensional cubic lattice.

    Requires n to be a perfect d-th power; sites are enumerated in
    row-major order.
    """
    return list(itertools.product(range(_lattice_side(n, d)), repeat=d))


def _lattice_side(n: int, d: int) -> int:
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    side = round(n ** (1.0 / d))
    if side**d != n:
        raise ValidationError(f"n={n} is not a d={d} lattice (need n = side**d)")
    return side


def pair_distance(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def power_law(n: int, d: int, alpha: float) -> PauliHamiltonian:
    """All-pair ZZ interactions with coefficient dist**-alpha on a d-D lattice."""
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    _lattice_side(n, d)
    _check_size(n * (n - 1) // 2, _pauli_term_bytes(n))
    coords = np.array(lattice_coordinates(n, d)).reshape(n, d)
    i, j = np.triu_indices(n, 1)  # the order of itertools.combinations
    squared = ((coords[i] - coords[j]) ** 2).sum(axis=1)
    # Python float powers, term by term, as pair_distance(...) ** -alpha
    coeffs = [math.sqrt(s) ** -alpha for s in squared.tolist()]
    sites = np.stack([i, j], axis=1)
    return PauliHamiltonian(n, _site_rows(n, sites, np.full(sites.shape, _Z), coeffs))


@dataclass(frozen=True)
class KLocalGaussianModel:
    """SYK-like k-local Gaussian ensemble.

    One term per size-k subset of sites (``gamma = C(n, k)`` terms); the
    Pauli string on each subset is drawn uniformly from {X,Y,Z}**k using
    the model seed, and each draw of the ensemble assigns i.i.d.
    N(0, sigma**2) coefficients with

        sigma**2 = J**2 (k-1)! / (k n**(k-1)).
    """

    n: int
    k: int
    j_coupling: float = 1.0
    seed: int = 0
    strings: tuple[str, ...] = field(init=False, repr=False)
    _planes: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValidationError("need 1 <= k <= n")
        if self.j_coupling <= 0:
            raise ValidationError("coupling J must be positive")
        _check_size(self.gamma, _pauli_term_bytes(self.n))
        subsets = itertools.combinations(range(self.n), self.k)
        sites = np.fromiter(itertools.chain.from_iterable(subsets), np.intp)
        sites = sites.reshape(-1, self.k)
        # One draw for every subset, row by row: the same picks as one draw
        # of size k per subset in turn.
        picks = np.random.default_rng(self.seed).integers(0, 3, size=sites.shape)
        codes = np.array([_X, _Y, _Z])[picks]
        rows = _site_rows(self.n, sites, codes, np.zeros(len(sites)))
        for plane in rows.x, rows.z:
            plane.flags.writeable = False  # shared by every Hamiltonian drawn
        object.__setattr__(self, "_planes", (rows.x, rows.z))
        object.__setattr__(self, "strings", tuple(_row_labels(self.n, rows.x, rows.z)))

    @property
    def gamma(self) -> int:
        return math.comb(self.n, self.k)

    @property
    def sigma(self) -> float:
        var = (
            self.j_coupling**2
            * math.factorial(self.k - 1)
            / (self.k * self.n ** (self.k - 1))
        )
        return math.sqrt(var)

    def bound_hamiltonian(self) -> PauliHamiltonian:
        """Deterministic Hamiltonian carrying the ensemble scale: every
        term has coefficient sigma, so its local norms are the b_gamma
        norms entering the random-Hamiltonian bounds."""
        return self._with_coeffs(np.full(self.gamma, self.sigma))

    def sample(self, seed) -> PauliHamiltonian:
        """Draw one Hamiltonian: coefficients i.i.d. N(0, sigma**2)."""
        rng = np.random.default_rng(seed)
        return self._with_coeffs(rng.standard_normal(self.gamma) * self.sigma)

    def _with_coeffs(self, coeffs: np.ndarray) -> PauliHamiltonian:
        return PauliHamiltonian(self.n, _Rows(*self._planes, coeffs.astype(complex)))


def _zxyz_blocks(m: int) -> tuple[range, range, range]:
    if m < 1:
        raise ValidationError("block size m must be >= 1")
    return range(m), range(m, 2 * m), range(2 * m, 3 * m)


def zxyz(m: int) -> PauliHamiltonian:
    """Two-group 2-local model on n = 3m qubits.

    Group A (first m**2 terms): Z_{s1} X_{s2} over blocks 1 x 2; group B
    (last m**2 terms): Y_{s2} Z_{s3} over blocks 2 x 3.  All
    coefficients 1.
    """
    s1, s2, s3 = (np.array(block) for block in _zxyz_blocks(m))
    _check_size(2 * m * m, _pauli_term_bytes(3 * m))
    group_a = np.stack([np.repeat(s1, m), np.tile(s2, m)], axis=1)
    group_b = np.stack([np.repeat(s2, m), np.tile(s3, m)], axis=1)
    sites = np.concatenate([group_a, group_b])
    codes = np.repeat([[_Z, _X], [_Y, _Z]], m * m, axis=0)
    return PauliHamiltonian(3 * m, _site_rows(3 * m, sites, codes, np.ones(2 * m * m)))


def zxyz_groups(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Term-index groups (A, B) of ``zxyz(m)`` for two-group schedules."""
    msq = m * m
    return tuple(range(msq)), tuple(range(msq, 2 * msq))


def fermi_hop(m: int) -> FermionHamiltonian:
    """Fermionic hopping analog of ``zxyz`` on n = 3m sites.

    Group A: the Hermitian hopping pair a+_{s1} a_{s2} + a+_{s2} a_{s1}
    over blocks 1 x 2; group B: the same between blocks 2 and 3.
    4 m**2 monomials in total.
    """
    s1, s2, s3 = _zxyz_blocks(m)
    _check_size(4 * m * m, _FERMION_TERM_BYTES)
    n = 3 * m
    terms = []
    for pairs in ((s1, s2), (s2, s3)):
        left, right = pairs
        for a in left:
            for b in right:
                terms.append(
                    FermionTerm(((a, CREATE), (b, ANNIHILATE)), 1.0)
                )
                terms.append(
                    FermionTerm(((b, CREATE), (a, ANNIHILATE)), 1.0)
                )
    return FermionHamiltonian(n, tuple(terms))


def fermi_hop_groups(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Term-index groups (A, B) of ``fermi_hop(m)``."""
    half = 2 * m * m
    return tuple(range(half)), tuple(range(half, 4 * m * m))
