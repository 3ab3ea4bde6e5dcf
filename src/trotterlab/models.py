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

from .errors import ValidationError, check_budget, check_finite
from .pauli import (
    ANNIHILATE,
    CREATE,
    MERGE_TOL,
    FermionHamiltonian,
    FermionTerm,
    PauliHamiltonian,
    _row_labels,
    _Rows,
    _site_rows,
)

_X, _Z, _Y = 1, 2, 3  # letter codes x_bit + 2*z_bit

# Memory per term of a model and its JSON text.  Peaks of `trotterlab model`
# under tracemalloc: about 300 + 4.5 n bytes per Pauli term on n sites, and
# 2.4-2.9 KiB per fermionic term.
_FERMION_TERM_BYTES = 3072

__all__ = [
    "chain_heisenberg",
    "power_law",
    "KLocalGaussianModel",
    "zxyz",
    "zxyz_groups",
    "fermi_hop",
    "fermi_hop_groups",
]


def _pauli_term_bytes(n: int) -> int:
    return 600 + 5 * n


def chain_heisenberg(n: int) -> PauliHamiltonian:
    """Open Heisenberg chain: sum over bonds of XX + YY + ZZ, unit couplings."""
    if n < 2:
        raise ValidationError("chain requires n >= 2")
    bonds = 3 * (n - 1)
    check_budget(bonds * _pauli_term_bytes(n), f"a model of {bonds} terms needs")
    bond = np.repeat(np.arange(n - 1), 3)
    letters = np.tile([_X, _Y, _Z], n - 1)
    sites = np.stack([bond, bond + 1], axis=1)
    codes = np.stack([letters, letters], axis=1)
    return PauliHamiltonian(n, _site_rows(n, sites, codes, np.ones(len(bond))))


def _lattice_side(n: int, d: int) -> int:
    if n < 1 or d < 1:
        raise ValidationError(f"need n >= 1 sites and dimension d >= 1, got n={n}, d={d}")
    # The integer d-th root by Newton's method from above: exact at every n,
    # where a floating-point root misjudges perfect powers above 2**53.
    side = 1 if n.bit_length() <= d else 1 << -(-n.bit_length() // d)
    while (step := ((d - 1) * side + n // side ** (d - 1)) // d) < side:
        side = step
    if side**d != n:
        raise ValidationError(f"n={n} is not a d={d} lattice (need n = side**d)")
    return side


def _lattice_pairs(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Site pairs i < j of the d-D lattice in ``np.triu_indices`` order
    (that of ``itertools.combinations``), with exact squared distances; the
    sites are numbered in row-major order of their lattice coordinates."""
    coords = np.indices((_lattice_side(n, d),) * d).reshape(d, n).T
    i, j = np.triu_indices(n, 1)
    squared = np.zeros(i.shape, dtype=np.int64)
    for axis in coords.T:  # one axis at a time: no (pairs, d) temporaries
        step = axis[i]
        step -= axis[j]
        step *= step
        squared += step
    return i, j, squared


def _lattice_displacements(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact squared length and site-pair count of each nonzero absolute displacement."""
    side = _lattice_side(n, d)
    steps = np.arange(side)
    axis_count = np.where(steps > 0, 2 * (side - steps), side)  # L - a pairs, 2 signs if a > 0
    squared, count = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for _ in range(d):  # one axis at a time: outer sums and products
        squared = np.add.outer(squared, steps * steps).ravel()
        count = np.multiply.outer(count, axis_count).ravel()
    return squared[1:], count[1:] // 2


def power_law(n: int, d: int, alpha: float) -> PauliHamiltonian:
    """All-pair ZZ interactions with coefficient dist**-alpha on a d-D lattice."""
    check_finite("alpha", alpha)  # a NaN power is dropped by the merge
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    _lattice_side(n, d)
    pairs = n * (n - 1) // 2
    check_budget(pairs * _pauli_term_bytes(n), f"a model of {pairs} terms needs")
    i, j, squared = _lattice_pairs(n, d)
    # Python float powers, term by term, of the exact distances
    coeffs = [math.sqrt(s) ** -alpha for s in squared.tolist()]
    if coeffs and min(coeffs) < MERGE_TOL:  # the merge would drop it
        raise ValidationError(
            f"the pair coefficient {min(coeffs)!r} is below {MERGE_TOL} in magnitude "
            "and would be dropped; lower alpha or n"
        )
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
        if self.seed < 0:
            raise ValidationError(f"the seed must be a non-negative integer, got {self.seed}")
        check_budget(
            self.gamma * _pauli_term_bytes(self.n), f"a model of {self.gamma} terms needs"
        )
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
    check_budget(2 * m * m * _pauli_term_bytes(3 * m), f"a model of {2 * m * m} terms needs")
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
    check_budget(4 * m * m * _FERMION_TERM_BYTES, f"a model of {4 * m * m} terms needs")
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
