"""The local norm family ||H||_{(c),q} and the derived step-constant factors.

For a Hamiltonian H = sum_gamma H_gamma with per-term bounds
b_gamma >= ||H_gamma||, the family is

    ||H||_{(c),2} = sqrt( max_{|S_c| = c} sum_{gamma : S_c subset Supp(H_gamma)} b_gamma^2 ),
    ||H||_{(c),1} =       max_{|S_c| = c} sum_{gamma : S_c subset Supp(H_gamma)} b_gamma,

with c = 0 the global (max-free) sum.  Both are nonincreasing in c and the
2-norm never exceeds the 1-norm.  The derived constants are

    lambda(k)      = (2^{k/2+1}/(k-1)!) * sum_{j=1}^{k} (2^{j/2}/(k-j)!) ||H||_{(j),2},
    lambda'(k)     = 2 * sum_{j=1}^{k} C(k,j) sqrt(20)^j sqrt( ||H||_{(j),1} ||H||_{(0),1} / j! ),
    lambda_ferm(k) = lambda(k) + (2^{k/2+1}/(k-1)!) (1/k!) ||H_ladder||_{(0),2},

where H_ladder keeps only the fermionic terms containing at least one
creation or annihilation factor.  Per-term bounds: |coeff| for Pauli terms
(strings are unitary); for fermionic terms, |coeff| times the product of the
spectral norms of the per-site 2x2 Jordan-Wigner factor products (exact,
since every fermionic monomial maps to a single tensor product).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ResourceCapError, ValidationError
from .pauli import FermionHamiltonian, PauliHamiltonian, _jw_site_products

AnyHamiltonian = Union[PauliHamiltonian, FermionHamiltonian]

# Memory the subset sums of one c may take.  Measured, the kernel peaks at
# about 40 (c + 1) bytes per (term, subset) incidence.
_SUBSET_BYTES = 1 << 30


@dataclass(frozen=True)
class NormProfile:
    """All local norms and derived constants of one Hamiltonian."""

    gamma: int
    k: int
    norms: dict[tuple[int, int], float]  # (c, q) -> value, q in {1, 2}
    lambda_k: float
    lambda_prime_k: float
    lambda_ferm_k: Optional[float] = None
    ferm_zero_two: Optional[float] = None
    bounds: tuple[float, ...] = field(default=(), repr=False)

    def norm(self, c: int, q: int) -> float:
        return self.norms[(c, q)]


class _TermData(NamedTuple):
    """Supports and bounds of the terms of a Hamiltonian.

    ``term`` and ``site`` list every (term, site) pair of a support,
    term-major with sites ascending; ``bound`` holds b_gamma and ``weight``
    the support size per term, and ``k`` the largest support size.
    """

    term: np.ndarray
    site: np.ndarray
    bound: np.ndarray
    weight: np.ndarray
    k: int


def _term_data(h: AnyHamiltonian) -> _TermData:
    if isinstance(h, PauliHamiltonian):
        term, site, bound = h._incidence()
    elif isinstance(h, FermionHamiltonian):
        supports = [t.support() for t in h.terms]
        term = np.repeat(np.arange(len(supports)), [len(s) for s in supports])
        site = np.fromiter(chain.from_iterable(supports), np.intp)
        bound = np.array([fermion_term_bound(t, h.n) for t in h.terms], dtype=float)
    else:
        raise TypeError(f"unsupported Hamiltonian type {type(h).__name__}")
    weight = np.bincount(term, minlength=len(bound))
    return _TermData(term, site, bound, weight, int(weight.max(initial=0)))


def fermion_term_bound(term, n: int) -> float:
    """b_gamma = |coeff| * prod_s ||M_s|| over the per-site JW factor products.

    Zero terms (repeated same-site ladder factors) have bound 0.
    """
    if term.is_zero:
        return 0.0
    bound = abs(term.coeff)
    support = term.support()
    mats = _jw_site_products(term, support)
    for site in support:
        bound *= float(np.linalg.norm(mats[site], 2))
    return bound


def _sequential_sum(values: np.ndarray):
    """values[0] + values[1] + ... added left to right, each sum rounded, as a
    loop over the floats adds them; the int 0 when there are none."""
    if not len(values):
        return 0
    with np.errstate(over="ignore"):  # inf, as float addition overflows
        return float(np.add.accumulate(values)[-1])


def _norm_pair(data: _TermData, c: int) -> tuple[float, float]:
    """(||H||_{(c),1}, ||H||_{(c),2}) from one pass over the terms.

    For c >= 1 the subset sums are bincounts over the subset bin of each
    (term, subset) incidence.  bincount adds in input order, which is term
    order, so every sum is the same float as adding the bounds term by term.
    """
    b = data.bound
    with np.errstate(over="ignore"):  # inf, as in float arithmetic; norm_profile rejects it
        b2 = b * b
    if c == 0:
        return _sequential_sum(b), math.sqrt(_sequential_sum(b2))
    index, owner = _subset_incidence(data, c)
    if not len(index):
        return 0.0, 0.0
    ones = np.bincount(index, weights=b[owner])
    twos = np.bincount(index, weights=b2[owner])
    return float(ones.max()), math.sqrt(twos.max())


def _subset_incidence(data: _TermData, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(subset bin, term) of every c-subset of sites inside a support, in term
    order; the bins number the distinct site tuples that occur.

    Terms of one weight w share the C(w, c) index rows of their entries, so
    the work and memory are those of the subsets themselves.  The tuples are
    numbered one column at a time, code * s + next site, with s one more
    than the largest site (a fermionic document may give n far past every
    site); whenever the codes reach the incidence count m,
    np.unique renumbers them densely.  So every code stays below (m + 1) s,
    far from overflow under ``_SUBSET_BYTES``, and bincount allocates at
    most m bins.
    """
    weight = data.weight
    start = np.cumsum(weight) - weight  # each term's first incidence
    sites, owners = [np.empty((c, 0), np.intp)], [np.empty(0, np.intp)]
    for w in (np.flatnonzero(np.bincount(weight)[c:]) + c).tolist():
        terms = np.flatnonzero(weight == w)
        rows = np.fromiter(chain.from_iterable(combinations(range(w), c)), np.intp)
        # entry (column, row, term) indexes the column-th site of the row-th subset
        entry = rows.reshape(-1, c).T[:, :, None] + start[terms]
        sites.append(data.site[entry].reshape(c, -1))
        owners.append(np.tile(terms, entry.shape[1]))
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    code = np.zeros(len(order), np.intp)
    radix = int(data.site.max(initial=0)) + 1
    for column in np.concatenate(sites, axis=1):
        code = code * radix + column[order]
        if code.max(initial=0) >= len(code):
            code = np.unique(code, return_inverse=True)[1]
    return code, owner[order]


def _norm_table(data: _TermData, c_max: int) -> dict[tuple[int, int], float]:
    """(c, q) -> ||H||_{(c),q} for 0 <= c <= c_max, one loop over the terms per c.

    Norms above the locality k are 0; asking for them warns.  A weight-w
    term has C(w, c) subsets, so wide terms are refused before any is
    enumerated when the subsets would not fit in ``_SUBSET_BYTES``.
    """
    k = data.k
    if c_max > k:
        warnings.warn(
            f"local norm requested at c={c_max} above the Hamiltonian locality k={k}; "
            "no term support contains such a subset (returning 0)",
            RuntimeWarning,
            stacklevel=3,
        )
    counts = np.bincount(data.weight).tolist()  # terms per support size
    for c in range(1, c_max + 1):
        subsets = sum(count * math.comb(w, c) for w, count in enumerate(counts))
        if subsets * 40 * (c + 1) > _SUBSET_BYTES:
            raise ResourceCapError(
                f"the c={c} local norm sums over {subsets} site subsets of the term "
                f"supports, more than {_SUBSET_BYTES} bytes of memory allow"
            )
    norms: dict[tuple[int, int], float] = {}
    for c in range(c_max + 1):
        norms[(c, 1)], norms[(c, 2)] = _norm_pair(data, c)
    return norms


def local_norm(h: AnyHamiltonian, c: int, q: int) -> float:
    """||H||_{(c),q} by exact enumeration of size-c subsets of term supports.

    Only subsets occurring inside some term support are visited (never all
    C(n, c) subsets).  c greater than the locality k returns 0 with a warning.
    """
    if q not in (1, 2):
        raise ValueError(f"q must be 1 or 2, got {q}")
    if c < 0:
        raise ValueError(f"c must be nonnegative, got {c}")
    return _norm_table(_term_data(h), c)[(c, q)]


def _lambda(norms: dict[tuple[int, int], float], k: int) -> float:
    prefactor = 2.0 ** (k / 2.0 + 1.0) / math.factorial(k - 1)
    total = 0.0
    for j in range(1, k + 1):
        total += 2.0 ** (j / 2.0) / math.factorial(k - j) * norms[(j, 2)]
    return prefactor * total


def _lambda_prime(norms: dict[tuple[int, int], float], k: int) -> float:
    zero_one = norms[(0, 1)]
    total = 0.0
    for j in range(1, k + 1):
        total += (
            math.comb(k, j)
            * math.sqrt(20.0) ** j
            * math.sqrt(norms[(j, 1)] * zero_one / math.factorial(j))
        )
    return 2.0 * total


def _lambda_ferm(lam: float, ladder_zero_two: float, k: int) -> float:
    return lam + (
        2.0 ** (k / 2.0 + 1.0)
        / math.factorial(k - 1)
        / math.factorial(k)
        * ladder_zero_two
    )


def _ladder_zero_two(f: FermionHamiltonian, data: _TermData) -> float:
    """||H_ladder||_{(0),2} from the bounds of the terms with ladder factors."""
    bounds = data.bound.tolist()
    return math.sqrt(sum(b * b for t, b in zip(f.terms, bounds) if t.has_ladder))


def lambda_k(h: AnyHamiltonian, k: Optional[int] = None) -> float:
    """lambda(k) evaluated from the (c,2) norm family."""
    if k is None:
        k = h.k
    if k < 1:
        raise ValueError("lambda(k) requires locality k >= 1")
    return _lambda(_norm_table(_term_data(h), k), k)


def lambda_prime_k(h: AnyHamiltonian, k: Optional[int] = None) -> float:
    """lambda'(k) evaluated from the (c,1) norm family."""
    if k is None:
        k = h.k
    if k < 1:
        raise ValueError("lambda'(k) requires locality k >= 1")
    return _lambda_prime(_norm_table(_term_data(h), k), k)


def ladder_part(f: FermionHamiltonian) -> FermionHamiltonian:
    """The sub-Hamiltonian of terms containing creation/annihilation factors."""
    return FermionHamiltonian(f.n, (t for t in f.terms if t.has_ladder))


def lambda_ferm_k(f: FermionHamiltonian, k: Optional[int] = None) -> float:
    """lambda(k) plus the same-site-collision correction for fermions."""
    if not isinstance(f, FermionHamiltonian):
        raise TypeError("lambda_ferm requires a fermionic Hamiltonian")
    if not f.is_number_preserving:
        raise ValueError(
            "lambda_ferm is defined for particle-number-preserving Hamiltonians"
        )
    if k is None:
        k = f.k
    if k < 1:
        raise ValueError("lambda(k) requires locality k >= 1")
    data = _term_data(f)
    return _lambda_ferm(_lambda(_norm_table(data, k), k), _ladder_zero_two(f, data), k)


def norm_profile(h: AnyHamiltonian) -> NormProfile:
    """Compute every (c, q) norm for 0 <= c <= k plus the derived constants.

    The per-term data is built once; lambda, lambda' and lambda_ferm are read
    off the finished norm table.
    """
    data = _term_data(h)
    k = data.k
    norms = _norm_table(data, k)
    lam = _lambda(norms, k) if k >= 1 else 0.0
    lam_p = _lambda_prime(norms, k) if k >= 1 else 0.0
    lam_f = None
    ferm02 = None
    if isinstance(h, FermionHamiltonian):
        ferm02 = _ladder_zero_two(h, data)
        if h.is_number_preserving and k >= 1:
            lam_f = _lambda_ferm(lam, ferm02, k)
    values = (*norms.values(), lam, lam_p, lam_f or 0.0, ferm02 or 0.0)
    if not all(map(math.isfinite, values)):
        raise ValidationError(
            "the local norms overflow floating point; rescale the coefficients"
        )
    return NormProfile(
        gamma=h.gamma,
        k=k,
        norms=norms,
        lambda_k=lam,
        lambda_prime_k=lam_p,
        lambda_ferm_k=lam_f,
        ferm_zero_two=ferm02,
        bounds=tuple(data.bound.tolist()),
    )
