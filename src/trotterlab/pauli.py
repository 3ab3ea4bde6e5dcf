"""Exact symbolic algebra for n-qubit Pauli operators and fermionic monomials.

Pauli strings are stored in a symplectic bit-pair representation: an n-qubit
string is a pair of bitmasks (x_bits, z_bits) plus an integer ``phase`` giving
a power of i.  The canonical (phase-0) matrix of a string places, at each site
s, the factor I, X, Z, or Y according to the (x, z) bits at s, with site 0 the
leftmost tensor factor.  Formally

    matrix(P) = i**phase * (tensor over sites of the local I/X/Y/Z factors)
              = i**(phase + popcount(x & z)) * X^x Z^z.

Fermionic monomials (products of creation/annihilation/occupation factors) are
mapped to Pauli sums through the Jordan-Wigner encoding

    a_s = -(sigma^-)_s (x) prod_{j>s} Z_j,     sigma^- = (X - iY)/2,

so that a_s^dagger a_s = (I + Z_s)/2, i.e. the occupied single-site state is
the Z = +1 basis vector.  The occupation-shift factor is
O^eta = (1 - eta)|occ><occ| - eta|emp><emp| = ((1 - 2 eta)/2) I + Z/2.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import groupby
from operator import eq, itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    PartitionError,
    ValidationError,
    check_budget,
    check_finite,
)

MERGE_TOL = 1e-14
_HERMITICITY_TOL = 1e-12

_LABELS = "IXZY"  # index = x_bit + 2*z_bit

CREATE = "+"
ANNIHILATE = "-"
OCCUPATION = "z"
_FERMION_KINDS = (CREATE, ANNIHILATE, OCCUPATION)


def _bit_sites(bits: int) -> tuple[int, ...]:
    """Ascending positions of the set bits, in O(popcount) steps."""
    sites = []
    while bits:
        low = bits & -bits
        sites.append(low.bit_length() - 1)
        bits ^= low
    return tuple(sites)


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli string with an explicit power-of-i phase."""

    n: int
    x_bits: int
    z_bits: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValidationError(f"negative qubit count {self.n}")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValidationError("bit vector sets a site beyond the qubit count")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str, phase: int = 0) -> "PauliString":
        x, z, _ = _label_rows(len(label), [label], _label_lengths([label]), [0.0])
        return cls(len(label), *_row_ints(x), *_row_ints(z), phase)

    def label(self) -> str:
        words = _word_count(self.n)
        x, z = (_pack_ints([bits], words) for bits in (self.x_bits, self.z_bits))
        return _row_labels(self.n, x, z)[0]

    def support(self) -> tuple[int, ...]:
        """Ascending sites with a non-identity factor, in O(weight) steps."""
        return _bit_sites(self.x_bits | self.z_bits)

    @property
    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def key(self) -> tuple[int, int]:
        """Phase-independent identity of the string."""
        return (self.x_bits, self.z_bits)

    def with_phase(self, phase: int) -> "PauliString":
        return PauliString(self.n, self.x_bits, self.z_bits, phase)


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact group product: matrix(result) == matrix(p) @ matrix(q)."""
    if p.n != q.n:
        raise DimensionMismatchError(f"qubit counts differ: {p.n} vs {q.n}")
    # Each phase rides in as a unit coefficient i**phase and comes out as one.
    x, z, c = _products(_ingest(p.n, [(p, 1.0)]), _ingest(q.n, [(q, 1.0)]))
    return PauliString(p.n, *_row_ints(x), *_row_ints(z), _PHASES.tolist().index(c[0]))


@dataclass(frozen=True)
class PauliTerm:
    """A Pauli string with a complex coefficient; phase folded into the coefficient."""

    string: PauliString
    coeff: complex

    def __post_init__(self) -> None:
        if self.string.phase:
            folded = complex(self.coeff) * (1j ** self.string.phase)
            object.__setattr__(self, "string", self.string.with_phase(0))
            object.__setattr__(self, "coeff", folded)
        else:
            object.__setattr__(self, "coeff", complex(self.coeff))

    @property
    def n(self) -> int:
        return self.string.n

    @property
    def bound(self) -> float:
        """The term bound b_gamma = |coeff| (Pauli strings are unitary)."""
        return abs(self.coeff)

    def support(self) -> tuple[int, ...]:
        return self.string.support()

    def scaled(self, factor: complex) -> "PauliTerm":
        return PauliTerm(self.string, self.coeff * factor)


TermLike = Union[PauliTerm, tuple]

# ---------------------------------------------------------------------------
# The columnar table
# ---------------------------------------------------------------------------

_WORD = np.dtype("<u8")
# Bit planes are sized by n, so a qubit count must fit an array dimension.
_MAX_QUBITS = 2**32
# bytes.translate tables.  _LETTER_CODES maps each ASCII byte that is a Pauli
# letter to its x_bit + 2*z_bit code and every other byte to 4; _CODE_LETTERS
# maps the codes 0..3 back to the letters.
_LETTER_CODES = bytes(_LABELS.index(chr(b)) if chr(b) in _LABELS else 4 for b in range(256))
_CODE_LETTERS = _LABELS.encode("ascii").ljust(256, b"?")


class _Rows(NamedTuple):
    """Rows of a Pauli table, one per string.

    ``x`` and ``z`` are bit planes: (rows, words) arrays of little-endian
    64-bit words in which site s is bit s % 64 of word s // 64.  ``c`` holds
    the complex coefficients.
    """

    x: np.ndarray
    z: np.ndarray
    c: np.ndarray


def _word_count(n: int) -> int:
    """Words per row of a bit plane on n qubits (at least one, so that every
    row has a nonempty sort key)."""
    if n < 0:
        raise ValidationError(f"negative qubit count {n}")
    if n > _MAX_QUBITS:
        raise ValidationError(f"qubit count {n} is above the supported {_MAX_QUBITS}")
    return max(1, -(-n // 64))


def _pack_ints(masks: Sequence[int], words: int) -> np.ndarray:
    """Python-int bit masks (site s is bit s) as a bit plane."""
    data = b"".join(mask.to_bytes(8 * words, "little") for mask in masks)
    return np.frombuffer(data, _WORD).reshape(len(masks), words)


def _site_bits(plane: np.ndarray, n: int) -> np.ndarray:
    """A bit plane as a (rows, n) 0/1 site matrix."""
    return np.unpackbits(plane.view(np.uint8), axis=1, bitorder="little")[:, :n]


def _row_ints(plane: np.ndarray) -> list[int]:
    rows = plane.view(np.dtype((np.void, plane.itemsize * plane.shape[1]))).ravel().tolist()
    return [int.from_bytes(row, "little") for row in rows]


def _row_labels(n: int, x: np.ndarray, z: np.ndarray) -> list[str]:
    """The I/X/Y/Z label of every row."""
    if not n:
        return [""] * len(x)
    codes = _site_bits(x, n) + 2 * _site_bits(z, n)
    text = codes.tobytes().translate(_CODE_LETTERS).decode("ascii")
    return [text[i : i + n] for i in range(0, len(text), n)]


def _imaginary(c: np.ndarray) -> np.ndarray:
    """Which coefficients have a non-real part beyond the Hermiticity tolerance."""
    return np.abs(c.imag) > _HERMITICITY_TOL * np.fmax(1.0, np.abs(c.real))


_LABEL_BLOCK = 1 << 16  # label characters parsed per block by _label_rows


def _label_lengths(labels: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(len, labels), np.intp, len(labels))


def _label_rows(n: int, labels: Sequence[str], lengths: np.ndarray, coeffs) -> _Rows:
    """The rows of I/X/Y/Z labels whose lengths are ``lengths``, parsed
    about ``_LABEL_BLOCK`` characters at a time into the planes.

    The first label with a letter other than I/X/Y/Z or a length other than
    n raises; a label with both faults reports the letter.
    """
    words = _word_count(n)
    wrong = lengths != n
    size = int(wrong.argmax()) if wrong.any() else len(labels)
    x, z = (np.zeros((size, 8 * words), np.uint8) for _ in range(2))
    step = max(1, _LABEL_BLOCK // max(n, 1))
    end = min(size + 1, len(labels))  # through the first wrong-length label
    for start in range(0, end, step):
        stop = min(start + step, end)
        text = "".join(labels[start:stop])
        # One byte per character: "?" stands for every non-ASCII one.
        codes = np.frombuffer(text.encode("ascii", "replace").translate(_LETTER_CODES), np.uint8)
        foreign = codes > 3
        if foreign.any():
            pos = int(foreign.argmax())
            label = labels[start + pos // n] if pos < (size - start) * n else labels[size]
            raise ValidationError(f"invalid Pauli letter {text[pos]!r} in {label!r}")
        if stop > size:
            raise DimensionMismatchError(f"term on {len(labels[size])} qubits in a {n}-qubit sum")
        codes = codes.reshape(stop - start, n)
        for plane, bits in ((x, codes & 1), (z, codes >> 1)):
            plane[start:stop, : -(-n // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return _Rows(x.view(_WORD), z.view(_WORD), np.asarray(coeffs, dtype=complex))


def _site_rows(n: int, sites: np.ndarray, codes: np.ndarray, coeffs) -> _Rows:
    """The rows whose string r has letter code ``codes[r, j]`` (x_bit +
    2*z_bit) on site ``sites[r, j]`` and the identity elsewhere; the sites
    of a row are distinct and below n.

    Each column sets one bit per row in its word, so the work and memory are
    those of the planes themselves.
    """
    words = _word_count(n)
    x = np.zeros((len(sites), words), _WORD)
    z = np.zeros_like(x)
    row = np.arange(len(sites))
    word = sites >> 6
    bit = np.left_shift(np.uint64(1), (sites & 63).astype(np.uint64))
    codes = np.asarray(codes, np.uint64)
    for j in range(sites.shape[1]):
        x[row, word[:, j]] |= bit[:, j] * (codes[:, j] & 1)
        z[row, word[:, j]] |= bit[:, j] * (codes[:, j] >> 1)
    return _Rows(x, z, np.asarray(coeffs, dtype=complex))


def _ingest(n: int, items: Iterable[TermLike]) -> _Rows:
    """One row per item, with the string's phase folded into the coefficient.

    An item is a PauliTerm or a (string, coeff) pair whose string is a
    PauliString or an I/X/Y/Z label.
    """
    words = _word_count(n)
    xs, zs, cs = [], [], []
    for item in items:
        string, coeff = (item.string, item.coeff) if isinstance(item, PauliTerm) else item
        if isinstance(string, str):
            string = PauliString.from_label(string)
        phase = string.phase
        cs.append(complex(coeff) * (1j**phase) if phase else complex(coeff))
        if string.n != n:
            raise DimensionMismatchError(f"term on {string.n} qubits in a {n}-qubit sum")
        xs.append(string.x_bits)
        zs.append(string.z_bits)
    return _Rows(_pack_ints(xs, words), _pack_ints(zs, words), np.array(cs, dtype=complex))


def _merged(n: int, rows: _Rows, hermitian: bool) -> _Rows:
    """Rows with equal strings summed in first-occurrence order, sums of
    magnitude below ``MERGE_TOL`` dropped, and for a Hermitian table the
    real parts kept after checking that no imaginary part is left.

    A sum starts from the first coefficient and adds the others in
    occurrence order, so it is the same complex number, bit for bit and sign
    of zero included, as adding the Python numbers one by one.
    """
    x, z, c = rows
    starts = np.ones(len(c), bool)
    # One stable sort of the key words puts equal strings next to each other,
    # in occurrence order; a group's first row is its first occurrence.  A
    # table of fewer than two rows has nothing to merge: its key columns
    # alone would cost O(n) time.
    if len(c) > 1:
        columns = (*x.T, *z.T)
        order = np.lexsort(columns)
        starts[1:] = False
        for column in columns:
            ordered = column[order]
            starts[1:] |= ordered[1:] != ordered[:-1]
    if not starts.all():
        heads = order[starts]
        first = np.zeros(len(order), bool)
        first[heads] = True
        # A string's rank is that of its first occurrence among all first
        # occurrences.
        rank = np.cumsum(first) - 1
        rank[order] = rank[heads][np.cumsum(starts) - 1]
        del order  # before the gathers below, which set the peak memory
        later = ~first
        x, z, total = x[first], z[first], c[first]
        # inf and nan, as Python float addition gives them without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(total, rank[later], c[later])
        c = total
    kept = np.abs(c) >= MERGE_TOL
    if not kept.all():
        x, z, c = x[kept], z[kept], c[kept]
    if hermitian:
        imaginary = _imaginary(c)
        if imaginary.any():
            i = int(imaginary.argmax())
            label = _row_labels(n, x[i : i + 1], z[i : i + 1])[0]
            raise ValidationError(
                f"non-Hermitian total: term {label} has coefficient "
                f"{complex(c[i])} with non-real part"
            )
        c = c.real.astype(complex)
    return _Rows(x, z, c)


# i**k for k = 0..3: the factor that folds a phase of k into a coefficient.
_PHASES = np.array([1j**k for k in range(4)])


def _times(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p * q for complex arrays by Python's complex product, (ac - bd) + (ad +
    bc)i, each product rounded on its own (numpy's ``*`` may fuse them)."""
    p, q = np.asarray(p, complex), np.asarray(q, complex)
    out = np.empty(np.broadcast_shapes(p.shape, q.shape), complex)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python: inf and nan
        np.subtract(p.real * q.real, p.imag * q.imag, out=out.real)
        np.add(p.real * q.imag, p.imag * q.real, out=out.imag)
    return out


def _scaled(c: np.ndarray, factor) -> np.ndarray:
    """c * factor by Python's own ``*`` per coefficient: its rules for every factor type."""
    return np.array([coeff * factor for coeff in c.tolist()], dtype=complex)


def _popcount(plane: np.ndarray) -> np.ndarray:
    """Set bits per row of a bit plane (the last axis holds a row's words)."""
    return np.bitwise_count(plane).sum(axis=-1, dtype=np.intp)


def _anticommuting(a: _Rows, b: _Rows) -> np.ndarray:
    """Whether a_i and b_i anticommute (odd symplectic product), row by row;
    the planes broadcast as numpy arrays do."""
    return _popcount((a.x & b.z) ^ (a.z & b.x)) % 2 == 1


def _check_products(rows: int, words: int) -> None:
    """Refuse ``rows`` products of ``words``-word planes over the memory budget.

    The products and their merge traced 83-94, 110-131 and 163-196 bytes
    per row at 1, 2 and 4 plane words.
    """
    check_budget(rows * (64 + 40 * words), f"{rows} Pauli products need")


def _products(a: _Rows, b: _Rows) -> _Rows:
    """The products a_i b_i row by row, broadcast as numpy arrays are and
    flattened: rows shaped (m, 1, words), (1, n, words) give every a_i b_j.

    The planes are XORed.  A row's string is i**|x & z| X^x Z^z, |.| a
    popcount, and Z^z X^x' = (-1)**|z & x'| X^x' Z^z, so the product of the
    two strings is i**k times the string of the XORed planes, with

        k = |x_i & z_i| + |x'_i & z'_i| + 2 |z_i & x'_i| - |x & z|  (mod 4).

    Each coefficient is ``_times`` of the two factors', then of i**k where
    k is nonzero, as ``_ingest`` folds a string's phase.  The rows are
    counted against the memory budget before any is formed.
    """
    _check_products(math.prod(np.broadcast_shapes(a.c.shape, b.c.shape)), a.x.shape[-1])
    x, z = a.x ^ b.x, a.z ^ b.z
    k = _popcount(a.x & a.z) + _popcount(b.x & b.z) + 2 * _popcount(a.z & b.x)
    k = ((k - _popcount(x & z)) % 4).ravel()
    c = _times(a.c, b.c).ravel()
    turned = np.flatnonzero(k)
    c[turned] = _times(c[turned], _PHASES[k[turned]])
    words = x.shape[-1]
    return _Rows(x.reshape(-1, words), z.reshape(-1, words), c)


def _take(rows: _Rows, index: np.ndarray) -> _Rows:
    """The rows at ``index``, in that order."""
    return _Rows(*(plane[index] for plane in rows))


_PAIR_BLOCK = 1 << 16  # candidate pairs per block of leading_error's anticommutation mask


def _anticommuting_pairs(rows: _Rows) -> tuple[np.ndarray, np.ndarray]:
    """(later, earlier): every pair b > a whose strings anticommute, by b
    and then a, masked about ``_PAIR_BLOCK`` candidate pairs at a time.
    Before each block, the kept pairs (each a product row to come) and the
    block's candidates (63-379 bytes each traced at 1-8 plane words, under
    a row's figure) are checked against the budget as product rows."""
    x, z, gamma, kept, pairs = rows.x, rows.z, len(rows.c), 0, [np.empty((2, 0), np.intp)]
    step = max(1, _PAIR_BLOCK // max(gamma, 1))
    for start in range(0, gamma, step):
        stop = min(start + step, gamma)
        # Terms start <= b < stop, each against every a < b.
        _check_products(kept + (start + stop - 1) * (stop - start) // 2, x.shape[-1])
        b, a = np.tril_indices(stop - start, start - 1, gamma)
        b += start
        hit = _anticommuting(_Rows(x[b], z[b], None), _Rows(x[a], z[a], None))
        pairs.append(np.stack([b[hit], a[hit]]))
        kept += pairs[-1].shape[1]
    return tuple(np.concatenate(pairs, axis=1))


class PauliSum:
    """An ordered, merged sum of Pauli terms with complex coefficients.

    Terms are merged on ingest by string identity; the surviving order is the
    first occurrence of each string.  Coefficients with magnitude below
    ``MERGE_TOL`` after merging are dropped.  Instances are immutable.

    The sum is stored as a columnar table: x and z bit planes with one row
    per string, and a coefficient array.  ``terms`` and ``coeff_map()`` build
    Python objects from it on request.
    """

    __slots__ = ("_n", "_rows", "_terms")
    _hermitian = False

    def __init__(self, n: int, terms: Iterable[TermLike] = ()):
        rows = terms if isinstance(terms, _Rows) else _ingest(n, terms)
        self._n = n
        self._rows = _merged(n, rows, self._hermitian)
        self._terms: Optional[tuple[PauliTerm, ...]] = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def terms(self) -> tuple[PauliTerm, ...]:
        if self._terms is None:
            n = self._n
            x, z, c = self._rows
            self._terms = tuple(
                PauliTerm(PauliString(n, xb, zb), coeff)
                for xb, zb, coeff in zip(_row_ints(x), _row_ints(z), c.tolist())
            )
        return self._terms

    @property
    def gamma(self) -> int:
        """Number of (merged) terms."""
        return len(self._rows.c)

    @property
    def k(self) -> int:
        """Maximum support size over terms (0 for the empty sum)."""
        support = _site_bits(self._rows.x | self._rows.z, self._n)
        return int(support.sum(axis=1).max(initial=0))

    @property
    def is_empty(self) -> bool:
        return not len(self._rows.c)

    def coeff_map(self) -> dict[tuple[int, int], complex]:
        return {t.string.key(): t.coeff for t in self.terms}

    def _incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(term, site, magnitude): the term and site index of every
        non-identity factor, term-major with sites ascending, and |coeff|
        per term."""
        x, z, c = self._rows
        support = _site_bits(x | z, self._n).view(bool)
        term, site = np.divmod(np.flatnonzero(support), max(1, self._n))
        return term, site, np.abs(c)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check_same_n(other)
        return PauliSum(self._n, _Rows(*map(np.concatenate, zip(self._rows, other._rows))))

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex) -> "PauliSum":
        x, z, c = self._rows
        # The same products as PauliTerm.scaled.
        return PauliSum(self._n, _Rows(x, z, _scaled(c, factor)))

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            self._check_same_n(other)
            a = _Rows(*(plane[:, None] for plane in self._rows))
            b = _Rows(*(plane[None] for plane in other._rows))
            return PauliSum(self._n, _products(a, b))
        return self.scaled(other)

    def __rmul__(self, factor: complex) -> "PauliSum":
        return self.scaled(factor)

    def adjoint(self) -> "PauliSum":
        x, z, c = self._rows
        return PauliSum(self._n, _Rows(x, z, c.conj()))

    def _at(self, index: Sequence[int]) -> "PauliSum":
        """The sum of the terms at ``index``, in that order."""
        return PauliSum(self._n, _take(self._rows, np.asarray(index, np.intp)))

    def _check_same_n(self, other: "PauliSum") -> None:
        if self._n != other._n:
            raise DimensionMismatchError(
                f"qubit counts differ: {self._n} vs {other._n}"
            )

    def to_hamiltonian(self) -> "PauliHamiltonian":
        return PauliHamiltonian(self._n, self._rows)

    def __repr__(self) -> str:
        n = self._n
        x, z, c = (plane[:6] for plane in self._rows)
        body = " + ".join(
            f"({coeff:g})*{label or 'I'}"
            for label, coeff in zip(_row_labels(n, x, z), c.tolist())
        )
        more = " + ..." if self.gamma > 6 else ""
        return f"PauliSum(n={n}, {body or '0'}{more})"


def commutator_sum(a: PauliSum, b: PauliSum) -> PauliSum:
    """[a, b] as an exact symbolic Pauli sum."""
    return a * b - b * a


class PauliHamiltonian(PauliSum):
    """A PauliSum with verified real coefficients (a Hermitian operator).

    Term order gamma = 1..Gamma is the ingestion order (first occurrence after
    merging); it is part of the artifact because product-formula error depends
    on it.
    """

    __slots__ = ()
    _hermitian = True

    @classmethod
    def from_labels(cls, n: int, pairs: Iterable[tuple[str, float]]) -> "PauliHamiltonian":
        pairs = list(pairs)
        labels = [label for label, _ in pairs]
        return cls(n, _label_rows(n, labels, _label_lengths(labels), [coeff for _, coeff in pairs]))


@dataclass(frozen=True)
class LeadingError:
    """Leading product-formula error: S(tau) - e^{i H tau} = operator * tau**time_power + O(tau**(time_power+1))."""

    operator: PauliSum
    time_power: int


def leading_error(
    hamiltonian: PauliHamiltonian,
    order: int,
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> LeadingError:
    """Leading-order error operator of the order-1 or order-2 step.

    Order 1 (forward sweep, term 1 applied first):
        L = -(1/2) sum_{g' > g} [H_{g'}, H_g],    error = L tau^2 + O(tau^3).

    Order 2 requires ``groups``: a partition of term indices into exactly two
    groups (A, B), with A the inner block and B the outer block of the
    symmetric step e^{i tau B/2} e^{i tau A} e^{i tau B/2}.  Then
        L = -(i/12) ( [A,[A,B]] - (1/2) [B,[B,A]] ),   error = L tau^3 + ...
    This equals the built per-term schedule's leading error whenever the terms
    inside each group commute with one another.
    """
    n, rows = hamiltonian.n, hamiltonian._rows
    if order == 1:
        # [H_b, H_a] = 2 H_b H_a where the strings anticommute, else 0.
        later, earlier = _anticommuting_pairs(rows)  # checks their products' rows
        doubled = rows._replace(c=_scaled(rows.c, 2.0))
        x, z, c = _products(_take(doubled, later), _take(rows, earlier))
        return LeadingError(PauliSum(n, _Rows(x, z, _scaled(c, -0.5))), 2)
    if order == 2:
        if groups is None or len(groups) != 2:
            raise PartitionError(
                "order-2 leading error requires a partition into exactly two groups"
            )
        idx_a, idx_b = (tuple(g) for g in groups)
        if sorted(idx_a + idx_b) != list(range(hamiltonian.gamma)):
            raise PartitionError(
                "groups must partition the term indices 0..Gamma-1 disjointly"
            )
        a_sum, b_sum = hamiltonian._at(idx_a), hamiltonian._at(idx_b)
        aab = commutator_sum(a_sum, commutator_sum(a_sum, b_sum))
        bba = commutator_sum(b_sum, commutator_sum(b_sum, a_sum))
        op = (aab - bba.scaled(0.5)).scaled(-1j / 12.0)
        return LeadingError(op, 3)
    raise ValidationError(f"leading_error supports orders 1 and 2, got {order}")


# ---------------------------------------------------------------------------
# Fermions
# ---------------------------------------------------------------------------


def _site_operator(letter: int, kinds: Sequence[str], eta: float, coeff: complex = 1 + 0j) -> dict:
    """coeff sigma_letter times the factors of ``kinds`` on one site, left to
    right, as {letter code (x_bit + 2*z_bit): coefficient}, where a^dagger =
    -(X + iY)/2, a = -(X - iY)/2 and O^eta = ((1 - 2 eta)/2) I + Z/2; a
    creation or annihilation also puts Z on every site above.  Each step
    runs what a product of Pauli tables runs on the site's rows: equal
    letters sum in first-occurrence order, and exact zeros drop.
    """
    own = {CREATE: {1: -0.5, 3: -0.5j}, ANNIHILATE: {1: -0.5, 3: 0.5j},
           OCCUPATION: {0: (1.0 - 2.0 * eta) / 2.0, 2: 0.5}}
    entries = {letter: coeff}
    for kind in kinds:
        product: dict[int, complex] = {}
        for a, ca in entries.items():
            for b, cb in filter(itemgetter(1), own[kind].items()):
                # sigma_a sigma_b = i**k sigma_(a ^ b), by the popcount rule of _products
                k = ((a & a >> 1) + (b & b >> 1) + 2 * (a >> 1 & b) - ((a ^ b) & (a ^ b) >> 1)) % 4
                c = ca * cb * 1j**k if k else ca * cb
                product[a ^ b] = product[a ^ b] + c if a ^ b in product else c
        entries = {code: c for code, c in product.items() if c}
    return entries


@dataclass(frozen=True)
class FermionTerm:
    """An ordered product of fermionic factors with a real coefficient.

    ``factors`` is a sequence of (site, kind) with kind one of "+" (create),
    "-" (annihilate), "z" (occupation shift O^eta).  On construction, factors
    are stably sorted site-ascending; each transposition of two
    creation/annihilation factors flips the sign of the coefficient
    (occupation factors commute with everything off their own site, and
    same-site factor order is preserved by the stable sort).  A term in which,
    on one site, a creation follows a creation or an annihilation follows an
    annihilation, with only occupation factors between, is the zero operator;
    it is kept with a ``is_zero`` flag and a RuntimeWarning.  (a^dagger a
    a^dagger = a^dagger is not zero.  A term that vanishes because eta is 0 or
    1 is not flagged: its bound is 0 and its image empty by arithmetic.)
    """

    factors: tuple[tuple[int, str], ...]
    coeff: float
    eta: float = 0.5
    is_zero: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("coeff", "eta"):
            check_finite(name, float(getattr(self, name)))
        factors = tuple((int(s), str(kind)) for s, kind in self.factors)
        for site, kind in factors:
            if kind not in _FERMION_KINDS:
                raise ValidationError(f"invalid fermionic factor kind {kind!r}")
            if site < 0:
                raise ValidationError(f"negative site index {site}")
        # Stable sort by site; sign = parity of inversions among non-"z"
        # factors (distinct sites anticommute; "z" commutes with everything
        # it crosses, since same-site order is never changed).
        ladder_sites = [s for s, kind in factors if kind != OCCUPATION]
        inversions = sum(a > b for j, b in enumerate(ladder_sites) for a in ladder_sites[:j])
        ordered = tuple(sorted(factors, key=itemgetter(0)))
        object.__setattr__(self, "factors", ordered)
        object.__setattr__(self, "coeff", float(self.coeff) * (-1.0 if inversions % 2 else 1.0))
        # Occupation factors are diagonal, so the term is zero when two
        # ladder factors next to each other on one site are alike: a^dagger
        # O^eta a^dagger = 0.
        ladder = [f for f in ordered if f[1] != OCCUPATION]
        zero = any(map(eq, ladder, ladder[1:]))
        if zero:
            warnings.warn(
                "fermionic term with a repeated creation/annihilation on one "
                "site is the zero operator",
                RuntimeWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "is_zero", zero)

    @property
    def is_number_preserving(self) -> bool:
        return sum((kind == CREATE) - (kind == ANNIHILATE) for _, kind in self.factors) == 0

    def support(self) -> tuple[int, ...]:
        return tuple(sorted({s for s, _ in self.factors}))

    def _site_table(self) -> list[tuple[int, int, tuple[str, ...], dict[int, complex]]]:
        """(site, letter, kinds, ``_site_operator(letter, kinds, eta)``) for
        each site of the factors, ascending; letter is Z when an odd number of
        creation/annihilation factors sit below, for their Z strings, else I."""
        table, odd = [], 0
        for site, factors in groupby(self.factors, itemgetter(0)):
            kinds = tuple(kind for _, kind in factors)
            table.append((site, 2 * odd, kinds, _site_operator(2 * odd, kinds, self.eta)))
            odd ^= sum(kind != OCCUPATION for kind in kinds) % 2
        return table

    @property
    def bound(self) -> float:
        """The term bound b_gamma = ||Jordan-Wigner image||, exactly: |coeff|
        times each site operator's norm, sites ascending, as the Z strings are
        unitary.  A site operator has at most one nonzero entry per row and
        column, so its norm is its largest entry, |c_I +- c_Z| or |c_X +- i c_Y|."""
        bound = abs(self.coeff)
        for *_, operator in self._site_table():
            c_i, c_x, c_z, c_y = map(operator.get, range(4), [0j] * 4)
            bound *= max(abs(c_i + c_z), abs(c_i - c_z), abs(c_x + 1j * c_y), abs(c_x - 1j * c_y))
        return bound

    @property
    def has_ladder(self) -> bool:
        """True iff the term contains any creation/annihilation factor."""
        return any(kind != OCCUPATION for _, kind in self.factors)


class FermionHamiltonian:
    """An ordered sequence of fermionic terms on n sites."""

    __slots__ = ("_n", "_terms")

    def __init__(self, n: int, terms: Iterable[FermionTerm] = ()):
        terms = tuple(terms)
        if any(t.factors and t.factors[-1][0] >= n for t in terms):  # factors sort by site
            raise DimensionMismatchError(f"term touches site beyond the {n}-site system")
        self._n, self._terms = n, terms

    @property
    def n(self) -> int:
        return self._n

    @property
    def terms(self) -> tuple[FermionTerm, ...]:
        return self._terms

    @property
    def gamma(self) -> int:
        return len(self._terms)

    @property
    def k(self) -> int:
        return max((len(t.support()) for t in self._terms), default=0)

    @property
    def is_number_preserving(self) -> bool:
        return all(t.is_number_preserving for t in self._terms)

    def to_pauli(self) -> PauliHamiltonian:
        """Jordan-Wigner image as a validated Hermitian Pauli Hamiltonian."""
        return jordan_wigner(self).to_hamiltonian()


def jordan_wigner(
    obj: Union[FermionTerm, FermionHamiltonian], n: Optional[int] = None
) -> PauliSum:
    """Exact Jordan-Wigner Pauli expansion of a fermionic term or Hamiltonian.

    For a single FermionTerm the site count ``n`` must be supplied.  The
    result has complex coefficients in general; Hermitian inputs (terms paired
    with their adjoints) yield real coefficients, recoverable via
    ``.to_hamiltonian()``.

    A term's strings are the Kronecker product of its site operators, lower
    sites outermost, with Z on the other sites above an odd number of
    creation/annihilation factors.  Each string's coefficient runs through
    the next site's factors from its own value, as multiplying the factors'
    n-qubit images would, bit for bit.  All strings merge once.
    """
    if not isinstance(obj, FermionHamiltonian):
        if n is None:
            raise ValidationError("jordan_wigner of a single term requires the site count n")
        obj = FermionHamiltonian(n, (obj,))
    n, words = obj.n, _word_count(obj.n)
    tables = [t._site_table() for t in obj.terms]
    # Python rows, packed and merged, traced 338-345, 376, 454 bytes at 1, 2, 4 words
    rows = sum(math.prod(len(operator) for *_, operator in table) for table in tables)
    check_budget(rows * (320 + 40 * words), f"{rows} Jordan-Wigner strings need")
    strings = []
    for t, table in zip(obj.terms, tables):
        z_bits = 0
        for site, kind in t.factors:  # Z on every site above a ladder factor
            z_bits ^= (1 << n) - (2 << site) if kind != OCCUPATION else 0
        image = [(0, z_bits & ~sum(1 << site for site, *_ in table), complex(t.coeff))]
        for site, letter, kinds, _ in table:
            image = [
                (x | (code & 1) << site, z | (code >> 1) << site, e)
                for x, z, c in image
                for code, e in _site_operator(letter, kinds, t.eta, c).items()
            ]
        strings += image
    xs, zs, cs = zip(*strings) if strings else ((), (), ())
    return PauliSum(n, _Rows(*(_pack_ints(m, words) for m in (xs, zs)), np.array(cs, complex)))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _real_terms(h: PauliSum) -> tuple[list[str], list[float]]:
    """The label and real coefficient of every term, read off the planes.

    Only real-coefficient sums are serializable (the interchange format
    describes Hamiltonians).
    """
    x, z, c = h._rows
    if _imaginary(c).any():
        raise ValidationError("cannot serialize a sum with non-real coefficients")
    return _row_labels(h.n, x, z), c.real.tolist()


def pauli_to_json(h: PauliSum) -> dict:
    """{"n": int, "terms": [{"pauli": "<I/X/Y/Z label>", "coeff": float}]}."""
    labels, coeffs = _real_terms(h)
    return {"n": h.n, "terms": [{"pauli": p, "coeff": c} for p, c in zip(labels, coeffs)]}


def _pauli_json_text(h: PauliSum) -> str:
    """``pauli_to_json(h)`` as the CLI writes JSON, indented by two spaces with
    sorted keys and a final newline, composed in one pass over the terms.

    A finite coefficient is written as its repr, as ``json.dumps`` does; the
    CLI writes a non-finite one as its repr in a JSON string.
    """
    labels, coeffs = _real_terms(h)
    values = list(map(repr, coeffs))
    for i in np.flatnonzero(~np.isfinite(h._rows.c.real)).tolist():
        values[i] = f'"{values[i]}"'
    terms = ",\n".join(
        f'    {{\n      "coeff": {value},\n      "pauli": "{label}"\n    }}'
        for value, label in zip(values, labels)
    )
    body = f"[\n{terms}\n  ]" if labels else "[]"
    return f'{{\n  "n": {h.n},\n  "terms": {body}\n}}\n'


def _number_type(kind: type) -> bool:
    """Whether values of a type are JSON numbers: ints or floats, not bools."""
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _json_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be a JSON integer, got {json.dumps(value, default=repr)}")
    return value


def _json_float(value, what: str) -> float:
    if not _number_type(type(value)):
        raise TypeError(f"{what} must be a finite JSON number, got {json.dumps(value, default=repr)}")
    return float(value)


def _json_columns(terms) -> tuple[list[str], np.ndarray]:
    """The labels and coefficients of JSON terms, read column by column.

    A malformed term raises the error that reading the terms one by one
    would raise first.
    """
    try:
        labels = list(map(str, map(itemgetter("pauli"), terms)))
        coeffs = list(map(itemgetter("coeff"), terms))
        if not all(map(_number_type, set(map(type, coeffs)))):
            raise TypeError
        return labels, np.fromiter(coeffs, float, len(coeffs))
    except (KeyError, TypeError, ValueError, OverflowError):
        for t in terms:
            str(t["pauli"]), _json_float(t["coeff"], '"coeff"')
        raise


def pauli_from_json(data: Mapping) -> PauliHamiltonian:
    try:
        n = _json_int(data["n"], '"n"')
        labels, coeffs = _json_columns(data["terms"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed Hamiltonian JSON: {exc}") from exc
    # JSON parsers accept NaN and Infinity; PauliSum would drop a NaN term,
    # and the merge would drop a nonzero one below MERGE_TOL.
    lengths = _label_lengths(labels)
    tiny = (np.abs(coeffs) < MERGE_TOL) & (coeffs != 0)
    faulty = (lengths != n) | ~np.isfinite(coeffs) | tiny
    if faulty.any():
        i = int(faulty.argmax())
        label, coeff = labels[i], float(coeffs[i])
        if len(label) != n:
            raise ValidationError(
                f"pauli label {label!r} has length {len(label)}, expected n={n}"
            )
        if not math.isfinite(coeff):
            raise ValidationError(f"coefficient {coeff!r} of {label!r} is not finite")
        raise ValidationError(
            f"coefficient {coeff!r} of {label!r} is below {MERGE_TOL} in magnitude "
            "and would be dropped; rescale the Hamiltonian"
        )
    return PauliHamiltonian(n, _label_rows(n, labels, lengths, coeffs))


def fermion_to_json(f: FermionHamiltonian) -> dict:
    """{"n": int, "eta": float, "terms": [{"ops": [["+",s]...], "coeff": c}]}.

    Site indices are 0-based.  All terms must share one eta.
    """
    etas = {t.eta for t in f.terms}
    if len(etas) > 1:
        raise ValidationError("terms with differing eta cannot share one JSON document")
    eta = etas.pop() if etas else 0.5
    return {
        "n": f.n,
        "eta": eta,
        "terms": [
            {"ops": [[kind, site] for site, kind in t.factors], "coeff": t.coeff}
            for t in f.terms
        ],
    }


def fermion_from_json(data: Mapping) -> FermionHamiltonian:
    try:
        n = _json_int(data["n"], '"n"')
        eta = _json_float(data.get("eta", 0.5), '"eta"')
        raw = [
            (
                tuple((_json_int(site, "site index"), str(kind)) for kind, site in t["ops"]),
                _json_float(t["coeff"], '"coeff"'),
            )
            for t in data["terms"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed fermionic JSON: {exc}") from exc
    for value in (eta, *(coeff for _, coeff in raw)):
        if not math.isfinite(value):
            raise ValidationError(f"fermionic JSON holds the non-finite value {value!r}")
    terms = []
    for factors, coeff in raw:
        t = FermionTerm(factors, coeff, eta)
        # The merge would drop a string below MERGE_TOL: |coeff| times each site's least |c|.
        least = [min(map(abs, operator.values()), default=0.0) for *_, operator in t._site_table()]
        size = math.prod(least, start=abs(coeff))
        if coeff and all(least) and size < MERGE_TOL:
            ops = json.dumps([[kind, site] for site, kind in factors])
            raise ValidationError(
                f"coefficient {coeff!r} of the term {ops} gives Jordan-Wigner strings of "
                f"magnitude {size!r}, below {MERGE_TOL}, which would be dropped; "
                "rescale the Hamiltonian"
            )
        terms.append(t)
    return FermionHamiltonian(n, terms)
