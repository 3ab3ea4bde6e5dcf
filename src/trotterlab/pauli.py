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
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, PartitionError, ValidationError

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
        x, z, _ = _label_rows(len(label), [label], [0.0])
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
    x = p.x_bits ^ q.x_bits
    z = p.z_bits ^ q.z_bits
    phase = (
        p.phase
        + q.phase
        + (p.x_bits & p.z_bits).bit_count()
        + (q.x_bits & q.z_bits).bit_count()
        + 2 * (p.z_bits & q.x_bits).bit_count()
        - (x & z).bit_count()
    ) % 4
    return PauliString(p.n, x, z, phase)


def strings_commute(p: PauliString, q: PauliString) -> bool:
    """True iff the strings commute (symplectic inner product is even)."""
    if p.n != q.n:
        raise DimensionMismatchError(f"qubit counts differ: {p.n} vs {q.n}")
    return ((p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()) % 2 == 0


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


def commutator(p: PauliTerm, q: PauliTerm) -> Optional[PauliTerm]:
    """[p, q], which is either zero (None) or exactly 2 p q for Pauli terms."""
    if p.n != q.n:
        raise DimensionMismatchError(f"qubit counts differ: {p.n} vs {q.n}")
    if strings_commute(p.string, q.string):
        return None
    prod = multiply(p.string, q.string)
    return PauliTerm(prod, 2.0 * p.coeff * q.coeff)


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
    row has a nonempty byte key)."""
    if n < 0:
        raise ValidationError(f"negative qubit count {n}")
    if n > _MAX_QUBITS:
        raise ValidationError(f"qubit count {n} is above the supported {_MAX_QUBITS}")
    return max(1, -(-n // 64))


def _pack_sites(bits: np.ndarray, words: int) -> np.ndarray:
    """A (rows, n) 0/1 site matrix as a bit plane."""
    packed = np.zeros((len(bits), 8 * words), np.uint8)
    packed[:, : -(-bits.shape[1] // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(_WORD)


def _pack_ints(masks: Sequence[int], words: int) -> np.ndarray:
    """Python-int bit masks (site s is bit s) as a bit plane."""
    data = b"".join(mask.to_bytes(8 * words, "little") for mask in masks)
    return np.frombuffer(data, _WORD).reshape(len(masks), words)


def _site_bits(plane: np.ndarray, n: int) -> np.ndarray:
    """A bit plane as a (rows, n) 0/1 site matrix."""
    return np.unpackbits(plane.view(np.uint8), axis=1, bitorder="little")[:, :n]


def _row_bytes(plane: np.ndarray) -> list[bytes]:
    return plane.view(np.dtype((np.void, plane.itemsize * plane.shape[1]))).ravel().tolist()


def _row_ints(plane: np.ndarray) -> list[int]:
    return [int.from_bytes(row, "little") for row in _row_bytes(plane)]


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


def _label_rows(n: int, labels: Sequence[str], coeffs) -> _Rows:
    """The rows of I/X/Y/Z labels, all parsed in one pass.

    The first label with a letter other than I/X/Y/Z or a length other than
    n raises; a label with both faults reports the letter.
    """
    words = _word_count(n)
    wrong = np.fromiter(map(len, labels), np.intp, len(labels)) != n
    size = int(wrong.argmax()) if wrong.any() else len(labels)
    text = "".join(labels[: size + 1])
    # One byte per character: "?" stands for every non-ASCII one.
    codes = np.frombuffer(text.encode("ascii", "replace").translate(_LETTER_CODES), np.uint8)
    foreign = codes > 3
    if foreign.any():
        pos = int(foreign.argmax())
        label = labels[pos // n] if pos < size * n else labels[size]
        raise ValidationError(f"invalid Pauli letter {text[pos]!r} in {label!r}")
    if size < len(labels):
        raise DimensionMismatchError(f"term on {len(labels[size])} qubits in a {n}-qubit sum")
    codes = codes.reshape(size, n)
    return _Rows(
        _pack_sites(codes & 1, words),
        _pack_sites(codes >> 1, words),
        np.asarray(coeffs, dtype=complex),
    )


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
    keys = _row_bytes(np.concatenate([x, z], axis=1))
    if len(set(keys)) < len(keys):
        index: dict[bytes, int] = {}
        rank = np.array([index.setdefault(key, len(index)) for key in keys], np.intp)
        first = np.ones(len(keys), bool)
        first[1:] = rank[1:] > np.maximum.accumulate(rank)[:-1]
        later = ~first
        x, z, total = x[first], z[first], c[first]
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
        # Python arithmetic per term, the same products as PauliTerm.scaled.
        scaled = np.array([coeff * factor for coeff in c.tolist()], dtype=complex)
        return PauliSum(self._n, _Rows(x, z, scaled))

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            self._check_same_n(other)
            products = (
                (multiply(a.string, b.string), a.coeff * b.coeff)
                for a in self.terms
                for b in other.terms
            )
            return PauliSum(self._n, products)
        return self.scaled(other)

    def __rmul__(self, factor: complex) -> "PauliSum":
        return self.scaled(factor)

    def adjoint(self) -> "PauliSum":
        x, z, c = self._rows
        return PauliSum(self._n, _Rows(x, z, c.conj()))

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
        return cls(n, _label_rows(n, labels, [coeff for _, coeff in pairs]))

    def bounds(self) -> tuple[float, ...]:
        """Per-term bounds b_gamma = |coeff|."""
        return tuple(np.abs(self._rows.c).tolist())


def adjoint_apply(h_term: PauliTerm, operator: PauliSum) -> PauliSum:
    """The adjoint action i[h_term, operator], merged.

    For a Hermitian term and Hermitian operator the result is Hermitian; call
    ``.to_hamiltonian()`` to re-validate if needed.
    """
    if h_term.n != operator.n:
        raise DimensionMismatchError(
            f"qubit counts differ: {h_term.n} vs {operator.n}"
        )
    out = []
    for t in operator.terms:
        c = commutator(h_term, t)
        if c is not None:
            out.append(c.scaled(1j))
    return PauliSum(operator.n, out)


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
    n = hamiltonian.n
    terms = hamiltonian.terms
    if order == 1:
        acc: list[PauliTerm] = []
        for b in range(len(terms)):
            for a in range(b):
                c = commutator(terms[b], terms[a])
                if c is not None:
                    acc.append(c.scaled(-0.5))
        return LeadingError(PauliSum(n, acc), 2)
    if order == 2:
        if groups is None or len(groups) != 2:
            raise PartitionError(
                "order-2 leading error requires a partition into exactly two groups"
            )
        idx_a, idx_b = (tuple(g) for g in groups)
        seen = sorted(idx_a + idx_b)
        if seen != list(range(len(terms))):
            raise PartitionError(
                "groups must partition the term indices 0..Gamma-1 disjointly"
            )
        a_sum = PauliSum(n, (terms[i] for i in idx_a))
        b_sum = PauliSum(n, (terms[i] for i in idx_b))
        aab = commutator_sum(a_sum, commutator_sum(a_sum, b_sum))
        bba = commutator_sum(b_sum, commutator_sum(b_sum, a_sum))
        op = (aab - bba.scaled(0.5)).scaled(-1j / 12.0)
        return LeadingError(op, 3)
    raise ValidationError(f"leading_error supports orders 1 and 2, got {order}")


# ---------------------------------------------------------------------------
# Fermions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FermionTerm:
    """An ordered product of fermionic factors with a real coefficient.

    ``factors`` is a sequence of (site, kind) with kind one of "+" (create),
    "-" (annihilate), "z" (occupation shift O^eta).  On construction, factors
    are stably sorted site-ascending; each transposition of two
    creation/annihilation factors flips the sign of the coefficient
    (occupation factors commute with everything off their own site, and
    same-site factor order is preserved by the stable sort).  A term with two
    creations or two annihilations on one site is the zero operator; it is
    kept with a ``is_zero`` flag and a RuntimeWarning.
    """

    factors: tuple[tuple[int, str], ...]
    coeff: float
    eta: float = 0.5
    is_zero: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("coeff", "eta"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
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
        inversions = 0
        for j in range(len(ladder_sites)):
            for i in range(j):
                if ladder_sites[i] > ladder_sites[j]:
                    inversions += 1
        ordered = tuple(sorted(factors, key=lambda f: f[0]))
        sign = -1.0 if inversions % 2 else 1.0
        object.__setattr__(self, "factors", ordered)
        object.__setattr__(self, "coeff", float(self.coeff) * sign)
        # Zero detection: >= 2 creations or >= 2 annihilations on one site.
        per_site: dict[tuple[int, str], int] = {}
        zero = False
        for site, kind in ordered:
            if kind == OCCUPATION:
                continue
            per_site[(site, kind)] = per_site.get((site, kind), 0) + 1
            if per_site[(site, kind)] > 1:
                zero = True
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
        creates = sum(1 for _, kind in self.factors if kind == CREATE)
        annihilates = sum(1 for _, kind in self.factors if kind == ANNIHILATE)
        return creates == annihilates

    def support(self) -> tuple[int, ...]:
        return tuple(sorted({s for s, _ in self.factors}))

    @property
    def has_ladder(self) -> bool:
        """True iff the term contains any creation/annihilation factor."""
        return any(kind != OCCUPATION for _, kind in self.factors)

    def adjoint(self) -> "FermionTerm":
        flipped = []
        for site, kind in reversed(self.factors):
            if kind == CREATE:
                flipped.append((site, ANNIHILATE))
            elif kind == ANNIHILATE:
                flipped.append((site, CREATE))
            else:
                flipped.append((site, kind))
        return FermionTerm(tuple(flipped), self.coeff, self.eta)


class FermionHamiltonian:
    """An ordered sequence of fermionic terms on n sites."""

    __slots__ = ("_n", "_terms")

    def __init__(self, n: int, terms: Iterable[FermionTerm] = ()):
        terms = tuple(terms)
        for t in terms:
            if t.factors and max(s for s, _ in t.factors) >= n:
                raise DimensionMismatchError(
                    f"term touches site beyond the {n}-site system"
                )
        self._n = n
        self._terms = terms

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


def _jw_factor(n: int, site: int, kind: str, eta: float) -> PauliSum:
    """Jordan-Wigner image of a single fermionic factor as a 2-term Pauli sum."""
    if site >= n:
        raise DimensionMismatchError(f"site {site} outside {n}-site system")
    string_z = 0
    for j in range(site + 1, n):
        string_z |= 1 << j
    if kind == OCCUPATION:
        ident = PauliString.identity(n)
        z_here = PauliString(n, 0, 1 << site)
        return PauliSum(n, [(ident, (1.0 - 2.0 * eta) / 2.0), (z_here, 0.5)])
    x_str = PauliString(n, 1 << site, string_z)
    y_str = PauliString(n, 1 << site, string_z | (1 << site))
    if kind == CREATE:
        # a^dagger = -((X + iY)/2) (x) Z-string
        return PauliSum(n, [(x_str, -0.5), (y_str, -0.5j)])
    # a = -((X - iY)/2) (x) Z-string
    return PauliSum(n, [(x_str, -0.5), (y_str, 0.5j)])


def jordan_wigner(
    obj: Union[FermionTerm, FermionHamiltonian], n: Optional[int] = None
) -> PauliSum:
    """Exact Jordan-Wigner Pauli expansion of a fermionic term or Hamiltonian.

    For a single FermionTerm the site count ``n`` must be supplied.  The
    result has complex coefficients in general; Hermitian inputs (terms paired
    with their adjoints) yield real coefficients, recoverable via
    ``.to_hamiltonian()``.
    """
    if isinstance(obj, FermionHamiltonian):
        total = PauliSum(obj.n)
        for term in obj.terms:
            total = total + jordan_wigner(term, obj.n)
        return total
    if n is None:
        raise ValidationError("jordan_wigner of a single term requires the site count n")
    if obj.is_zero:
        return PauliSum(n)
    acc = PauliSum(n, [(PauliString.identity(n), obj.coeff)])
    for site, kind in obj.factors:
        acc = acc * _jw_factor(n, site, kind, obj.eta)
    return acc


def fermion_term_site_matrices(term: FermionTerm, n: int):
    """Per-site 2x2 matrices whose tensor product (up to the tracked phase)
    equals the Jordan-Wigner image of the term divided by its coefficient.

    Every fermionic monomial maps to a single tensor product of per-site 2x2
    factors (each factor of the monomial contributes its own site matrix and
    Z factors on higher sites), so the spectral norm of the image is the
    product of the 2x2 spectral norms.  Only sites in the term's support can
    carry a non-unitary factor; all others are powers of Z.
    """
    return _jw_site_products(term, range(n))


def _jw_site_products(term: FermionTerm, sites: Iterable[int]):
    """The per-site factor products of ``fermion_term_site_matrices`` on
    ``sites`` only; each site's product is formed in the same order."""
    sig_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sig_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sig_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    lower = (sig_x - 1j * sig_y) / 2.0  # |empty><occupied|
    raise_ = (sig_x + 1j * sig_y) / 2.0

    site_mats = {s: eye.copy() for s in sites}
    for site, kind in term.factors:
        if kind == OCCUPATION:
            local = ((1.0 - 2.0 * term.eta) / 2.0) * eye + 0.5 * sig_z
            site_mats[site] = site_mats[site] @ local
        else:
            local = raise_ if kind == CREATE else lower
            site_mats[site] = site_mats[site] @ -local
            for j in site_mats:
                if j > site:
                    site_mats[j] = site_mats[j] @ sig_z
    return site_mats


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
    # JSON parsers accept NaN and Infinity; PauliSum would drop a NaN term.
    faulty = (np.fromiter(map(len, labels), np.intp, len(labels)) != n) | ~np.isfinite(coeffs)
    if faulty.any():
        i = int(faulty.argmax())
        label, coeff = labels[i], float(coeffs[i])
        if len(label) != n:
            raise ValidationError(
                f"pauli label {label!r} has length {len(label)}, expected n={n}"
            )
        raise ValidationError(f"coefficient {coeff!r} of {label!r} is not finite")
    return PauliHamiltonian(n, _label_rows(n, labels, coeffs))


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
    return FermionHamiltonian(n, (FermionTerm(factors, coeff, eta) for factors, coeff in raw))
