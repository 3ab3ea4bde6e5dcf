"""Unit tests for the symbolic Pauli/fermion algebra.

Every nontrivial identity is checked against an independent dense-matrix
oracle built directly from 2x2 numpy arrays inside this file (no reuse of the
package's own dense engine).
"""

import itertools
import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trotterlab.errors import (
    DimensionMismatchError,
    PartitionError,
    ResourceCapError,
    ValidationError,
)
from trotterlab.norms import _term_data
from trotterlab.pauli import (
    FermionHamiltonian,
    FermionTerm,
    PauliHamiltonian,
    PauliString,
    PauliSum,
    PauliTerm,
    commutator_sum,
    _anticommuting,
    MERGE_TOL,
    _Rows,
    _ingest,
    _pack_ints,
    fermion_from_json,
    fermion_to_json,
    jordan_wigner,
    leading_error,
    multiply,
    _pauli_json_text,
    pauli_from_json,
    pauli_to_json,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def dense(string: PauliString) -> np.ndarray:
    """Independent oracle: i^phase times the Kronecker product of the label."""
    out = np.array([[1.0 + 0.0j]])
    for ch in string.label():
        out = np.kron(out, MATS[ch])
    return (1j ** string.phase) * out


def dense_sum(s: PauliSum) -> np.ndarray:
    out = np.zeros((2**s.n, 2**s.n), dtype=complex)
    for t in s.terms:
        out = out + t.coeff * dense(t.string)
    return out


# ---------------------------------------------------------------------------
# PauliString basics
# ---------------------------------------------------------------------------


def test_label_round_trip():
    s = PauliString.from_label("IXYZ")
    assert s.label() == "IXYZ"
    assert s.support() == (1, 2, 3)
    assert s.weight == 3


def test_identity_properties():
    ident = PauliString.identity(3)
    assert ident.is_identity
    assert ident.support() == ()
    p = PauliString.from_label("XYZ")
    assert multiply(p, ident).key() == p.key()
    assert multiply(p, ident).phase == 0


def test_string_validation():
    with pytest.raises(ValidationError):
        PauliString(2, x_bits=0b100, z_bits=0)
    with pytest.raises(ValidationError):
        PauliString.from_label("XQ")


@st.composite
def wide_string(draw, max_n=300):
    n = draw(st.integers(min_value=0, max_value=max_n))
    x = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    z = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return PauliString(n, x, z)


@given(wide_string())
@settings(max_examples=200, deadline=None)
def test_support_matches_site_scan_oracle(s):
    bits = s.x_bits | s.z_bits
    assert s.support() == tuple(site for site in range(s.n) if (bits >> site) & 1)


@given(wide_string())
@settings(max_examples=200, deadline=None)
def test_label_matches_site_scan_oracle(s):
    letters = "IXZY"  # index x + 2 z
    expected = "".join(
        letters[((s.x_bits >> site) & 1) + 2 * ((s.z_bits >> site) & 1)]
        for site in range(s.n)
    )
    assert s.label() == expected


@given(wide_string())
@settings(max_examples=200, deadline=None)
def test_from_label_inverts_label(s):
    assert PauliString.from_label(s.label()) == s


def test_from_label_empty_label():
    assert PauliString.from_label("") == PauliString.identity(0)


@given(
    st.text(alphabet="IXYZ", max_size=40),
    # lowercase, digits, whitespace and non-ASCII letters (incl. a fullwidth X)
    st.sampled_from("ixyzq09 \t\nÄßαЖＸ"),
    st.text(alphabet="IXYZ", max_size=40),
    st.text(max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_from_label_rejects_foreign_letters(head, bad, tail, rest):
    label = head + bad + tail + rest
    with pytest.raises(ValidationError) as info:
        PauliString.from_label(label)
    assert str(info.value) == f"invalid Pauli letter {bad!r} in {label!r}"


def test_multiply_z_x_gives_iy():
    z = PauliString.from_label("Z")
    x = PauliString.from_label("X")
    r = multiply(z, x)
    assert r.label() == "Y"
    assert r.phase == 1
    np.testing.assert_allclose(dense(z) @ dense(x), dense(r), atol=1e-15)


def test_multiply_x_z_gives_minus_iy():
    r = multiply(PauliString.from_label("X"), PauliString.from_label("Z"))
    assert r.label() == "Y"
    assert r.phase == 3


def test_multiply_involution():
    x = PauliString.from_label("X")
    r = multiply(x, x)
    assert r.is_identity and r.phase == 0


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        multiply(PauliString.from_label("X"), PauliString.from_label("XX"))


@st.composite
def random_string(draw, n=3):
    label = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
    phase = draw(st.integers(min_value=0, max_value=3))
    return PauliString.from_label(label, phase)


@given(random_string(), random_string())
@settings(max_examples=200, deadline=None)
def test_multiply_matches_dense_oracle(p, q):
    r = multiply(p, q)
    np.testing.assert_allclose(dense(p) @ dense(q), dense(r), atol=1e-12)


@given(random_string(), random_string(), random_string())
@settings(max_examples=100, deadline=None)
def test_multiply_associative(p, q, r):
    left = multiply(multiply(p, q), r)
    right = multiply(p, multiply(q, r))
    assert left.key() == right.key() and left.phase == right.phase


@given(random_string(), random_string())
@settings(max_examples=200, deadline=None)
def test_commute_predicate_matches_dense(p, q):
    mp, mq = dense(p), dense(q)
    comm = mp @ mq - mq @ mp
    anticommute = _anticommuting(_ingest(p.n, [(p, 1.0)]), _ingest(q.n, [(q, 1.0)]))[0]
    assert (not anticommute) == bool(np.allclose(comm, 0, atol=1e-12))


# ---------------------------------------------------------------------------
# Terms, commutators, adjoint action
# ---------------------------------------------------------------------------


def test_term_phase_folding():
    s = PauliString.from_label("Y", phase=1)
    t = PauliTerm(s, 2.0)
    assert t.string.phase == 0
    assert t.coeff == 2.0j
    assert t.bound == 2.0


def test_commutator_examples():
    z1x2 = PauliSum(3, [("ZXI", 1.0)])
    y2z3 = PauliSum(3, [("IYZ", 1.0)])
    c = commutator_sum(z1x2, y2z3)
    # dense oracle: [Z1 X2, Y2 Z3] = 2i Z1 Z2 Z3
    assert c.coeff_map() == {PauliString.from_label("ZZZ").key(): 2.0j}
    a, b = dense_sum(z1x2), dense_sum(y2z3)
    np.testing.assert_allclose(a @ b - b @ a, dense_sum(c), atol=1e-12)


def test_commutator_none_cases():
    zz = PauliSum(2, [("ZZ", 1.0)])
    xx = PauliSum(2, [("XX", 1.0)])
    assert commutator_sum(zz, xx).is_empty  # anticommute on both sites => commute
    z = PauliSum(1, [("Z", 1.0)])
    assert commutator_sum(z, z).is_empty


@given(random_string(), random_string())
@settings(max_examples=150, deadline=None)
def test_commutator_support_and_value(p, q):
    sp, sq = PauliSum(3, [(p, 1.0)]), PauliSum(3, [(q, 1.0)])
    c = commutator_sum(sp, sq)
    mp, mq = dense_sum(sp), dense_sum(sq)
    expected = mp @ mq - mq @ mp
    np.testing.assert_allclose(dense_sum(c), expected, atol=1e-12)
    if not c.is_empty:
        (term,) = c.terms
        assert set(term.support()) <= set(p.support()) | set(q.support())
        # at least one site of the overlap stays occupied
        overlap = set(p.support()) & set(q.support())
        assert overlap & set(term.support() or p.support())


def test_adjoint_action_examples():
    """The adjoint action i[h, O] of a Hermitian term on a Hermitian sum."""
    z = PauliSum(1, [("Z", 1.0)])
    x_h = PauliHamiltonian.from_labels(1, [("X", 1.0)])
    out = commutator_sum(z, x_h).scaled(1j)
    assert out.coeff_map() == {PauliString.from_label("Y").key(): (-2 + 0j)}
    z_h = PauliHamiltonian.from_labels(1, [("Z", 1.0)])
    assert commutator_sum(z, z_h).scaled(1j).is_empty
    zx = PauliSum(3, [("ZXI", 1.0)])
    yz = PauliHamiltonian.from_labels(3, [("IYZ", 1.0)])
    out2 = commutator_sum(zx, yz).scaled(1j)
    assert out2.coeff_map() == {PauliString.from_label("ZZZ").key(): (-2 + 0j)}
    # i[H_g, O] of Hermitian inputs is Hermitian
    out2.to_hamiltonian()


# ---------------------------------------------------------------------------
# Sums and Hamiltonians
# ---------------------------------------------------------------------------


def test_merge_on_ingest_keeps_first_occurrence_order():
    h = PauliHamiltonian.from_labels(
        2, [("XI", 1.0), ("IZ", 2.0), ("XI", 0.5), ("ZZ", 1.0)]
    )
    assert [t.string.label() for t in h.terms] == ["XI", "IZ", "ZZ"]
    assert h.terms[0].coeff == 1.5
    assert h.gamma == 3
    assert h.k == 2


def test_merge_drops_cancelled_terms():
    s = PauliSum(1, [("X", 1.0), ("X", -1.0), ("Z", 0.5)])
    assert [t.string.label() for t in s.terms] == ["Z"]


def test_hamiltonian_rejects_complex_coefficients():
    with pytest.raises(ValidationError):
        PauliHamiltonian(1, [(PauliString.from_label("X"), 1.0j)])


def test_hamiltonian_accepts_phase_folded_real():
    # i * (phase-3 string) is real: i^3 * i = 1
    s = PauliString.from_label("Y", phase=3)
    h = PauliHamiltonian(1, [PauliTerm(s, 1.0j)])
    assert h.terms[0].coeff == 1.0


def _magnitude(c):
    """|c| as abs() gives it, but inf where abs() of a complex overflows."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


def _three_pass(cls, n, items):
    """The construction the merged table replaced, as an oracle: one
    PauliTerm per item, one per merged key, and for a Hamiltonian one more
    per key with the real coefficient."""
    merged, keepers = {}, {}
    for item in items:
        if isinstance(item, PauliTerm):
            term = item
        else:
            string, coeff = item
            if isinstance(string, str):
                string = PauliString.from_label(string)
            term = PauliTerm(string, coeff)
        if term.n != n:
            raise DimensionMismatchError(f"term on {term.n} qubits in a {n}-qubit sum")
        key = term.string.key()
        if key in merged:
            merged[key] += term.coeff
        else:
            merged[key] = term.coeff
            keepers[key] = term.string
    terms = tuple(PauliTerm(keepers[k], c) for k, c in merged.items() if _magnitude(c) >= 1e-14)
    if cls is PauliHamiltonian:
        cleaned = []
        for t in terms:
            if abs(t.coeff.imag) > 1e-12 * max(1.0, abs(t.coeff.real)):
                raise ValidationError(
                    f"non-Hermitian total: term {t.string.label()} has coefficient "
                    f"{t.coeff} with non-real part"
                )
            cleaned.append(PauliTerm(t.string, complex(t.coeff.real, 0.0)))
        terms = tuple(cleaned)
    return terms


def _outcome(build):
    """The terms with every coefficient bit visible (repr shows -0.0), or the error."""
    try:
        terms = build()
    except (ValidationError, DimensionMismatchError) as exc:
        return type(exc), str(exc)
    return [(t.string, repr(t.coeff.real), repr(t.coeff.imag)) for t in terms]


_COEFFS = st.sampled_from([1.0, -1.0, 0.5, -0.5, 1e-15, 0.0, -0.0, 1j, -1j]) | st.complex_numbers(
    max_magnitude=4.0
) | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def ingest_items(draw):
    """(n, items) with few distinct strings, so duplicates merge and cancel;
    now and then a label of the wrong length or with a foreign letter."""
    n = draw(st.integers(min_value=1, max_value=3))
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        size = draw(st.sampled_from([n] * 8 + [n - 1, n + 1]))
        label = draw(st.text(alphabet="IXYZ", min_size=size, max_size=size))
        if draw(st.integers(min_value=0, max_value=19)) == 0:
            label += draw(st.sampled_from("xq1 "))
        coeff = draw(_COEFFS)
        kind = draw(st.sampled_from(("label", "string", "term")))
        if kind == "label":
            items.append((label, coeff))
            continue
        try:
            string = PauliString.from_label(label, phase=draw(st.integers(0, 3)))
        except ValidationError:
            items.append((label, coeff))
            continue
        items.append(PauliTerm(string, coeff) if kind == "term" else (string, coeff))
    return n, items


@pytest.mark.parametrize("cls", [PauliSum, PauliHamiltonian])
@given(case=ingest_items())
@example(case=(1, [("I", 1e-14j)]))
# |c| of this merged coefficient rounds to the largest double, but abs() of
# the complex sum raises OverflowError.
@example(
    case=(1, [(PauliString(n=1, x_bits=0, z_bits=0, phase=1), 1.7976931348623157e308),
              ("I", 1.0), ("I", 1.8941775056029057e300)])
)
@settings(max_examples=300, deadline=None)
def test_ingest_matches_three_pass_oracle(cls, case):
    n, items = case
    expected = _outcome(lambda: _three_pass(cls, n, items))
    assert _outcome(lambda: cls(n, items).terms) == expected
    if isinstance(expected, list):
        built = cls(n, items)
        assert built.gamma == len(expected)
        assert built.coeff_map() == {t.string.key(): t.coeff for t in built.terms}
        assert built.k == max((t.string.weight for t in built.terms), default=0)
        if cls is PauliHamiltonian:
            assert _term_data(built).bound.tolist() == [abs(t.coeff) for t in built.terms]
            labels = [(t.string.label(), t.coeff.real) for t in built.terms]
            # Reading the labels back merges again, and drops a real part
            # below MERGE_TOL: a term kept for a sub-tolerance imaginary part
            # alone, such as ("I", 1e-14j), holds 0.0 after the projection.
            kept = [term for term in expected if abs(float(term[1])) >= 1e-14]
            assert _outcome(lambda: PauliHamiltonian.from_labels(n, labels).terms) == kept


@given(case=ingest_items(), factor=_COEFFS)
@settings(max_examples=200, deadline=None)
def test_sum_algebra_matches_term_wise_construction(case, factor):
    n, items = case
    try:
        a = PauliSum(n, items)
    except (ValidationError, DimensionMismatchError):
        return
    b = PauliSum(n, [("X" * n, 1.0), ("Z" * n, -0.5j)])
    cases = [
        (a + b, (*a.terms, *b.terms)),
        (a.scaled(factor), (t.scaled(factor) for t in a.terms)),
        (a.adjoint(), (PauliTerm(t.string, t.coeff.conjugate()) for t in a.terms)),
    ]
    for got, items_ in cases:
        assert _outcome(lambda: got.terms) == _outcome(lambda: _three_pass(PauliSum, n, items_))
    assert _outcome(lambda: a.to_hamiltonian().terms) == _outcome(
        lambda: _three_pass(PauliHamiltonian, n, a.terms)
    )


def _dict_ingest(data):
    """pauli_from_json as a per-term dictionary merge, the ingest the columnar
    table replaced, kept as its oracle: the same checks in the same order,
    then the terms as (label, repr of the real part, repr of the imaginary
    part)."""
    import math

    try:
        n = int(data["n"])
        pairs = [(str(t["pauli"]), float(t["coeff"])) for t in data["terms"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed Hamiltonian JSON: {exc}") from exc
    for label, coeff in pairs:
        if len(label) != n:
            raise ValidationError(
                f"pauli label {label!r} has length {len(label)}, expected n={n}"
            )
        if not math.isfinite(coeff):
            raise ValidationError(f"coefficient {coeff!r} of {label!r} is not finite")
        if 0 < abs(coeff) < 1e-14:
            raise ValidationError(
                f"coefficient {coeff!r} of {label!r} is below 1e-14 in magnitude "
                "and would be dropped; rescale the Hamiltonian"
            )
    if n < 0:
        raise ValidationError(f"negative qubit count {n}")
    merged = {}
    for label, coeff in pairs:
        foreign = [ch for ch in label if ch not in "IXYZ"]
        if foreign:
            raise ValidationError(f"invalid Pauli letter {foreign[0]!r} in {label!r}")
        merged[label] = merged[label] + complex(coeff) if label in merged else complex(coeff)
    return [
        (label, repr(c.real), repr(0.0))
        for label, c in merged.items()
        if abs(c) >= 1e-14
    ]


_FOREIGN = st.sampled_from("ixyz01 9\u00e9\u0416\u00a0\U0001f600")
_JSON_COEFFS = st.sampled_from([1.0, -1.0, 0.5, 0.0, -0.0, 1e-15, -1e-15, 3e-14]) | st.floats(
    min_value=-4.0, max_value=4.0
)


@st.composite
def pauli_documents(draw, repeats):
    """Pauli JSON documents with distinct labels (repeats=False) or with
    repeated, cancelling and sub-tolerance keys (repeats=True); now and then a
    label of the wrong length, a foreign letter at any position or a
    non-finite coefficient."""
    n = draw(st.integers(min_value=0, max_value=4))
    labels = draw(
        st.lists(
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
            max_size=8,
            unique=not repeats,
        )
    )
    if repeats and labels:
        labels += draw(st.lists(st.sampled_from(labels), min_size=1, max_size=8))
        labels = draw(st.permutations(labels))
    terms = []
    for label in labels:
        fault = draw(st.integers(min_value=0, max_value=29))
        if fault == 0:
            label = label + draw(st.sampled_from(["I", "XX"])) if draw(st.booleans()) else label[:-1]
        elif fault == 1 and label:
            pos = draw(st.integers(min_value=0, max_value=len(label) - 1))
            label = label[:pos] + draw(_FOREIGN) + label[pos + 1 :]
        coeff = draw(_JSON_COEFFS)
        if fault == 2:
            coeff = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        terms.append({"pauli": label, "coeff": coeff})
        if repeats and draw(st.integers(min_value=0, max_value=3)) == 0:
            terms.append({"pauli": label, "coeff": -coeff})  # cancels to (signed) zero
    return json.loads(json.dumps({"n": n, "terms": terms}))


def _caught(build):
    try:
        return build()
    except (ValidationError, DimensionMismatchError) as exc:
        return type(exc), str(exc)


def _check_json_ingest(repeats, data):
    doc = data.draw(pauli_documents(repeats))
    labels = [t["pauli"] for t in doc["terms"]]
    assume((len(set(labels)) < len(labels)) == repeats)
    got = _caught(
        lambda: [
            (t.string.label(), repr(t.coeff.real), repr(t.coeff.imag))
            for t in pauli_from_json(doc).terms
        ]
    )
    assert got == _caught(lambda: _dict_ingest(doc))


@pytest.mark.parametrize("repeats", [False, True], ids=["distinct-keys", "repeated-keys"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_columnar_json_ingest_matches_dict_oracle(repeats, data):
    """Distinct keys take the merge's fast path, repeated keys the summing one."""
    _check_json_ingest(repeats, data)


@pytest.mark.parametrize("block", [1, 5])
@pytest.mark.parametrize("repeats", [False, True], ids=["distinct-keys", "repeated-keys"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_blocked_json_ingest_matches_dict_oracle(repeats, block, data):
    # A document parses as one block below 2**16 characters; blocks of a
    # few characters put faults and repeats in later blocks.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("trotterlab.pauli._LABEL_BLOCK", block)
        _check_json_ingest(repeats, data)


def _label_loop(n, pairs):
    """from_labels as a loop over the labels, kept as the oracle of the
    blocked parse: the first label with a foreign letter or the wrong length
    raises, the letter first."""
    strings = []
    for label, coeff in pairs:
        foreign = [ch for ch in label if ch not in "IXYZ"]
        if foreign:
            raise ValidationError(f"invalid Pauli letter {foreign[0]!r} in {label!r}")
        if len(label) != n:
            raise DimensionMismatchError(f"term on {len(label)} qubits in a {n}-qubit sum")
        x = sum(1 << s for s, ch in enumerate(label) if ch in "XY")
        z = sum(1 << s for s, ch in enumerate(label) if ch in "ZY")
        strings.append((PauliString(n, x, z), coeff))
    return PauliHamiltonian(n, strings)


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_blocked_label_parse_matches_the_label_loop(block, data):
    doc = data.draw(pauli_documents(repeats=True))
    pairs = [(t["pauli"], t["coeff"]) for t in doc["terms"]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("trotterlab.pauli._LABEL_BLOCK", block)
        got = _caught(lambda: _bits(PauliHamiltonian.from_labels(doc["n"], pairs)))
    assert got == _caught(lambda: _bits(_label_loop(doc["n"], pairs)))


@pytest.mark.parametrize("block", [1, 3, 1 << 16])
@pytest.mark.parametrize(
    "labels",
    [
        ["XY", "ZZ", "IZ", "XaZ", "Yb"],
        ["XY", "ZZ", "IZ", "XZZ", "Ya"],
        ["XY", "ZZ", "Ia", "XZZ", "YY"],
        ["XY", "ZZ", "IZ", "X\u00e9", "YY"],
        ["XY", "ZZ", "IZ", "\U0001f600", "YY"],
    ],
    ids=[
        "letter-in-wrong-length",
        "length-before-later-letter",
        "letter-before-length",
        "non-ascii-letter",
        "non-ascii-in-short-label",
    ],
)
def test_blocked_label_parse_keeps_the_fault_precedence(block, labels):
    pairs = [(label, 1.0 + i) for i, label in enumerate(labels)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("trotterlab.pauli._LABEL_BLOCK", block)
        got = _caught(lambda: PauliHamiltonian.from_labels(2, pairs))
    assert got == _caught(lambda: _label_loop(2, pairs))


def test_negative_qubit_count_is_rejected():
    # Without terms, no PauliString checks n; the CLI planned an empty
    # Hamiltonian on -1 qubits and exited 0.
    with pytest.raises(ValidationError, match="negative qubit count -1"):
        PauliSum(-1)
    with pytest.raises(ValidationError, match="negative qubit count -1"):
        pauli_from_json({"n": -1, "terms": []})
    with pytest.raises(ValidationError, match="negative qubit count -1"):
        PauliString(-1, 0, 0)


@pytest.mark.parametrize("combine", [PauliSum.__add__, PauliSum.__mul__])
def test_sums_on_different_qubit_counts_do_not_combine(combine):
    a = PauliSum(2, [(PauliString.from_label("XX"), 1.0)])
    b = PauliSum(3, [(PauliString.from_label("ZZZ"), 1.0)])
    with pytest.raises(DimensionMismatchError, match="qubit counts differ: 2 vs 3"):
        combine(a, b)


@pytest.fixture
def built_terms(monkeypatch):
    """Every PauliTerm constructed while the test runs."""
    built = []
    original = PauliTerm.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PauliTerm, "__post_init__", counting)
    return built


def test_planner_path_builds_no_pauli_terms(built_terms):
    from trotterlab.models import chain_heisenberg
    from trotterlab.norms import norm_profile

    doc = pauli_to_json(chain_heisenberg(8))
    profile = norm_profile(pauli_from_json(doc))
    assert profile.gamma == 21
    assert built_terms == []


def test_commutator_experiments_build_no_pauli_terms(built_terms):
    from trotterlab.lab import fermi_optimality_experiment, optimality_experiment
    from trotterlab.models import zxyz, zxyz_groups

    assert optimality_experiment(2, 1).norm2_matches
    assert optimality_experiment(2, 2).norm2_matches
    assert fermi_optimality_experiment(2).first_norm2 > 0
    h = zxyz(2)
    assert commutator_sum(h, h * h).is_empty
    assert leading_error(h, 1).operator.gamma == 8
    assert not leading_error(h, 2, groups=zxyz_groups(2)).operator.is_empty
    assert built_terms == []


def test_sum_product_matches_dense():
    a = PauliSum(2, [("XI", 1.0), ("ZZ", 0.5j)])
    b = PauliSum(2, [("YI", 2.0), ("IX", -1.0)])
    np.testing.assert_allclose(
        dense_sum(a * b), dense_sum(a) @ dense_sum(b), atol=1e-12
    )
    np.testing.assert_allclose(
        dense_sum(commutator_sum(a, b)),
        dense_sum(a) @ dense_sum(b) - dense_sum(b) @ dense_sum(a),
        atol=1e-12,
    )


def test_scaling_by_a_non_number_raises():
    a = PauliSum(1, [("X", 1.0)])
    for factor in ("2", None, a, Decimal("2")):
        with pytest.raises(TypeError):
            a.scaled(factor)
    with pytest.raises(TypeError):
        a * "2"


@pytest.mark.parametrize(
    "factor", [2, -0.5, 1j, -1j / 12.0, np.float64(0.5), np.array(2.0), Fraction(1, 3), True]
)
def test_scaling_takes_python_products_bit_for_bit(factor):
    # Python multiplies a complex by a real its own way (widened to complex
    # before 3.14, part by part from 3.14 on); scaling follows the running
    # interpreter, signed zeros included.
    a = PauliSum(2, [("XI", complex(-0.0, 1.5)), ("ZZ", complex(2.0, -0.0)), ("YX", -3.0 + 0.25j)])
    assert _bits(a.scaled(factor)) == _bits(_term_scaled(a, factor))
    assert _bits(factor * a) == _bits(a.scaled(factor))


def test_sum_adjoint_matches_dense():
    a = PauliSum(2, [("XY", 1.0 + 2.0j), ("ZI", -0.5j)])
    np.testing.assert_allclose(dense_sum(a.adjoint()), dense_sum(a).conj().T, atol=1e-14)


# ---------------------------------------------------------------------------
# Products on the bit planes, against the per-term loops they replaced
# ---------------------------------------------------------------------------


def _term_product(p: PauliString, q: PauliString) -> PauliString:
    """The product of two strings with Python ints, one pair at a time."""
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


def _term_commutator(p: PauliTerm, q: PauliTerm):
    """[p, q] of two terms: None, or exactly 2 p q."""
    (px, pz), (qx, qz) = p.string.key(), q.string.key()
    if ((px & qz).bit_count() + (pz & qx).bit_count()) % 2 == 0:
        return None
    return PauliTerm(_term_product(p.string, q.string), 2.0 * p.coeff * q.coeff)


def _term_mul(a: PauliSum, b: PauliSum) -> PauliSum:
    products = ((_term_product(s.string, t.string), s.coeff * t.coeff) for s in a.terms for t in b.terms)
    return PauliSum(a.n, products)


def _term_scaled(a: PauliSum, factor) -> PauliSum:
    return PauliSum(a.n, [t.scaled(factor) for t in a.terms])


def _term_sub(a: PauliSum, b: PauliSum) -> PauliSum:
    return PauliSum(a.n, [*a.terms, *_term_scaled(b, -1.0).terms])


def _term_commutator_sum(a: PauliSum, b: PauliSum) -> PauliSum:
    return _term_sub(_term_mul(a, b), _term_mul(b, a))


def _term_leading_error(h: PauliHamiltonian, order: int, groups=None) -> PauliSum:
    terms, acc = h.terms, []
    if order == 2:
        a, b = (PauliSum(h.n, [terms[i] for i in g]) for g in groups)
        aab = _term_commutator_sum(a, _term_commutator_sum(a, b))
        bba = _term_commutator_sum(b, _term_commutator_sum(b, a))
        return _term_scaled(_term_sub(aab, _term_scaled(bba, 0.5)), -1j / 12.0)
    for b in range(len(terms)):
        for a in range(b):
            c = _term_commutator(terms[b], terms[a])
            if c is not None:
                acc.append(c.scaled(-0.5))
    return PauliSum(h.n, acc)


def _bits(s: PauliSum):
    """The planes of every row and the IEEE bits of its coefficient, so a
    zero's sign and the last bit count."""
    x, z, c = s._rows
    return x.tolist(), z.tolist(), c.view(np.uint64).tolist()


_PRODUCT_COEFFS = st.complex_numbers(max_magnitude=1e3, allow_subnormal=False) | st.sampled_from(
    [1.0, -1.0, 0.5j, complex(-0.0, 1.0), complex(1.0, -0.0), 3.0 - 2.0j, 1e200 + 1e200j, 1e-200]
)


@st.composite
def plane_sums(draw, real=False):
    """Two sums on one qubit count, n = 0 or above 64 included (two-word
    planes), over a few strings so that products merge and cancel."""
    n = draw(st.sampled_from([0, 1, 2, 3, 5, 64, 65, 79]))
    bits = st.integers(min_value=0, max_value=(1 << n) - 1)
    phases = st.sampled_from([0, 2]) if real else st.integers(0, 3)
    pool = draw(st.lists(st.builds(PauliString, st.just(n), bits, bits, phases), min_size=1, max_size=4))
    coeffs = st.floats(-4.0, 4.0, allow_subnormal=False) if real else _PRODUCT_COEFFS
    cls = PauliHamiltonian if real else PauliSum
    term = st.tuples(st.sampled_from(pool), coeffs)
    return tuple(cls(n, draw(st.lists(term, max_size=6))) for _ in range(2))


@given(plane_sums())
@example((PauliSum(0), PauliSum(0)))
@example((PauliSum(70), PauliSum(70, [("X" * 70, 2.0)])))
@example((PauliSum(0, [("", 2e200j)]),) * 2)  # inf - inf in the merge: nan, no warning
@example((PauliSum(1, [("X", 0.1 + 0.7j)]), PauliSum(1, [("Z", 0.3 - 0.9j), ("Y", 1.1 + 0.2j)])))
@settings(max_examples=300, deadline=None)
def test_plane_products_match_the_per_term_loops_bit_for_bit(pair):
    a, b = pair
    assert _bits(a * b) == _bits(_term_mul(a, b))
    assert _bits(commutator_sum(a, b)) == _bits(_term_commutator_sum(a, b))


@given(plane_sums(real=True))
@example((PauliHamiltonian(0), PauliHamiltonian(0)))
@example((PauliHamiltonian.from_labels(1, [("X", -1.5), ("Z", 0.25), ("Y", -2.0)]),) * 2)
@settings(max_examples=200, deadline=None)
def test_plane_leading_error_matches_the_per_term_loops_bit_for_bit(pair):
    h = (pair[0] + pair[1]).to_hamiltonian()
    assert _bits(leading_error(h, 1).operator) == _bits(_term_leading_error(h, 1))
    groups = (range(0, h.gamma, 2), range(1, h.gamma, 2))
    assert _bits(leading_error(h, 2, groups).operator) == _bits(_term_leading_error(h, 2, groups))


@pytest.mark.parametrize("block", [1, 5, 16])
def test_leading_error_pair_blocks_keep_the_order(monkeypatch, block):
    # Below 2**16 pairs the mask is one block; small blocks take the
    # blocked path, whose pairs must come out in the same (b, a) order.
    monkeypatch.setattr("trotterlab.pauli._PAIR_BLOCK", block)
    labels = ["XZY", "ZZI", "YXX", "IYZ", "XXX", "ZIY", "YYI"]
    h = PauliHamiltonian.from_labels(3, [(s, 0.3 * i - 1.1) for i, s in enumerate(labels)])
    assert leading_error(h, 1).operator.gamma > 0
    assert _bits(leading_error(h, 1).operator) == _bits(_term_leading_error(h, 1))


def test_leading_error_memory_follows_the_kept_pairs():
    # 1500 commuting Z strings: 1.1 million pairs, none kept.  A mask and
    # products over every pair would take hundreds of MiB; the blocked mask
    # takes a few.
    n = 11
    h = PauliHamiltonian(n, [(PauliString(n, 0, z), 1.0 + z % 7) for z in range(1, 1501)])
    tracemalloc.start()
    try:
        assert leading_error(h, 1).operator.is_empty
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


@pytest.mark.parametrize("phase", range(4))
def test_multiply_carries_every_input_phase(phase):
    y, x = PauliString.from_label("Y", phase), PauliString.from_label("X", 3)
    assert multiply(y, x) == _term_product(y, x)
    assert multiply(x, y) == _term_product(x, y)


def _dict_merged(n, rows, hermitian):
    """PauliSum's merge with the strings numbered by a dictionary of row
    bytes in first-occurrence order, the numbering the stable sort replaced,
    kept as its oracle: (x, z, c.tobytes()) or the error."""
    x, z, c = rows
    keys = [row.tobytes() for row in np.concatenate([x, z], axis=1)]
    index = {}
    rank = np.array([index.setdefault(key, len(index)) for key in keys], np.intp)
    first = np.ones(len(keys), bool)
    first[1:] = rank[1:] > np.maximum.accumulate(rank)[:-1]
    later = ~first
    x, z, c = x[first], z[first], c[first]
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(c, rank[later], rows.c[later])
    kept = np.abs(c) >= MERGE_TOL
    x, z, c = x[kept], z[kept], c[kept]
    if hermitian:
        imaginary = np.abs(c.imag) > 1e-12 * np.fmax(1.0, np.abs(c.real))
        if imaginary.any():
            i = int(imaginary.argmax())
            label = PauliString(n, *(int.from_bytes(p[i].tobytes(), "little") for p in (x, z))).label()
            raise ValidationError(
                f"non-Hermitian total: term {label} has coefficient "
                f"{complex(c[i])} with non-real part"
            )
        c = c.real.astype(complex)
    return x.tolist(), z.tolist(), c.tobytes()


_MERGE_COEFFS = st.sampled_from(
    [1.0, -1.0, 0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 1e-15, -1e-15, 6e-15, 2j,
     1e308, -1e308, 1e308j, math.inf, -math.inf, math.nan]
) | st.complex_numbers(max_magnitude=4.0)


@st.composite
def merge_tables(draw):
    """Rows over a pool of at most five strings, so that most repeat; on
    n > 64 a string and its copy with a top-word bit flipped differ only in
    their last word."""
    n = draw(st.sampled_from([0, 1, 5, 64, 65, 130]))
    bits = st.integers(min_value=0, max_value=(1 << n) - 1)
    pool = draw(st.lists(st.tuples(bits, bits), min_size=1, max_size=5))
    if n > 64:
        pool += [(x ^ (1 << (n - 1)), z) for x, z in pool] + [(x, z ^ (1 << 64)) for x, z in pool]
    table = draw(st.lists(st.tuples(st.sampled_from(pool), _MERGE_COEFFS), max_size=40))
    words = max(1, -(-n // 64))
    keys, coeffs = [key for key, _ in table], [coeff for _, coeff in table]
    planes = (_pack_ints([key[i] for key in keys], words) for i in range(2))
    return n, _Rows(*planes, np.array(coeffs, dtype=complex).reshape(-1))


def _sorted_merge(cls, n, rows):
    try:
        x, z, c = cls(n, rows)._rows
    except ValidationError as exc:
        return type(exc), str(exc)
    return x.tolist(), z.tolist(), c.tobytes()


def _oracle_merge(cls, n, rows):
    try:
        return _dict_merged(n, rows, cls is PauliHamiltonian)
    except ValidationError as exc:
        return type(exc), str(exc)


@given(merge_tables())
@example((0, _Rows(np.zeros((0, 1), np.uint64), np.zeros((0, 1), np.uint64), np.zeros(0, complex))))
@example((3, _Rows(np.array([[5]], np.uint64), np.array([[1]], np.uint64), np.array([-0.0j]))))
@example((2, _Rows(np.zeros((3, 1), np.uint64), np.zeros((3, 1), np.uint64), np.array([1e308, 1e308, -math.inf]))))
@settings(max_examples=400, deadline=None)
def test_sorted_numbering_matches_the_dict_oracle_byte_for_byte(table):
    n, rows = table
    for cls in (PauliSum, PauliHamiltonian):
        assert _sorted_merge(cls, n, rows) == _oracle_merge(cls, n, rows)


def test_sorted_numbering_matches_the_dict_oracle_on_many_repeats():
    # 6000 rows over 40 strings on 130 qubits, half of them differing from
    # another only in the last word, with cancelling and sub-tolerance sums.
    rng = np.random.default_rng(7)
    n, words = 130, 3
    pool = rng.integers(0, 2**63, size=(20, 2, words), dtype=np.uint64)
    pool[:, :, -1] &= np.uint64(3)
    twins = pool.copy()
    twins[:, 1, -1] ^= np.uint64(2)
    pool = np.concatenate([pool, twins])
    pick = rng.integers(0, len(pool), size=6000)
    c = rng.normal(size=6000) + 1j * rng.normal(size=6000)
    c[pick == 3] = np.where(np.arange((pick == 3).sum()) % 2, 1.5, -1.5)  # cancels to 0 or 1.5
    c[pick == 5] = 1e-18
    rows = _Rows(pool[pick, 0], pool[pick, 1], c)
    assert _sorted_merge(PauliSum, n, rows) == _oracle_merge(PauliSum, n, rows)
    assert PauliSum(n, rows).gamma < 40


def test_json_ingest_memory_follows_the_planes():
    # 20000 distinct terms on 256 sites, a 5 MiB label text: a parse of the
    # whole text at once peaks near 22 MiB above the document, one block
    # at a time near 3 MiB.
    rng = np.random.default_rng(3)
    n, gamma = 256, 20000
    text = rng.choice(list(b"IXYZ"), size=gamma * n).astype(np.uint8).tobytes().decode("ascii")
    coeffs = rng.normal(size=gamma).tolist()
    doc = {"n": n, "terms": [{"pauli": text[i * n : (i + 1) * n], "coeff": coeffs[i]} for i in range(gamma)]}
    tracemalloc.start()
    try:
        h = pauli_from_json(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.gamma == gamma
    assert peak < 6 * 2**20


def test_product_merge_memory_stays_near_the_product_rows():
    # L^dagger L of the 12-site 2-local leading error: 208849 products merge
    # to 51046 strings.  Numbering the strings by a dictionary of row bytes
    # peaked near 150 bytes per product, the sort near 82.
    from trotterlab.models import KLocalGaussianModel

    op = leading_error(KLocalGaussianModel(12, k=2, seed=0).bound_hamiltonian(), 1).operator
    adjoint = op.adjoint()
    tracemalloc.start()
    try:
        product = adjoint * op
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (op.gamma, product.gamma) == (457, 51046)
    assert peak < 100 * op.gamma**2


@pytest.mark.parametrize(
    "product", [PauliSum.__mul__, commutator_sum], ids=["mul", "commutator"]
)
def test_pauli_products_are_refused_past_the_budget_before_they_allocate(monkeypatch, product):
    # 560 x 560 products of a 16-site k = 3 draw: about 25 MiB traced when
    # they are formed and merged, against a 1 MiB budget.
    from trotterlab.models import KLocalGaussianModel

    f = KLocalGaussianModel(n=16, k=3, seed=0).sample(1)
    monkeypatch.setattr("trotterlab.errors._MEMORY_BYTES", 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="313600 Pauli products"):
            product(f, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_leading_error_refuses_its_pairs_as_they_accumulate(monkeypatch):
    # A 24-site k = 3 draw has 453890 anticommuting pairs.  Finding all of
    # them before the product check peaked at 14.1 MiB traced against a
    # 1 MiB budget.  Each kept pair is a product row to come, so the pairs
    # are checked block by block: the peak stays within the budget plus one
    # block of candidates, and no factor row is ever taken.
    from trotterlab import pauli
    from trotterlab.models import KLocalGaussianModel

    h = KLocalGaussianModel(n=24, k=3, seed=0).sample(1)
    monkeypatch.setattr("trotterlab.errors._MEMORY_BYTES", 2**20)
    monkeypatch.setattr(pauli, "_take", None)  # a take fails
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="Pauli products need"):
            leading_error(h, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20 + pauli._PAIR_BLOCK * (64 + 40 * h._rows.x.shape[-1])


# ---------------------------------------------------------------------------
# Leading error
# ---------------------------------------------------------------------------


def test_leading_error_order1_xz():
    h = PauliHamiltonian.from_labels(1, [("X", 1.0), ("Z", 1.0)])
    le = leading_error(h, 1)
    assert le.time_power == 2
    # L = -(1/2)[Z, X] = -i Y
    assert le.operator.coeff_map() == {PauliString.from_label("Y").key(): -1.0j}


def test_leading_error_order1_commuting_is_empty():
    h = PauliHamiltonian.from_labels(2, [("ZI", 1.0), ("IZ", 2.0), ("ZZ", 0.3)])
    assert leading_error(h, 1).operator.is_empty


def test_leading_error_order1_matches_richardson():
    """Slope-free differencing: E(tau)/tau^2 -> L with O(tau) error."""
    rng = np.random.default_rng(7)
    labels = ["XZ", "ZY", "YX", "XX"]
    coeffs = rng.normal(size=len(labels))
    h = PauliHamiltonian.from_labels(2, list(zip(labels, coeffs)))
    hmat = dense_sum(h)
    le = leading_error(h, 1)
    lmat = dense_sum(le.operator)

    def s1(tau):
        out = np.eye(4, dtype=complex)
        for t in h.terms:  # term 1 applied first => rightmost
            w, v = np.linalg.eigh(dense_sum(PauliSum(2, [t])))
            e = (v * np.exp(1j * tau * w)) @ v.conj().T
            out = e @ out
        return out

    def exact(tau):
        w, v = np.linalg.eigh(hmat)
        return (v * np.exp(1j * tau * w)) @ v.conj().T

    for tau in (1e-3, 5e-4):
        diff = (s1(tau) - exact(tau)) / tau**2
        assert np.linalg.norm(diff - lmat, 2) < 60 * tau


def test_leading_error_order2_partition_required():
    h = PauliHamiltonian.from_labels(1, [("X", 1.0), ("Z", 1.0)])
    with pytest.raises(PartitionError):
        leading_error(h, 2)
    with pytest.raises(PartitionError):
        leading_error(h, 2, groups=[[0], [0, 1]])
    with pytest.raises(ValidationError):
        leading_error(h, 3)


def test_leading_error_order2_matches_two_block_richardson():
    """Dense oracle for the symmetric step e^{i tau B/2} e^{i tau A} e^{i tau B/2}."""
    rng = np.random.default_rng(3)
    labels = ["XZ", "ZY", "YX", "XY"]
    coeffs = rng.normal(size=len(labels))
    h = PauliHamiltonian.from_labels(2, list(zip(labels, coeffs)))
    groups = ([0, 1], [2, 3])
    le = leading_error(h, 2, groups=groups)
    assert le.time_power == 3
    lmat = dense_sum(le.operator)

    amat = sum(h.terms[i].coeff * dense(h.terms[i].string) for i in groups[0])
    bmat = sum(h.terms[i].coeff * dense(h.terms[i].string) for i in groups[1])

    def expm(m, tau):
        w, v = np.linalg.eigh(m)
        return (v * np.exp(1j * tau * w)) @ v.conj().T

    def s2(tau):
        return expm(bmat, tau / 2) @ expm(amat, tau) @ expm(bmat, tau / 2)

    def exact(tau):
        return expm(amat + bmat, tau)

    # Richardson: (E(tau) - E(tau/2)/ (7/8)) style is overkill; direct ratio
    # already converges at O(tau) in the normalized residual.
    for tau in (2e-3, 1e-3):
        diff = (s2(tau) - exact(tau)) / tau**3
        assert np.linalg.norm(diff - lmat, 2) < 200 * tau


# ---------------------------------------------------------------------------
# Fermions
# ---------------------------------------------------------------------------


def test_fermion_normal_ordering_sign():
    # a_2 a^+_1 -> ordered a^+_1 a_2 with one transposition: sign -1
    t = FermionTerm(((2, "-"), (1, "+")), 1.0)
    assert t.factors == ((1, "+"), (2, "-"))
    assert t.coeff == -1.0


def test_fermion_occupation_factor_carries_no_sign():
    t = FermionTerm(((2, "-"), (1, "z"), (0, "+")), 1.0)
    # ladder subsequence (2,-),(0,+): one inversion
    assert t.coeff == -1.0
    assert t.factors == ((0, "+"), (1, "z"), (2, "-"))


def test_fermion_double_create_is_zero():
    with pytest.warns(RuntimeWarning):
        t = FermionTerm(((0, "+"), (0, "+")), 1.0)
    assert t.is_zero
    assert jordan_wigner(t, 2).is_empty


def test_fermion_alternating_ladder_on_one_site_is_not_zero():
    # a^+ a a^+ = a^+; a^+ O a^+ = 0, since O is diagonal.
    t = FermionTerm(((0, "+"), (0, "-"), (0, "+")), 1.0)
    assert not t.is_zero
    created = FermionTerm(((0, "+"),), 1.0)
    np.testing.assert_array_equal(
        dense_sum(jordan_wigner(t, 2)), dense_sum(jordan_wigner(created, 2))
    )
    assert t.bound == created.bound == 1.0
    with pytest.warns(RuntimeWarning):
        t = FermionTerm(((0, "+"), (0, "z"), (0, "+")), 1.0)
    assert t.is_zero and t.bound == 0.0
    assert jordan_wigner(t, 2).is_empty


def test_fermion_number_preserving_flag():
    assert FermionTerm(((0, "+"), (1, "-")), 1.0).is_number_preserving
    assert not FermionTerm(((0, "+"),), 1.0).is_number_preserving
    assert FermionTerm(((0, "z"),), 1.0).is_number_preserving


def test_jordan_wigner_number_operator():
    # a^+_s a_s -> (I + Z_s)/2 for any n, any s
    for n, s in [(1, 0), (3, 1), (4, 3)]:
        t = FermionTerm(((s, "+"), (s, "-")), 1.0)
        img = jordan_wigner(t, n)
        expected = {
            PauliString.identity(n).key(): 0.5 + 0j,
            PauliString(n, 0, 1 << s).key(): 0.5 + 0j,
        }
        got = img.coeff_map()
        assert got.keys() == expected.keys()
        for k in expected:
            np.testing.assert_allclose(got[k], expected[k], atol=1e-15)


def test_jordan_wigner_occupation_factor():
    t = FermionTerm(((0, "z"),), 1.0, eta=0.5)
    img = jordan_wigner(t, 1)
    assert img.coeff_map() == {PauliString.from_label("Z").key(): 0.5 + 0j}
    t2 = FermionTerm(((0, "z"),), 1.0, eta=0.25)
    img2 = jordan_wigner(t2, 1)
    np.testing.assert_allclose(
        img2.coeff_map()[PauliString.identity(1).key()], 0.25
    )


def dense_annihilator(n: int, s: int) -> np.ndarray:
    """Independent JW oracle: a_s = -(lowering at s) kron Z on higher sites."""
    lower = (SX - 1j * SY) / 2
    out = np.array([[1.0 + 0.0j]])
    for j in range(n):
        if j < s:
            out = np.kron(out, I2)
        elif j == s:
            out = np.kron(out, lower)
        else:
            out = np.kron(out, SZ)
    return -out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jordan_wigner_car(n):
    """Canonical anticommutation relations under the dense oracle."""
    ops = [dense_annihilator(n, s) for s in range(n)]
    eye = np.eye(2**n)
    for i in range(n):
        for j in range(n):
            anti = ops[i] @ ops[j] + ops[j] @ ops[i]
            np.testing.assert_allclose(anti, 0, atol=1e-12)
            anti_dag = ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]
            np.testing.assert_allclose(anti_dag, eye if i == j else 0, atol=1e-12)


@pytest.mark.parametrize(
    "factors",
    [
        ((0, "-"),),
        ((1, "+"),),
        ((0, "+"), (1, "-")),
        ((2, "-"), (0, "+")),
        ((0, "+"), (0, "-"), (1, "z")),
        ((1, "+"), (2, "+"), (0, "-"), (3, "-")),
    ],
)
def test_jordan_wigner_matches_dense_oracle(factors):
    n = 4
    t = FermionTerm(factors, 1.3, eta=0.3)
    img = jordan_wigner(t, n)
    # oracle: multiply dense annihilators/creators in the *raw* given order,
    # tracking the normalization sign independently.
    mats = []
    for site, kind in factors:
        if kind == "+":
            mats.append(dense_annihilator(n, site).conj().T)
        elif kind == "-":
            mats.append(dense_annihilator(n, site))
        else:
            occ = dense_annihilator(n, site).conj().T @ dense_annihilator(n, site)
            mats.append(occ - 0.3 * np.eye(2**n))
    raw = np.eye(2**n, dtype=complex)
    for m in mats:
        raw = raw @ m
    np.testing.assert_allclose(dense_sum(img), 1.3 * raw, atol=1e-12)


def test_jordan_wigner_single_annihilator_pauli_form():
    # a_1 (site index 0) on n=2: -(X - iY)/2 kron Z
    img = jordan_wigner(FermionTerm(((0, "-"),), 1.0), 2)
    got = img.coeff_map()
    np.testing.assert_allclose(got[PauliString.from_label("XZ").key()], -0.5)
    np.testing.assert_allclose(got[PauliString.from_label("YZ").key()], 0.5j)


def test_fermion_hamiltonian_to_pauli_hermitian():
    hop = [
        FermionTerm(((0, "+"), (1, "-")), 0.7),
        FermionTerm(((1, "+"), (0, "-")), 0.7),
    ]
    f = FermionHamiltonian(2, hop)
    assert f.is_number_preserving
    h = f.to_pauli()
    m = dense_sum(h)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-14)


def test_fermion_site_matrices_reconstruct_image():
    # The oracle: each site carries a Z for every ladder factor below it,
    # then its own factors in order.  Site 1's a^+ a a^+ is a^+, not zero.
    eta = 0.4
    t = FermionTerm(((1, "+"), (3, "-"), (2, "z"), (1, "-"), (1, "+")), 0.9, eta=eta)
    n = 4
    own = {
        "+": -(SX + 1j * SY) / 2,
        "-": -(SX - 1j * SY) / 2,
        "z": (1 - 2 * eta) / 2 * I2 + SZ / 2,
    }
    mats = [I2] * n
    for site, kind in t.factors:
        mats[site] = mats[site] @ own[kind]
        if kind != "z":
            for above in range(site + 1, n):
                mats[above] = mats[above] @ SZ
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    np.testing.assert_allclose(dense_sum(jordan_wigner(t, n)), t.coeff * out, atol=1e-12)
    norms = [np.linalg.norm(m, 2) for m in mats]
    assert t.bound == pytest.approx(abs(t.coeff) * math.prod(norms), rel=1e-12)


# jordan_wigner(FermionTerm(factors, 0.7, eta), 4) at eta = 0, 0.5 and 1: each
# string's label and the repr of its coefficient, signed zeros included, in
# the image's order.
_PINNED_IMAGES = {
    ((0, "+"), (0, "-"), (0, "+")): (
        "XZZZ:(-0.35+0j) YZZZ:-0.35j",
        "XZZZ:(-0.35+0j) YZZZ:-0.35j",
        "XZZZ:(-0.35+0j) YZZZ:-0.35j",
    ),
    ((1, "+"), (1, "-"), (1, "+"), (1, "-")): (
        "IIII:(0.35+0j) IZII:(0.35-0j)",
        "IIII:(0.35+0j) IZII:(0.35-0j)",
        "IIII:(0.35+0j) IZII:(0.35-0j)",
    ),
    ((0, "z"), (0, "+"), (0, "z"), (0, "-")): (
        "",
        "IIII:(-0.0875+0j) ZIII:(-0.0875+0j)",
        "",
    ),
    ((1, "+"), (2, "z"), (3, "-")): (
        "IXZY:0.0875j IXZX:(-0.0875+0j) IXIY:0.0875j IXIX:(-0.0875+0j) IYZY:(-0.0875+0j) IYZX:-0.0875j IYIY:(-0.0875+0j) IYIX:-0.0875j",
        "IXIY:0.0875j IXIX:(-0.0875+0j) IYIY:(-0.0875+0j) IYIX:-0.0875j",
        "IXZY:(-0-0.0875j) IXZX:(0.0875-0j) IXIY:0.0875j IXIX:(-0.0875+0j) IYZY:(0.0875-0j) IYZX:0.0875j IYIY:(-0.0875+0j) IYIX:-0.0875j",
    ),
    ((3, "-"), (0, "+")): (
        "XZZY:(-0-0.175j) XZZX:(0.175-0j) YZZY:(0.175-0j) YZZX:0.175j",
        "XZZY:(-0-0.175j) XZZX:(0.175-0j) YZZY:(0.175-0j) YZZX:0.175j",
        "XZZY:(-0-0.175j) XZZX:(0.175-0j) YZZY:(0.175-0j) YZZX:0.175j",
    ),
    ((0, "+"), (1, "+"), (2, "-"), (3, "-")): (
        "XYXY:(-0.04375+0j) XYXX:(-0-0.04375j) XYYY:0.04375j XYYX:(-0.04375+0j) XXXY:0.04375j XXXX:(-0.04375+0j) XXYY:(0.04375-0j) XXYX:0.04375j YYXY:(-0-0.04375j) YYXX:(0.04375-0j) YYYY:(-0.04375+0j) YYYX:(-0-0.04375j) YXXY:(-0.04375+0j) YXXX:(-0-0.04375j) YXYY:0.04375j YXYX:(-0.04375+0j)",
        "XYXY:(-0.04375+0j) XYXX:(-0-0.04375j) XYYY:0.04375j XYYX:(-0.04375+0j) XXXY:0.04375j XXXX:(-0.04375+0j) XXYY:(0.04375-0j) XXYX:0.04375j YYXY:(-0-0.04375j) YYXX:(0.04375-0j) YYYY:(-0.04375+0j) YYYX:(-0-0.04375j) YXXY:(-0.04375+0j) YXXX:(-0-0.04375j) YXYY:0.04375j YXYX:(-0.04375+0j)",
        "XYXY:(-0.04375+0j) XYXX:(-0-0.04375j) XYYY:0.04375j XYYX:(-0.04375+0j) XXXY:0.04375j XXXX:(-0.04375+0j) XXYY:(0.04375-0j) XXYX:0.04375j YYXY:(-0-0.04375j) YYXX:(0.04375-0j) YYYY:(-0.04375+0j) YYYX:(-0-0.04375j) YXXY:(-0.04375+0j) YXXX:(-0-0.04375j) YXYY:0.04375j YXYX:(-0.04375+0j)",
    ),
    ((2, "+"),): (
        "IIXZ:(-0.35+0j) IIYZ:-0.35j",
        "IIXZ:(-0.35+0j) IIYZ:-0.35j",
        "IIXZ:(-0.35+0j) IIYZ:-0.35j",
    ),
    ((1, "-"), (3, "z")): (
        "IXZZ:(-0.175+0j) IXZI:(-0.175+0j) IYZZ:0.175j IYZI:0.175j",
        "IXZI:(-0.175+0j) IYZI:0.175j",
        "IXZZ:(0.175-0j) IXZI:(-0.175+0j) IYZZ:(-0-0.175j) IYZI:0.175j",
    ),
    ((2, "z"), (0, "-"), (2, "+"), (0, "z")): (
        "XZYI:0.175j XZXI:(0.175-0j) YZYI:(0.175-0j) YZXI:(-0-0.175j)",
        "YZXI:(-0-0.04375j) YZYI:(0.04375-0j) XZXI:(0.04375-0j) XZYI:0.04375j",
        "",
    ),
    ((1, "z"), (1, "+"), (3, "+"), (3, "z"), (3, "-")): (
        "",
        "IYZI:0.04375j IYZZ:0.04375j IXZI:(0.04375+0j) IXZZ:(0.04375-0j)",
        "",
    ),
}


@pytest.mark.filterwarnings("ignore:fermionic term with a repeated:RuntimeWarning")
@pytest.mark.parametrize("factors", list(_PINNED_IMAGES))
def test_jordan_wigner_images_are_pinned(factors):
    for eta, expected in zip((0.0, 0.5, 1.0), _PINNED_IMAGES[factors]):
        image = jordan_wigner(FermionTerm(factors, 0.7, eta), 4)
        got = " ".join(f"{t.string.label()}:{t.coeff!r}" for t in image.terms)
        assert got == expected, eta


def test_fermi_hop_document_is_pinned():
    from trotterlab.models import fermi_hop

    labels = [
        "XZXIII", "YZYIII", "XZZXII", "YZZYII", "IXXIII", "IYYIII", "IXZXII", "IYZYII",
        "IIXZXI", "IIYZYI", "IIXZZX", "IIYZZY", "IIIXXI", "IIIYYI", "IIIXZX", "IIIYZY",
    ]
    doc = {"n": 6, "terms": [{"coeff": -0.5, "pauli": p} for p in labels]}
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert _pauli_json_text(fermi_hop(2).to_pauli()) == expected


@pytest.mark.parametrize("field", ["coeff", "eta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_fermion_term_rejects_non_finite_values(field, value):
    params = dict(factors=((0, "+"), (1, "-")), coeff=1.0, eta=0.5)
    params[field] = value
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        FermionTerm(**params)


def test_fermion_hamiltonian_site_bounds():
    with pytest.raises(DimensionMismatchError):
        FermionHamiltonian(3, [FermionTerm(((0, "+"), (4, "-")), 1.0)])


def test_jordan_wigner_of_one_term_needs_a_site_count_that_holds_it():
    t = FermionTerm(((0, "+"), (2, "-")), 1.0)
    with pytest.raises(ValidationError, match="requires the site count n"):
        jordan_wigner(t)
    with pytest.raises(DimensionMismatchError, match="term touches site beyond the 2-site system"):
        jordan_wigner(t, 2)


def test_fermion_to_json_refuses_differing_etas():
    terms = [FermionTerm(((0, "z"),), 1.0, eta=0.5), FermionTerm(((1, "z"),), 1.0, eta=0.25)]
    with pytest.raises(ValidationError, match="differing eta"):
        fermion_to_json(FermionHamiltonian(2, terms))


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def test_pauli_json_round_trip():
    h = PauliHamiltonian.from_labels(3, [("XXI", 0.5), ("IZZ", -1.25)])
    blob = pauli_to_json(h)
    h2 = pauli_from_json(blob)
    assert [t.string.label() for t in h2.terms] == ["XXI", "IZZ"]
    assert h2.coeff_map() == h.coeff_map()


def test_pauli_json_validates_label_length():
    with pytest.raises(ValidationError):
        pauli_from_json({"n": 3, "terms": [{"pauli": "XX", "coeff": 1.0}]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "nan"])
def test_json_loaders_reject_non_finite_values(bad):
    with pytest.raises(ValidationError, match="finite"):
        pauli_from_json({"n": 2, "terms": [{"pauli": "XX", "coeff": 1.0}, {"pauli": "ZZ", "coeff": bad}]})
    term = {"ops": [["+", 0], ["-", 1]], "coeff": 1.0}
    with pytest.raises(ValidationError, match="finite"):
        fermion_from_json({"n": 2, "eta": 0.5, "terms": [dict(term, coeff=bad)]})
    with pytest.raises(ValidationError, match="finite"):
        fermion_from_json({"n": 2, "eta": bad, "terms": [term]})


def test_fermionic_terms_load_while_their_jordan_wigner_strings_survive_the_merge():
    # Each string of a ladder term on S sites is coeff / 2**S.  The hopping
    # pair at 4e-14 (two sites) and the number operator at 2e-14 (two
    # factors, one site) give strings of MERGE_TOL exactly, which the merge
    # keeps.
    hop = [{"ops": o, "coeff": 4e-14} for o in ([["+", 0], ["-", 1]], [["+", 1], ["-", 0]])]
    assert fermion_from_json({"n": 2, "terms": hop}).to_pauli().gamma == 2
    number = {"n": 1, "terms": [{"ops": [["+", 0], ["-", 0]], "coeff": 2e-14}]}
    assert fermion_from_json(number).to_pauli().gamma == 2
    number["terms"][0]["coeff"] = 1.9e-14
    with pytest.raises(ValidationError, match="strings of magnitude 9.5e-15, below 1e-14"):
        fermion_from_json(number)
    # At eta = 0.45 an occupation factor is 0.05 I + Z/2: at 1e-13 its I
    # string is 5e-15, which the merge dropped while the estimate
    # coeff / 2 = 5e-14 let the term load.
    occupation = {"n": 1, "eta": 0.45, "terms": [{"ops": [["z", 0]], "coeff": 1e-13}]}
    with pytest.raises(ValidationError, match="magnitude 4.999999999999999e-15, below 1e-14"):
        fermion_from_json(occupation)
    occupation["terms"][0]["coeff"] = 2.1e-13
    assert fermion_from_json(occupation).to_pauli().gamma == 2


@pytest.mark.filterwarnings("ignore:fermionic term with a repeated:RuntimeWarning")
@pytest.mark.parametrize("eta", [0.45, 0.1, 0.5, 0.0])
def test_a_fermionic_term_loads_exactly_when_the_merge_keeps_every_string(eta):
    # Every term of 1-3 factors on two sites, at coefficients whose smallest
    # strings fall on both sides of MERGE_TOL: the document is refused exactly
    # when the term's image at that coefficient has fewer strings than at 1.
    # A zero term (a+ a+ on one site) has no string, so it loads at any
    # coefficient.
    ops = [[kind, site] for site in (0, 1) for kind in "+-z"]
    for size in (1, 2, 3):
        for term in itertools.product(ops, repeat=size):
            factors = tuple((site, kind) for kind, site in term)
            full = jordan_wigner(FermionTerm(factors, 1.0, eta), 2).gamma
            for coeff in (1e-13, -3e-14, 1.5e-14, 1e-15):
                doc = {"n": 2, "eta": eta, "terms": [{"ops": list(term), "coeff": coeff}]}
                kept = jordan_wigner(FermionTerm(factors, coeff, eta), 2).gamma
                if kept < full:
                    with pytest.raises(ValidationError, match="would be dropped"):
                        fermion_from_json(doc)
                else:
                    assert jordan_wigner(fermion_from_json(doc)).gamma == full


def test_jordan_wigner_refuses_more_strings_than_the_memory_budget_holds():
    # 26 creations on 26 sites have 2**26 strings.
    term = FermionTerm(tuple((site, "+") for site in range(26)), 1.0)
    with pytest.raises(ResourceCapError, match="67108864 Jordan-Wigner strings need"):
        jordan_wigner(term, 26)


def test_fermion_json_round_trip():
    f = FermionHamiltonian(
        3,
        [
            FermionTerm(((0, "+"), (1, "-")), 1.0, eta=0.25),
            FermionTerm(((2, "z"),), 0.5, eta=0.25),
        ],
    )
    blob = fermion_to_json(f)
    assert blob["eta"] == 0.25
    f2 = fermion_from_json(blob)
    assert f2.terms == f.terms


_JSON_COEFFS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308, 1.0, -2.0, 3e16]
)


@st.composite
def json_hamiltonian(draw):
    """Hamiltonians on 0..70 qubits (one and two plane words), with repeated
    labels that merge, cancel or overflow, and extreme coefficients."""
    n = draw(st.integers(min_value=0, max_value=70))
    labels = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    pairs = draw(st.lists(st.tuples(labels, _JSON_COEFFS), max_size=12))
    return PauliHamiltonian.from_labels(n, pairs)


@given(json_hamiltonian())
@example(PauliHamiltonian.from_labels(0, []))
@example(PauliHamiltonian.from_labels(0, [("", 2.0)]))
@example(PauliHamiltonian.from_labels(3, []))
@example(PauliHamiltonian.from_labels(2, [("XY", 5e-324), ("ZZ", -1e308), ("IZ", 4.0)]))
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # merged sums
def test_json_text_writer_matches_json_dumps(h):
    from trotterlab.cli import _json_text

    doc = pauli_to_json(h)
    text = _pauli_json_text(h)
    assert text == _json_text(doc)
    if all(math.isfinite(t["coeff"]) for t in doc["terms"]):
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_json_text_writer_spells_non_finite_coefficients_as_the_cli_does():
    from trotterlab.cli import _json_text

    h = PauliHamiltonian.from_labels(2, [("XX", 1e308), ("XX", 1e308), ("ZI", -math.inf), ("YY", 0.5)])
    assert _pauli_json_text(h) == _json_text(pauli_to_json(h))
    assert '"coeff": "inf"' in _pauli_json_text(h)


def test_json_text_writer_formats_coefficients_the_merge_would_drop():
    # -0.0 and subnormals never survive the merge (|c| < MERGE_TOL), so set
    # the table's coefficients directly
    h = PauliHamiltonian.from_labels(65, [("X" * 65, 1.0), ("Z" * 65, 1.0), ("Y" * 65, 1.0)])
    h._rows = h._rows._replace(c=np.array([-0.0, 5e-324, -2.2250738585072014e-309], complex))
    doc = pauli_to_json(h)
    assert [t["coeff"] for t in doc["terms"]] == [-0.0, 5e-324, -2.2250738585072014e-309]
    assert _pauli_json_text(h) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_text_writer_rejects_non_real_sums():
    with pytest.raises(ValidationError, match="non-real"):
        _pauli_json_text(PauliSum(1, [("X", 1.0 + 1.0j)]))
