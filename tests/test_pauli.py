"""Unit tests for the symbolic Pauli/fermion algebra.

Every nontrivial identity is checked against an independent dense-matrix
oracle built directly from 2x2 numpy arrays inside this file (no reuse of the
package's own dense engine).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trotterlab.errors import (
    DimensionMismatchError,
    PartitionError,
    ValidationError,
)
from trotterlab.pauli import (
    FermionHamiltonian,
    FermionTerm,
    PauliHamiltonian,
    PauliString,
    PauliSum,
    PauliTerm,
    adjoint_apply,
    commutator,
    commutator_sum,
    fermion_from_json,
    fermion_term_site_matrices,
    fermion_to_json,
    jordan_wigner,
    leading_error,
    multiply,
    _pauli_json_text,
    pauli_from_json,
    pauli_to_json,
    strings_commute,
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
    assert strings_commute(p, q) == bool(np.allclose(comm, 0, atol=1e-12))


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
    z1x2 = PauliTerm(PauliString.from_label("ZXI"), 1.0)
    y2z3 = PauliTerm(PauliString.from_label("IYZ"), 1.0)
    c = commutator(z1x2, y2z3)
    assert c is not None
    assert c.string.label() == "ZZZ"
    # dense oracle: [Z1 X2, Y2 Z3] = 2i Z1 Z2 Z3
    a, b = dense_sum(PauliSum(3, [z1x2])), dense_sum(PauliSum(3, [y2z3]))
    np.testing.assert_allclose(
        a @ b - b @ a, dense_sum(PauliSum(3, [c])), atol=1e-12
    )
    np.testing.assert_allclose(c.coeff, 2.0j, atol=1e-15)


def test_commutator_none_cases():
    zz = PauliTerm(PauliString.from_label("ZZ"), 1.0)
    xx = PauliTerm(PauliString.from_label("XX"), 1.0)
    assert commutator(zz, xx) is None  # anticommute on both sites => commute
    z = PauliTerm(PauliString.from_label("Z"), 1.0)
    assert commutator(z, z) is None


@given(random_string(), random_string())
@settings(max_examples=150, deadline=None)
def test_commutator_support_and_value(p, q):
    tp = PauliTerm(p, 1.0)
    tq = PauliTerm(q, 1.0)
    c = commutator(tp, tq)
    mp, mq = dense_sum(PauliSum(3, [tp])), dense_sum(PauliSum(3, [tq]))
    expected = mp @ mq - mq @ mp
    if c is None:
        np.testing.assert_allclose(expected, 0, atol=1e-12)
    else:
        np.testing.assert_allclose(dense_sum(PauliSum(3, [c])), expected, atol=1e-12)
        assert set(c.support()) <= set(tp.support()) | set(tq.support())
        # at least one site of the overlap stays occupied
        overlap = set(p.support()) & set(q.support())
        assert overlap & set(c.support() or p.support())


def test_adjoint_apply_examples():
    z = PauliTerm(PauliString.from_label("Z"), 1.0)
    x_h = PauliHamiltonian.from_labels(1, [("X", 1.0)])
    out = adjoint_apply(z, x_h)
    assert out.coeff_map() == {PauliString.from_label("Y").key(): (-2 + 0j)}
    z_h = PauliHamiltonian.from_labels(1, [("Z", 1.0)])
    assert adjoint_apply(z, z_h).is_empty
    zx = PauliTerm(PauliString.from_label("ZXI"), 1.0)
    yz = PauliHamiltonian.from_labels(3, [("IYZ", 1.0)])
    out2 = adjoint_apply(zx, yz)
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
            assert built.bounds() == tuple(abs(t.coeff) for t in built.terms)
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


@pytest.mark.parametrize("repeats", [False, True], ids=["distinct-keys", "repeated-keys"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_columnar_json_ingest_matches_dict_oracle(repeats, data):
    """Distinct keys take the merge's fast path, repeated keys the summing one."""
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


def test_negative_qubit_count_is_rejected():
    # Without terms, no PauliString checks n; the CLI planned an empty
    # Hamiltonian on -1 qubits and exited 0.
    with pytest.raises(ValidationError, match="negative qubit count -1"):
        PauliSum(-1)
    with pytest.raises(ValidationError, match="negative qubit count -1"):
        pauli_from_json({"n": -1, "terms": []})


def test_planner_path_builds_no_pauli_terms(monkeypatch):
    from trotterlab.models import chain_heisenberg
    from trotterlab.norms import norm_profile

    built = []
    original = PauliTerm.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PauliTerm, "__post_init__", counting)
    doc = pauli_to_json(chain_heisenberg(8))
    profile = norm_profile(pauli_from_json(doc))
    assert profile.gamma == 21
    assert built == []


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


def test_sum_adjoint_matches_dense():
    a = PauliSum(2, [("XY", 1.0 + 2.0j), ("ZI", -0.5j)])
    np.testing.assert_allclose(dense_sum(a.adjoint()), dense_sum(a).conj().T, atol=1e-14)


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
    t = FermionTerm(((1, "+"), (3, "-"), (2, "z")), 0.9, eta=0.4)
    n = 4
    mats = fermion_term_site_matrices(t, n)
    out = np.array([[1.0 + 0.0j]])
    for s in range(n):
        out = np.kron(out, mats[s])
    np.testing.assert_allclose(dense_sum(jordan_wigner(t, n)), 0.9 * out, atol=1e-12)


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
