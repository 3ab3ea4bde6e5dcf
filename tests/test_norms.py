"""Unit tests for the local norm family and derived constants."""

import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trotterlab.norms import (
    _norm_pair,
    _sequential_sum,
    _term_data,
    fermion_term_bound,
    ladder_part,
    lambda_ferm_k,
    lambda_k,
    lambda_prime_k,
    local_norm,
    norm_profile,
)
from trotterlab.pauli import (
    FermionHamiltonian,
    FermionTerm,
    PauliHamiltonian,
    _jw_site_products,
    fermion_term_site_matrices,
)


def zfield(n):
    return PauliHamiltonian.from_labels(
        n, [("I" * i + "Z" + "I" * (n - i - 1), 1.0) for i in range(n)]
    )


def test_disjoint_unit_terms():
    h = zfield(5)
    assert local_norm(h, 0, 2) == pytest.approx(math.sqrt(5))
    assert local_norm(h, 1, 2) == pytest.approx(1.0)
    assert local_norm(h, 1, 1) == pytest.approx(1.0)
    assert local_norm(h, 0, 1) == pytest.approx(5.0)


def test_single_term_all_values_equal():
    h = PauliHamiltonian.from_labels(2, [("ZZ", 3.0)])
    for c in (0, 1, 2):
        for q in (1, 2):
            assert local_norm(h, c, q) == pytest.approx(3.0)


def test_c_above_locality_warns_and_returns_zero():
    h = PauliHamiltonian.from_labels(2, [("ZI", 1.0)])
    with pytest.warns(RuntimeWarning):
        assert local_norm(h, 2, 2) == 0.0


def test_invalid_arguments():
    h = zfield(2)
    with pytest.raises(ValueError):
        local_norm(h, 0, 3)
    with pytest.raises(ValueError):
        local_norm(h, -1, 2)


def zxyz_like(m):
    """Three blocks of m sites: sum Z_a X_b + sum Y_b Z_c, unit coefficients."""
    n = 3 * m
    pairs = []
    for a in range(m):
        for b in range(m, 2 * m):
            label = ["I"] * n
            label[a], label[b] = "Z", "X"
            pairs.append(("".join(label), 1.0))
    for b in range(m, 2 * m):
        for c in range(2 * m, 3 * m):
            label = ["I"] * n
            label[b], label[c] = "Y", "Z"
            pairs.append(("".join(label), 1.0))
    return PauliHamiltonian.from_labels(n, pairs)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_block_model_norms(m):
    h = zxyz_like(m)
    assert h.gamma == 2 * m * m
    assert local_norm(h, 0, 2) == pytest.approx(m * math.sqrt(2.0))
    # middle sites touch 2m terms (m from each block pairing)
    assert local_norm(h, 1, 2) == pytest.approx(math.sqrt(2.0 * m))
    assert local_norm(h, 1, 1) == pytest.approx(2.0 * m)
    assert local_norm(h, 2, 2) == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_monotone_in_c_and_q(seed, data):
    rng = np.random.default_rng(seed)
    n = 6
    pairs = []
    for _ in range(rng.integers(2, 12)):
        weight = int(rng.integers(1, 4))
        sites = rng.choice(n, size=weight, replace=False)
        label = ["I"] * n
        for s in sites:
            label[s] = rng.choice(list("XYZ"))
        pairs.append(("".join(label), float(rng.normal())))
    h = PauliHamiltonian.from_labels(n, pairs)
    k = h.k
    values = {(c, q): local_norm(h, c, q) for c in range(k + 1) for q in (1, 2)}
    for c in range(k + 1):
        assert values[(c, 2)] <= values[(c, 1)] + 1e-12
        if c + 1 <= k:
            for q in (1, 2):
                assert values[(c + 1, q)] <= values[(c, q)] + 1e-12
    # Cauchy-Schwarz: ||.||_1 <= sqrt(Gamma) ||.||_2 at c=0
    assert values[(0, 1)] <= math.sqrt(h.gamma) * values[(0, 2)] + 1e-12


def test_lambda_unit_term():
    h = PauliHamiltonian.from_labels(1, [("Z", 1.0)])
    assert lambda_k(h) == pytest.approx(4.0)
    assert lambda_prime_k(h) == pytest.approx(4.0 * math.sqrt(5.0))


def test_lambda_homogeneous_degree_one():
    h = zxyz_like(2)
    h2 = PauliHamiltonian(h.n, [(t.string, 3.0 * t.coeff) for t in h.terms])
    assert lambda_k(h2) == pytest.approx(3.0 * lambda_k(h), rel=1e-12)
    assert lambda_prime_k(h2) == pytest.approx(3.0 * lambda_prime_k(h), rel=1e-12)


def test_lambda_independent_arithmetic_oracle():
    """Straight-line re-evaluation for a k=2 chain with unit couplings."""
    n = 4
    pairs = []
    for i in range(n - 1):
        for p in "XYZ":
            label = ["I"] * n
            label[i] = label[i + 1] = p
            pairs.append(("".join(label), 1.0))
    h = PauliHamiltonian.from_labels(n, pairs)
    # oracle values by hand: every bond has 3 terms. site 1 and 2 touch 6
    # terms each -> ||H||_(1),2 = sqrt(6); a bond subset {i,i+1} is covered by
    # its 3 terms -> ||H||_(2),2 = sqrt(3); ||H||_(0),2 = sqrt(9) = 3.
    assert local_norm(h, 1, 2) == pytest.approx(math.sqrt(6.0))
    assert local_norm(h, 2, 2) == pytest.approx(math.sqrt(3.0))
    expected_lambda = (2.0 ** 2.0 / 1.0) * (
        2.0 ** 0.5 / 1.0 * math.sqrt(6.0) + 2.0 / 1.0 * math.sqrt(3.0)
    )
    assert lambda_k(h) == pytest.approx(expected_lambda, rel=1e-12)
    expected_lp = 2.0 * (
        2.0 * math.sqrt(20.0) * math.sqrt(6.0 * 9.0)
        + 1.0 * 20.0 * math.sqrt(3.0 * 9.0 / 2.0)
    )
    assert lambda_prime_k(h) == pytest.approx(expected_lp, rel=1e-12)


def hop(i, j, coeff=1.0):
    return [
        FermionTerm(((i, "+"), (j, "-")), coeff),
        FermionTerm(((j, "+"), (i, "-")), coeff),
    ]


def fermi_hop_like(m):
    terms = []
    for a in range(m):
        for b in range(m, 2 * m):
            terms.extend(hop(a, b))
    for b in range(m, 2 * m):
        for c in range(2 * m, 3 * m):
            terms.extend(hop(b, c))
    return FermionHamiltonian(3 * m, terms)


def test_fermion_term_bounds_are_unit_for_hopping():
    f = fermi_hop_like(1)
    for t in f.terms:
        assert fermion_term_bound(t, f.n) == pytest.approx(1.0)


def test_fermion_number_operator_bound():
    t = FermionTerm(((0, "+"), (0, "-")), 2.0)
    assert fermion_term_bound(t, 2) == pytest.approx(2.0)


def test_fermion_occupation_bound_depends_on_eta():
    t = FermionTerm(((0, "z"),), 1.0, eta=0.25)
    assert fermion_term_bound(t, 1) == pytest.approx(0.75)


@st.composite
def fermion_terms(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    factors = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=n - 1), st.sampled_from("+-z")),
            max_size=4,
        )
    )
    coeff = draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    eta = draw(st.floats(min_value=0.0, max_value=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # repeated ladder factors
        return FermionTerm(tuple(factors), coeff, eta), n


@given(fermion_terms())
@settings(max_examples=200, deadline=None)
def test_support_site_products_equal_full_products(case):
    term, n = case
    full = fermion_term_site_matrices(term, n)
    assert sorted(full) == list(range(n))
    support = term.support()
    restricted = _jw_site_products(term, support)
    assert sorted(restricted) == list(support)
    for site in support:
        assert np.array_equal(restricted[site], full[site])
    expected = 0.0
    if not term.is_zero:
        expected = abs(term.coeff)
        for site in support:
            expected *= float(np.linalg.norm(full[site], 2))
    assert fermion_term_bound(term, n) == expected


@pytest.mark.parametrize("m", [1, 2])
def test_fermionic_ladder_zero_two(m):
    f = fermi_hop_like(m)
    assert local_norm(ladder_part(f), 0, 2) == pytest.approx(2.0 * m)


def test_lambda_ferm_occupation_only_equals_lambda():
    f = FermionHamiltonian(
        2, [FermionTerm(((0, "z"),), 1.0), FermionTerm(((1, "z"),), 1.0)]
    )
    assert lambda_ferm_k(f) == pytest.approx(lambda_k(f), rel=1e-12)


def test_lambda_ferm_requires_number_preservation():
    f = FermionHamiltonian(2, [FermionTerm(((0, "+"),), 1.0)])
    with pytest.raises(ValueError):
        lambda_ferm_k(f)


def test_lambda_ferm_hopping_adds_extra_term():
    f = fermi_hop_like(1)
    k = f.k
    assert k == 2
    extra = 2.0 ** 2.0 / math.factorial(1) / math.factorial(2) * 2.0
    assert lambda_ferm_k(f) == pytest.approx(lambda_k(f) + extra, rel=1e-12)


def test_profile_collects_everything():
    prof = norm_profile(zxyz_like(2))
    assert prof.gamma == 8
    assert prof.k == 2
    assert set(prof.norms) == {(c, q) for c in (0, 1, 2) for q in (1, 2)}
    assert prof.lambda_ferm_k is None
    fprof = norm_profile(fermi_hop_like(1))
    assert fprof.ferm_zero_two == pytest.approx(2.0)
    assert fprof.lambda_ferm_k is not None


def test_zero_two_matches_dense_normalized_norm():
    """||H||_(0),2 equals the normalized Frobenius norm for distinct strings."""
    h = zxyz_like(1)
    mats = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
            "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
    dense = np.zeros((8, 8), dtype=complex)
    for t in h.terms:
        m = np.array([[1.0]])
        for ch in t.string.label():
            m = np.kron(m, mats[ch])
        dense += t.coeff * m
    normalized_two = np.linalg.norm(dense, "fro") / math.sqrt(8)
    assert local_norm(h, 0, 2) == pytest.approx(normalized_two, rel=1e-12)


def random_pauli_hamiltonian(rng, n=7, k_max=4):
    pairs = []
    for _ in range(rng.integers(1, 16)):
        weight = int(rng.integers(1, k_max + 1))
        label = ["I"] * n
        for s in rng.choice(n, size=weight, replace=False):
            label[s] = rng.choice(list("XYZ"))
        pairs.append(("".join(label), float(rng.normal())))
    return PauliHamiltonian.from_labels(n, pairs)


def random_fermion_hamiltonian(rng, n=6, k_max=4, number_preserving=True):
    terms = []
    for _ in range(rng.integers(1, 10)):
        kind = rng.integers(3)
        coeff = float(rng.normal())
        if kind == 0:
            (s,) = rng.choice(n, size=1)
            terms.append(FermionTerm(((int(s), "z"),), coeff, eta=0.25))
        elif kind == 1 or k_max < 4:
            i, j = (int(s) for s in rng.choice(n, size=2, replace=False))
            terms += hop(i, j, coeff)
        else:
            a, b, c, d = (int(s) for s in rng.choice(n, size=4, replace=False))
            terms.append(FermionTerm(((a, "+"), (b, "+"), (c, "-"), (d, "-")), coeff))
            terms.append(FermionTerm(((d, "+"), (c, "+"), (b, "-"), (a, "-")), coeff))
    if not number_preserving:
        terms.append(FermionTerm(((int(rng.integers(n)), "+"),), 1.0))
    return FermionHamiltonian(n, terms)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["pauli", "fermion", "fermion-nonpreserving"]),
)
@settings(max_examples=80, deadline=None)
def test_profile_equals_per_norm_functions_exactly(seed, k_max, kind):
    rng = np.random.default_rng(seed)
    if kind == "pauli":
        h = random_pauli_hamiltonian(rng, k_max=k_max)
    else:
        h = random_fermion_hamiltonian(
            rng, k_max=k_max, number_preserving=kind == "fermion"
        )
    prof = norm_profile(h)
    assert prof.k == h.k
    assert set(prof.norms) == {(c, q) for c in range(h.k + 1) for q in (1, 2)}
    for (c, q), value in prof.norms.items():
        assert value == local_norm(h, c, q)
    assert prof.lambda_k == lambda_k(h)
    assert prof.lambda_prime_k == lambda_prime_k(h)
    if kind == "pauli":
        assert prof.lambda_ferm_k is None and prof.ferm_zero_two is None
        return
    assert prof.ferm_zero_two == local_norm(ladder_part(h), 0, 2)
    if kind == "fermion":
        assert prof.lambda_ferm_k == lambda_ferm_k(h)
    else:
        assert prof.lambda_ferm_k is None


def test_profile_builds_term_data_once(monkeypatch):
    import trotterlab.norms as norms_module

    calls = []
    real = norms_module._term_data

    def counting(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(norms_module, "_term_data", counting)
    norm_profile(zxyz_like(2))
    assert len(calls) == 1


def _combinations_norms(supports_and_bounds, c):
    """(||H||_{(c),1}, ||H||_{(c),2}) by a dictionary of subset sums over
    ``combinations(support, c)``, added term by term: the computation the
    bincount norms replaced, kept as their oracle."""
    ones, twos = {}, {}
    for sup, b in supports_and_bounds:
        for subset in combinations(sup, c):
            ones[subset] = ones.get(subset, 0.0) + b
            twos[subset] = twos.get(subset, 0.0) + b * b
    if not ones:
        return 0.0, 0.0
    return max(ones.values()), math.sqrt(max(twos.values()))


def _random_wide_pauli(rng, n, gamma, k_max):
    """Up to gamma terms on n sites with weights 0..k_max (weight 0 is the
    identity), repeated strings, and zero or sub-tolerance coefficients."""
    labels = []
    for _ in range(gamma):
        label = ["I"] * n
        weight = int(rng.integers(0, k_max + 1))
        for s in rng.choice(n, size=weight, replace=False):
            label[s] = "XYZ"[int(rng.integers(3))]
        labels.append("".join(label))
    coeffs = rng.choice([0.0, 1e-15, 1.0, -2.5], size=gamma) * rng.random(gamma)
    coeffs = np.where(rng.random(gamma) < 0.7, rng.normal(size=gamma), coeffs)
    repeats = rng.integers(0, max(1, gamma), size=gamma // 5)
    pairs = list(zip(labels, coeffs.tolist()))
    pairs += [(labels[i], float(rng.normal())) for i in repeats]
    return PauliHamiltonian.from_labels(n, pairs)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=64),
    gamma=st.integers(min_value=0, max_value=500),
    k_max=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_bincount_norms_equal_combinations_oracle_bit_for_bit(seed, n, gamma, k_max):
    rng = np.random.default_rng(seed)
    h = _random_wide_pauli(rng, n, gamma, min(k_max, n))
    data = [(t.string.support(), abs(t.coeff)) for t in h.terms]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # c above k
        for c in range(1, k_max + 1):
            one, two = _combinations_norms(data, c)
            assert local_norm(h, c, 1) == one
            assert local_norm(h, c, 2) == two


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_fermionic_bincount_norms_equal_oracle_with_zero_terms(seed):
    rng = np.random.default_rng(seed)
    h = random_fermion_hamiltonian(rng, n=8, k_max=4)
    n = h.n
    # A repeated creation on one site is the zero operator: bound 0.
    site = int(rng.integers(n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        zero = FermionTerm(((site, "+"), (site, "+"), ((site + 1) % n, "-")), 1.0)
    assert zero.is_zero
    h = FermionHamiltonian(n, [*h.terms, zero, *h.terms[:2]])
    data = [(t.support(), fermion_term_bound(t, n)) for t in h.terms]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for c in range(1, 5):
            one, two = _combinations_norms(data, c)
            assert local_norm(h, c, 1) == one
            assert local_norm(h, c, 2) == two


def test_wide_term_subsets_are_refused_before_enumeration(monkeypatch):
    import trotterlab.norms as norms_module
    from trotterlab.errors import ResourceCapError

    h = PauliHamiltonian.from_labels(12, [("XYZXYZXYZXII", 1.0), ("IIIIIIIIIIZZ", 0.5)])
    # The weight-10 term has C(10, 4) = 210 subsets at c = 4 and 252 at c = 5.
    monkeypatch.setattr(norms_module, "_SUBSET_BYTES", 50_000)
    assert local_norm(h, 4, 1) == 1.0
    monkeypatch.setattr(
        norms_module,
        "_subset_incidence",
        lambda *args: pytest.fail("subsets enumerated before the cap check"),
    )
    with pytest.raises(ResourceCapError, match="c=5 local norm sums over 252 site subsets"):
        norm_profile(h)


def test_norms_of_hopping_far_out_on_a_2_to_32_site_register():
    # The subset bins stay dense however large the site indices: a bin per
    # site would take 32 GiB here, and s_i * n + s_j leaves int64.
    n = 2**32
    pairs = [(n - 2, n - 1), (n - 3, n - 1), (0, n - 1), (n - 2, n - 1)]
    h = FermionHamiltonian(n, [t for i, j in pairs for t in hop(i, j)])
    prof = norm_profile(h)
    assert prof.norms == {
        (0, 1): 8.0, (0, 2): math.sqrt(8.0),
        (1, 1): 8.0, (1, 2): math.sqrt(8.0),
        (2, 1): 4.0, (2, 2): 2.0,
    }


def test_planner_model_profiles_equal_pinned_values():
    """norm_profile of the benchmark's five planner Hamiltonians, read back
    from their JSON files, equals the values recorded before the bincount
    norms, float for float."""
    import json
    from pathlib import Path

    from trotterlab.models import KLocalGaussianModel, chain_heisenberg, power_law
    from trotterlab.pauli import pauli_from_json, pauli_to_json

    models = {
        "power-law-n64-d1-a2": lambda: power_law(64, 1, 2.0),
        "power-law-n64-d2-a3": lambda: power_law(64, 2, 3.0),
        "power-law-n128-d1-a2": lambda: power_law(128, 1, 2.0),
        "k-local-syk-n20-k3-seed827628876": lambda: KLocalGaussianModel(
            n=20, k=3, j_coupling=1.0, seed=827628876
        ).sample(827628876),
        "chain-heisenberg-n256": lambda: chain_heisenberg(256),
    }
    pinned = json.loads(
        (Path(__file__).parent / "data" / "planner_norm_profiles.json").read_text()
    )
    assert set(pinned) == set(models)
    for name, build in models.items():
        h = pauli_from_json(json.loads(json.dumps(pauli_to_json(build()))))
        prof = norm_profile(h)
        got = {
            "gamma": prof.gamma,
            "k": prof.k,
            "norms": {f"{c},{q}": v for (c, q), v in sorted(prof.norms.items())},
            "lambda": prof.lambda_k,
            "lambda_prime": prof.lambda_prime_k,
        }
        assert got == pinned[name], name


def _loop_sum(values):
    """Left-to-right float addition, one rounding per step (Python 3.12's
    ``sum`` compensates, so it is no oracle here)."""
    total = 0.0
    for v in values:
        total += v
    return total


@given(
    st.lists(
        st.floats(min_value=0.0, allow_nan=False)
        | st.sampled_from([1e308, 1.7e308, 5e-324, 1e-16, 0.1]),
        max_size=40,
    )
)
@example([1.0] + [1e-16] * 10)  # compensated or pairwise sums differ here
@example([1.7e308, 1.7e308, 1.0])  # overflows to inf
@settings(max_examples=200, deadline=None)
def test_sequential_sum_adds_left_to_right(values):
    got = _sequential_sum(np.array(values, dtype=float))
    if values:
        assert type(got) is float and got == _loop_sum(values)
    else:
        assert type(got) is int and got == 0


@pytest.mark.parametrize("coeffs", [[], [0.5, 3.0, 1e-3], [1e200, 1e200], [1.7e308, 1.7e308]])
def test_zeroth_norms_add_bounds_in_term_order(coeffs):
    labels = ["XI", "ZZ", "IY"][: len(coeffs)]
    data = _term_data(PauliHamiltonian.from_labels(2, list(zip(labels, coeffs))))
    bounds = [abs(c) for c in coeffs]
    one = _loop_sum(bounds) if bounds else 0  # the int 0 of an empty sum
    two = math.sqrt(_loop_sum([b * b for b in bounds]))
    got = _norm_pair(data, 0)
    assert got == (one, two) and type(got[0]) is type(one)
