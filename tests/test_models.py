"""Tests for the Hamiltonian family generators."""

import itertools
import math

import numpy as np
import pytest

from trotterlab.errors import ResourceCapError, ValidationError
from trotterlab.models import (
    _MODEL_BYTES,
    KLocalGaussianModel,
    _check_size,
    chain_heisenberg,
    fermi_hop,
    fermi_hop_groups,
    lattice_coordinates,
    pair_distance,
    power_law,
    zxyz,
    zxyz_groups,
)
from trotterlab.norms import fermion_term_bound, local_norm, norm_profile
from trotterlab.pauli import PauliHamiltonian, jordan_wigner, leading_error


# ---------------------------------------------------------------- chain


def test_chain_term_count_and_order():
    h = chain_heisenberg(4)
    assert h.n == 4
    assert h.gamma == 9
    labels = [t.string.label() for t in h.terms]
    assert labels[:3] == ["XXII", "YYII", "ZZII"]
    assert labels[3:6] == ["IXXI", "IYYI", "IZZI"]
    assert labels[6:] == ["IIXX", "IIYY", "IIZZ"]
    assert all(t.coeff == 1.0 for t in h.terms)
    assert h.k == 2


def test_chain_rejects_single_site():
    with pytest.raises(ValidationError):
        chain_heisenberg(1)


def test_chain_local_norms():
    # Interior site of an n=5 chain touches 2 bonds x 3 letters = 6 terms.
    h = chain_heisenberg(5)
    assert local_norm(h, 1, 2) == pytest.approx(math.sqrt(6.0))
    assert local_norm(h, 1, 1) == pytest.approx(6.0)
    assert local_norm(h, 0, 2) == pytest.approx(math.sqrt(12.0))


# ------------------------------------------------------------ power law


def test_lattice_coordinates_1d_2d():
    assert lattice_coordinates(4, 1) == [(0,), (1,), (2,), (3,)]
    assert lattice_coordinates(4, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValidationError):
        lattice_coordinates(5, 2)


def test_power_law_1d_coefficients():
    h = power_law(4, 1, 2.0)
    got = {
        tuple(t.string.support()): t.coeff for t in h.terms
    }
    assert got[(0, 1)] == pytest.approx(1.0)
    assert got[(0, 2)] == pytest.approx(0.25)
    assert got[(0, 3)] == pytest.approx(1.0 / 9.0)
    assert got[(1, 3)] == pytest.approx(0.25)
    assert h.gamma == 6
    # Every term is a ZZ pair.
    assert all(set(t.string.label()) <= {"I", "Z"} for t in h.terms)


def test_power_law_tail_mass_matches_enumeration():
    # Used as the truncation oracle: distance-> coefficient**2 mass beyond 1.
    h = power_law(4, 1, 2.0)
    tail = sum(
        t.coeff**2
        for t in h.terms
        if abs(t.string.support()[1] - t.string.support()[0]) > 1
    )
    assert tail == pytest.approx(1.0 / 8.0 + 1.0 / 81.0)


def test_power_law_2d_diagonal_distance():
    h = power_law(4, 2, 1.0)
    got = {tuple(t.string.support()): t.coeff for t in h.terms}
    # Sites 0=(0,0) and 3=(1,1) are sqrt(2) apart.
    assert got[(0, 3)] == pytest.approx(1.0 / math.sqrt(2.0))
    assert got[(0, 1)] == pytest.approx(1.0)


def test_power_law_rejects_bad_alpha():
    with pytest.raises(ValidationError):
        power_law(4, 1, 0.0)


# ------------------------------------------------------------------ SYK


def test_syk_sigma_formula():
    model = KLocalGaussianModel(8, 2, 1.0, seed=0)
    assert model.sigma == pytest.approx(0.25)  # J^2 * 1! / (2*8) = 1/16
    assert model.gamma == 28
    model3 = KLocalGaussianModel(6, 3, 2.0, seed=0)
    assert model3.sigma**2 == pytest.approx(4.0 * 2.0 / (3 * 36))


def test_syk_strings_cover_each_subset_exactly():
    model = KLocalGaussianModel(5, 2, 1.0, seed=3)
    assert len(model.strings) == 10
    supports = set()
    for label in model.strings:
        sites = tuple(i for i, c in enumerate(label) if c != "I")
        assert len(sites) == 2
        assert all(label[i] in "XYZ" for i in sites)
        supports.add(sites)
    assert len(supports) == 10


def test_syk_model_deterministic_in_seed():
    a = KLocalGaussianModel(6, 2, 1.0, seed=11)
    b = KLocalGaussianModel(6, 2, 1.0, seed=11)
    c = KLocalGaussianModel(6, 2, 1.0, seed=12)
    assert a.strings == b.strings
    assert a.strings != c.strings


def _per_subset_strings(n, k, seed):
    """The SYK strings drawn one subset at a time: k letters per subset, in
    combinations order, from one generator."""
    rng = np.random.default_rng(seed)
    letters = np.array(["X", "Y", "Z"])
    strings = []
    for subset in itertools.combinations(range(n), k):
        label = ["I"] * n
        for site, letter in zip(subset, letters[rng.integers(0, 3, size=k)]):
            label[site] = letter
        strings.append("".join(label))
    return tuple(strings), rng.integers(0, 2**62)


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("seed", [0, 1, 7, 19, 827628876])
def test_syk_batched_draw_matches_per_subset_draws(k, seed):
    n = 9
    strings, next_draw = _per_subset_strings(n, k, seed)
    model = KLocalGaussianModel(n, k, 1.0, seed=seed)
    assert model.strings == strings
    # the batched draw leaves the generator where the per-subset draws do
    rng = np.random.default_rng(seed)
    rng.integers(0, 3, size=(model.gamma, k))
    assert rng.integers(0, 2**62) == next_draw
    # sample and bound_hamiltonian read the same planes as labels would give
    coeffs = np.random.default_rng(3).standard_normal(len(strings)) * model.sigma
    assert model.sample(3).terms == PauliHamiltonian.from_labels(n, zip(strings, coeffs)).terms
    expected = PauliHamiltonian.from_labels(n, [(s, model.sigma) for s in strings])
    assert model.bound_hamiltonian().terms == expected.terms


def test_syk_sample_deterministic_and_distinct():
    model = KLocalGaussianModel(6, 2, 1.0, seed=5)
    h1 = model.sample(seed=100)
    h2 = model.sample(seed=100)
    h3 = model.sample(seed=101)
    assert [t.coeff for t in h1.terms] == [t.coeff for t in h2.terms]
    assert [t.coeff for t in h1.terms] != [t.coeff for t in h3.terms]
    assert [t.string.label() for t in h1.terms] == list(model.strings)


def test_syk_empirical_variance_matches_normalization():
    model = KLocalGaussianModel(8, 2, 1.5, seed=2)
    draws = np.concatenate(
        [[t.coeff for t in model.sample(seed=s).terms] for s in range(60)]
    )
    var = float(np.var(draws))
    # 1680 samples; relative SE of the variance ~ sqrt(2/1680) ~ 3.5%.
    assert var == pytest.approx(model.sigma**2, rel=0.15)


def test_syk_bound_hamiltonian_norms():
    model = KLocalGaussianModel(8, 2, 1.0, seed=0)
    hb = model.bound_hamiltonian()
    sigma = model.sigma
    assert local_norm(hb, 0, 2) == pytest.approx(sigma * math.sqrt(28))
    # Every site sits in C(7,1) = 7 subsets.
    assert local_norm(hb, 1, 2) == pytest.approx(sigma * math.sqrt(7))
    assert local_norm(hb, 0, 1) == pytest.approx(sigma * 28)
    profile = norm_profile(hb)
    assert profile.gamma == 28
    assert profile.k == 2


# ----------------------------------------------------------------- zxyz


def test_zxyz_structure():
    h = zxyz(2)
    assert h.n == 6
    assert h.gamma == 8
    labels = [t.string.label() for t in h.terms]
    assert labels[0] == "ZIXIII"
    assert labels[3] == "IZIXII"
    assert labels[4] == "IIYIZI"
    assert labels[-1] == "IIIYIZ"
    ga, gb = zxyz_groups(2)
    assert ga == (0, 1, 2, 3)
    assert gb == (4, 5, 6, 7)


def test_zxyz_norm_profile():
    for m in (1, 2, 3):
        h = zxyz(m)
        assert local_norm(h, 0, 2) == pytest.approx(m * math.sqrt(2.0))
        assert local_norm(h, 1, 2) == pytest.approx(math.sqrt(2.0 * m))
        assert local_norm(h, 1, 1) == pytest.approx(2.0 * m)
        assert local_norm(h, 2, 2) == pytest.approx(1.0)


def test_zxyz_first_order_leading_error_is_zzz_product():
    # The order-1 leading term equals (1/2)[A, B]; for m=1 the commutator
    # is 2i Z0 Z1 Z2, so the leading operator is a single ZZZ string of
    # magnitude 1.
    h = zxyz(1)
    err = leading_error(h, 1)
    assert err.time_power == 2
    terms = err.operator.terms
    assert len(terms) == 1
    assert terms[0].string.label() == "ZZZ"
    assert abs(terms[0].coeff) == pytest.approx(1.0)


def test_zxyz_first_order_commutator_count():
    # [A, B] = 2i (sum Z)(sum Z)(sum Z): m**3 distinct ZZZ strings.
    m = 2
    h = zxyz(m)
    err = leading_error(h, 1)
    assert len(err.operator.terms) == m**3
    assert all(abs(t.coeff) == pytest.approx(1.0) for t in err.operator.terms)


# ------------------------------------------------------------ fermi hop


def test_fermi_hop_structure():
    f = fermi_hop(2)
    assert f.n == 6
    assert f.gamma == 16
    assert f.k == 2
    assert f.is_number_preserving
    ga, gb = fermi_hop_groups(2)
    assert len(ga) == 8 and len(gb) == 8
    assert max(ga) < min(gb)


def test_fermi_hop_all_bounds_unit():
    f = fermi_hop(2)
    assert all(
        fermion_term_bound(t, f.n) == pytest.approx(1.0) for t in f.terms
    )
    assert local_norm(f, 0, 2) == pytest.approx(4.0)  # sqrt(16)


def test_fermi_hop_qubit_image_hermitian():
    from trotterlab.dense import is_hermitian, to_matrix

    f = fermi_hop(1)
    mat = to_matrix(jordan_wigner(f), cap_n=6)
    assert is_hermitian(mat)


def test_fermi_hop_m1_monomials():
    # a+_b a_a gets normal-ordered to (a,-),(b,+) with one inversion.
    f = fermi_hop(1)
    kinds = [tuple(k for _, k in t.factors) for t in f.terms]
    assert kinds == [("+", "-"), ("-", "+")] * 2
    sites = [tuple(s for s, _ in t.factors) for t in f.terms]
    assert sites == [(0, 1), (0, 1), (1, 2), (1, 2)]
    assert [t.coeff for t in f.terms] == [1.0, -1.0, 1.0, -1.0]


@pytest.mark.parametrize(
    "build",
    [
        lambda: chain_heisenberg(10**6),
        lambda: power_law(20000, 1, 2.0),
        lambda: power_law(10**9, 1, 2.0),
        lambda: KLocalGaussianModel(40, 7, 1.0, seed=1),
        lambda: KLocalGaussianModel(1000, 500, 1.0, seed=1),
        lambda: zxyz(10**5),
        lambda: fermi_hop(10**5),
    ],
)
def test_models_above_the_memory_budget_are_refused_before_building(build):
    with pytest.raises(ResourceCapError, match="bytes of memory"):
        build()


def test_memory_budget_boundary_and_error_precedence():
    _check_size(_MODEL_BYTES // 1000, 1000)
    with pytest.raises(ResourceCapError):
        _check_size(_MODEL_BYTES // 1000 + 1, 1000)
    # a malformed lattice is bad input, however large
    with pytest.raises(ValidationError, match="lattice"):
        power_law(20001, 2, 2.0)
