"""Lab experiments: error sampling, inequality fuzzing, slope checks."""

import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from trotterlab.dense import (
    WeightedNormSpec,
    _trotter_power,
    basis_indices,
    evolve,
    schatten_norm,
    to_matrix,
    trotter_error_op,
)
from trotterlab.errors import ValidationError
from trotterlab.lab import (
    ExperimentConfig,
    _Tally,
    _recenter_site,
    _with_identity_site,
    check_fermionic_smoothness,
    check_hypercontractivity,
    check_order_condition,
    check_two_point_inequality,
    check_uniform_smoothness,
    check_weighted_smoothness,
    fermi_optimality_experiment,
    fuzz_hypercontractivity,
    optimality_experiment,
    pauli_two_norm,
    random_local_hamiltonian,
    random_local_operator,
    random_r_sweep,
    sample_random_hamiltonian,
    sample_typical_error,
    support_components,
)
from trotterlab.models import KLocalGaussianModel, chain_heisenberg
from trotterlab.pauli import PauliHamiltonian, PauliSum, PauliString


# ------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(seed=0, samples=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(seed=0, ensemble="nope")
    with pytest.raises(ValidationError):
        ExperimentConfig(seed=0, p_values=(0.5,))
    with pytest.raises(ValidationError):
        ExperimentConfig(seed=0, r=0)


# ------------------------------------------------- typical-state errors


def test_typical_error_commuting_hamiltonian_is_exact():
    h = PauliHamiltonian.from_labels(
        3, [("ZII", 0.7), ("IZI", -0.3), ("IIZ", 1.1)]
    )
    cfg = ExperimentConfig(seed=5, samples=50, t=1.3, r=2, order=1)
    rep = sample_typical_error(h, cfg)
    assert rep.spectral < 1e-10
    assert all(v < 1e-10 for v in rep.exact_pnorms.values())
    assert rep.mean_error < 1e-10
    assert all(row.empirical == 0.0 for row in rep.markov_rows)
    assert all(row.consistent for row in rep.markov_rows)


def test_typical_error_deterministic_reports():
    h = chain_heisenberg(4)
    cfg = ExperimentConfig(
        seed=11, samples=80, t=0.9, r=3, order=2, eps_grid=(0.05, 0.2)
    )
    assert sample_typical_error(h, cfg) == sample_typical_error(h, cfg)


def test_typical_error_markov_consistency_and_quantiles():
    h = chain_heisenberg(4)
    cfg = ExperimentConfig(
        seed=3,
        samples=400,
        t=1.0,
        r=2,
        order=1,
        p_values=(2.0, 4.0),
        eps_grid=(0.01, 0.05, 0.1, 0.5),
    )
    rep = sample_typical_error(h, cfg)
    assert all(row.consistent for row in rep.markov_rows)
    qs = list(rep.quantiles.values())
    assert qs == sorted(qs)
    # Expected-p-norm of a deterministic operator equals its p-norm.
    assert rep.expected_pnorms == rep.exact_pnorms
    # The probe sup dominates every sampled basis-state error.
    assert rep.fixed_pnorms[2.0] >= rep.quantiles[1.0] - 1e-12


def test_typical_error_basis_draws_are_column_norms():
    # Each basis-1-design error is ||E e_i||, the column norm of E at the
    # drawn index, and the fixed-input lower bound covers every column.
    h = chain_heisenberg(3)
    cfg = ExperimentConfig(seed=15, samples=40, t=0.9, r=2, order=1)
    rep = sample_typical_error(h, cfg)
    e = trotter_error_op(h, cfg.t, cfg.r, cfg.order)
    draws = basis_indices(h.n, cfg.samples, np.random.default_rng(np.random.SeedSequence(cfg.seed)))
    errors = [float(np.linalg.norm(e @ np.eye(8)[i])) for i in draws]
    assert rep.mean_error == pytest.approx(math.fsum(errors) / cfg.samples, rel=1e-12)
    expected = np.quantile(errors, list(rep.quantiles))
    assert list(rep.quantiles.values()) == pytest.approx(expected.tolist(), rel=1e-12)
    assert rep.fixed_pnorms[2.0] >= max(np.linalg.norm(e[:, i]) for i in range(8))


def test_typical_error_haar_ensemble():
    h = chain_heisenberg(3)
    cfg = ExperimentConfig(seed=9, samples=60, t=0.8, r=1, order=1, ensemble="haar")
    rep = sample_typical_error(h, cfg)
    assert rep.quantiles[1.0] <= rep.fixed_pnorms[2.0] + 1e-12
    assert rep.spectral > 0


def test_typical_error_rejects_operator_ensemble():
    with pytest.raises(ValidationError, match="unknown ensemble"):
        ExperimentConfig(seed=0, ensemble="gaussian-hamiltonian")


# --------------------------------------------------- random Hamiltonians


def test_random_hamiltonian_report_basics():
    model = KLocalGaussianModel(n=4, k=2, seed=7)
    cfg = ExperimentConfig(seed=21, samples=40, t=0.4, r=2, order=1)
    rep = sample_random_hamiltonian(model, cfg)
    assert rep.kind == "random-hamiltonian"
    assert rep.extras["trace_distance_violations"] == 0
    assert rep.mean_error > 0
    assert rep.spectral > 0
    qs = list(rep.quantiles.values())
    assert qs == sorted(qs)
    assert rep == sample_random_hamiltonian(model, cfg)


def test_random_hamiltonian_memory_stays_within_three_and_a_half_matrices():
    # The peak of a draw is evolve's on this one-block complex Hamiltonian:
    # the eigenvectors, the result, the scaled eigenvectors and one 64-column
    # panel of their product with its scatter index (3.40 MiB at n = 8; the
    # whole product took 4.14).  The power and the difference come after.
    model = KLocalGaussianModel(n=8, k=2, seed=3)
    cfg = ExperimentConfig(seed=3, samples=1, t=1.0, r=5000, order=2)
    tracemalloc.start()
    try:
        sample_random_hamiltonian(model, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 16 * 4**8


def _mp_trace_distance(a, b):
    """sqrt(1 - |<a, b>|^2 / (|a|^2 |b|^2)) of two float vectors, in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = [mpmath.mpc(complex(x)) for x in a]
        b = [mpmath.mpc(complex(x)) for x in b]
        ab = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(a, b))
        aa = mpmath.fsum(abs(x) ** 2 for x in a)
        bb = mpmath.fsum(abs(y) ** 2 for y in b)
        return float(mpmath.sqrt(1 - abs(ab) ** 2 / (aa * bb)))


@pytest.mark.parametrize("r", [50, 5000])
def test_random_hamiltonian_trace_distance_matches_mpmath(r):
    # At r = 5000 the distances are about 1e-8, where 1 - |<a, b>|^2 cancels
    # to a few ulps of 1: it read 0, 5.96e-8, 2.58e-8 and 4.47e-8 against the
    # true 6.51e-9, 1.02e-8, 1.02e-8 and 5.68e-9, and counted two draws as
    # exceeding their 2 l2 ceilings.
    model = KLocalGaussianModel(n=6, k=2, seed=3)
    cfg = ExperimentConfig(seed=1, samples=4, t=1.0, r=r, order=2)
    rep = sample_random_hamiltonian(model, cfg)
    expected, violations = [], 0
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.samples):
        h = model.sample(child)
        a = evolve(h, cfg.t)[:, 0]
        b = _trotter_power(h, cfg.t, r, cfg.order, cfg.cap_n)[:, 0]
        expected.append(_mp_trace_distance(a, b))
        violations += expected[-1] > 2.0 * float(np.linalg.norm(a - b)) + 1e-12
    assert rep.extras["trace_distance_mean"] == pytest.approx(np.mean(expected), rel=1e-9, abs=0)
    assert rep.extras["trace_distance_violations"] == violations == 0


def test_random_hamiltonian_variance_scaling():
    # Scaling every coefficient by 2 scales the leading error by 4.
    cfg = ExperimentConfig(seed=33, samples=40, t=0.15, r=1, order=1)
    small = sample_random_hamiltonian(KLocalGaussianModel(n=4, k=2, seed=5), cfg)
    big = sample_random_hamiltonian(
        KLocalGaussianModel(n=4, k=2, j_coupling=2.0, seed=5), cfg
    )
    ratio = big.spectral / small.spectral
    assert ratio == pytest.approx(4.0, rel=0.15)


def test_random_r_sweep_first_order_slope():
    model = KLocalGaussianModel(n=4, k=2, seed=2)
    cfg = ExperimentConfig(seed=17, samples=30, t=0.5, order=1)
    sweep = random_r_sweep(model, cfg, r_values=(1, 2, 4, 8, 16))
    assert sweep.slope_vs_r == pytest.approx(-1.0, abs=0.1)
    assert all(a > b for a, b in zip(sweep.mean_errors, sweep.mean_errors[1:]))


# ------------------------------------------------------ hypercontractivity


def test_hypercontractivity_single_site():
    z1 = PauliSum(2, [(PauliString.from_label("ZI"), 1.0)])
    checks = check_hypercontractivity(z1, (2.0, 4.0, 8.0))
    for p, res in zip((2.0, 4.0, 8.0), checks):
        assert res.p == p
        assert res.lhs == pytest.approx(1.0)
        assert res.rhs == pytest.approx(p - 1.0)
        assert res.margin == pytest.approx(p - 2.0)
        assert res.passed


def test_hypercontractivity_identity_equality():
    ident = PauliSum(2, [(PauliString.from_label("II"), 1.0)])
    (res,) = check_hypercontractivity(ident, (4.0,))
    assert res.lhs == pytest.approx(1.0)
    assert res.rhs == pytest.approx(1.0)
    assert res.margin == pytest.approx(0.0, abs=1e-12)
    assert res.passed


def test_hypercontractivity_zero_operator_holds_with_equality():
    for zero in (PauliSum(2, []), np.zeros((4, 4))):
        (res,) = check_hypercontractivity(zero, (4.0,))
        assert (res.lhs, res.rhs, res.margin, res.fact_rhs, res.two_norm_rhs) == (0, 0, 0, 0, 0)
        assert res.passed


def test_hypercontractivity_symbolic_matches_matrix_path():
    rng = np.random.default_rng(12)
    f = random_local_operator(3, 2, 5, rng)
    (sym,) = check_hypercontractivity(f, (4.0,))
    (mat,) = check_hypercontractivity(to_matrix(f), (4.0,))
    assert sym.lhs == pytest.approx(mat.lhs, rel=1e-9)
    assert sym.rhs == pytest.approx(mat.rhs, rel=1e-9)
    assert sym.fact_rhs == pytest.approx(mat.fact_rhs, rel=1e-9)


def test_support_components_sum_back():
    rng = np.random.default_rng(4)
    f = random_local_operator(3, 3, 6, rng)
    comps = support_components(f)
    total = sum(comps.values())
    assert np.allclose(total, to_matrix(f), atol=1e-12)


def test_hypercontractivity_fuzz_small():
    rep = fuzz_hypercontractivity(trials=100, seed=424)
    assert rep.passed
    assert rep.violations == 0
    assert rep.checks == 400
    assert rep.worst_relative_margin >= -1e-9


@pytest.mark.parametrize(
    "f, p_values",
    [
        (np.full((2, 2), 1e200), (4.0,)),
        (np.full((4, 4), 1e160), (4.0, 6.0)),
        (PauliSum(2, [(PauliString.from_label("ZZ"), 1e160)]), (4.0,)),
    ],
    ids=["matrix-2x2", "matrix-4x4", "pauli-sum"],
)
def test_hypercontractivity_past_the_float_range_is_refused_without_a_warning(f, p_values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="floating-point range"):
            check_hypercontractivity(f, p_values)


def test_hypercontractivity_rejects_small_p():
    with pytest.raises(ValidationError):
        check_hypercontractivity(PauliSum(1, [(PauliString.from_label("Z"), 1.0)]), (4.0, 1.5))


# ---------------------------------------------------------- smoothness


def test_with_identity_site_matches_kron():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    left = _with_identity_site(m, 0, 3)
    right = _with_identity_site(m, 2, 3)
    assert np.allclose(left, np.kron(np.eye(2), m))
    assert np.allclose(right, np.kron(m, np.eye(2)))


def test_recenter_site_kills_weighted_marginal():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for w in (0.5, 0.3):
        yc = _recenter_site(y, 1, 3, weight=w)
        t = yc.reshape((2,) * 6)
        marg = w * t[:, 0, :, :, 0, :] + (1 - w) * t[:, 1, :, :, 1, :]
        assert np.allclose(marg, 0.0, atol=1e-12)


def test_uniform_smoothness_fuzz():
    for p in (2.0, 3.0, 4.0, 6.0):
        rep = check_uniform_smoothness(site=0, p=p, trials=100, n=3, seed=8)
        assert rep.passed, f"violations at p={p}"
    rep = check_uniform_smoothness(site=1, p=4.0, trials=50, n=3, seed=9)
    assert rep.passed


def test_two_point_inequality_vectorized():
    rep = check_two_point_inequality(trials=20000, seed=3)
    assert rep.passed
    assert rep.worst_relative_margin >= -1e-9


def test_empty_suites_report_no_checks():
    reports = [
        check_two_point_inequality(0),
        check_uniform_smoothness(0, 4.0, 0),
        fuzz_hypercontractivity(0, 1),
    ]
    for rep in reports:
        assert (rep.trials, rep.checks, rep.violations) == (0, 0, 0)
        assert rep.worst_relative_margin == math.inf
        assert rep.passed and rep.dump_path is None


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_tally_refuses_a_side_outside_the_float_range(bad):
    with pytest.raises(ValidationError, match="floating-point range"):
        _Tally("t").inequality(1.0, bad, dict)
    with pytest.raises(ValidationError, match="floating-point range"):
        _Tally("t").inequality(bad, 1.0, dict)
    with pytest.raises(ValidationError, match="floating-point range"):
        _Tally("t").inequality(np.array([1.0, bad]), np.array([2.0, 2.0]), dict)
    with pytest.raises(ValidationError, match="floating-point range"):
        _Tally("t").inequality(np.array([1.0, 1.0]), np.array([bad, 2.0]), dict)


def test_tally_counts_and_dumps_violations(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    folder = tmp_path / "trotterlab-counterexamples"

    scalar = _Tally("scalar")
    scalar.inequality(1.0, 2.0, lambda: {"x": np.eye(2)})
    scalar.inequality(3.0, 2.0, lambda: {"x": np.ones(2)})
    scalar.inequality(5.0, 2.0, lambda: {"x": np.zeros(2)})
    rep = scalar.report(3)
    assert (rep.checks, rep.violations, rep.passed) == (3, 2, False)
    assert rep.worst_relative_margin == pytest.approx(-1.5)
    assert list(folder.glob("scalar-*.npz")) == [Path(rep.dump_path)]
    with np.load(rep.dump_path) as dump:
        np.testing.assert_array_equal(dump["x"], np.ones(2))

    a = np.array([0.0, 1.0, 2.0, 3.0])
    array = _Tally("array")
    array.inequality(np.array([1.0, 4.0, 1.0, 8.0]), np.array([2.0, 2.0, 2.0, 2.0]), lambda: {"a": a})
    rep = array.report(4)
    assert (rep.checks, rep.violations, rep.passed) == (4, 2, False)
    assert rep.worst_relative_margin == pytest.approx(-3.0)
    assert list(folder.glob("array-*.npz")) == [Path(rep.dump_path)]
    with np.load(rep.dump_path) as dump:
        np.testing.assert_array_equal(dump["a"], [1.0, 3.0])


def test_weighted_smoothness_fuzz():
    spec = WeightedNormSpec(weights=(0.3, 0.7, 0.5), s=0.5, p=4.0)
    rep = check_weighted_smoothness(spec, trials=60, site=1, seed=14)
    assert rep.passed
    # Maximally mixed weights reduce to the unweighted statement.
    flat = WeightedNormSpec(weights=(0.5, 0.5, 0.5), s=0.5, p=4.0)
    rep2 = check_weighted_smoothness(flat, trials=60, site=0, seed=15)
    assert rep2.passed


def test_fermionic_smoothness_fuzz():
    rep = check_fermionic_smoothness(n=4, trials=50, p=4.0, seed=6)
    assert rep.passed
    assert rep.worst_relative_margin >= -1e-9


# ------------------------------------------------------ order condition


def test_order_condition_commuting_reports_exact():
    h = PauliHamiltonian.from_labels(2, [("ZI", 0.4), ("IZ", 0.9)])
    rep = check_order_condition(h, 1)
    assert rep.exact
    assert rep.slope is None


def test_order_condition_slopes():
    h = random_local_hamiltonian(4, 2, 8, seed=123)
    rep1 = check_order_condition(h, 1)
    assert rep1.slope == pytest.approx(2.0, abs=0.15)
    rep2 = check_order_condition(h, 2)
    assert rep2.slope == pytest.approx(3.0, abs=0.15)


def test_order_condition_widens_on_tiny_coefficients():
    h = random_local_hamiltonian(3, 2, 6, seed=7, scale=1e-4)
    rep = check_order_condition(h, 1)
    assert rep.widened
    assert not rep.exact
    assert rep.slope == pytest.approx(2.0, abs=0.2)


# ------------------------------------------------- optimality experiments


def test_optimality_first_order_closed_forms():
    for m in (1, 2, 3):
        rep = optimality_experiment(m, 1)
        assert rep.norm2 == pytest.approx(2.0 * m**1.5, rel=1e-12)
        assert rep.spectral == pytest.approx(2.0 * m**3, rel=1e-9)
        assert rep.norm2_matches and rep.spectral_matches
        assert rep.ratio == pytest.approx(m**1.5, rel=1e-9)


def test_optimality_m1_single_string():
    rep = optimality_experiment(1, 1)
    assert len(rep.commutator.terms) == 1
    assert abs(rep.commutator.terms[0].coeff) == pytest.approx(2.0)
    assert rep.norm2 == pytest.approx(2.0)
    assert rep.spectral == pytest.approx(2.0)


def test_optimality_second_order_closed_forms():
    for m in (1, 2):
        rep = optimality_experiment(m, 2)
        assert rep.norm2 == pytest.approx(
            4.0 * m**1.5 * math.sqrt(3 * m - 2), rel=1e-12
        )
        assert rep.spectral == pytest.approx(4.0 * m**4, rel=1e-9)
        assert rep.norm2_matches and rep.spectral_matches


def test_optimality_rejects_other_orders():
    with pytest.raises(ValidationError):
        optimality_experiment(1, 3)


def test_fermi_optimality_true_values_and_claim_gap():
    # m = 5 has 15 sites, past the dense cap: no matrix is built.
    for m in (1, 2, 5):
        rep = fermi_optimality_experiment(m)
        # True normalized 2-norms sit a factor 2 sqrt(2) under the claims.
        assert rep.first_norm2 == pytest.approx(m**2 / math.sqrt(2), rel=1e-9)
        assert rep.second_norm2 == pytest.approx(m**3 / math.sqrt(2), rel=1e-9)
        assert not rep.first_matches
        assert not rep.second_matches
        assert rep.first_ratio == pytest.approx(2.0 * math.sqrt(2), rel=1e-9)
        assert rep.second_ratio == pytest.approx(2.0 * math.sqrt(2), rel=1e-9)


def test_pauli_two_norm_matches_dense():
    rng = np.random.default_rng(2)
    f = random_local_operator(3, 2, 5, rng)
    assert pauli_two_norm(f) == pytest.approx(
        schatten_norm(to_matrix(f), 2, normalized=True), rel=1e-9
    )
