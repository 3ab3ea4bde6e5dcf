"""Lab experiments: error sampling, inequality fuzzing, slope checks."""

import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import trotterlab.dense
from trotterlab.dense import (
    WeightedNormSpec,
    _actions,
    _conditional_expectation,
    _trotter_power,
    _with_identity,
    apply_schedule,
    basis_indices,
    evolve,
    schatten_norm,
    sector_norm,
    subset_component,
    to_matrix,
    trotter_error_op,
    weighted_norm,
)
from trotterlab.errors import ResourceCapError, ValidationError
from trotterlab.lab import (
    ExperimentConfig,
    _Tally,
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
    sample_random_hamiltonian,
    sample_typical_error,
    support_components,
)
from trotterlab.models import KLocalGaussianModel, chain_heisenberg, fermi_hop, fermi_hop_groups
from trotterlab.pauli import (
    FermionHamiltonian,
    FermionTerm,
    PauliHamiltonian,
    PauliString,
    PauliSum,
    commutator_sum,
)
from trotterlab.suzuki import build_schedule


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
    assert rep.mean_error > 0
    assert rep.spectral > 0
    qs = list(rep.quantiles.values())
    assert qs == sorted(qs)
    assert rep == sample_random_hamiltonian(model, cfg)


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
    # true 6.51e-9, 1.02e-8, 1.02e-8 and 5.68e-9.
    model = KLocalGaussianModel(n=6, k=2, seed=3)
    cfg = ExperimentConfig(seed=1, samples=4, t=1.0, r=r, order=2)
    rep = sample_random_hamiltonian(model, cfg)
    expected = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.samples):
        h = model.sample(child)
        a = evolve(h, cfg.t)[:, 0]
        b = _trotter_power(_actions(h), cfg.t, r, cfg.order)[:, 0]
        expected.append(_mp_trace_distance(a, b))
    assert rep.extras["trace_distance_mean"] == pytest.approx(np.mean(expected), rel=1e-9, abs=0)


def test_random_hamiltonian_variance_scaling():
    # Scaling every coefficient by 2 scales the leading error by 4.
    cfg = ExperimentConfig(seed=33, samples=40, t=0.15, r=1, order=1)
    small = sample_random_hamiltonian(KLocalGaussianModel(n=4, k=2, seed=5), cfg)
    big = sample_random_hamiltonian(
        KLocalGaussianModel(n=4, k=2, j_coupling=2.0, seed=5), cfg
    )
    ratio = big.spectral / small.spectral
    assert ratio == pytest.approx(4.0, rel=0.15)


def test_random_ensemble_first_order_slope():
    model = KLocalGaussianModel(n=4, k=2, seed=2)
    r_values = (1, 2, 4, 8, 16)
    means = [
        sample_random_hamiltonian(
            model, ExperimentConfig(seed=17, samples=30, t=0.5, r=r, order=1)
        ).mean_error
        for r in r_values
    ]
    slope = np.polyfit(np.log(r_values), np.log(means), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)
    assert all(a > b for a, b in zip(means, means[1:]))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_SYK8_MODEL = KLocalGaussianModel(n=8, k=2, seed=3)
_PEAK_HAMILTONIANS = {
    "chain": chain_heisenberg(8),
    "syk": _SYK8_MODEL.sample(np.random.SeedSequence(1)),
}
_PEAK_RS = (1, 2, 107, 4096, 4097)


def _random_draw(r):
    cfg = ExperimentConfig(seed=3, samples=1, t=1.0, r=r, order=2)
    return lambda: sample_random_hamiltonian(_SYK8_MODEL, cfg)


@pytest.mark.parametrize(
    "call, matrices",
    [
        (_random_draw(107), 4.5),
        (_random_draw(5000), 3.5),
        (lambda: trotter_error_op(_PEAK_HAMILTONIANS["syk"], 1.0, 2, 2), 3.5),
        (lambda: trotter_error_op(_PEAK_HAMILTONIANS["syk"], 1.0, 5000, 2), 3.5),
    ],
    ids=[
        "random-ensemble-r107",
        "random-ensemble-r5000",
        "trotter_error_op-r2",
        "trotter_error_op-r5000",
    ],
)
def test_error_operator_on_one_complex_block_takes_the_lower_order(call, matrices):
    # Where the binary power holds up to four matrices, it comes before
    # e^{iHt}: the ensemble's own evolve-first build held e^{iHt} next to
    # it, 5.01 matrices.  Where the power holds two at most, e^{iHt} comes
    # first and peaks as evolve does (the eigenvectors, the result, the
    # scaled eigenvectors and one 64-column panel of their product with its
    # scatter index; the whole product took 4.14): running _eigh's workspace
    # next to the power took 4.03 at r = 2 and 3.64 at 5000.  Measured 4.04
    # and 3.40.
    assert _traced_peak(call) <= matrices * 16 * 4**8


def _dense_entries():
    """(id, call) of every entry that checks a dense estimate, on the 8-site
    chain and an 8-site k = 2 SYK draw (one complex coset block)."""
    for name, h in _PEAK_HAMILTONIANS.items():
        yield f"to_matrix-{name}", lambda h=h: to_matrix(h)
        yield f"evolve-{name}", lambda h=h: evolve(h, 1.0)
        yield f"apply_schedule-{name}", lambda h=h: apply_schedule(
            h, build_schedule(h.gamma, 2, 0.1)
        )
        for r in _PEAK_RS:
            yield f"trotter_error_op-{name}-r{r}", lambda h=h, r=r: trotter_error_op(h, 1.0, r, 2)
        yield f"sector_norm-{name}", lambda h=h: sector_norm(h, 4, 4.0)
        yield f"subset_component-{name}", lambda h=h: subset_component(h, {0, 1})
        yield f"weighted_norm-{name}", lambda h=h: weighted_norm(
            h, WeightedNormSpec((0.3,) * 8, 0.5, 4.0)
        )
    for r in _PEAK_RS:
        cfg = ExperimentConfig(seed=3, samples=1, t=1.0, r=r, order=2)
        yield f"sample_random_hamiltonian-r{r}", lambda cfg=cfg: sample_random_hamiltonian(
            _SYK8_MODEL, cfg
        )


@pytest.mark.parametrize("entry", [pytest.param(call, id=name) for name, call in _dense_entries()])
def test_traced_peak_of_every_dense_entry_is_within_its_estimate(entry, monkeypatch):
    check = trotterlab.dense._check_dense
    estimates = []

    def recording(n, matrices):
        estimates.append(16 * 4**n * matrices)
        check(n, matrices)

    monkeypatch.setattr(trotterlab.dense, "_check_dense", recording)
    monkeypatch.setattr(trotterlab.lab, "_check_dense", recording)
    peak = _traced_peak(entry)
    # The entry's own estimate is checked first, the dense calls inside it after.
    assert peak <= estimates[0]


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


@pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-13, 1e-15, 1e-20])
def test_hypercontractivity_of_a_small_matrix_keeps_its_components(scale):
    # The component floor is relative to the operator's norm: an absolute one
    # dropped every component below norm 1e-14 and read rhs = 0.
    f = PauliSum(2, [(PauliString.from_label("ZX"), 1.0), (PauliString.from_label("XI"), 0.5)])
    (sym,) = check_hypercontractivity(f, (4.0,))
    (res,) = check_hypercontractivity(scale * to_matrix(f), (4.0,))
    assert res.passed
    assert res.rhs == pytest.approx(scale**2 * sym.rhs, rel=1e-9)


def test_hypercontractivity_symbolic_matches_matrix_path():
    rng = np.random.default_rng(12)
    f = random_local_operator(3, 2, 5, rng)
    (sym,) = check_hypercontractivity(f, (4.0,))
    (mat,) = check_hypercontractivity(to_matrix(f), (4.0,))
    assert sym.lhs == pytest.approx(mat.lhs, rel=1e-9)
    assert sym.rhs == pytest.approx(mat.rhs, rel=1e-9)
    assert sym.fact_rhs == pytest.approx(mat.fact_rhs, rel=1e-9)


def _aggregated_rhs_oracle(f, p):
    # |sum_S C_p^(|S|/2) F_S|_2 from the dense combination itself.
    cp = p - 1.0
    comps = support_components(f)
    combo = sum((cp ** (len(s) / 2.0) * c for s, c in comps.items()), np.zeros_like(to_matrix(f)))
    return schatten_norm(combo, 2, normalized=True)


@pytest.mark.parametrize("path", ["pauli", "matrix"])
def test_hypercontractivity_aggregated_form_matches_dense_combination(path):
    rng = np.random.default_rng(2024)
    p_values = (2.0, 4.0, 6.0, 8.0)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        f = random_local_operator(n, min(3, n), int(rng.integers(1, 9)), rng)
        if path == "matrix":
            f = to_matrix(f)
        for p, res in zip(p_values, check_hypercontractivity(f, p_values)):
            assert res.fact_rhs == pytest.approx(_aggregated_rhs_oracle(f, p), rel=1e-12, abs=0)


@pytest.mark.parametrize("path", ["pauli", "matrix"])
def test_hypercontractivity_takes_one_svd_per_operator_and_component(monkeypatch, path):
    # Every Schatten norm in the package reads dense._singular_values.
    calls = []
    singular_values = trotterlab.dense._singular_values

    def counted(m):
        calls.append(m.shape)
        return singular_values(m)

    monkeypatch.setattr(trotterlab.dense, "_singular_values", counted)
    f = random_local_operator(3, 2, 6, np.random.default_rng(5))
    if path == "matrix":
        f = to_matrix(f)
    components = len(support_components(f))
    check_hypercontractivity(f, (2.0, 4.0, 6.0, 8.0))
    assert len(calls) == 1 + components


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", [(2, 2), (4, 4)])
def test_hypercontractivity_refuses_a_non_finite_operator(bad, shape):
    # The operator is the caller's: the message names it, not an evolution time.
    for m in (np.full(shape, bad), np.where(np.eye(shape[0]) > 0, bad, 0.5)):
        with pytest.raises(ValidationError, match="operator has an infinite or NaN entry"):
            check_hypercontractivity(m, (4.0,))


def test_hypercontractivity_rejects_small_p():
    with pytest.raises(ValidationError):
        check_hypercontractivity(PauliSum(1, [(PauliString.from_label("Z"), 1.0)]), (4.0, 1.5))


# ---------------------------------------------------------- smoothness


def test_with_identity_matches_kron():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    left = _with_identity(m, 0, 3)
    right = _with_identity(m, 2, 3)
    assert np.allclose(left, np.kron(np.eye(2), m))
    assert np.allclose(right, np.kron(m, np.eye(2)))


def test_recentering_by_the_conditional_expectation_kills_weighted_marginal():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for w in (0.5, 0.3):
        yc = y - _conditional_expectation(y, 1, 3, w)
        t = yc.reshape((2,) * 6)
        marg = w * t[:, 0, :, :, 0, :] + (1 - w) * t[:, 1, :, :, 1, :]
        assert np.allclose(marg, 0.0, atol=1e-12)


def test_uniform_smoothness_fuzz():
    for p in (2.0, 3.0, 4.0, 6.0):
        rep = check_uniform_smoothness(site=0, p=p, trials=100, seed=8)
        assert rep.passed, f"violations at p={p}"
    rep = check_uniform_smoothness(site=1, p=4.0, trials=50, seed=9)
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


def test_optimality_refuses_a_wide_model_before_its_commutator():
    # At m = 100 the order-1 commutator's product alone has 10^8 rows; the
    # dense estimate refuses its 300-qubit matrix before any is formed.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=r"^dense work on 300 qubits needs more than"):
            optimality_experiment(100, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_optimality_cap_message_names_no_missing_knob():
    # m = 5 has 15 sites; the commutator's dense matrix is past the budget.
    with pytest.raises(ResourceCapError, match=r"^dense work on 15 qubits needs more than") as info:
        optimality_experiment(5, 1)
    assert "cap_n" not in str(info.value)


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


def _fermi_hop_commutators(m, pair_scale):
    # [A, B] and [B, [B, A]] of fermi_hop(m), every hopping monomial scaled.
    f = fermi_hop(m)
    a, b = (
        FermionHamiltonian(
            f.n, [FermionTerm(f.terms[i].factors, pair_scale * f.terms[i].coeff) for i in group]
        ).to_pauli()
        for group in fermi_hop_groups(m)
    )
    return commutator_sum(a, b), commutator_sum(b, commutator_sum(b, a))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fermi_hop_convention_audit(m):
    # Criterion 3 claims 2 m^2 and 2 m^3.  A hopping pair a+b + b+a has
    # normalized 2-norm 1/sqrt(2); a pair scale of sqrt(2) makes it 1.  The
    # sector norms are over the C(3m, 1) = 3m one-particle states.
    unit = math.sqrt(2.0)
    expected = {
        ("full", 1.0): (m**2 / math.sqrt(2.0), m**3 / math.sqrt(2.0)),
        ("full", unit): (math.sqrt(2.0) * m**2, 2.0 * m**3),
        ("sector", 1.0): (math.sqrt(2.0 * m**3 / 3.0), math.sqrt(2.0 * m**5 / 3.0)),
        ("sector", unit): (2.0 * math.sqrt(2.0 * m**3 / 3.0), 4.0 * math.sqrt(m**5 / 3.0)),
    }
    found = {}
    for pair_scale in (1.0, unit):
        first, second = _fermi_hop_commutators(m, pair_scale)
        found["full", pair_scale] = (pauli_two_norm(first), pauli_two_norm(second))
        if m <= 2:
            found["sector", pair_scale] = tuple(
                sector_norm(to_matrix(c), 1, 2.0).value for c in (first, second)
            )
    claims = (2.0 * m**2, 2.0 * m**3)
    for key, values in found.items():
        assert values == pytest.approx(expected[key], rel=1e-9)
        # Only the unit-pair full-space [B, [B, A]] meets its claim.
        met = tuple(math.isclose(v, c, rel_tol=1e-9) for v, c in zip(values, claims))
        assert met == (False, key == ("full", unit))


def test_pauli_two_norm_matches_dense():
    rng = np.random.default_rng(2)
    f = random_local_operator(3, 2, 5, rng)
    assert pauli_two_norm(f) == pytest.approx(
        schatten_norm(to_matrix(f), 2, normalized=True), rel=1e-9
    )
