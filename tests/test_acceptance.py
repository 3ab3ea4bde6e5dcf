"""Acceptance gate: one test per release criterion.

Each criterion is self-contained, pins its tolerances explicitly, and is
reported as a single PASS/FAIL line in the terminal summary (see
conftest.py).  Criterion 3 asserts the *claimed* closed forms for the
fermionic hopping model; the measured brute-force norms sit a factor
2*sqrt(2) below those claims (the spin-model halves of the criterion all
match), so that assertion documents the discrepancy rather than hiding
it.  The true measured values are locked in by
tests/test_lab.py::test_fermi_optimality_true_values_and_claim_gap.
"""

import math
import time

import numpy as np
import pytest

from trotterlab.bounds import (
    GateCountQuery,
    gatecount,
    table1_all,
    table1_exponents,
    truncation_plan,
)
from trotterlab.cli import main as cli_main
from trotterlab.dense import (
    WeightedNormSpec,
    basis_indices,
    schatten_norm,
    trotter_error_op,
)
from trotterlab.lab import (
    ExperimentConfig,
    check_fermionic_smoothness,
    check_order_condition,
    check_two_point_inequality,
    check_uniform_smoothness,
    check_weighted_smoothness,
    fermi_optimality_experiment,
    fuzz_hypercontractivity,
    optimality_experiment,
    random_local_hamiltonian,
    sample_random_hamiltonian,
    sample_typical_error,
)
from trotterlab.models import KLocalGaussianModel, chain_heisenberg
from trotterlab.suzuki import q_coefficient, upsilon


@pytest.mark.acceptance(1, "product-formula order condition (slopes 2, 3, 5)", budget=10)
def test_criterion_01_order_condition_slopes():
    start = time.perf_counter()
    taus = tuple(np.geomspace(1e-3, 1e-2, 7))
    # Coefficient scale 4: large enough that the smallest tau's error for
    # order 4 (~1e-13) clears double-precision noise, small enough that the
    # largest stays far from the unitary-norm ceiling.
    h = random_local_hamiltonian(4, 2, 8, seed=123, scale=4.0)
    for order in (1, 2, 4):
        rep = check_order_condition(h, order, taus=taus)
        assert rep.slope == pytest.approx(order + 1, abs=0.15), f"order {order}"
    assert time.perf_counter() - start < 10.0


@pytest.mark.acceptance(2, "first-order commutator closed forms (2m^1.5, 2m^3)", budget=30)
def test_criterion_02_first_order_closed_forms():
    start = time.perf_counter()
    for m in (1, 2, 3):
        rep = optimality_experiment(m, 1)
        assert rep.norm2 == pytest.approx(2.0 * m**1.5, rel=1e-9)
        assert rep.spectral == pytest.approx(2.0 * m**3, rel=1e-9)
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(
    3, "second-order spin + fermionic commutator closed forms as claimed", budget=60
)
def test_criterion_03_second_order_and_fermionic_closed_forms():
    start = time.perf_counter()
    for m in (1, 2):
        rep = optimality_experiment(m, 2)
        assert rep.norm2 == pytest.approx(
            4.0 * m**1.5 * math.sqrt(3 * m - 2), rel=1e-9
        )
        assert rep.spectral == pytest.approx(4.0 * m**4, rel=1e-9)
    for m in (1, 2):
        frep = fermi_optimality_experiment(m)
        # Claimed: 2 sqrt(m) * m * sqrt(m) = 2 m^2 and 2 sqrt(m) * m^2 *
        # sqrt(m) = 2 m^3.  Brute force measures m^2/sqrt(2) and
        # m^3/sqrt(2) -- a fixed factor 2 sqrt(2) below the claims.
        assert frep.first_norm2 == pytest.approx(2.0 * m**2, rel=1e-9)
        assert frep.second_norm2 == pytest.approx(2.0 * m**3, rel=1e-9)
    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(4, "hypercontractivity fuzz, 1000 operators", budget=300)
def test_criterion_04_hypercontractivity_suite():
    start = time.perf_counter()
    rep = fuzz_hypercontractivity(trials=1000, seed=20260825)
    assert rep.checks == 4000  # p in {2, 4, 6, 8} per operator
    assert rep.violations == 0, f"counterexample dumped to {rep.dump_path}"
    assert rep.worst_relative_margin >= -1e-9
    assert time.perf_counter() - start < 300.0


@pytest.mark.acceptance(
    5, "uniform-smoothness suites (1000/500/200/100000 trials)", budget=300
)
def test_criterion_05_smoothness_suites():
    start = time.perf_counter()
    subsystem_trials = 0
    for p in (2.0, 4.0, 6.0, 8.0):
        rep = check_uniform_smoothness(site=0, p=p, trials=250, seed=101)
        assert rep.violations == 0, f"subsystem p={p}: {rep.dump_path}"
        subsystem_trials += rep.trials
    assert subsystem_trials == 1000

    weighted_trials = 0
    for spec, site in (
        (WeightedNormSpec(weights=(0.3, 0.7, 0.5), s=0.5, p=4.0), 1),
        (WeightedNormSpec(weights=(0.5, 0.5, 0.5), s=1.0, p=6.0), 0),
    ):
        rep = check_weighted_smoothness(spec, trials=250, site=site, seed=102)
        assert rep.violations == 0, f"weighted p={spec.p}: {rep.dump_path}"
        weighted_trials += rep.trials
    assert weighted_trials == 500

    fermionic_trials = 0
    for p in (2.0, 4.0):
        rep = check_fermionic_smoothness(n=4, trials=100, p=p, seed=103)
        assert rep.violations == 0, f"fermionic p={p}: {rep.dump_path}"
        fermionic_trials += rep.trials
    assert fermionic_trials == 200

    rep = check_two_point_inequality(trials=100_000, seed=104)
    assert rep.violations == 0, f"two-point: {rep.dump_path}"
    assert time.perf_counter() - start < 300.0


@pytest.mark.acceptance(
    6, "Markov coverage of the planner's (r, p*) on the 8-site chain", budget=300
)
def test_criterion_06_markov_coverage():
    start = time.perf_counter()
    h = chain_heisenberg(8)
    query = GateCountQuery(
        t=1.0, eps=0.1, delta=0.1, order=2, regime="nonrandom-typical"
    )
    res = gatecount(h, query)
    assert res.r == 11436  # frozen planner output for this instance
    assert res.p_star == pytest.approx(2.0)

    err_op = trotter_error_op(h, 1.0, res.r, 2)

    pnorm = schatten_norm(err_op, res.p_star, normalized=True)
    assert pnorm <= query.eps

    rng = np.random.default_rng(2026)
    errors = np.linalg.norm(err_op, axis=0)[basis_indices(8, 2000, rng)]
    fraction = float(np.mean(errors >= query.eps))
    assert fraction <= query.delta
    assert time.perf_counter() - start < 300.0


@pytest.mark.acceptance(
    7, "first-order random model: failure fraction and 1/r scaling", budget=600
)
def test_criterion_07_first_order_random_theorem():
    start = time.perf_counter()
    model = KLocalGaussianModel(n=8, k=2, seed=0)
    query = GateCountQuery(
        t=1.0, eps=0.1, delta=0.1, order=1, regime="first-order-random-fixed"
    )
    plan = gatecount(model.bound_hamiltonian(), query)
    assert plan.gate_count == plan.gamma * plan.r

    cfg = ExperimentConfig(
        seed=77, samples=200, t=1.0, r=plan.r, order=1, eps_grid=(0.1,)
    )
    rep = sample_random_hamiltonian(model, cfg)
    assert rep.extras["fixed_tail_fractions"][0.1] <= query.delta

    r_values = (4, 8, 16, 32)
    means = [
        sample_random_hamiltonian(
            model, ExperimentConfig(seed=78, samples=50, t=1.0, r=r, order=1)
        ).mean_error
        for r in r_values
    ]
    slope = np.polyfit(np.log(r_values), np.log(means), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)
    assert time.perf_counter() - start < 600.0


@pytest.mark.acceptance(8, "gate-complexity table golden values")
def test_criterion_08_table1_golden():
    formulas = {
        (cell.family, cell.method): cell.formula for cell in table1_all()
    }
    assert formulas == {
        ("norm-form", "qdrift"): "H(0,1)^2 t^2/eps",
        ("norm-form", "qubitization"): "Gamma' H(0,1) t",
        ("norm-form", "higher-order-spectral"): "Gamma H(1,1) t",
        ("norm-form", "higher-order-all-inputs"): "sqrt(n) Gamma H(1,2) t",
        ("norm-form", "higher-order-fixed"): "Gamma H(1,2) t",
        ("norm-form", "first-order-spectral"): "Gamma H(0,1) H(1,1) t^2/eps",
        ("norm-form", "first-order-all-inputs"): "n Gamma H(0,2) H(1,2) t^2/eps",
        ("norm-form", "first-order-fixed"): "Gamma H(0,2) H(1,2) t^2/eps",
        ("k-local-uniform", "qdrift"): "n^(k+1) t^2/eps",
        ("k-local-uniform", "qubitization"): "n^((3k+1)/2) t",
        ("k-local-uniform", "higher-order-spectral"): "n^((3k-1)/2) t",
        ("k-local-uniform", "higher-order-all-inputs"): "n^(k+1/2) t",
        ("k-local-uniform", "higher-order-fixed"): "n^k t",
        ("k-local-uniform", "first-order-spectral"): "n^(2k) t^2/eps",
        ("k-local-uniform", "first-order-all-inputs"): "n^(k+3/2) t^2/eps",
        ("k-local-uniform", "first-order-fixed"): "n^(k+1/2) t^2/eps",
        ("power-law", "qdrift"): "n^(4-2a/d) t^2/eps",
        ("power-law", "qubitization"): "n^(4-a/d) t",
        ("power-law", "higher-order-spectral"): "n^(3-a/d) t",
        ("power-law", "higher-order-all-inputs"): "n^(5/2) t",
        ("power-law", "higher-order-fixed"): "n^2 t",
        ("power-law", "first-order-spectral"): "n^(5-2a/d) t^2/eps",
        ("power-law", "first-order-all-inputs"): "n^(7/2) t^2/eps",
        ("power-law", "first-order-fixed"): "n^(5/2) t^2/eps",
        ("power-law-confined", "higher-order-fixed"): "n t (n t^2/eps)^(d/(2a-d))",
    }

    # n-exponents for uniform k-local models at k = 2 and k = 3.
    for k, expected in (
        (2, (3.0, 3.5, 2.5, 2.5, 2.0, 4.0, 3.5, 2.5)),
        (3, (4.0, 5.0, 4.0, 3.5, 3.0, 6.0, 4.5, 3.5)),
    ):
        methods = (
            "qdrift",
            "qubitization",
            "higher-order-spectral",
            "higher-order-all-inputs",
            "higher-order-fixed",
            "first-order-spectral",
            "first-order-all-inputs",
            "first-order-fixed",
        )
        for method, n_exp in zip(methods, expected):
            cell = table1_exponents("k-local-uniform", method, k=k)
            assert cell.n_exponent == pytest.approx(n_exp), (k, method)
            two_sided = method == "qdrift" or method.startswith("first-order")
            assert cell.t_exponent == (2.0 if two_sided else 1.0)
            assert cell.inv_eps_exponent == (1.0 if two_sided else 0.0)

    # Power law at d = 2, alpha = 1.5 (ratio 3/4).
    for method, n_exp in (
        ("qdrift", 2.5),
        ("qubitization", 3.25),
        ("higher-order-spectral", 2.25),
        ("higher-order-all-inputs", 2.5),
        ("higher-order-fixed", 2.0),
        ("first-order-spectral", 3.5),
        ("first-order-all-inputs", 3.5),
        ("first-order-fixed", 2.5),
    ):
        cell = table1_exponents("power-law", method, d=2, alpha=1.5)
        assert cell.n_exponent == pytest.approx(n_exp), method

    # Confined power law at d = 1, alpha = 2: w = d/(2a-d) = 1/3.
    cell = table1_exponents("power-law", "higher-order-fixed", d=1, alpha=2.0)
    assert cell.n_exponent == pytest.approx(4.0 / 3.0)
    assert cell.t_exponent == pytest.approx(5.0 / 3.0)
    assert cell.inv_eps_exponent == pytest.approx(1.0 / 3.0)


@pytest.mark.acceptance(9, "power-law truncation residual and feasibility")
def test_criterion_09_truncation_residual():
    plan = truncation_plan(4, 1, 2.0, t=1.0, eps=2.0)
    assert plan.ell_cut == 1
    assert plan.residual_is_exact  # the displacement count is exact at every n
    assert plan.residual_norm == pytest.approx(
        math.sqrt(1.0 / 8.0 + 1.0 / 81.0), abs=1e-6
    )
    for t in (0.5, 1.0, 2.0, 4.0):
        for eps in (0.05, 0.2, 1.0, 2.0, 5.0):
            plan = truncation_plan(16, 1, 2.0, t=t, eps=eps)
            if plan.feasible:
                assert plan.t * plan.residual_norm <= plan.eps + 1e-12


@pytest.mark.acceptance(10, "stochastic commands are byte-identical under reruns")
def test_criterion_10_determinism(tmp_path, capsys):
    h_path = tmp_path / "chain3.json"
    assert (
        cli_main(
            ["model", "--family", "chain-heisenberg", "--n", "3", "--out", str(h_path)]
        )
        == 0
    )
    commands = {
        "simulate-typical": [
            "simulate", str(h_path), "--seed", "5", "--samples", "40",
            "--t", "0.4", "--r", "2", "--order", "2", "--ensemble", "haar",
        ],
        "simulate-random": [
            "simulate", "--family", "k-local-syk", "--n", "4", "--k", "2",
            "--seed", "11", "--samples", "15", "--t", "0.3",
        ],
        "verify-smoothness": [
            "verify", "--suite", "smoothness", "--trials", "30", "--seed", "2",
        ],
    }
    for name, argv in commands.items():
        first = tmp_path / f"{name}-1.out"
        second = tmp_path / f"{name}-2.out"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    capsys.readouterr()

    # Library level: identical configs give equal reports.
    cfg = ExperimentConfig(seed=9, samples=30, t=0.7, r=2, order=2)
    h = chain_heisenberg(4)
    assert sample_typical_error(h, cfg) == sample_typical_error(h, cfg)
    model = KLocalGaussianModel(n=4, k=2, seed=3)
    assert sample_random_hamiltonian(model, cfg) == sample_random_hamiltonian(
        model, cfg
    )


@pytest.mark.acceptance(11, "recursion coefficient q2 and stage counts")
def test_criterion_11_suzuki_constants():
    assert q_coefficient(2) == pytest.approx(0.414490771794376, abs=1e-12)
    assert q_coefficient(2) == pytest.approx(1.0 / (4.0 - 4.0 ** (1.0 / 3.0)), abs=0)
    assert {order: upsilon(order) for order in (1, 2, 4, 6)} == {
        1: 1,
        2: 2,
        4: 10,
        6: 50,
    }
