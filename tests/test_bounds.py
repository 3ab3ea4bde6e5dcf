"""Gate-count calculators: independent arithmetic oracles and invariants."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from trotterlab.bounds import (
    _DISPLACEMENT_BYTES,
    REGIMES,
    CountingEstimate,
    GateCountQuery,
    GateCountResult,
    TruncationPlan,
    counting_net_size,
    gatecount,
    markov_tail,
    solve_transcendental_floor,
    table1_all,
    table1_exponents,
    truncation_plan,
)
from trotterlab.errors import DivergentTailError, ResourceCapError, ValidationError
from trotterlab.models import chain_heisenberg, fermi_hop
from trotterlab.norms import norm_profile
from trotterlab.pauli import PauliHamiltonian

E = math.e


def chain8():
    return chain_heisenberg(8)


# ------------------------------------------------- nonrandom, chain n=8


def straight_line_chain8_r(t=1.0, eps=0.1, delta=0.1):
    """Independent re-evaluation of the deterministic step count for the
    n=8 Heisenberg chain at order 2, written as flat arithmetic."""
    k, ell = 2, 2
    h02 = math.sqrt(21.0)
    h12 = math.sqrt(6.0)
    h22 = math.sqrt(3.0)
    h11, h21, h01 = 6.0, 3.0, 21.0
    lam = (2 ** (k / 2 + 1) / math.factorial(k - 1)) * (
        2 ** (1 / 2) / math.factorial(1) * h12
        + 2 ** (2 / 2) / math.factorial(0) * h22
    )
    lam_prime = 2.0 * (
        math.comb(2, 1) * math.sqrt(20.0) * math.sqrt(h11 * h01)
        + math.comb(2, 2) * 20.0 * math.sqrt(h21 * h01 / 2.0)
    )
    eta = ((ell + 1) * (k - 1) + 1) / 2.0
    big_p = max(2.0, math.log(1 / delta) / eta)
    ck = 2.0 * lam
    s = math.sqrt(E * big_p)
    r_prob = (
        (2.0 * s / (E - 1.0)) * ((ell + 1) * s) ** 3 * (h02 * t / eps)
    ) ** 0.5 * ck * t

    a1 = E * (ell + 3.0)
    log_arg = (E - 1.0) / (2.0 * 27.0) * (lam_prime / lam)
    assert log_arg < E  # forces the clamp on this instance
    a2 = 2.0 * E
    x = (2 * E * 3.0) ** 2
    for _ in range(300):
        x = 0.5 * (x + 6.0 * E * math.log(x))
    a3 = x
    a = max(a1, a2, a3)
    r_con = (
        a**2
        * ck
        * math.sqrt(t)
        * math.sqrt((1 - 1 / E) / (2 * E**2 * 27.0) * eps / h02)
    )
    return math.ceil(max(r_prob, r_con)), lam, lam_prime, ck, eta


def test_nonrandom_chain8_matches_straight_line_oracle():
    r_oracle, lam, lam_prime, ck, eta = straight_line_chain8_r()
    q = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2)
    res = gatecount(chain8(), q)
    assert res.r == r_oracle == 11436
    assert res.diagnostics["lambda_k"] == pytest.approx(lam, rel=1e-12)
    assert res.diagnostics["lambda_prime_k"] == pytest.approx(lam_prime, rel=1e-12)
    assert res.diagnostics["eta"] == eta == 2.0
    assert res.diagnostics["log_clamped"] is True
    assert res.diagnostics["constraint_doublings"] == 0
    assert res.feasible


def test_nonrandom_chain8_p_star_floored_to_two():
    q = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2)
    res = gatecount(chain8(), q)
    # The displayed step count undershoots the index target, so the
    # reported index is the floor and the flag records the shortfall.
    assert res.p_star == 2.0
    assert res.diagnostics["p_star_floored"] is True
    assert 1.0 < res.diagnostics["p_raw"] < 2.0
    # The moment bound at the floored index still sits below eps, but
    # the chained tail certificate lands slightly above delta - the
    # displayed step count drops a constant relative to the exact
    # inversion, and the flag plus diagnostics record that gap.
    assert res.diagnostics["pnorm_bound"] <= q.eps
    assert q.delta < res.diagnostics["tail_bound"] < 2 * q.delta


def test_nonrandom_gate_counts_nominal_and_merged():
    q = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2)
    res = gatecount(chain8(), q)
    assert res.gamma == 21
    assert res.upsilon == 2
    assert res.gate_count == 2 * 21 * res.r
    assert res.diagnostics["gates_merged"] == (2 * 21 - 1) * res.r
    assert res.gate_count >= res.gamma


def test_nonrandom_constraints_hold_at_returned_point():
    q = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2)
    res = gatecount(chain8(), q)
    assert res.diagnostics["constraint_1_ok"]
    assert res.diagnostics["constraint_2_ok"]
    lhs = res.diagnostics["constraint_lhs"]
    tau = q.t / res.r
    bp = (res.p_star - 1.0) ** 0.5 * 2.0 * res.diagnostics["lambda_k"]
    assert lhs == pytest.approx(1.0 / (bp * tau), rel=1e-12)


def test_nonrandom_homogeneity_in_coefficient_scale():
    alpha = 3.7
    h = chain8()
    scaled = PauliHamiltonian.from_labels(
        8, [(t.string.label(), alpha * t.coeff.real) for t in h.terms]
    )
    q1 = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2)
    q2 = GateCountQuery(t=1.0 / alpha, eps=0.1, delta=0.1, order=2)
    r1 = gatecount(h, q1)
    r2 = gatecount(scaled, q2)
    assert r1.diagnostics["r_probability"] == pytest.approx(
        r2.diagnostics["r_probability"], rel=1e-9
    )
    assert r1.diagnostics["r_constraint"] == pytest.approx(
        r2.diagnostics["r_constraint"], rel=1e-9
    )
    assert r1.r == r2.r
    assert r1.p_star == pytest.approx(r2.p_star, rel=1e-9)


@pytest.mark.parametrize("knob", ["t", "eps", "delta"])
def test_nonrandom_monotone_in_each_knob(knob):
    h = chain8()
    base = dict(t=1.0, eps=0.1, delta=0.1, order=2)
    harder = dict(base)
    if knob == "t":
        harder["t"] = 2.0
    elif knob == "eps":
        harder["eps"] = 0.01
    else:
        harder["delta"] = 1e-6
    r_soft = gatecount(h, GateCountQuery(**base)).r
    r_hard = gatecount(h, GateCountQuery(**harder)).r
    assert r_hard >= r_soft


def test_nonrandom_single_site_skips_constraints():
    h = PauliHamiltonian.from_labels(3, [("ZII", 1.0), ("IZI", 1.0), ("IIZ", 1.0)])
    q = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2)
    res = gatecount(h, q)
    prof = norm_profile(h)
    assert prof.k == 1
    assert prof.lambda_k == pytest.approx(4.0)  # 4 |H|_(1),2, unit coefficients
    assert res.diagnostics["r_constraint"] is None
    assert res.diagnostics.get("skipped_single_site")
    # k = 1 collapses eta to 1/2, so the index target is ln(10)/(1/2).
    eta = 0.5
    big_p = max(2.0, math.log(10.0) / eta)
    assert res.diagnostics["eta"] == eta
    assert res.p_star == pytest.approx(big_p)
    s = math.sqrt(E * big_p)
    r_prob = ((2 * s / (E - 1)) * (math.sqrt(3.0) / 0.1)) ** 0.5 * 8.0
    assert res.r == math.ceil(r_prob)


def test_nonrandom_fermionic_uses_augmented_lambda():
    h = fermi_hop(1)
    q = GateCountQuery(t=0.3, eps=0.1, delta=0.1, order=2)
    res = gatecount(h, q)
    assert res.diagnostics["fermionic_lambda"] is True
    prof = norm_profile(h)
    assert res.diagnostics["lambda_k"] == pytest.approx(prof.lambda_ferm_k)
    assert res.r >= 1


def test_nonrandom_zero_time_and_empty_hamiltonian():
    q = GateCountQuery(t=0.0, eps=0.1, delta=0.1, order=2)
    assert gatecount(chain8(), q).gate_count == 0.0
    empty = PauliHamiltonian(2, ())
    qq = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2)
    res = gatecount(empty, qq)
    assert res.gate_count == 0.0 and res.r == 0
    assert res.diagnostics["empty_hamiltonian"] is True


def test_transcendental_floor_solves_its_equation():
    for k, ell in [(2, 2), (2, 4), (3, 2), (4, 2)]:
        x = solve_transcendental_floor(k, ell)
        rhs = 2.0 * (E * (ell + 1)) ** (k - 1) * math.log(x) ** (k - 1)
        assert x == pytest.approx(rhs, rel=1e-8)
        assert x > E


def test_transcendental_floor_k2_ell2_value():
    # x = 6 e ln x has its large root near 69.1
    x = solve_transcendental_floor(2, 2)
    assert 60 < x < 80


def test_transcendental_floor_returns_a_root_or_overflows():
    # Every k >= 2 whose start (2 e (order+1))**k is finite.  Below the first
    # k of each order in `overflow_from` the iteration converges; the digest
    # pins the 772 roots' reprs as the solver with a bisection fallback gave
    # them.  From that k on the root lies past the float range.  The fallback
    # returned its bracket end 999999999969496.8 for the first 468 of those,
    # which is not a root; every one now raises OverflowError.
    overflow_from = {
        1: 87, 2: 83, 3: 81, 4: 79, 6: 76, 8: 74, 10: 73, 20: 68, 50: 63, 100: 60, 1000: 50
    }
    roots, overflows = [], 0
    for ell, first in overflow_from.items():
        for k in itertools.count(2):
            try:
                (2.0 * E * (ell + 1.0)) ** k
            except OverflowError:
                break
            if k < first:
                x = solve_transcendental_floor(k, ell)
                rhs = 2.0 * (E * (ell + 1)) ** (k - 1) * math.log(x) ** (k - 1)
                assert x == pytest.approx(rhs, rel=1e-10)
                roots.append((k, ell, x))
            else:
                with pytest.raises(OverflowError):
                    solve_transcendental_floor(k, ell)
                overflows += 1
    assert (len(roots), overflows) == (772, 1231)
    digest = hashlib.sha256(repr(roots).encode()).hexdigest()
    assert digest == "993f377c5858da0909a80cd4a416bb5beb21d8e36089b3e474d278c95738125f"


def test_gatecount_reports_a_transcendental_floor_overflow_as_bad_input(monkeypatch):
    def overflow(k, order):
        raise OverflowError("the transcendental floor exceeds the float range")

    monkeypatch.setattr("trotterlab.bounds.solve_transcendental_floor", overflow)
    with pytest.raises(ValidationError, match="the transcendental floor exceeds the float range"):
        gatecount(chain_heisenberg(4), GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2))


# -------------------------------------------------------- random paths


def test_random_ho_constant_example():
    # k = 2 with unit per-site overlap norm: c(k) = 8 e.
    h = PauliHamiltonian.from_labels(2, [("ZZ", 1.0)])
    q = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2, regime="random-fixed")
    res = gatecount(h, q)
    assert res.diagnostics["c_k"] == pytest.approx(8.0 * E, rel=1e-12)


def test_random_ho_chain8_straight_line():
    h = chain8()
    q = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2, regime="random-fixed")
    res = gatecount(h, q)

    h02, h12, h01 = math.sqrt(21.0), math.sqrt(6.0), 21.0
    ck = 4.0 * E * 2 * h12
    c1 = (E / ck * h02**2 / h12) * 27.0 / (1.0 - 1.0 / E)
    eta = 1.5
    big_p = max(2.0, math.log(10.0) / eta)
    r_real = ((E * big_p) ** eta * 2.0 * c1 * ck**3 / 0.1) ** (1.0 / 2.0)
    assert res.diagnostics["r_proof"] == pytest.approx(r_real, rel=1e-12)
    assert res.r == math.ceil(r_real)
    assert res.diagnostics["constraint_doublings"] == 0
    assert res.p_star >= 2.0
    assert res.gate_count == 2 * 21 * res.r


def test_random_ho_spectral_uses_dimension_in_index_target():
    h = chain8()
    qf = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2, regime="random-fixed")
    qs = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2, regime="random-spectral")
    rf = gatecount(h, qf)
    rs = gatecount(h, qs)
    assert rs.diagnostics["p_target"] == pytest.approx(
        (8 * math.log(2.0) + math.log(10.0)) / 1.5
    )
    assert rs.r > rf.r


def test_random_ho_asymptotic_form_matches_display():
    h = chain8()
    q = GateCountQuery(t=1.0, eps=0.1, delta=0.1, order=2, regime="random-spectral")
    res = gatecount(h, q)
    s = math.sqrt(8 + math.log(10.0))
    h02, h12 = math.sqrt(21.0), math.sqrt(6.0)
    expect = h12 * s * 1.0 * (h02**2 * s * 1.0 / (h12 * 0.1)) ** 0.5
    assert res.diagnostics["r_asymptotic"] == pytest.approx(expect, rel=1e-12)
    assert res.diagnostics["asymptotic_form"] is True


def test_random_ho_rejects_odd_or_first_order():
    h = chain8()
    for order in (1, 3):
        q = GateCountQuery(
            t=1.0, eps=0.1, delta=0.1, order=order, regime="random-fixed"
        )
        with pytest.raises(ValidationError):
            gatecount(h, q)


def test_first_order_random_matches_formula():
    h = chain8()
    t, eps, delta = 0.7, 0.05, 0.1
    h02, h12 = math.sqrt(21.0), math.sqrt(6.0)
    for regime, log_term in [
        ("first-order-random-spectral", 8 * math.log(2.0) + math.log(E**2 / delta)),
        ("first-order-random-fixed", math.log(E**2 / delta)),
    ]:
        q = GateCountQuery(t=t, eps=eps, delta=delta, order=1, regime=regime)
        res = gatecount(h, q)
        r_real = 2.0 * math.sqrt(2.0) * log_term * h02 * h12 * t**2 / eps
        assert res.diagnostics["r_formula"] == pytest.approx(r_real, rel=1e-12)
        assert res.r == math.ceil(r_real)
        assert res.gate_count == 21 * res.r
        assert res.diagnostics["step_norm_ok"]


def test_first_order_fixed_never_exceeds_spectral():
    h = chain8()
    qs = GateCountQuery(t=1.0, eps=0.1, order=1, regime="first-order-random-spectral")
    qf = GateCountQuery(t=1.0, eps=0.1, order=1, regime="first-order-random-fixed")
    assert gatecount(h, qf).r <= gatecount(h, qs).r


# ------------------------------------------------------------- baseline


def test_baseline_1norm_values_and_flags():
    h = chain8()
    res = gatecount(h, GateCountQuery(t=2.0, eps=0.1, regime="spectral-1norm-baseline"))
    assert res.asymptotic is True
    assert res.gate_count == pytest.approx(21 * 6.0 * 2.0)
    assert res.r == math.ceil(6.0 * 2.0)
    zero = gatecount(h, GateCountQuery(t=0.0, eps=0.1, regime="spectral-1norm-baseline"))
    assert zero.gate_count == 0.0 and zero.r == 0


@pytest.mark.parametrize("order", [1, 2, 4])
def test_empty_baseline_reports_the_baseline_flags(order):
    q = GateCountQuery(t=1.0, eps=0.1, order=order, regime="spectral-1norm-baseline")
    empty = gatecount(PauliHamiltonian(2, ()), q)
    assert empty.r == 0 and empty.diagnostics["empty_hamiltonian"] is True
    full = gatecount(chain8(), q)
    assert (empty.upsilon, empty.asymptotic) == (full.upsilon, full.asymptotic) == (1, True)


def test_baseline_equals_typical_for_disjoint_supports():
    # Commuting single-site field: per-site overlap norms agree in both
    # the 1-norm and 2-norm conventions, so the baseline matches the
    # typical-input scaling term for term.
    h = PauliHamiltonian.from_labels(4, [("ZIII", 1.0), ("IZII", 1.0), ("IIZI", 1.0), ("IIIZ", 1.0)])
    prof = norm_profile(h)
    assert prof.norm(1, 1) == prof.norm(1, 2) == 1.0
    res = gatecount(h, GateCountQuery(t=3.0, eps=0.1, regime="spectral-1norm-baseline"))
    assert res.gate_count == pytest.approx(4 * 1.0 * 3.0)


def test_gatecount_dispatcher_routes_all_regimes():
    h = chain8()
    for regime in [
        "nonrandom-typical",
        "random-spectral",
        "random-fixed",
        "first-order-random-spectral",
        "first-order-random-fixed",
        "spectral-1norm-baseline",
    ]:
        order = 1 if regime.startswith("first-order") else 2
        q = GateCountQuery(t=0.5, eps=0.1, delta=0.1, order=order, regime=regime)
        res = gatecount(h, q)
        assert isinstance(res, GateCountResult)
        assert res.regime == regime
        assert res.r >= 1


# -------------------------------------------------------------- table 1


def test_table1_klocal_exponents_at_k2():
    expect = {
        "qdrift": 3.0,
        "qubitization": 3.5,
        "higher-order-spectral": 2.5,
        "higher-order-all-inputs": 2.5,
        "higher-order-fixed": 2.0,
        "first-order-spectral": 4.0,
        "first-order-all-inputs": 3.5,
        "first-order-fixed": 2.5,
    }
    for method, ne in expect.items():
        cell = table1_exponents("k-local-uniform", method, k=2)
        assert cell.n_exponent == ne
        want_t = 2.0 if ("qdrift" in method or "first-order" in method) else 1.0
        assert cell.t_exponent == want_t
        assert cell.inv_eps_exponent == (1.0 if want_t == 2.0 else 0.0)
        assert cell.asymptotic


def test_table1_power_law_exponents():
    cell = table1_exponents("power-law", "qdrift", d=1, alpha=0.75)
    assert cell.n_exponent == pytest.approx(4 - 2 * 0.75)
    cell = table1_exponents("power-law", "higher-order-spectral", d=2, alpha=1.5)
    assert cell.n_exponent == pytest.approx(3 - 0.75)
    assert table1_exponents("power-law", "higher-order-all-inputs", d=1, alpha=1.0).n_exponent == 2.5
    assert table1_exponents("power-law", "higher-order-fixed", d=1, alpha=1.0).n_exponent == 2.0


def test_table1_confined_power_law_only_fixed_supported():
    cell = table1_exponents("power-law", "higher-order-fixed", d=1, alpha=2.0)
    w = 1.0 / 3.0
    assert cell.n_exponent == pytest.approx(1 + w)
    assert cell.t_exponent == pytest.approx(1 + 2 * w)
    assert cell.inv_eps_exponent == pytest.approx(w)
    for method in ("qdrift", "qubitization", "first-order-fixed"):
        with pytest.raises(ValidationError):
            table1_exponents("power-law", method, d=1, alpha=2.0)


def test_table1_rejects_fast_decay_below_half_d():
    with pytest.raises(ValidationError):
        table1_exponents("power-law", "qdrift", d=2, alpha=0.5)


@pytest.mark.parametrize(
    "family, params",
    [
        ("k-local-uniform", {"k": None}),
        ("k-local-uniform", {"k": 0}),
        ("k-local-uniform", {"k": -3}),
        ("power-law", {"d": 0, "alpha": 0.0}),  # used to divide 0 by 0
        ("power-law", {"d": -2, "alpha": -1.0}),
    ],
)
def test_table1_rejects_degenerate_k_and_d(family, params):
    with pytest.raises(ValidationError):
        table1_exponents(family, "higher-order-fixed", **params)


@pytest.mark.parametrize(
    "args",
    [
        (0, 1, 2.0, 1.0, 0.1),  # no sites
        (1, 10**9, 1e9, 1.0, 1.0),  # used to build a 10**9-tuple coordinate
        (4, 1, 2.0, 1e200, 0.1),  # t**2 overflows
        (4, 1, 2.0, 1.0, 1e-300),  # eps**2 underflows to 0
        (4097, 2, 2.0, 1.0, 1.0),  # not a lattice
    ],
)
def test_truncation_plan_rejects_degenerate_or_overflowing_input(args):
    with pytest.raises(ValidationError):
        truncation_plan(*args)


@pytest.mark.parametrize(
    "n, k, eps, j",
    [
        (0, 1, 0.1, 1.0),  # no sites
        (3, 4, 0.1, 1.0),  # k > n
        (-5, 2, 0.1, 1.0),
        (10**30, 4097, 0.1, 1.0),  # used to run for minutes on exact integers
        (1, 1, 1e-300, 1e-123),  # used to divide by an underflowed zero
        (8, 2, 0.1, math.inf),
    ],
)
def test_counting_rejects_degenerate_or_out_of_range_input(n, k, eps, j):
    with pytest.raises(ValidationError):
        counting_net_size(n, k, eps, j_coupling=j)


def test_table1_norm_form_strings():
    assert table1_exponents("norm-form", "qdrift").formula == "H(0,1)^2 t^2/eps"
    assert (
        table1_exponents("norm-form", "higher-order-all-inputs").formula
        == "sqrt(n) Gamma H(1,2) t"
    )
    assert (
        table1_exponents("norm-form", "first-order-fixed").formula
        == "Gamma H(0,2) H(1,2) t^2/eps"
    )


def test_table1_all_covers_every_cell():
    cells = table1_all()
    assert len(cells) == 8 + 8 + 8 + 1
    fams = {c.family for c in cells}
    assert fams == {"norm-form", "k-local-uniform", "power-law", "power-law-confined"}


# ----------------------------------------------------------- truncation


def test_truncation_chain4_residual_oracle():
    plan = truncation_plan(4, 1, 2.0, t=1.0, eps=2.0)
    assert plan.ell_cut == 1
    assert plan.residual_is_exact
    assert plan.residual_norm == pytest.approx(math.sqrt(1 / 8 + 1 / 81), abs=1e-12)
    assert plan.kept_terms == 3 and plan.dropped_terms == 3
    assert plan.feasible
    assert plan.residual_error <= plan.eps


def test_truncation_cutoff_grows_with_precision():
    loose = truncation_plan(64, 1, 2.0, t=1.0, eps=10.0)
    tight = truncation_plan(64, 1, 2.0, t=1.0, eps=0.05)
    assert loose.ell_cut == 1
    assert tight.ell_cut > loose.ell_cut
    assert tight.ell_cut == max(1, math.ceil((64 / 0.05**2) ** (1 / 3) - 1e-12))


def test_truncation_gate_count_exponent():
    # G = n t (n t^2 / eps)^(d / (2a - d)): doubling 1/eps multiplies G
    # by 2^(1/3) at d=1, a=2.
    g1 = truncation_plan(16, 1, 2.0, t=1.0, eps=0.2).gate_count
    g2 = truncation_plan(16, 1, 2.0, t=1.0, eps=0.1).gate_count
    assert g2 / g1 == pytest.approx(2.0 ** (1 / 3), rel=1e-12)


def test_truncation_divergent_tail_rejected():
    with pytest.raises(DivergentTailError):
        truncation_plan(16, 2, 1.0, t=1.0, eps=0.1)
    with pytest.raises(DivergentTailError):
        truncation_plan(16, 2, 0.8, t=1.0, eps=0.1)


def _truncation_oracle(n, d, alpha, t, eps):
    # Every site pair i < j of the lattice coordinates, one row i at a time,
    # with the far terms summed correctly rounded.
    side = round(n ** (1.0 / d))
    assert side**d == n
    coords = np.array(list(itertools.product(range(side), repeat=d)), dtype=float)
    ell_cut = max(1, math.ceil((n * t**2 / eps**2) ** (1.0 / (2.0 * alpha - d)) - 1e-12))
    dropped, terms = 0, []
    for i in range(n - 1):
        pair_dist = np.sqrt(((coords[i + 1 :] - coords[i]) ** 2).sum(axis=1))
        far = pair_dist[pair_dist > ell_cut]
        dropped += far.size
        terms.extend((far ** (-2.0 * alpha)).tolist())
    residual_norm = math.sqrt(math.fsum(terms))
    return TruncationPlan(
        n=n,
        d=d,
        alpha=alpha,
        t=t,
        eps=eps,
        ell_cut=ell_cut,
        kept_terms=n * (n - 1) // 2 - dropped,
        dropped_terms=dropped,
        residual_norm=residual_norm,
        residual_error=t * residual_norm,
        residual_is_exact=True,
        feasible=t * residual_norm <= eps,
        gate_count=n * t * (n * t**2 / eps) ** (d / (2.0 * alpha - d)),
    )


@pytest.mark.parametrize(
    "n, d, alpha, eps",
    [
        (64, 1, 2.0, 0.5),
        (64, 2, 3.0, 0.5),
        (27, 3, 3.0, 2.0),
        (4096, 2, 3.0, 0.01),
        (4097, 1, 2.0, 3e-4),
        (4900, 2, 3.0, 0.01),
        (4913, 3, 3.0, 1.0),
        (64, 1, 200.0, 1e-3),  # subnormal and zero terms
        (1, 1, 2.0, 0.5),  # no pairs
    ],
)
def test_truncation_plan_matches_the_pair_enumeration_oracle(n, d, alpha, eps):
    plan = truncation_plan(n, d, alpha, 1.0, eps)
    assert plan.dropped_terms > 0 or n == 1  # the cutoff falls inside the lattice
    assert plan.kept_terms + plan.dropped_terms == n * (n - 1) // 2
    assert plan.residual_is_exact
    assert plan == _truncation_oracle(n, d, alpha, 1.0, eps)


def test_truncation_plan_is_exact_and_feasible_on_a_million_sites():
    # A radial integral bound of the same tail reads 0.01253 here: infeasible.
    plan = truncation_plan(2**20, 2, 3.0, 1.0, 0.01)
    assert plan.ell_cut == 320
    assert plan.kept_terms + plan.dropped_terms == 2**20 * (2**20 - 1) // 2
    assert plan.residual_norm == pytest.approx(0.0064671349469, rel=1e-12)
    assert plan.feasible


def test_truncation_plan_refuses_past_the_byte_budget_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="bytes of memory"):
            truncation_plan(10**12, 2, 2.0, 1.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "n, d, alpha, eps",
    [(4096, 2, 3.0, 0.01), (2**14, 1, 2.0, 1e9)],  # the second drops every pair
)
def test_truncation_plan_memory_stays_within_its_per_site_budget(n, d, alpha, eps):
    # Enumerating all 8386560 site pairs of n = 4096 peaks near 80 KiB per site.
    tracemalloc.start()
    try:
        truncation_plan(n, d, alpha, 1.0, eps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * _DISPLACEMENT_BYTES


# ------------------------------------------------------------- counting


def test_counting_oracle_n8_k2():
    est = counting_net_size(8, 2, eps=0.1)
    gamma = 28
    m2 = 1.0 / 16.0
    mean = gamma * m2
    dev = mean - 0.1**2 / 2.0
    var = 2.0 * gamma * m2**2
    ln_tail = math.log(2.0) - (dev**2 / 2.0) / (var + m2 * dev / 3.0)
    assert est.gamma == gamma
    assert est.variance_scale == pytest.approx(m2, rel=1e-12)
    assert est.ln_tail == pytest.approx(ln_tail, rel=1e-12)
    assert est.net_size == math.floor(math.sqrt(2.0 / math.exp(ln_tail)))
    assert not est.vacuous and not est.infinite


def test_counting_exponent_linear_in_gamma():
    # As eps -> 0 the log net size approaches (3/28) Gamma exactly.
    for n in (8, 12, 16):
        est = counting_net_size(n, 2, eps=1e-9)
        assert est.ln_net_size == pytest.approx(
            (3.0 / 28.0) * est.gamma, rel=1e-6
        )
        assert est.asymptotic_exponent == 3.0 / 28.0


def test_counting_vacuous_and_infinite_flags():
    vac = counting_net_size(8, 2, eps=2.0)  # eps^2/2 = 2 > 1.75 = mean
    assert vac.vacuous and vac.net_size == 1.0
    inf = counting_net_size(8, 2, eps=0.0)
    assert inf.infinite and inf.net_size == math.inf
    assert inf.tail == 0.0


def test_counting_handles_huge_gamma_in_log_space():
    est = counting_net_size(64, 4, eps=1e-6)
    assert est.net_size == math.inf
    assert est.ln_net_size == pytest.approx(
        (3.0 / 28.0) * est.gamma, rel=1e-3
    )


# ---------------------------------------------------------- markov tail


def test_markov_tail_examples():
    assert markov_tail(0.1, 0.1, 4.0) == 1.0
    assert markov_tail(0.05, 0.1, 4.0) == pytest.approx(1.0 / 16.0)
    assert markov_tail(0.0, 0.1, 4.0) == 0.0
    # min(1, ratio**p) where the power overflows or underflows a float
    assert markov_tail(2.0, 0.1, 1e308) == 1.0
    assert markov_tail(0.05, 0.1, 1e308) == 0.0
    assert markov_tail(1.0, 5e-324, 2.0) == 1.0
    assert markov_tail(5.0, 0.1, 2.0) == 1.0  # capped
    with pytest.raises(ValidationError):
        markov_tail(0.1, 0.0, 2.0)
    with pytest.raises(ValidationError):
        markov_tail(0.1, 0.1, 0.5)


def test_query_validation():
    with pytest.raises(ValidationError):
        GateCountQuery(t=-1.0, eps=0.1)
    with pytest.raises(ValidationError):
        GateCountQuery(t=1.0, eps=0.0)
    with pytest.raises(ValidationError):
        GateCountQuery(t=1.0, eps=0.1, delta=1.5)
    with pytest.raises(ValidationError):
        GateCountQuery(t=1.0, eps=0.1, regime="nope")
    with pytest.raises(ValidationError):
        GateCountQuery(t=1.0, eps=0.1, p=1.0)


@pytest.mark.parametrize("field", ["t", "eps", "delta", "p"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_query_rejects_non_finite_values(field, value):
    # NaN passes every range check, so without a finiteness check p=nan
    # reaches the r solver and yields a plausible r.
    params = dict(t=1.0, eps=0.1, delta=0.1, order=2)
    params[field] = value
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        GateCountQuery(**params)


@pytest.mark.parametrize("field", ["alpha", "t", "eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_truncation_plan_rejects_non_finite_values(field, value):
    # t=nan gave residual_error nan; the others raised ValueError or OverflowError.
    params = dict(n=16, d=1, alpha=2.0, t=1.0, eps=0.1)
    params[field] = value
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        truncation_plan(**params)


def _regime_query(regime, t=1.0):
    order = 1 if regime.startswith("first") else 2
    return GateCountQuery(t=t, eps=0.1, regime=regime, order=order)


@pytest.mark.parametrize("regime", REGIMES)
def test_gatecount_rejects_identity_only_hamiltonian(regime):
    # k = 0: every step-count formula divides by lambda(k) or reads ||H||_(1),q.
    h = PauliHamiltonian.from_labels(2, [("II", 1.0)])
    with pytest.raises(ValidationError, match="identity"):
        gatecount(h, _regime_query(regime))


@pytest.mark.parametrize("regime", REGIMES)
def test_gatecount_overflow_is_a_validation_error(regime):
    # 1e200 squared overflows the 2-norms; 3e100 overflows the higher-order
    # step counts (the first-order and baseline counts stay finite); t = 1e308
    # overflows every regime's count (t**2, t**(order+1) or ceil(inf)).
    with pytest.raises(ValidationError, match="overflow"):
        gatecount(PauliHamiltonian.from_labels(2, [("XX", 1e200)]), _regime_query(regime))
    with pytest.raises(ValidationError, match="overflow"):
        gatecount(chain8(), _regime_query(regime, t=1e308))
    if not regime.startswith(("first", "spectral")):
        with pytest.raises(ValidationError, match="overflow"):
            gatecount(PauliHamiltonian.from_labels(2, [("XX", 3e100)]), _regime_query(regime))
