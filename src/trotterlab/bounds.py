"""Constant-explicit gate-count calculators and planners.

Implements:

- ``gatecount``: the one entry to a step and gate count.  Its regime
  selects typical inputs to a deterministic Hamiltonian, higher- or
  first-order random terms, or the coherent 1-norm baseline.
- ``table1_exponents``: the gate-complexity comparison table (golden).
- ``truncation_plan``: power-law tail truncation planning.
- ``counting_net_size``: the Bernstein collision-probability net-size
  lower bound for random k-local ensembles.
- ``markov_tail``: the elementary p-th moment tail bound.

Every asymptotic (suppressed-constant) number carries an ``asymptotic``
flag and uses constant 1; constant-explicit paths are evaluated exactly
as displayed in their derivations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import errors
from .errors import DivergentTailError, ValidationError, check_budget, check_finite
from .models import _lattice_displacements
from .norms import NormProfile, norm_profile
from .pauli import FermionHamiltonian, PauliHamiltonian
from .suzuki import upsilon as stage_count

__all__ = [
    "REGIMES",
    "GateCountQuery",
    "GateCountResult",
    "TruncationPlan",
    "CountingEstimate",
    "Table1Cell",
    "TABLE1_METHODS",
    "gatecount",
    "table1_exponents",
    "table1_all",
    "truncation_plan",
    "counting_net_size",
    "markov_tail",
]


R_LIMIT = 1e15

REGIMES = (
    "nonrandom-typical",
    "random-spectral",
    "random-fixed",
    "first-order-random-spectral",
    "first-order-random-fixed",
    "spectral-1norm-baseline",
)

HamiltonianLike = Union[PauliHamiltonian, FermionHamiltonian]


@dataclass(frozen=True)
class GateCountQuery:
    """Target parameters for a gate-count computation.

    ``delta`` is the failure probability converted to a norm index via
    the regime's eta; passing ``p`` directly overrides that conversion.
    """

    t: float
    eps: float
    delta: float = 0.1
    order: int = 2
    regime: str = "nonrandom-typical"
    p: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("t", "eps", "delta", "p"):
            value = getattr(self, name)
            if value is not None:
                check_finite(name, value)
        if self.t < 0:
            raise ValidationError("t must be nonnegative")
        if self.eps <= 0:
            raise ValidationError("eps must be positive")
        if not 0 < self.delta < 1:
            raise ValidationError("delta must lie in (0, 1)")
        if self.order < 1:
            raise ValidationError("order must be >= 1")
        if self.regime not in REGIMES:
            raise ValidationError(f"unknown regime {self.regime!r}")
        if self.p is not None and self.p < 2:
            raise ValidationError("direct p targets require p >= 2")


@dataclass
class GateCountResult:
    regime: str
    r: int
    gate_count: float
    gamma: int
    upsilon: int
    p_star: Optional[float]
    feasible: bool = True
    asymptotic: bool = False
    diagnostics: dict = field(default_factory=dict)


def _profile_of(h: HamiltonianLike) -> NormProfile:
    profile = norm_profile(h)
    # Every step-count formula has a (1, q) norm or a 1/lambda(k) in it.
    if profile.gamma and not profile.k:
        raise ValidationError(
            "every term is the identity (locality k = 0); the bounds need k >= 1"
        )
    return profile


def _empty_result(regime: str, order: int) -> GateCountResult:
    # The baseline counts one asymptotic exponential per term, empty or not.
    baseline = regime == "spectral-1norm-baseline"
    return GateCountResult(
        regime=regime,
        r=0,
        gate_count=0.0,
        gamma=0,
        upsilon=1 if baseline else stage_count(order),
        p_star=None,
        asymptotic=baseline,
        diagnostics={"empty_hamiltonian": True},
    )


def _staged_result(q, profile, r, p_star, diagnostics, feasible=True) -> GateCountResult:
    """A result with its nominal and merged exponential counts attached."""
    ups, gamma = stage_count(q.order), profile.gamma
    gates = float(ups * gamma * r)
    diagnostics["gates_nominal"] = gates
    diagnostics["gates_merged"] = float((ups * gamma - (ups - 1)) * r)
    return GateCountResult(
        regime=q.regime,
        r=r,
        gate_count=gates,
        gamma=gamma,
        upsilon=ups,
        p_star=p_star,
        feasible=feasible,
        diagnostics=diagnostics,
    )


def _constrained_steps(q, k, ck, c1, eta, r, p_target, bp_of, c2_over_c1):
    """Double r from its start until the two small-step constraints hold at
    (r, p_star), with p_star = max(p(r), p_target) and p(r) the Schatten
    index at which the p-norm display meets eps.

    Returns (r, p_star, p(r), feasible, diagnostics); ``bp_of(p)`` is the
    per-step norm scale b_p of the calculator.
    """
    t, eps, ell = q.t, q.eps, q.order

    def p_of(r: float) -> float:
        return (
            eps * r**ell / (2.0 * c1 * (ck * t) ** (ell + 1))
        ) ** (1.0 / eta) / math.e

    def constraints_ok(r: int, p: float) -> tuple[bool, dict]:
        if k == 1:
            return True, {"skipped_single_site": True}
        bp = bp_of(p)
        tau = t / r
        lhs = (1.0 / (bp * tau)) ** (1.0 / (k - 1))
        arg = c2_over_c1 * (1.0 / (bp * tau)) ** (ell + 1)
        ok1 = lhs >= math.e * (ell + 3.0)
        ok2 = arg <= 1.0 or lhs >= math.e * math.log(arg)
        return ok1 and ok2, {
            "constraint_lhs": lhs,
            "constraint_1_rhs": math.e * (ell + 3.0),
            "constraint_2_rhs": math.e * math.log(arg) if arg > 1.0 else 0.0,
            "constraint_1_ok": ok1,
            "constraint_2_ok": ok2,
        }

    feasible = True
    doublings = 0
    while True:
        p_raw = p_of(r)
        p_star = max(p_raw, p_target)
        ok, diagnostics = constraints_ok(r, p_star)
        if ok:
            break
        if r > R_LIMIT:
            feasible = False
            break
        r *= 2
        doublings += 1
    diagnostics["constraint_doublings"] = doublings
    pnorm_bound = p_star**eta * 2.0 * c1 * (ck * t) ** (ell + 1) / r**ell
    diagnostics["pnorm_bound"] = pnorm_bound
    diagnostics["tail_bound"] = markov_tail(pnorm_bound, eps, p_star)
    return r, p_star, p_raw, feasible, diagnostics


def solve_transcendental_floor(k: int, order: int) -> float:
    """Unique solution > e of x = f(x) = 2 (e (order+1))**(k-1) ln**(k-1) (x).

    Damped fixed-point iteration x <- (x + f(x))/2 to 1e-12 relative.  f is
    increasing and f(x) > x on [e, x*), so the iterates move monotonically
    to the root from either side.  Raises ``OverflowError`` where f leaves
    the float range before converging: the root is then past it as well.
    """
    if k < 2:
        raise ValidationError("transcendental floor requires k >= 2")
    coeff = 2.0 * (math.e * (order + 1.0)) ** (k - 1)
    x = (2.0 * math.e * (order + 1.0)) ** k
    while True:
        nx = coeff * math.log(x) ** (k - 1)
        if not math.isfinite(nx):
            raise OverflowError("the transcendental floor exceeds the float range")
        if abs(nx - x) <= 1e-12 * max(1.0, abs(x)):
            return nx
        x = 0.5 * (x + nx)


def _nonrandom(
    h: HamiltonianLike, profile: NormProfile, q: GateCountQuery
) -> GateCountResult:
    """Step and gate counts for deterministic k-local Hamiltonians.

    Evaluates the explicit probability-driven step count and the
    constraint-driven step count, takes the larger, and rechecks the
    two small-step constraints at the resulting (r, p_star), doubling r
    until they hold.  All displays are transcribed with explicit
    constants; the only liberties are flagged in the diagnostics:
    ``log_clamped`` when the logarithm in the constraint floor would be
    taken of an argument below e, and ``p_star_floored`` when the
    probability-driven display undershoots the norm-index target.
    """
    k, ell = profile.k, q.order
    fermionic = profile.lambda_ferm_k is not None
    lam = profile.lambda_ferm_k if fermionic else profile.lambda_k
    lam_prime = profile.lambda_prime_k
    h02 = profile.norm(0, 2)
    t, eps, delta = q.t, q.eps, q.delta

    eta = ((ell + 1) * (k - 1) + 1) / 2.0
    p_target = max(2.0, q.p if q.p is not None else math.log(1.0 / delta) / eta)
    ck = 2.0 * lam
    c1 = (
        h02
        / ck
        * (ell + 1.0) ** ((k - 1) * (ell + 1))
        / (1.0 - 1.0 / math.e)
    )

    if t == 0:
        return _staged_result(q, profile, 0, p_target, {"zero_time": True})

    sqrt_ep = math.sqrt(math.e * p_target)
    r_prob = (
        (2.0 * sqrt_ep / (math.e - 1.0))
        * ((ell + 1.0) * sqrt_ep) ** ((ell + 1) * (k - 1))
        * (h02 * t / eps)
    ) ** (1.0 / ell) * ck * t

    diagnostics: dict = {
        "lambda_k": lam,
        "lambda_prime_k": lam_prime,
        "eta": eta,
        "p_target": p_target,
        "r_probability": r_prob,
        "fermionic_lambda": fermionic,
    }

    if k >= 2:
        a1 = (math.e * (ell + 3.0)) ** (k - 1)
        log_arg = (
            (math.e - 1.0)
            / (math.sqrt(k) ** k * (ell + 1.0) ** ((ell + 1) * (k - 1)))
            * (lam_prime / lam)
        )
        clamped = log_arg < math.e
        a2 = 2.0 * (math.e * math.log(max(log_arg, math.e))) ** (k - 1)
        a3 = solve_transcendental_floor(k, ell)
        a = max(a1, a2, a3)
        r_con = (
            a ** (2.0 * eta / k)
            * ck
            * t ** (1.0 / k)
            * (
                (1.0 - 1.0 / math.e)
                / (2.0 * math.e**eta * (ell + 1.0) ** ((ell + 1) * (k - 1)))
                * eps
                / h02
            )
            ** ((k - 1.0) / k)
        )
        diagnostics.update(
            {
                "r_constraint": r_con,
                "constraint_floor_a": a,
                "floor_terms": (a1, a2, a3),
                "log_clamped": clamped,
            }
        )
    else:
        r_con = 0.0
        diagnostics["r_constraint"] = None

    c2_over_c1 = (
        (math.e - 1.0)
        * (lam_prime / lam)
        / (math.sqrt(k) ** k * (ell + 1.0) ** ((ell + 1) * (k - 1)))
    )
    r, p_star, p_raw, feasible, details = _constrained_steps(
        q, k, ck, c1, eta, max(1, math.ceil(max(r_prob, r_con))), p_target,
        lambda p: (p - 1.0) ** ((k - 1) / 2.0) * ck, c2_over_c1,
    )
    diagnostics.update(details)
    diagnostics["p_raw"] = p_raw
    diagnostics["p_star_floored"] = p_raw < p_target
    return _staged_result(q, profile, r, p_star, diagnostics, feasible)


def _random_first(
    h: HamiltonianLike, profile: NormProfile, q: GateCountQuery
) -> GateCountResult:
    """First-order step count for Hamiltonians with random terms.

    Spectral regime: G = 2 sqrt(2) Gamma (n ln 2 + log(e^2/delta))
    |H|_(0),2 |H|_(1),2 t^2 / eps on the n = ``h.n`` qubits.  The
    fixed-input regime drops the n ln 2 term.  Logarithms are natural.
    """
    log_term = math.log(math.e**2 / q.delta)
    if q.regime == "first-order-random-spectral":
        log_term += h.n * math.log(2)
    h02, h12 = profile.norm(0, 2), profile.norm(1, 2)
    r_real = 2.0 * math.sqrt(2.0) * log_term * h02 * h12 * q.t**2 / q.eps
    r = max(1, math.ceil(r_real)) if q.t > 0 else 0
    step_norm = (q.t / r) * h12 if r else 0.0
    diagnostics = {
        "r_formula": r_real,
        "gate_count_formula": profile.gamma * r_real,
        "log_term": log_term,
        "step_norm_condition": step_norm,
        "step_norm_ok": step_norm <= 4.0,
    }
    return _staged_result(q, profile, r, None, diagnostics)


def _random_ho(
    h: HamiltonianLike, profile: NormProfile, q: GateCountQuery
) -> GateCountResult:
    """Higher-order step count for random-coefficient Hamiltonians.

    Returns the proof-level r (explicit constants, constraint-checked)
    and carries the asymptotic theorem form in the diagnostics.
    """
    k, ell, n = profile.k, q.order, h.n
    t, eps, delta = q.t, q.eps, q.delta
    h02, h12, h01 = profile.norm(0, 2), profile.norm(1, 2), profile.norm(0, 1)

    ck = 4.0 * math.e * k * h12
    cpk = math.e / (2.0 * k) * h01 * h02 / h12
    c1p = math.e / ck * h02**2 / h12
    c2p = cpk / ck
    c1 = c1p * (ell + 1.0) ** ((k - 1) * (ell + 1)) / (1.0 - 1.0 / math.e)
    c2 = math.e * c2p
    eta = (ell + 1) / 2.0

    if q.p is not None:
        p_target = max(2.0, q.p)
    else:
        log_arg = 1.0 / delta
        if q.regime == "random-spectral":
            p_target = max(2.0, (n * math.log(2.0) + math.log(log_arg)) / eta)
        else:
            p_target = max(2.0, math.log(log_arg) / eta)

    if t == 0:
        return _staged_result(q, profile, 0, p_target, {"zero_time": True})

    r_real = (
        (math.e * p_target) ** eta * 2.0 * c1 * (ck * t) ** (ell + 1) / eps
    ) ** (1.0 / ell)
    r, p_star, _, feasible, details = _constrained_steps(
        q, k, ck, c1, eta, max(1, math.ceil(r_real)), p_target,
        lambda p: math.sqrt(p - 1.0) * ck, c2 / c1,
    )

    sqrt_term = (
        math.sqrt(n + math.log(1.0 / delta))
        if q.regime == "random-spectral"
        else math.sqrt(math.log(1.0 / delta))
    )
    r_asymptotic = (
        h12 * sqrt_term * t * (h02**2 * sqrt_term * t / (h12 * eps)) ** (1.0 / ell)
    )

    diagnostics = {
        "c_k": ck,
        "c_prime_k": cpk,
        "c1": c1,
        "c2": c2,
        "eta": eta,
        "p_target": p_target,
        "r_proof": r_real,
        "r_asymptotic": r_asymptotic,
        "asymptotic_form": True,
    }
    diagnostics.update(details)
    return _staged_result(q, profile, r, p_star, diagnostics, feasible)


def _baseline_1norm(
    h: HamiltonianLike, profile: NormProfile, q: GateCountQuery
) -> GateCountResult:
    """Coherent-error baseline G ~ Gamma |H|_(1),1 t (asymptotic)."""
    h11 = profile.norm(1, 1)
    g_real = profile.gamma * h11 * q.t
    r = math.ceil(h11 * q.t) if q.t > 0 else 0
    return GateCountResult(
        regime="spectral-1norm-baseline",
        r=r,
        gate_count=g_real,
        gamma=profile.gamma,
        upsilon=1,
        p_star=None,
        asymptotic=True,
        diagnostics={"gates_nominal": g_real, "h_1_1": h11},
    )


@errors._float_guard(
    "the step count overflows floating point", "rescale the coefficients or the time"
)
def gatecount(h: HamiltonianLike, q: GateCountQuery) -> GateCountResult:
    """Step and gate counts of ``h``; ``q.regime`` selects the calculation:

    - ``nonrandom-typical``: a deterministic k-local Hamiltonian on typical
      (1-design) inputs, with the lambda(k)/lambda'(k) constants, the two
      small-step constraints and the transcendental floor;
    - ``random-spectral`` / ``random-fixed``: the higher-order count for
      independent random terms, over all inputs or one fixed input (even
      order);
    - ``first-order-random-spectral`` / ``first-order-random-fixed``: the
      first-order count for independent random terms (order 1);
    - ``spectral-1norm-baseline``: the coherent-error baseline
      G ~ Gamma |H|_(1),1 t of arXiv:1912.08854 (asymptotic).

    An empty Hamiltonian gives r = 0; a count past the floating-point range
    raises ``ValidationError``.
    """
    random_ho = q.regime in ("random-spectral", "random-fixed")
    if q.regime.startswith("first-order") and q.order != 1:
        raise ValidationError(
            f"first-order-random regimes require order 1, got {q.order}"
        )
    if random_ho and (q.order < 2 or q.order % 2):
        raise ValidationError("random higher-order path requires even order >= 2")
    profile = _profile_of(h)
    if profile.gamma == 0:
        return _empty_result(q.regime, q.order)
    if q.regime == "nonrandom-typical":
        return _nonrandom(h, profile, q)
    if q.regime == "spectral-1norm-baseline":
        return _baseline_1norm(h, profile, q)
    if random_ho:
        return _random_ho(h, profile, q)
    return _random_first(h, profile, q)


# ------------------------------------------------------------- Table 1


@dataclass(frozen=True)
class Table1Cell:
    """One cell of the gate-complexity table.

    Exponents are ``None`` when they depend on parameters not supplied
    (symbolic rows); ``t_exponent``/``inv_eps_exponent`` of the
    higher-order methods are the limits of the 1+o(1) / o(1) exponents.
    """

    family: str
    method: str
    formula: str
    n_exponent: Optional[float]
    t_exponent: Optional[float]
    inv_eps_exponent: Optional[float]
    asymptotic: bool = True


class _Table1Row(NamedTuple):
    """One method's row: its norm form, then the symbolic form and the n
    exponent for the k-local-uniform family (a function of k) and for the
    power-law family (a function of a/d); the t and 1/eps exponents are the
    method's, whatever the family."""

    norm_form: str
    k_local: str
    k_local_n: Callable[[float], float]
    power_law: str
    power_law_n: Callable[[float], float]
    t: float
    inv_eps: float


_TABLE1 = {
    "qdrift": _Table1Row(
        "H(0,1)^2 t^2/eps",
        "n^(k+1) t^2/eps", lambda k: k + 1.0,
        "n^(4-2a/d) t^2/eps", lambda ratio: 4.0 - 2.0 * ratio,
        2.0, 1.0,
    ),
    "qubitization": _Table1Row(
        "Gamma' H(0,1) t",
        "n^((3k+1)/2) t", lambda k: (3.0 * k + 1.0) / 2.0,
        "n^(4-a/d) t", lambda ratio: 4.0 - ratio,
        1.0, 0.0,
    ),
    "higher-order-spectral": _Table1Row(
        "Gamma H(1,1) t",
        "n^((3k-1)/2) t", lambda k: (3.0 * k - 1.0) / 2.0,
        "n^(3-a/d) t", lambda ratio: 3.0 - ratio,
        1.0, 0.0,
    ),
    "higher-order-all-inputs": _Table1Row(
        "sqrt(n) Gamma H(1,2) t",
        "n^(k+1/2) t", lambda k: k + 0.5,
        "n^(5/2) t", lambda ratio: 2.5,
        1.0, 0.0,
    ),
    "higher-order-fixed": _Table1Row(
        "Gamma H(1,2) t",
        "n^k t", lambda k: k,
        "n^2 t", lambda ratio: 2.0,
        1.0, 0.0,
    ),
    "first-order-spectral": _Table1Row(
        "Gamma H(0,1) H(1,1) t^2/eps",
        "n^(2k) t^2/eps", lambda k: 2.0 * k,
        "n^(5-2a/d) t^2/eps", lambda ratio: 5.0 - 2.0 * ratio,
        2.0, 1.0,
    ),
    "first-order-all-inputs": _Table1Row(
        "n Gamma H(0,2) H(1,2) t^2/eps",
        "n^(k+3/2) t^2/eps", lambda k: k + 1.5,
        "n^(7/2) t^2/eps", lambda ratio: 3.5,
        2.0, 1.0,
    ),
    "first-order-fixed": _Table1Row(
        "Gamma H(0,2) H(1,2) t^2/eps",
        "n^(k+1/2) t^2/eps", lambda k: k + 0.5,
        "n^(5/2) t^2/eps", lambda ratio: 2.5,
        2.0, 1.0,
    ),
}

TABLE1_METHODS = tuple(_TABLE1)

_CONFINED_SYMBOLIC = "n t (n t^2/eps)^(d/(2a-d))"


def table1_exponents(
    family: str,
    method: str,
    *,
    k: Optional[float] = None,
    d: Optional[float] = None,
    alpha: Optional[float] = None,
) -> Table1Cell:
    """One cell of the gate-complexity comparison table.

    ``family`` is 'norm-form', 'k-local-uniform' (requires k), or
    'power-law' (requires d and alpha).  Power-law with alpha > d is
    tabulated only for the higher-order fixed/typical method.
    """
    if method not in TABLE1_METHODS:
        raise ValidationError(f"unknown method {method!r}")
    row = _TABLE1[method]
    if family == "norm-form":
        return Table1Cell(family, method, row.norm_form, None, row.t, row.inv_eps)
    if family == "k-local-uniform":
        if k is None or k < 1:
            raise ValidationError(f"k-local-uniform needs k >= 1, got {k}")
        ne = row.k_local_n(float(k))
        return Table1Cell(family, method, row.k_local, ne, row.t, row.inv_eps)
    if family == "power-law":
        if d is None or alpha is None:
            raise ValidationError("power-law needs d and alpha")
        if d < 1:
            raise ValidationError(f"power-law needs d >= 1, got {d}")
        if alpha > d:
            if method != "higher-order-fixed":
                raise ValidationError(
                    "power-law with alpha > d is tabulated only for the "
                    "higher-order fixed/typical method"
                )
            w = d / (2.0 * alpha - d)
            return Table1Cell(
                family,
                method,
                _CONFINED_SYMBOLIC,
                1.0 + w,
                1.0 + 2.0 * w,
                w,
            )
        if not d / 2.0 <= alpha <= d:
            raise ValidationError("power-law row needs d/2 <= alpha <= d")
        ne = row.power_law_n(float(alpha) / float(d))
        return Table1Cell(family, method, row.power_law, ne, row.t, row.inv_eps)
    raise ValidationError(f"unknown family {family!r}")


def table1_all() -> list[Table1Cell]:
    """Every tabulated cell, symbolic exponents left in terms of k, a, d."""
    cells = [table1_exponents("norm-form", m) for m in TABLE1_METHODS]
    for family, form in (("k-local-uniform", "k_local"), ("power-law", "power_law")):
        cells += [
            Table1Cell(family, m, getattr(row, form), None, row.t, row.inv_eps)
            for m, row in _TABLE1.items()
        ]
    cells.append(
        Table1Cell(
            "power-law-confined",
            "higher-order-fixed",
            _CONFINED_SYMBOLIC,
            None,
            None,
            None,
        )
    )
    return cells


# ---------------------------------------------------------- truncation


@dataclass
class TruncationPlan:
    n: int
    d: int
    alpha: float
    t: float
    eps: float
    ell_cut: int
    kept_terms: int
    dropped_terms: int
    residual_norm: float
    residual_error: float
    residual_is_exact: bool
    feasible: bool
    gate_count: float
    asymptotic: bool = True


_DISPLACEMENT_BYTES = 128  # per lattice site; tracemalloc peaks at 105 if every pair drops


@errors._float_guard(
    "the truncation plan leaves the floating-point range",
    "rescale the time or the error budget",
)
def truncation_plan(
    n: int, d: int, alpha: float, t: float, eps: float
) -> TruncationPlan:
    """Plan a distance cutoff for a power-law pair Hamiltonian.

    The cutoff solves t sqrt(n ell^(d-2a)) = eps with unit constant.  The
    residual beyond it is exact at every n: on a lattice of side L, each
    absolute displacement a != 0 joins prod(L - a_i) 2^#(a_i > 0) / 2 site
    pairs of weight sqrt(|a|^2)^(-2 alpha), as in ``power_law``, and the
    n - 1 weighted counts are summed correctly rounded.
    """
    for name, value in (("alpha", alpha), ("t", t), ("eps", eps)):
        check_finite(name, value)
    if n < 1:
        raise ValidationError(f"need n >= 1 sites, got {n}")
    d_max = max(1, n.bit_length())  # a lattice of side >= 2 on n sites has n >= 2**d
    if not 1 <= d <= d_max:
        raise ValidationError(f"need 1 <= d <= {d_max} for n={n} sites, got d={d}")
    if 2.0 * alpha <= d:
        raise DivergentTailError("2 alpha <= d: the far tail carries divergent weight")
    if t < 0 or eps <= 0:
        raise ValidationError("need t >= 0 and eps > 0")
    raw = (n * t**2 / eps**2) ** (1.0 / (2.0 * alpha - d)) if t > 0 else 1.0
    ell_cut = max(1, math.ceil(raw - 1e-12))

    check_budget(n * _DISPLACEMENT_BYTES, f"a truncation plan on {n} sites needs")
    squared, count = _lattice_displacements(n, d)
    dist = np.sqrt(squared)
    far = dist > ell_cut
    count, term = count[far], dist[far] ** (-2.0 * alpha)
    dropped = int(count.sum())
    # Exact for fsum: 26-bit Veltkamp halves of each term times counts split at 2**26
    hi = term * (2.0**27 + 1.0)
    hi -= hi - term
    halves = np.stack([hi, term - hi])[:, None]
    parts = (halves * np.stack([count >> 26 << 26, count & (1 << 26) - 1])).ravel()
    residual_norm = math.sqrt(math.fsum(memoryview(parts)))
    residual_error = t * residual_norm
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
        residual_error=residual_error,
        residual_is_exact=True,
        feasible=residual_error <= eps,
        gate_count=n * t * (n * t**2 / eps) ** (d / (2.0 * alpha - d)),
    )


# ------------------------------------------------------------ counting


@dataclass
class CountingEstimate:
    n: int
    k: int
    eps: float
    gamma: int
    variance_scale: float
    mean_square_sum: float
    deviation: float
    bernstein_variance: float
    ln_tail: float
    tail: float
    ln_net_size: float
    net_size: float
    exponent_per_gamma: float
    asymptotic_exponent: float
    vacuous: bool
    infinite: bool


_LN_TINIEST_FLOAT = math.log(5e-324)


@errors._float_guard(
    "the counting estimate leaves the floating-point range",
    "rescale n, k, eps or the coupling",
)
def counting_net_size(
    n: int, k: int, eps: float, j_coupling: float = 1.0
) -> CountingEstimate:
    """Net-size lower bound for the Gaussian k-local ensemble.

    Two draws collide (differ by less than eps in spectral norm) only
    if the squared-coefficient sum falls below eps^2/2; the Bernstein
    tail for that event bounds the collision probability, and the net
    size follows as floor(sqrt(2 / tail)).  As eps -> 0 the tail
    exponent approaches (3/14) Gamma, so ln(net) approaches (3/28)
    Gamma.
    """
    for name, value in (("eps", eps), ("j_coupling", j_coupling)):
        check_finite(name, value)
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= n, got n={n}, k={k}")
    # Below the smallest float, (k-1)!/(k n^(k-1)) reads 0 and every figure
    # degenerates; refusing it also keeps the exact integers below small.
    if math.lgamma(k) - math.log(k) - (k - 1) * math.log(n) < _LN_TINIEST_FLOAT:
        raise ValidationError(
            f"the variance scale of n={n}, k={k} underflows floating point"
        )
    gamma = math.comb(n, k)
    m2 = (
        j_coupling**2
        * math.factorial(k - 1)
        / (k * n ** (k - 1))
    )
    mean = gamma * m2
    variance = 2.0 * gamma * m2**2

    vacuous = infinite = False
    if eps == 0.0:
        infinite = True
        deviation = mean
        ln_tail, tail, ln_net, net, per_gamma = -math.inf, 0.0, math.inf, math.inf, math.inf
    elif (deviation := mean - eps**2 / 2.0) <= 0:
        vacuous = True
        ln_tail, tail, ln_net, net, per_gamma = math.log(2.0), 1.0, 0.0, 1.0, 0.0
    else:
        ln_tail = math.log(2.0) - (deviation**2 / 2.0) / (
            variance + m2 * deviation / 3.0
        )
        tail = math.exp(ln_tail) if ln_tail > -700 else 0.0
        ln_net = 0.5 * (math.log(2.0) - ln_tail)
        net = math.floor(math.exp(ln_net)) if ln_net < 700 else math.inf
        per_gamma = ln_net / gamma
    return CountingEstimate(
        n=n,
        k=k,
        eps=eps,
        gamma=gamma,
        variance_scale=m2,
        mean_square_sum=mean,
        deviation=deviation,
        bernstein_variance=variance,
        ln_tail=ln_tail,
        tail=tail,
        ln_net_size=ln_net,
        net_size=net,
        exponent_per_gamma=per_gamma,
        asymptotic_exponent=3.0 / 28.0,
        vacuous=vacuous,
        infinite=infinite,
    )


def markov_tail(norm_value: float, eps: float, p: float) -> float:
    """Tail bound min(1, (norm/eps)^p) from the p-th moment."""
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if p < 1:
        raise ValidationError("p must be >= 1")
    if norm_value < 0:
        raise ValidationError("norm must be nonnegative")
    if norm_value == 0.0:
        return 0.0
    ratio = norm_value / eps
    # min(1, ratio**p) without the power where it is >= 1 and may overflow
    return ratio**p if ratio < 1.0 else 1.0
