"""Monte Carlo and property-based verification lab.

Typical-state error tails, random-Hamiltonian ensembles, the inequality
suite (hypercontractivity and uniform smoothness in plain, weighted, and
fermionic flavors), order-condition slope checks, and the three-block
commutator experiments.

Trials are independent with per-trial seeds spawned from the experiment
seed (safe to parallelize); scalar aggregation uses exact summation
(`math.fsum`), so results are independent of accumulation order.  Any
inequality violation dumps the offending operators to an .npz file and
reports the path.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .bounds import _float_guard, markov_tail
from .dense import (
    DEFAULT_CAP_N,
    _conditional_expectation,
    _spectral_and_pnorms,
    _trotter_power,
    _with_identity,
    WeightedNormSpec,
    basis_indices,
    check_cap,
    errors_for_states,
    evolve,
    haar_states,
    schatten_norm,
    sites_of,
    subset_component,
    to_matrix,
    trotter_error_op,
    weighted_norm,
)
from .errors import ResourceCapError, ValidationError
from .models import (
    KLocalGaussianModel,
    fermi_hop,
    fermi_hop_groups,
    zxyz,
    zxyz_groups,
)
from .pauli import (
    FermionHamiltonian,
    FermionTerm,
    PauliHamiltonian,
    PauliString,
    PauliSum,
    PauliTerm,
    commutator_sum,
    jordan_wigner,
)

__all__ = [
    "ExperimentConfig",
    "ErrorReport",
    "TailRow",
    "sample_typical_error",
    "sample_random_hamiltonian",
    "random_r_sweep",
    "RSweepReport",
    "HypercontractivityCheck",
    "check_hypercontractivity",
    "fuzz_hypercontractivity",
    "SmoothnessReport",
    "check_uniform_smoothness",
    "check_two_point_inequality",
    "check_weighted_smoothness",
    "check_fermionic_smoothness",
    "OrderConditionReport",
    "check_order_condition",
    "OptimalityReport",
    "optimality_experiment",
    "FermiOptimalityReport",
    "fermi_optimality_experiment",
    "random_local_hamiltonian",
    "random_local_operator",
    "pauli_two_norm",
]

ENSEMBLES = ("basis-1-design", "haar")

_QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
# Memory the per-sample arrays, lists and seeds of one experiment may take.
_SAMPLE_BYTES = 1 << 30
_REL_SLACK = 1e-9


# ---------------------------------------------------------------- config


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible experiment parameters.

    ``p_values`` are the Schatten indices reported; ``eps_grid`` the
    thresholds at which empirical tails are compared against the moment
    bounds.
    """

    seed: int
    samples: int = 100
    ensemble: str = "basis-1-design"
    p_values: tuple[float, ...] = (2.0, 4.0)
    t: float = 1.0
    r: int = 1
    order: int = 1
    eps_grid: tuple[float, ...] = (0.1,)
    cap_n: int = DEFAULT_CAP_N

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"the seed must be a non-negative integer, got {self.seed}")
        if self.samples < 1:
            raise ValidationError("need at least one sample")
        if self.ensemble not in ENSEMBLES:
            raise ValidationError(f"unknown ensemble {self.ensemble!r}")
        if any(p < 1 for p in self.p_values):
            raise ValidationError("Schatten indices must be >= 1")
        if self.r < 1:
            raise ValidationError("need r >= 1")


@dataclass(frozen=True)
class TailRow:
    eps: float
    p: float
    empirical: float
    standard_error: float
    bound: float
    consistent: bool


@dataclass
class ErrorReport:
    """Summary of an error-sampling experiment.

    ``quantiles`` (nondecreasing in the quantile level) summarize the
    primary per-sample error array: per-state l2 errors for the
    typical-state experiment, per-draw spectral norms for the random
    ensemble.  ``fixed_pnorms`` is a sup over finitely many probe states
    and therefore only a lower bound on the fixed-input norm.
    """

    kind: str
    n: int
    samples: int
    seed: int
    t: float
    r: int
    order: int
    p_values: tuple[float, ...]
    exact_pnorms: dict[float, float]
    spectral: float
    spectral_se: float
    mean_error: float
    mean_error_se: float
    quantiles: dict[float, float]
    markov_rows: tuple[TailRow, ...]
    expected_pnorms: dict[float, float]
    expected_pnorm_se: dict[float, float]
    fixed_pnorms: dict[float, float]
    extras: dict = field(default_factory=dict)


def _mean_se(values: Iterable[float]) -> tuple[float, float]:
    vals = list(values)
    n = len(vals)
    mean = math.fsum(vals) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var / n)


def _quantile_dict(values: np.ndarray) -> dict[float, float]:
    qs = np.quantile(values, _QUANTILES)
    return {q: float(v) for q, v in zip(_QUANTILES, qs)}


def _tail_rows(
    errors: np.ndarray,
    pnorms: dict[float, float],
    eps_grid: Sequence[float],
) -> tuple[TailRow, ...]:
    n = len(errors)
    rows = []
    for eps in eps_grid:
        frac = float(np.count_nonzero(errors >= eps)) / n
        se = math.sqrt(frac * (1.0 - frac) / n)
        for p, norm_value in pnorms.items():
            bound = markov_tail(norm_value, eps, p)
            rows.append(
                TailRow(
                    eps=eps,
                    p=p,
                    empirical=frac,
                    standard_error=se,
                    bound=bound,
                    consistent=frac <= bound + 3.0 * se + 1e-12,
                )
            )
    return tuple(rows)


def _dump_counterexample(tag: str, arrays: dict[str, np.ndarray]) -> str:
    directory = Path(tempfile.gettempdir()) / "trotterlab-counterexamples"
    directory.mkdir(exist_ok=True)
    path = directory / f"{tag}-{int(time.time() * 1000)}.npz"
    np.savez(path, **arrays)
    return str(path)


# ----------------------------------------------------- error experiments


def _check_samples(samples: int, bytes_each: int) -> None:
    """Refuse an experiment whose samples would not fit in ``_SAMPLE_BYTES``."""
    if samples * bytes_each > _SAMPLE_BYTES:
        raise ResourceCapError(
            f"{samples} samples need more than {_SAMPLE_BYTES} bytes of memory"
        )


def _child_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent child seeds of ``seed``, one per draw or trial,
    refused before they are made when they would not fit: a child seed
    takes about 380 bytes, and a draw keeps a few floats besides."""
    _check_samples(count, 1024)
    return np.random.SeedSequence(seed).spawn(count)


_experiment_float_guard = _float_guard(
    "the experiment leaves the floating-point range", "lower the time or the Schatten index"
)


@_experiment_float_guard
def sample_typical_error(
    h: PauliHamiltonian, cfg: ExperimentConfig
) -> ErrorReport:
    """Error tails of a fixed Hamiltonian over random input states.

    Builds the exact error operator once, evaluates per-state l2 errors
    over the configured state ensemble, and compares the empirical tail
    at each threshold against the p-th moment bound computed from the
    exact normalized Schatten norms.
    """
    check_cap(h.n, cfg.cap_n)
    # about 80 bytes per state entry (Haar) or per basis draw
    _check_samples(cfg.samples, 80 * (2**h.n if cfg.ensemble == "haar" else 1))
    err_op = trotter_error_op(h, cfg.t, cfg.r, cfg.order, cfg.cap_n)
    spectral, pnorms = _spectral_and_pnorms(err_op, cfg.p_values)

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    probes = np.linalg.norm(err_op, axis=0)  # the errors of all basis states
    if cfg.ensemble == "basis-1-design":
        errors = probes[basis_indices(h.n, cfg.samples, rng)]
    else:
        errors = errors_for_states(
            err_op, haar_states(h.n, cfg.samples, rng)
        )
    mean, se = _mean_se(errors.tolist())

    dim = 2**h.n
    haar_probe = errors_for_states(err_op, haar_states(h.n, 64, rng))
    fixed_value = float(max(probes.max(initial=0.0), haar_probe.max(initial=0.0)))

    return ErrorReport(
        kind="typical-state",
        n=h.n,
        samples=cfg.samples,
        seed=cfg.seed,
        t=cfg.t,
        r=cfg.r,
        order=cfg.order,
        p_values=cfg.p_values,
        exact_pnorms=pnorms,
        spectral=spectral,
        spectral_se=0.0,
        mean_error=mean,
        mean_error_se=se,
        quantiles=_quantile_dict(errors),
        markov_rows=_tail_rows(errors, pnorms, cfg.eps_grid),
        # A deterministic operator's expected p-norm is its p-norm.
        expected_pnorms=dict(pnorms),
        expected_pnorm_se={p: 0.0 for p in cfg.p_values},
        fixed_pnorms={p: fixed_value for p in cfg.p_values},
        extras={"dim": dim, "ensemble": cfg.ensemble},
    )


@_experiment_float_guard
def sample_random_hamiltonian(
    model: KLocalGaussianModel, cfg: ExperimentConfig
) -> ErrorReport:
    """Error statistics over draws of a Gaussian-coefficient ensemble.

    Per draw: the exact error operator at (t, r, order), its spectral
    and normalized Schatten norms, the l2 error on the fixed input
    |0...0>, and the pure-state trace distance (checked per sample
    against its 2x l2-error ceiling).
    """
    check_cap(model.n, cfg.cap_n)
    seeds = _child_seeds(cfg.seed, cfg.samples)

    spectrals: list[float] = []
    fixed_errors: list[float] = []
    trace_distances: list[float] = []
    powers: dict[float, list[float]] = {p: [] for p in cfg.p_values}
    fixed_powers: dict[float, list[float]] = {p: [] for p in cfg.p_values}
    td_violations = 0
    for child in seeds:
        h = model.sample(child)
        # The difference is formed in the exact evolution's buffer, keeping
        # only a = e^{iHt}|0...0>.  On an 8-site k = 2 draw this order peaks
        # below trotter_error_op's above 4096 steps (3.39 against 3.64
        # matrices), above it at or below (5.02 against 4.0 at r = 107).
        err_op = evolve(h, cfg.t, cfg.cap_n)
        a = err_op[:, 0].copy()
        err_op -= _trotter_power(h, cfg.t, cfg.r, cfg.order, cfg.cap_n)
        spectral, pnorms = _spectral_and_pnorms(err_op, cfg.p_values)
        spectrals.append(spectral)
        for p in cfg.p_values:
            powers[p].append(pnorms[p] ** p)
        l2 = float(np.linalg.norm(err_op[:, 0]))
        fixed_errors.append(l2)
        for p in cfg.p_values:
            fixed_powers[p].append(l2**p)
        # The pure-state trace distance sqrt(1 - |<a, b>|^2) of a and
        # b = S^r|0...0> = a - d, d = err_op[:, 0], as sqrt(|d|^2 - |<a, d>|^2):
        # equal for unit vectors, without the cancellation of 1 - |<a, b>|^2
        # when b is close to a.
        along = abs(complex(np.vdot(a, err_op[:, 0])))
        td = math.sqrt(max(0.0, l2 * l2 - along * along))
        trace_distances.append(td)
        if td > 2.0 * l2 + 1e-12:
            td_violations += 1

    spectral_mean, spectral_se = _mean_se(spectrals)
    fixed_mean, fixed_se = _mean_se(fixed_errors)

    expected: dict[float, float] = {}
    expected_se: dict[float, float] = {}
    fixed_pnorms: dict[float, float] = {}
    for p in cfg.p_values:
        mean_pow, se_pow = _mean_se(powers[p])
        expected[p] = mean_pow ** (1.0 / p)
        # Delta method: d/dx x^(1/p) = x^(1/p - 1)/p.
        expected_se[p] = (
            se_pow * mean_pow ** (1.0 / p - 1.0) / p if mean_pow > 0 else 0.0
        )
        fixed_pnorms[p] = (math.fsum(fixed_powers[p]) / cfg.samples) ** (
            1.0 / p
        )

    spectral_arr = np.asarray(spectrals)
    return ErrorReport(
        kind="random-hamiltonian",
        n=model.n,
        samples=cfg.samples,
        seed=cfg.seed,
        t=cfg.t,
        r=cfg.r,
        order=cfg.order,
        p_values=cfg.p_values,
        exact_pnorms={},
        spectral=spectral_mean,
        spectral_se=spectral_se,
        mean_error=fixed_mean,
        mean_error_se=fixed_se,
        quantiles=_quantile_dict(spectral_arr),
        markov_rows=_tail_rows(spectral_arr, expected, cfg.eps_grid),
        expected_pnorms=expected,
        expected_pnorm_se=expected_se,
        fixed_pnorms=fixed_pnorms,
        extras={
            "fixed_quantiles": _quantile_dict(np.asarray(fixed_errors)),
            "fixed_tail_fractions": {
                eps: sum(1 for e in fixed_errors if e >= eps) / cfg.samples
                for eps in cfg.eps_grid
            },
            "trace_distance_mean": _mean_se(trace_distances)[0],
            "trace_distance_violations": td_violations,
            "gamma": model.gamma,
            "sigma": model.sigma,
        },
    )


@dataclass
class RSweepReport:
    r_values: tuple[int, ...]
    mean_errors: tuple[float, ...]
    standard_errors: tuple[float, ...]
    slope_vs_r: float


def random_r_sweep(
    model: KLocalGaussianModel,
    cfg: ExperimentConfig,
    r_values: Sequence[int],
) -> RSweepReport:
    """Mean fixed-input error across a step-count sweep (paired draws).

    The same Hamiltonian draws are reused at every r, so the fitted
    log-log slope of mean error against r isolates the step-count
    scaling (-1 at first order, leading behavior t^2/r).
    """
    check_cap(model.n, cfg.cap_n)
    if any(r < 1 for r in r_values):
        raise ValidationError("need r >= 1 throughout the sweep")
    seeds = _child_seeds(cfg.seed, cfg.samples)
    per_r: dict[int, list[float]] = {r: [] for r in r_values}
    for child in seeds:
        h = model.sample(child)
        exact_col = evolve(h, cfg.t, cfg.cap_n)[:, 0]
        for r in r_values:
            approx = _trotter_power(h, cfg.t, r, cfg.order, cfg.cap_n)[:, 0]
            per_r[r].append(float(np.linalg.norm(exact_col - approx)))
    means, ses = [], []
    for r in r_values:
        m, s = _mean_se(per_r[r])
        means.append(m)
        ses.append(s)
    slope = float(np.polyfit(np.log(np.asarray(r_values, dtype=float)), np.log(means), 1)[0])
    return RSweepReport(
        r_values=tuple(int(r) for r in r_values),
        mean_errors=tuple(means),
        standard_errors=tuple(ses),
        slope_vs_r=slope,
    )


# ------------------------------------------------- inequality suite


def _inequality(lhs, rhs) -> tuple[np.ndarray, np.ndarray]:
    """The relative margin (rhs - lhs)/max(rhs, 1e-300) of lhs <= rhs and
    whether lhs exceeds rhs beyond the relative slack, for scalars or
    elementwise for arrays.  A side outside the floating-point range
    raises ``ValidationError``: such an inequality cannot be decided."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise ValidationError(
            "a side of an inequality leaves the floating-point range; "
            "lower the Schatten index or the operator's scale"
        )
    scale = np.maximum(rhs, 1e-300)
    return (rhs - lhs) / scale, lhs > rhs + _REL_SLACK * scale


def pauli_two_norm(f: PauliSum) -> float:
    """Normalized 2-norm of a Pauli sum: sqrt(sum |coeff|^2)."""
    return math.sqrt(math.fsum(abs(c) ** 2 for c in f._rows.c.tolist()))


def support_components(f: Union[PauliSum, np.ndarray]) -> dict[frozenset, np.ndarray]:
    """Decompose an operator into its site-support components F_S.

    Pauli sums decompose symbolically (each string contributes to the
    subset equal to its support); raw matrices go through the
    conditional-expectation projector over all 2^n subsets.
    """
    if isinstance(f, PauliSum):
        groups: dict[frozenset, list[PauliTerm]] = {}
        for term in f.terms:
            groups.setdefault(frozenset(term.string.support()), []).append(term)
        return {
            s: to_matrix(PauliSum(f.n, ts)) for s, ts in groups.items()
        }
    m = to_matrix(f)
    n = sites_of(m)
    with np.errstate(over="ignore"):  # numpy's norm squares the entries
        floor = 1e-14 * max(1.0, float(np.linalg.norm(m)))
    if math.isinf(floor):  # no component can be told negligible
        raise ValidationError("the operator's norm leaves the floating-point range")
    out: dict[frozenset, np.ndarray] = {}
    sites = list(range(n))
    for mask in range(2**n):
        subset = frozenset(s for s in sites if mask >> s & 1)
        comp = subset_component(m, subset)
        if np.linalg.norm(comp) > floor:  # at most m's norm
            out[subset] = comp
    return out


@dataclass
class HypercontractivityCheck:
    p: float
    lhs: float
    rhs: float
    margin: float
    fact_lhs: float
    fact_rhs: float
    fact_margin: float
    two_norm_rhs: float
    two_norm_margin: float
    passed: bool


@_float_guard("the operator's norms leave the floating-point range", "lower its scale or p")
def check_hypercontractivity(
    f: Union[PauliSum, np.ndarray], p_values: Sequence[float]
) -> list[HypercontractivityCheck]:
    """Moment estimates for a local operator, one check per Schatten index p.

    Checks three one-sided inequalities on the support decomposition
    F = sum_S F_S with C_p = p - 1:

    - squared-norm form:  |F|_p^2 <= sum_S C_p^|S| |F_S|_p^2,
    - aggregated form:    |F|_p <= |sum_S C_p^(|S|/2) F_S|_2,
    - 2-norm form:        |F|_p^2 <= sum_S (3 C_p)^|S| |F_S|_2^2,

    all in normalized norms.  ``margin`` is rhs - lhs for the first.  Every
    p is read from one matrix, one support decomposition and one set of
    singular values per operator; only the aggregated form's p-dependent
    combination takes an SVD per p.
    """
    if min(p_values) < 2:
        raise ValidationError("hypercontractivity checks need p >= 2")
    m = to_matrix(f)
    comps = support_components(f)
    lhs_norms = _spectral_and_pnorms(m, p_values)[1]
    comp_norms = {s: _spectral_and_pnorms(c, (*p_values, 2.0))[1] for s, c in comps.items()}
    checks = []
    for p in p_values:
        cp = p - 1.0
        lhs_norm = lhs_norms[p]
        lhs = lhs_norm**2
        rhs = math.fsum(cp ** len(s) * norms[p] ** 2 for s, norms in comp_norms.items())
        combo = sum((cp ** (len(s) / 2.0) * c for s, c in comps.items()), np.zeros_like(m))
        fact_rhs = schatten_norm(combo, 2, normalized=True)
        two_rhs = math.fsum(
            (3.0 * cp) ** len(s) * norms[2.0] ** 2 for s, norms in comp_norms.items()
        )
        violated = _inequality((lhs, lhs_norm, lhs), (rhs, fact_rhs, two_rhs))[1]
        checks.append(
            HypercontractivityCheck(
                p=p,
                lhs=lhs,
                rhs=rhs,
                margin=rhs - lhs,
                fact_lhs=lhs_norm,
                fact_rhs=fact_rhs,
                fact_margin=fact_rhs - lhs_norm,
                two_norm_rhs=two_rhs,
                two_norm_margin=two_rhs - lhs,
                passed=not violated.any(),
            )
        )
    return checks


@dataclass
class SmoothnessReport:
    trials: int
    checks: int
    violations: int
    worst_relative_margin: float
    passed: bool
    dump_path: Optional[str] = None


class _Tally:
    """The checks, violations, worst relative margin and first
    counterexample dump of one inequality suite."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.checks = 0
        self.violations = 0
        self.worst = math.inf
        self.dump_path: Optional[str] = None

    def record(self, margin, violated, arrays) -> None:
        """One check, or one per entry of array ``margin`` and ``violated``.
        ``arrays()`` gives the operators to dump at the first violation; of
        an array check, only the entries of the violated checks are dumped."""
        margin = np.asarray(margin)
        violated = np.asarray(violated)
        self.checks += margin.size
        self.worst = min(self.worst, float(margin.min(initial=math.inf)))
        count = int(np.count_nonzero(violated))
        if count:
            self.violations += count
            if self.dump_path is None:
                dump = arrays()
                if violated.ndim:
                    dump = {name: a[violated] for name, a in dump.items()}
                self.dump_path = _dump_counterexample(self.tag, dump)

    def inequality(self, lhs, rhs, arrays) -> None:
        """Check lhs <= rhs up to the relative slack, for scalars or
        elementwise for arrays."""
        self.record(*_inequality(lhs, rhs), arrays)

    def report(self, trials: int) -> SmoothnessReport:
        return SmoothnessReport(
            trials=trials,
            checks=self.checks,
            violations=self.violations,
            worst_relative_margin=self.worst,
            passed=self.violations == 0,
            dump_path=self.dump_path,
        )


def random_local_operator(
    n: int,
    k: int,
    terms: int,
    rng: np.random.Generator,
    complex_coeffs: bool = True,
) -> PauliSum:
    """A random sum of Pauli strings, each supported on <= k sites."""
    letters = "XYZ"
    out: list[tuple[PauliString, complex]] = []
    for _ in range(terms):
        size = int(rng.integers(1, k + 1))
        sites = rng.choice(n, size=size, replace=False)
        label = ["I"] * n
        for s in sites:
            label[int(s)] = letters[int(rng.integers(0, 3))]
        coeff = complex(rng.standard_normal())
        if complex_coeffs:
            coeff += 1j * rng.standard_normal()
        out.append((PauliString.from_label("".join(label)), coeff))
    return PauliSum(n, out)


def random_local_hamiltonian(
    n: int, k: int, terms: int, seed: int, scale: float = 1.0
) -> PauliHamiltonian:
    """A random Hermitian k-local Hamiltonian with Gaussian coefficients."""
    rng = np.random.default_rng(seed)
    ps = random_local_operator(n, k, terms, rng, complex_coeffs=False)
    return PauliHamiltonian(
        n, [PauliTerm(t.string, scale * t.coeff.real) for t in ps.terms]
    )


def fuzz_hypercontractivity(trials: int, seed: int) -> SmoothnessReport:
    """Random-operator fuzz over all three hypercontractive forms.

    Each trial draws an operator of 2 to 6 sites, with 1 to 8 Pauli strings
    of at most 3 sites each, and checks it at p = 2, 4, 6 and 8: one check
    per (operator, p), violated when any form is.  The margin is the
    squared-norm form's.
    """
    tally = _Tally("hypercontractivity")
    for child in _child_seeds(seed, trials):
        rng = np.random.default_rng(child)
        n = int(rng.integers(2, 7))
        f = random_local_operator(n, min(3, n), int(rng.integers(1, 9)), rng)
        for res in check_hypercontractivity(f, (2.0, 4.0, 6.0, 8.0)):
            margin = _inequality(res.lhs, res.rhs)[0]
            tally.record(margin, not res.passed, lambda: {"operator": to_matrix(f)})
    return tally.report(trials)


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _with_identity_site(mat_rest: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed an operator on sites != site as (rest) tensor I_site."""
    rest = mat_rest.reshape((2,) * (2 * (n - 1)))
    return _with_identity(rest, site, n).reshape(2**n, 2**n)


def _recenter_site(y: np.ndarray, site: int, n: int, weight: float = 0.5) -> np.ndarray:
    """Remove the site marginal: subtract I_site (x) Tr_site[(rho_site (x) I) Y]."""
    tensor = y.reshape((2,) * (2 * n))
    return y - _conditional_expectation(tensor, site, n, weight).reshape(2**n, 2**n)


def check_uniform_smoothness(
    site: int,
    p: float,
    trials: int,
    n: int = 3,
    seed: int = 0,
) -> SmoothnessReport:
    """Subsystem uniform smoothness: |X+Y|_p^2 <= |X|_p^2 + (p-1)|Y|_p^2
    for X acting as identity on ``site`` and Y traceless on it."""
    if p < 2:
        raise ValidationError("uniform smoothness needs p >= 2")
    if not 0 <= site < n:
        raise ValidationError("site out of range")
    tally = _Tally("uniform-smoothness")
    for child in _child_seeds(seed, trials):
        rng = np.random.default_rng(child)
        x = _with_identity_site(_ginibre(2 ** (n - 1), rng), site, n)
        y = _recenter_site(_ginibre(2**n, rng), site, n)
        if rng.integers(0, 2):
            x = x + x.conj().T
            y = y + y.conj().T
        lhs = schatten_norm(x + y, p) ** 2
        rhs = schatten_norm(x, p) ** 2 + (p - 1.0) * schatten_norm(y, p) ** 2
        tally.inequality(lhs, rhs, lambda: {"x": x, "y": y})
    return tally.report(trials)


def check_two_point_inequality(
    trials: int, seed: int = 0
) -> SmoothnessReport:
    """Scalar two-point inequality, vectorized:
    ((|a+b|^p + |a-b|^p)/2)^(2/p) <= a^2 + (p-1) b^2."""
    _check_samples(trials, 80)  # about ten float arrays of one entry per trial
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(trials) * 10.0 ** rng.uniform(-2, 2, trials)
    b = rng.standard_normal(trials) * 10.0 ** rng.uniform(-2, 2, trials)
    p = rng.uniform(2.0, 10.0, trials)
    lhs = ((np.abs(a + b) ** p + np.abs(a - b) ** p) / 2.0) ** (2.0 / p)
    rhs = a**2 + (p - 1.0) * b**2
    tally = _Tally("two-point")
    tally.inequality(lhs, rhs, lambda: {"a": a, "b": b, "p": p})
    return tally.report(trials)


def check_weighted_smoothness(
    spec: WeightedNormSpec,
    trials: int,
    site: int = 0,
    seed: int = 0,
) -> SmoothnessReport:
    """Weighted subsystem uniform smoothness under a product state.

    Y is recentered against the site weight (Tr_site(rho_site Y) = 0);
    X acts as identity on the site.  Checks
    |X+Y|^2 <= |X|^2 + (p-1)|Y|^2 in the rho-weighted norm.
    """
    n = len(spec.weights)
    if not 0 <= site < n:
        raise ValidationError("site out of range")
    w = spec.weights[site]
    tally = _Tally("weighted-smoothness")
    for child in _child_seeds(seed, trials):
        rng = np.random.default_rng(child)
        x = _with_identity_site(_ginibre(2 ** (n - 1), rng), site, n)
        y = _recenter_site(_ginibre(2**n, rng), site, n, weight=w)
        lhs = weighted_norm(x + y, spec) ** 2
        rhs = (
            weighted_norm(x, spec) ** 2
            + (spec.p - 1.0) * weighted_norm(y, spec) ** 2
        )
        tally.inequality(lhs, rhs, lambda: {"x": x, "y": y})
    return tally.report(trials)


def _random_fermion_sum(
    n: int, rng: np.random.Generator
) -> tuple[PauliSum, dict[frozenset, PauliSum]]:
    """A random sum of ladder monomials and its site-support components."""
    by_support: dict[frozenset, list[PauliTerm]] = {}
    n_terms = int(rng.integers(2, 7))
    for _ in range(n_terms):
        size = int(rng.integers(1, 3))
        sites = sorted(int(s) for s in rng.choice(n, size=size, replace=False))
        factors = tuple(
            (s, "+" if rng.integers(0, 2) else "-") for s in sites
        )
        term = FermionTerm(factors, float(rng.standard_normal()))
        image = jordan_wigner(term, n)
        by_support.setdefault(frozenset(sites), []).extend(image.terms)
    groups = {s: PauliSum(n, ts) for s, ts in by_support.items()}
    merged = PauliSum(n, [t for g in groups.values() for t in g.terms])
    return merged, groups


def check_fermionic_smoothness(
    n: int, trials: int, p: float = 4.0, seed: int = 0
) -> SmoothnessReport:
    """Fermionic uniform smoothness over ladder-monomial sums:
    |A|_p^2 <= sum_S (p-1)^|S| |A_S|_p^2, S the ladder site supports."""
    if p < 2:
        raise ValidationError("needs p >= 2")
    tally = _Tally("fermionic-smoothness")
    for child in _child_seeds(seed, trials):
        rng = np.random.default_rng(child)
        total, groups = _random_fermion_sum(n, rng)
        m = to_matrix(total)
        lhs = schatten_norm(m, p, normalized=True) ** 2
        rhs = math.fsum(
            (p - 1.0) ** len(s)
            * schatten_norm(to_matrix(g), p, normalized=True) ** 2
            for s, g in groups.items()
        )
        tally.inequality(lhs, rhs, lambda: {"a": m})
    return tally.report(trials)


# -------------------------------------------------- order condition


@dataclass
class OrderConditionReport:
    order: int
    expected_slope: float
    slope: Optional[float]
    taus: tuple[float, ...]
    errors: tuple[float, ...]
    exact: bool
    widened: bool


_ERROR_FLOOR = 1e-12


def check_order_condition(
    h: PauliHamiltonian,
    order: int,
    taus: Optional[Sequence[float]] = None,
    cap_n: int = DEFAULT_CAP_N,
) -> OrderConditionReport:
    """Least-squares slope of log error against log tau over a decade.

    A product formula of the given order has slope order + 1.  If all
    errors sit at the numeric floor the window widens automatically;
    a Hamiltonian the formula splits exactly (e.g. fully commuting
    terms) stays at the floor and is reported as exact.
    """
    check_cap(h.n, cap_n)
    window = (
        np.geomspace(1e-3, 1e-2, 7)
        if taus is None
        else np.asarray(sorted(taus), dtype=float)
    )
    widened = False
    for _ in range(4):
        errors = []
        for tau in window:
            errors.append(schatten_norm(trotter_error_op(h, tau, 1, order, cap_n), math.inf))
        if max(errors) >= _ERROR_FLOOR or window.max() >= 0.5:
            break
        window = window * 10.0
        widened = True
    exact = max(errors) < _ERROR_FLOOR
    return OrderConditionReport(
        order=order,
        expected_slope=order + 1.0,
        slope=None if exact else float(np.polyfit(np.log(window), np.log(errors), 1)[0]),
        taus=tuple(float(x) for x in window),
        errors=tuple(errors),
        exact=exact,
        widened=widened,
    )


# --------------------------------------------- three-block experiments


@dataclass
class OptimalityReport:
    m: int
    order: int
    norm2: float
    spectral: float
    closed_norm2: float
    closed_spectral: float
    norm2_matches: bool
    spectral_matches: bool
    ratio: float
    commutator: PauliSum


def optimality_experiment(
    m: int, order: int, cap_n: int = DEFAULT_CAP_N
) -> OptimalityReport:
    """Exact norms of the leading commutator of the three-block model.

    Order 1 checks [A, B] against the closed forms 2 m^(3/2)
    (normalized 2-norm) and 2 m^3 (spectral); order 2 checks the
    doubled-middle commutator [B, [B, A]] against 4 m^(3/2) sqrt(3m-2)
    and 4 m^4.
    """
    if order not in (1, 2):
        raise ValidationError("experiment covers orders 1 and 2")
    h = zxyz(m)
    check_cap(h.n, cap_n)
    a, b = (h._at(group) for group in zxyz_groups(m))
    if order == 1:
        comm = commutator_sum(a, b)
        closed_norm2 = 2.0 * m**1.5
        closed_spectral = 2.0 * m**3
    else:
        comm = commutator_sum(b, commutator_sum(b, a))
        closed_norm2 = 4.0 * m**1.5 * math.sqrt(3.0 * m - 2.0)
        closed_spectral = 4.0 * m**4
    norm2 = pauli_two_norm(comm)
    spectral = schatten_norm(to_matrix(comm, cap_n), math.inf)
    return OptimalityReport(
        m=m,
        order=order,
        norm2=norm2,
        spectral=spectral,
        closed_norm2=closed_norm2,
        closed_spectral=closed_spectral,
        norm2_matches=math.isclose(norm2, closed_norm2, rel_tol=1e-9),
        spectral_matches=math.isclose(spectral, closed_spectral, rel_tol=1e-9),
        ratio=spectral / norm2 if norm2 else math.inf,
        commutator=comm,
    )


@dataclass
class FermiOptimalityReport:
    m: int
    first_norm2: float
    first_claimed: float
    first_matches: bool
    second_norm2: float
    second_claimed: float
    second_matches: bool
    first_ratio: float
    second_ratio: float


def fermi_optimality_experiment(m: int) -> FermiOptimalityReport:
    """Exact commutator norms of the two-block hopping model.

    Compares the normalized 2-norms of [A, B] and [B, [B, A]] against
    the claimed closed forms 2 sqrt|S1| |S2| sqrt|S3| = 2 m^2 and
    2 sqrt|S1| |S2|^2 sqrt|S3| = 2 m^3.  The measured values run a
    factor 2 sqrt(2) below the claims (each hopping pair has normalized
    2-norm 1/sqrt(2), not 1); the report carries both so callers can
    assert either side.  No matrix is built, so no dense cap applies.
    """
    f = fermi_hop(m)
    groups = fermi_hop_groups(m)
    terms = f.terms
    a = FermionHamiltonian(f.n, [terms[i] for i in groups[0]]).to_pauli()
    b = FermionHamiltonian(f.n, [terms[i] for i in groups[1]]).to_pauli()
    first = commutator_sum(a, b)
    second = commutator_sum(b, commutator_sum(b, a))
    first_norm2 = pauli_two_norm(first)
    second_norm2 = pauli_two_norm(second)
    first_claimed = 2.0 * m**2
    second_claimed = 2.0 * m**3
    return FermiOptimalityReport(
        m=m,
        first_norm2=first_norm2,
        first_claimed=first_claimed,
        first_matches=math.isclose(first_norm2, first_claimed, rel_tol=1e-9),
        second_norm2=second_norm2,
        second_claimed=second_claimed,
        second_matches=math.isclose(second_norm2, second_claimed, rel_tol=1e-9),
        first_ratio=first_claimed / first_norm2 if first_norm2 else math.inf,
        second_ratio=second_claimed / second_norm2 if second_norm2 else math.inf,
    )
