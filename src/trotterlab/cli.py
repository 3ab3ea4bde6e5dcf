"""Command-line front end for models, norms, schedules, bounds, and experiments.

Subcommands
-----------
model       emit a family Hamiltonian as JSON
norms       local-norm profile and derived constants of a Hamiltonian
schedule    ordered exponential sequence for one product-formula segment
gatecount   step and gate counts for a simulation target
simulate    sample time-evolution error statistics (CSV)
verify      inequality and closed-form verification suites (CSV)
truncate    interaction-truncation plan for power-law models
table1      asymptotic gate-count exponent table, every cell
lowerbound  counting lower bound for random k-local models

Conventions
-----------
* Hamiltonians are read from a JSON file, or from stdin when the path is "-".
* Output goes to stdout unless --out FILE is given.
* Exit codes: 0 success, 2 invalid input, 3 infeasible bound or resource cap.
* Stochastic commands require --seed; identical invocations are
  byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import pathlib
import sys
from typing import Optional, Sequence

from .bounds import (
    REGIMES,
    TABLE1_METHODS,
    GateCountQuery,
    counting_net_size,
    gatecount,
    table1_all,
    table1_exponents,
    truncation_plan,
)
from .errors import (
    DivergentTailError,
    ResourceCapError,
    TrotterlabError,
    ValidationError,
)
from .models import (
    KLocalGaussianModel,
    chain_heisenberg,
    fermi_hop,
    power_law,
    zxyz,
)
from .norms import norm_profile
from .pauli import (
    FermionHamiltonian,
    _pauli_json_text,
    fermion_from_json,
    fermion_to_json,
    pauli_from_json,
)
from .suzuki import build_schedule, q_coefficient, upsilon

FAMILIES = ("chain-heisenberg", "power-law", "k-local-syk", "zxyz", "fermi-hop")

_CSV_SCHEMA = "# schema=trotterlab-csv-1"
_CSV_HEADER = "quantity,p,value,bound,margin,seed"

_Q2_REFERENCE = 0.414490771794376
_UPSILON_REFERENCE = {1: 1, 2: 2, 4: 10, 6: 50}


# ------------------------------------------------------------- plumbing


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    p = pathlib.Path(path)
    if not p.is_file():
        raise ValidationError(f"no such file: {path}")
    return p.read_text()


def _looks_fermionic(data: dict) -> bool:
    if "eta" in data:
        return True
    terms = data.get("terms")
    return (
        isinstance(terms, list)
        and bool(terms)
        and isinstance(terms[0], dict)
        and "ops" in terms[0]
    )


def load_hamiltonian(path: str):
    """Read a Pauli or fermionic Hamiltonian JSON document."""
    data = json.loads(_read_text(path))
    if not isinstance(data, dict):
        raise ValidationError("Hamiltonian JSON must be an object")
    if _looks_fermionic(data):
        return fermion_from_json(data)
    return pauli_from_json(data)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (int, float, bool, str)):
        obj = obj.item()  # numpy scalars
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_text(rows) -> str:
    lines = [_CSV_SCHEMA, _CSV_HEADER]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        pathlib.Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _need(args, family: str, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ValidationError(f"--{name} is required for family {family}")


def _syk_model(args) -> KLocalGaussianModel:
    """The k-local-syk ensemble of --n, --k, --j and --seed."""
    _need(args, "k-local-syk", "n", "k")
    if args.seed is None:
        raise ValidationError("--seed is required for the stochastic family k-local-syk")
    return KLocalGaussianModel(n=args.n, k=args.k, j_coupling=args.j, seed=args.seed)


def build_model(args):
    """Construct the Hamiltonian selected by --family and its parameters."""
    family = args.family
    if family == "chain-heisenberg":
        _need(args, family, "n")
        return chain_heisenberg(args.n)
    if family == "power-law":
        _need(args, family, "n", "d", "alpha")
        return power_law(args.n, args.d, args.alpha)
    if family == "k-local-syk":
        return _syk_model(args).sample(args.seed)
    if family == "zxyz":
        _need(args, family, "m")
        return zxyz(args.m)
    if family == "fermi-hop":
        _need(args, family, "m")
        return fermi_hop(args.m)
    raise ValidationError(f"unknown family {family!r}")


# ------------------------------------------------------------- handlers


def _cmd_model(args) -> tuple[int, str]:
    h = build_model(args)
    if isinstance(h, FermionHamiltonian):
        return 0, _json_text(fermion_to_json(h))
    return 0, _pauli_json_text(h)


def _cmd_norms(args) -> tuple[int, str]:
    prof = norm_profile(load_hamiltonian(args.hamiltonian))
    payload = {
        "gamma": prof.gamma,
        "k": prof.k,
        "c_q_norms": {f"{c},{q}": v for (c, q), v in sorted(prof.norms.items())},
        "lambda": prof.lambda_k,
        "lambda_prime": prof.lambda_prime_k,
        "lambda_ferm": prof.lambda_ferm_k,
        "ferm_zero_two": prof.ferm_zero_two,
    }
    return 0, _json_text(payload)


def _cmd_schedule(args) -> tuple[int, str]:
    if (args.gamma is None) == (args.hamiltonian is None):
        raise ValidationError("give exactly one of a Hamiltonian file or --gamma")
    gamma = args.gamma
    if gamma is None:
        gamma = load_hamiltonian(args.hamiltonian).gamma
    sched = build_schedule(gamma, args.order, args.t, merge=not args.no_merge)
    payload = [{"gamma": idx + 1, "coeff": coeff} for idx, coeff in sched.steps]
    return 0, _json_text(payload)


def _cmd_gatecount(args) -> tuple[int, str]:
    h = load_hamiltonian(args.hamiltonian)
    query = GateCountQuery(
        t=args.t,
        eps=args.eps,
        delta=args.delta,
        order=args.order,
        regime=args.regime,
        p=args.p,
    )
    res = gatecount(h, query)
    return (0 if res.feasible else 3), _json_text(res)


def _report_rows(rep) -> list[tuple]:
    """CSV rows of a ``lab.ErrorReport``."""

    def row(name, p, value, bound=None, margin=None):
        return (name, p, value, bound, margin, rep.seed)

    rows = [
        row("spectral", None, rep.spectral),
        row("spectral-se", None, rep.spectral_se),
        row("mean-error", None, rep.mean_error),
        row("mean-error-se", None, rep.mean_error_se),
    ]
    p_values = rep.p_values
    # exact p-norms are absent for the random-Hamiltonian experiment
    rows += [row("exact-pnorm", p, rep.exact_pnorms[p]) for p in p_values if p in rep.exact_pnorms]
    for p in p_values:
        rows.append(row("expected-pnorm", p, rep.expected_pnorms[p]))
        rows.append(row("expected-pnorm-se", p, rep.expected_pnorm_se[p]))
    rows += [row("fixed-pnorm-lower", p, rep.fixed_pnorms[p]) for p in p_values]
    rows += [row(f"quantile-{q}", None, rep.quantiles[q]) for q in sorted(rep.quantiles)]
    for tail in rep.markov_rows:
        name = f"markov-tail@eps={tail.eps!r}"
        rows.append(row(name, tail.p, tail.empirical, tail.bound, tail.bound - tail.empirical))
    if rep.kind == "random-hamiltonian":
        extras = rep.extras
        rows.append(row("trace-distance-mean", None, extras["trace_distance_mean"]))
        rows.append(row("trace-distance-violations", None, extras["trace_distance_violations"], 0))
        fixed = extras["fixed_quantiles"]
        rows += [row(f"fixed-quantile-{q}", None, fixed[q]) for q in sorted(fixed)]
    return rows


def _cmd_simulate(args) -> tuple[int, str]:
    from .dense import DEFAULT_CAP_N, check_cap
    from .lab import ExperimentConfig, sample_random_hamiltonian, sample_typical_error

    if (args.family is None) == (args.hamiltonian is None):
        raise ValidationError("give exactly one of a Hamiltonian file or --family")
    cfg = ExperimentConfig(
        seed=args.seed,
        samples=args.samples,
        ensemble=args.ensemble,
        p_values=tuple(args.p or (2.0, 4.0)),
        t=args.t,
        r=args.r,
        order=args.order,
        eps_grid=tuple(args.eps or (0.1,)),
        cap_n=DEFAULT_CAP_N if args.cap_n is None else args.cap_n,
    )
    if args.family == "k-local-syk":
        rep = sample_random_hamiltonian(_syk_model(args), cfg)
    else:
        h = build_model(args) if args.family else load_hamiltonian(args.hamiltonian)
        if isinstance(h, FermionHamiltonian):
            check_cap(h.n, cfg.cap_n)  # before the Jordan-Wigner strings, O(n) each
            h = h.to_pauli()
        rep = sample_typical_error(h, cfg)
    return 0, _csv_text(_report_rows(rep))


def _verify_rows(args) -> list[tuple]:
    from .dense import WeightedNormSpec
    from .lab import (
        check_fermionic_smoothness,
        check_two_point_inequality,
        check_uniform_smoothness,
        check_weighted_smoothness,
        fermi_optimality_experiment,
        fuzz_hypercontractivity,
        optimality_experiment,
    )

    seed = args.seed
    trials = args.trials
    p_values = tuple(args.p or (2.0, 4.0))
    suites = (
        ("hypercontractivity", "smoothness", "two-point", "optimality", "suzuki")
        if args.suite == "all"
        else (args.suite,)
    )

    def violations(name, p, rep):
        return (f"{name}-violations", p, rep.violations, 0, rep.worst_relative_margin, seed)

    def compared(name, value, claimed):
        return (name, None, value, claimed, value - claimed, seed)

    rows: list[tuple] = []
    for suite in suites:
        if suite == "hypercontractivity":
            rows.append(violations(suite, None, fuzz_hypercontractivity(trials, seed)))
        elif suite == "smoothness":
            for p in p_values:
                rep = check_uniform_smoothness(site=0, p=p, trials=trials, seed=seed)
                rows.append(violations("subsystem-smoothness", p, rep))
            spec = WeightedNormSpec(weights=(0.3, 0.7, 0.5), s=0.5, p=4.0)
            rep = check_weighted_smoothness(spec, trials, site=1, seed=seed)
            rows.append(violations("weighted-smoothness", 4.0, rep))
            rep = check_fermionic_smoothness(n=4, trials=trials, p=4.0, seed=seed)
            rows.append(violations("fermionic-smoothness", 4.0, rep))
        elif suite == "two-point":
            rows.append(violations(suite, None, check_two_point_inequality(trials, seed=seed)))
        elif suite == "optimality":
            for order in (1, 2):
                for m in (1, 2):
                    rep = optimality_experiment(m, order)
                    tag = f"order{order}-m{m}"
                    rows.append(compared(f"commutator-2norm-{tag}", rep.norm2, rep.closed_norm2))
                    rows.append(
                        compared(f"commutator-spectral-{tag}", rep.spectral, rep.closed_spectral)
                    )
            for m in (1, 2):
                rep = fermi_optimality_experiment(m)
                name = f"fermi-commutator-2norm-{{}}-m{m}"
                rows.append(compared(name.format("first"), rep.first_norm2, rep.first_claimed))
                rows.append(compared(name.format("second"), rep.second_norm2, rep.second_claimed))
        elif suite == "suzuki":
            rows.append(compared("q2", q_coefficient(2), _Q2_REFERENCE))
            for order, expected in sorted(_UPSILON_REFERENCE.items()):
                rows.append(compared(f"upsilon-order{order}", upsilon(order), expected))
        else:  # pragma: no cover - argparse restricts choices
            raise ValidationError(f"unknown suite {suite!r}")
    return rows


def _cmd_verify(args) -> tuple[int, str]:
    return 0, _csv_text(_verify_rows(args))


def _cmd_truncate(args) -> tuple[int, str]:
    plan = truncation_plan(args.n, args.d, args.alpha, args.t, args.eps)
    return (0 if plan.feasible else 3), _json_text(plan)


def _cmd_table1(args) -> tuple[int, str]:
    if args.family is None:
        cells = table1_all()
    else:
        cells = [
            table1_exponents(
                args.family, method, k=args.k, d=args.d, alpha=args.alpha
            )
            for method in TABLE1_METHODS
        ]
    return 0, _json_text(list(cells))


def _cmd_lowerbound(args) -> tuple[int, str]:
    est = counting_net_size(args.n, args.k, args.eps, j_coupling=args.j)
    return 0, _json_text(est)


# ------------------------------------------------------------- parser


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are bad input."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add_family_flags(sub, families=FAMILIES, required=False) -> None:
    sub.add_argument("--family", choices=families, required=required, help="model family")
    sub.add_argument("--n", type=int, help="qubit count")
    sub.add_argument("--m", type=int, help="block size of the three-block models")
    sub.add_argument("--d", type=int, help="lattice dimension")
    sub.add_argument("--alpha", type=_finite_float, help="power-law decay exponent")
    sub.add_argument("--k", type=int, help="locality of the random model")
    sub.add_argument("--j", type=_finite_float, default=1.0, help="coupling strength J")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trotterlab",
        description="Product-formula error norms, concentration checks, and gate counts.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def new(name: str, handler, help_text: str):
        sub = subs.add_parser(name, help=help_text, description=help_text)
        sub.add_argument("--out", help="write output to this file instead of stdout")
        sub.set_defaults(handler=handler)
        return sub

    sub = new("model", _cmd_model, "emit a family Hamiltonian as JSON")
    _add_family_flags(sub, required=True)
    sub.add_argument("--seed", type=int, help="rng seed (required for k-local-syk)")

    sub = new("norms", _cmd_norms, "local-norm profile of a Hamiltonian")
    sub.add_argument("hamiltonian", help="Hamiltonian JSON path, or - for stdin")

    sub = new("schedule", _cmd_schedule, "exponential sequence of one segment")
    sub.add_argument(
        "hamiltonian", nargs="?", help="Hamiltonian JSON path, or - for stdin"
    )
    sub.add_argument("--gamma", type=int, help="term count (alternative to a file)")
    sub.add_argument("--order", type=int, required=True, help="product-formula order")
    sub.add_argument("--t", type=_finite_float, required=True, help="segment duration tau")
    sub.add_argument(
        "--no-merge",
        action="store_true",
        help="keep adjacent identical-term exponentials separate",
    )

    sub = new("gatecount", _cmd_gatecount, "step and gate counts for a target")
    sub.add_argument("hamiltonian", help="Hamiltonian JSON path, or - for stdin")
    sub.add_argument("--regime", choices=REGIMES, default="nonrandom-typical")
    sub.add_argument("--order", type=int, default=2, help="product-formula order")
    sub.add_argument("--t", type=_finite_float, required=True, help="evolution time")
    sub.add_argument("--eps", type=_finite_float, required=True, help="error target")
    sub.add_argument("--delta", type=_finite_float, default=0.1, help="failure probability")
    sub.add_argument("--p", type=_finite_float, help="override the Schatten index p*")

    sub = new("simulate", _cmd_simulate, "sample error statistics (CSV)")
    sub.add_argument(
        "hamiltonian", nargs="?", help="Hamiltonian JSON path, or - for stdin"
    )
    _add_family_flags(sub)
    sub.add_argument("--seed", type=int, required=True, help="rng seed")
    sub.add_argument("--samples", type=int, default=100, help="number of draws")
    sub.add_argument(
        "--ensemble",
        choices=("basis-1-design", "haar"),
        default="basis-1-design",
        help="input-state ensemble for typical-state sampling",
    )
    sub.add_argument("--t", type=_finite_float, required=True, help="evolution time")
    sub.add_argument("--r", type=int, default=1, help="number of segments")
    sub.add_argument("--order", type=int, default=1, help="product-formula order")
    sub.add_argument(
        "--p",
        type=_finite_float,
        action="append",
        help="Schatten index (repeatable; default 2 and 4)",
    )
    sub.add_argument(
        "--eps",
        type=_finite_float,
        action="append",
        help="tail threshold (repeatable; default 0.1)",
    )
    sub.add_argument(
        "--cap-n",
        type=int,
        help="refuse dense work above this qubit count",
    )

    sub = new("verify", _cmd_verify, "inequality/closed-form suites (CSV)")
    sub.add_argument(
        "--suite",
        choices=("all", "hypercontractivity", "smoothness", "two-point", "optimality", "suzuki"),
        default="all",
    )
    sub.add_argument("--trials", type=int, default=200, help="trials per suite")
    sub.add_argument("--seed", type=int, required=True, help="rng seed")
    sub.add_argument(
        "--p",
        type=_finite_float,
        action="append",
        help="Schatten index (repeatable; default 2 and 4)",
    )

    sub = new("truncate", _cmd_truncate, "power-law interaction truncation plan")
    sub.add_argument("--n", type=int, required=True, help="qubit count")
    sub.add_argument("--d", type=int, required=True, help="lattice dimension")
    sub.add_argument("--alpha", type=_finite_float, required=True, help="decay exponent")
    sub.add_argument("--t", type=_finite_float, required=True, help="evolution time")
    sub.add_argument("--eps", type=_finite_float, required=True, help="error budget")

    sub = new("table1", _cmd_table1, "asymptotic gate-count exponents")
    sub.add_argument(
        "--family",
        choices=("norm-form", "k-local-uniform", "power-law"),
        help="emit one family only (default: every cell)",
    )
    sub.add_argument("--k", type=int, help="locality for k-local-uniform")
    sub.add_argument("--d", type=int, help="dimension for power-law")
    sub.add_argument("--alpha", type=_finite_float, help="decay exponent for power-law")

    sub = new("lowerbound", _cmd_lowerbound, "counting lower bound on gates")
    sub.add_argument("--n", type=int, required=True, help="qubit count")
    sub.add_argument("--k", type=int, required=True, help="locality")
    sub.add_argument("--eps", type=_finite_float, required=True, help="error target")
    sub.add_argument("--j", type=_finite_float, default=1.0, help="coupling strength J")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, text = args.handler(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (ResourceCapError, DivergentTailError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrotterlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text:
        _emit(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
