"""Output checks for benchmark requests.

``check`` returns the problems found in one request's output (an empty list
means the output is correct).  Three kinds of check apply:

* pinned goldens: the chain-8 order-2 gatecount (r = 11436, p* = 2), the
  Table 1 formula cells, and the truncation residual sqrt(1/8 + 1/81);
* invariants on every output, such as the CSV schema header and exact
  normalized p-norms ordered p=2 <= p=4 <= spectral;
* reference values recorded from an earlier commit for the default seed,
  compared with ``close`` (relative ``RTOL`` plus absolute ``ATOL``).

The tolerance allows for roundoff: at r = 11436 the error norms are about
3e-8 but come from unitaries with O(1) entries, so a correct reimplementation
of the dense engine moves them by about 1e-5 relative; values at roundoff
level (about 1e-15) are covered by ``ATOL``.
"""

from __future__ import annotations

import json
import math

RTOL = 1e-4
ATOL = 1e-12
ORDER_SLACK = 1e-9  # relative slack of the norm-ordering invariants

CSV_SCHEMA = "# schema=trotterlab-csv-1"
CSV_HEADER = "quantity,p,value,bound,margin,seed"
CSV_KINDS = ("simulate",)

GOLDEN_CHAIN8_R = 11436
GOLDEN_CHAIN8_P = 2.0
TRUNCATION_RESIDUAL = math.sqrt(1.0 / 8.0 + 1.0 / 81.0)

TABLE1_FORMULAS = {
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


class OutputError(ValueError):
    """The output cannot be parsed as the request kind's format."""


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> list[list]:
    lines = text.splitlines()
    if lines[:2] != [CSV_SCHEMA, CSV_HEADER]:
        raise OutputError("CSV schema or header line missing")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != 6:
            raise OutputError(f"CSV row with {len(cells)} cells: {line!r}")
        rows.append([cells[0]] + [_cell(c) for c in cells[1:]])
    return rows


def parse_output(kind: str, text: str):
    """The output as data: CSV rows, or the decoded JSON document."""
    if kind in CSV_KINDS:
        return parse_csv(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise OutputError(f"malformed JSON: {exc}") from None


def close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * abs(want) + ATOL


def compare(got, want, path: str = "$") -> list[str]:
    """Differences between two parsed outputs; numbers compared with ``close``."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, int) and isinstance(got, int):
        return [] if got == want else [f"{path}: {got} != {want}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return [] if close(got, want) else [f"{path}: {got!r} not within tolerance of {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys differ: {sorted(set(got) ^ set(want))}"]
        return [d for key in sorted(want) for d in compare(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _le(a: float, b: float) -> bool:
    return a <= b + ORDER_SLACK * abs(b)


def _check_csv(rows: list[list]) -> list[str]:
    problems = []
    by_quantity: dict[tuple, float] = {}
    for quantity, p, value, bound, margin, seed in rows:
        if not _finite(value):
            problems.append(f"{quantity}: value {value!r} is not a finite number")
            continue
        by_quantity[(quantity, p)] = value
    exact2 = by_quantity.get(("exact-pnorm", 2.0))
    exact4 = by_quantity.get(("exact-pnorm", 4.0))
    spectral = by_quantity.get(("spectral", None))
    if exact2 is not None and exact4 is not None and spectral is not None:
        if not (_le(exact2, exact4) and _le(exact4, spectral)):
            problems.append(
                f"norm order broken: p=2 {exact2!r}, p=4 {exact4!r}, spectral {spectral!r}"
            )
    if spectral is None:
        problems.append("simulate output has no spectral row")
    return problems


def _check_json(req: dict, doc) -> list[str]:
    kind, rid = req["kind"], req["id"]
    problems = []
    if kind == "gatecount":
        if not doc.get("feasible") or not isinstance(doc.get("r"), int) or doc["r"] < 1:
            problems.append(f"gatecount not feasible or bad r: r={doc.get('r')!r}")
        if not (_finite(doc.get("gate_count")) and doc["gate_count"] > 0):
            problems.append(f"gate_count {doc.get('gate_count')!r} is not positive")
        if rid == "gatecount-chain8-golden" and (
            doc.get("r") != GOLDEN_CHAIN8_R or doc.get("p_star") != GOLDEN_CHAIN8_P
        ):
            problems.append(
                f"golden chain-8 query gave r={doc.get('r')!r}, p*={doc.get('p_star')!r}; "
                f"expected r={GOLDEN_CHAIN8_R}, p*={GOLDEN_CHAIN8_P}"
            )
    elif kind == "norms":
        norms = {tuple(int(x) for x in key.split(",")): v for key, v in doc["c_q_norms"].items()}
        for (c, q), v in norms.items():
            if not (_finite(v) and v >= 0):
                problems.append(f"norm ({c},{q}) = {v!r}")
            elif q == 2 and (c, 1) in norms and not _le(v, norms[(c, 1)]):
                problems.append(f"norm ({c},2) exceeds ({c},1)")
            elif (c + 1, q) in norms and not _le(norms[(c + 1, q)], v):
                problems.append(f"norm ({c + 1},{q}) exceeds ({c},{q})")
        if not (_finite(doc.get("lambda")) and doc["lambda"] > 0):
            problems.append(f"lambda {doc.get('lambda')!r} is not positive")
    elif kind == "truncate":
        if not doc.get("feasible"):
            problems.append("truncation plan is not feasible")
        elif not doc["t"] * doc["residual_norm"] <= doc["eps"] + 1e-12:
            problems.append("feasible plan with t * residual > eps")
        if rid == "truncate-golden" and not (
            doc.get("ell_cut") == 1
            and doc.get("residual_is_exact") is True
            and abs(doc.get("residual_norm", math.inf) - TRUNCATION_RESIDUAL) <= 1e-6
        ):
            problems.append(f"truncation residual {doc.get('residual_norm')!r}, expected {TRUNCATION_RESIDUAL}")
    elif kind == "table1":
        cells = {(c["family"], c["method"]): c["formula"] for c in doc}
        wrong = {k: v for k, v in cells.items() if TABLE1_FORMULAS.get(k) != v}
        if wrong:
            problems.append(f"table1 cells differ from the golden formulas: {sorted(wrong)}")
        if rid == "table1-all" and set(cells) != set(TABLE1_FORMULAS):
            problems.append("table1 does not list every golden cell")
    elif kind == "lowerbound":
        if not (_finite(doc.get("ln_net_size")) and doc["ln_net_size"] > 0):
            problems.append(f"ln_net_size {doc.get('ln_net_size')!r} is not positive")
    return problems


def check(req: dict, code: int, text: str, reference=None) -> list[str]:
    """Problems in one request's output; ``reference`` is the parsed expected output."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        data = parse_output(req["kind"], text)
        problems = _check_csv(data) if req["kind"] in CSV_KINDS else _check_json(req, data)
    except (OutputError, KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    if reference is not None:
        problems += [f"reference: {d}" for d in compare(data, reference)]
    return problems
