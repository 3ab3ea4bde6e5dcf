"""The benchmark's workloads: generated inputs and the requests of one round.

A request is a dict with
  ``id``     a name unique within the workload,
  ``kind``   which output checks apply (see ``checks.py``),
  ``argv``   arguments of ``trotterlab.cli.main``,
  ``units``  work units the request completes.

Every request seed is derived from the workload seed, so the same seed gives
the same inputs.  ``tiny=True`` shrinks every size for the smoke test.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1

WORKLOADS = ("typical-dense", "planner")

UNIT_NAMES = {
    "typical-dense": "error operators",
    "planner": "requests",
}

REGIMES = (
    "nonrandom-typical",
    "random-spectral",
    "random-fixed",
    "first-order-random-spectral",
    "first-order-random-fixed",
    "spectral-1norm-baseline",
)


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _model(out: str, family: str, **params) -> list[str]:
    argv = ["model", "--family", family]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    return argv + ["--out", out]


def inputs(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """``model`` commands that write the workload's Hamiltonian files."""
    if workload == "typical-dense":
        n8, n9, n10 = (3, 4, 5) if tiny else (8, 9, 10)
        return [
            _model("chain-a.json", "chain-heisenberg", n=n8),
            _model("power-law.json", "power-law", n=n9, d=1, alpha=2),
            _model("chain-b.json", "chain-heisenberg", n=n10),
        ]
    if workload == "planner":
        (syk_seed,) = _seeds(workload, seed, 1)
        pl1, pl2, pl3, syk, chain = (8, 9, 12, 6, 16) if tiny else (64, 64, 128, 20, 256)
        return [
            _model("pl-d1-a.json", "power-law", n=pl1, d=1, alpha=2),
            _model("pl-d2.json", "power-law", n=pl2, d=2, alpha=3),
            _model("pl-d1-b.json", "power-law", n=pl3, d=1, alpha=2),
            _model("syk.json", "k-local-syk", n=syk, k=3, seed=syk_seed),
            _model("chain-big.json", "chain-heisenberg", n=chain),
            _model("chain8.json", "chain-heisenberg", n=8),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _simulate(file: str, ensemble: str, seed: int, samples: int) -> list[str]:
    return [
        "simulate", file, "--order", "2", "--r", "11436", "--t", "1",
        "--samples", str(samples), "--ensemble", ensemble, "--seed", str(seed),
    ]


def requests(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The requests of one round, in the order the client sends them."""
    if workload == "typical-dense":
        # The 8-site chain is sent seven times, spread over the round, so the
        # median request is the median of seven samples of one kind.  One
        # request of each larger model would make it a single sample.
        samples = 20 if tiny else 200
        s = _seeds(workload, seed, 9)
        chain_a = [
            {"id": f"simulate-chain-a-{i}", "kind": "simulate", "units": 1,
             "argv": _simulate("chain-a.json", "basis-1-design", s[i], samples)}
            for i in range(7)
        ]
        power_law = {"id": "simulate-power-law", "kind": "simulate", "units": 1,
                     "argv": _simulate("power-law.json", "haar", s[7], samples)}
        chain_b = {"id": "simulate-chain-b", "kind": "simulate", "units": 1,
                   "argv": _simulate("chain-b.json", "haar", s[8], samples)}
        return chain_a[:3] + [power_law] + chain_a[3:5] + [chain_b] + chain_a[5:]
    if workload == "planner":
        per_file = []
        for file in ("pl-d1-a.json", "pl-d2.json", "pl-d1-b.json", "syk.json", "chain-big.json"):
            stem = file[:-5]
            queries = []
            for regime in REGIMES:
                order = "1" if regime.startswith("first-order") else "2"
                queries.append({
                    "id": f"gatecount-{stem}-{regime}", "kind": "gatecount", "units": 1,
                    "argv": ["gatecount", file, "--regime", regime, "--order", order,
                             "--t", "1", "--eps", "0.1", "--delta", "0.1"],
                })
            queries.append({"id": f"norms-{stem}", "kind": "norms", "units": 1,
                            "argv": ["norms", file]})
            per_file.append(queries)
        # Queries on the same Hamiltonian take about the same time, and the
        # median request is one of the 14 on the two n=64 models.  Sending the
        # files in turn spreads those samples over the whole round.
        reqs = [query for step in zip(*per_file) for query in step]
        extra = [
            ("gatecount-chain8-golden", "gatecount",
             ["gatecount", "chain8.json", "--order", "2", "--t", "1", "--eps", "0.1", "--delta", "0.1"]),
            ("truncate-golden", "truncate",
             ["truncate", "--n", "4", "--d", "1", "--alpha", "2", "--t", "1", "--eps", "2"]),
            ("truncate-d1", "truncate",
             ["truncate", "--n", "64", "--d", "1", "--alpha", "2", "--t", "1", "--eps", "0.01"]),
            ("truncate-d2", "truncate",
             ["truncate", "--n", "64", "--d", "2", "--alpha", "3", "--t", "1", "--eps", "0.01"]),
            ("table1-all", "table1", ["table1"]),
            ("table1-norm-form", "table1", ["table1", "--family", "norm-form"]),
            ("table1-k-local", "table1", ["table1", "--family", "k-local-uniform", "--k", "2"]),
            ("lowerbound-n8", "lowerbound", ["lowerbound", "--n", "8", "--k", "2", "--eps", "0.1"]),
            ("lowerbound-n20", "lowerbound", ["lowerbound", "--n", "20", "--k", "3", "--eps", "0.1"]),
        ]
        reqs += [{"id": i, "kind": k, "units": 1, "argv": a} for i, k, a in extra]
        return reqs
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, seed: int, tiny: bool = False) -> dict:
    """The round's first request, which is cheap, as a warm-up."""
    return dict(requests(workload, seed, tiny)[0], id="warmup")
