"""Run-time span tracing of trotterlab, installed from outside the package.

``install`` wraps every public function of each trotterlab module (found by
introspection, so functions added later are traced too) and a few class
entry points, and rebinds each wrapped name in every trotterlab module
namespace that imported it.  Each call records one span: name, start, end,
parent span and request id.  Spans stay in memory until ``write_jsonl``.

Layers are the modules; ``dense`` is split into the sub-layers of
``DENSE_SUBLAYERS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("pauli", "norms", "suzuki", "dense", "models", "bounds", "lab", "cli")

DENSE_SUBLAYERS = {
    "to_matrix": "dense.build",
    "string_matrix": "dense.build",
    "apply_schedule": "dense.schedule",
    "evolve": "dense.evolve",
    "unitary_power": "dense.evolve",
    "trotter_error_op": "dense.evolve",
    "schatten_norm": "dense.spectral",
    "weighted_norm": "dense.spectral",
    "weighted_norm_diagonal": "dense.spectral",
    "sector_norm": "dense.spectral",
    "errors_for_basis": "dense.spectral",
    "errors_for_states": "dense.spectral",
}

LAYERS = (
    "cli", "lab", "bounds", "norms", "pauli", "suzuki", "models",
    "dense.build", "dense.schedule", "dense.evolve", "dense.spectral", "dense.other",
)

# Class methods that do a layer's work: (module, class, method).
CLASS_ENTRY_POINTS = (
    ("pauli", "PauliSum", "__init__"),
    ("pauli", "PauliSum", "__mul__"),
    ("models", "KLocalGaussianModel", "sample"),
    ("pauli", "FermionHamiltonian", "to_pauli"),
)


def layer_of(module: str, name: str) -> str:
    if module == "dense":
        return DENSE_SUBLAYERS.get(name, "dense.other")
    return module


def _count_steps(counters, args, kwargs, result) -> None:
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    counters["dense.schedule.steps"] += len(schedule.steps)


def _count_doublings(counters, args, kwargs, result) -> None:
    counters["bounds.doublings"] += int(result.diagnostics.get("constraint_doublings", 0))


# Counts taken at a span boundary from the call's arguments or result.
COUNT_HOOKS = {
    "dense.apply_schedule": _count_steps,
    "bounds.gatecount": _count_doublings,
}


class Tracer:
    """In-memory span recorder for one process (single-threaded)."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # (span name, layer)
        self.spans: list = []  # (name index, start, end, parent index, request)
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.request = None

    def wrap(self, name: str, layer: str, fn):
        name_idx = len(self.names)
        self.names.append((name, layer))
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent, self.request)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every traced callable; return how many were wrapped."""
        modules = {m: importlib.import_module(f"trotterlab.{m}") for m in MODULES}
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "trotterlab" or name.startswith("trotterlab."))
        ]
        wrapped = 0
        for short, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                new = self.wrap(f"{short}.{attr}", layer_of(short, attr), obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, new)
                wrapped += 1
        for short, cls_name, meth in CLASS_ENTRY_POINTS:
            cls = getattr(modules[short], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", short, vars(cls)[meth]))
            wrapped += 1
        return wrapped

    def layer_totals(self) -> dict:
        """Per layer: self time (span time minus child spans) and call count."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        calls = Counter()
        for idx, (name_idx, start, end, _, _) in enumerate(self.spans):
            layer = self.names[name_idx][1]
            totals[layer]["self_s"] += (end - start) - child[idx]
            totals[layer]["calls"] += 1
            calls[self.names[name_idx][0]] += 1
        return {"layers": totals, "calls_by_name": dict(calls)}

    def top_level_seconds(self) -> float:
        """Time covered by spans with no traced parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write_jsonl(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name_idx, start, end, parent, request) in enumerate(self.spans):
                name, layer = self.names[name_idx]
                fh.write(json.dumps({
                    "span": idx,
                    "name": name,
                    "layer": layer,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "request": request,
                }) + "\n")
