"""Spans at the public functions of each ``qfla`` module, recorded from outside.

``install`` rebinds every traced function in every ``qfla`` module namespace
that binds it: ``from .linalg import rref`` copies the name into ``iso``,
``liecore`` and ``cli``, and a call made through any copy must be recorded.
Per-element helpers, called about a million times per request, are left
alone; their time counts as self time of the traced function that called them.

A span is ``[id, parent_id, name, start_ns, end_ns, sizes]``.  Spans are kept
in a list in the worker process and handed to the parent when the call ends.
"""
from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("cli", "jsonio", "builder", "liecore", "derivations", "automorphisms", "iso", "linalg")
PER_ELEMENT = {"scalar", "scalar_to_str", "bracket"}

_S, _COUNT = "s", "count"

# (name, unit).  Every name is a per-request figure: inclusive seconds for
# ".s", an exact count for ".calls" and the size counts.
PER_LAYER = [(f"{layer}.self_s", _S) for layer in LAYERS] + [
    ("liecore.lower_central_series.s", _S),
    ("liecore.lower_central_series.calls", _COUNT),
    ("liecore.quasi_cyclic_split.s", _S),
    ("derivations.derivation_oracle.s", _S),
    ("derivations.nilpotent_basis.s", _S),
    ("derivations.nilpotent_basis.calls", _COUNT),
    ("derivations.torus_basis.s", _S),
    ("derivations.weight_decomposition.s", _S),
    ("linalg.column_span.s", _S),
    ("linalg.sparse_nullspace.s", _S),
    ("linalg.sparse_nullspace.rows", _COUNT),
    ("linalg.sparse_nullspace.cols", _COUNT),
    ("iso.monomial_equivalence.s", _S),
    ("iso.sweep_solves", _COUNT),
    ("iso.build_algebra_witness.s", _S),
    ("liecore.bracket_preserving.s", _S),
    ("automorphisms.automorphism_conditions.s", _S),
    ("automorphisms.extend_endomorphism.s", _S),
    ("automorphisms.is_automorphism.s", _S),
    ("linalg.rref.s", _S),
    ("linalg.rref.calls", _COUNT),
    ("linalg.rref.cells", _COUNT),
    ("jsonio.algebra_from_json.s", _S),
    ("liecore.check_jacobi.s", _S),
    ("liecore.check_jacobi.calls", _COUNT),
    ("builder.build_quasi.s", _S),
    ("builder.build_quasi.calls", _COUNT),
    ("jsonio.dumps.s", _S),
    ("jsonio.out_bytes", "bytes"),
    # Redundant work per verb call: 3 LCS and 2 Jacobi checks per `check`
    # where 1 of each is needed, and 2 nilpotent bases per `der --compare`.
    ("check.lower_central_series.calls", _COUNT),
    ("check.check_jacobi.calls", _COUNT),
    ("der.nilpotent_basis.calls", _COUNT),
    ("trace.overhead_s", _S),
]

# Per-verb counts: metric name -> (verb, span name).
_PER_VERB = {
    "check.lower_central_series.calls": ("check", "liecore.lower_central_series"),
    "check.check_jacobi.calls": ("check", "liecore.check_jacobi"),
    "der.nilpotent_basis.calls": ("der", "derivations.nilpotent_basis"),
}


def _wrap(fn, name: str, spans: list, stack: list):
    def traced(*args, **kwargs):
        sizes = None
        if name == "linalg.rref":
            sizes = [args[0].rows * args[0].cols]
        elif name == "linalg.sparse_nullspace":
            rows = list(args[0])
            args = (rows,) + args[1:]
            sizes = [len(rows), args[1]]
        span = [len(spans), stack[-1] if stack else -1, name, 0, 0, sizes]
        spans.append(span)
        stack.append(span[0])
        span[3] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter_ns()
            stack.pop()
        if name == "jsonio.dumps":
            span[5] = [len(result.encode("utf-8"))]
        return result

    return functools.update_wrapper(traced, fn)


def install(package, spans: list) -> None:
    """Route every traced ``qfla`` function through a span recorder appending to ``spans``."""
    modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
    targets, stack = {}, []
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or attr in PER_ELEMENT or isinstance(obj, type):
                continue
            if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                targets[id(obj)] = _wrap(obj, f"{layer}.{attr}", spans, stack)
    for mod in modules + [package]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in targets:
                setattr(mod, attr, targets[id(obj)])


def summarize(requests: list) -> dict:
    """Per-request layer metrics from traced requests.

    ``requests`` holds, per request, a list of ``(verb, spans)`` calls.  A
    span's self time is its duration minus the durations of its children.
    """
    totals: dict = {}
    verb_calls: dict = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for calls in requests:
        for verb, spans in calls:
            verb_calls[verb] = verb_calls.get(verb, 0) + 1
            child_ns = [0] * len(spans)
            for span in spans:
                if span[1] >= 0:
                    child_ns[span[1]] += span[4] - span[3]
            for span in spans:
                span_id, parent, name, t0, t1, sizes = span
                layer = name.split(".", 1)[0]
                add(f"{layer}.self_s", (t1 - t0 - child_ns[span_id]) / 1e9)
                add(f"{name}.s", (t1 - t0) / 1e9)
                add(f"{name}.calls", 1)
                add((verb, name), 1)
                if name == "linalg.rref":
                    add("linalg.rref.cells", sizes[0])
                elif name == "linalg.sparse_nullspace":
                    add("linalg.sparse_nullspace.rows", sizes[0])
                    add("linalg.sparse_nullspace.cols", sizes[1])
                elif name == "jsonio.dumps":
                    add("jsonio.out_bytes", sizes[0])
                elif name == "linalg.nullspace" and parent >= 0 and spans[parent][2] == "iso.monomial_equivalence":
                    add("iso.sweep_solves", 1)
    count = max(len(requests), 1)
    out = {}
    for metric, _unit in PER_LAYER:
        if metric in _PER_VERB:
            verb, name = _PER_VERB[metric]
            out[metric] = totals.get((verb, name), 0) / verb_calls[verb] if verb in verb_calls else 0
        else:
            out[metric] = totals.get(metric, 0) / count
    return out
