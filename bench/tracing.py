"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions of each ``twomode`` layer at every
module binding (``from .core import evolve`` in ``rates`` makes a second
binding of the same function), records one span per call, and restores the
original objects afterwards.  Spans are held in a flat in-memory array and
written once, at the end of the traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

#: Layer -> public functions timed in the traced run.
LAYERS = {
    "core": (
        "evolve",
        "apply_symplectic",
        "restricted_svd",
        "assert_valid_cm",
        "pure_standard_form",
        "generator",
    ),
    "measures": ("entanglement", "negativity", "squeezing"),
    "rates": ("optimal_entanglement_rate", "optimal_squeezing_rate", "local_squeezing_parameter"),
    "protocols": (
        "run_protocol",
        "greedy_rate_walk",
        "flip_strategy",
        "Trajectory.reports",
        "Trajectory.to_csv",
    ),
    "simulate": ("synthesize_plan", "plan_to_protocol", "min_simulation_time"),
    "gates": ("decompose_gate", "euler_decompose", "passive_decompose", "compile_to_native"),
    "cli": ("main",),
}

#: ``layer.function`` names, in span-id order.
NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

_FIELDS = 5  # name id, start ns, end ns, parent span (-1 for none), op id


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "twomode"]


def _targets():
    """``(name id, original object, owner, attribute)`` for every binding."""
    out = []
    modules = _package_modules()
    for idx, name in enumerate(NAMES):
        layer, _, qual = name.partition(".")
        module = importlib.import_module(f"twomode.{layer}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = getattr(module, cls_name)
            out.append((idx, owner.__dict__[attr], owner, attr))
            continue
        fn = getattr(module, qual)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    out.append((idx, fn, mod, attr))
    return out


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self):
        self.spans = array("q")
        self.errors = [0] * len(NAMES)
        self.op_id = -1
        self._stack = [-1]
        self._originals = _targets()

    def assert_unwrapped(self) -> None:
        """Fail unless every binding is the package's original object."""
        for idx, original, owner, attr in self._originals:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original or hasattr(current, "__bench_span__"):
                raise RuntimeError(f"{NAMES[idx]} is wrapped at {owner.__name__}.{attr}")

    def install(self) -> None:
        wrappers = {}
        for idx, original, owner, attr in self._originals:
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(idx, original)
            setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for _, original, owner, attr in self._originals:
            setattr(owner, attr, original)

    def _wrap(self, idx: int, fn):
        spans, stack, errors, clock = self.spans, self._stack, self.errors, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = len(spans)
            spans.extend((idx, 0, 0, stack[-1], tracer.op_id))
            stack.append(base // _FIELDS)
            spans[base + 1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                spans[base + 2] = clock()
                stack.pop()

        wrapper.__bench_span__ = NAMES[idx]
        return wrapper

    def layer_metrics(self, work: int, traced_wall_s: float) -> dict:
        """``calls_per_item``, ``us_per_call``, ``errors`` and ``self_share``."""
        n = len(NAMES)
        calls = [0] * n
        inclusive = [0] * n
        self_ns = [0] * n
        spans = self.spans
        count = len(spans) // _FIELDS
        child_ns = [0] * count
        for i in range(count):
            b = i * _FIELDS
            dur = spans[b + 2] - spans[b + 1]
            parent = spans[b + 3]
            if parent >= 0:
                child_ns[parent] += dur
        for i in range(count):
            b = i * _FIELDS
            idx = spans[b]
            dur = spans[b + 2] - spans[b + 1]
            calls[idx] += 1
            inclusive[idx] += dur
            self_ns[idx] += dur - child_ns[i]
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0)
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls_per_item"] = (calls[idx] / max(work, 1), "calls/item")
            out[f"{name}.us_per_call"] = (inclusive[idx] / calls[idx] / 1e3 if calls[idx] else 0.0, "us")
            out[f"{name}.errors"] = (self.errors[idx], "count")
            layer_self[name.partition(".")[0]] += self_ns[idx]
        for layer, ns in layer_self.items():
            out[f"{layer}.self_share"] = (ns / 1e9 / traced_wall_s, "ratio")
        return out

    def write_spans(self, path, header: dict) -> None:
        """Write the spans once: a JSON header line, then one array per span."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fields = ["name", "start_ns", "end_ns", "parent", "op"]
            fh.write(json.dumps({**header, "names": NAMES, "fields": fields}) + "\n")
            for i in range(0, len(spans), _FIELDS):
                fh.write("[%d,%d,%d,%d,%d]\n" % tuple(spans[i : i + _FIELDS]))
