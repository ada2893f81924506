"""Span tracing of `overlapkit` from the outside, and the per-layer metrics.

`install` wraps every public function of the seven modules (the names in
``__all__``, plus the unlisted public ones such as ``cli.main``,
``cli.build_parser`` and ``optimize.thresholds_for``) in every module
namespace that binds it, so a name imported with ``from .x import y`` is
traced where it is called. ``PureState`` and ``DensityMatrix``
constructions are spans of the ``states`` layer. Spans (name, start, end,
parent) stay in memory and are written out when the run ends. A span's
self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import sys
from array import array
from time import perf_counter

import numpy as np

import reference as ref

LAYERS = ("states", "inequalities", "optimize", "interrogation", "mesh", "serialize", "cli")
SIZES = (6, 16, 32)

PER_LAYER_UNITS = {
    "optimize.self_s": "s",
    "optimize.maximize_pure.calls": "count",
    "optimize.maximize_pure.p50_ms": "ms",
    "optimize.maximize_pure.converged_ratio": "ratio",
    "optimize.maximize_pure.gap_max": "1",
    "optimize.dimension_thresholds.s": "s",
    "optimize.dimension_thresholds.agree_ratio": "ratio",
    "optimize.thresholds_for.s": "s",
    "optimize.sdp_upper_bound.p50_ms": "ms",
    "optimize.haar_experiment.sets_per_s": "1/s",
    "inequalities.self_ms": "ms",
    "inequalities.classify.calls": "count",
    "inequalities.evaluate_states.p50_us": "us",
    "interrogation.self_ms": "ms",
    "interrogation.robustness_curve.p50_ms": "ms",
    "interrogation.crossover_nu.p50_us": "us",
    "mesh.self_s": "s",
    **{f"mesh.decompose.p50_ms.m{m}": "ms" for m in SIZES},
    **{f"mesh.compose.p50_ms.m{m}": "ms" for m in SIZES},
    "mesh.perturbed_mesh_fidelity_study.p50_ms": "ms",
    "mesh.estimate_inequality_via_counts.p50_ms": "ms",
    "mesh.dispersion.draws_per_s": "1/s",
    "mesh.calibration_fit.ms_per_heater": "ms",
    "mesh.maximize_pure_family.s": "s",
    "states.self_ms": "ms",
    "states.pure_state.constructions": "count",
    "states.density_matrix.constructions": "count",
    "serialize.self_ms": "ms",
    "serialize.calls": "count",
    "serialize.bytes_written": "B",
    "serialize.bytes_read": "B",
    "cli.self_ms": "ms",
    "cli.requests": "count",
    "cli.build_parser.p50_ms": "ms",
    "import.total_ms": "ms",
    "import.mesh_ms": "ms",
    "import.numpy_ms": "ms",
    "trace.wall_s": "s",
}


# --- observers: facts a span records about its arguments and result ---------

def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _maximize_pure(fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    spec = a["spec"]
    gap = None
    if re.fullmatch(r"h\d+", spec.name):
        gap = ref.hn_optimum(spec.n, a["d"]) - result.value
    return {"converged": bool(result.converged), "gap": gap}


def _dimension_thresholds(fn, args, kwargs, result):
    return {"agree": [c.agree for c in result if c.agree is not None]}


def _record_bytes(obj) -> int:
    if isinstance(obj, str):
        return len(obj.encode())
    return len(json.dumps(obj, separators=(",", ":"), default=float).encode())


def _serialize(fn, args, kwargs, result):
    if isinstance(result, str):
        return {"written": len(result.encode())}
    if fn.__name__.endswith("_from_dict") or fn.__name__.endswith("_from_csv"):
        return {"read": _record_bytes(args[0] if args else next(iter(kwargs.values())))}
    return None


OBSERVERS = {
    "optimize.maximize_pure": _maximize_pure,
    "optimize.dimension_thresholds": _dimension_thresholds,
    "optimize.haar_experiment": lambda fn, a, k, r: {"sets": r.num_sets},
    "mesh.decompose": lambda fn, a, k, r: {"m": r.modes},
    "mesh.compose": lambda fn, a, k, r: {"m": int(r.shape[0])},
    "mesh.dispersion": lambda fn, a, k, r: {"draws": int(np.asarray(r.values).size)},
    "mesh.calibration_fit": lambda fn, a, k, r: {"heaters": int(r[0].theta0.size)},
}


class Tracer:
    """Spans kept in flat arrays: name id, start, end, parent index (-1 at top)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name: str, observe=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, names_, starts, ends, parents, notes = (
            self._stack, self.name, self.start, self.end, self.parent, self.notes)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names_.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                note = observe(fn, args, kwargs, result)
                if note is not None:
                    notes[idx] = note
            return result

        return traced

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                            parent=np.frombuffer(self.parent, dtype=np.int32))


def public_names(mod) -> list[str]:
    """``__all__``, plus functions the module defines under a name without a
    leading underscore (``optimize.thresholds_for``, ``cli.main``,
    ``cli.build_parser`` and the like are public but not listed)."""
    names = list(getattr(mod, "__all__", []))
    for attr, obj in vars(mod).items():
        if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not attr.startswith("_") and attr not in names):
            names.append(attr)
    return names


def install(tracer: Tracer) -> int:
    """Wrap the public functions of every layer; return how many were wrapped."""
    wrappers: dict[int, tuple] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"overlapkit.{layer}")
        for attr in public_names(mod):
            obj = getattr(mod, attr)
            if isinstance(obj, type) or not callable(obj) or id(obj) in wrappers:
                continue
            home = obj.__module__.rsplit(".", 1)[-1]
            span = f"{home}.{obj.__name__}"
            observe = OBSERVERS.get(span, _serialize if home == "serialize" else None)
            wrappers[id(obj)] = (obj, tracer.wrap(obj, span, observe))
    for modname, mod in list(sys.modules.items()):
        if modname == "overlapkit" or modname.startswith("overlapkit."):
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
    states = importlib.import_module("overlapkit.states")
    for cls in (states.PureState, states.DensityMatrix):
        cls.__post_init__ = tracer.wrap(cls.__post_init__, f"states.{cls.__name__}")
    return len(wrappers)


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round layer totals and per-call medians from the recorded spans."""
    name = np.frombuffer(tracer.name, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_time = dur - child
    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names] or [""])
    span_layer = layer_of[name] if name.size else np.array([], dtype=layer_of.dtype)

    def idx(span: str) -> np.ndarray:
        nid = tracer._ids.get(span)
        return np.nonzero(name == nid)[0] if nid is not None else np.array([], dtype=int)

    def per_round(x: float) -> float:
        return float(x) / rounds

    def layer_self(layer: str) -> float:
        return per_round(self_time[span_layer == layer].sum()) if name.size else 0.0

    def p50(span: str, scale: float, where=None) -> float:
        sel = idx(span)
        if where is not None:
            sel = np.array([i for i in sel if where(tracer.notes.get(int(i), {}))], dtype=int)
        return float(np.median(dur[sel]) * scale) if sel.size else 0.0

    def total(span: str) -> float:
        return float(dur[idx(span)].sum())

    def notes(span: str, field: str) -> list:
        return [tracer.notes[int(i)][field] for i in idx(span) if int(i) in tracer.notes]

    def rate(span: str, field: str) -> float:
        t = total(span)
        return float(sum(notes(span, field)) / t) if t > 0 else 0.0

    converged = notes("optimize.maximize_pure", "converged")
    gaps = [g for g in notes("optimize.maximize_pure", "gap") if g is not None]
    agree = [a for lst in notes("optimize.dimension_thresholds", "agree") for a in lst]
    heaters = sum(notes("mesh.calibration_fit", "heaters"))
    ser = np.nonzero(span_layer == "serialize")[0] if name.size else np.array([], dtype=int)
    outer = [int(i) for i in ser if parent[i] < 0 or span_layer[parent[i]] != "serialize"]
    written = sum(tracer.notes.get(i, {}).get("written", 0) for i in outer)
    read = sum(tracer.notes.get(i, {}).get("read", 0) for i in outer)

    out = {
        "optimize.self_s": layer_self("optimize"),
        "optimize.maximize_pure.calls": per_round(idx("optimize.maximize_pure").size),
        "optimize.maximize_pure.p50_ms": p50("optimize.maximize_pure", 1e3),
        "optimize.maximize_pure.converged_ratio": float(np.mean(converged)) if converged else 0.0,
        "optimize.maximize_pure.gap_max": float(max(gaps)) if gaps else 0.0,
        "optimize.dimension_thresholds.s": per_round(total("optimize.dimension_thresholds")),
        "optimize.dimension_thresholds.agree_ratio": float(np.mean(agree)) if agree else 0.0,
        "optimize.thresholds_for.s": per_round(total("optimize.thresholds_for")),
        "optimize.sdp_upper_bound.p50_ms": p50("optimize.sdp_upper_bound", 1e3),
        "optimize.haar_experiment.sets_per_s": rate("optimize.haar_experiment", "sets"),
        "inequalities.self_ms": 1e3 * layer_self("inequalities"),
        "inequalities.classify.calls": per_round(idx("inequalities.classify").size),
        "inequalities.evaluate_states.p50_us": p50("inequalities.evaluate_states", 1e6),
        "interrogation.self_ms": 1e3 * layer_self("interrogation"),
        "interrogation.robustness_curve.p50_ms": p50("interrogation.robustness_curve", 1e3),
        "interrogation.crossover_nu.p50_us": p50("interrogation.crossover_nu", 1e6),
        "mesh.self_s": layer_self("mesh"),
        "mesh.perturbed_mesh_fidelity_study.p50_ms": p50("mesh.perturbed_mesh_fidelity_study", 1e3),
        "mesh.estimate_inequality_via_counts.p50_ms": p50("mesh.estimate_inequality_via_counts", 1e3),
        "mesh.dispersion.draws_per_s": rate("mesh.dispersion", "draws"),
        "mesh.calibration_fit.ms_per_heater": 1e3 * total("mesh.calibration_fit") / heaters if heaters else 0.0,
        "mesh.maximize_pure_family.s": per_round(total("mesh.maximize_pure_family")),
        "states.self_ms": 1e3 * layer_self("states"),
        "states.pure_state.constructions": per_round(idx("states.PureState").size),
        "states.density_matrix.constructions": per_round(idx("states.DensityMatrix").size),
        "serialize.self_ms": 1e3 * layer_self("serialize"),
        "serialize.calls": per_round(len(outer)),
        "serialize.bytes_written": per_round(written),
        "serialize.bytes_read": per_round(read),
        "cli.self_ms": 1e3 * layer_self("cli"),
        "cli.requests": per_round(idx("cli.main").size),
        "cli.build_parser.p50_ms": p50("cli.build_parser", 1e3),
    }
    for m in SIZES:
        out[f"mesh.decompose.p50_ms.m{m}"] = p50("mesh.decompose", 1e3, lambda n, m=m: n.get("m") == m)
        out[f"mesh.compose.p50_ms.m{m}"] = p50("mesh.compose", 1e3, lambda n, m=m: n.get("m") == m)
    return out


IMPORT_LINE = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \|(\s*)(\S+)\s*$")


def import_times_ms(importtime_stderr: str) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime -c 'import overlapkit.cli'``."""
    cumulative = {}
    for line in importtime_stderr.splitlines():
        m = IMPORT_LINE.match(line)
        if m:
            cumulative.setdefault(m.group(4), int(m.group(2)) / 1e3)
    return {
        "import.total_ms": cumulative["overlapkit.cli"],
        "import.mesh_ms": cumulative["overlapkit.mesh"],
        "import.numpy_ms": cumulative["numpy"],
    }
