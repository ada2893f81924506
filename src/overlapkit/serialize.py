"""JSON and CSV round-tripping for the package's value types.

Field names follow the schema files shipped under ``schemas/``; readers
accept the field types they declare and nothing else. Complex
numbers serialize as [re, im] pairs; matrices are row-major. All writers
emit sorted keys so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

import numpy as np

from .inequalities import InequalitySpec, OverlapSet, WitnessVerdict
from .interrogation import HexagonFragment, RobustnessCurve
from .mesh import CalibrationModel, CountRecord, MeshCell, MeshConfig
from .optimize import MaximizationResult, SamplingReport, SdpResult, ThresholdCell
from .states import DensityMatrix, PureState, ValidationError, _is_int

__all__ = [
    "dumps",
    "pure_state_to_dict",
    "pure_state_from_dict",
    "density_matrix_to_dict",
    "density_matrix_from_dict",
    "overlap_set_to_dict",
    "overlap_set_from_dict",
    "inequality_to_dict",
    "inequality_from_dict",
    "verdict_to_dict",
    "maximization_to_dict",
    "sdp_to_dict",
    "sampling_to_dict",
    "mesh_config_to_dict",
    "mesh_config_from_dict",
    "unitary_to_dict",
    "unitary_from_dict",
    "calibration_to_dict",
    "calibration_from_dict",
    "count_record_to_dict",
    "hexagon_to_dict",
    "state_set_from_dict",
    "overlap_matrix_csv",
    "robustness_curve_csv",
    "threshold_table_csv",
    "histogram_csv",
    "count_records_csv",
    "efficiency_curve_csv",
    "sweeps_from_csv",
]


def dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, compact separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@contextmanager
def _reading(kind: str) -> Iterator[None]:
    """Turn any lookup or conversion failure inside into a `ValidationError`."""
    try:
        yield
    except ValidationError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed {kind} record: {exc}") from exc


def _integer(x) -> int:
    """A schema integer: an int (not a bool), or a float with no fractional part."""
    if _is_int(x) or (isinstance(x, float) and x.is_integer()):
        return int(x)
    raise TypeError(f"expected an integer, got {x!r}")


def _number(x) -> float:
    """A schema number: an int or a float, not a bool or a string."""
    if _is_int(x) or isinstance(x, float):
        return float(x)
    raise TypeError(f"expected a number, got {x!r}")


def _complex_pairs(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).ravel()]


def _from_pairs(pairs: Sequence[Sequence[float]]) -> np.ndarray:
    if not all(len(p) == 2 for p in pairs):
        raise ValueError("a complex number must be a pair [re, im]")
    return np.array([complex(_number(re), _number(im)) for re, im in pairs], dtype=np.complex128)


def pure_state_to_dict(s: PureState) -> dict:
    return {"dim": s.dim, "amplitudes": _complex_pairs(s.amplitudes)}


def pure_state_from_dict(d: dict) -> PureState:
    with _reading("pure-state"):
        amps = _from_pairs(d["amplitudes"])
        if _integer(d["dim"]) != amps.size:
            raise ValidationError("dim does not match amplitude count")
        return PureState(amps)


def density_matrix_to_dict(m: DensityMatrix) -> dict:
    return {"dim": m.dim, "entries": _complex_pairs(m.entries)}


def density_matrix_from_dict(d: dict) -> DensityMatrix:
    with _reading("density-matrix"):
        dim = _integer(d["dim"])
        flat = _from_pairs(d["entries"])
        if flat.size != dim * dim:
            raise ValidationError("entry count does not match dim^2")
        return DensityMatrix(flat.reshape(dim, dim))


def overlap_set_to_dict(o: OverlapSet) -> dict:
    return {"n": o.n, "upper": [float(v) for v in o.upper()]}


def overlap_set_from_dict(d: dict) -> OverlapSet:
    with _reading("overlap-set"):
        return OverlapSet.from_upper(_integer(d["n"]), [_number(v) for v in d["upper"]])


def inequality_to_dict(spec: InequalitySpec) -> dict:
    return {
        "n": spec.n,
        "classical_bound": spec.classical_bound,
        "name": spec.name,
        "weights": [{"i": i, "j": j, "w": w} for (i, j), w in spec.weights.items()],
    }


def inequality_from_dict(d: dict) -> InequalitySpec:
    with _reading("inequality"):
        edges = [(_integer(e["i"]), _integer(e["j"])) for e in d["weights"]]
        weights = dict(zip(edges, [_number(e["w"]) for e in d["weights"]]))
        if len(weights) < len(edges):
            raise ValueError("an edge is listed twice")
        name = d.get("name", "")
        if not isinstance(name, str):
            raise TypeError(f"name must be a string, got {name!r}")
        return InequalitySpec(n=_integer(d["n"]), weights=weights,
                              classical_bound=_number(d["classical_bound"]), name=name)


def state_set_from_dict(d: dict) -> list:
    """Read a state-set file: pure states or density matrices."""
    with _reading("state-set"):
        kind = d["kind"]
        if kind == "pure":
            return [pure_state_from_dict(s) for s in d["states"]]
        if kind == "density":
            return [density_matrix_from_dict(s) for s in d["states"]]
    raise ValidationError(f"unknown state-set kind {d.get('kind')!r}")


def verdict_to_dict(v: WitnessVerdict) -> dict:
    return {
        "value": v.value,
        "coherence_witnessed": v.coherence_witnessed,
        "min_dimension": v.min_dimension,
        "min_dimension_known": v.min_dimension_known,
        "thresholds_used": [[d, x] for d, x in v.thresholds_used],
    }


def maximization_to_dict(r: MaximizationResult) -> dict:
    return {
        "value": r.value,
        "restarts_used": r.restarts_used,
        "converged": r.converged,
        "states": [pure_state_to_dict(s) for s in r.states],
    }


def sdp_to_dict(r: SdpResult) -> dict:
    return {
        "value": r.value,
        "x_star": density_matrix_to_dict(r.x_star),
    }


def sampling_to_dict(r: SamplingReport) -> dict:
    """Summary of a sampling run; the values themselves go to `histogram_csv`."""
    return {
        "n": r.n,
        "d": r.d,
        "num_sets": r.num_sets,
        "max_value": r.max_value,
        "violation_count": r.violation_count,
    }


def mesh_config_to_dict(c: MeshConfig) -> dict:
    out = {
        "modes": c.modes,
        "cells": [{"row": x.row, "column": x.column, "theta": x.theta, "phi": x.phi}
                  for x in sorted(c.cells, key=lambda z: (z.column, z.row))],
    }
    if c.output_phases is not None:
        out["output_phases"] = list(c.output_phases)
    return out


def mesh_config_from_dict(d: dict) -> MeshConfig:
    with _reading("mesh-config"):
        cells = tuple(MeshCell(_integer(x["row"]), _integer(x["column"]),
                               _number(x["theta"]), _number(x["phi"])) for x in d["cells"])
        phases = d.get("output_phases")
        return MeshConfig(modes=_integer(d["modes"]), cells=cells,
                          output_phases=tuple(_number(p) for p in phases) if phases is not None else None)


def unitary_to_dict(u: np.ndarray) -> dict:
    return {"dim": u.shape[0], "entries": _complex_pairs(u)}


def unitary_from_dict(d: dict) -> np.ndarray:
    """Read a square complex matrix: ``dim`` and ``dim^2`` row-major pairs.

    Unitarity is left to the consumer (`mesh.decompose` checks it; a
    measured transfer matrix fed to `mesh.fidelity` need not be unitary).
    """
    with _reading("unitary"):
        dim = _integer(d["dim"])
        flat = _from_pairs(d["entries"])
    if dim < 1 or flat.size != dim * dim:
        raise ValidationError(f"unitary record has {flat.size} entries, expected dim^2 with dim={dim}")
    if not np.all(np.isfinite(flat)):
        raise ValidationError("unitary record has non-finite entries")
    return flat.reshape(dim, dim)


def calibration_to_dict(m: CalibrationModel) -> dict:
    return {
        "theta0": [float(v) for v in m.theta0],
        "alpha": [[float(v) for v in row] for row in m.alpha],
        "beta": [float(v) for v in m.beta],
        "heater_columns": list(m.heater_columns),
    }


def calibration_from_dict(d: dict) -> CalibrationModel:
    with _reading("calibration"):
        return CalibrationModel(
            theta0=np.array([_number(v) for v in d["theta0"]]),
            alpha=np.array([[_number(v) for v in row] for row in d["alpha"]]),
            beta=np.array([_number(v) for v in d["beta"]]),
            heater_columns=tuple(_integer(c) for c in d["heater_columns"]),
        )


def count_record_to_dict(r: CountRecord) -> dict:
    return {
        "counts": list(r.counts),
        "total_trials": r.total_trials,
        "estimated_probability": list(r.estimated_probability),
        "sigma_c": list(r.sigma_c),
    }


def hexagon_to_dict(h: HexagonFragment) -> dict:
    return {
        "theta": h.theta,
        "nu": h.nu,
        "equivalence_deviation": h.equivalence_deviation,
        "states": [density_matrix_to_dict(s) for s in h.states],
    }


# --- CSV --------------------------------------------------------------------

def _csv_text(rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def overlap_matrix_csv(o: OverlapSet) -> str:
    """Matrix layout with one row and column per state."""
    names = [f"state_{i}" for i in range(o.n)]
    rows = [[""] + names]
    for i in range(o.n):
        rows.append([names[i]] + [repr(float(v)) for v in o.r[i]])
    return _csv_text(rows)


def robustness_curve_csv(c: RobustnessCurve) -> str:
    rows = [["nu", "eta_quantum", "eta_nc"]]
    rows += [[repr(float(nu)), repr(float(eq)), repr(float(en))] for nu, eq, en in c.points]
    return _csv_text(rows)


def threshold_table_csv(cells: Sequence[ThresholdCell]) -> str:
    """Functional-by-dimension table: one row per n, one column per d."""
    ns = sorted({c.n for c in cells})
    ds = sorted({c.d for c in cells})
    lookup = {(c.n, c.d): c for c in cells}
    rows = [["functional"] + [f"d={d}" for d in ds] + ["method", "agree"]]
    for n in ns:
        vals = []
        methods, agrees = set(), []
        for d in ds:
            cell = lookup.get((n, d))
            vals.append("" if cell is None else repr(round(float(cell.max_value), 9)))
            if cell is not None:
                methods.add(cell.method)
                if cell.agree is not None:
                    agrees.append(cell.agree)
        rows.append([f"h{n}"] + vals + ["+".join(sorted(methods)), repr(all(agrees)) if agrees else ""])
    return _csv_text(rows)


def histogram_csv(values: np.ndarray, bins: int = 50) -> str:
    """``bins`` equal bins over the range of the values.

    A range too narrow for ``bins`` distinct edges (values equal to within
    a few ulps) is widened by 0.5 on each side, as numpy widens an empty one.
    """
    values = np.asarray(values)
    lo, hi = values.min(), values.max()
    edges = np.linspace(lo, hi, bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    rows = [["bin_left", "bin_right", "count"]]
    rows += [[repr(float(edges[k])), repr(float(edges[k + 1])), int(counts[k])]
             for k in range(len(counts))]
    return _csv_text(rows)


def count_records_csv(records: "dict[tuple[int, int], CountRecord]") -> str:
    """Per-edge count records: one row per edge, port-0 statistics."""
    rows = [["i", "j", "counts_port0", "counts_rest", "total_trials",
             "estimate", "sigma_c"]]
    for (i, j), r in sorted(records.items()):
        rows.append([i, j, r.counts[0], r.counts[1], r.total_trials,
                     repr(float(r.estimated_probability[0])), repr(float(r.sigma_c[0]))])
    return _csv_text(rows)


def efficiency_curve_csv(points: Sequence[tuple[float, float, float, float]]) -> str:
    """Reflectivity sweep: r, ideal efficiency, and the noise-band edges."""
    rows = [["r", "eta_ideal", "eta_band_low", "eta_band_high"]]
    rows += [[repr(float(r)), repr(float(e)), repr(float(lo)), repr(float(hi))]
             for r, e, lo, hi in points]
    return _csv_text(rows)


def sweeps_from_csv(text: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parse per-heater sweep data: columns heater, current_a, cross_power."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:3]] != ["heater", "current_a", "cross_power"]:
        raise ValidationError("sweep CSV must start with header heater,current_a,cross_power")
    buckets: dict[int, list[tuple[float, float]]] = {}
    for row in reader:
        if not row:
            continue
        try:
            h, cur, pw = int(row[0]), float(row[1]), float(row[2])
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"malformed sweep row {row!r}") from exc
        buckets.setdefault(h, []).append((cur, pw))
    out = []
    for h in sorted(buckets):
        pts = buckets[h]
        out.append((np.array([p[0] for p in pts]), np.array([p[1] for p in pts])))
    return out
