"""Command-line front end.

One subcommand per experiment family; every run writes its outputs plus a
manifest recording the subcommand, parameters, seed, package version and
wall time, so any result can be replayed with ``overlapkit replay``.

Angles on the command line are radians by default; append ``deg`` to pass
degrees (files always store radians). Exit codes: 0 success, 2 validation
or schema error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import serialize as ser
from .inequalities import InequalitySpec, OverlapSet, classify, evaluate, hn_order, make_h3_robust, make_h_mzi, make_hn
from .interrogation import eta_ideal, eta_noisy, hexagon, robustness_curve
from .mesh import (
    calibration_fit,
    compose,
    decompose,
    estimate_inequality_via_counts,
    fidelity,
    perturbed_mesh_fidelity_study,
)
from .optimize import dimension_thresholds, haar_experiment, maximize_pure, sdp_upper_bound, thresholds_for
from .states import NumericalError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def parse_angle(text: str) -> float:
    """Radians by default; '150deg' or '150 deg' converts from degrees."""
    s = text.strip().lower()
    degrees = s.endswith("deg")
    if degrees or s.endswith("rad"):
        s = s[:-3].strip()
    try:
        value = float(s)
    except ValueError as exc:
        raise ValidationError(f"cannot parse angle {text!r}") from exc
    if not np.isfinite(value):
        raise ValidationError(f"angle must be finite, got {text!r}")
    return float(np.deg2rad(value)) if degrees else value


def _checked(convert, accept, expected: str):
    """argparse type: ``convert`` the text, then require ``accept(value)``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):  # accept also rejects NaN
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_unit_interval = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_nonnegative_float = _checked(float, lambda v: 0.0 <= v < np.inf, "a finite non-negative number")


_NAMED = {"hmzi": make_h_mzi, "h3robust": make_h3_robust}


def load_inequality(ref: str) -> InequalitySpec:
    """Resolve an inequality by name or from a JSON spec file.

    The built-in names (``hmzi``, ``h3robust``, ``h<digits>``) always win, so
    a stray file called ``h4`` in the working directory is never read.
    """
    key = ref.strip().lower()
    if key in _NAMED:
        return _NAMED[key]()
    if key[:1] == "h" and key[1:].isdigit():
        try:
            return make_hn(int(key[1:]))
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"unknown inequality {ref!r}") from exc
    path = Path(ref)
    if path.suffix == ".json" or path.exists():
        return ser.inequality_from_dict(_read_json(path))
    raise ValidationError(f"unknown inequality {ref!r}")


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except FileNotFoundError as exc:
        raise ValidationError(f"no such file: {path}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc


def _read_json(path: Path) -> dict:
    """Read a JSON record; every input file holds one object."""
    try:
        record = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(record).__name__}")
    return record


class _Run:
    """Collects outputs and writes the manifest at the end of a command.

    The output directory is made at the first write, so a command that
    fails before writing leaves nothing behind.
    """

    def __init__(self, args: argparse.Namespace, subcommand: str):
        self.out_dir = Path(getattr(args, "out_dir", ".") or ".")
        self.subcommand = subcommand
        self.params = dict(vars(args))
        self.outputs: list[str] = []
        self.started = time.monotonic()

    def write_text(self, name: str, text: str) -> Path:
        if not self.outputs:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        path.write_text(text)
        self.outputs.append(str(path))
        return path

    def write_json(self, name: str, obj) -> Path:
        return self.write_text(name, ser.dumps(obj))

    def finish(self) -> None:
        manifest = {
            "subcommand": self.subcommand,
            "parameters": {k: v for k, v in sorted(self.params.items())},
            "seed": self.params.get("seed"),
            "version": __version__,
            "outputs": self.outputs,
            "wall_time_s": time.monotonic() - self.started,
        }
        path = self.out_dir / f"manifest-{self.subcommand}.json"
        path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def cmd_evaluate(args: argparse.Namespace) -> int:
    run = _Run(args, "evaluate")
    spec = load_inequality(args.inequality)
    payload = _read_json(Path(args.input))
    if "upper" in payload:
        overlaps = ser.overlap_set_from_dict(payload)
    elif "states" in payload:
        overlaps = OverlapSet.from_states(ser.state_set_from_dict(payload))
    else:
        raise ValidationError(
            "input must be an overlap-set record (field 'upper') or a "
            "state-set record (field 'states')")
    value = evaluate(spec, overlaps)
    thresholds = thresholds_for(spec.n) if args.thresholds and hn_order(spec) is not None else []
    verdict = classify(spec, value, thresholds, slack=args.slack)
    run.write_json("verdict.json", ser.verdict_to_dict(verdict))
    if args.format == "csv":
        run.write_text("overlaps.csv", ser.overlap_matrix_csv(overlaps))
    run.finish()
    print(f"value={value:.9f} coherence={verdict.coherence_witnessed} min_dimension={verdict.min_dimension}")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    run = _Run(args, "table")
    cells = dimension_thresholds(args.n_max, args.d_max, restarts=args.restarts, seed=args.seed)
    run.write_text("threshold_table.csv", ser.threshold_table_csv(cells))
    rows = [{"n": c.n, "d": c.d, "max_value": c.max_value, "method": c.method,
             "lower_bound": c.lower_bound, "upper_bound": c.upper_bound, "agree": c.agree}
            for c in cells]
    run.write_json("threshold_table.json", rows)
    run.finish()
    disagreements = [r for r in rows if r["agree"] is False]
    print(f"{len(rows)} cells, {len(disagreements)} ascent/bound disagreements")
    return EXIT_OK


def cmd_interrogation(args: argparse.Namespace) -> int:
    run = _Run(args, "interrogation")
    # every result is computed before the first file is written, so an
    # input the library rejects leaves nothing behind
    theta = parse_angle(args.theta)
    nus = np.linspace(args.nu_min, args.nu_max, args.nu_steps)
    curve = robustness_curve(theta, nus)
    frag = hexagon(theta, nu=args.nu_min)
    report = {"theta": theta, "crossover_nu": curve.crossover_nu,
              "hexagon_equivalence_deviation": frag.equivalence_deviation}
    # reflectivity sweep with the dark-count/mismatch band; at --band 0
    # both branches are bitwise the ideal curve
    pts = []
    for r in np.linspace(0.0, args.r_max, args.r_steps):
        branches = [eta_noisy(r, args.band, args.band, args.band, sign) for sign in (+1, -1)]
        pts.append((float(r), eta_ideal(r), min(branches), max(branches)))
    run.write_text("robustness_curve.csv", ser.robustness_curve_csv(curve))
    run.write_json("hexagon.json", ser.hexagon_to_dict(frag))
    run.write_json("interrogation.json", report)
    if pts:
        run.write_text("efficiency_curve.csv", ser.efficiency_curve_csv(pts))
    run.finish()
    cross = "none" if curve.crossover_nu is None else f"{curve.crossover_nu:.6f}"
    print(f"theta={theta:.6f} crossover_nu={cross}")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    run = _Run(args, "sample")
    spec = load_inequality(args.inequality)
    report = haar_experiment(spec, args.d, args.num_sets, seed=args.seed)
    histogram = ser.histogram_csv(report.values, bins=args.bins)
    run.write_json("sampling.json", ser.sampling_to_dict(report))
    run.write_text("histogram.csv", histogram)
    run.finish()
    print(f"max={report.max_value:.6f} violations={report.violation_count}/{report.num_sets}")
    return EXIT_OK


def cmd_maximize(args: argparse.Namespace) -> int:
    run = _Run(args, "maximize")
    spec = load_inequality(args.inequality)
    # the bound first: a dimension it rejects stops the run before the ascent
    sdp = None
    if args.bound and spec.n >= 4 and hn_order(spec) is not None:
        sdp = sdp_upper_bound(spec.n, min(args.d, spec.n - 1))
    result = maximize_pure(spec, args.d, restarts=args.restarts, seed=args.seed)
    run.write_json("maximization.json", ser.maximization_to_dict(result))
    if sdp is not None:
        run.write_json("upper_bound.json", ser.sdp_to_dict(sdp))
        print(f"value={result.value:.9f} upper_bound={sdp.value:.9f}")
    else:
        print(f"value={result.value:.9f}")
    run.finish()
    return EXIT_OK


def cmd_mesh(args: argparse.Namespace) -> int:
    run = _Run(args, f"mesh-{args.action}")

    def path_of(option: str) -> Path:
        value = getattr(args, option)
        if value is None:
            raise ValidationError(f"mesh {args.action} needs --{option}")
        return Path(value)

    if args.action == "simulate":
        config = ser.mesh_config_from_dict(_read_json(path_of("config")))
        u = compose(config)
        run.write_json("unitary.json", ser.unitary_to_dict(u))
        print(f"composed {u.shape[0]}x{u.shape[0]} unitary")
    elif args.action == "decompose":
        u = ser.unitary_from_dict(_read_json(path_of("unitary")))
        config = decompose(u, atol=args.tol if args.tol is not None else 1e-10)
        run.write_json("mesh_config.json", ser.mesh_config_to_dict(config))
        print(f"decomposed into {len(config.cells)} cells")
    elif args.action == "calibrate":
        sweeps = ser.sweeps_from_csv(_read_text(path_of("sweeps")))
        model, residuals = calibration_fit(sweeps)
        run.write_json("calibration.json", ser.calibration_to_dict(model))
        run.write_json("calibration_residuals.json", [float(r) for r in residuals])
        print(f"fitted {len(sweeps)} heaters, max residual {float(np.max(residuals)):.3e}")
    elif args.action == "fidelity":
        if args.study:
            study = perturbed_mesh_fidelity_study(
                modes=args.modes, n_unitaries=args.num_unitaries,
                sigma_rad=args.sigma, seed=args.seed)
            run.write_json("fidelity_study.json", {
                "mean": study.mean, "std": study.std, "sigma_rad": study.sigma_rad,
                "samples": [float(s) for s in study.samples]})
            print(f"mean_fidelity={study.mean:.5f} std={study.std:.5f}")
        else:
            ua = ser.unitary_from_dict(_read_json(path_of("target")))
            ub = ser.unitary_from_dict(_read_json(path_of("experimental")))
            f = fidelity(ua, ub)
            run.write_json("fidelity.json", {"fidelity": f})
            print(f"fidelity={f:.6f}")
    elif args.action == "counts":
        spec = load_inequality(args.inequality)
        states = ser.state_set_from_dict(_read_json(path_of("states")))
        est = estimate_inequality_via_counts(spec, states, args.trials, args.seed)
        run.write_json("count_estimate.json", {
            "value": est.value, "sigma": est.sigma,
            "records": {f"{i},{j}": ser.count_record_to_dict(r) for (i, j), r in sorted(est.records.items())}})
        if args.format == "csv":
            run.write_text("count_records.csv", ser.count_records_csv(est.records))
        print(f"value={est.value:.6f} sigma={est.sigma:.6f}")
    run.finish()
    return EXIT_OK


class _ManifestParameters(argparse.Namespace):
    """A manifest's parameters; reading one it lacks is a validation error."""

    def __getattr__(self, name: str):
        raise ValidationError(f"manifest parameters lack {name!r}")


_REPLAYABLE = ("evaluate", "table", "interrogation", "sample", "maximize", "mesh")


def _manifest_parameters(command: str, params: dict) -> _ManifestParameters:
    """A manifest's parameters, each checked as the subcommand's parser checks it.

    A value is converted from its text by the option's ``type`` and must be
    one of its ``choices``; flags must be booleans and untyped options
    strings. An optional value left at a ``None`` default stays ``None``.
    """
    subparsers = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    values = dict(params)
    for action in subparsers.choices[command]._actions:
        if action.dest not in values:
            continue
        value = values[action.dest]
        if value is None and action.default is None and not action.required:
            continue
        bad = ValidationError(f"manifest parameter {action.dest!r} has an invalid value {value!r}")
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            if not isinstance(value, bool):
                raise bad
            continue
        if action.type is not None:
            try:
                value = action.type(str(value))
            except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
                raise bad from exc
        elif not isinstance(value, str):
            raise bad
        if action.choices is not None and value not in action.choices:
            raise bad
        values[action.dest] = value
    return _ManifestParameters(**values)


def cmd_replay(args: argparse.Namespace) -> int:
    manifest = _read_json(Path(args.manifest))
    try:
        sub = manifest["subcommand"]
        params = manifest["parameters"]
    except KeyError as exc:
        raise ValidationError(f"manifest missing field {exc}") from exc
    if not isinstance(sub, str) or not isinstance(params, dict):
        raise ValidationError("manifest needs a 'subcommand' string and a 'parameters' object")
    command = sub.split("-")[0]
    if command == "replay":
        raise ValidationError("cannot replay a replay manifest")
    if command not in _REPLAYABLE:
        raise ValidationError(f"unknown subcommand {sub!r} in manifest")
    return _handler(command)(_manifest_parameters(command, params))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlapkit",
        description="Overlap-based coherence and dimension witnesses, "
                    "interrogation robustness, and mesh simulation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default=".")
        p.add_argument("--format", choices=["json", "csv"], default="json",
                       help="csv additionally emits csv renderings of matrix-like outputs")

    p = sub.add_parser("evaluate", help="evaluate an inequality on an overlap or state file")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--inequality", required=True)
    p.add_argument("--thresholds", action="store_true",
                   help="classify the minimal dimension against computed maxima")
    p.add_argument("--slack", type=_nonnegative_float, default=0.0)

    p = sub.add_parser("table", help="maxima per (n, d): ascent and quadratic bound")
    common(p)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--restarts", type=int, default=200)

    p = sub.add_parser("interrogation", help="efficiency curves and noise crossover")
    common(p)
    p.add_argument("--theta", default="150deg")
    p.add_argument("--nu-min", type=float, default=0.0)
    p.add_argument("--nu-max", type=float, default=0.2)
    p.add_argument("--nu-steps", type=_positive_int, default=41)
    p.add_argument("--r-steps", type=_nonnegative_int, default=0,
                   help="also sweep the reflectivity curve with this many points")
    p.add_argument("--r-max", type=_unit_interval, default=0.99)
    p.add_argument("--band", type=_nonnegative_float, default=0.005,
                   help="mismatch/dark-count envelope for the reflectivity band")

    p = sub.add_parser("sample", help="functional distribution over Haar-random tuples")
    common(p)
    p.add_argument("--inequality", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--num-sets", type=int, default=10000)
    p.add_argument("--bins", type=_positive_int, default=50)

    p = sub.add_parser("maximize", help="maximize an inequality over pure states")
    common(p)
    p.add_argument("--inequality", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--bound", action="store_true", help="also compute the quadratic upper bound")

    p = sub.add_parser("mesh", help="mesh simulation, decomposition, calibration, fidelity")
    common(p)
    p.add_argument("action", choices=["simulate", "decompose", "calibrate", "fidelity", "counts"])
    p.add_argument("--config")
    p.add_argument("--unitary")
    p.add_argument("--sweeps")
    p.add_argument("--target")
    p.add_argument("--experimental")
    p.add_argument("--states")
    p.add_argument("--inequality", default="hmzi")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--study", action="store_true")
    p.add_argument("--modes", type=int, default=6)
    p.add_argument("--num-unitaries", type=int, default=100)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--tol", type=_nonnegative_float, default=None,
                   help="unitarity tolerance of decompose (default 1e-10; smaller values are floored to 1e-10)")

    p = sub.add_parser("replay", help="re-run a previous command from its manifest")
    p.add_argument("manifest")
    return parser


def _handler(command: str):
    """The ``cmd_<command>`` function, looked up when called, so a handler
    replaced on the module after the parser was built is the one that runs."""
    return globals()["cmd_" + command]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use; parsing never changes it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _handler(args.command)(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
