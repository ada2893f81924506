"""The three benchmark workloads: inputs, operations and output checks.

A workload builds its inputs from the seed, makes one small warm-up call
per operation kind, and then hands out rounds: a fixed, interleaved list of
operations that every round repeats. Each operation is one public call of
`overlapkit`, timed alone; its check runs afterwards, untimed, against
`reference` (closed forms and computations made apart from the program) or
against a property the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import overlapkit.cli as cli
from overlapkit import inequalities as ineq
from overlapkit import interrogation as itg
from overlapkit import mesh
from overlapkit import optimize as opt
from overlapkit.states import PureState

import reference as ref


class CheckFailed(Exception):
    """An operation's output disagrees with the independent computation."""


class KnownFault(CheckFailed):
    """A check that fails today because of a named fault in the program.

    Counted as a failed operation, but it does not make the run incorrect.
    """

    def __init__(self, label: str, message: str):
        super().__init__(message)
        self.label = label


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed public call. ``call`` and ``check`` see the round context."""

    kind: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], None]
    key: Any = None


def interleave(streams: list[list[Op]]) -> list[Op]:
    """Spread every stream evenly over the round, keeping each stream's order."""
    slots = []
    for s, ops in enumerate(streams):
        for i, op in enumerate(ops):
            slots.append(((i + 0.5) / len(ops), s, i, op))
    slots.sort(key=lambda t: t[:3])
    return [t[3] for t in slots]


def sub_seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=k)]


def pure_states(rows: np.ndarray) -> list[PureState]:
    return [PureState(r / np.linalg.norm(r)) for r in rows]


# --- witness-tables -----------------------------------------------------------

class WitnessTables:
    """Dimension-witness tables and contextuality curves (the optimize layer).

    Round: thresholds_for(n) for n = 4, 5, 6, each followed by classify
    requests on that n; 14 (n, d) maximize_pure cells, each at two seeds;
    one small dimension_thresholds table; large-n sdp_upper_bound calls;
    two Haar sampling experiments; and robustness_curve / crossover_nu /
    hexagon / h3_robust over a grid of angles.
    """

    THRESHOLD_NS = (4, 5, 6)
    CELLS = [(n, d) for n in range(4, 8) for d in range(2, n)]
    CELL_SEEDS = 2
    RESTARTS = 16
    TABLE_N_MAX = 5
    SDP_CALLS = 42
    HAAR = ((6, 4, 20_000), (5, 3, 20_000))
    ANGLES = 36
    NU_GRID = np.linspace(0.0, 0.2, 41)
    RANDOM_CLASSIFY_DIMS = (2, 3, -1)  # -1: d = n - 1
    # exact maximizers that inequalities.classify, fed by
    # optimize.thresholds_for at slack=0, reports above their dimension
    KNOWN_FAULTS = frozenset({"star4,2", "star5,3", "star5,4", "star6,2", "star6,3",
                              "qutrit_h4_set", "ququart_h5_set"})

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.cell_seeds = {c: sub_seeds(rng, self.CELL_SEEDS) for c in self.CELLS}
        self.table_seed = sub_seeds(rng, 1)[0]
        self.haar_seeds = sub_seeds(rng, len(self.HAAR))
        self.sdp_cells = []
        for _ in range(self.SDP_CALLS):
            n = int(rng.integers(12, 41))
            self.sdp_cells.append((n, int(rng.integers(2, n))))
        # 5 pi / 6 is the paper's angle; the rest are drawn where the
        # contextual gap exists (0 < cos 2 theta < 1)
        self.angles = [5 * np.pi / 6] + list(rng.uniform(0.78 * np.pi, 0.95 * np.pi, self.ANGLES - 1))
        self.hex_nus = list(rng.uniform(0.0, 0.1, self.ANGLES))
        # classify inputs: exact maximizers (the same every seed) plus
        # Haar tuples drawn from the seed
        self.classify_inputs: dict[int, list[tuple[str, int, list[PureState]]]] = {}
        for n in self.THRESHOLD_NS:
            items = [(f"star{n},{d}", d, pure_states(ref.star_ensemble(n, d))) for d in range(2, n)]
            if n == 4:
                items.append(("qutrit_h4_set", 3, mesh.qutrit_h4_set()))
            if n == 5:
                items.append(("ququart_h5_set", 4, mesh.ququart_h5_set()))
            for d in self.RANDOM_CLASSIFY_DIMS:
                d = n - 1 if d < 0 else d
                items.append((f"haar{n},{d}", d, pure_states(ref.haar_vectors(rng, n, d))))
            self.classify_inputs[n] = items

    def warmup(self) -> None:
        opt.thresholds_for(3)
        opt.dimension_thresholds(3, restarts=2, seed=1)
        opt.maximize_pure(ineq.make_hn(4), 2, restarts=2, seed=1)
        opt.sdp_upper_bound(5, 2)
        opt.haar_experiment(ineq.make_hn(4), 2, 100, seed=1)
        spec = ineq.make_hn(4)
        ineq.classify(spec, ineq.evaluate_states(spec, mesh.qutrit_h4_set()), [(2, 1.0)])
        itg.robustness_curve(self.angles[0], self.NU_GRID[:3])
        itg.crossover_nu(self.angles[0])
        itg.h3_robust(itg.hexagon(self.angles[0], 0.0))

    def round_ops(self) -> list[Op]:
        streams = [self._threshold_stream(n) for n in self.THRESHOLD_NS]
        streams.append([self._maximize_op(n, d, self.cell_seeds[(n, d)][i])
                        for i in range(self.CELL_SEEDS) for (n, d) in self.CELLS])
        streams.append([self._table_op()])
        streams.append([self._sdp_op(n, d) for n, d in self.sdp_cells])
        streams.append([self._haar_op(n, d, k, s) for (n, d, k), s in zip(self.HAAR, self.haar_seeds)])
        streams.append([self._curve_op(t) for t in self.angles])
        streams.append([self._crossover_op(t) for t in self.angles])
        hexes = []
        for k, (t, nu) in enumerate(zip(self.angles, self.hex_nus)):
            hexes += [self._hexagon_op(t, nu, k), self._h3_op(t, nu, k)]
        streams.append(hexes)
        return interleave(streams)

    # operations

    def _threshold_stream(self, n: int) -> list[Op]:
        def check_thresholds(thr, ctx):
            expect([d for d, _ in thr] == list(range(2, n + 1)), f"h{n}: threshold dimensions {thr}")
            for d, v in thr:
                expect(abs(v - ref.hn_optimum(n, d)) <= 1e-9,
                       f"h{n} d={d}: threshold {v!r} vs closed form {ref.hn_optimum(n, d)!r}")

        ops = [Op("thresholds_for", lambda ctx: opt.thresholds_for(n), check_thresholds, key=("thr", n))]
        spec = ineq.make_hn(n)
        for label, d, states in self.classify_inputs[n]:
            ops.append(self._classify_op(spec, label, d, states))
        return ops

    def _classify_op(self, spec, label, d, states) -> Op:
        n = spec.n
        amps = np.array([s.amplitudes for s in states])
        truth = ref.hn_value(amps)

        def call(ctx):
            value = ineq.evaluate_states(spec, states)
            return ineq.classify(spec, value, ctx[("thr", n)])

        def check(verdict, ctx):
            expect(abs(verdict.value - truth) <= 1e-12, f"{label}: value {verdict.value!r} vs {truth!r}")
            expect(verdict.coherence_witnessed == (verdict.value > 1.0), f"{label}: coherence flag")
            if verdict.min_dimension > d:
                message = (f"{label}: min_dimension={verdict.min_dimension} for {d}-dimensional states "
                           f"(value {verdict.value!r})")
                raise KnownFault(label, message) if label in self.KNOWN_FAULTS else CheckFailed(message)

        return Op("classify", call, check)

    def _maximize_op(self, n, d, seed) -> Op:
        spec = ineq.make_hn(n)
        best = ref.hn_optimum(n, d)

        def check(res, ctx):
            expect(res.value <= best + 1e-9, f"h{n} d={d}: value {res.value!r} above optimum {best!r}")
            expect(res.value >= best - 1e-3, f"h{n} d={d}: value {res.value!r} short of optimum {best!r}")
            amps = np.array([s.amplitudes for s in res.states])
            expect(amps.shape == (n, d), f"h{n} d={d}: states of shape {amps.shape}")
            expect(abs(ref.hn_value(amps) - res.value) <= 1e-12, f"h{n} d={d}: value does not match states")

        return Op("maximize_pure",
                  lambda ctx: opt.maximize_pure(spec, d, restarts=self.RESTARTS, seed=seed), check)

    def _table_op(self) -> Op:
        n_max = self.TABLE_N_MAX

        def check(cells, ctx):
            expect(len(cells) == sum(n - 1 for n in range(3, n_max + 1)), f"table has {len(cells)} cells")
            for c in cells:
                best = ref.hn_optimum(c.n, c.d)
                if c.upper_bound is not None:
                    expect(abs(c.max_value - best) <= 1e-9, f"table ({c.n},{c.d}): {c.max_value!r} vs {best!r}")
                if c.lower_bound is not None:
                    expect(best - 1e-3 <= c.lower_bound <= best + 1e-9,
                           f"table ({c.n},{c.d}): ascent {c.lower_bound!r} vs optimum {best!r}")

        return Op("dimension_thresholds",
                  lambda ctx: opt.dimension_thresholds(n_max, restarts=self.RESTARTS, seed=self.table_seed),
                  check)

    def _sdp_op(self, n, d) -> Op:
        def check(res, ctx):
            expect(abs(res.value - ref.hn_optimum(n, d)) <= 1e-9,
                   f"sdp ({n},{d}): {res.value!r} vs {ref.hn_optimum(n, d)!r}")

        return Op("sdp_upper_bound", lambda ctx: opt.sdp_upper_bound(n, d), check)

    def _haar_op(self, n, d, k, seed) -> Op:
        spec = ineq.make_hn(n)
        best = ref.hn_optimum(n, d)

        def check(rep, ctx):
            v = np.asarray(rep.values)
            expect(v.shape == (k,) and rep.num_sets == k, "haar: wrong sample count")
            expect(bool(np.all(v <= best + 1e-9)), f"haar h{n} d={d}: sample above the optimum")
            expect(rep.max_value == float(v.max()), "haar: max_value")
            expect(rep.violation_count == int(np.sum(v > 1.0)), "haar: violation_count")

        return Op("haar_experiment", lambda ctx: opt.haar_experiment(spec, d, k, seed=seed), check)

    def _curve_op(self, theta) -> Op:
        def check(curve, ctx):
            expect(len(curve.points) == len(self.NU_GRID), "curve: point count")
            for nu, eq, enc in curve.points:
                expect(abs(eq - ref.eta_quantum(theta, nu)) <= 1e-12, f"curve: eta_quantum at nu={nu}")
                expect(abs(enc - ref.eta_noncontextual(theta, nu)) <= 1e-12, f"curve: eta_nc at nu={nu}")
            expect(curve.crossover_nu is not None
                   and abs(curve.crossover_nu - ref.crossover(theta)) <= 1e-6, "curve: crossover")
            if theta == 5 * np.pi / 6:
                _, eq0, enc0 = curve.points[0]
                expect(abs(eq0 - 3 / 7) <= 1e-12 and abs(enc0 - 2 / 7) <= 1e-12, "curve: 3/7 and 2/7 at nu=0")

        return Op("robustness_curve", lambda ctx: itg.robustness_curve(theta, self.NU_GRID), check)

    def _crossover_op(self, theta) -> Op:
        def check(nu, ctx):
            expect(abs(nu - ref.crossover(theta)) <= 1e-6, f"crossover {nu!r} vs {ref.crossover(theta)!r}")
            if theta == 5 * np.pi / 6:
                expect(abs(nu - (1 - 2 * np.sqrt(2) / 3)) <= 1e-6, "crossover at 5 pi/6")

        return Op("crossover_nu", lambda ctx: itg.crossover_nu(theta), check)

    def _hexagon_op(self, theta, nu, k) -> Op:
        want = ref.hexagon_densities(theta, nu)

        def check(frag, ctx):
            expect(frag.equivalence_deviation <= 1e-12, "hexagon: antipodal pairs not equivalent")
            for got, w in zip(frag.states, want):
                expect(float(np.max(np.abs(got.entries - w))) <= 1e-12, "hexagon: preparation differs")

        return Op("hexagon", lambda ctx: itg.hexagon(theta, nu), check, key=("hex", k))

    def _h3_op(self, theta, nu, k) -> Op:
        want = ref.h3_robust_value(theta, nu)

        def check(value, ctx):
            expect(abs(value - want) <= 1e-12, f"h3_robust {value!r} vs {want!r}")

        return Op("h3_robust", lambda ctx: itg.h3_robust(ctx[("hex", k)]), check)


# --- mesh-pipeline --------------------------------------------------------------

class MeshPipeline:
    """Device simulation: mesh round trips, counts, dispersion, calibration.

    The five-mode fit starts from fixed seeds: its cost varies threefold
    with the start point, which would otherwise set the spread of the whole
    workload. Everything else is drawn from the run's seed.
    """

    ROUNDTRIPS = ((6, 16), (16, 8), (32, 6))  # (modes, unitaries)
    FIDELITY = (6, 20)  # modes, unitaries per study
    FIDELITY_STUDIES = 12
    COUNT_TRIALS = 20_000
    COUNT_SEEDS = 20
    DISPERSION_DRAWS = 100
    DISPERSION_CALLS = 2
    CALIBRATIONS = 2
    HEATERS = 2
    SWEEP_POINTS = 48
    FAMILY_SEEDS = (7, 8, 9, 10)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.unitaries = [(m, self._haar_unitary(rng, m)) for m, k in self.ROUNDTRIPS for _ in range(k)]
        self.fid_seeds = sub_seeds(rng, self.FIDELITY_STUDIES)
        self.fid_sigmas = list(rng.uniform(0.05, 0.15, self.FIDELITY_STUDIES))
        self.count_sets = [("hmzi", ineq.make_h_mzi(), mesh.pentagon_qubit_set()),
                           ("h4", ineq.make_hn(4), mesh.qutrit_h4_set()),
                           ("h5", ineq.make_hn(5), mesh.ququart_h5_set())]
        self.count_seeds = sub_seeds(rng, self.COUNT_SEEDS)
        disp_sets = [(ineq.make_hn(5), mesh.ququart_h5_set(), ref.hn_optimum(5, 4)),
                     (ineq.make_h_mzi(), mesh.pentagon_qubit_set(), 5 * np.sqrt(5) / 4)]
        self.dispersions = []
        for k in range(self.DISPERSION_CALLS):
            spec, states, ideal = disp_sets[k % 2]
            params = [np.concatenate(mesh.hyperspherical_angles(s)) for s in states]
            self.dispersions.append((spec, params, ideal, float(rng.uniform(0.005, 0.02)),
                                     float(rng.uniform(0.002, 0.01)), sub_seeds(rng, 1)[0]))
        self.calibrations = []
        currents = np.linspace(0.0, 0.55, self.SWEEP_POINTS)
        for _ in range(self.CALIBRATIONS):
            truth = [(rng.uniform(0.3, 5.8), rng.uniform(22.0, 30.0), rng.uniform(0.02, 0.08))
                     for _ in range(self.HEATERS)]
            sweeps = [(currents.copy(), ref.heater_powers(currents, *t)) for t in truth]
            self.calibrations.append((truth, sweeps))

    @staticmethod
    def _haar_unitary(rng, m):
        z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    def warmup(self) -> None:
        u = self.unitaries[0][1]
        mesh.compose(mesh.decompose(u))
        mesh.perturbed_mesh_fidelity_study(4, 2, 0.1, 1)
        _, spec, states = self.count_sets[0]
        mesh.estimate_inequality_via_counts(spec, states, 100, 1)
        spec, params, *_ = self.dispersions[0]
        mesh.dispersion(spec, params, 0.01, 0.01, 2, seed=1)
        mesh.calibration_fit([self.calibrations[0][1][0]])
        mesh.maximize_pure_family(ineq.make_hn(3), lambda p: mesh.prepare_qutrit(*p), 4, restarts=1, seed=1)

    def round_ops(self) -> list[Op]:
        streams = [[self._decompose_op(m, u, k), self._compose_op(m, u, k)]
                   for k, (m, u) in enumerate(self.unitaries)]
        streams.append([self._fidelity_op(s, sig) for s, sig in zip(self.fid_seeds, self.fid_sigmas)])
        streams.append([self._counts_op(label, spec, states, s)
                        for s in self.count_seeds for label, spec, states in self.count_sets])
        streams.append([self._dispersion_op(*args) for args in self.dispersions])
        streams.append([self._calibration_op(truth, sweeps) for truth, sweeps in self.calibrations])
        streams.append([self._family_op(s) for s in self.FAMILY_SEEDS])
        return interleave(streams)

    def _decompose_op(self, m, u, k) -> Op:
        def check(config, ctx):
            expect(config.modes == m and len(config.cells) == m * (m - 1) // 2, f"decompose m={m}: cell count")

        return Op(f"decompose.m{m}", lambda ctx: mesh.decompose(u), check, key=("cfg", k))

    def _compose_op(self, m, u, k) -> Op:
        def check(v, ctx):
            err = float(np.max(np.abs(v - u)))
            expect(err <= 1e-9, f"compose(decompose(U)) m={m}: residual {err:.3g}")

        return Op(f"compose.m{m}", lambda ctx: mesh.compose(ctx[("cfg", k)]), check)

    def _fidelity_op(self, seed, sigma) -> Op:
        modes, k = self.FIDELITY

        def check(study, ctx):
            s = np.asarray(study.samples)
            expect(s.shape == (k,), "fidelity study: sample count")
            expect(bool(np.all((s > 0.0) & (s <= 1.0 + 1e-12))), "fidelity outside (0, 1]")
            expect(abs(study.mean - float(s.mean())) <= 1e-12, "fidelity study: mean")

        return Op("perturbed_mesh_fidelity_study",
                  lambda ctx: mesh.perturbed_mesh_fidelity_study(modes, k, sigma, seed), check)

    def _counts_op(self, label, spec, states, seed) -> Op:
        trials = self.COUNT_TRIALS
        r = ref.gram_abs2(np.array([s.amplitudes for s in states]))

        def check(est, ctx):
            expect(sorted(est.records) == sorted(spec.weights), f"counts {label}: edges")
            total = 0.0
            for (i, j), rec in est.records.items():
                p_hat = rec.estimated_probability[0]
                expect(rec.total_trials == trials, f"counts {label}: trials")
                expect(abs(p_hat - r[i, j]) <= ref.count_tolerance(r[i, j], trials),
                       f"counts {label} ({i},{j}): {p_hat!r} vs overlap {r[i, j]!r}")
                total += spec.weights[(i, j)] * p_hat
            expect(abs(total - est.value) <= 1e-12, f"counts {label}: value")

        return Op("estimate_inequality_via_counts",
                  lambda ctx: mesh.estimate_inequality_via_counts(spec, states, trials, seed), check)

    def _dispersion_op(self, spec, params, ideal, eps, delta, seed) -> Op:
        draws = self.DISPERSION_DRAWS
        own_ideal = ref.weighted_value(spec.weights, ref.gram_abs2(np.array([ref.chain_state(p) for p in params])))
        radius = ref.dispersion_radius(spec.weights, params, eps, delta)

        def check(res, ctx):
            v = np.asarray(res.values)
            expect(v.shape == (draws,), "dispersion: draw count")
            expect(abs(res.ideal_value - own_ideal) <= 1e-9 and abs(own_ideal - ideal) <= 1e-9,
                   f"dispersion: ideal {res.ideal_value!r} vs {ideal!r}")
            expect(bool(np.all(np.abs(v - own_ideal) <= radius)), "dispersion: sample outside the Lipschitz radius")
            expect(res.min_value == float(v.min()) and res.max_value == float(v.max()), "dispersion: envelope")

        return Op("dispersion",
                  lambda ctx: mesh.dispersion(spec, params, eps, delta, draws, seed=seed), check)

    def _calibration_op(self, truth, sweeps) -> Op:
        def check(result, ctx):
            model, residuals = result
            for h, (theta0, alpha, beta) in enumerate(truth):
                expect(ref.circular_distance(model.theta0[h], theta0) <= 1e-3, f"calibration heater {h}: theta0")
                expect(abs(model.alpha[h, h] / alpha - 1.0) <= 1e-3, f"calibration heater {h}: alpha")
                expect(abs(model.beta[h] / beta - 1.0) <= 1e-2, f"calibration heater {h}: beta")
                expect(residuals[h] <= 1e-9, f"calibration heater {h}: residual {residuals[h]:.3g}")

        return Op("calibration_fit", lambda ctx: mesh.calibration_fit(sweeps), check)

    def _family_op(self, seed) -> Op:
        spec = ineq.make_hn(6)

        def check(result, ctx):
            params, value = result
            expect(params.shape == (6, 7), "five-mode fit: parameter shape")
            expect(1.0 < value <= ref.hn_optimum(6, 5) + 1e-9, f"five-mode fit value {value!r}")
            own = ref.hn_value(np.array([ref.five_mode_state(p) for p in params]))
            expect(abs(own - value) <= 1e-9, f"five-mode fit: value {value!r} vs its parameters {own!r}")

        return Op("maximize_pure_family",
                  lambda ctx: mesh.maximize_pure_family(spec, lambda p: mesh.prepare_5mode(*p), 7,
                                                        restarts=1, seed=seed),
                  check)


# --- cli-requests ----------------------------------------------------------------

# which schema in schemas/ each written JSON file (or part of it) must match
SCHEMA_OF_FILE = {
    "verdict.json": "witness_verdict",
    "sampling.json": "sampling_report",
    "mesh_config.json": "mesh_config",
    "calibration.json": "calibration_model",
}


class CliRequests:
    """Short in-process ``overlapkit.cli.main(argv)`` requests on small files.

    One client, closed loop. Inputs are written once during set-up; each
    request slot writes into its own output directory, which later replay
    requests re-run from the manifest.
    """

    MESH_MODES = 6
    SAMPLE_SETS = 2000
    MAXIMIZE_RESTARTS = 8
    COUNT_TRIALS = 20_000
    STUDY = (4, 5)  # modes, unitaries
    HEATERS = 2
    SWEEP_POINTS = 48
    SEEDS = 4
    CALIBRATE_SLOTS = 2  # request slots, of SEEDS, that also calibrate

    def __init__(self, seed: int, workdir: Path):
        import jsonschema  # test-only dependency; imported here, in set-up

        rng = np.random.default_rng([seed, 3])
        self.root = workdir
        self.inputs = workdir / "in"
        self.outputs = workdir / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        schema_dir = Path(__file__).resolve().parent.parent / "schemas"
        self.validators = {p.stem: jsonschema.Draft7Validator(json.loads(p.read_text()))
                           for p in sorted(schema_dir.glob("*.json"))}
        self.seeds = sub_seeds(rng, self.SEEDS)
        self._write_inputs(rng)

    # inputs

    def _write_json(self, name: str, obj: dict, schema: str | None) -> str:
        if schema is not None:
            self.validate(obj, schema, name)
        path = self.inputs / name
        path.write_text(json.dumps(obj))
        return str(path)

    def _write_inputs(self, rng) -> None:
        qubits = ref.haar_vectors(rng, 5, 2)
        self.pent_r = ref.gram_abs2(qubits)
        upper = [float(self.pent_r[i, j]) for i in range(5) for j in range(i + 1, 5)]
        self.f_overlaps = self._write_json("overlaps.json", {"n": 5, "upper": upper}, "overlap_set")
        self.pent_states = qubits
        pair = lambda z: [float(z.real), float(z.imag)]  # noqa: E731
        state_rec = lambda v: {"dim": int(v.size), "amplitudes": [pair(z) for z in v]}  # noqa: E731
        self.f_pent_states = self._write_json(
            "pentagon_states.json", {"kind": "pure", "states": [state_rec(v) for v in qubits]}, "state_set")
        self.qutrits = ref.haar_vectors(rng, 4, 3)
        self.f_qutrits = self._write_json(
            "qutrit_states.json", {"kind": "pure", "states": [state_rec(v) for v in self.qutrits]}, "state_set")
        m = self.MESH_MODES
        self.unitary = MeshPipeline._haar_unitary(rng, m)
        self.f_unitary = self._write_json(
            "unitary.json", {"dim": m, "entries": [pair(z) for z in self.unitary.ravel()]}, None)
        cells = [{"row": r, "column": c, "theta": float(rng.uniform(0, 2 * np.pi)),
                  "phi": float(rng.uniform(0, 2 * np.pi))}
                 for c in range(m) for r in range(c % 2, m - 1, 2)]
        self.config = {"modes": m, "cells": cells,
                       "output_phases": [float(x) for x in rng.uniform(0, 2 * np.pi, m)]}
        self.f_config = self._write_json("mesh_config.json", self.config, "mesh_config")
        currents = np.linspace(0.0, 0.55, self.SWEEP_POINTS)
        self.heaters = [(rng.uniform(0.3, 5.8), rng.uniform(22.0, 30.0), rng.uniform(0.02, 0.08))
                        for _ in range(self.HEATERS)]
        rows = ["heater,current_a,cross_power"]
        for h, t in enumerate(self.heaters):
            rows += [f"{h},{float(i)!r},{float(p)!r}" for i, p in zip(currents, ref.heater_powers(currents, *t))]
        self.f_sweeps = str(self.inputs / "sweeps.csv")
        Path(self.f_sweeps).write_text("\n".join(rows) + "\n")
        self.theta_deg = [150.0] + [float(x) for x in rng.uniform(141.0, 171.0, self.SEEDS - 1)]

    # checks

    def validate(self, obj, schema: str, where: str) -> None:
        errors = list(self.validators[schema].iter_errors(obj))
        expect(not errors, f"{where}: does not match schemas/{schema}.json: {errors[:1]}")

    def _check_written(self, out: Path) -> dict:
        """Validate every JSON file of a request against its schema; return them parsed."""
        files = {}
        for path in sorted(out.glob("*.json")):
            obj = json.loads(path.read_text())
            files[path.name] = obj
            where = f"{out.name}/{path.name}"
            if path.name.startswith("manifest-"):
                self.validate(obj, "run_manifest", where)
            elif path.name in SCHEMA_OF_FILE:
                self.validate(obj, SCHEMA_OF_FILE[path.name], where)
            elif path.name == "maximization.json":
                for s in obj["states"]:
                    self.validate(s, "pure_state", where)
            elif path.name == "upper_bound.json":
                self.validate(obj["x_star"], "density_matrix", where)
            elif path.name == "hexagon.json":
                for s in obj["states"]:
                    self.validate(s, "density_matrix", where)
            elif path.name == "count_estimate.json":
                for rec in obj["records"].values():
                    self.validate(rec, "count_record", where)
        return files

    # requests

    def warmup(self) -> None:
        out = self.root / "warmup"
        for argv in (["evaluate", "--input", self.f_overlaps, "--inequality", "hmzi"],
                     ["interrogation", "--nu-steps", "3"],
                     ["sample", "--inequality", "h4", "--d", "2", "--num-sets", "10"],
                     ["maximize", "--inequality", "h4", "--d", "2", "--restarts", "1", "--bound"],
                     ["mesh", "simulate", "--config", self.f_config],
                     ["mesh", "decompose", "--unitary", self.f_unitary],
                     ["mesh", "counts", "--states", self.f_pent_states, "--trials", "10"],
                     ["mesh", "fidelity", "--study", "--num-unitaries", "1", "--modes", "2"],
                     ["mesh", "calibrate", "--sweeps", self.f_sweeps]):
            self._main(argv + ["--out-dir", str(out)])
        self._main(["replay", str(out / "manifest-sample.json")])

    @staticmethod
    def _main(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _request(self, kind: str, slot: str, argv: list[str], check_files=None) -> Op:
        out = self.outputs / slot
        full = argv + ["--out-dir", str(out)]

        def check(rc, ctx):
            expect(rc == 0, f"{slot}: exit code {rc}")
            files = self._check_written(out)
            if check_files is not None:
                check_files(files)
            ctx[("bytes", slot)] = self._output_bytes(out)

        return Op(kind, lambda ctx: self._main(full), check)

    @staticmethod
    def _output_bytes(out: Path) -> dict[str, bytes]:
        # manifests record wall time, so only the outputs are byte-stable
        return {p.name: p.read_bytes() for p in out.iterdir() if not p.name.startswith("manifest-")}

    def _replay(self, slot: str, subcommand: str) -> Op:
        out = self.outputs / slot
        argv = ["replay", str(out / f"manifest-{subcommand}.json")]

        def check(rc, ctx):
            expect(rc == 0, f"replay {slot}: exit code {rc}")
            before = ctx[("bytes", slot)]
            after = self._output_bytes(out)
            expect(sorted(after) == sorted(before), f"replay {slot}: different output files")
            for name, data in before.items():
                expect(after[name] == data, f"replay {slot}: {name} differs")
            self._check_written(out)

        return Op("replay", lambda ctx: self._main(argv), check)

    def round_ops(self) -> list[Op]:
        streams = []
        for k, seed in enumerate(self.seeds):
            s = str(seed)
            streams.append([
                self._request("evaluate", f"evaluate-overlaps{k}",
                              ["evaluate", "--input", self.f_overlaps, "--inequality", "hmzi"],
                              self._check_value(ref.HMZI_WEIGHTS, self.pent_r)),
                self._replay(f"evaluate-overlaps{k}", "evaluate"),
            ])
            streams.append([
                self._request("evaluate", f"evaluate-states{k}",
                              ["evaluate", "--input", self.f_qutrits, "--inequality", "h4", "--format", "csv"],
                              self._check_value(ref.HN4_WEIGHTS, ref.gram_abs2(self.qutrits))),
            ])
            streams.append([
                self._request("interrogation", f"interrogation{k}",
                              ["interrogation", "--theta", f"{self.theta_deg[k]!r}deg", "--nu-steps", "21"],
                              self._check_interrogation(np.deg2rad(self.theta_deg[k]))),
            ])
            streams.append([
                self._request("sample", f"sample{k}",
                              ["sample", "--inequality", "h4", "--d", "2", "--num-sets", str(self.SAMPLE_SETS),
                               "--seed", s], self._check_sample),
                self._replay(f"sample{k}", "sample"),
            ])
            streams.append([
                self._request("maximize", f"maximize{k}-d{d}",
                              ["maximize", "--inequality", "h4", "--d", str(d), "--restarts",
                               str(self.MAXIMIZE_RESTARTS), "--bound", "--seed", s], self._check_maximize(d))
                for d in (2, 3)
            ])
            streams.append([
                self._request("mesh-simulate", f"simulate{k}", ["mesh", "simulate", "--config", self.f_config],
                              self._check_simulate),
                self._request("mesh-decompose", f"decompose{k}", ["mesh", "decompose", "--unitary", self.f_unitary],
                              self._check_decompose),
                self._replay(f"decompose{k}", "mesh-decompose"),
            ])
            streams.append([
                self._request("mesh-counts", f"counts{k}",
                              ["mesh", "counts", "--states", self.f_pent_states, "--inequality", "hmzi",
                               "--trials", str(self.COUNT_TRIALS), "--seed", s, "--format", "csv"],
                              self._check_counts),
                self._replay(f"counts{k}", "mesh-counts"),
            ])
            streams.append([
                self._request("mesh-fidelity", f"fidelity{k}",
                              ["mesh", "fidelity", "--study", "--modes", str(self.STUDY[0]),
                               "--num-unitaries", str(self.STUDY[1]), "--seed", s], self._check_study),
            ] + [
                self._request("mesh-calibrate", f"calibrate{k}", ["mesh", "calibrate", "--sweeps", self.f_sweeps],
                              self._check_calibration)
            ] * (k < self.CALIBRATE_SLOTS))
        return interleave(streams)

    # per-request output checks, each against the benchmark's own computation

    @staticmethod
    def _check_value(weights, r):
        want = ref.weighted_value(weights, r)

        def check(files):
            got = files["verdict.json"]["value"]
            expect(abs(got - want) <= 1e-12, f"evaluate: value {got!r} vs {want!r}")
        return check

    @staticmethod
    def _check_interrogation(theta):
        def check(files):
            got = files["interrogation.json"]["crossover_nu"]
            expect(got is not None and abs(got - ref.crossover(theta)) <= 1e-6, f"interrogation: crossover {got!r}")
        return check

    def _check_sample(self, files):
        rep = files["sampling.json"]
        expect(rep["num_sets"] == self.SAMPLE_SETS, "sample: num_sets")
        expect(rep["max_value"] <= ref.hn_optimum(4, 2) + 1e-9, "sample: max above the qubit optimum")

    @staticmethod
    def _check_maximize(d):
        best = ref.hn_optimum(4, d)

        def check(files):
            value = files["maximization.json"]["value"]
            expect(best - 1e-3 <= value <= best + 1e-9, f"maximize d={d}: value {value!r} vs optimum {best!r}")
            expect(abs(files["upper_bound.json"]["value"] - best) <= 1e-9, f"maximize d={d}: upper bound")
        return check

    def _check_simulate(self, files):
        got = ref.unitary_from_record(files["unitary.json"])
        expect(float(np.max(np.abs(got - ref.mesh_unitary(self.config)))) <= 1e-12, "simulate: unitary")

    def _check_decompose(self, files):
        config = files["mesh_config.json"]
        m = self.MESH_MODES
        expect(len(config["cells"]) == m * (m - 1) // 2, "decompose: cell count")
        err = float(np.max(np.abs(ref.mesh_unitary(config) - self.unitary)))
        expect(err <= 1e-9, f"decompose: residual {err:.3g}")

    def _check_counts(self, files):
        for key, rec in files["count_estimate.json"]["records"].items():
            i, j = (int(x) for x in key.split(","))
            p = self.pent_r[i, j]
            p_hat = rec["estimated_probability"][0]
            expect(abs(p_hat - p) <= ref.count_tolerance(p, self.COUNT_TRIALS), f"counts ({i},{j}): {p_hat!r} vs {p!r}")

    def _check_study(self, files):
        s = np.asarray(files["fidelity_study.json"]["samples"])
        expect(s.shape == (self.STUDY[1],) and bool(np.all((s > 0) & (s <= 1.0 + 1e-12))), "fidelity study samples")

    def _check_calibration(self, files):
        model = files["calibration.json"]
        for h, (theta0, alpha, beta) in enumerate(self.heaters):
            expect(ref.circular_distance(model["theta0"][h], theta0) <= 1e-3, f"calibrate heater {h}: theta0")
            expect(abs(model["alpha"][h][h] / alpha - 1.0) <= 1e-3, f"calibrate heater {h}: alpha")
            expect(abs(model["beta"][h] / beta - 1.0) <= 1e-2, f"calibrate heater {h}: beta")


WORKLOADS = {
    "witness-tables": WitnessTables,
    "mesh-pipeline": MeshPipeline,
    "cli-requests": CliRequests,
}
