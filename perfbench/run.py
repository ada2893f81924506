"""Benchmark command for overlapkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: witness-tables, mesh-pipeline,
cli-requests (see README.md). Every process is a fresh interpreter with
``src`` on ``PYTHONPATH`` and one thread for BLAS and for overlapkit.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once more with every public function wrapped in a span and prints
the per-layer metrics. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("witness-tables", "mesh-pipeline", "cli-requests")
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "OVERLAPKIT_THREADS": "1"}
# Import-only and set-up-only interpreters, half before and half after the
# timed run: the machine has bursts of higher speed lasting seconds, and
# spreading the samples keeps one burst from moving all of them.
IMPORT_REPS = 4     # besides the import timed in each set-up
SETUP_REPS = 2      # besides the timed run's own set-up
IMPORTTIME_REPS = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import_s is measured with warm .pyc files
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update(THREAD_ENV)
    return env


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.workdir = OUT / f"{workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.k = 0

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def child(self, mode: str, *extra: str) -> tuple[dict, float]:
        """Run child.py; return its result and the monotonic time it was started."""
        self.k += 1
        result = self.workdir / f"result-{self.k}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--result", str(result),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", str(self.workdir / "work"), *extra]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                              timeout=self._remaining())
        if proc.returncode != 0:
            raise BenchError(f"child {mode} exited with {proc.returncode}")
        return json.loads(result.read_text()), started

    def importtime(self) -> dict:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import overlapkit.cli"],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=self._remaining())
        if proc.returncode != 0:
            raise BenchError(f"import of overlapkit.cli failed:\n{proc.stderr[-2000:]}")
        import tracing

        return tracing.import_times_ms(proc.stderr)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_report(latencies: list) -> tuple[float, float, str]:
    """p50 and p90 over all operations, and the kinds found around each."""
    lat = sorted(latencies)
    ms = [v for v, _ in lat]
    notes = []
    for q in (50, 90):
        at = (len(lat) - 1) * q / 100
        lo, hi = max(0, int(at) - 3), min(len(lat), int(at) + 5)
        notes.append(f"p{q} rank {at:.0f}/{len(lat)} among " + ",".join(sorted({k for _, k in lat[lo:hi]})))
    return percentile(ms, 50), percentile(ms, 90), "; ".join(notes)


def run_end_to_end(r: Runner, seconds: float) -> tuple[dict, dict]:
    r.child("import")  # leaves warm .pyc files behind
    imports, setups = [], []

    def sample(mode: str, *extra: str) -> dict:
        res, started = r.child(mode, *extra)
        imports.append(res["import_s"])
        if mode != "import":
            setups.append(res["setup_done"] - started)
        return res

    for _ in range(IMPORT_REPS // 2):
        sample("import")
    for _ in range(SETUP_REPS // 2):
        sample("setup")
    res = sample("run", "--seconds", str(seconds))
    for _ in range(SETUP_REPS - SETUP_REPS // 2):
        sample("setup")
    for _ in range(IMPORT_REPS - IMPORT_REPS // 2):
        sample("import")
    p50, p90, where = latency_report(res["latencies"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "import_s": (statistics.median(imports), "s"),
        "wall_s": (statistics.median(res["rounds"]), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (res["peak_rss_kib"] / 1024.0, "MiB"),
    }
    res["where"] = where
    return metrics, res


def run_traced(r: Runner, seconds: float) -> tuple[dict, dict]:
    import tracing

    samples = [r.importtime() for _ in range(IMPORTTIME_REPS)]
    spans = OUT / f"spans-{r.workload}-seed{r.seed}.npz"
    res, _ = r.child("run", "--seconds", str(seconds), "--spans", str(spans))
    values = dict(res["per_layer"])
    for name in samples[0]:
        values[name] = statistics.median(s[name] for s in samples)
    values["trace.wall_s"] = statistics.median(res["rounds"])
    metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER_UNITS.items()}
    res["where"] = f"{res['spans']} spans over {len(res['rounds'])} rounds, {res['wrapped']} functions wrapped"
    return metrics, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "overlapkit" / "cli.py").is_file():
        print(f"error: no overlapkit sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    r = Runner(args.workload, args.seed, deadline)
    try:
        metrics, res = (run_traced if args.trace else run_end_to_end)(r, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(r.workdir, ignore_errors=True)

    summary = [f"{args.workload} seed={args.seed} trace={args.trace}: {len(res['rounds'])} rounds of "
               f"{res['ops_per_round']} ops; threads {res['thread_env']}", res["where"]]
    rounds = len(res["rounds"])
    kinds: dict[str, list[float]] = {}
    for ms, kind in res["latencies"]:
        kinds.setdefault(kind, []).append(ms)
    summary += [f"  {kind}: {len(v) // rounds}/round, median {statistics.median(v):.4g} ms"
                for kind, v in sorted(kinds.items(), key=lambda kv: statistics.median(kv[1]))]
    summary += [f"known fault: {m}" for m in res["known_faults"].values()]
    summary += [f"known fault no longer shows: {label}" for label in res["faults_absent"]]
    summary += [f"UNEXPECTED FAILURE: {m}" for m in res["unexpected"]]
    summary += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(summary), file=sys.stderr)
    print(json.dumps({
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
