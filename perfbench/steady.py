"""Run two (or more) sets of benchmark runs of the same code and compare them.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--traced K]

Each set runs every workload of BENCHMARK.json ``--runs`` times for its
``run_seconds``, each time with another seed (set k uses seeds
100 k + 1 ... 100 k + runs), interleaving the workloads.
For every end-to-end metric and workload it prints each set's median and
interquartile spread (as a share of the median, from
``statistics.quantiles(values, n=4)``), the change of the median from the
first set to each later one, and whether these stay within the bounds in
BENCHMARK.json: every spread within the bound, and no median worse than
the first set's by more than the bound. It also checks
that the share of failed operations is the same in every run. ``--traced K``
follows each of the first K runs of the first set with a traced run on the
same seed and reports the tracing overhead on ``wall_s`` over those pairs.
Raw values go to ``.perfbench-out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args, workloads: list[str], seconds: int) -> tuple[dict, dict]:
    results: dict = {w: [[] for _ in range(args.sets)] for w in workloads}
    traced: dict = {w: [] for w in workloads}
    began = time.time()
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = 100 * s + i + 1
                results[w][s].append(run_once(w, seed, seconds, 0))
                if s == 0 and i < args.traced:  # paired with the untraced run just made
                    traced[w].append(run_once(w, seed, seconds, 1))
            print(f"set {s + 1} run {i + 1}/{args.runs} done at {time.time() - began:.0f} s", file=sys.stderr)
    return results, traced


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--traced", type=int, default=0, help="traced/untraced pairs per workload, for the overhead")
    args = ap.parse_args()
    results, traced = collect(args, workloads, bench["run_seconds"])

    ok = True
    print("| workload | metric | bound | " + " | ".join(
        f"set {s + 1} median | set {s + 1} spread" for s in range(args.sets))
        + " | worst median change | within bounds |")
    print("|" + " --- |" * (5 + 2 * args.sets))
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            sign = 1 if metric["better"] == "lower" else -1
            change = max(sign * (m - medians[0]) / medians[0] for m in medians[1:]) if args.sets > 1 else 0.0
            fine = change <= bound and all(sp <= bound for sp in spreads)
            ok &= fine
            cells = " | ".join(f"{m:.4g} {metric['unit']} | {sp:.1%}" for m, sp in zip(medians, spreads))
            print(f"| {w} | {name} | {bound:.0%} | {cells} | {change:+.1%} | {'yes' if fine else 'NO'} |")
    print()
    for w in workloads:
        shares = {Fraction(r["failed"], r["attempted"]) for runs in results[w] for r in runs}
        correct = all(r["correct"] for runs in results[w] for r in runs)
        ok &= len(shares) == 1 and correct
        print(f"{w}: failed share {', '.join(str(f) for f in sorted(shares))} over "
              f"{sum(len(runs) for runs in results[w])} runs; all correct: {correct}")
        if traced[w]:
            pairs = list(zip(traced[w], results[w][0]))
            ratios = [t["metrics"]["trace.wall_s"]["value"] / u["metrics"]["wall_s"]["value"] - 1 for t, u in pairs]
            print(f"{w}: tracing overhead on wall_s {statistics.median(ratios):+.1%} (median of {len(pairs)} "
                  f"traced/untraced pairs on the same seed: {', '.join(f'{x:+.1%}' for x in ratios)})")
    out = ROOT / ".perfbench-out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "results": results, "traced": traced}))
    print(f"\nraw results: {out.relative_to(ROOT)}")
    print(f"all within bounds: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
