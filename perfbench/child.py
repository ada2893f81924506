"""One benchmark process: time the CLI import, set up a workload, run it.

Started by ``run.py`` with the repository's ``src`` on ``PYTHONPATH`` and a
fixed thread environment. The first thing it does is ``import
overlapkit.cli``, timed, so that import is what a fresh interpreter pays.

    child.py import --result R              time the import only
    child.py setup  --result R --workload W --seed N --workdir D
    child.py run    --result R --workload W --seed N --workdir D --seconds S [--spans P]

The result goes to R as JSON; ``setup_done`` is a CLOCK_MONOTONIC reading
taken just before the first timed operation, which the parent subtracts
from the moment it started this interpreter.
"""

import time

_t0 = time.perf_counter()
import overlapkit.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def timed_phase(workload, seconds: float) -> dict:
    """Repeat the workload's round until the next one would overrun ``seconds``."""
    from workloads import KnownFault

    ops = workload.round_ops()
    round_s, latencies = [], []
    attempted = failed = 0
    unexpected, fault_msgs = [], {}
    began = time.perf_counter()
    last = 0.0
    while not round_s or time.perf_counter() - began + last <= seconds:
        gc.collect()
        r0 = time.perf_counter()
        ctx, busy = {}, 0.0
        for op in ops:
            t = time.perf_counter()
            try:
                result, error = op.call(ctx), None
            except Exception as exc:  # a raising call is a failed operation
                result, error = None, exc
            dt = time.perf_counter() - t
            busy += dt
            latencies.append((dt * 1e3, op.kind))
            if op.key is not None:
                ctx[op.key] = result
            attempted += 1
            if error is None:
                try:
                    op.check(result, ctx)
                except Exception as exc:
                    error = exc
            if error is not None:
                failed += 1
                message = f"{op.kind}: {type(error).__name__}: {error}"
                if isinstance(error, KnownFault):
                    fault_msgs.setdefault(error.label, message)
                else:
                    unexpected.append(message)
        round_s.append(busy)
        last = time.perf_counter() - r0
    # a pinned fault that no longer shows has been mended (or moved)
    absent = sorted(getattr(workload, "KNOWN_FAULTS", frozenset()) - fault_msgs.keys())
    return {"rounds": round_s, "latencies": latencies, "attempted": attempted, "failed": failed,
            "unexpected": unexpected[:20], "known_faults": fault_msgs, "faults_absent": absent,
            "ops_per_round": len(ops)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["import", "setup", "run"])
    ap.add_argument("--result", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workdir")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--spans", help="trace the timed phase and write its spans here")
    args = ap.parse_args()

    origin = Path(overlapkit.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"overlapkit was imported from {origin}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3
    out = {"import_s": IMPORT_S}
    if args.mode != "import":
        from workloads import WORKLOADS

        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warmup()
        out["thread_env"] = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")}
        out["setup_done"] = time.monotonic()
        if args.mode == "run":
            tracer = None
            if args.spans:
                import tracing

                tracer = tracing.Tracer()
                out["wrapped"] = tracing.install(tracer)
            out.update(timed_phase(workload, args.seconds))
            if tracer is not None:
                out["per_layer"] = tracing.per_layer_metrics(tracer, len(out["rounds"]))
                out["spans"] = len(tracer.start)
                tracer.save(args.spans)
        out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
