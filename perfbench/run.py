"""qdiv benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload induced-sweep --seed 1 --seconds 25 --trace 0

Workloads: induced-sweep, qsr-bound, comm-bound, pbd-decode (see
``workloads.py``).  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run.  The lines before it repeat every metric
with its unit, the environment and any failed check.  The full result, and
with ``--trace 1`` the span table, go to ``perfbench/out/``.

This process never imports numpy: it starts worker processes with BLAS and
OpenMP threads pinned to 1 in their environment.  Set-up (import of numpy
and qdiv, input generation, one untimed warm-up of each kind of op) is
measured in ``SETUP_REPEATS`` fresh processes and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("induced-sweep", "qsr-bound", "comm-bound", "pbd-decode")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> unit, in the order of BENCHMARK.json
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed with the others but not in the result line: p90 exists only for
# passes of at least 100 ops, and the failed ratio is 0 on a correct run.
REPORTED_ONLY = {"latency_p90_ms": "ms", "ops_failed_ratio": "ratio"}
PER_LAYER = {
    "linalg.eigh_calls": "count",
    "linalg.eigh_s": "s",
    "linalg.eigh_n3_sum": "n3_computed",
    "linalg.validations": "count",
    "linalg.validate_s": "s",
    "roots.solves": "count",
    "roots.f_evals": "count",
    "roots.f_evals_per_solve": "ratio",
    "roots.self_s": "s",
    "induced.calls": "count",
    "induced.margin_evals": "count",
    "induced.margin_evals_per_call": "ratio",
    "induced.eigh_per_call": "ratio",
    "induced.self_s": "s",
    "info.md_iters": "count",
    "info.md_cap_hits": "count",
    "info.md_objective_calls": "count",
    "info.md_accept_ratio": "ratio",
    "info.self_s": "s",
    "info.simplex_objective_calls": "count",
    "divergences.calls": "count",
    "divergences.eigh_calls": "count",
    "divergences.self_s": "s",
    "protocols.calls": "count",
    "protocols.self_s": "s",
    "protocols.max_dim": "dim",
    "states.self_s": "s",
    "states.max_dim": "dim",
    "trace.overhead_ratio": "ratio",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish in {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "qdiv", "__init__.py")):
        print("error: run from the root of a qdiv checkout (src/qdiv not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_worker(common + ["--setup-only"])["setup_s"])
        trace_args = ["--trace", "1", "--trace-out", os.path.join(out_dir, stem + ".spans.json")]
        result = run_worker(common + (trace_args if args.trace else ["--trace", "0"]))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    result["setup_s_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    result["ops_failed_ratio"] = result["failed"] / result["attempted"]

    units = PER_LAYER if args.trace else END_TO_END
    shown = units if args.trace else {**END_TO_END, **REPORTED_ONLY}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  inputs {result['inputs_sha256']}")
    for name, unit in shown.items():
        if name in result:
            print(f"  {name:32s} {result[name]:>16.6g} {unit}")
    if "timed_ops" in result:
        print(
            f"  timed ops {result['timed_ops']} in {result['timed_passes']} passes of {result['ops_per_pass']};"
            f" latency percentiles over the {result['ops_per_pass']} per-op times (fastest repeat of each)"
        )
    if "counters_repeat" in result:
        print(f"  traced passes {result['traced_passes']}, counters repeat: {result['counters_repeat']}")
    print(f"  known-defect ops {result['known_defect_ops']}  failed ops {result['failed']} of {result['attempted']}")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    print(f"  environment {json.dumps(result['environment'], sort_keys=True)}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    line = {
        "correct": result["failed"] == 0 and result.get("counters_repeat", True),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
