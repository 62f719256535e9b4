"""One benchmark process: set up, run the timed or traced phase, check outputs.

Started by ``run.py`` with BLAS threads pinned in its environment.  Prints
one JSON object as its last line of standard output.  Not meant to be run
by hand; use ``run.py``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up starts before numpy and qdiv are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (from this directory; imports numpy, not qdiv)
from tracer import Tracer  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")


def import_qdiv():
    """Import qdiv from ./src of the checkout, never from anywhere else."""
    sys.path.insert(0, SRC)
    import qdiv

    if os.path.dirname(os.path.abspath(qdiv.__file__)) != os.path.join(SRC, "qdiv"):
        raise ImportError(f"qdiv was imported from {qdiv.__file__}, not from {SRC}")
    return qdiv


def run_op(op):
    """Time one op; returns (seconds, result or None, error text or None)."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, None


class Outcomes:
    """Per-op results of the measured passes, checked once per distinct op."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, object] = {}
        self.errors: dict[int, str] = {}
        self.attempted = [0] * len(ops)
        self.failed = [0] * len(ops)

    def record(self, i: int, result, error) -> None:
        self.attempted[i] += 1
        if error is not None:
            self.failed[i] += 1
            self.errors.setdefault(i, error)
        elif i not in self.first:
            self.first[i] = result
        elif not all(
            workloads.same(a, b, workloads.SELF_INDUCED_TOL)
            for a, b in zip(self.ops[i].summary(self.first[i]), self.ops[i].summary(result))
        ):
            self.failed[i] += 1
            self.errors.setdefault(i, "result differs from an earlier run of the same op")

    def check(self) -> tuple[int, int, int, list[str]]:
        """Run every op's check; returns attempted, failed, known-defect ops, reasons."""
        known = 0
        for i, result in self.first.items():
            why = self.ops[i].check(result)
            if isinstance(why, workloads.KnownDefect):
                known += self.attempted[i]
            elif why is not None:
                self.failed[i] = self.attempted[i]
                self.errors.setdefault(i, why)
        reasons = [f"{self.ops[i].label}: {self.errors[i]}" for i in sorted(self.errors)]
        return sum(self.attempted), sum(self.failed), known, reasons


def timed_phase(ops, seconds: float, outcomes: Outcomes) -> dict:
    """Closed loop, one client: whole passes until ``seconds`` have elapsed.

    Each op's time is its fastest repeat in the run.  The work of an op is
    deterministic (the traced counters repeat exactly), so its slower
    repeats differ only by interference from other tenants of the machine;
    on a 2-vCPU host one pass of ``induced-sweep`` took 1.29-2.08 s within
    a minute, in slow stretches of ~10 s, and medians over a 25 s run moved
    by 20-28% between runs.  Throughput and CPU per op are those of a pass
    made of these times; the latency percentiles are taken over them too
    (a pass mixes ops of very different cost, so percentiles of the raw
    times would fall between two kinds of op).
    """
    wall = [[] for _ in ops]
    cpu = [[] for _ in ops]
    passes = 0
    wall0 = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            cpu0 = time.process_time()
            dt, result, error = run_op(op)
            cpu[i].append(time.process_time() - cpu0)
            wall[i].append(dt)
            outcomes.record(i, result, error)
        passes += 1
        if time.perf_counter() - wall0 >= seconds:
            break
    per_op = [min(t) for t in wall]
    out = {
        "ops_per_s": len(ops) / sum(per_op),
        "latency_p50_ms": 1e3 * statistics.median(per_op),
        "cpu_ms_per_op": 1e3 * sum(min(t) for t in cpu) / len(ops),
        "timed_ops": len(ops) * passes,
        "timed_passes": passes,
        "timed_s": time.perf_counter() - wall0,
        "median_pass_s": statistics.median(sum(t[k] for t in wall) for k in range(passes)),
    }
    if len(per_op) >= 100:  # at least 10 per-op times lie beyond the 90th percentile
        out["latency_p90_ms"] = 1e3 * statistics.quantiles(per_op, n=10)[-1]
    return out


def per_layer(tracer) -> dict:
    c, s = tracer.count, tracer.seconds

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "linalg.eigh_calls": c["linalg.eigh_calls"],
        "linalg.eigh_s": s["linalg.eigh_s"],
        "linalg.eigh_n3_sum": c["linalg.eigh_n3_sum"],
        "linalg.validations": c["linalg.validations"],
        "linalg.validate_s": s["linalg.validate_s"],
        "roots.solves": c["_roots.solves"],
        "roots.f_evals": c["_roots.f_evals"],
        "roots.f_evals_per_solve": ratio(c["_roots.f_evals"], c["_roots.solves"]),
        "roots.self_s": s["_roots.self_s"],
        "induced.calls": c["induced.calls"],
        "induced.margin_evals": c["induced.margin_evals"],
        "induced.margin_evals_per_call": ratio(c["induced.margin_evals"], c["induced.calls"]),
        "induced.eigh_per_call": ratio(c["induced.eigh_calls"], c["induced.calls"]),
        "induced.self_s": s["induced.self_s"],
        "info.md_iters": c["info.md_iters"],
        "info.md_cap_hits": c["info.md_cap_hits"],
        "info.md_objective_calls": c["info.md_objective_calls"],
        "info.md_accept_ratio": ratio(c["info.md_accepted"], c["info.md_objective_calls"]),
        "info.self_s": s["info.self_s"],
        "info.simplex_objective_calls": c["info.simplex_objective_calls"],
        "divergences.calls": c["divergences.calls"],
        "divergences.eigh_calls": c["divergences.eigh_calls"],
        "divergences.self_s": s["divergences.self_s"],
        "protocols.calls": c["protocols.calls"],
        "protocols.self_s": s["protocols.self_s"],
        "protocols.max_dim": tracer.max_dim["protocols"],
        "states.self_s": s["states.self_s"],
        "states.max_dim": tracer.max_dim["states"],
    }


COUNTERS = (
    "linalg.eigh_calls",
    "linalg.eigh_n3_sum",
    "linalg.validations",
    "roots.solves",
    "roots.f_evals",
    "induced.calls",
    "induced.margin_evals",
    "info.md_iters",
    "info.md_cap_hits",
    "info.md_objective_calls",
    "info.simplex_objective_calls",
    "divergences.calls",
    "divergences.eigh_calls",
    "protocols.calls",
    "protocols.max_dim",
    "states.max_dim",
)


def traced_phase(ops, seconds: float, outcomes: Outcomes, trace_path: str) -> dict:
    """Pairs of (untraced pass, traced pass) until ``seconds`` have elapsed.

    Counters come from whole traced passes, so they repeat exactly for a
    seed; times are medians over the traced passes.  The spans of the first
    traced pass are written to ``trace_path``.
    """
    layers, ratios = [], []
    wall0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            outcomes.record(i, *run_op(op)[1:])
        untraced = time.perf_counter() - start
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            for i, op in enumerate(ops):
                outcomes.record(i, *run_op(op)[1:])
            traced = time.perf_counter() - start
        finally:
            tracer.uninstall()
        if not layers:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans(start), fh)
        layers.append(per_layer(tracer))
        ratios.append(traced / untraced)
        if time.perf_counter() - wall0 >= seconds:
            break
    out = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        out[key] = values[0] if key in COUNTERS else statistics.median(values)
    out["trace.overhead_ratio"] = statistics.median(ratios)
    out["counters_repeat"] = all(all(layer[k] == layers[0][k] for k in COUNTERS) for layer in layers)
    out["traced_passes"] = len(layers)
    return out


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)

    import numpy as np

    qdiv = import_qdiv()
    bench = workloads.build(qdiv, args.workload, args.seed)
    for i in bench.warmup:
        bench.ops[i].call()
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "inputs_sha256": bench.digest, "ops_per_pass": len(bench.ops)}
    if not args.setup_only:
        outcomes = Outcomes(bench.ops)
        if args.trace:
            result.update(traced_phase(bench.ops, args.seconds, outcomes, args.trace_out))
        else:
            result.update(timed_phase(bench.ops, args.seconds, outcomes))
        attempted, failed, known, reasons = outcomes.check()
        result.update(attempted=attempted, failed=failed, known_defect_ops=known, failures=reasons[:20])
        result["environment"] = environment(np)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
