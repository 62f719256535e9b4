"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py [workload ...]

For each workload (all four by default) it makes short runs and checks that

* every metric named in BENCHMARK.json is printed, with its unit, for
  ``--trace 0`` (end-to-end) and ``--trace 1`` (per-layer);
* two traced runs with one seed give identical counters;
* one seed always generates the same inputs and another seed other inputs.

It also checks that the benchmark refuses to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's files.  Exits 0
when every check passes.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEED, OTHER_SEED = 7, 8


def bench(cwd: str, workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = lines[0].split("inputs ")[1]
    return json.loads(lines[-1]), digest


def check_metrics(line: dict, spec: list[dict], what: str) -> list[str]:
    errors = []
    got = line["metrics"]
    for metric in spec:
        entry = got.get(metric["name"])
        if entry is None:
            errors.append(f"{what}: {metric['name']} missing")
        elif entry.get("unit") != metric["unit"] or not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{what}: {metric['name']} printed as {entry}")
    extra = set(got) - {m["name"] for m in spec}
    if extra:
        errors.append(f"{what}: metrics not in BENCHMARK.json: {sorted(extra)}")
    if not (line["correct"] and line["failed"] == 0 and line["attempted"] >= 1):
        errors.append(f"{what}: correct={line['correct']} failed={line['failed']} attempted={line['attempted']}")
    return errors


def check_workload(root: str, spec: dict, workload: str) -> list[str]:
    errors = []
    plain, digest = bench(root, workload, SEED, 0)
    errors += check_metrics(plain, spec["end_to_end"], f"{workload} trace 0")
    traced_a, digest_a = bench(root, workload, SEED, 1)
    traced_b, _ = bench(root, workload, SEED, 1)
    errors += check_metrics(traced_a, spec["per_layer"], f"{workload} trace 1")
    for metric in spec["per_layer"]:
        if metric["unit"] in ("count", "dim", "n3_computed"):
            a = traced_a["metrics"][metric["name"]]["value"]
            b = traced_b["metrics"][metric["name"]]["value"]
            if a != b:
                errors.append(f"{workload}: counter {metric['name']} is {a} then {b} for one seed")
    _, other = bench(root, workload, OTHER_SEED, 0)
    if digest != digest_a:
        errors.append(f"{workload}: seed {SEED} generated different inputs in two runs")
    if other == digest:
        errors.append(f"{workload}: seeds {SEED} and {OTHER_SEED} generated the same inputs")
    return errors


def check_bare_directory(root: str) -> list[str]:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as bare:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pbd-decode", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main(argv: list[str]) -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = argv or [w["name"] for w in spec["workloads"]]
    errors = check_bare_directory(root)
    for workload in names:
        found = check_workload(root, spec, workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        errors += found
    for err in errors:
        print("  " + err)
    print("selftest " + ("passed" if not errors else f"failed ({len(errors)} problems)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
