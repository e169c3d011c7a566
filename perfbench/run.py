"""The heckelab benchmark: run workloads, check their results, print metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every repetition runs in a fresh `worker.py` interpreter, so heckelab's caches
start cold as in a user's scan.  A run first times set-up alone a few times,
then repeats the workload and stops after the repetition that ends nearest
to `--seconds` (at least one), checks every result against
`reference/<workload>.json`, and reports medians.  With `--trace 1` each
repetition is a pair, one untraced and one traced, and the per-layer metrics
of `spans.py` are reported together with the tracing overhead.
`--workload all` runs the workloads in alternation, so drift on the machine
hits them alike.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Inputs are fixed reference families; the seed only orders the primes of P
# and the twist characters, which must not change any result.
WORKLOADS = {
    "scan-gauss": {
        "kind": "scan", "D": -4, "epsilon": "gaussian_epsilon",
        "P": [5, 13], "c_max": 25, "tol": 1e-8,
    },
    "scan-d23": {
        "kind": "scan", "D": -23, "epsilon": "canonical_epsilon",
        "P": [2, 3], "c_max": 8, "tol": 1e-8,
    },
    "twist-deep": {
        "kind": "twists", "D": -4, "epsilon": "gaussian_epsilon",
        "twists": [[43, [11]], [67, [17]]], "tol": 1e-10,
    },
}

# The workloads in BENCHMARK.json.  scan-d23 is run only by hand or with
# `--workload all`: on a shared 2-core VM the host's drift needs the longest
# runs the benchmark's time budget allows, and that budget fits two workloads.
BENCHMARKED = ("scan-gauss", "twist-deep")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a single-workload run must end well inside 180 s


class BenchError(RuntimeError):
    pass


def workload_spec(name: str, seed: int) -> dict:
    spec = json.loads(json.dumps(WORKLOADS[name]))
    random.Random(seed).shuffle(spec["P"] if spec["kind"] == "scan" else spec["twists"])
    return spec


def run_worker(spec: dict, deadline: float, trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", json.dumps(spec), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next repetition")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker overran the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def measure(names: list[str], seed: int, seconds: float, trace: bool) -> dict:
    """Samples per workload: set-up times, untraced and traced repetitions, mismatches."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S * len(names)
    specs = {name: workload_spec(name, seed) for name in names}
    refs = {name: json.loads((HERE / "reference" / f"{name}.json").read_text()) for name in names}
    runs = {name: {"setup": [], "plain": [], "traced": [], "mismatches": []} for name in names}
    for name in names:
        for _ in range(SETUP_SAMPLES):
            runs[name]["setup"].append(run_worker(specs[name], deadline, setup_only=True)["setup_s"])
    loop_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for name in names:
            for traced in (False, True) if trace else (False,):
                rep = run_worker(specs[name], deadline, trace=traced)
                runs[name]["setup"].append(rep["setup_s"])
                runs[name]["traced" if traced else "plain"].append(rep)
                runs[name]["mismatches"] += gate.check(specs[name]["kind"], refs[name], rep.pop("result"))
        now = time.monotonic()
        # stop where the run ends nearest to its measuring time
        if now - loop_start + (now - round_start) / 2 > seconds * len(names):
            return runs


def summarize(samples: dict, trace: bool) -> dict[str, float]:
    """Medians of one workload's samples: end-to-end metrics, or per-layer ones."""
    plain = samples["plain"]

    def median(reps, key):
        return statistics.median(rep[key] for rep in reps)

    if not trace:
        out = {key: median(plain, key) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        out["setup_s"] = statistics.median(samples["setup"])
        return out
    traced = samples["traced"]
    missing = sorted({name for rep in traced for name in rep["missing_layers"]})
    if missing:
        print(f"# layers not found in heckelab: {missing}")
    layers = [rep["layers"] for rep in traced]
    if any(
        layer[name] != layers[0][name]
        for layer in layers
        for name in layer
        if name.rsplit(".", 1)[1] in spans.COUNT_STATS
    ):
        print("# warning: per-layer counts differ between traced repetitions")
    out = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    out["trace.wall_s"] = median(traced, "wall_s")
    out["trace.overhead_s"] = out["trace.wall_s"] - median(plain, "wall_s")
    return out


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    return spans.UNITS.get(metric.rsplit(".", 1)[1], "s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    try:
        runs = measure(names, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics, attempted, failed, mismatches, walls = {}, 0, 0, [], {}
    versions = runs[names[0]]["plain"][0]["versions"]
    for name in names:
        samples = runs[name]
        reps = samples["plain"] + samples["traced"]
        walls[name] = {kind: [rep["wall_s"] for rep in samples[kind]] for kind in ("plain", "traced")}
        walls[name]["setup"] = samples["setup"]
        attempted += sum(rep["attempted"] for rep in reps)
        failed += sum(rep["failed"] for rep in reps)
        mismatches += [f"{name}: {m}" for m in samples["mismatches"]]
        summary = summarize(samples, trace)
        print(f"{name}: {len(samples['plain'])} untraced, {len(samples['traced'])} traced runs, "
              f"{len(samples['setup'])} set-ups")
        for metric, value in summary.items():
            print(f"  {metric:<48} {value:>14.6g} {unit_of(metric)}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": unit_of(metric)}
    for m in mismatches:
        print(f"MISMATCH {m}")
    meta = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "traced": trace,
        "workloads": names,
        "seed": args.seed,
        "seconds": args.seconds,
        "samples_s": walls,
    }
    print(json.dumps({"meta": meta}))
    correct = not mismatches
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
