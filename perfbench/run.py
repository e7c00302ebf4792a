#!/usr/bin/env python3
"""The hatkv repository benchmark: closed-loop YCSB on a simulated deployment.

Usage, from the repository root:

    python3 perfbench/run.py --workload lan-rc --seed 1 --seconds 20 --trace 0

Builds perfbench/ (CMake, Release) into .bench_build/perfbench on first use,
then measures one workload. Every measurement runs in its own hatbench
process, one thread, so a workload's peak memory and set-up time are its own.

--trace 0  repeats untraced runs of the seed for --seconds of host time (at
           least MIN_REPS) and reports the end-to-end metrics: medians over
           the runs for host figures; modeled figures must be identical in
           every run.
--trace 1  alternates untraced and traced runs of the seed for --seconds,
           replays a captured sample through the version and storage layers,
           compares the outcome with harness::YcsbDriver's, and reports the
           per-layer metrics.

Every run applies the correctness gate (replica convergence after a drain;
for lan-batch-durable also recovery from disk). The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; a failed check
prints it with "correct": false and exits 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_ROOT = os.path.join(ROOT, ".bench_build", "tmp")
HATBENCH = os.path.join(BUILD_DIR, "hatbench")

MIN_REPS = 3
# Every hatbench process must end by then, keeping the whole command inside
# its 180 s budget (the first build aside).
DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds hatbench; exits 1 when it cannot."""
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for attempt in range(2):
        ok = True
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            ok = subprocess.run(configure, stdout=sys.stderr).returncode == 0
        if ok:
            ok = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                                stdout=sys.stderr).returncode == 0
        if ok:
            return
        if attempt == 0 and os.path.exists(BUILD_DIR):
            log("build failed; retrying from a clean build directory")
            shutil.rmtree(BUILD_DIR)
    log("hatbench could not be built")
    sys.exit(1)


def hatbench(mode, workload, seed, deadline, seconds=None):
    """Runs one hatbench process; returns its JSON result and exit code."""
    cmd = [HATBENCH, mode, "--workload", workload, "--seed", str(seed),
           "--tmp-root", TMP_ROOT]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"errors": [f"hatbench {mode} timed out"]}, 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"errors": [f"hatbench {mode} exited {proc.returncode} "
                           "without a result"]}, 1
    return result, proc.returncode


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def fmt(value):
    return f"{value:.6g}"


def end_to_end(args, spec, deadline):
    reps = []
    errors = []
    start = time.monotonic()
    while True:
        result, code = hatbench("rep", args.workload, args.seed, deadline)
        errors += result.get("errors", [])
        if "end_to_end" not in result:
            break
        reps.append(result)
        if code != 0:
            break
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and \
                elapsed + elapsed / len(reps) > args.seconds:
            break
    if not reps:
        return errors, None, {}

    # Same seed, same simulated work: every modeled figure must repeat.
    first = reps[0]["modeled"]
    for i, rep in enumerate(reps[1:], start=1):
        if rep["modeled"] != first:
            errors.append(f"rep {i} modeled outcome differs from rep 0")

    metrics = {}
    for m in spec["end_to_end"]:
        values = [r["end_to_end"][m["name"]] for r in reps]
        metrics[m["name"]] = {"value": statistics.median(values),
                              "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  trace 0  "
          f"reps {len(reps)}  tmp filesystem {reps[0]['storage_fs']}")
    for name, v in metrics.items():
        print(f"  {name:<20} {fmt(v['value']):>12} {v['unit']}")
    e2e = reps[0]["end_to_end"]
    print(f"  {'failed_share':<20} {fmt(e2e['failed_share']):>12} ratio")
    print(f"  p99 rests on {int(first['latency_samples'])} samples, "
          f"{int(first['samples_beyond_p99'])} beyond it")
    host = {k: statistics.median(r["host"][k] for r in reps)
            for k in reps[0]["host"]}
    print("  host phases (median s): " +
          "  ".join(f"{k} {fmt(v)}" for k, v in host.items()))
    return errors, first, metrics


def per_layer(args, spec, deadline):
    errors = []
    layers, code = hatbench("layers", args.workload, args.seed, deadline,
                            args.seconds)
    errors += layers.get("errors", [])
    if "per_layer" not in layers:
        return errors, None, {}
    modeled = layers["modeled"]

    reference, code = hatbench("harness", args.workload, args.seed, deadline)
    if code != 0 or "modeled" not in reference:
        errors.append(f"harness exited {code}")
    else:
        for field, value in reference["modeled"].items():
            if modeled[field] != value:
                errors.append(f"driver differs from harness::YcsbDriver on "
                              f"{field}: {modeled[field]} vs {value}")

    metrics = {}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"value": layers["per_layer"][m["name"]],
                              "unit": m["unit"]}
    info = layers["info"]
    print(f"workload {args.workload}  seed {args.seed}  trace 1  "
          f"pairs {int(info['pairs'])}  spans {int(info['spans'])}  "
          f"replayed {int(info['replay_writes'])} writes / "
          f"{int(info['replay_reads'])} reads  "
          f"tmp filesystem {layers['storage_fs']}")
    for name, v in metrics.items():
        print(f"  {name:<34} {fmt(v['value']):>12} {v['unit']}")
    return errors, modeled, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        sys.exit(2)
    build()
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(TMP_ROOT, exist_ok=True)
    try:
        if args.trace == 0:
            errors, modeled, metrics = end_to_end(args, spec, deadline)
        else:
            errors, modeled, metrics = per_layer(args, spec, deadline)
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)

    if modeled is None:
        for e in errors:
            log(f"error: {e}")
        sys.exit(1)
    committed = int(modeled["committed"])
    failed = int(modeled["unavailable"] + modeled["aborted"])
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({"correct": not errors, "attempted": committed + failed,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if not errors else 1)


if __name__ == "__main__":
    main()
