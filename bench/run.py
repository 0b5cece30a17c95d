#!/usr/bin/env python3
"""Builds and drives perf_ledger, the repo's benchmark.

The command BENCHMARK.json names (one workload, one process):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds bench/perf_ledger from source (offline, into CARGO_TARGET_DIR or
bench/perf_ledger/target) and runs it; the last line of standard output is
the result object. Run from the root of the checkout.

For people:

    python3 bench/run.py --all [--seed N] [--seconds S] [--smoke]
        every workload, end-to-end run then traced run, every metric by name
    python3 bench/run.py --noise K
        K end-to-end runs per workload (seeds 2024..) -> bench/baseline/noise.json,
        and BENCHMARK.json rewritten with bound = max(5 %, 3 x spread) per metric
    python3 bench/run.py --record-baseline
        one full untraced + traced result per workload with the machine's
        fingerprint -> bench/baseline/seed.json
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PACKAGE = os.path.join(BENCH, "perf_ledger")
BASELINE = os.path.join(BENCH, "baseline")
DEFAULT_SEED = 2024
RUN_SECONDS = 10
# A bound is max(FLOOR, 3 x the worst workload's spread), capped at what the
# driver accepts: the driver wants every spread below a third of its bound.
BOUND_FLOOR = 0.05
BOUND_CAP = 0.25
SPREADS_PER_BOUND = 3
KEEP_PASSES = 4
# Set-up time is mostly first-touch page faults, which the host decides.
SETUP_BOUND = 0.25


def build():
    """Builds the harness; returns the path of the binary."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(PACKAGE, "target")
    manifest = os.path.join(PACKAGE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build chatter goes to stderr: stdout carries only the run's own lines.
    built = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(f"bench/run.py: building {manifest} failed")
    return os.path.join(target, "release", "perf_ledger")


def run_one(binary, workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs one workload; returns (exit code, parsed result line or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", os.path.join("bench", "out")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last = ""
    for line in proc.stdout:
        if echo:
            sys.stdout.write(line)
            sys.stdout.flush()
        if line.strip():
            last = line
    code = proc.wait()
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    return code, result


def definition(binary):
    return json.loads(subprocess.run([binary, "--definition"], check=True,
                                     stdout=subprocess.PIPE, text=True).stdout)


def fingerprint():
    def first_line(cmd):
        try:
            return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True).stdout.strip().splitlines()[0]
        except (OSError, IndexError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "rustc": first_line(["rustc", "-V"]),
        "git_sha": first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]),
    }


def spread(values):
    """Interquartile distance as a share of the median (the driver's measure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def all_workloads(binary, args):
    failed = False
    for workload in [w["name"] for w in definition(binary)["workloads"]]:
        for trace in (0, 1):
            code, _ = run_one(binary, workload, args.seed, args.seconds, trace, args.smoke)
            failed |= code != 0
    return 1 if failed else 0


def noise(binary, runs):
    """One noise pass: `runs` seeds per workload. Bounds come from the worst
    spread over this pass and the earlier ones kept in noise.json, because
    two passes an hour apart differ by more than either's own spread."""
    spec = definition(binary)
    names = [m["name"] for m in spec["end_to_end"]]
    this_pass = {"runs_per_workload": runs, "seconds": RUN_SECONDS,
                 "fingerprint": fingerprint(), "workloads": {}}
    worst = {name: 0.0 for name in names}
    for workload in [w["name"] for w in spec["workloads"]]:
        samples = {name: [] for name in names}
        for i in range(runs):
            code, result = run_one(binary, workload, DEFAULT_SEED + i, RUN_SECONDS, 0, echo=False)
            if code != 0 or not result or not result["correct"]:
                sys.exit(f"bench/run.py: {workload} seed {DEFAULT_SEED + i} failed: "
                         f"exit {code}, result {result}")
            for name in names:
                samples[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {DEFAULT_SEED + i}: " +
                  " ".join(f"{n}={samples[n][-1]:.6g}" for n in names), flush=True)
        rows = {}
        for name in names:
            q1, med, q3 = statistics.quantiles(samples[name], n=4)
            rows[name] = {"values": samples[name], "q1": q1, "median": med, "q3": q3,
                          "spread": spread(samples[name])}
            worst[name] = max(worst[name], rows[name]["spread"])
        this_pass["workloads"][workload] = rows
    this_pass["worst_spread"] = worst

    path = os.path.join(BASELINE, "noise.json")
    passes = []
    if os.path.exists(path):
        with open(path) as f:
            passes = [p for p in json.load(f).get("passes", [])
                      if sorted(p["worst_spread"]) == sorted(names)]
    passes = (passes + [this_pass])[-KEEP_PASSES:]
    worst_ever = {name: max(p["worst_spread"][name] for p in passes) for name in names}
    bounds = {}
    for name in names:
        bound = SETUP_BOUND if name == "setup_s" else min(
            BOUND_CAP, max(BOUND_FLOOR, SPREADS_PER_BOUND * worst_ever[name]))
        bounds[name] = math.ceil(bound * 100) / 100
    os.makedirs(BASELINE, exist_ok=True)
    with open(path, "w") as f:
        json.dump({"bounds": bounds, "worst_spread": worst_ever, "passes": passes}, f, indent=1)
        f.write("\n")
    write_benchmark_json(spec, bounds)
    for name in names:
        print(f"{name}: worst spread {worst[name]:.4f} this pass, {worst_ever[name]:.4f} "
              f"over {len(passes)} passes -> bound {bounds[name]}")
    return 0


def write_benchmark_json(spec, bounds):
    """BENCHMARK.json: exactly the keys the driver's contract names."""
    benchmark = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": spec["workloads"],
        "end_to_end": [dict(m, bound=bounds[m["name"]]) for m in spec["end_to_end"]],
        "per_layer": spec["per_layer"],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(benchmark, f, indent=1)
        f.write("\n")


def record_baseline(binary):
    spec = definition(binary)
    baseline = {"fingerprint": fingerprint(), "seed": DEFAULT_SEED, "seconds": RUN_SECONDS,
                "frozen": json.loads(subprocess.run([binary, "--frozen"], check=True,
                                                    stdout=subprocess.PIPE, text=True).stdout),
                "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_one(binary, workload, DEFAULT_SEED, RUN_SECONDS, trace)
            if code != 0 or not result:
                sys.exit(f"bench/run.py: {workload} trace {trace} failed")
            entry[key] = result
        baseline["workloads"][workload] = entry
    os.makedirs(BASELINE, exist_ok=True)
    with open(os.path.join(BASELINE, "seed.json"), "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--noise", type=int, metavar="K")
    parser.add_argument("--record-baseline", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    binary = build()
    if args.noise:
        return noise(binary, args.noise)
    if args.record_baseline:
        return record_baseline(binary)
    if args.all:
        return all_workloads(binary, args)
    if not args.workload:
        parser.error("one of --workload, --all, --noise, --record-baseline is required")
    code, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace, args.smoke)
    return code


if __name__ == "__main__":
    sys.exit(main())
