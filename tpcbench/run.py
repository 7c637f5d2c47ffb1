#!/usr/bin/env python3
"""Runs one workload of the SF 0.1 benchmark and prints its result.

Run from the root of a checkout:

    python3 tpcbench/run.py --workload throughput|refresh \
        [--seed N] [--seconds S] [--trace 0|1]

The first run builds the engine and the benchmark from source into
.bench_build (CMake, RelWithDebInfo). Every run prints its run record, each
metric with its in-run sample count, quartiles and a flag when the in-run
spread exceeds the metric's bound in BENCHMARK.json, and, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.

Other modes:
    --self-test              build and run the benchmark's own tests
    --record-digests         rewrite the stored answers for the default seed
    --compare A.json B.json  warn where two saved run records differ
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_REL = os.path.relpath(BENCH_DIR)
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
DEFAULT_SEED = 19620718
DIGESTS = os.path.join(BENCH_REL, "digests", "seed-%d.tsv" % DEFAULT_SEED)
RECORD_FIELDS = ("workload", "nproc", "build_type", "sf", "streams",
                 "parallelism", "seed", "revision", "trace")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures once, then brings `target` up to date; output to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_REL, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, target)


def revision():
    """git HEAD when the checkout is a repository, else a digest of the
    engine and benchmark sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", BENCH_REL):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def declared_metrics(trace):
    """(name -> (unit, bound)) from BENCHMARK.json; None when absent."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: (m["unit"], m.get("bound")) for m in spec[key]}


def compare_records(a, b, fields=RECORD_FIELDS):
    return ["%s: %s vs %s" % (f, a.get(f), b.get(f))
            for f in fields if a.get(f) != b.get(f)]


def print_steadiness(result, declared):
    print("%-26s %14s %-6s %4s %14s %14s %7s %6s" %
          ("metric", "value", "unit", "n", "q1", "q3", "spread", "bound"))
    flagged = []
    for name, m in result["metrics"].items():
        s = result["steadiness"][name]
        bound = declared.get(name, (None, None))[1] if declared else None
        spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
        flag = ""
        if bound is not None and s["n"] > 1 and spread > bound:
            flag = "  UNSTEADY"
            flagged.append(name)
        print("%-26s %14.6g %-6s %4d %14.6g %14.6g %6.1f%% %6s%s" %
              (name, m["value"], m["unit"], s["n"], s["q1"], s["q3"],
               100.0 * spread, "-" if bound is None else "%g" % bound, flag))
    if flagged:
        print("warning: in-run spread above bound for " + ", ".join(flagged))


def run_workload(args):
    binary = build("tpcbench")
    if binary is None:
        log("build failed")
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--digests", DIGESTS,
           "--revision", revision()]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("workload failed (exit %d)" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    declared = declared_metrics(args.trace == 1)
    if declared is not None:
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        want = {n: u for n, (u, _) in declared.items()}
        if got != want:
            log("metrics do not match BENCHMARK.json: got %s, declared %s" %
                (sorted(got.items()), sorted(want.items())))
            return 1

    record = result["record"]
    print("run record: " + " ".join("%s=%s" % (f, record[f])
                                    for f in RECORD_FIELDS))
    print("wall time: %.1f s" % (time.monotonic() - started))
    print_steadiness(result, declared)
    saved = os.path.join(OUT_DIR, "record-%s-trace%d.json" %
                         (args.workload, args.trace))
    if os.path.exists(saved):
        with open(saved) as f:
            previous = json.load(f)["record"]
        # Runs of a set use different seeds; anything else must match.
        diffs = compare_records(previous, record,
                                [f for f in RECORD_FIELDS if f != "seed"])
        if diffs:
            print("warning: this run differs from the previous one in "
                  + "; ".join(diffs))
    with open(saved, "w") as f:
        json.dump(result, f)

    out = {"correct": bool(result["correct"]),
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": result["metrics"]}
    print(json.dumps(out))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["throughput", "refresh"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args()

    if args.compare:
        records = []
        for path in args.compare:
            with open(path) as f:
                records.append(json.load(f)["record"])
        diffs = compare_records(*records)
        for d in diffs:
            print("warning: runs differ in " + d)
        if not diffs:
            print("run records match")
        return 0
    if args.self_test:
        binary = build("tpcbench_test")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if args.record_digests:
        binary = build("tpcbench")
        if binary is None:
            return 1
        return subprocess.run([binary, "--record-digests", DIGESTS]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
