#!/usr/bin/env python3
"""Entry point of the drsm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The script builds perfbench/ (which
compiles the drsm library from src/) into .bench_build/, runs one
workload in its own process, and prints a summary followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
report the end-to-end metrics of BENCHMARK.json, traced runs its
per-layer metrics plus the tracing overhead.

A traced run first runs the workload untraced with the same seed, the
two sharing the run's seconds half and half; trace.* compares them.

Every run appends a record to .bench_build/runs/<workload>.jsonl with the
seed, thread counts, nproc, compiler, build type, commit (when the
checkout is a git repository), a digest of the sources, the host steal
ticks that accrued while the workload ran, and the time of a fixed-work
host-speed probe taken before and after it (diagnostics.host_probe_ms_*):
sets of runs made while the host ran faster or slower show there.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "drsm_perfbench"
RUNS_DIR = BUILD_ROOT / "runs"
TRACES_DIR = BUILD_ROOT / "traces"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"drsm sources not found under {ROOT / 'src'}")
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" \
            not in cache.read_text():
        cache.unlink()  # configured for another checkout
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return BINARY


def run_workload(binary, workload, seed, seconds, trace):
    """Runs the benchmark program once; returns its parsed result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--goldens", str(BENCH_DIR / "goldens")]
    if trace:
        TRACES_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--out", str(TRACES_DIR)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def source_digest():
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    # Only the checkout's own repository: git would otherwise search the
    # parent directories.
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def append_record(workload, record):
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RUNS_DIR / f"{workload}.jsonl", "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "workloads.json").read_text())
    if args.workload not in {w["name"] for w in config["workloads"]}:
        raise BenchError(f"unknown workload {args.workload}")

    binary = build()
    host = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    # A traced run is preceded by an untraced one with the same seed, its
    # baseline for the tracing overhead; each takes half of the seconds.
    seconds = args.seconds / 2 if args.trace else args.seconds
    base = (run_workload(binary, args.workload, args.seed, seconds, False)
            if args.trace else None)
    result = run_workload(binary, args.workload, args.seed, seconds,
                          bool(args.trace))
    metrics = result["metrics"]
    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    if args.trace:
        result["untraced_baseline"] = base
        for count in ("attempted", "failed"):
            result[count] += base[count]
        for name, ratio in (("ops_per_s", "trace.ops_per_s_ratio"),
                            ("op_latency_p50_us", "trace.latency_p50_ratio")):
            metrics[ratio] = {"value": metrics.pop(name)["value"]
                              / base["metrics"][name]["value"],
                              "unit": "ratio"}
        # A layer the workload does not exercise reports zero work.
        measured_on = {m["name"]: m["workloads"]
                       for m in layers["per_layer"]}
        for m in wanted:
            if m["name"] in metrics:
                continue
            if args.workload in measured_on.get(m["name"], []):
                raise BenchError(f"{m['name']} missing on {args.workload}")
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError("metrics missing: " + ", ".join(missing))

    record = dict(result, **host)
    append_record(args.workload, record)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"threads={result['threads']} steal_ticks={result['steal_ticks']}")
    print(f"  error_ratio {result['error_ratio']:.6g} ratio "
          f"({int(result['failed'])} of {int(result['attempted'])} ops)")
    for error in result["errors"]:
        print(f"  error: {error}")
    if "acc" in result["diagnostics"]:
        print(f"  acc {result['diagnostics']['acc']:.9g} cost/op")
    for m in wanted:
        value = metrics[m["name"]]
        print(f"  {m['name']} {value['value']:.6g} {value['unit']}")
    out = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] >= 1,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
