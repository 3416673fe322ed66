#!/usr/bin/env python3
"""Determinism test of the drsm benchmark.

    python3 perfbench/test_determinism.py

For every workload in BENCHMARK.json, short runs check that
  * the same seed generates the same inputs (input digest) and the same
    exact counts: runtime acc and messages, paper_validate's pass-0
    statistics (seed 1 is also checked against the recorded goldens),
    check_verify's states and transitions;
  * a traced run does the same work as an untraced one (same counts);
  * another seed generates different inputs;
  * no run reports a failed operation.
Exits 1 and lists the failures if any check fails.
"""

import json
import subprocess
import sys

from run import BENCH_DIR, ROOT, build

SEED, OTHER_SEED = 1, 2


def run(binary, workload, seed, trace=False):
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(int(trace)),
         "--goldens", str(BENCH_DIR / "goldens")],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    binary = build()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in config["workloads"]):
        first = run(binary, workload, SEED)
        again = run(binary, workload, SEED)
        traced = run(binary, workload, SEED, trace=True)
        other = run(binary, workload, OTHER_SEED)
        for name, result in (("first", first), ("again", again),
                             ("traced", traced), ("other seed", other)):
            if result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{workload} {name}: {result['failed']} of "
                                f"{result['attempted']} ops failed "
                                f"{result['errors']}")
        if again["input_digest"] != first["input_digest"]:
            failures.append(f"{workload}: same seed, different inputs")
        if again["exact"] != first["exact"]:
            failures.append(f"{workload}: same seed, exact counts "
                            f"{first['exact']} != {again['exact']}")
        if traced["exact"] != first["exact"]:
            failures.append(f"{workload}: tracing changed the exact counts "
                            f"{first['exact']} != {traced['exact']}")
        if other["input_digest"] == first["input_digest"]:
            failures.append(f"{workload}: different seeds, same inputs")
        print(f"{workload}: inputs {first['input_digest']} / "
              f"{other['input_digest']}, exact {first['exact']}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("determinism: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
