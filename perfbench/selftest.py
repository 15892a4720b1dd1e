#!/usr/bin/env python3
"""Self-test of the fepia benchmark harness.

Runs every workload in BENCHMARK.json once untraced and once traced at
tiny size (--size tiny, 1 s) and checks that the result line is well
formed: correct is true, nothing failed, and every end-to-end (untraced)
or per-layer (traced) metric of BENCHMARK.json is present, finite and
carries its declared unit. Also checks that the traced run wrote its
Chrome trace. Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        return None, f"exit {done.returncode}: {done.stderr.strip()[-400:]}"
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError) as exc:
        return None, f"no JSON result line ({exc})"


def check(result, declared):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted is not a positive integer")
    if result.get("failed") != 0:
        errors.append(f"failed = {result.get('failed')}")
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"missing metric {m['name']}")
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']} is not a finite number: {value!r}")
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']} unit {got.get('unit')!r}, "
                          f"declared {m['unit']!r}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        errors.append(f"undeclared metrics {sorted(extra)}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    trace_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
        "perfbench", "results")
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            trace_file = os.path.join(trace_dir, f"{workload}.trace.json")
            if os.path.isfile(trace_file):
                os.remove(trace_file)
            result, error = run(workload, trace)
            errors = [error] if error else check(result, declared)
            if trace == 1 and not error and not os.path.isfile(trace_file):
                errors.append(f"no Chrome trace at {trace_file}")
            status = "ok" if not errors else "FAIL"
            print(f"{status:4s} {workload} trace={trace}")
            for e in errors:
                print(f"     {e}")
            failures += bool(errors)
    print("selftest:", "passed" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
