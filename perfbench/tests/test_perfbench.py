#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/tests/test_perfbench.py          # unit checks + short runs
    python3 perfbench/tests/test_perfbench.py --quick  # unit checks only

Builds perfbench_selftest and runs it against BENCHMARK.json (metric names
and units, the tail-percentile sample rule, a deliberately broken tree
counting as a failure).  Without --quick it also runs every workload briefly,
untraced and traced, and checks that each result line carries exactly the
BENCHMARK.json metrics with their units and reports a correct run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True

import run  # noqa: E402  (perfbench/run.py: build helpers)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "6", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=400)
    assert proc.returncode == 0, "%s trace %d exited %d" % (workload, trace,
                                                           proc.returncode)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, "%s trace %d: metrics differ: %s" % (
        workload, trace, sorted(set(got) ^ set(want)))
    if not trace:
        for name, m in result["metrics"].items():
            assert m["value"] != 0, "%s: end-to-end metric %s is 0" % (workload, name)
    print("ok: %s trace %d" % (workload, trace))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = run.build_dir()
    if not run.build(out_dir, ["perfbench", "perfbench_selftest"]):
        print("build failed", file=sys.stderr)
        return 1
    rc = subprocess.call([os.path.join(out_dir, "perfbench_selftest"),
                          os.path.join(ROOT, "BENCHMARK.json")])
    if rc != 0:
        return rc
    if "--quick" in sys.argv:
        return 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
