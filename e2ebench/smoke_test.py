#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark: runs every workload at tiny size,
untraced and traced, and asserts that the result line has the contract's
shape and every metric name with its unit, that the report names every
pipeline metric, and that BENCHMARK.json (when present) lists the same
metrics as run.py.

    python3 e2ebench/smoke_test.py      # from the repository root
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Every pipeline metric the report prints by name, with its unit.
REPORTED = {
    "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
    "train.label_qps": "queries/s", "train.fit_s": "s",
    "train.cv_mre": "ratio", "serve.p50_us": "us", "serve.p99_us": "us",
    "serve.max_rate_at_slo": "req/s", "serve.overload_goodput": "req/s",
    "learn.records_per_s": "records/s", "learn.predict_p99_us": "us",
    "learn.retrain_visible_ms": "ms", "learn.rss_growth_mb": "MB",
}


def run_tiny(workload, trace):
    cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, "%s trace=%d exited %d" % (
        workload, trace, proc.returncode)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(result, expected, label):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], \
        label + ": keys " + str(sorted(result))
    assert result["correct"] is True, label + ": not correct"
    assert result["attempted"] >= 1, label + ": nothing attempted"
    assert result["failed"] == 0, label + ": %d failed" % result["failed"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(expected), label + ": metric names differ"
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, label + ": unit of " + name
        assert isinstance(metrics[name]["value"], (int, float)), name


def check_benchmark_json():
    path = os.path.join(run.BENCH_DIR, "..", "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {k: v[0] for k, v in run.END_TO_END.items()}, \
        "BENCHMARK.json end_to_end differs from run.py"
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == run.PER_LAYER, "BENCHMARK.json per_layer differs"


def main():
    check_benchmark_json()
    reported = set()
    e2e_units = {k: v[0] for k, v in run.END_TO_END.items()}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            report, result = run_tiny(workload, trace)
            check_result(result, run.PER_LAYER if trace else e2e_units, label)
            for line in report:
                m = re.match(r"\s+(\S+)\s+\S+ (\S+)$", line)
                if m and REPORTED.get(m.group(1)) == m.group(2):
                    reported.add(m.group(1))
            print("ok  " + label)
    missing = sorted(set(REPORTED) - reported)
    assert not missing, "report never printed: " + ", ".join(missing)
    print("ok  every pipeline metric reported with its unit")


if __name__ == "__main__":
    main()
