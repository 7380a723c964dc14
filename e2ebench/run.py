#!/usr/bin/env python3
"""End-to-end QPP benchmark: one command for the train, serve and learn
pipelines (see README.md in this directory).

    python3 e2ebench/run.py --workload train_tpch|serve_open|learn_mixed \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. Builds the qpp libraries and the benchmark
driver into .bench_build (CMake, incremental), runs one workload, prints a
human-readable report, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end set, with --trace 1 the per-layer set (the traced run is
preceded by an untraced one, so tracing overhead can be reported).
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BINARY = os.path.join(BUILD_DIR, "qpp_e2ebench")
CORPUS = os.path.join(BENCH_DIR, "corpus", "tpch_sf0.01_q30_op14.log")
WORKLOADS = ("train_tpch", "serve_open", "learn_mixed")

# End-to-end metrics: contract name -> (unit, {workload: driver metric}).
# Each workload fills every slot with its own pipeline's measurement.
END_TO_END = {
    "setup_s": ("s", {w: "setup_s" for w in WORKLOADS}),
    "peak_rss_mb": ("MB", {
        "train_tpch": "peak_rss_mb",
        "serve_open": "serve.peak_rss_mb",
        "learn_mixed": "peak_rss_mb",
    }),
    "throughput": ("1/s", {
        "train_tpch": "train.label_qps",
        "serve_open": "serve.requests_per_cpu_s",
        "learn_mixed": "learn.records_per_s",
    }),
}

LAYERS = ("tpch", "catalog", "optimizer", "exec", "storage", "workload", "ml",
          "qpp", "serve", "net", "card", "kde", "bench", "idle")
PLAN_OPS = ("SeqScan", "IndexScan", "Filter", "Project", "NestedLoop",
            "HashJoin", "MergeJoin", "Sort", "Materialize", "HashAggregate",
            "GroupAggregate", "Limit")

# Per-layer metrics (traced run): name -> unit. A metric a workload does not
# measure reports 0 there. The last group holds the pipelines' unbounded
# figures (README.md, "Reported metrics").
PER_LAYER = dict(
    [("tpch.dbgen_ms", "ms"), ("catalog.analyze_ms", "ms"),
     ("optimizer.plan_ms", "ms"), ("optimizer.plan_total_ms", "ms"),
     ("optimizer.plan_learned_ms", "ms"), ("exec.execute_ms", "ms"),
     ("exec.execute_total_ms", "ms")] +
    [("exec.self_ms." + op, "ms") for op in PLAN_OPS] +
    [("exec.tuples_per_s", "tuples/s"),
     ("storage.pool_misses_per_query", "count"),
     ("workload.record_ms", "ms"), ("qpp.features_ms", "ms"),
     ("qpp.train_ms.plan", "ms"), ("qpp.train_ms.operator", "ms"),
     ("qpp.train_ms.hybrid", "ms"), ("qpp.predict_us", "us"),
     ("ml.cv_ms", "ms"), ("serve.bundle_save_ms", "ms"),
     ("serve.bundle_load_ms", "ms"), ("serve.predict_p50_us", "us"),
     ("serve.observe_us", "us"), ("serve.retrain_ms", "ms"),
     ("serve.retrains_published", "count"), ("net.decode_us", "us"),
     ("net.server_p99_us", "us"), ("net.batch_mean", "requests"),
     ("net.shed_overload", "count"), ("card.harvest_us", "us"),
     ("card.snapshots_published", "count"), ("card.learned_share", "ratio"),
     ("kde.harvest_us", "us"), ("kde.snapshots_published", "count"),
     ("trace.throughput_overhead", "ratio")] +
    [(layer + ".self_ms", "ms") for layer in LAYERS] +
    [(layer + ".share", "ratio") for layer in LAYERS] +
    [("train.label_p50_us", "us"), ("train.label_tail_us", "us"),
     ("train.fit_s", "s"), ("train.cv_mre", "ratio"),
     ("serve.p50_us", "us"), ("serve.p99_us", "us"),
     ("serve.ref_p50_us", "us"), ("serve.cold_start_ms", "ms"),
     ("serve.max_rate_at_slo", "req/s"), ("serve.overload_goodput", "req/s"),
     ("serve.lateness_p99_us", "us"), ("serve.served_mre", "ratio"),
     ("learn.predict_p50_us", "us"), ("learn.predict_p99_us", "us"),
     ("learn.retrain_visible_ms", "ms"), ("learn.rss_growth_mb", "MB"),
     ("learn.episode_mre", "ratio")])


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src",
                                       "CMakeLists.txt")):
        fail("qpp sources (src/) not found next to the benchmark")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        fail("build failed")


def run_driver(args, trace):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--out-dir", OUT_DIR, "--corpus", CORPUS]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return json.loads(lines[-1])


def end_to_end(raw, workload):
    out = {}
    for name, (unit, sources) in END_TO_END.items():
        metric = raw["metrics"].get(sources[workload])
        out[name] = {"value": metric["value"] if metric else None,
                     "unit": unit}
    return out


def per_layer(raw, untraced_e2e, traced_e2e):
    measured = dict(raw["layer_metrics"], **raw["metrics"])
    out = {}
    for name, unit in PER_LAYER.items():
        value = measured[name]["value"] if name in measured else 0.0
        out[name] = {"value": value, "unit": unit}
    base = untraced_e2e["throughput"]["value"]
    traced = traced_e2e["throughput"]["value"]
    out["trace.throughput_overhead"]["value"] = (
        (base - traced) / base if base and traced is not None else None)
    return out


def fmt(value):
    return "n/a" if value is None else "%.6g" % value


def print_report(raw, e2e):
    print("== %s: %d checks, %s" % (
        raw["workload"], raw["checks"],
        "all passed" if raw["correct"] else
        "FAILED: " + "; ".join(raw["check_failures"])))
    for note in raw["notes"]:
        print("  " + note)
    print("  attempted %d, failed %d (fail_ratio %.6g)" % (
        raw["attempted"], raw["failed"],
        raw["failed"] / max(1, raw["attempted"])))
    print("  measured:")
    for name, m in raw["metrics"].items():
        print("    %-32s %14s %s" % (name, fmt(m["value"]), m["unit"]))
    print("  end-to-end:")
    for name, m in e2e.items():
        print("    %-32s %14s %s" % (name, fmt(m["value"]), m["unit"]))


def print_layer_table(raw):
    lm = raw["layer_metrics"]
    wall = lm["trace.wall_ms"]["value"]
    total = lm["trace.self_sum_ms"]["value"]
    print("  per-layer self time (traced wall %.1f ms, self sum %.1f ms):" %
          (wall, total))
    print("    %-10s %12s %10s %8s" % ("layer", "self_ms", "calls", "share"))
    for layer in LAYERS:
        print("    %-10s %12.1f %10d %7.2f%%" % (
            layer, lm[layer + ".self_ms"]["value"],
            lm[layer + ".calls"]["value"],
            100.0 * lm[layer + ".share"]["value"]))
    return wall > 0 and abs(total - wall) <= 0.02 * wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes that run every stage (smoke)")
    args = parser.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    raw = run_driver(args, trace=False)
    e2e = end_to_end(raw, args.workload)
    print_report(raw, e2e)
    correct = raw["correct"]
    attempted, failed = raw["attempted"], raw["failed"]
    metrics = e2e
    if args.trace:
        traced = run_driver(args, trace=True)
        traced_e2e = end_to_end(traced, args.workload)
        print("== traced run (tracing overhead = traced vs untraced):")
        for name, m in traced_e2e.items():
            base = e2e[name]["value"]
            delta = ("%+.1f%%" % (100.0 * (m["value"] - base) / base)
                     if base and m["value"] is not None else "n/a")
            print("    %-32s %14s %s (%s)" % (name, fmt(m["value"]),
                                            m["unit"], delta))
        accounted = print_layer_table(traced)
        if not accounted:
            print("  per-layer self times do not add up to the wall time")
        correct = correct and traced["correct"] and accounted
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = per_layer(traced, e2e, traced_e2e)
    for name, m in metrics.items():
        if m["value"] is None or not math.isfinite(m["value"]):
            print("  metric %s was not measured" % name)
            correct = False
            m["value"] = 0.0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
