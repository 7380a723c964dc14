#!/usr/bin/env python3
"""check_baselines.py -- guard the committed micro-benchmark baselines.

Compares the fresh BENCH_<bench>.json files the micro benches write (via
bench_json) against the committed bench/<bench>_baseline.json files --
BENCH_*.json itself is gitignored as machine output -- and fails loudly
when a gate breaks:

  * GATES: a guarded counter may move in its bad direction by at most its
    tolerance: serving qps may drop at most 10% (the classic v1 wire path,
    one request per frame, batching off), and the feedback-warmed KDE
    backend's p95 q-error may rise at most 10%.
  * RATIO_GATE: on the fresh run alone, the histogram/KDE-warm p95 q-error
    ratio on the correlated workload must stay >= 2.0 -- the KDE backend's
    reason to exist.

A scenario missing from either file fails too: a renamed or deleted
benchmark silently un-guards its path. Only regressions fail; an
improvement passes and prints its delta so the baseline can be refreshed
in the same change. The KDE fixture is fully seeded, so its q-errors are
deterministic and need no statistical slack.

Usage:
    check_baselines.py --fresh-dir telemetry [--baseline-dir bench]

Exit status: 0 when every gate holds, 1 on a regression or missing data,
2 on usage errors. Stdlib-only on purpose, same as the other scripts/ tools.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# (bench, scenario, counter, better, tolerance): a "higher" counter may
# drop, a "lower" one rise, by at most `tolerance` of its baseline.
GATES = (
    ("net_serving", "BM_NetServing/conns:1/batch:0", "qps", "higher", 0.10),
    ("kde_accuracy", "BM_CorrelatedKdeWarm", "p95_qerror", "lower", 0.10),
    ("kde_accuracy", "BM_TemplatesKdeWarm", "p95_qerror", "lower", 0.10),
)

# (bench, counter, numerator scenario, denominator scenario, minimum ratio),
# checked on the fresh run alone.
RATIO_GATE = ("kde_accuracy", "p95_qerror", "BM_CorrelatedHistogram",
              "BM_CorrelatedKdeWarm", 2.0)


def load_counter(path: str, counter: str) -> dict:
    """Returns {benchmark name: value} for every result carrying
    `counter`."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"check_baselines: cannot read {path}: {e}")
    return {r.get("name", "?"): float(r["counters"][counter])
            for r in doc.get("results", [])
            if counter in r.get("counters", {})}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on benchmark regressions vs the committed "
                    "baselines (see module docstring)")
    parser.add_argument("--fresh-dir", required=True,
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--baseline-dir", default="bench",
                        help="directory holding the committed "
                             "<bench>_baseline.json (default: bench)")
    args = parser.parse_args(argv)

    def counters(bench, counter):
        return (load_counter(os.path.join(args.baseline_dir,
                                          f"{bench}_baseline.json"), counter),
                load_counter(os.path.join(args.fresh_dir,
                                          f"BENCH_{bench}.json"), counter))

    failures = []
    for bench, name, counter, better, tolerance in GATES:
        baseline, fresh = counters(bench, counter)
        missing = [kind for kind, values in (("baseline", baseline),
                                             ("fresh run", fresh))
                   if name not in values]
        if missing:
            failures.append(f"{name}: {counter} not in the {bench} "
                            f"{' or '.join(missing)} -- a missing benchmark "
                            "un-guards its path")
            continue
        base, now = baseline[name], fresh[name]
        sign = -1.0 if better == "higher" else 1.0
        bound = base * (1.0 + sign * tolerance)
        regressed = now < bound if better == "higher" else now > bound
        delta = (now - base) / base * 100.0
        print(f"{name}: {counter} baseline {base:.4g}, fresh {now:.4g} "
              f"({delta:+.1f}%), bound {bound:.4g} -> "
              f"{'REGRESSED' if regressed else 'ok'}")
        if regressed:
            failures.append(f"{name}: {counter} {now:.4g} is {abs(delta):.1f}% "
                            f"worse than the committed {base:.4g} "
                            f"(tolerance {tolerance:.0%})")

    bench, counter, num, den, minimum = RATIO_GATE
    _, fresh = counters(bench, counter)
    if num not in fresh or den not in fresh:
        failures.append(f"fresh {bench} run is missing {num} or {den} -- "
                        "cannot check the correlated win")
    else:
        ratio = fresh[num] / fresh[den] if fresh[den] > 0.0 else float("inf")
        print(f"{num}/{den} {counter}: {fresh[num]:.4g} / {fresh[den]:.4g} = "
              f"{ratio:.2f}x (need >= {minimum:.1f}x) -> "
              f"{'ok' if ratio >= minimum else 'LOST'}")
        if ratio < minimum:
            failures.append(f"correlated-workload win lost: {num}/{den} "
                            f"{counter} ratio {ratio:.2f}x < {minimum:.1f}x")

    for f in failures:
        print(f"check_baselines: FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_baselines: OK ({len(GATES)} gates and the ratio gate hold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
