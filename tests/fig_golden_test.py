#!/usr/bin/env python3
"""Pins the paper-figure outputs: runs fig4_subplans .. fig9_dynamic on a
temporary copy of the committed qpp_cache/ at the default scale and query
settings and compares each stdout with tests/testdata/<fig>.golden.

Usage: fig_golden_test.py BENCH_DIR   (the build's bench/ directory)

The echoed cache path is replaced by a fixed token. A cache miss fails the
test at once: the bench is killed when it announces "executing workload",
so the test never executes queries or writes labels, and the committed
cache is never opened for writing. QPP_REGEN_GOLDEN=1 rewrites the goldens
instead, as tests/golden.h does for the C++ suites. Stdlib-only.
"""

from __future__ import annotations

import difflib
import glob
import os
import shutil
import subprocess
import sys
import tempfile

FIGS = ["fig4_subplans", "fig5_cost_model", "fig6_static", "fig7_estimates",
        "fig8_strategies", "fig9_dynamic"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTDATA = os.path.join(ROOT, "tests", "testdata")
CACHE_TOKEN = "<qpp_cache>"


def run_fig(binary: str, cache_dir: str) -> tuple[str | None, str]:
    """Returns (stdout with the cache path tokenized, error message)."""
    env = dict(os.environ, QPP_CACHE_DIR=cache_dir)
    for knob in ("QPP_SF_SMALL", "QPP_SF_LARGE", "QPP_QUERIES"):
        env.pop(knob, None)
    proc = subprocess.Popen([binary], stdout=subprocess.PIPE, env=env,
                            cwd=cache_dir, text=True)
    lines = []
    for line in proc.stdout:
        if "executing workload" in line:
            proc.kill()
            proc.wait()
            return None, "cache miss: " + line.strip()
        lines.append(line.replace(cache_dir, CACHE_TOKEN))
    status = proc.wait()
    if status != 0:
        return None, f"exit status {status}"
    return "".join(lines), ""


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench_dir = os.path.abspath(sys.argv[1])
    regen = os.environ.get("QPP_REGEN_GOLDEN") is not None
    failures = 0
    with tempfile.TemporaryDirectory(prefix="qpp_fig_golden_") as cache_dir:
        for log in glob.glob(os.path.join(ROOT, "qpp_cache", "*.log")):
            shutil.copy(log, cache_dir)
        for fig in FIGS:
            out, error = run_fig(os.path.join(bench_dir, fig), cache_dir)
            golden_path = os.path.join(TESTDATA, fig + ".golden")
            if out is None:
                print(f"FAIL {fig}: {error}")
                failures += 1
                continue
            if regen:
                with open(golden_path, "w", encoding="utf-8") as f:
                    f.write(out)
                print(f"regenerated {golden_path}")
                continue
            try:
                with open(golden_path, encoding="utf-8") as f:
                    golden = f.read()
            except FileNotFoundError:
                print(f"FAIL {fig}: missing {golden_path}")
                failures += 1
                continue
            if out != golden:
                print(f"FAIL {fig}: stdout differs from {golden_path}")
                sys.stdout.writelines(difflib.unified_diff(
                    golden.splitlines(keepends=True),
                    out.splitlines(keepends=True), "golden", "stdout"))
                failures += 1
            else:
                print(f"ok   {fig}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
