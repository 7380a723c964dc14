#!/usr/bin/env python3
"""Unit tests for scripts/check_baselines.py: one passing and one failing
case per gate, plus a scenario missing from either file. Stdlib-only."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest

_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "scripts", "check_baselines.py")
_spec = importlib.util.spec_from_file_location("check_baselines", _SCRIPT)
check_baselines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_baselines)

NET = "BM_NetServing/conns:1/batch:0"
KDE_WARM = "BM_CorrelatedKdeWarm"
TEMPLATES_WARM = "BM_TemplatesKdeWarm"
HIST = "BM_CorrelatedHistogram"

BASE_NET = {NET: 1000.0}
BASE_KDE = {KDE_WARM: 2.0, TEMPLATES_WARM: 100.0, HIST: 10.0}


def write_bench(path: str, counter: str, values: dict) -> None:
    results = [{"name": name, "counters": {counter: value}}
               for name, value in values.items()]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"bench": "test", "results": results}, f)


class CheckBaselinesTest(unittest.TestCase):
    def run_guard(self, fresh_net=None, fresh_kde=None, base_net=None,
                  base_kde=None) -> int:
        """Runs the guard on the baselines above with the given overrides
        (a value of None removes that scenario from its file)."""
        def merged(base, overrides):
            out = dict(base)
            for name, value in (overrides or {}).items():
                if value is None:
                    out.pop(name, None)
                else:
                    out[name] = value
            return out

        with tempfile.TemporaryDirectory() as d:
            base_dir = os.path.join(d, "bench")
            fresh_dir = os.path.join(d, "fresh")
            os.makedirs(base_dir)
            os.makedirs(fresh_dir)
            write_bench(os.path.join(base_dir, "net_serving_baseline.json"),
                        "qps", merged(BASE_NET, base_net))
            write_bench(os.path.join(base_dir, "kde_accuracy_baseline.json"),
                        "p95_qerror", merged(BASE_KDE, base_kde))
            write_bench(os.path.join(fresh_dir, "BENCH_net_serving.json"),
                        "qps", merged(BASE_NET, fresh_net))
            write_bench(os.path.join(fresh_dir, "BENCH_kde_accuracy.json"),
                        "p95_qerror", merged(BASE_KDE, fresh_kde))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return check_baselines.main(["--baseline-dir", base_dir,
                                             "--fresh-dir", fresh_dir])

    def test_unchanged_run_passes(self):
        self.assertEqual(self.run_guard(), 0)

    def test_net_qps_may_drop_at_most_ten_percent(self):
        self.assertEqual(self.run_guard(fresh_net={NET: 905.0}), 0)
        self.assertEqual(self.run_guard(fresh_net={NET: 895.0}), 1)

    def test_correlated_kde_p95_may_rise_at_most_ten_percent(self):
        self.assertEqual(self.run_guard(fresh_kde={KDE_WARM: 2.19}), 0)
        self.assertEqual(self.run_guard(fresh_kde={KDE_WARM: 2.21}), 1)

    def test_templates_kde_p95_may_rise_at_most_ten_percent(self):
        self.assertEqual(self.run_guard(fresh_kde={TEMPLATES_WARM: 109.0}), 0)
        self.assertEqual(self.run_guard(fresh_kde={TEMPLATES_WARM: 111.0}), 1)

    def test_correlated_win_must_stay_at_least_two_x(self):
        # The ratio reads the fresh run only: histogram p95 over KDE-warm.
        self.assertEqual(self.run_guard(fresh_kde={HIST: 4.1}), 0)
        self.assertEqual(self.run_guard(fresh_kde={HIST: 3.9}), 1)

    def test_scenario_missing_from_either_file_fails(self):
        self.assertEqual(self.run_guard(fresh_net={NET: None}), 1)
        self.assertEqual(self.run_guard(base_net={NET: None}), 1)
        self.assertEqual(self.run_guard(base_kde={TEMPLATES_WARM: None}), 1)
        self.assertEqual(self.run_guard(fresh_kde={HIST: None}), 1)


if __name__ == "__main__":
    unittest.main()
