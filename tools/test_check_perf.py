#!/usr/bin/env python3
"""Unit tests for the check_perf.py regression gate (run as a ctest step).

The gate guards CI, so the gate itself needs tests: a gate that silently
passes regressions is worse than no gate.  Each test drives the script as a
subprocess -- exactly how CI invokes it -- against synthetic baseline/fresh
JSON pairs and asserts on the exit code and the printed verdict.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK_PERF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "check_perf.py")


def schema2(entries):
    """entries: list of (cells, users, provider, sim_threads, fps)."""
    scales = {}
    for cells, users, provider, threads, fps in entries:
        scale = scales.setdefault((cells, users), {
            "cells": cells, "users": users, "frames": 100, "entries": []})
        scale["entries"].append(
            {"provider": provider, "sim_threads": threads, "fps": fps})
    return {"scales": [scales[k] for k in sorted(scales)]}


def latency(rate, p99, **overrides):
    doc = {"bench": "decision_latency", "v": 1, "scenario": "hotspot",
           "policy": "jaba-sd", "provider": "exhaustive", "seed": 42,
           "frames": 1000, "decisions": 300, "decision_time_s": 1e-3,
           "decisions_per_s": rate, "frame_mean_us": 1.0,
           "frame_p50_us": 0.2, "frame_p99_us": p99}
    doc.update(overrides)
    return doc


class CheckPerfTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def _write(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def _run(self, baseline, fresh, *extra):
        base_path = self._write("baseline.json", baseline)
        fresh_path = self._write("fresh.json", fresh)
        return subprocess.run(
            [sys.executable, CHECK_PERF, base_path, fresh_path, *extra],
            capture_output=True, text=True)

    # --- frames/sec schema-2 gate ---

    def test_identical_runs_pass(self):
        doc = schema2([(19, 100, "exhaustive", 1, 500.0)])
        result = self._run(doc, doc)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("all entries within tolerance", result.stdout)

    def test_regression_beyond_tolerance_fails(self):
        base = schema2([(19, 100, "exhaustive", 1, 500.0)])
        fresh = schema2([(19, 100, "exhaustive", 1, 300.0)])  # -40% > 20%
        result = self._run(base, fresh)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("REGRESSED", result.stdout)

    def test_regression_within_custom_tolerance_passes(self):
        base = schema2([(19, 100, "exhaustive", 1, 500.0)])
        fresh = schema2([(19, 100, "exhaustive", 1, 300.0)])
        result = self._run(base, fresh, "--tolerance", "0.5")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_entry_missing_from_fresh_fails(self):
        base = schema2([(19, 100, "exhaustive", 1, 500.0),
                        (19, 100, "culled", 1, 800.0)])
        fresh = schema2([(19, 100, "exhaustive", 1, 500.0)])
        result = self._run(base, fresh)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("missing from fresh run", result.stdout)

    def test_new_fresh_entry_passes(self):
        base = schema2([(19, 100, "exhaustive", 1, 500.0)])
        fresh = schema2([(19, 100, "exhaustive", 1, 500.0),
                         (127, 1000, "culled", 1, 200.0)])
        result = self._run(base, fresh)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("new entry", result.stdout)

    def test_schema1_baseline_fallback(self):
        base = {"cells": 19, "users": 100,
                "providers": {"exhaustive": 500.0}}
        fresh = schema2([(19, 100, "exhaustive", 1, 495.0)])
        result = self._run(base, fresh)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_unrecognised_schema_is_an_error(self):
        result = self._run({"nonsense": True},
                           schema2([(19, 100, "exhaustive", 1, 1.0)]))
        self.assertNotEqual(result.returncode, 0)

    def test_frame_split_keys_do_not_change_the_verdict(self):
        # perf_smoke's sim_threads=1 rows carry refresh_frame_ms and
        # plain_frame_ms (null when a provider never refreshes).  The gate
        # reads fps only: every verdict and every printed line must be the
        # same as for the file without them.
        base = schema2([(19, 100, "culled", 1, 500.0),
                        (127, 400, "culled", 1, 100.0),
                        (19, 100, "exhaustive", 1, 400.0)])
        gates = ("--cost-scaling", "culled:19:127:1.3",
                 "--ratio", "culled:exhaustive:1.0")
        verdicts = []
        for culled_fps in (500.0, 300.0):
            plain = schema2([(19, 100, "culled", 1, culled_fps),
                             (127, 400, "culled", 1, 100.0),
                             (19, 100, "exhaustive", 1, 400.0)])
            split = json.loads(json.dumps(plain))
            for scale in split["scales"]:
                for e in scale["entries"]:
                    refresh = None if e["provider"] == "exhaustive" else 1.9
                    e.update(refresh_frame_ms=refresh, plain_frame_ms=0.9)
            without = self._run(base, plain, *gates)
            with_keys = self._run(base, split, *gates)
            self.assertEqual(with_keys.stdout, without.stdout)
            self.assertNotIn("Traceback", with_keys.stderr)
            verdicts.append((with_keys.returncode, without.returncode))
        # 300 f/s regresses the 19c culled floor and the culled:exhaustive
        # ratio; 500 f/s passes every gate.
        self.assertEqual(verdicts, [(0, 0), (1, 1)])

    # --- provider/ratio/cost gates ---

    def test_require_provider_missing_fails(self):
        doc = schema2([(19, 100, "exhaustive", 1, 500.0)])
        result = self._run(doc, doc, "--require-provider", "fast")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("required provider 'fast'", result.stdout)

    def test_ratio_floor_enforced(self):
        doc = schema2([(19, 100, "fast", 1, 1000.0),
                       (19, 100, "culled", 1, 900.0)])
        ok = self._run(doc, doc, "--ratio", "fast:culled:1.05")
        self.assertEqual(ok.returncode, 0, ok.stdout)
        bad = self._run(doc, doc, "--ratio", "fast:culled:1.5")
        self.assertEqual(bad.returncode, 1, bad.stdout)
        self.assertIn("ratio", bad.stdout)

    def test_ratio_with_no_common_scale_fails(self):
        doc = schema2([(19, 100, "fast", 1, 1000.0)])
        result = self._run(doc, doc, "--ratio", "fast:culled:1.0")
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_zero_fps_entry_fails_attributed(self):
        # A crashed/truncated smoke run records 0 f/s; the gate must name
        # the exact row instead of letting it slide through the floors.
        base = schema2([(19, 100, "fast", 1, 1000.0)])
        fresh = schema2([(19, 100, "fast", 1, 0.0)])
        result = self._run(base, fresh, "--tolerance", "0.99")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("19c/100u fast t1: recorded 0 f/s", result.stdout)
        self.assertIn("crashed or truncated", result.stdout)

    def test_ratio_with_zero_denominator_fails_without_crash(self):
        # Before the fix the ratio gate divided into a zero denominator's
        # guard branch and reported ratio 0.00 < floor -- true but
        # unattributed; a zero NUMERATOR passed outright when floor <= 0.
        # Both sides must now fail with the 0 f/s row named and no
        # Traceback.
        doc = schema2([(19, 100, "fast", 1, 1000.0),
                       (19, 100, "culled", 1, 0.0)])
        result = self._run(doc, doc, "--ratio", "fast:culled:0.0")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("ratio unavailable", result.stdout)
        self.assertNotIn("Traceback", result.stderr + result.stdout)

    def test_cost_scaling_cap_enforced(self):
        # per-user cost = 1/(fps*users): base 1/(500*100), big 1/(100*400)
        # -> ratio 1.25.
        doc = schema2([(19, 100, "culled", 1, 500.0),
                       (127, 400, "culled", 1, 100.0)])
        ok = self._run(doc, doc, "--cost-scaling", "culled:19:127:1.3")
        self.assertEqual(ok.returncode, 0, ok.stdout)
        bad = self._run(doc, doc, "--cost-scaling", "culled:19:127:1.2")
        self.assertEqual(bad.returncode, 1, bad.stdout)
        self.assertIn("per-user cost", bad.stdout)

    # --- decision-latency schema (PR 7) ---

    def test_latency_identical_passes(self):
        doc = latency(200000.0, 10.0)
        result = self._run(doc, doc)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("decision-latency bench within tolerance", result.stdout)

    def test_latency_rate_regression_fails(self):
        result = self._run(latency(200000.0, 10.0), latency(100000.0, 10.0))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("decisions/s", result.stdout)

    def test_latency_p99_regression_fails(self):
        result = self._run(latency(200000.0, 10.0), latency(200000.0, 20.0))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("p99", result.stdout)

    def test_latency_within_tolerance_passes(self):
        result = self._run(latency(200000.0, 10.0), latency(170000.0, 11.5))
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_latency_fingerprint_mismatch_fails(self):
        result = self._run(latency(200000.0, 10.0),
                           latency(200000.0, 10.0, scenario="wide"))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("fingerprint mismatch", result.stdout)

    def test_mixed_schemas_are_an_error(self):
        result = self._run(latency(200000.0, 10.0),
                           schema2([(19, 100, "exhaustive", 1, 500.0)]))
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("cannot be compared", result.stderr + result.stdout)


if __name__ == "__main__":
    unittest.main()
