#!/usr/bin/env python3
"""Unit tests for manifest_diff.py: the metrics and critpath sections are
diffed under their own tolerance pairs, drift/removal exits 1, agreement 0;
--perf lists targets whose host timings slowed beyond a band and exits 0.

Run directly (``python3 tools/manifest_diff_test.py``) or via ctest
(``manifest_diff_test``). The fixture pair lives in tools/testdata/.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
DIFF = os.environ.get("MANIFEST_DIFF", os.path.join(HERE, "manifest_diff.py"))
DATA = os.path.join(HERE, "testdata")


def run_diff(old, new, *extra):
    return subprocess.run(
        [sys.executable, DIFF, old, new, *extra],
        capture_output=True, text=True, check=False)


def fixture(name):
    return os.path.join(DATA, name)


class ManifestDiffTest(unittest.TestCase):
    def test_identical_manifests_pass(self):
        r = run_diff(fixture("manifest_old.json"), fixture("manifest_old.json"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("0 drifted", r.stdout)

    def test_within_tolerance_passes(self):
        # new_ok nudges gap_CG by <5% rel and every blame fraction by 0.01
        # (< the 0.02 critpath abs floor): both sections must stay green.
        r = run_diff(fixture("manifest_old.json"), fixture("manifest_new_ok.json"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("critpath:", r.stdout)
        self.assertNotIn("DRIFT", r.stdout)

    def test_blame_drift_fails(self):
        # new_drift moves blame.compute 0.10 -> 0.30 and
        # blame.fabric_serialization 0.42 -> 0.22 while the metrics section is
        # unchanged: the critpath tolerance pair alone must trip the gate.
        r = run_diff(fixture("manifest_old.json"), fixture("manifest_new_drift.json"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("DRIFT   critpath ext8/blame.compute[cg.gen2012,64]", r.stdout)
        self.assertNotIn("DRIFT   metrics", r.stdout)

    def test_blame_drift_tolerable_with_wider_tolerance(self):
        r = run_diff(fixture("manifest_old.json"), fixture("manifest_new_drift.json"),
                     "--critpath-abs-tol", "0.25")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_removed_metric_fails(self):
        with open(fixture("manifest_old.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["targets"][0]["metrics"] = doc["targets"][0]["metrics"][1:]
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(doc, fh)
            trimmed = fh.name
        try:
            r = run_diff(fixture("manifest_old.json"), trimmed)
            self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
            self.assertIn("REMOVED metrics", r.stdout)
        finally:
            os.unlink(trimmed)

    def test_removed_critpath_block_fails(self):
        with open(fixture("manifest_old.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["targets"][0]["critpath"]
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(doc, fh)
            trimmed = fh.name
        try:
            r = run_diff(fixture("manifest_old.json"), trimmed)
            self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
            self.assertIn("REMOVED critpath", r.stdout)
        finally:
            os.unlink(trimmed)

    def test_not_a_manifest_exits_2(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            fh.write('{"schema": "something-else/1"}')
            bogus = fh.name
        try:
            r = run_diff(bogus, bogus)
            self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        finally:
            os.unlink(bogus)


def with_host(rows):
    """The old fixture plus a host block of (target, host_ms, events/s) rows."""
    with open(fixture("manifest_old.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["host"] = {"comment": "fixture", "targets": [
        {"target": t, "host_ms": ms, "events_per_sec": evps} for t, ms, evps in rows]}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        return fh.name


class ManifestDiffPerfTest(unittest.TestCase):
    def perf(self, old_rows, new_rows):
        old, new = with_host(old_rows), with_host(new_rows)
        try:
            return run_diff(old, new, "--perf")
        finally:
            os.unlink(old)
            os.unlink(new)

    def test_slowdown_beyond_band_is_listed_but_exits_0(self):
        r = self.perf([("fig4", 1000.0, 2e7), ("fig5", 800.0, 1e7)],
                      [("fig4", 1300.0, 1.54e7), ("fig5", 900.0, 0.89e7)])
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("SLOWER  fig4: host_ms 1000 -> 1300 (+30.0%)", r.stdout)
        self.assertIn("ok      fig5", r.stdout)  # +12.5%: inside the 25% band
        self.assertIn("2 targets compared, 1 slower by more than 25% and 10 ms", r.stdout)

    def test_events_per_second_drop_alone_is_listed(self):
        # Same host_ms, but a third fewer events/s: 50% more time per event.
        r = self.perf([("ext6", 500.0, 3e7)], [("ext6", 500.0, 2e7)])
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("SLOWER  ext6", r.stdout)
        self.assertIn("(-33.3%)", r.stdout)

    def test_few_millisecond_targets_are_not_listed_on_noise(self):
        # Both crossed the band between two runs of the same code: one run's
        # noise at 3-5 ms is more than 25%, but under the 10 ms floor.
        r = self.perf([("fig3", 4.0, 2e7), ("ext7", 3.3, 1e7), ("fig6", 500.0, 1e7)],
                      [("fig3", 5.0, 1.6e7), ("ext7", 6.1, 0.54e7), ("fig6", 700.0, 0.71e7)])
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("ok      fig3: host_ms 4 -> 5 (+25.0%)", r.stdout)
        self.assertIn("ok      ext7: host_ms 3.3 -> 6.1 (+84.8%)", r.stdout)
        self.assertIn("SLOWER  fig6: host_ms 500 -> 700 (+40.0%)", r.stdout)
        self.assertIn("3 targets compared, 1 slower", r.stdout)

    def test_faster_and_unmatched_targets(self):
        r = self.perf([("fig1", 400.0, 1e7), ("tab2", 10.0, 1e6)],
                      [("fig1", 200.0, 2e7), ("ext1", 50.0, 1e6)])
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("ok      fig1: host_ms 400 -> 200 (-50.0%)", r.stdout)
        self.assertIn("only in OLD: tab2", r.stdout)
        self.assertIn("only in NEW: ext1", r.stdout)

    def test_missing_host_block_is_reported_and_exits_0(self):
        r = run_diff(fixture("manifest_old.json"), fixture("manifest_new_drift.json"), "--perf")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("has no host block", r.stdout)
        self.assertNotIn("DRIFT", r.stdout)


if __name__ == "__main__":
    unittest.main()
