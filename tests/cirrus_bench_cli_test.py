#!/usr/bin/env python3
"""CLI tests for cirrus_bench, the one front end for every bench target.

Target flags reach the target (fig4's positional kernel filter and --csv),
and removed or unknown flags are usage errors (exit 2).

Run via ctest (``cirrus_bench_cli_test``), or directly with the binary in
``CIRRUS_BENCH`` (default: build/examples/cirrus_bench).
"""

import os
import subprocess
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.environ.get("CIRRUS_BENCH",
                       os.path.join(ROOT, "build", "examples", "cirrus_bench"))


def run_bench(*args):
    return subprocess.run([BENCH, *args], capture_output=True, text=True, check=False)


class CirrusBenchCliTest(unittest.TestCase):
    def test_fig4_kernel_filter_writes_csv(self):
        with tempfile.TemporaryDirectory() as tmp:
            r = run_bench("--targets", "fig4", "IS", "--jobs", "2", "--csv", tmp)
            self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
            self.assertEqual(os.listdir(tmp), ["fig4-IS.csv"])
            with open(os.path.join(tmp, "fig4-IS.csv"), encoding="utf-8") as f:
                self.assertIn("vayu", f.readline())

    def test_perf_suite_is_rejected(self):
        r = run_bench("--suite", "perf")
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("unknown suite 'perf'", r.stderr)

    def test_perf_json_is_rejected(self):
        r = run_bench("--perf-json", "x")
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("unknown option --perf-json", r.stderr)

    def test_unknown_flag_is_rejected(self):
        r = run_bench("--bogus")
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("unknown option --bogus", r.stderr)


if __name__ == "__main__":
    unittest.main()
