#!/usr/bin/env python3
"""Unit tests for tools/check_bench_regression.py's three cell classes.

Time cells ("*_p99", plain names) are scored as shares of the file's
total time, lower is better. Quality cells ("*_pct") and throughput
cells ("*_rps") are higher-is-better and gated absolutely, outside the
time-share normalisation. Run directly: python3 test_check_bench_regression.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tools"))
import check_bench_regression as checker  # noqa: E402


def write_bench(directory, cells, slug="demo"):
    """Writes BENCH_<slug>.json with {(row, column): value} cells."""
    os.makedirs(directory, exist_ok=True)
    payload = {"bench": slug, "cells": [
        {"row": row, "column": column, "mean_ms": value}
        for (row, column), value in cells.items()]}
    with open(os.path.join(directory, f"BENCH_{slug}.json"), "w") as out:
        json.dump(payload, out)


class CellClassTest(unittest.TestCase):
    BASE = {("a", "batched_p99"): 1.0, ("b", "batched_p99"): 1.0,
            ("a", "speedup_pct"): 100.0, ("a", "batched_rps"): 1000.0,
            ("a", "maxbatch1_rps"): 1000.0}

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(self.tmp.name, "baseline")
        write_bench(self.baseline, self.BASE)

    def tearDown(self):
        self.tmp.cleanup()

    def check(self, *runs):
        dirs = []
        for i, changes in enumerate(runs):
            cells = dict(self.BASE)
            cells.update(changes)
            dirs.append(os.path.join(self.tmp.name, f"run{i}"))
            write_bench(dirs[-1], cells)
        return checker.check_bench("demo", [self.baseline], dirs,
                                   threshold=0.10, floor_ms=0.25)

    def test_classes(self):
        self.assertTrue(checker.is_time(("a", "batched_p99")))
        self.assertTrue(checker.is_quality(("a", "speedup_pct")))
        self.assertTrue(checker.is_throughput(("a", "batched_rps")))
        for key in [("a", "speedup_pct"), ("a", "batched_rps")]:
            self.assertFalse(checker.is_time(key))

    def test_only_time_cells_are_normalised(self):
        shares = checker.scores(self.BASE)
        self.assertEqual(set(shares),
                         {("a", "batched_p99"), ("b", "batched_p99")})
        self.assertAlmostEqual(sum(shares.values()), 1.0)

    def test_unchanged_results_pass(self):
        self.assertEqual(self.check({}), [])

    def test_time_share_growth_fails(self):
        failures = self.check({("b", "batched_p99"): 1.5})
        self.assertEqual(len(failures), 1)
        self.assertIn("(b, batched_p99) regressed", failures[0])

    def test_quality_drop_fails_and_rise_passes(self):
        self.assertEqual(self.check({("a", "speedup_pct"): 400.0}), [])
        failures = self.check({("a", "speedup_pct"): 50.0})
        self.assertEqual(len(failures), 1)
        self.assertIn("quality dropped", failures[0])

    def test_throughput_rise_passes(self):
        # As a time share this 4x rise would read as a +60 % regression.
        self.assertEqual(self.check({("a", "batched_rps"): 4000.0}), [])

    def test_throughput_drop_fails(self):
        failures = self.check({("a", "batched_rps"): 800.0})
        self.assertEqual(len(failures), 1)
        self.assertIn("(a, batched_rps) throughput dropped", failures[0])

    def test_runs_merge_to_the_fastest_observation(self):
        # One slow run per class is outvoted by a clean one.
        self.assertEqual(self.check({("a", "batched_rps"): 500.0,
                                     ("b", "batched_p99"): 3.0},
                                    {}), [])
        # A quality score keeps its worst run.
        self.assertEqual(len(self.check({("a", "speedup_pct"): 50.0}, {})),
                         1)


if __name__ == "__main__":
    unittest.main()
