#!/usr/bin/env python3
"""Unit test of tools/perf_ab.py's verdict() over synthetic runs.

    python3 tools/perf_ab_test.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_ab import verdict  # noqa: E402


class VerdictTest(unittest.TestCase):
    def test_steady_move_far_inside_the_bound_is_no_gain(self):
        # replay-s3 peak_rss_mb at one claim seed: 279.8 -> 279.6 MB
        # (-0.07 %), 10/10 wins, parent quartiles 0.1 MB apart. The
        # minimum effect for a 0.1 bound is 1 % of the median.
        parent = [279.7, 279.8, 279.8, 279.9, 279.8,
                  279.7, 279.8, 279.9, 279.8, 279.8]
        change = [279.6] * 10
        wins, call = verdict(parent, change, "lower", 0.1)
        self.assertEqual(wins, 10)
        self.assertEqual(call, "within bound")

    def test_clear_gain(self):
        parent = [18.4e3, 18.6e3, 18.7e3, 18.5e3, 18.6e3,
                  18.8e3, 18.6e3, 18.3e3, 18.6e3, 18.7e3]
        change = [34.0e3, 34.1e3, 34.3e3, 33.9e3, 34.1e3,
                  34.2e3, 34.0e3, 34.1e3, 34.4e3, 34.1e3]
        self.assertEqual(verdict(parent, change, "higher", 0.25),
                         (10, "gain"))

    def test_eight_wins_in_ten_is_no_gain(self):
        parent = [100.0] * 10
        change = [120.0] * 8 + [90.0] * 2
        self.assertEqual(verdict(parent, change, "higher", 0.25),
                         (8, "within bound"))

    def test_nine_pairs_are_too_few(self):
        parent = [100.0] * 9
        change = [150.0] * 9
        wins, call = verdict(parent, change, "higher", 0.25)
        self.assertEqual(wins, 9)
        self.assertNotEqual(call, "gain")

    def test_worse_beyond_the_bound(self):
        parent = [10.0] * 10
        change = [13.0] * 10
        self.assertEqual(verdict(parent, change, "lower", 0.25),
                         (0, "worse"))


if __name__ == "__main__":
    unittest.main()
