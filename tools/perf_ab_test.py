#!/usr/bin/env python3
"""Unit test of tools/perf_ab.py's verdict() and --record over
synthetic runs.

    python3 tools/perf_ab_test.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_ab import record, record_entry, summarize, verdict  # noqa: E402


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


SPEC = {"run_seconds": 10,
        "end_to_end": [
            {"name": "sessions_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
             "bound": 0.1}]}


def run(sessions, rss, digest="7"):
    return {"correct": True, "attempted": 10, "failed": 0, "digest": digest,
            "header": {"compiler": "GNU 12.2.0", "nproc": 4,
                       "hardware_concurrency": 4, "seconds": 10},
            "metrics": {"sessions_per_s": {"value": sessions, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def entry(workload, seed, change_sessions):
    runs = {"parent": [run(100.0 + i, 50.0) for i in range(10)],
            "change": [run(change_sessions + i, 50.0, "8")
                       for i in range(10)]}
    rows = summarize(SPEC, runs, 10)
    return record_entry(workload, seed, {"parent": "a" * 40,
                                         "change": "b" * 40},
                        SPEC, runs, rows)


class RecordTest(unittest.TestCase):
    def test_entry_shape(self):
        e = entry("replay-s3", 42, 150.0)
        self.assertEqual(e["pairs"], 10)
        self.assertEqual((e["parent"], e["change"]), ("a" * 40, "b" * 40))
        self.assertEqual(e["host"], {"compiler": "GNU 12.2.0", "nproc": 4,
                                     "hardware_concurrency": 4,
                                     "run_seconds": 10})
        self.assertEqual(e["placement_digests"],
                         {"parent": ["7"], "change": ["8"]})
        row = e["metrics"]["sessions_per_s"]
        self.assertEqual(set(row), {"unit", "better", "bound", "parent",
                                    "change", "ratio", "wins", "verdict"})
        self.assertEqual(set(row["parent"]), {"median", "q1", "q3"})
        self.assertEqual(row["parent"]["median"], 104.5)
        self.assertEqual((row["wins"], row["verdict"]), (10, "gain"))
        self.assertEqual(e["metrics"]["peak_rss_mb"]["verdict"],
                         "within bound")

    def test_rerecording_replaces_the_entry(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCH_perfbench.json"
            record(path, entry("replay-s3", 42, 150.0))
            record(path, entry("replay-s3", 7, 150.0))
            record(path, entry("replay-s3", 42, 160.0))
            text = path.read_text()
            data = json.loads(text)
            self.assertEqual(sorted(data["entries"]),
                             ["replay-s3 seed 42", "replay-s3 seed 7"])
            latest = data["entries"]["replay-s3 seed 42"]
            self.assertEqual(
                latest["metrics"]["sessions_per_s"]["change"]["median"],
                164.5)
            # Sorted keys: re-writing the same data changes no byte.
            self.assertEqual(text, json.dumps(data, indent=1,
                                              sort_keys=True) + "\n")


if __name__ == "__main__":
    unittest.main()
