#!/usr/bin/env python3
"""Self-test of the benchmark's statistics and comparison rules.

    python3 perfbench/selftest.py

Covers the median and quartiles, the choice of the op_ms_tail percentile,
and compare.py's refusal to pair results whose fingerprints differ.  Needs
no build.
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402
import compare  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            benchstats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(benchstats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = benchstats.quartiles(values)
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertAlmostEqual(benchstats.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(benchstats.spread([5.0] * 10), 0.0)


class TailPercentile(unittest.TestCase):
    def test_highest_ladder_step_with_ten_beyond(self):
        self.assertEqual(benchstats.tail_percentile(10000), 99.9)
        self.assertEqual(benchstats.tail_percentile(9999), 99.0)
        self.assertEqual(benchstats.tail_percentile(1000), 99.0)
        self.assertEqual(benchstats.tail_percentile(999), 95.0)
        self.assertEqual(benchstats.tail_percentile(200), 95.0)
        self.assertEqual(benchstats.tail_percentile(100), 90.0)
        self.assertEqual(benchstats.tail_percentile(40), 75.0)
        self.assertEqual(benchstats.tail_percentile(39), 50.0)
        self.assertEqual(benchstats.tail_percentile(20), 50.0)
        self.assertIsNone(benchstats.tail_percentile(19))

    def test_every_choice_leaves_ten_beyond(self):
        for n in range(20, 3000):
            p = benchstats.tail_percentile(n)
            self.assertGreaterEqual(benchstats.samples_beyond(n, p), 10)
            higher = [q for q in benchstats.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(benchstats.samples_beyond(n, q), 10)

    def test_tail_value_is_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        p, value, n = benchstats.tail(values)
        self.assertEqual((p, value, n), (90.0, 90, 100))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_too_few_samples_raise(self):
        with self.assertRaises(ValueError):
            benchstats.tail([1.0] * 19)


def result(**overrides):
    base = {"workload": "fleet", "seed": 3, "config_fingerprint": "c0ffee",
            "host_fingerprint": "beef", "metrics": {
                "slots_per_s": {"value": 100.0, "unit": "slots/s"}}}
    base.update(overrides)
    return base


class FingerprintRefusal(unittest.TestCase):
    def test_fingerprint_is_order_independent(self):
        self.assertEqual(benchstats.fingerprint({"a": 1, "b": 2}),
                         benchstats.fingerprint({"b": 2, "a": 1}))
        self.assertNotEqual(benchstats.fingerprint({"a": 1}),
                            benchstats.fingerprint({"a": 2}))

    def test_equal_fingerprints_compare(self):
        benchstats.require_comparable(result(), result())

    def test_each_mismatch_is_refused(self):
        for key, value in (("config_fingerprint", "other"),
                           ("host_fingerprint", "other"),
                           ("seed", 4), ("workload", "paper-grid")):
            with self.subTest(key=key):
                with self.assertRaises(benchstats.FingerprintMismatch):
                    benchstats.require_comparable(result(),
                                                  result(**{key: value}))

    def test_compare_refuses_a_mismatched_pair(self):
        base = [result(seed=s) for s in range(3)]
        change = [result(seed=s) for s in range(3)]
        change[1]["host_fingerprint"] = "another-host"
        with self.assertRaises(benchstats.FingerprintMismatch):
            compare.pair(base, change)

    def test_compare_pairs_by_workload_and_seed(self):
        base = [result(seed=s) for s in range(3)]
        change = [result(seed=s) for s in reversed(range(3))]
        pairs = compare.pair(base, change)
        self.assertEqual([(a["seed"], b["seed"]) for a, b in pairs["fleet"]],
                         [(0, 0), (1, 1), (2, 2)])


if __name__ == "__main__":
    unittest.main()
