"""Tests of the benchmark's own statistics and of the sweep verdict-map
comparator. Run from the repository root:

  python3 -m unittest discover -s soslock_bench -p 'test_*.py'
"""

import statistics
import unittest

import stats


def event(span_id, parent, op, name, start_s, end_s):
    return {"name": name, "ts": start_s * 1e6, "dur": (end_s - start_s) * 1e6,
            "args": {"id": span_id, "parent": parent, "op": op}}


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_the_acceptance_method(self):
        values = [0.91, 0.84, 0.86, 0.92, 0.88, 0.95, 0.83, 0.87, 0.9, 0.85]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_quartiles_of_ten_known_values(self):
        q1, q2, q3 = stats.quartiles(list(range(1, 11)))
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([2.0] * 5), 0.0)
        with self.assertRaises(ValueError):
            stats.spread([0.0, 0.0, 0.0])


class Tail(unittest.TestCase):
    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(stats.tail(list(range(10))))

    def test_eleven_samples(self):
        value, pct, n = stats.tail([float(i) for i in range(11)])
        self.assertEqual((value, n), (0.0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_exactly_ten_samples_lie_beyond(self):
        values = [float(i) for i in range(400)]
        value, pct, n = stats.tail(values)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertEqual((value, pct, n), (389.0, 97.5, 400))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
        self.assertEqual(stats.tail(values)[0], 1.0)

    def test_custom_beyond(self):
        self.assertEqual(stats.tail([float(i) for i in range(100)], beyond=1)[:2],
                         (98.0, 99.0))


class FailureShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failure_share(4, 1), 0.25)
        self.assertEqual(stats.failure_share(7, 0), 0.0)

    def test_invalid_counts(self):
        with self.assertRaises(ValueError):
            stats.failure_share(0, 0)
        with self.assertRaises(ValueError):
            stats.failure_share(3, 4)
        with self.assertRaises(ValueError):
            stats.failure_share(3, -1)


class VerdictMaps(unittest.TestCase):
    def test_equal_maps(self):
        self.assertEqual(stats.compare_verdicts("0011", "0011"), [])

    def test_mismatches_are_listed_in_grid_order(self):
        self.assertEqual(stats.compare_verdicts("0110", "0011"),
                         [(1, "1", "0"), (3, "0", "1")])

    def test_skipped_point_never_matches(self):
        self.assertEqual(stats.compare_verdicts("0?", "0?"), [(1, "?", "?")])

    def test_length_mismatch_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.compare_verdicts("001", "0011")


class Trace(unittest.TestCase):
    # op (0-10 s) with two children: a (1-4 s) holding a grandchild (2-3 s),
    # and b on another thread (3-6 s), which overlaps a.
    EVENTS = [
        event(1, 0, 1, "op.x", 0.0, 10.0),
        event(2, 1, 1, "core.a", 1.0, 4.0),
        event(3, 2, 1, "sdp.solve", 2.0, 3.0),
        event(4, 1, 1, "core.b", 3.0, 6.0),
        event(5, 0, 0, "linalg.replay", 11.0, 12.0),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        own = stats.self_times(self.EVENTS)
        self.assertAlmostEqual(own[1], 10.0 - 5.0)
        self.assertAlmostEqual(own[2], 3.0 - 1.0)
        self.assertAlmostEqual(own[3], 1.0)

    def test_coverage_counts_overlap_once_and_ignores_other_roots(self):
        self.assertAlmostEqual(stats.coverage(self.EVENTS), 0.5)

    def test_coverage_without_operations(self):
        self.assertIsNone(stats.coverage(self.EVENTS[-1:]))

    def test_layer_table(self):
        rows = {r[1]: r for r in stats.layer_table(self.EVENTS)}
        self.assertEqual(rows["core.a"][:3], ("core", "core.a", 1))
        self.assertAlmostEqual(rows["op.x"][4], 5.0)
        self.assertEqual(stats.layer_table(self.EVENTS)[0][1], "op.x")


if __name__ == "__main__":
    unittest.main()
