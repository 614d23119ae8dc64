#!/usr/bin/env python3
"""Unit tests of tools/pairs.py's statistics on a recorded run list.

    python3 tools/test_pairs.py

No benchmark runs: the run list below has the shape pairs.py writes.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pairs  # noqa: E402


def run(workload, k, side, rows, p50, steal=0.01, csw=4.0, exit_code=0):
    return {
        "workload": workload, "pair": k, "seed": 100 + k, "side": side,
        "exit": exit_code, "steal_share": steal, "nvcsw_per_req": csw,
        "cpu_us_per_req": 70.0, "attempted": 1000,
        "metrics": {"rows_per_s": {"value": rows, "unit": "rows/s"},
                    "p50_ms": {"value": p50, "unit": "ms"}},
    }


# Ten pairs: the change reads higher rows/s in 9 (pair 4 is a tie) and a
# p50 equal to the parent's in every pair.
PARENT_ROWS = [13.0, 14.0, 13.5, 14.4, 15.0, 13.3, 13.9, 14.1, 13.7, 14.2]
CHANGE_ROWS = [37.0, 38.0, 36.5, 39.0, 15.0, 40.0, 37.5, 38.2, 36.9, 39.5]
RUNS = []
for _k in range(10):
    for _side in pairs.order(_k):
        _rows = (PARENT_ROWS if _side == "parent" else CHANGE_ROWS)[_k]
        RUNS.append(run("durable_sync", _k, _side, _rows * 1e3, 0.5))
# A failed run and an unpaired run are left out of the tables.
RUNS.append(run("durable_sync", 10, "parent", 1.0, 9.0, exit_code=1))
RUNS.append(run("durable_sync", 11, "change", 1.0, 9.0))

BOUNDS = {"rows_per_s": ("higher", 0.25), "p50_ms": ("lower", 0.25),
          "fail_share": ("lower", None), "steal_share": ("lower", None),
          "nvcsw_per_req": ("lower", None), "cpu_us_per_req": ("lower", None)}


class Statistics(unittest.TestCase):
    def test_quantiles_interpolate_between_ranks(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(pairs.summary(xs), (2.5, 1.75, 3.25))
        self.assertEqual(pairs.quantile([7.0], 0.25), 7.0)
        with self.assertRaises(ValueError):
            pairs.quantile([], 0.5)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(pairs.spread([1.0, 2.0, 3.0, 4.0]),
                               1.5 / 2.5)
        self.assertEqual(pairs.spread([0.0, 0.0, 0.0]), 0.0)

    def test_ties_count_for_neither_side(self):
        pp = [(1.0, 2.0), (2.0, 2.0), (3.0, 1.0)]
        self.assertEqual(pairs.pair_wins(pp, "higher"), 1)
        self.assertEqual(pairs.pair_wins(pp, "lower"), 1)

    def test_gain_needs_nine_tenths_of_pairs_and_a_gap_past_the_iqr(self):
        won = list(zip(PARENT_ROWS, CHANGE_ROWS))
        self.assertTrue(pairs.gain(won, "higher"))
        self.assertFalse(pairs.gain(won, "lower"))
        # 8 of 10: not enough pairs, however large the gap.
        eight = [(p, c if i < 8 else p - 1) for i, (p, c) in enumerate(won)]
        self.assertFalse(pairs.gain(eight, "higher"))
        # Every pair won, but the gap is inside the parent's IQR.
        narrow = [(p, p + 0.01) for p in PARENT_ROWS]
        self.assertEqual(pairs.pair_wins(narrow, "higher"), 10)
        self.assertFalse(pairs.gain(narrow, "higher"))

    def test_bound_verdicts(self):
        row = pairs.metric_row("p50_ms", [(1.0, 1.2), (1.0, 1.3),
                                          (1.0, 1.3), (1.0, 1.4)],
                               "lower", 0.25)
        self.assertTrue(row["resolved"])
        self.assertFalse(row["within_bound"])  # +30% on a lower-is-better
        wide = pairs.metric_row("rows_per_s", [(1.0, 1.0), (2.0, 2.0),
                                               (3.0, 3.0), (4.0, 4.0)],
                                "higher", 0.25)
        self.assertFalse(wide["resolved"])
        self.assertTrue(wide["within_bound"])
        free = pairs.metric_row("engine.service_p50_us", [(1.0, 2.0)],
                                "lower", None)
        self.assertNotIn("resolved", free)

    def test_order_alternates_parent_first_on_even_pairs(self):
        self.assertEqual(pairs.order(0), ("parent", "change"))
        self.assertEqual(pairs.order(1), ("change", "parent"))
        self.assertEqual(pairs.order(4), ("parent", "change"))


class Tables(unittest.TestCase):
    def test_recorded_runs_pair_by_workload_and_pair_index(self):
        rows = {r["metric"]: r for r in pairs.tables(RUNS, BOUNDS)[
            "durable_sync"]}
        self.assertEqual(list(rows), ["rows_per_s", "p50_ms", "fail_share",
                                      "steal_share", "nvcsw_per_req",
                                      "cpu_us_per_req"])
        self.assertEqual(rows["fail_share"]["parent"], (0.0, 0.0, 0.0))
        rps = rows["rows_per_s"]
        self.assertEqual(rps["n"], 10)
        self.assertEqual(rps["wins"], 9)
        self.assertTrue(rps["gain"])
        self.assertAlmostEqual(rps["parent"][0], 13950.0)
        self.assertAlmostEqual(rps["change"][0], 37750.0)
        p50 = rows["p50_ms"]
        self.assertEqual(p50["wins"], 0)
        self.assertFalse(p50["gain"])
        self.assertTrue(p50["resolved"])
        self.assertTrue(p50["within_bound"])

    def test_report_rebuilds_the_tables_from_a_saved_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "runs.json")
            with open(path, "w") as f:
                json.dump({"runs": RUNS}, f)
            with open(path) as f:
                text = pairs.render(json.load(f)["runs"], BOUNDS)
        self.assertIn("1 run(s) failed", text)
        self.assertIn("durable_sync: 10 pairs", text)
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("rows_per_s"))
        self.assertIn("13.95k (13.55k-14.18k)", line)
        self.assertIn("9/10", line)
        self.assertIn("resolved, gain", line)
        steal = next(ln for ln in text.splitlines()
                     if ln.startswith("steal_share"))
        self.assertNotIn("gain", steal)  # context rows carry no verdict

    def test_benchmark_spec_reads_every_bound(self):
        spec = pairs.benchmark_spec()
        self.assertEqual(spec["rows_per_s"], ("higher", 0.25))
        self.assertEqual(spec["repl.bytes_per_req"], ("lower", None))
        self.assertEqual(spec["nvcsw_per_req"], ("lower", None))
        self.assertEqual(spec["fail_share"], ("lower", None))


if __name__ == "__main__":
    unittest.main()
