"""Tests for the scoreboard's summary math.

  python3 scoreboard/test_summary.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import summary  # noqa: E402


def raw_doc(outcomes, latency, spans=(), counts=None, counters=None):
    pass_ = {"elapsed_s": 2.0, "latency_ms": list(latency), "outcomes": list(outcomes),
             "notes": [], "program_counters": dict(counters or {})}
    traced = dict(pass_, counts=dict(counts or {}), svc_overhead_ms=[], spans=list(spans))
    return {"workload": "corpus", "seed": 1, "seconds": 4, "tail_percentile": 99,
            "setup_s": [0.3, 0.1, 0.2], "peak_rss_kb": 2048, "timed": pass_,
            "traced": traced}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(summary.percentile(values, 50), 50)
        self.assertEqual(summary.percentile(values, 99), 99)
        self.assertEqual(summary.percentile(values, 100), 100)
        self.assertEqual(summary.percentile([7.0], 99), 7.0)
        self.assertIsNone(summary.percentile([], 50))

    def test_median_of_odd_round_is_its_middle_sample(self):
        self.assertEqual(summary.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_samples_beyond(self):
        self.assertEqual(summary.samples_beyond(100, 90), 10)
        self.assertEqual(summary.samples_beyond(100, 99), 1)
        self.assertEqual(summary.samples_beyond(0, 50), 0)


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(summary.tail_percentile(10000), 99.9)
        self.assertEqual(summary.tail_percentile(1000), 99.0)
        self.assertEqual(summary.tail_percentile(999), 95.0)
        self.assertEqual(summary.tail_percentile(100), 90.0)
        self.assertEqual(summary.tail_percentile(40), 75.0)

    def test_too_few_samples_reports_median_only(self):
        self.assertIsNone(summary.tail_percentile(39))
        self.assertIsNone(summary.tail_percentile(5))
        self.assertIsNone(summary.tail_percentile(0))

    def test_boundary_is_inclusive(self):
        # 1000 samples: p99 is rank 990, leaving exactly ten beyond it.
        self.assertEqual(summary.samples_beyond(1000, 99.0), 10)


class FractionTest(unittest.TestCase):
    def test_fraction_states_its_base(self):
        self.assertEqual(summary.fraction(1, 4), (0.25, 4))

    def test_empty_base_is_zero_not_an_error(self):
        self.assertEqual(summary.fraction(0, 0), (0.0, 0))


class OptionalCounterTest(unittest.TestCase):
    def test_present_counters(self):
        counters = {"ckpt.hits": 3.0, "ckpt.misses": 1.0}
        self.assertEqual(summary.optional_ratio(counters, "ckpt.hits", "ckpt.misses"),
                         (0.75, 4.0))

    def test_absent_counter_is_reported_absent(self):
        self.assertEqual(summary.optional_ratio({"ckpt.hits": 3.0}, "ckpt.hits", "ckpt.misses"),
                         ("absent", None))
        raw = raw_doc(["ok"], [1.0])
        got = summary.optional_counters(raw)
        self.assertEqual(got["ckpt.hit_frac"]["value"], "absent")
        self.assertEqual(got["svc.queue_peak"]["value"], "absent")

    def test_present_queue_peak(self):
        raw = raw_doc(["ok"], [1.0], counters={"svc.queue_depth_peak": 2.0})
        self.assertEqual(summary.optional_counters(raw)["svc.queue_peak"]["value"], 2.0)


class FailCountingTest(unittest.TestCase):
    def test_outcome_classes(self):
        outcomes = ["ok", "ok", "capped", "expected_miss", "wrong", "missed", "degraded",
                    "refused", "fabricated"]
        counts = summary.count_outcomes(outcomes)
        self.assertEqual(counts["attempted"], 9)
        self.assertEqual(counts["failed"], 5)   # the run's failed operations
        self.assertEqual(counts["fail"], 6)     # fail_frac also counts the expected miss
        self.assertEqual(counts["capped"], 1)   # capped is not a failure

    def test_expected_miss_keeps_the_run_correct(self):
        raw = raw_doc(["ok"] * 27 + ["expected_miss"], [1.0] * 28)
        line = summary.result_line(raw, trace=0)
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertAlmostEqual(line["metrics"]["correct_frac"]["value"], 27 / 28)
        view = summary.supplementary(raw)
        self.assertAlmostEqual(view["fail_frac"]["value"], 1 / 28)

    def test_fabricated_failure_fails_the_run(self):
        raw = raw_doc(["ok", "fabricated"], [1.0, 2.0])
        line = summary.result_line(raw, trace=0)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_capped_counts_in_complete_frac_only(self):
        raw = raw_doc(["ok"] * 4 + ["capped"], [1.0] * 5)
        line = summary.result_line(raw, trace=0)
        self.assertTrue(line["correct"])
        self.assertEqual(line["metrics"]["correct_frac"]["value"], 1.0)
        self.assertAlmostEqual(line["metrics"]["complete_frac"]["value"], 0.8)

    def test_traced_answers_are_counted_too(self):
        raw = raw_doc(["ok"], [1.0])
        raw["traced"]["outcomes"] = ["wrong"]
        line = summary.result_line(raw, trace=1)
        self.assertEqual(line["attempted"], 2)
        self.assertFalse(line["correct"])


class MergeTest(unittest.TestCase):
    def test_processes_pool_their_samples(self):
        a = raw_doc(["ok", "ok"], [1.0, 3.0],
                    counters={"ckpt.hits": 2.0, "svc.queue_depth_peak": 3.0})
        b = raw_doc(["wrong"], [2.0], counters={"ckpt.hits": 1.0, "ckpt.misses": 1.0,
                                                "svc.queue_depth_peak": 2.0})
        b["peak_rss_kb"] = 4096
        b["setup_s"] = [0.4]
        c = raw_doc([], [])
        c["peak_rss_kb"] = 1024
        c["setup_s"] = []
        c["timed"]["elapsed_s"] = 0.0
        got = summary.merge_processes([a, b, c])
        self.assertEqual(got["timed"]["latency_ms"], [1.0, 3.0, 2.0])
        self.assertEqual(got["timed"]["outcomes"], ["ok", "ok", "wrong"])
        self.assertEqual(got["timed"]["elapsed_s"], 4.0)
        self.assertEqual(got["seconds"], 12)
        self.assertEqual(got["setup_s"], [0.3, 0.1, 0.2, 0.4])
        self.assertEqual(got["peak_rss_kb"], 4096)
        # Counts add up across processes; a peak is the largest one.
        self.assertEqual(got["timed"]["program_counters"],
                         {"ckpt.hits": 3.0, "ckpt.misses": 1.0, "svc.queue_depth_peak": 3.0})
        line = summary.result_line(got, trace=0)
        self.assertEqual((line["attempted"], line["failed"]), (3, 1))
        self.assertEqual(line["metrics"]["latency_ms_p50"]["value"], 2.0)
        self.assertEqual(line["metrics"]["throughput_dps"]["value"], 3 / 4.0)
        self.assertEqual(line["metrics"]["setup_s"]["value"], 0.2)

    def test_notes_stay_capped(self):
        parts = [raw_doc(["wrong"], [1.0]) for _ in range(3)]
        for p in parts:
            p["timed"]["notes"] = ["x"] * summary.MAX_NOTES
        self.assertEqual(len(summary.merge_processes(parts)["timed"]["notes"]),
                         summary.MAX_NOTES)


class SpanTest(unittest.TestCase):
    SPANS = [
        ["diag", 0, -1, 0.0, 1000.0],
        ["ingest", 0, 0, 0.0, 100.0],
        ["lifs", 0, 0, 100.0, 700.0],
        ["ca", 0, 0, 800.0, 150.0],
    ]

    def test_self_time_subtracts_children(self):
        got = summary.self_times(self.SPANS)
        self.assertAlmostEqual(got["diag"], 50e-6)
        self.assertAlmostEqual(got["lifs"], 700e-6)
        self.assertAlmostEqual(summary.root_seconds(self.SPANS), 1000e-6)

    def test_per_layer_shares_and_rates(self):
        raw = raw_doc(["ok"], [1.0], spans=self.SPANS,
                      counts={"lifs.schedules": 10, "lifs.steps": 200, "ca.flips": 3,
                              "ca.tested": 4, "ca.steps": 50, "sim.steps": 1000,
                              "sim.seconds": 0.001})
        layer = summary.per_layer(raw)
        self.assertAlmostEqual(layer["lifs.time_frac"]["value"], 0.7)
        self.assertAlmostEqual(layer["bench.unattributed_frac"]["value"], 0.05)
        self.assertAlmostEqual(layer["analysis.skipped_frac"]["value"], 0.25)
        self.assertEqual(layer["analysis.skipped_frac"]["base"], 4)
        self.assertEqual(layer["analysis.skipped_frac"]["samples"], 1)
        self.assertAlmostEqual(layer["ca.ms_per_flip"]["value"], 0.05)
        self.assertAlmostEqual(layer["hv.steps_per_s"]["value"], 250 / 850e-6)
        self.assertAlmostEqual(layer["hv.enforcer_overhead"]["value"],
                               1e6 / (250 / 850e-6))
        # Layers without spans or counts read 0 with base 0.
        self.assertEqual(layer["fuzz.attempts_per_crash"]["value"], 0.0)
        self.assertEqual(layer["fuzz.attempts_per_crash"]["base"], 0)
        self.assertEqual(set(layer), set(summary.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
