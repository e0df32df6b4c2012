"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench
"""

import os
import tempfile
import unittest

import benchlib
import run


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail_percentile(2000), 99.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(100000), 99.0)
        self.assertEqual(benchlib.tail_percentile(40), 75.0)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(3), 50.0)

    def test_summary_reads_the_nearest_rank(self):
        samples = list(range(1, 2001))  # 1..2000
        p50, p, tail, n = benchlib.latency_summary(samples)
        self.assertEqual((p50, p, tail, n), (1000, 99.0, 1980, 2000))
        self.assertEqual(sum(1 for s in samples if s > tail), 20)

    def test_a_small_sample_reports_a_lower_percentile(self):
        p50, p, tail, n = benchlib.latency_summary([1, 2, 3, 4] * 10)
        self.assertEqual((p, n), (75.0, 40))
        self.assertEqual((p50, tail), (2, 3))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)


class FailureCountTest(unittest.TestCase):
    def rep(self, **kw):
        base = {"attempted": 100, "quarantined": 0, "rejected": 0,
                "exit_code": 0, "links_ok": True}
        base.update(kw)
        return base

    def test_clean_runs_fail_nothing(self):
        self.assertEqual(benchlib.count_failures([self.rep(), self.rep()]),
                         (200, 0))

    def test_quarantined_pairs_fail(self):
        self.assertEqual(benchlib.count_failures([self.rep(quarantined=3)]),
                         (100, 3))

    def test_rejected_deltas_fail(self):
        self.assertEqual(benchlib.count_failures([self.rep(rejected=7)]),
                         (100, 7))

    def test_nonzero_exit_fails_the_whole_rep(self):
        reps = [self.rep(), self.rep(exit_code=3, quarantined=1)]
        self.assertEqual(benchlib.count_failures(reps), (200, 100))

    def test_wrong_links_fail_the_whole_rep(self):
        self.assertEqual(benchlib.count_failures([self.rep(links_ok=False)]),
                         (100, 100))


class ReferenceLinksTest(unittest.TestCase):
    def write(self, data):
        fd, path = tempfile.mkstemp()
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        self.addCleanup(os.unlink, path)
        return path

    def test_identical_links_match(self):
        body = b"row_r,row_s\n1,2\n3,4\n"
        self.assertTrue(benchlib.links_match(self.write(body),
                                             self.write(body)))

    def test_one_byte_difference_is_caught(self):
        body = b"row_r,row_s\n1,2\n3,4\n" * 1000
        changed = bytearray(body)
        changed[len(changed) // 2] ^= 0x01
        self.assertFalse(benchlib.links_match(self.write(body),
                                              self.write(bytes(changed))))

    def test_truncation_is_caught(self):
        body = b"row_r,row_s\n1,2\n3,4\n"
        self.assertFalse(benchlib.links_match(self.write(body),
                                              self.write(body[:-1])))


class OpenLoopTest(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        # Delta 0 stalls for 50 ms; the three behind it were due every 10 ms
        # and each is served in 10 ms as soon as the stall clears.
        due = [0.00, 0.01, 0.02, 0.03]
        sent = [0.00, 0.05, 0.06, 0.07]
        done = [0.05, 0.06, 0.07, 0.08]
        latency, late, backlog = benchlib.open_loop(due, sent, done)
        self.assertEqual([round(x) for x in latency], [50, 50, 50, 50])
        self.assertEqual([round(x) for x in late], [0, 40, 40, 40])
        self.assertEqual(backlog, [0, 2, 1, 0])

    def test_an_idle_service_is_never_late(self):
        due = [0.0, 0.1, 0.2]
        latency, late, backlog = benchlib.open_loop(due, due,
                                                    [d + 0.002 for d in due])
        self.assertEqual([round(x) for x in latency], [2, 2, 2])
        self.assertEqual(late, [0.0, 0.0, 0.0])
        self.assertEqual(backlog, [0, 0, 0])

    def test_serve_end_to_end_latency_uses_the_due_time(self):
        rep = {"t0": 0.0, "peak_rss_mb": 10.0, "run": {
            "mode": "serve", "t_ready": 0.5, "t_done": 1.0, "smc_pairs": 20,
            "delta_smc_pairs": [3, 5],
            "due": [0.50, 0.51], "sent": [0.50, 0.60],
            "done": [0.60, 0.62]}}
        m = run.end_to_end(rep)
        self.assertEqual([round(x) for x in m["latency"]], [100, 110])
        self.assertAlmostEqual(m["setup_s"], 0.5)
        self.assertAlmostEqual(m["pairs_per_s"], 8 / 0.12)
        self.assertEqual(m["pairs"], 8)
        self.assertAlmostEqual(m["online_s"], 0.12)

    def test_mismatched_lengths_are_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.open_loop([0.0], [0.0, 1.0], [0.0])


class DatasetSeedTest(unittest.TestCase):
    def test_every_run_gets_its_own_datasets(self):
        seeds = [run.dataset_seed(seed, i) for seed in range(1, 21)
                 for i in range(10)]
        self.assertEqual(len(seeds), len(set(seeds)))

    def test_the_same_seed_gives_the_same_datasets(self):
        self.assertEqual([run.dataset_seed(7, i) for i in range(8)],
                         [run.dataset_seed(7, i) for i in range(8)])


class SpecEditTest(unittest.TestCase):
    def test_replaces_in_place_and_appends_missing(self):
        text = "k 32\nkeybits 0    # plaintext\nallowance 0.015\n"
        out = benchlib.edit_spec(text, {"keybits": 1024, "smc_seed": 9})
        self.assertEqual(out, "k 32\nkeybits 1024\nallowance 0.015\n"
                              "smc_seed 9\n")


if __name__ == "__main__":
    unittest.main()
