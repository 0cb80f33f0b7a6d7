"""Tests of the benchmark driver's own logic, on synthetic inputs.

    python3 perfbench/test_run.py

The generators' determinism and known answers are tested on the Rust side:
`cargo test --release --manifest-path perfbench/Cargo.toml`.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class Compare(unittest.TestCase):
    def test_same_runs_are_unchanged(self):
        old = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(run.verdict(old, list(old), 0.1, "lower"), "unchanged")

    def test_a_median_past_the_bound_is_worse(self):
        old = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [v * 1.3 for v in old]
        self.assertEqual(run.verdict(old, new, 0.1, "lower"), "worse")
        self.assertEqual(run.verdict(old, new, 0.1, "higher"), "improved")

    def test_a_slowdown_within_the_bound_is_unchanged(self):
        old = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [v * 1.05 for v in old]
        self.assertEqual(run.verdict(old, new, 0.1, "lower"), "unchanged")

    def test_improved_needs_nine_tenths_of_ten_pairs(self):
        old = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [80, 81, 79, 80, 82, 78, 80, 81, 79, 80]
        self.assertEqual(run.verdict(old, new, 0.1, "lower"), "improved")
        # Two pairs lost: 8 of 10 wins is not enough.
        mixed = new[:8] + [101, 102]
        self.assertEqual(run.verdict(old, mixed, 0.1, "lower"), "unchanged")
        # Fewer than ten pairs never claim a gain.
        self.assertEqual(run.verdict(old[:5], new[:5], 0.1, "lower"), "unchanged")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        old = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        new = [v * 1.05 for v in old]
        self.assertEqual(run.verdict(old, new, 0.1, "lower"), "unresolved")
        # ... unless every new run beats every old run.
        better = [50 - i for i in range(10)]
        self.assertEqual(run.verdict(old, better, 0.1, "lower"), "improved")

    def test_compare_covers_every_metric_of_shared_workloads(self):
        spec = {"end_to_end": [{"name": "setup_s", "bound": 0.25, "better": "lower"},
                               {"name": "verdicts_per_s", "bound": 0.1, "better": "higher"}]}
        rec = lambda s, v: {"setup_s": {"value": s}, "verdicts_per_s": {"value": v}}
        old = {"a": [rec(1.0, 100.0)] * 10, "b": [rec(1.0, 100.0)] * 10}
        new = {"a": [rec(1.0, 50.0)] * 10}
        self.assertEqual(run.compare(old, new, spec), {
            ("a", "setup_s"): "unchanged",
            ("a", "verdicts_per_s"): "worse",
        })


class LayerMetrics(unittest.TestCase):
    def test_spans_and_unattributed_add_up_to_the_wall(self):
        trace = {
            "wall_ms": 950.0,
            "spans_ms": {"lang.parse": 12.5, "lang.typeck": 30.25, "algorithm": 800.0, "cli.render": 7.0},
            "metrics": {"trace.untraced_wall.ms": 940.0, "closure.terms": 5.0},
        }
        out = run.layer_metrics(trace, 1000.0, 4096)
        self.assertAlmostEqual(sum(trace["spans_ms"].values()) + out["cli.unattributed.ms"], 1000.0)
        self.assertAlmostEqual(out["trace.overhead.ms"], 10.0)
        self.assertEqual(out["cli.output_bytes"], 4096.0)
        self.assertNotIn("trace.untraced_wall.ms", out)
        self.assertEqual(out["closure.terms"], 5.0)


class VerdictChecks(unittest.TestCase):
    EXPECTED = {"requirements": [
        {"require": "(u0, r_a0(x):ti)", "user": "u0", "status": "violated"},
        {"require": "(u1, r_a1(x):ti)", "user": "u1", "status": "satisfied"},
    ]}

    def test_check_text_is_read_per_requirement(self):
        out = (b"FLAW  (u0, r_a0(x):ti)  (1 occurrence(s))\n"
               b"ok    (u1, r_a1(x):ti)\n"
               b"2 requirement(s), 1 violated\n")
        self.assertEqual(run.one_shot_failures("policy_check", 1, out, self.EXPECTED), 0)
        flipped = out.replace(b"ok    (u1", b"FLAW  (u1")
        self.assertEqual(run.one_shot_failures("policy_check", 1, flipped, self.EXPECTED), 1)

    def test_an_unexpected_exit_code_fails_every_verdict(self):
        self.assertEqual(run.one_shot_failures("policy_check", 3, b"", self.EXPECTED), 2)
        self.assertEqual(run.one_shot_failures("policy_check", -9, b"", self.EXPECTED), 2)

    def test_stream_records_are_matched_by_requirement_index(self):
        out = (b'{"group":1,"user":"u1","verdicts":[{"requirement":1,"status":"satisfied"}]}\n'
               b'{"group":0,"user":"u0","verdicts":[{"requirement":0,"status":"violated"}]}\n'
               b'{"summary":{"requirements":2}}\n')
        self.assertEqual(run.one_shot_failures("population_stream", 1, out, self.EXPECTED), 0)

    def test_serve_responses(self):
        want = {"op": "check", "verdicts": [[3, "violated"]]}
        ok = {"op": "check", "user": "u3", "verdicts": [{"requirement": 3, "status": "violated"}]}
        self.assertTrue(run.response_ok(ok, want))
        self.assertFalse(run.response_ok({"error": "unknown user", "request": 1}, want))
        edit = {"op": "revoke", "verdicts": [[7, "satisfied"]]}
        resp = {"op": "revoke", "changed": True, "deltas": [{"requirement": 7, "status": "satisfied"}]}
        self.assertTrue(run.response_ok(resp, edit))
        self.assertFalse(run.response_ok(dict(resp, changed=False), edit))


if __name__ == "__main__":
    unittest.main()
