#!/usr/bin/env python3
"""Unit tests for the bench_gate comparison/policy logic (no bench runs).

Registered with ctest (label: unit) from tools/CMakeLists.txt; also runs
standalone: python3 tools/test_bench_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gate  # noqa: E402


def metric(name, value, better="less", gate=True, **extra):
    m = {"name": name, "value": value, "better": better,
         "deterministic": True, "gate": gate}
    m.update(extra)
    return m


def doc(metrics, max_procs=8):
    return {"schema": bench_gate.SCHEMA, "max_procs": max_procs,
            "metrics": metrics}


class CompareTest(unittest.TestCase):
    def test_within_tolerance_is_clean(self):
        base = doc([metric("m/a", 100.0), metric("m/b", 50.0, better="more")])
        cur = doc([metric("m/a", 105.0), metric("m/b", 49.0, better="more")])
        regs, imps, compared, ob, oc, bad = bench_gate.compare(base, cur, 0.15)
        self.assertEqual((regs, imps, ob, oc, bad), ([], [], [], [], []))
        self.assertEqual(compared, 2)

    def test_less_metric_regresses_upward(self):
        base = doc([metric("m/a", 100.0)])
        cur = doc([metric("m/a", 130.0)])
        regs, imps, *_ = bench_gate.compare(base, cur, 0.15)
        self.assertEqual([r[0] for r in regs], ["m/a"])
        self.assertEqual(imps, [])

    def test_more_metric_regresses_downward(self):
        base = doc([metric("m/a", 100.0, better="more")])
        cur = doc([metric("m/a", 70.0, better="more")])
        regs, imps, *_ = bench_gate.compare(base, cur, 0.15)
        self.assertEqual([r[0] for r in regs], ["m/a"])

    def test_improvement_is_reported_not_failed(self):
        base = doc([metric("m/a", 100.0)])
        cur = doc([metric("m/a", 50.0)])
        regs, imps, *_ = bench_gate.compare(base, cur, 0.15)
        self.assertEqual(regs, [])
        self.assertEqual([i[0] for i in imps], ["m/a"])

    def test_ungated_metrics_are_ignored(self):
        base = doc([metric("m/wall", 10.0, gate=False)])
        cur = doc([metric("m/wall", 99.0, gate=False)])
        regs, imps, compared, *_ = bench_gate.compare(base, cur, 0.15)
        self.assertEqual((regs, imps, compared), ([], [], 0))

    def test_malformed_metric_is_named_not_keyerror(self):
        base = doc([{"name": "m/nobetter", "value": 1.0, "gate": True},
                    metric("m/ok", 1.0)])
        cur = doc([metric("m/nobetter", 1.0), metric("m/ok", 1.0)])
        regs, imps, compared, ob, oc, bad = bench_gate.compare(base, cur, 0.15)
        self.assertEqual(bad, [("m/nobetter", ["better"])])
        self.assertEqual(compared, 1)  # the healthy metric still compares

    def test_zero_baseline_value_is_skipped(self):
        base = doc([metric("m/z", 0.0)])
        cur = doc([metric("m/z", 5.0)])
        regs, imps, *_ = bench_gate.compare(base, cur, 0.15)
        self.assertEqual((regs, imps), ([], []))


class EvaluateTest(unittest.TestCase):
    def test_clean_run_is_ok(self):
        base = doc([metric("m/a", 100.0)])
        cur = doc([metric("m/a", 101.0)])
        ok, lines = bench_gate.evaluate(base, cur, 0.15)
        self.assertTrue(ok)
        self.assertIn("bench_gate: OK", lines[-1])

    def test_missing_metric_same_sweep_fails_with_name(self):
        base = doc([metric("m/kept", 1.0), metric("m/lost", 2.0)])
        cur = doc([metric("m/kept", 1.0)])
        ok, lines = bench_gate.evaluate(base, cur, 0.15)
        self.assertFalse(ok)
        text = "\n".join(lines)
        self.assertIn("FAIL", text)
        self.assertIn("m/lost", text)

    def test_missing_metric_smoke_sweep_is_note(self):
        base = doc([metric("m/p8", 1.0), metric("m/p4", 2.0)], max_procs=8)
        cur = doc([metric("m/p4", 2.0)], max_procs=4)
        ok, lines = bench_gate.evaluate(base, cur, 0.15)
        self.assertTrue(ok)
        self.assertIn("smoke sweep?", "\n".join(lines))

    def test_allow_missing_waives_the_failure(self):
        base = doc([metric("m/kept", 1.0), metric("m/lost", 2.0)])
        cur = doc([metric("m/kept", 1.0)])
        ok, lines = bench_gate.evaluate(base, cur, 0.15, allow_missing=True)
        self.assertTrue(ok)
        self.assertIn("--allow-missing", "\n".join(lines))

    def test_regression_fails_and_names_the_metric(self):
        base = doc([metric("m/slow", 100.0)])
        cur = doc([metric("m/slow", 200.0)])
        ok, lines = bench_gate.evaluate(base, cur, 0.15)
        self.assertFalse(ok)
        text = "\n".join(lines)
        self.assertIn("REGRESSED m/slow", text)
        self.assertIn("FAIL", text)

    def test_malformed_metric_fails_and_names_the_key(self):
        base = doc([{"name": "m/bad", "gate": True, "better": "less"}])
        cur = doc([metric("m/bad", 1.0)])
        ok, lines = bench_gate.evaluate(base, cur, 0.15)
        self.assertFalse(ok)
        text = "\n".join(lines)
        self.assertIn("MALFORMED m/bad", text)
        self.assertIn("value", text)

    def test_new_metric_in_run_is_a_note(self):
        base = doc([metric("m/a", 1.0)])
        cur = doc([metric("m/a", 1.0), metric("m/new", 3.0)])
        ok, lines = bench_gate.evaluate(base, cur, 0.15)
        self.assertTrue(ok)
        self.assertIn("refresh the baseline", "\n".join(lines))


class HookOverheadParseTest(unittest.TestCase):
    TABLE = """
==============================================================
E11/E13/E14: instrumentation-seam overhead (threads engine, ...)
==============================================================
procs=4 iters=200000 body_work=32 reps=11 (interleaved, median)
config       | median_ms | ns_per_iter | vs_bare
-------------+-----------+-------------+--------
bare         | 27.10     | 135.5       | 1.000
default      | 27.31     | 136.6       | 1.006
trace_events | 30.02     | 150.1       | 1.108
live_auditor | 95.40     | 477.0       | 3.520
armed_plan   | 27.95     | 139.8       | 1.031

auditor saw 1234 events, 0 violations in the last rep (want 0)
default vs bare: 1.006x (target <= 1.02x; median of 11 interleaved ...)
"""

    def test_every_instrumented_row_becomes_an_ungated_ratio(self):
        metrics = bench_gate.parse_hook_overhead(self.TABLE)
        self.assertEqual(
            [(m["name"], m["value"]) for m in metrics],
            [("hook_overhead/default_vs_bare", 1.006),
             ("hook_overhead/trace_events_vs_bare", 1.108),
             ("hook_overhead/live_auditor_vs_bare", 3.52),
             ("hook_overhead/armed_plan_vs_bare", 1.031)])
        for m in metrics:
            self.assertFalse(m["gate"])
            self.assertFalse(m["deterministic"])
            self.assertEqual(m["better"], "less")

    def test_text_without_the_table_yields_nothing(self):
        self.assertEqual(bench_gate.parse_hook_overhead("a | b | c | d\n"),
                         [])


if __name__ == "__main__":
    unittest.main()
