#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/test_perfbench.py

Runs short workload runs through run.py and checks that the benchmark
catches a wrong body result, an abort and a hang; that every tail metric has
at least ten samples beyond it and prints its percentile and count, and that
a tail without them fails the run instead of reading as a value; that
the virtual-time metrics are bit-identical for one seed; and that the
benchmark fails cleanly where the library sources are missing.  Takes about
a minute.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BATCH = ("nest_churn", "flat_irregular")


def bench(workload, seed=1, seconds=2, trace=0, *extra, cwd=ROOT):
    """Run run.py; returns (exit code, stdout lines, parsed last line)."""
    p = subprocess.run([sys.executable, RUN, "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)] + list(extra),
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, lines, result


def metric_line(lines, name):
    for line in lines:
        f = line.split()
        if f and f[0] == name:
            return line
    return None


class ResultChecks(unittest.TestCase):
    def test_corrupted_body_result_is_a_failure(self):
        code, lines, res = bench("flat_irregular", 3, 2, 0, "--corrupt")
        self.assertEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        share = float(metric_line(lines, "failed_share").split()[1])
        self.assertGreater(share, 0)

    def test_clean_run_has_no_failures(self):
        code, lines, res = bench("flat_irregular", 4, 2)
        self.assertEqual(code, 0)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)

    def isolated(self, flag, seed):
        """Run the binary with an injected fault under run.py's isolation."""
        sys.path.insert(0, HERE)
        import run
        binary = run.build()
        log = os.path.join(tempfile.mkdtemp(), "child.log")
        try:
            return run.run_child(binary, [
                "--workload", "flat_irregular", "--seed", str(seed),
                "--seconds", "2", "--trace", "0", flag], 10, log)
        finally:
            shutil.rmtree(os.path.dirname(log))

    def test_abort_counts_as_failed_operations(self):
        out = self.isolated("--inject-abort", 5)
        self.assertEqual(out.status, "abort")
        self.assertFalse(out.correct)
        self.assertGreaterEqual(out.failed, 1)

    def test_hang_counts_as_failed_operations(self):
        out = self.isolated("--inject-hang", 6)
        self.assertEqual(out.status, "hang")
        self.assertFalse(out.correct)
        self.assertGreaterEqual(out.failed, 1)


class MetricChecks(unittest.TestCase):
    TAIL_NOTE = re.compile(r"p(\d+(\.\d+)?) of (\d+) samples, (\d+) beyond")

    def check_tails(self, lines, res):
        tails = [n for n in res["metrics"] if n.endswith("_tail_ms")]
        self.assertTrue(tails)
        for name in tails:
            m = self.TAIL_NOTE.search(metric_line(lines, name))
            self.assertIsNotNone(m, name)
            samples, beyond = int(m.group(3)), int(m.group(4))
            self.assertGreaterEqual(beyond, 10, name)
            self.assertLess(beyond, samples, name)

    def test_tails_have_ten_samples_beyond(self):
        for w in BATCH:
            with self.subTest(workload=w):
                code, lines, res = bench(w, 7, 3)
                self.assertEqual(code, 0)
                self.check_tails(lines, res)

    def test_serve_tails_have_ten_samples_beyond(self):
        code, lines, res = bench("serve_open", 7, 4)
        self.assertEqual(code, 0)
        if not res["correct"]:
            self.skipTest("serve_open failed: " + lines[1].strip())
        self.check_tails(lines, res)

    def test_short_tail_fails_instead_of_reading_zero(self):
        # A 0.1 s window holds a few pairs, too few for a tail.
        code, lines, res = bench("flat_irregular", 9, 0.1)
        self.assertEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertNotIn("makespan_tail_ms", res["metrics"])
        self.assertIn("makespan_ms", res["metrics"])

    def test_vt_metrics_are_bit_identical_for_one_seed(self):
        for w in BATCH:
            with self.subTest(workload=w):
                runs = [bench(w, 11, 1)[2]["metrics"] for _ in range(2)]
                vt = [{n: v for n, v in r.items() if n.startswith("vt_")}
                      for r in runs]
                self.assertEqual(sorted(vt[0]), ["vt_makespan_kcycles",
                                                 "vt_speedup"])
                self.assertEqual(vt[0], vt[1])

    def test_traced_run_prints_per_layer_metrics(self):
        code, lines, res = bench("flat_irregular", 8, 2, 1)
        self.assertEqual(code, 0)
        self.assertTrue(res["correct"])
        for name in ("runtime.o1_ns_per_iter", "vtime.engine_ops",
                     "host.spin_scaling", "trace_overhead"):
            self.assertIn(name, res["metrics"])
        self.assertNotIn("makespan_ms", res["metrics"])


class Packaging(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = subprocess.run([sys.executable, "perfbench/run.py",
                                "--workload", "nest_churn", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                               cwd=tmp, env=env, capture_output=True,
                               text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
