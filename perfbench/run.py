#!/usr/bin/env python3
"""Run one workload of the selfsched benchmark and print its result.

    python3 perfbench/run.py --workload nest_churn --seed 1 --seconds 20 \
        --trace 0

Builds the perfbench binary (perfbench/CMakeLists.txt, which compiles the
library from src/) into $CARGO_TARGET_DIR or .bench_build, then runs the
workload in a child process under a wall-clock limit.  An abort or a hang of
the child fails every operation it had not finished instead of losing the
run; the child's stderr, abort text included, goes to the run log.

Prints every metric by name with its unit, then as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones of a
separate traced run (which also writes a Chrome-trace JSON of its spans).
"""
import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SERVE_END_TO_END = ["setup_s", "first_dispatch_p50_ms",
                    "first_dispatch_tail_ms", "complete_p50_ms",
                    "complete_tail_ms", "max_rate_per_s"]
SERVE_PER_LAYER = [
    "lang.parse_us", "program.compile_us", "serve.start_us",
    "serve.submit_us", "serve.queue_wait_p50_ms", "serve.slices_per_sub",
    "serve.preemptions_per_sub", "serve.granted_ms_per_sub",
    "serve.rejections", "serve.generator_late_tail_ms", "host.spin_scaling",
    "host.step_ns", "host.warmup_s", "trace_overhead"]


def metric_lists():
    """(end-to-end, per-layer) metric names of each workload: BENCHMARK.json's
    lists for the workloads it names, and serve_open's own, which is left out
    of it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    lists = ([m["name"] for m in spec["end_to_end"]],
             [m["name"] for m in spec["per_layer"]])
    metrics = {w["name"]: lists for w in spec["workloads"]}
    metrics["serve_open"] = (SERVE_END_TO_END, SERVE_PER_LAYER)
    return metrics

# Lines of a child's stderr worth quoting as its abort message, best first.
ABORT_RES = [re.compile(p) for p in (
    r"SS_CHECK failed|selfsched fatal|Assertion", r"what\(\)|terminate called",
    r"FAILED:|perfbench:")]


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then build incrementally.  Returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "--build", out, "-j", "3"]]
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                # A failed configure must not leave a cache behind that makes
                # the next call skip it.
                cache = os.path.join(out, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return os.path.join(out, "perfbench")


class Outcome:
    def __init__(self):
        self.plan = 0
        self.attempted = 0
        self.failed = 0
        self.correct = False
        self.metrics = {}   # name -> (value, unit, note)
        self.status = "ok"  # ok | abort | hang
        self.abort_message = ""


def run_child(binary, argv, limit_s, log_path):
    """Run the binary under a wall-clock limit and read its line protocol."""
    out = Outcome()
    finished = False
    lines = []
    with open(log_path, "w") as log:
        proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE,
                                stderr=log, text=True, cwd=ROOT,
                                start_new_session=True)
        reader = threading.Thread(target=lambda: lines.extend(proc.stdout))
        reader.start()
        try:
            proc.wait(timeout=limit_s)
        except subprocess.TimeoutExpired:
            out.status = "hang"
        finally:
            # Also reached when this script is interrupted or terminated:
            # the child never outlives it.
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        reader.join()
        proc.stdout.close()
    for line in lines:
        f = line.split(maxsplit=4)
        if not f:
            continue
        if f[0] == "plan":
            out.plan = int(f[1])
        elif f[0] == "progress":
            out.attempted, out.failed = int(f[1]), int(f[2])
        elif f[0] == "metric":
            out.metrics[f[1]] = (float(f[2]), f[3],
                                 f[4].strip() if len(f) > 4 else "")
        elif f[0] == "result":
            finished = True
            out.correct = f[1] == "1"
            out.attempted, out.failed = int(f[2]), int(f[3])
    if out.status == "ok" and (proc.returncode != 0 or not finished):
        out.status = "abort"
    if out.status != "ok":
        # Every operation the child had not finished fails: the rest of its
        # plan, or at least the one in flight.
        unfinished = max(out.plan - out.attempted, 1)
        out.attempted += unfinished
        out.failed += unfinished
        out.correct = False
        with open(log_path) as f:
            text = f.read()
        quoted = [l.strip() for r in ABORT_RES for l in text.splitlines()
                  if r.search(l)]
        out.abort_message = (quoted[0] if quoted else
                             "exit code %s" % proc.returncode)
        if out.status == "hang":
            out.abort_message = "no exit within %ss" % limit_s
        with open(log_path, "a") as log:
            log.write("perfbench: child %s: %s\n" % (out.status,
                                                     out.abort_message))
    return out


def main():
    metrics = metric_lists()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(metrics))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hook: corrupt one body result.
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    a = ap.parse_args()
    # Turn SIGTERM into an exception so run_child's cleanup runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    if a.seconds <= 0:
        ap.error("--seconds must be positive")

    binary = build()
    tag = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    for sub in ("logs", "traces"):
        os.makedirs(os.path.join(build_dir(), sub), exist_ok=True)
    log_path = os.path.join(build_dir(), "logs", tag + ".log")
    trace_path = os.path.join(build_dir(), "traces", tag + ".json")
    argv = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        argv += ["--trace-out", trace_path]
    if a.corrupt:
        argv.append("--corrupt")
    # Set-up, warm-up and the virtual-time run take a few seconds beyond the
    # measured window; a run far past that is hung.
    limit = min(2 * a.seconds + 60, 170)
    out = run_child(binary, argv, limit, log_path)

    wanted = metrics[a.workload][a.trace]
    print("%s seed=%d trace=%d: %s" % (a.workload, a.seed, a.trace,
                                       out.status))
    if out.status != "ok":
        print("  %s: %s (log: %s)" % (out.status, out.abort_message,
                                      log_path))
        sys.stderr.write("perfbench: %s: %s\n" % (out.status,
                                                  out.abort_message))
    for name, (value, unit, note) in out.metrics.items():
        print("  %-34s %16.6g %-8s %s%s" % (
            name, value, unit, note,
            "" if name in wanted else " (context)"))
    share = out.failed / out.attempted if out.attempted else 1.0
    print("  %-34s %16.6g %-8s %d of %d operations" % (
        "failed_share", share, "share", out.failed, out.attempted))
    if a.trace and out.status == "ok":
        print("  spans: %s" % trace_path)
    result = {
        "correct": out.correct and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": out.metrics[n][0], "unit": out.metrics[n][1]}
                    for n in wanted if n in out.metrics},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
