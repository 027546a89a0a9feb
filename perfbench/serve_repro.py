#!/usr/bin/env python3
"""Reproducer for serve_open's aborts and hangs.

    python3 perfbench/serve_repro.py [--runs 20] [--seconds 6] [--seed 1]

Drives serve_open's traffic (run.py's workload, unchanged: 8 tenants, the
seeded program mix, the open-loop rate ladder) once per seed, each run in
its own child process under a wall-clock limit, and prints how many runs
were attempted, aborted and hung, plus the first abort message.  Exits 1
if any run aborted or hung, so it doubles as the check for a serve fix.
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=20)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()

    binary = run.build()
    logs = os.path.join(run.build_dir(), "logs")
    os.makedirs(logs, exist_ok=True)
    counts = {"ok": 0, "abort": 0, "hang": 0}
    first = None
    ops = failed = 0
    for seed in range(a.seed, a.seed + a.runs):
        log = os.path.join(logs, "serve_repro-seed%d.log" % seed)
        out = run.run_child(binary, ["--workload", "serve_open", "--seed",
                                     str(seed), "--seconds", repr(a.seconds),
                                     "--trace", "0"],
                            2 * a.seconds + 60, log)
        counts[out.status] += 1
        ops += out.attempted
        failed += out.failed
        if out.status != "ok" and first is None:
            first = "seed %d: %s (log: %s)" % (seed, out.abort_message, log)
        print("seed %d: %s, %d of %d operations failed" %
              (seed, out.status, out.failed, out.attempted), flush=True)
    print("runs attempted: %d" % a.runs)
    print("runs aborted:   %d" % counts["abort"])
    print("runs hung:      %d" % counts["hang"])
    print("operations failed: %d of %d" % (failed, ops))
    print("first abort: %s" % (first or "none"))
    sys.exit(1 if counts["abort"] or counts["hang"] else 0)


if __name__ == "__main__":
    main()
