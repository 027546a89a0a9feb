#!/usr/bin/env python3
"""Benchmark regression gate.

Runs the SEARCH-scalability bench, the E16 adaptive-strategy bench, the
E17 sharded-dispatch scaling bench, and the E18 batched-ENTER bench
(virtual-time: deterministic, exact, host-independent) plus the
real-hardware overhead microbench (informational only: wall-clock,
noisy), and compares the gated metrics against the committed baselines
(BENCH_search.json, BENCH_adaptive.json, BENCH_shard.json,
BENCH_enter.json).  bench_adaptive, bench_shard_scale and
bench_enter_batch additionally enforce their own acceptance thresholds;
a violation fails the gate even when every baseline delta is within
tolerance.

  tools/bench_gate.py                         # run, write, compare
  tools/bench_gate.py --update-baseline       # refresh the baseline
  tools/bench_gate.py --max-procs 4 --skip-gbench   # quick smoke

Only metrics with "gate": true participate in the comparison; all of them
come from the vtime engine, whose virtual-cycle makespans are bit-identical
on any machine, so a >tolerance delta is a real code regression, not noise.
See docs/benchmarking.md for the schema and the refresh workflow.
"""

import argparse
import json
import os
import subprocess
import sys

SCHEMA = "selfsched-bench/v1"


def run_search_bench(build_dir, max_procs, tmp_path):
    exe = os.path.join(build_dir, "bench", "bench_search_scale")
    if not os.path.exists(exe):
        sys.exit(f"bench_gate: {exe} not built (cmake --build {build_dir})")
    subprocess.run([exe, "--json", tmp_path, "--max-procs", str(max_procs)],
                   check=True, stdout=subprocess.DEVNULL)
    with open(tmp_path) as f:
        data = json.load(f)
    os.unlink(tmp_path)
    return data["metrics"]


# The vtime sweeps gated against their own committed baselines, each also
# enforcing its own acceptance thresholds: (tag, bench, baseline flag).
#   adaptive  E16 adaptive-vs-static portfolio (within 10% of the best
#             static, >=1.3x over the worst, bit-identical replay);
#   shard     E17 sharded-vs-flat index dispatch (G=4 >= 1.3x flat at P=8
#             on short-instance churn, G=1 bit-equal to the flat path);
#   enter     E18 batched ENTER + sharded ICB arena (batched+G8 >= 1.25x
#             the seed path at P=8 m=256, enter_batch=false bit-equal).
ACCEPTING_BENCHES = (("adaptive", "bench_adaptive", "adaptive_baseline"),
                     ("shard", "bench_shard_scale", "shard_baseline"),
                     ("enter", "bench_enter_batch", "enter_baseline"))


def run_accepting_bench(build_dir, name, tmp_path):
    """Run one of ACCEPTING_BENCHES: vtime, deterministic.  The bench exits
    nonzero when its acceptance thresholds are violated — surface that as a
    gate failure, not just a baseline delta.  Returns (metrics, ok)."""
    exe = os.path.join(build_dir, "bench", name)
    if not os.path.exists(exe):
        sys.exit(f"bench_gate: {exe} not built (cmake --build {build_dir})")
    proc = subprocess.run([exe, "--json", tmp_path],
                          capture_output=True, text=True)
    accept_ok = proc.returncode == 0
    if not accept_ok:
        for line in proc.stdout.splitlines():
            if "ACCEPTANCE FAIL" in line:
                print(f"bench_gate: {line}")
    with open(tmp_path) as f:
        data = json.load(f)
    os.unlink(tmp_path)
    return data["metrics"], accept_ok


def run_overhead_bench(build_dir):
    """google-benchmark wall-clock numbers: informational, never gated."""
    exe = os.path.join(build_dir, "bench", "bench_overheads")
    if not os.path.exists(exe):
        print(f"bench_gate: note: {exe} not built, skipping overhead bench")
        return []
    proc = subprocess.run(
        [exe, "--benchmark_format=json", "--benchmark_min_time=0.05"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print("bench_gate: note: bench_overheads failed, skipping:"
              f" {proc.stderr.strip()[:200]}")
        return []
    metrics = []
    for b in json.loads(proc.stdout).get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        metrics.append({
            "name": f"overheads/{b['name']}/real_time",
            "value": b["real_time"],
            "unit": b.get("time_unit", "ns"),
            "better": "less",
            "deterministic": False,
            "gate": False,
        })
    return metrics


def parse_hook_overhead(text):
    """Fold bench_hook_overhead's table into ungated metrics: one
    hook_overhead/<row>_vs_bare ratio per instrumented row (the bare row is
    the shared denominator and reads 1.0 by construction)."""
    metrics = []
    columns = None
    for line in text.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if columns is None:
            if cells[0] == "config" and "vs_bare" in cells:
                columns = cells
            continue
        if len(cells) != len(columns) or cells[0] == "bare":
            continue
        try:
            ratio = float(cells[columns.index("vs_bare")])
        except ValueError:
            continue
        metrics.append({
            "name": f"hook_overhead/{cells[0]}_vs_bare",
            "value": ratio,
            "unit": "ratio",
            "better": "less",
            "deterministic": False,
            "gate": False,
        })
    return metrics


def run_hook_overhead_bench(build_dir):
    """Instrumentation-seam cost ratios (bench_hook_overhead: trace, audit
    and fault rows against one bare baseline): wall-clock, informational,
    never gated."""
    exe = os.path.join(build_dir, "bench", "bench_hook_overhead")
    if not os.path.exists(exe):
        print(f"bench_gate: note: {exe} not built, skipping hook bench")
        return []
    proc = subprocess.run([exe], capture_output=True, text=True)
    if proc.returncode != 0:
        print("bench_gate: note: bench_hook_overhead failed, skipping:"
              f" {proc.stderr.strip()[:200]}")
        return []
    return parse_hook_overhead(proc.stdout)


def run_serve_bench(build_dir, tmp_path):
    """Resident-service latency/throughput (bench_serve, E15): wall-clock
    and host-load sensitive, informational only — every row arrives with
    gate:false and is never compared against the baseline."""
    exe = os.path.join(build_dir, "bench", "bench_serve")
    if not os.path.exists(exe):
        print(f"bench_gate: note: {exe} not built, skipping serve bench")
        return []
    proc = subprocess.run([exe, "--json", tmp_path, "--programs", "16",
                           "--iters", "600"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print("bench_gate: note: bench_serve failed, skipping:"
              f" {proc.stderr.strip()[:200]}")
        return []
    with open(tmp_path) as f:
        data = json.load(f)
    os.unlink(tmp_path)
    return data["metrics"]


def compare(baseline, current, tolerance):
    """Return (regressions, improvements, compared, only_base, only_cur,
    malformed) over gated metrics.  A metric missing "value"/"better" lands
    in `malformed` by name instead of raising KeyError mid-comparison."""
    base = {m.get("name", "<unnamed>"): m
            for m in baseline.get("metrics", []) if m.get("gate")}
    cur = {m.get("name", "<unnamed>"): m
           for m in current.get("metrics", []) if m.get("gate")}
    regressions, improvements, malformed, compared = [], [], [], 0
    for name in sorted(base.keys() & cur.keys()):
        old, new = base[name], cur[name]
        missing = [k for k in ("value", "better") if k not in old]
        missing += [k for k in ("value",) if k not in new]
        if missing:
            malformed.append((name, sorted(set(missing))))
            continue
        compared += 1
        if old["value"] == 0:
            continue
        ratio = new["value"] / old["value"]
        # "less" metrics regress upward, "more" metrics regress downward.
        delta = ratio - 1.0 if old["better"] == "less" else 1.0 - ratio
        entry = (name, old["value"], new["value"], delta)
        if delta > tolerance:
            regressions.append(entry)
        elif delta < -tolerance:
            improvements.append(entry)
    only_base = sorted(base.keys() - cur.keys())
    only_cur = sorted(cur.keys() - base.keys())
    return regressions, improvements, compared, only_base, only_cur, malformed


def evaluate(baseline, current, tolerance, allow_missing=False):
    """Apply the gate policy; returns (ok, lines).

    A gated baseline metric absent from a fresh run at the SAME max_procs
    is a failure with the missing names spelled out — a silently shrinking
    bench would otherwise pass the gate forever.  A shorter sweep
    (different max_procs) stays a note, as does --allow-missing.
    """
    regs, imps, compared, only_base, only_cur, malformed = compare(
        baseline, current, tolerance)
    lines = [f"bench_gate: compared {compared} gated metrics "
             f"(tolerance {tolerance:.0%})"]
    ok = True
    if malformed:
        for name, keys in malformed:
            lines.append(f"  MALFORMED {name}: missing {', '.join(keys)}")
        lines.append(f"bench_gate: FAIL — {len(malformed)} metric(s) "
                     "malformed; refresh with --update-baseline")
        ok = False
    if only_base:
        names = ", ".join(only_base[:5]) + (", ..." if len(only_base) > 5
                                            else "")
        if baseline.get("max_procs") != current.get("max_procs"):
            lines.append(f"bench_gate: note: {len(only_base)} baseline "
                         f"metrics not in this run ({names}) — smoke sweep?")
        elif allow_missing:
            lines.append(f"bench_gate: note: {len(only_base)} baseline "
                         f"metrics not in this run ({names}) — waived by "
                         "--allow-missing")
        else:
            lines.append(f"bench_gate: FAIL — {len(only_base)} gated "
                         f"baseline metric(s) missing from this run: {names}")
            lines.append("  (sweep matches the baseline's max_procs, so the "
                         "bench lost coverage; --allow-missing waives)")
            ok = False
    if only_cur:
        lines.append(f"bench_gate: note: {len(only_cur)} new metrics not in "
                     f"the baseline (first: {only_cur[0]}) — refresh the "
                     "baseline")
    for name, old, new, delta in imps:
        lines.append(f"  IMPROVED  {name}: {old:g} -> {new:g} ({delta:+.1%})")
    for name, old, new, delta in regs:
        lines.append(f"  REGRESSED {name}: {old:g} -> {new:g} ({delta:+.1%})")
    if regs:
        lines.append(f"bench_gate: FAIL — {len(regs)} gated metrics "
                     f"regressed beyond {tolerance:.0%}")
        ok = False
    if ok:
        lines.append("bench_gate: OK")
    return ok, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baseline", default="BENCH_search.json",
                    help="committed baseline to compare against")
    ap.add_argument("--adaptive-baseline", default="BENCH_adaptive.json",
                    help="committed baseline for the E16 adaptive bench")
    ap.add_argument("--shard-baseline", default="BENCH_shard.json",
                    help="committed baseline for the E17 shard bench")
    ap.add_argument("--enter-baseline", default="BENCH_enter.json",
                    help="committed baseline for the E18 batched-ENTER "
                         "bench")
    ap.add_argument("--out", default=None,
                    help="write the fresh results here "
                         "(default: BENCH_search.new.json)")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional regression on gated metrics")
    ap.add_argument("--max-procs", type=int, default=8,
                    help="cap of the simulated-processor sweep; must match "
                         "the baseline's for a full comparison")
    ap.add_argument("--update-baseline", action="store_true",
                    help="overwrite --baseline with fresh results and exit")
    ap.add_argument("--skip-gbench", action="store_true",
                    help="skip the wall-clock overhead bench (informational "
                         "metrics only)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="downgrade gated baseline metrics missing from a "
                         "same-max-procs run from failure to note")
    args = ap.parse_args()

    metrics = run_search_bench(args.build_dir, args.max_procs,
                               os.path.join(args.build_dir,
                                            "bench_search_tmp.json"))
    # (tag, baseline path, fresh results); the accepting benches always
    # sweep at P=8, independent of --max-procs.
    runs, accept_failed = [], []
    for tag, name, flag in ACCEPTING_BENCHES:
        bench_metrics, accept_ok = run_accepting_bench(
            args.build_dir, name,
            os.path.join(args.build_dir, f"{name}_tmp.json"))
        runs.append((tag, getattr(args, flag),
                     {"schema": SCHEMA, "max_procs": 8,
                      "metrics": bench_metrics}))
        if not accept_ok:
            accept_failed.append(name)
    if not args.skip_gbench:
        metrics += run_overhead_bench(args.build_dir)
        metrics += run_hook_overhead_bench(args.build_dir)
        metrics += run_serve_bench(args.build_dir,
                                   os.path.join(args.build_dir,
                                                "bench_serve_tmp.json"))

    current = {"schema": SCHEMA, "max_procs": args.max_procs,
               "metrics": metrics}
    runs.insert(0, ("search", args.baseline, current))

    if args.update_baseline:
        # The committed baselines must be machine-independent: keep only
        # the deterministic (vtime) metrics, never wall-clock ones.
        for _, path, cur in runs:
            kept = [m for m in cur["metrics"] if m["deterministic"]]
            with open(path, "w") as f:
                json.dump({"schema": SCHEMA,
                           "max_procs": cur["max_procs"],
                           "metrics": kept}, f, indent=1)
                f.write("\n")
            gated = sum(1 for m in kept if m["gate"])
            print(f"bench_gate: wrote {path} "
                  f"({len(kept)} metrics, {gated} gated)")
        return 1 if accept_failed else 0

    out = args.out or "BENCH_search.new.json"
    with open(out, "w") as f:
        json.dump(current, f, indent=1)
        f.write("\n")
    print(f"bench_gate: wrote {out} ({len(metrics)} metrics)")

    ok = True
    for tag, path, cur in runs:
        if not os.path.exists(path):
            sys.exit(f"bench_gate: baseline {path} not found — run "
                     "with --update-baseline to create it")
        with open(path) as f:
            baseline = json.load(f)
        if baseline.get("schema") != SCHEMA:
            sys.exit(f"bench_gate: baseline schema "
                     f"{baseline.get('schema')!r} != {SCHEMA!r}; refresh "
                     "with --update-baseline")
        this_ok, lines = evaluate(baseline, cur, args.tolerance,
                                  args.allow_missing)
        print(f"bench_gate: [{tag}]")
        print("\n".join(lines))
        ok = ok and this_ok
    for name in accept_failed:
        print(f"bench_gate: FAIL — {name} acceptance thresholds violated "
              "(see ACCEPTANCE FAIL lines above)")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
