// Low-level self-scheduling strategies (§II-C, §IV): how many iterations a
// processor grabs from an instance's shared `index` variable per dispatch.
// Each strategy is one of three grab protocols over a pure chunk rule.
//
// Fixed: {index <= b ; Fetch&Add(k)}, with k known before the grab.
//   kSelf        one iteration per fetch&increment — the original HEP-style
//                self-scheduling [7]; also the SDSS discipline for Doacross
//                loops [16] (chunking a Doacross serializes k-1 of every k
//                iterations, §I).
//   kChunk       fixed chunk of k iterations per fetch&add(k) — Eq. (7)'s
//                parameter k.
//   kAdaptive    meta-strategy: seeds the chunk size from the §IV analytical
//                optimum (analysis::optimal_adaptive_chunk, Eq. 7 extended
//                with a tail-imbalance term) and retunes it per instance
//                from per-chunk timing feedback (adaptive_feedback below).
//
// Sequenced: Increment(aux) gives the grab its dispatch sequence number seq,
// then {index <= b ; Fetch&Add(rule(seq))}.
//   kTrapezoid   trapezoid self-scheduling (Tzen/Ni): linearly decreasing
//                chunks from `first` to `last` (extension).
//   kFactoring2  true batched factoring: batch r hands out P *equal* chunks
//                of k_r = ceil(R_r / 2P) before recomputing, R_{r+1} =
//                R_r - P*k_r.
//   kWeightedFactoring
//                factoring2 with static per-processor weights: worker p's
//                chunk in batch r is ceil(k_r * P * w_p / sum(w)), for
//                heterogeneous processors (Hummel et al. WF).
//   kTrapezoidTuned
//                TSS with the Tzen/Ni tuned endpoints — first = ceil(b/2P),
//                exact dispatch count N = ceil(2b/(f+l)) — and a 16.16
//                fixed-point decrement so the ramp hits `last` exactly
//                instead of flooring the slope to an integer.
//
// Remaining: the rule needs remaining = bound - index + 1 read-then-update
// atomically; the paper's equality test turns test-and-op into compare-and-
// swap: Fetch, then {index == seen ; Fetch&Add(rule(remaining))}, retried
// on interference.
//   kGSS         guided self-scheduling [14]: grab ceil(remaining / P).
//   kFactoring   grab ceil(remaining / (2P)) — a batch-free rendition of
//                Hummel/Schonberg/Flynn factoring (extension).
//   kRandomSteal random/steal hybrid: while plenty of work remains, grab a
//                hash-derived random chunk in [ceil(R/4P), R/2P] (decorrelates
//                contention bursts); once R <= 2P, fall back to single-
//                iteration grabs — the "steal the tail one at a time"
//                endgame that bounds imbalance by one iteration.
//
// Cancellation containment: every strategy gates its grab on {index <= b}
// (directly, or via the fetch-then-CAS pair whose CAS re-checks the fetched
// value).  Poisoning index to b+1 therefore stops all of them — see
// poison_pool in high_level.hpp.
#pragma once

#include <algorithm>
#include <ctime>

#include "analysis/model.hpp"
#include "audit/hooks.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/shard_math.hpp"
#include "exec/context.hpp"
#include "runtime/ctx_sync.hpp"
#include "runtime/icb.hpp"
#include "trace/recorder.hpp"

namespace selfsched::runtime {

/// Ceiling on the adaptive tuner's chunk search (bounds the argmin scan in
/// analysis::optimal_adaptive_chunk and keeps retunes O(cap)).
inline constexpr i64 kAdaptiveChunkCap = 1024;

/// Linear contention slope fed to the Eq. 7 O2(k) model by the tuner.
inline constexpr double kAdaptiveContentionSlope = 0.25;

/// Prior per-iteration body time (engine ticks) used to seed kAdaptive when
/// the caller supplies none.  Matches SchedOptions::default_body_cost so the
/// vtime seed chunk is the model optimum for the default workload.
inline constexpr i64 kAdaptiveDefaultTau = 100;

/// Calibrated per-dispatch (O1) and per-SEARCH (O2) overheads, in
/// nanoseconds, for the threaded engine's tuner inputs.  Rough uncontended
/// x86 figures: one fetch&add ~20ns hot, a SEARCH walks SW + a list lock.
inline constexpr double kAdaptiveThreadO1 = 60.0;
inline constexpr double kAdaptiveThreadO2 = 400.0;

struct Strategy {
  enum class Kind : u32 {
    kSelf,
    kChunk,
    kGSS,
    kFactoring,
    kTrapezoid,
    kFactoring2,
    kWeightedFactoring,
    kTrapezoidTuned,
    kRandomSteal,
    kAdaptive,
  };

  Kind kind = Kind::kSelf;
  i64 chunk = 1;      // kChunk: fixed size; kGSS/kFactoring/kFactoring2/
                      // kWeightedFactoring/kRandomSteal: minimum chunk;
                      // kAdaptive: minimum chunk clamp
  i64 tss_first = 0;  // kTrapezoid/kTrapezoidTuned: first chunk (0 = auto)
  i64 tss_last = 1;   // kTrapezoid/kTrapezoidTuned: final chunk
  u64 wf_weights = 0;  // kWeightedFactoring: 8 per-worker weight bytes,
                       // worker p uses byte p%8; a zero byte means weight 1
                       // (so 0 as a whole = uniform = factoring2)
  u64 rs_seed = 1;    // kRandomSteal: hash seed for the chunk-size draw
  i64 adapt_tau = 0;  // kAdaptive: prior body ticks (0 = kAdaptiveDefaultTau)
  i64 adapt_max = 0;  // kAdaptive: chunk ceiling (0 = auto min(b/P, cap))

  static Strategy self() { return {Kind::kSelf}; }
  static Strategy chunked(i64 k) {
    SS_CHECK(k >= 1);
    return {Kind::kChunk, k};
  }
  static Strategy gss(i64 min_chunk = 1) {
    SS_CHECK(min_chunk >= 1);
    return {Kind::kGSS, min_chunk};
  }
  static Strategy factoring(i64 min_chunk = 1) {
    SS_CHECK(min_chunk >= 1);
    return {Kind::kFactoring, min_chunk};
  }
  static Strategy trapezoid(i64 first = 0, i64 last = 1) {
    SS_CHECK(last >= 1 && (first == 0 || first >= last));
    return {Kind::kTrapezoid, 1, first, last};
  }
  static Strategy factoring2(i64 min_chunk = 1) {
    SS_CHECK(min_chunk >= 1);
    return {Kind::kFactoring2, min_chunk};
  }
  static Strategy weighted_factoring(u64 weights = 0, i64 min_chunk = 1) {
    SS_CHECK(min_chunk >= 1);
    Strategy s{Kind::kWeightedFactoring, min_chunk};
    s.wf_weights = weights;
    return s;
  }
  static Strategy trapezoid_tuned(i64 first = 0, i64 last = 1) {
    SS_CHECK(last >= 1 && (first == 0 || first >= last));
    return {Kind::kTrapezoidTuned, 1, first, last};
  }
  static Strategy random_steal(u64 seed = 1, i64 min_chunk = 1) {
    SS_CHECK(min_chunk >= 1);
    Strategy s{Kind::kRandomSteal, min_chunk};
    s.rs_seed = seed;
    return s;
  }
  static Strategy adaptive(i64 tau_prior = 0, i64 min_chunk = 1,
                           i64 max_chunk = 0) {
    SS_CHECK(tau_prior >= 0 && min_chunk >= 1 && max_chunk >= 0);
    Strategy s{Kind::kAdaptive, min_chunk};
    s.adapt_tau = tau_prior;
    s.adapt_max = max_chunk;
    return s;
  }

  const char* name() const {
    switch (kind) {
      case Kind::kSelf: return "self(1)";
      case Kind::kChunk: return "chunk";
      case Kind::kGSS: return "gss";
      case Kind::kFactoring: return "factoring";
      case Kind::kTrapezoid: return "trapezoid";
      case Kind::kFactoring2: return "factoring2";
      case Kind::kWeightedFactoring: return "wfactoring";
      case Kind::kTrapezoidTuned: return "tss2";
      case Kind::kRandomSteal: return "randsteal";
      case Kind::kAdaptive: return "adaptive";
    }
    return "?";
  }
};

/// Result of one low-level dispatch attempt on an ICB.
struct Dispatch {
  i64 first = 0;  // first grabbed iteration (1-based); valid if count > 0
  i64 count = 0;  // 0 => instance fully scheduled, detach and SEARCH
  bool last_scheduled = false;  // this grab took the final iteration =>
                                // caller must DELETE the ICB from its list
};

/// Batched-factoring chunk size at dispatch sequence number `seq` (0-based):
/// batch r = seq/P hands out P chunks of k_r = max(min_chunk, ceil(R_r/2P)),
/// R_{r+1} = R_r - P*k_r.  Pure in (b, procs, seq, min_chunk), so it is both
/// the dispatcher's sizing rule and the conformance oracle.  Once R_r
/// reaches 0 the size floors at min_chunk; grabs at that point fail the
/// {index <= b} gate anyway.
inline i64 factoring2_chunk_at(i64 b, u32 procs, i64 seq, i64 min_chunk) {
  const i64 p = std::max<i64>(1, static_cast<i64>(procs));
  const i64 batch = seq / p;
  i64 remaining = b;
  i64 k = std::max<i64>(1, min_chunk);
  for (i64 r = 0;; ++r) {
    k = std::max(min_chunk, (remaining + 2 * p - 1) / (2 * p));
    if (r == batch || remaining == 0) break;
    remaining = std::max<i64>(0, remaining - p * k);
  }
  return std::max<i64>(1, k);
}

/// Weighted-factoring chunk size of worker `proc` at dispatch sequence
/// `seq`: the factoring2 batch chunk scaled by the worker's share of the
/// weight mass, ceil(k_r * P * w_p / sum(w)).  Worker p's weight is byte
/// p%8 of the packed word, with 0 read as 1 so an unset byte (and an
/// all-zero word) means "uniform".  Pure.
inline i64 wfactoring_chunk_at(i64 b, u32 procs, i64 seq, i64 min_chunk,
                               u64 weights, u32 proc) {
  const auto weight = [weights](u32 q) {
    const u64 byte = (weights >> ((q % 8) * 8)) & 0xff;
    return byte == 0 ? i64{1} : static_cast<i64>(byte);
  };
  i64 wsum = 0;
  for (u32 q = 0; q < std::max<u32>(1, procs); ++q) wsum += weight(q);
  const i64 k = factoring2_chunk_at(b, procs, seq, min_chunk);
  const i64 p = std::max<i64>(1, static_cast<i64>(procs));
  return std::max(min_chunk, (k * p * weight(proc) + wsum - 1) / wsum);
}

/// Classic trapezoid chunk size at dispatch sequence `seq`: chunks decrease
/// linearly, c(n) = max(last, first - n*delta), from first f (default
/// floor(b/2P)) with the integer slope delta = (f-l)/(N-1), where N =
/// ceil(b/avg) dispatches consume the loop at the average chunk (f+l)/2.
/// A shallow ramp floors delta to 0 (constant chunks); tss2 below keeps
/// the fraction.  Pure.
inline i64 trapezoid_chunk_at(i64 b, u32 procs, i64 seq, i64 tss_first,
                              i64 tss_last) {
  const i64 p = std::max<i64>(1, static_cast<i64>(procs));
  const i64 f = tss_first > 0 ? tss_first : std::max<i64>(1, b / (2 * p));
  const i64 avg = std::max<i64>(1, (f + tss_last) / 2);
  const i64 nd = std::max<i64>(1, (b + avg - 1) / avg);
  const i64 delta =
      nd > 1 ? std::max<i64>(0, (f - tss_last) / (nd - 1)) : 0;
  return std::max(tss_last, f - seq * delta);
}

/// Tuned-TSS chunk size at dispatch sequence `seq`: first f (default
/// ceil(b/2P)), last l (clamped to f), N = max(2, ceil(2b/(f+l))) dispatches,
/// 16.16 fixed-point ramp so want(N-1) lands on l exactly.  Pure — doubles
/// as the conformance oracle.
inline i64 tss2_chunk_at(i64 b, u32 procs, i64 seq, i64 tss_first,
                         i64 tss_last) {
  const i64 p = std::max<i64>(1, static_cast<i64>(procs));
  const i64 f =
      tss_first > 0 ? tss_first : std::max<i64>(1, (b + 2 * p - 1) / (2 * p));
  const i64 l = std::max<i64>(1, std::min(tss_last, f));
  const i64 nd = std::max<i64>(2, (2 * b + f + l - 1) / (f + l));
  const i64 delta_fp = ((f - l) << 16) / (nd - 1);
  return std::max(l, f - ((seq * delta_fp) >> 16));
}

/// Random/steal chunk size for a grab that fetched `index_seen` with
/// `remaining` iterations left.  Hashes (seed, index) — the fetched index is
/// unique per successful grab, so no extra sync var is consumed and the
/// draw is pure: the conformance oracle replays it exactly.
inline i64 random_steal_chunk(u64 seed, i64 index_seen, i64 remaining,
                              u32 procs, i64 min_chunk) {
  const i64 p = std::max<i64>(1, static_cast<i64>(procs));
  if (remaining <= 2 * p) return 1;  // steal endgame: finest grain
  const i64 lo = std::max(min_chunk, (remaining + 4 * p - 1) / (4 * p));
  const i64 hi = std::max(lo, remaining / (2 * p));
  const u64 h =
      mix64(seed ^ (static_cast<u64>(index_seen) * 0x9e3779b97f4a7c15ULL));
  return lo + static_cast<i64>(h % static_cast<u64>(hi - lo + 1));
}

/// Chunk rule of a sequenced strategy (trapezoid, factoring2, wfactoring,
/// tss2): the size of grab `seq` of a `span`-iteration range by worker
/// `proc`.
inline i64 sequenced_chunk(const Strategy& s, i64 span, u32 procs, i64 seq,
                           u32 proc) {
  switch (s.kind) {
    case Strategy::Kind::kTrapezoid:
      return trapezoid_chunk_at(span, procs, seq, s.tss_first, s.tss_last);
    case Strategy::Kind::kWeightedFactoring:
      return wfactoring_chunk_at(span, procs, seq, s.chunk, s.wf_weights,
                                 proc);
    case Strategy::Kind::kTrapezoidTuned:
      return tss2_chunk_at(span, procs, seq, s.tss_first, s.tss_last);
    default:
      return factoring2_chunk_at(span, procs, seq, s.chunk);
  }
}

/// Chunk rule of a remaining-sized strategy (gss, factoring, randsteal):
/// the size of a grab that fetched `index_seen` with `remaining` left.
/// GSS and factoring share the guided rule ceil(R/div), floored at the
/// minimum chunk; GSS divides by P, factoring by 2P.
inline i64 remaining_chunk(const Strategy& s, i64 remaining, i64 index_seen,
                           u32 procs) {
  if (s.kind == Strategy::Kind::kRandomSteal) {
    return random_steal_chunk(s.rs_seed, index_seen, remaining, procs,
                              s.chunk);
  }
  const i64 div = static_cast<i64>(procs) *
                  (s.kind == Strategy::Kind::kFactoring ? 2 : 1);
  return std::max(s.chunk, (remaining + div - 1) / div);
}

/// Pure core of the adaptive tuner: the completion-time-optimal chunk for an
/// instance of `b` iterations on `procs` workers given a body-time estimate
/// `tau` and engine overheads (o1 per dispatch, o2 per SEARCH), clamped to
/// [min_chunk, min(max_chunk or b/P, kAdaptiveChunkCap)].  Exposed
/// non-templated so tests can assert the seed matches the analysis model
/// exactly.
inline i64 adaptive_chunk_for(double tau, double o1, double o2, i64 b,
                              u32 procs, i64 min_chunk = 1, i64 max_chunk = 0) {
  if (b < 1) b = 1;
  const u32 p = std::max<u32>(1, procs);
  analysis::UtilizationParams up;
  up.tau = std::max(tau, 0.0);
  up.o1 = o1;
  up.o2 = o2;
  up.n = std::max(1.0, static_cast<double>(b) / static_cast<double>(p));
  up.o3 = 0;
  up.big_n = static_cast<double>(b);
  i64 k_max = max_chunk > 0 ? max_chunk
                            : std::max<i64>(1, b / static_cast<i64>(p));
  k_max = std::min(k_max, kAdaptiveChunkCap);
  const i64 k = analysis::optimal_adaptive_chunk(up, p, b, k_max,
                                                 kAdaptiveContentionSlope);
  const i64 lo = std::max<i64>(1, min_chunk);
  return std::clamp(k, lo, std::max(lo, k_max));
}

/// Engine-specific tuner inputs: body-time prior plus O1/O2 in the engine's
/// native tick (vcycles from the cost model; calibrated ns on threads).
struct AdaptiveInputs {
  double tau = 0;
  double o1 = 0;
  double o2 = 0;
};

template <exec::ExecutionContext C>
AdaptiveInputs adaptive_inputs(C& ctx, const Strategy& s) {
  AdaptiveInputs in;
  in.tau = static_cast<double>(s.adapt_tau > 0 ? s.adapt_tau
                                               : kAdaptiveDefaultTau);
  if constexpr (C::kIsSimulated) {
    // One dispatch = the {index <= b ; Fetch&Add} plus its arithmetic; one
    // SEARCH ≈ SW probe + list lock/unlock + a couple of list steps.
    const auto& c = ctx.costs();
    in.o1 = 2.0 * static_cast<double>(c.sync_op);
    in.o2 = 3.0 * static_cast<double>(c.sync_op) +
            4.0 * static_cast<double>(c.list_step);
  } else {
    in.o1 = kAdaptiveThreadO1;
    in.o2 = kAdaptiveThreadO2;
  }
  return in;
}

/// Seed chunk for one instance: the model optimum under the prior tau.
template <exec::ExecutionContext C>
i64 adaptive_seed_chunk(C& ctx, const Strategy& s, i64 b, u32 procs) {
  const AdaptiveInputs in = adaptive_inputs(ctx, s);
  return adaptive_chunk_for(in.tau, in.o1, in.o2, b, procs, s.chunk,
                            s.adapt_max);
}

/// Per-chunk clock for adaptive feedback: virtual cycles on the vtime
/// engine (deterministic, replayable), thread-CPU nanoseconds on threads
/// (immune to other tenants' wall time).
template <exec::ExecutionContext C>
Cycles adaptive_clock(C& ctx) {
  if constexpr (C::kIsSimulated) {
    return ctx.now();
  } else {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<Cycles>(ts.tv_sec) * 1'000'000'000 +
           static_cast<Cycles>(ts.tv_nsec);
  }
}

/// The instance's current adaptive chunk.  The first arrival runs a seeding
/// election ({adapt == 0 ; Store k0}) so exactly one worker's model
/// evaluation is adopted and every loser reads the winner's k0.  Tuning
/// state stays instance-global under sharding: the tuned chunk and tau EWMA
/// live in the ICB's own sync vars and the seed optimizes for the whole
/// instance (bound, all P workers), so every shard grabs with the same
/// adaptively tuned k.
template <exec::ExecutionContext C>
i64 adaptive_chunk(C& ctx, Icb<C>& icb, const Strategy& s) {
  const i64 k =
      ctx.sync_op(icb.adapt, sync::Test::kNone, 0, sync::Op::kFetch).fetched;
  if (k > 0) return k;
  if constexpr (C::kIsSimulated) ctx.charge(ctx.costs().dispatch_arith);
  const i64 k0 = adaptive_seed_chunk(ctx, s, icb.bound, ctx.num_procs());
  if (ctx.sync_op(icb.adapt, sync::Test::kEQ, 0, sync::Op::kStore, k0)
          .success) {
    trace::bump(ctx, &trace::Counters::adapt_seeds);
    return k0;
  }
  return std::max<i64>(
      1, ctx.sync_op(icb.adapt, sync::Test::kNone, 0, sync::Op::kFetch)
             .fetched);
}

/// Grab the next block of iterations from one contiguous sub-range [lo, hi]
/// driven by the (index, aux) counter pair, according to `s`.  This is the
/// paper's "start:" step generalized twice: to multi-iteration chunks
/// ({index <= hi ; Fetch&Add(k)}) and to an arbitrary sub-range, so the same
/// switch serves both the flat low level (lo = 1, hi = bound, the instance's
/// own counters) and one shard of a sharded index (the shard's counters and
/// ownership range, with `procs` the shard's worker share so remaining/P
/// rules see their actual contenders).  One case block per grab protocol
/// (see the top of this file); the vtime golden results pin its op and
/// charge sequence per strategy.
///
/// `last_scheduled` on return means "this grab took the final iteration of
/// [lo, hi]"; the sharded caller converts that into the instance-wide
/// completion election.
template <exec::ExecutionContext C>
Dispatch dispatch_range(C& ctx, Icb<C>& icb, typename C::Sync& index,
                        typename C::Sync& aux, i64 lo, i64 hi, u32 procs,
                        const Strategy& s) {
  using Kind = Strategy::Kind;
  const i64 b = hi;             // gate / remaining-count anchor
  const i64 span = hi - lo + 1;  // total work the chunk rules size against

  const auto finish = [b](i64 first, i64 want) {
    Dispatch d;
    d.first = first;
    d.count = std::min(want, b - first + 1);
    d.last_scheduled = (first + d.count - 1 == b);
    return d;
  };

  switch (s.kind) {
    case Kind::kSelf:
    case Kind::kChunk:
    case Kind::kAdaptive: {
      const i64 k = s.kind == Kind::kSelf    ? 1
                    : s.kind == Kind::kChunk ? s.chunk
                                             : adaptive_chunk(ctx, icb, s);
      const auto r = ctx.sync_op(index, sync::Test::kLE, b,
                                 sync::Op::kFetchAdd, k);
      if (!r.success) return {};
      return finish(r.fetched, k);
    }

    case Kind::kTrapezoid:
    case Kind::kFactoring2:
    case Kind::kWeightedFactoring:
    case Kind::kTrapezoidTuned: {
      const auto seq =
          ctx.sync_op(aux, sync::Test::kNone, 0, sync::Op::kIncrement);
      if constexpr (C::kIsSimulated) ctx.charge(ctx.costs().dispatch_arith);
      const i64 want = sequenced_chunk(s, span, procs, seq.fetched, ctx.proc());
      const auto r = ctx.sync_op(index, sync::Test::kLE, b,
                                 sync::Op::kFetchAdd, want);
      if (!r.success) return {};
      return finish(r.fetched, want);
    }

    case Kind::kGSS:
    case Kind::kFactoring:
    case Kind::kRandomSteal:
      for (;;) {
        const auto seen =
            ctx.sync_op(index, sync::Test::kLE, b, sync::Op::kFetch);
        if (!seen.success) return {};
        if constexpr (C::kIsSimulated) ctx.charge(ctx.costs().dispatch_arith);
        const i64 want =
            remaining_chunk(s, b - seen.fetched + 1, seen.fetched, procs);
        const auto cas = ctx.sync_op(index, sync::Test::kEQ, seen.fetched,
                                     sync::Op::kFetchAdd, want);
        if (cas.success) return finish(cas.fetched, want);
        // Another processor moved index between our Fetch and our CAS;
        // re-read and retry with the new remaining count.
        trace::bump(ctx, &trace::Counters::cas_retries);
      }
  }
  return {};
}

/// vtime topology model: a sync op on a counter homed in the topology group
/// of shard `g` of `g_count` (a flat index is shard 0 of 1, homed in group
/// 0) pays the remote-hop premium when issued from another group.
template <exec::ExecutionContext C>
void charge_cross_group(C& ctx, u32 g, u32 g_count) {
  if constexpr (C::kIsSimulated) {
    const auto& cm = ctx.costs();
    if (cm.topo_groups > 1 &&
        shard::topo_group_of(ctx.proc(), ctx.num_procs(), cm.topo_groups) !=
            shard::shard_home_group(g, g_count, cm.topo_groups)) {
      ctx.charge(cm.cross_group_sync_extra);
    }
  }
}

/// Sharded low-level dispatch (SchedOptions::index_shards > 1; see
/// docs/sharding.md).  The worker probes its home shard first (block mapping
/// by processor id), then siblings in ascending rotation — steal-on-
/// exhaustion: a cross-shard probe only happens once the previous shard was
/// observed drained.  The instance-wide exactly-once completion election
/// generalizes from "the grab that took iteration b" to "the grab that took
/// the last iteration of the last live shard to drain": each live shard's
/// final iteration is granted exactly once (same monotone-index argument as
/// the flat gate), that grab increments `sched_done`, and the increment that
/// observes live_shards - 1 wins the election.
///
/// vtime topology model: a probe of a shard homed outside the worker's
/// topology group is charged cross_group_sync_extra, and every steal probe
/// (any non-home shard) adds steal_probe_extra.  All decisions are functions
/// of engine-serialized sync ops, so sharded runs — including which shard a
/// worker stole from — record and replay bit-identically.
template <exec::ExecutionContext C>
Dispatch dispatch_sharded(C& ctx, Icb<C>& icb, const Strategy& s) {
  const u32 g_count = icb.num_shards;
  const u32 procs = ctx.num_procs();
  const u32 home = shard::home_shard_of(ctx.proc(), procs, g_count);
  const u32 sprocs = shard::shard_procs(procs, g_count);
  for (u32 probe = 0; probe < g_count; ++probe) {
    const u32 g = (home + probe) % g_count;
    IcbShard<C>& sh = icb.shards[g];
    if (sh.lo > sh.hi) continue;  // empty shard (bound < G): never granted
    const bool cross = g != home;
    if (cross) {
      trace::bump(ctx, &trace::Counters::cross_shard_ops);
      if constexpr (C::kIsSimulated) {
        ctx.charge(ctx.costs().steal_probe_extra);
      }
    }
    charge_cross_group(ctx, g, g_count);
    Dispatch d =
        dispatch_range(ctx, icb, sh.index, sh.aux, sh.lo, sh.hi, sprocs, s);
    if (d.count == 0) continue;  // shard drained: steal from the next sibling
    trace::bump(ctx, &trace::Counters::shard_grants);
    if (cross) trace::bump(ctx, &trace::Counters::shard_steals);
    audit::on_shard_grant(ctx, &icb, g, d.first, d.count, cross);
    if (d.last_scheduled) {
      // This grab drained shard g: join the completion election.
      const auto done = ctx.sync_op(icb.sched_done, sync::Test::kNone, 0,
                                    sync::Op::kIncrement);
      const bool complete =
          done.fetched + 1 == static_cast<i64>(icb.live_shards);
      audit::on_shard_exhaust(ctx, &icb, g, complete);
      d.last_scheduled = complete;
    }
    return d;
  }
  return {};  // every shard drained: instance fully scheduled
}

/// Grab the next block of iterations from `icb` according to `s` — the flat
/// paper path when the instance's index is unsharded, the distributed path
/// otherwise.  Under the vtime topology model a flat index is homed in
/// group 0, so with topo_groups > 1 every dispatch from another group pays
/// the remote-hop premium — the saturation that E17 measures and sharding
/// removes.  With the default platform (topo_groups == 1) the flat path is
/// bit-identical to the pre-sharding dispatcher.
template <exec::ExecutionContext C>
Dispatch dispatch_iterations(C& ctx, Icb<C>& icb, const Strategy& s) {
  if (icb.num_shards > 1) return dispatch_sharded(ctx, icb, s);
  charge_cross_group(ctx, 0, 1);
  return dispatch_range(ctx, icb, icb.index, icb.aux, 1, icb.bound,
                        ctx.num_procs(), s);
}

/// Adaptive feedback: fold one completed chunk's measured duration into the
/// instance's body-time estimate (EWMA, alpha = 1/4) and re-minimize the
/// completion-time model; store the new chunk if it moved.  All state lives
/// in two ICB sync vars (`adapt`, `adapt_tau`), every access is a sync_op,
/// and the argmin is host-pure — so on the vtime engine the whole adaptation
/// trajectory is engine-serialized and bit-replayable.  Races between
/// concurrent feedbacks are benign: both stores are model outputs for
/// nearby tau estimates, and correctness never depends on `adapt` (the
/// {index <= b} gate does all the guarding).
template <exec::ExecutionContext C>
void adaptive_feedback(C& ctx, Icb<C>& icb, const Strategy& s, i64 count,
                       Cycles elapsed) {
  if (count <= 0) return;
  trace::bump(ctx, &trace::Counters::adapt_feedbacks);
  const i64 tau_obs =
      std::max<i64>(1, static_cast<i64>(elapsed) / std::max<i64>(1, count));
  const i64 tau_old =
      ctx.sync_op(icb.adapt_tau, sync::Test::kNone, 0, sync::Op::kFetch)
          .fetched;
  const i64 tau = tau_old > 0 ? (3 * tau_old + tau_obs) / 4 : tau_obs;
  ctx.sync_op(icb.adapt_tau, sync::Test::kNone, 0, sync::Op::kStore, tau);
  if constexpr (C::kIsSimulated) ctx.charge(ctx.costs().dispatch_arith);
  const AdaptiveInputs in = adaptive_inputs(ctx, s);
  const i64 k_new =
      adaptive_chunk_for(static_cast<double>(tau), in.o1, in.o2, icb.bound,
                         ctx.num_procs(), s.chunk, s.adapt_max);
  const i64 k_cur =
      ctx.sync_op(icb.adapt, sync::Test::kNone, 0, sync::Op::kFetch).fetched;
  if (k_cur > 0 && k_new != k_cur) {
    ctx.sync_op(icb.adapt, sync::Test::kNone, 0, sync::Op::kStore, k_new);
    trace::bump(ctx, &trace::Counters::adapt_retunes);
  }
}

}  // namespace selfsched::runtime
