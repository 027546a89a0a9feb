#include "audit/auditor.hpp"

#include <cstdarg>
#include <cstdio>
#include <utility>

#include "common/shard_math.hpp"

namespace selfsched::audit {

namespace {

#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string
fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace

const char* icb_state_name(IcbState s) {
  switch (s) {
    case IcbState::kFree: return "free";
    case IcbState::kAcquired: return "acquired";
    case IcbState::kPublished: return "published";
    case IcbState::kDraining: return "draining";
    case IcbState::kReleased: return "released";
  }
  return "?";
}

Auditor::Shadow& Auditor::shadow(const void* icb) { return icbs_[icb]; }

Auditor::Shadow* Auditor::generation_shadow(ProcId w, const void* icb,
                                            u64 gen, u32& v) {
  Shadow& s = shadow(icb);
  if (gen != 0 && gen == s.serial) return &s;
  if (gen == 0 || gen > next_serial_) {
    v += violate(&s, w, "unknown-generation",
                 fmt("hook names ICB generation %llu; %llu issued",
                     static_cast<unsigned long long>(gen),
                     static_cast<unsigned long long>(next_serial_)));
    return nullptr;
  }
  Shadow& r = retired_[gen];
  r.serial = gen;
  r.retired = true;
  return &r;
}

void Auditor::settle(u64 gen, const Shadow& s) {
  if (s.retired && s.attach_balance == 0) retired_.erase(gen);
}

u64 Auditor::generation(const void* icb) const {
  std::lock_guard lk(mu_);
  const auto it = icbs_.find(icb);
  return it == icbs_.end() ? 0 : it->second.serial;
}

u32 Auditor::violate(const Shadow* s, ProcId w, const char* rule,
                     std::string detail) {
  ++violation_count_;
  if (violations_.size() < kMaxStoredViolations) {
    Violation v;
    v.rule = rule;
    v.detail = std::move(detail);
    v.worker = w;
    if (s != nullptr) {
      v.loop = s->loop;
      v.ivec_hash = s->ivec_hash;
      v.icb_serial = s->serial;
    }
    violations_.push_back(std::move(v));
  }
  return 1;
}

u32 Auditor::on_acquire(ProcId w, const void* icb) {
  std::lock_guard lk(mu_);
  ++events_;
  Shadow& s = shadow(icb);
  u32 v = 0;
  if (s.state != IcbState::kFree && s.state != IcbState::kReleased) {
    v += violate(&s, w, "acquire-live-icb",
                 fmt("ICB re-acquired while %s", icb_state_name(s.state)));
  }
  if (s.attach_balance != 0) {
    // A detach of the previous generation is still in flight: keep its
    // balance open under its own serial.
    Shadow& r = retired_[s.serial];
    r = s;
    r.retired = true;
  }
  s.state = IcbState::kAcquired;
  s.serial = ++next_serial_;
  s.loop = kNoLoop;
  s.ivec_hash = 0;
  s.bound = 0;
  s.list = 0;
  s.attach_balance = 0;
  s.completions = 0;
  s.da_posted.clear();
  s.nshards = 1;
  s.shard_granted.clear();
  s.shard_exhausted.clear();
  s.shard_elections = 0;
  return v;
}

u32 Auditor::on_publish(ProcId w, const void* icb, LoopId loop, u64 ivec_hash,
                        i64 bound, u32 list, u32 shards) {
  std::lock_guard lk(mu_);
  ++events_;
  Shadow& s = shadow(icb);
  u32 v = 0;
  if (s.state != IcbState::kAcquired) {
    v += violate(&s, w, "publish-unacquired",
                 fmt("APPEND of an ICB in state %s", icb_state_name(s.state)));
  }
  s.state = IcbState::kPublished;
  s.loop = loop;
  s.ivec_hash = ivec_hash;
  s.bound = bound;
  s.list = list;
  s.nshards = shards < 1 ? 1 : shards;
  s.shard_granted.assign(s.nshards, 0);
  s.shard_exhausted.assign(s.nshards, 0);
  s.shard_elections = 0;
  if (bound < 1) {
    v += violate(&s, w, "publish-empty-instance",
                 fmt("instance published with bound %lld",
                     static_cast<long long>(bound)));
  }
  if (done_seen_) {
    v += violate(&s, w, "publish-after-termination",
                 "instance activated after the all-done flag was set");
  }
  ++outstanding_shadow_;
  return v;
}

u32 Auditor::on_attach(ProcId w, const void* icb) {
  std::lock_guard lk(mu_);
  ++events_;
  Shadow& s = shadow(icb);
  u32 v = 0;
  if (s.state != IcbState::kPublished) {
    // Attaches happen under the list lock, so the instance must still be
    // linked; catching kDraining/kReleased here is the SEARCH-attach TOCTOU.
    v += violate(&s, w, "attach-unpublished",
                 fmt("SEARCH attached to an ICB in state %s",
                     icb_state_name(s.state)));
  }
  ++s.attach_balance;
  return v;
}

u32 Auditor::on_attach_revoked(ProcId w, const void* icb, u64 gen) {
  std::lock_guard lk(mu_);
  ++events_;
  u32 v = 0;
  if (Shadow* s = generation_shadow(w, icb, gen, v)) {
    --s->attach_balance;
    settle(gen, *s);
  }
  return v;
}

u32 Auditor::on_detach(ProcId w, const void* icb, i64 pcount_before,
                       u64 gen) {
  std::lock_guard lk(mu_);
  ++events_;
  u32 v = 0;
  Shadow* s = generation_shadow(w, icb, gen, v);
  if (s == nullptr) return v;
  --s->attach_balance;
  if (pcount_before < 1) {
    v += violate(s, w, "pcount-negative",
                 fmt("detach decremented pcount from %lld",
                     static_cast<long long>(pcount_before)));
  }
  settle(gen, *s);
  return v;
}

u32 Auditor::on_dispatch(ProcId w, const void* icb, i64 first, i64 count) {
  std::lock_guard lk(mu_);
  ++events_;
  Shadow& s = shadow(icb);
  u32 v = 0;
  if (s.state != IcbState::kPublished && s.state != IcbState::kDraining) {
    v += violate(&s, w, "dispatch-from-released",
                 fmt("iterations grabbed from an ICB in state %s",
                     icb_state_name(s.state)));
  }
  if (first < 1 || count < 1 || first + count - 1 > s.bound) {
    v += violate(&s, w, "dispatch-out-of-range",
                 fmt("grabbed [%lld, %lld] of bound %lld",
                     static_cast<long long>(first),
                     static_cast<long long>(first + count - 1),
                     static_cast<long long>(s.bound)));
  }
  return v;
}

u32 Auditor::on_shard_grant(ProcId w, const void* icb, u32 shard, i64 first,
                            i64 count, bool stolen) {
  std::lock_guard lk(mu_);
  ++events_;
  Shadow& s = shadow(icb);
  u32 v = 0;
  if (shard >= s.nshards) {
    return v + violate(&s, w, "shard-id-out-of-range",
                       fmt("grant from shard %u of %u", shard, s.nshards));
  }
  // Shard geometry recomputed from first principles — the auditor never
  // trusts the runtime's copy of the partition.
  const i64 lo = shard::shard_lo(s.bound, s.nshards, shard);
  const i64 hi = shard::shard_hi(s.bound, s.nshards, shard);
  const i64 size = shard::shard_size(s.bound, s.nshards, shard);
  if (first < lo || count < 1 || first + count - 1 > hi) {
    v += violate(&s, w, "shard-grant-out-of-range",
                 fmt("shard %u granted [%lld, %lld] outside [%lld, %lld]",
                     shard, static_cast<long long>(first),
                     static_cast<long long>(first + count - 1),
                     static_cast<long long>(lo), static_cast<long long>(hi)));
  }
  if (s.shard_granted.size() <= shard) {
    s.shard_granted.resize(s.nshards, 0);
  }
  s.shard_granted[shard] += count;
  if (s.shard_granted[shard] > size) {
    // Sum-based, so it fires regardless of hook arrival order: a grant from
    // a drained (stolen-empty) shard pushes the sum past the shard size.
    v += violate(&s, w, "shard-grant-overrun",
                 fmt("shard %u granted %lld of %lld iterations%s", shard,
                     static_cast<long long>(s.shard_granted[shard]),
                     static_cast<long long>(size),
                     stolen ? " (stolen)" : ""));
  }
  return v;
}

u32 Auditor::on_shard_exhaust(ProcId w, const void* icb, u32 shard,
                              bool elected) {
  std::lock_guard lk(mu_);
  ++events_;
  Shadow& s = shadow(icb);
  u32 v = 0;
  if (shard >= s.nshards) {
    return v + violate(&s, w, "shard-id-out-of-range",
                       fmt("exhaust of shard %u of %u", shard, s.nshards));
  }
  if (s.shard_exhausted.size() <= shard) {
    s.shard_exhausted.resize(s.nshards, 0);
  }
  if (++s.shard_exhausted[shard] > 1) {
    v += violate(&s, w, "shard-drained-twice",
                 fmt("shard %u's final iteration granted %lld times", shard,
                     static_cast<long long>(s.shard_exhausted[shard])));
  }
  if (elected && ++s.shard_elections > 1) {
    v += violate(&s, w, "shard-completion-twice",
                 fmt("completion election won %lld times across shards",
                     static_cast<long long>(s.shard_elections)));
  }
  return v;
}

u32 Auditor::on_complete(ProcId w, const void* icb, i64 icount_before,
                         i64 count) {
  std::lock_guard lk(mu_);
  ++events_;
  Shadow& s = shadow(icb);
  u32 v = 0;
  if (icount_before + count > s.bound) {
    v += violate(&s, w, "icount-overrun",
                 fmt("icount %lld + %lld exceeds bound %lld",
                     static_cast<long long>(icount_before),
                     static_cast<long long>(count),
                     static_cast<long long>(s.bound)));
  }
  if (icount_before + count == s.bound) {
    if (++s.completions > 1) {
      v += violate(&s, w, "icount-completed-twice",
                   "icount reached the bound more than once");
    }
  }
  return v;
}

u32 Auditor::on_unlink(ProcId w, const void* icb) {
  std::lock_guard lk(mu_);
  ++events_;
  Shadow& s = shadow(icb);
  u32 v = 0;
  if (s.state != IcbState::kPublished) {
    v += violate(&s, w, "unlink-unpublished",
                 fmt("DELETE of an ICB in state %s", icb_state_name(s.state)));
  }
  s.state = IcbState::kDraining;
  return v;
}

u32 Auditor::release_locked(ProcId w, const void* icb) {
  Shadow& s = shadow(icb);
  u32 v = 0;
  if (s.state == IcbState::kReleased) {
    v += violate(&s, w, "double-release", "release of an already-released ICB");
  } else if (s.state != IcbState::kDraining) {
    // Releasing a still-linked (or never-published) ICB leaves a dangling
    // pointer in its task-pool list.
    v += violate(&s, w, "release-while-linked",
                 fmt("release of an ICB in state %s", icb_state_name(s.state)));
  }
  if (s.completions != 1 && s.state == IcbState::kDraining) {
    v += violate(&s, w, "release-before-completion",
                 fmt("released with %lld bound-reaching icount updates",
                     static_cast<long long>(s.completions)));
  }
  if (s.state == IcbState::kDraining && s.nshards > 1) {
    // Shard-sum conservation at drain.  Sound here (not at exhaust time):
    // the releaser's icount observation happens-after every worker's grant
    // hooks, so all shard grants have been delivered by now.
    i64 granted_sum = 0;
    for (const i64 g : s.shard_granted) granted_sum += g;
    if (granted_sum != s.bound) {
      v += violate(&s, w, "shard-conservation",
                   fmt("shard grants sum to %lld, icount drained %lld",
                       static_cast<long long>(granted_sum),
                       static_cast<long long>(s.bound)));
    }
    const u32 live = shard::live_shards(s.bound, s.nshards);
    for (u32 g = 0; g < s.nshards; ++g) {
      const i64 expect = g < live ? 1 : 0;
      const i64 got =
          g < s.shard_exhausted.size() ? s.shard_exhausted[g] : 0;
      if (got != expect) {
        v += violate(&s, w, "shard-not-drained",
                     fmt("shard %u drained %lld times (expected %lld)", g,
                         static_cast<long long>(got),
                         static_cast<long long>(expect)));
      }
    }
    if (s.shard_elections != 1) {
      v += violate(&s, w, "shard-election-count",
                   fmt("completion election won %lld times (expected once)",
                       static_cast<long long>(s.shard_elections)));
    }
  }
  s.state = IcbState::kReleased;
  --outstanding_shadow_;
  if (outstanding_shadow_ < 0) {
    v += violate(&s, w, "outstanding-negative",
                 "more instances released than were ever published");
  }
  return v;
}

u32 Auditor::on_release(ProcId w, const void* icb) {
  std::lock_guard lk(mu_);
  ++events_;
  u32 v = release_locked(w, icb);
  if (armed_double_release_ != kNoLoop &&
      shadow(icb).loop == armed_double_release_) {
    armed_double_release_ = kNoLoop;
    v += release_locked(w, icb);
  }
  return v;
}

u32 Auditor::on_da_post(ProcId w, const void* icb, i64 j) {
  std::lock_guard lk(mu_);
  ++events_;
  Shadow& s = shadow(icb);
  if (j < 1 || j > s.bound) {
    return violate(&s, w, "da-post-out-of-range",
                   fmt("posted flag %lld of bound %lld",
                       static_cast<long long>(j),
                       static_cast<long long>(s.bound)));
  }
  if (s.da_posted.empty()) {
    s.da_posted.resize(static_cast<std::size_t>(s.bound) + 1, false);
  }
  if (s.da_posted[static_cast<std::size_t>(j)]) {
    return violate(&s, w, "da-double-post",
                   fmt("flag of iteration %lld posted twice",
                       static_cast<long long>(j)));
  }
  s.da_posted[static_cast<std::size_t>(j)] = true;
  return 0;
}

u32 Auditor::on_bar_count(ProcId w, u32 loop_uid, bool created, i64 count,
                          i64 bound, bool tripped) {
  std::lock_guard lk(mu_);
  ++events_;
  u32 v = 0;
  if (created) ++live_bars_;
  if (tripped) --live_bars_;
  if (count > bound) {
    v += violate(nullptr, w, "bar-count-overrun",
                 fmt("BAR_COUNT of loop uid %u reached %lld past bound %lld",
                     loop_uid, static_cast<long long>(count),
                     static_cast<long long>(bound)));
  }
  if (live_bars_ < 0) {
    v += violate(nullptr, w, "bar-count-leak",
                 "more BAR_COUNT nodes reclaimed than allocated");
  }
  return v;
}

u32 Auditor::on_bar_prepare(ProcId w, u32 loop_uid, bool created) {
  std::lock_guard lk(mu_);
  ++events_;
  if (created) ++live_bars_;
  (void)w;
  (void)loop_uid;
  return 0;
}

u32 Auditor::on_enter_batch(ProcId w, u64 batch_size, i64 outstanding_delta) {
  std::lock_guard lk(mu_);
  ++events_;
  u32 v = 0;
  if (batch_size == 0) {
    v += violate(nullptr, w, "batch-empty",
                 "batched ENTER flushed an empty activation set");
  }
  if (outstanding_delta != static_cast<i64>(batch_size)) {
    v += violate(
        nullptr, w, "batch-increment-mismatch",
        fmt("coalesced outstanding increment of %lld for a batch of %llu",
            static_cast<long long>(outstanding_delta),
            static_cast<unsigned long long>(batch_size)));
  }
  if (done_seen_) {
    v += violate(nullptr, w, "batch-after-termination",
                 "batched ENTER flushed after the all-done flag");
  }
  return v;
}

u32 Auditor::on_list_violation(ProcId w, u32 list, const std::string& detail) {
  std::lock_guard lk(mu_);
  ++events_;
  return violate(nullptr, w, "list-corruption",
                 fmt("list %u: %s", list, detail.c_str()));
}

u32 Auditor::on_terminate(ProcId w) {
  std::lock_guard lk(mu_);
  ++events_;
  done_seen_ = true;
  (void)w;
  return 0;
}

u32 Auditor::on_cancel(ProcId w) {
  std::lock_guard lk(mu_);
  ++events_;
  cancelled_ = true;
  (void)w;
  return 0;
}

u32 Auditor::on_drain_release(const void* icb) {
  std::lock_guard lk(mu_);
  ++events_;
  Shadow& s = shadow(icb);
  u32 v = 0;
  if (!cancelled_) {
    v += violate(&s, 0, "drain-without-cancel",
                 "host drain of an ICB outside a cancelled run");
  }
  if (s.state != IcbState::kPublished && s.state != IcbState::kDraining) {
    v += violate(&s, 0, "drain-invalid-state",
                 fmt("drain of an ICB in state %s", icb_state_name(s.state)));
  }
  s.state = IcbState::kReleased;
  --outstanding_shadow_;
  if (outstanding_shadow_ < 0) {
    v += violate(&s, 0, "outstanding-negative",
                 "more instances released than were ever published");
  }
  return v;
}

u32 Auditor::on_drain_bars(u64 n) {
  std::lock_guard lk(mu_);
  ++events_;
  u32 v = 0;
  if (n != 0 && !cancelled_) {
    v += violate(nullptr, 0, "drain-without-cancel",
                 "host drain of BAR_COUNT nodes outside a cancelled run");
  }
  live_bars_ -= static_cast<i64>(n);
  if (live_bars_ < 0) {
    v += violate(nullptr, 0, "bar-count-leak",
                 "more BAR_COUNT nodes reclaimed than allocated");
  }
  return v;
}

u32 Auditor::on_quiescence(bool pool_empty, u64 live_bar_counters,
                           i64 outstanding) {
  std::lock_guard lk(mu_);
  ++events_;
  u32 v = 0;
  if (!pool_empty) {
    v += violate(nullptr, 0, "pool-not-drained",
                 "task-pool lists non-empty at quiescence");
  }
  if (live_bar_counters != 0) {
    v += violate(nullptr, 0, "bar-count-leak",
                 fmt("%llu BAR_COUNT counters live at quiescence",
                     static_cast<unsigned long long>(live_bar_counters)));
  }
  if (live_bars_ != 0) {
    v += violate(nullptr, 0, "bar-count-leak",
                 fmt("shadow BAR_COUNT balance %lld at quiescence",
                     static_cast<long long>(live_bars_)));
  }
  if (outstanding != 0) {
    v += violate(nullptr, 0, "outstanding-not-drained",
                 fmt("outstanding == %lld at quiescence",
                     static_cast<long long>(outstanding)));
  }
  if (outstanding_shadow_ != 0) {
    v += violate(nullptr, 0, "outstanding-not-drained",
                 fmt("%lld published instances were never released",
                     static_cast<long long>(outstanding_shadow_)));
  }
  for (const auto& [ptr, s] : icbs_) {
    if (s.state != IcbState::kFree && s.state != IcbState::kReleased) {
      v += violate(&s, 0, "icb-leaked",
                   fmt("ICB generation left in state %s at quiescence",
                       icb_state_name(s.state)));
    }
    if (s.attach_balance != 0) {
      v += violate(&s, 0, "pcount-not-drained",
                   fmt("attach/detach balance %lld at quiescence",
                       static_cast<long long>(s.attach_balance)));
    }
  }
  for (const auto& [serial, s] : retired_) {
    v += violate(&s, 0, "pcount-not-drained",
                 fmt("attach/detach balance %lld at quiescence",
                     static_cast<long long>(s.attach_balance)));
  }
  return v;
}

void Auditor::arm_double_release(LoopId loop) {
  std::lock_guard lk(mu_);
  armed_double_release_ = loop;
}

void Auditor::reset() {
  std::lock_guard lk(mu_);
  icbs_.clear();
  retired_.clear();
  next_serial_ = 0;
  events_ = 0;
  violation_count_ = 0;
  outstanding_shadow_ = 0;
  live_bars_ = 0;
  done_seen_ = false;
  cancelled_ = false;
  armed_double_release_ = kNoLoop;
  violations_.clear();
}

u64 Auditor::violation_count() const {
  std::lock_guard lk(mu_);
  return violation_count_;
}

u64 Auditor::events() const {
  std::lock_guard lk(mu_);
  return events_;
}

std::vector<Violation> Auditor::violations() const {
  std::lock_guard lk(mu_);
  return violations_;
}

void Auditor::set_scope(std::string scope) {
  std::lock_guard lk(mu_);
  scope_ = std::move(scope);
}

std::string Auditor::scope() const {
  std::lock_guard lk(mu_);
  return scope_;
}

std::string Auditor::report(
    const std::vector<ProcId>& schedule_decisions) const {
  std::lock_guard lk(mu_);
  std::string out =
      fmt("audit: %llu violation(s) across %llu events",
          static_cast<unsigned long long>(violation_count_),
          static_cast<unsigned long long>(events_));
  if (!scope_.empty()) {
    out += " [scope: ";
    out += scope_;
    out += ']';
  }
  out += '\n';
  for (const Violation& v : violations_) {
    out += fmt("  [%s] worker=%u loop=%lld ivec#=%016llx icb#=%llu: ",
               v.rule.c_str(), v.worker,
               v.loop == kNoLoop ? -1LL : static_cast<long long>(v.loop),
               static_cast<unsigned long long>(v.ivec_hash),
               static_cast<unsigned long long>(v.icb_serial));
    out += v.detail;
    out += '\n';
  }
  if (violation_count_ > violations_.size()) {
    out += fmt("  ... %llu further violation(s) not stored\n",
               static_cast<unsigned long long>(violation_count_ -
                                               violations_.size()));
  }
  if (!schedule_decisions.empty()) {
    out += "  schedule decisions (replay via ControllerKind::kReplay):";
    for (ProcId p : schedule_decisions) out += fmt(" %u", p);
    out += '\n';
  }
  return out;
}

}  // namespace selfsched::audit
