#include "vtime/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "vtime/schedule_ctrl.hpp"

namespace selfsched::vtime {

Engine::Engine(u32 num_procs, bool trace)
    : num_procs_(num_procs), tracing_(trace), vps_(num_procs) {
  SS_CHECK(num_procs > 0);
  // Watchdog: SELFSCHED_OP_LIMIT=<n> makes the engine dump per-vp clocks
  // and abort after n serialized operations — turns a silent spin storm or
  // livelock into an actionable diagnostic.
  if (const char* limit = std::getenv("SELFSCHED_OP_LIMIT")) {
    op_limit_ = std::strtoull(limit, nullptr, 10);
  }
}

void Engine::check_op_limit_locked() {
  if (op_limit_ == 0 || seq_ <= op_limit_) return;
  std::fprintf(stderr,
               "vtime::Engine exceeded SELFSCHED_OP_LIMIT=%llu ops; "
               "per-vp local times:\n",
               static_cast<unsigned long long>(op_limit_));
  for (u32 id = 0; id < num_procs_; ++id) {
    std::fprintf(stderr, "  vp%02u t=%lld\n", id,
                 static_cast<long long>(vps_[id].local_time));
  }
  std::abort();
}

Engine::~Engine() = default;

Cycles Engine::run(const std::function<void(ProcId)>& worker) {
  {
    std::lock_guard lk(mu_);
    SS_CHECK_MSG(seq_ == 0 && pending_.empty() && running_.empty(),
                 "Engine::run may only be called once per Engine");
    for (u32 id = 0; id < num_procs_; ++id) running_.insert({0, id});
  }
  std::vector<std::thread> team;
  team.reserve(num_procs_);
  for (u32 id = 0; id < num_procs_; ++id) {
    team.emplace_back([this, id, &worker] {
      try {
        worker(id);
      } catch (const std::exception& e) {
        // A worker must never die while peers may be waiting on its clock:
        // record the error, then retire this vp so the rest can drain.
        std::lock_guard lk(mu_);
        if (worker_error_.empty()) worker_error_ = e.what();
      }
      std::lock_guard lk(mu_);
      running_.erase({vps_[id].local_time, id});
      makespan_ = std::max(makespan_, vps_[id].local_time);
      maybe_grant_locked();
    });
  }
  for (auto& t : team) t.join();
  SS_CHECK_MSG(worker_error_.empty(),
               "virtual worker threw: " + worker_error_);
  return makespan_;
}

sync::SyncResult Engine::sync_execute(ProcId id, Cycles cost, VSync& var,
                                      sync::Test test, i64 test_value,
                                      sync::Op op, i64 operand) {
  std::unique_lock lk(mu_);
  Vp& vp = vps_[id];
  running_.erase({vp.local_time, id});
  vp.next_time = vp.local_time + std::max<Cycles>(cost, 1);
  vp.eff_time = vp.next_time;
  const u64 op_index = vp.ops_issued++;
  if (ctrl_ != nullptr) {
    vp.eff_time += std::max<Cycles>(ctrl_->jitter(id, op_index), 0);
  }
  pending_.insert({vp.eff_time, id});
  maybe_grant_locked();
  vp.cv.wait(lk, [&] { return vp.granted; });
  vp.granted = false;
  grant_outstanding_ = false;

  // We hold the engine mutex and the grant: this is the indivisible
  // instant at which the instruction executes on the virtual machine.
  sync::SyncResult r{false, var.v};
  if (sync::test_holds(test, var.v, test_value)) {
    r.success = true;
    r.fetched = var.v;
    var.store(sync::apply_op(op, var.v, operand));
  }
  ++seq_;
  check_op_limit_locked();
  if (tracing_) {
    trace_.push_back(TraceEvent{seq_, id, vp.next_time, &var, test,
                                test_value, op, operand, r.success,
                                r.fetched});
  }
  pending_.erase({vp.eff_time, id});
  vp.local_time = vp.next_time;
  running_.insert({vp.local_time, id});
  maybe_grant_locked();
  return r;
}

void Engine::advance(ProcId id, Cycles c) {
  if (c <= 0) return;
  std::lock_guard lk(mu_);
  Vp& vp = vps_[id];
  running_.erase({vp.local_time, id});
  vp.local_time += c;
  running_.insert({vp.local_time, id});
  maybe_grant_locked();
}

Cycles Engine::now(ProcId id) const {
  std::lock_guard lk(mu_);
  return vps_[id].local_time;
}

void Engine::maybe_grant_locked() {
  if (grant_outstanding_ || pending_.empty()) return;
  const Key head = *pending_.begin();
  const bool exploring = ctrl_ != nullptr || record_schedule_;
  if (!running_.empty()) {
    const Key rb = *running_.begin();
    if (exploring) {
      // A decision may only be made once every Running vp's clock has
      // reached the head timestamp: any later op costs >= 1 cycle, so no
      // vp outside the current head-time tie set can ever join it.  The
      // candidate set is then a function of virtual-time state alone —
      // independent of host thread timing — which is what makes every
      // controller decision (and its recording) deterministic.  The
      // executed grant sequence is still sorted by (eff_time, id), so with
      // canonical picks this path is bit-identical to the greedy one.
      if (rb.first < head.first) return;
    } else {
      // Greedy original: the earliest event a Running vp could still
      // produce is at (local_time + 1) with its own id as the tie-breaker.
      const Key bound{rb.first + 1, rb.second};
      if (!(head < bound)) return;
    }
  }
  ProcId chosen = head.second;
  if (exploring) {
    cands_.clear();
    for (auto it = pending_.begin();
         it != pending_.end() && it->first == head.first; ++it) {
      cands_.push_back(it->second);
    }
    if (cands_.size() > 1) {
      std::size_t k = 0;
      if (ctrl_ != nullptr) {
        k = ctrl_->pick(cands_);
        SS_DCHECK(k < cands_.size());
        if (k >= cands_.size()) k = 0;
      }
      chosen = cands_[k];
      if (record_schedule_) decisions_.push_back(chosen);
    }
  }
  Vp& vp = vps_[chosen];
  if (!vp.granted) {
    vp.granted = true;
    grant_outstanding_ = true;
    vp.cv.notify_one();
  }
}

}  // namespace selfsched::vtime
