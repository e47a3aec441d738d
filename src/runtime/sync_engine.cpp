#include "runtime/sync_engine.h"

#include <sstream>
#include <utility>

#include "support/assert.h"

namespace dpa::rt {

SyncEngine::SyncEngine(Cluster& cluster, NodeId node,
                       const RuntimeConfig& cfg, fm::HandlerId h_req,
                       fm::HandlerId h_reply, fm::HandlerId h_accum,
                       bool use_cache)
    : EngineBase(cluster, node, cfg, h_req, h_reply, h_accum),
      use_cache_(use_cache) {}

bool SyncEngine::cache_lookup(const void* addr) {
  const auto it = cache_.find(addr);
  if (it == cache_.end()) return false;
  if (cfg_.cache_policy == RuntimeConfig::CachePolicy::kLru) {
    order_.splice(order_.end(), order_, it->second);  // move to MRU end
  }
  return true;
}

void SyncEngine::require(sim::Cpu& cpu, GlobalRef ref, ThreadFn thread) {
  cpu.charge(cfg_.cost.sync_push, sim::Work::kRuntime);
  ++stats_.threads_created;
  stats_.outstanding_threads.add(1);
  DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadCreated, node_,
                                cpu.logical_now(), ref.bytes));
  stack_.emplace_back(ref, std::move(thread));
}

void SyncEngine::run_now(sim::Cpu& cpu, const ThreadFn& fn,
                         const void* data) {
  cpu.charge(cfg_.cost.sync_run, sim::Work::kRuntime);
  ++stats_.threads_run;
  Ctx ctx(*this, cpu);
  fn(ctx, data);
  DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadRetired, node_,
                                cpu.logical_now()));
}

void SyncEngine::cache_insert(sim::Cpu& cpu, const void* addr) {
  cpu.charge(cfg_.cost.cache_insert, sim::Work::kRuntime);
  order_.push_back(addr);
  cache_[addr] = std::prev(order_.end());
  if (cfg_.cache_capacity != 0 && cache_.size() > cfg_.cache_capacity) {
    cache_.erase(order_.front());
    order_.pop_front();
    ++stats_.cache_evictions;
  }
}

void SyncEngine::sched(sim::Cpu& cpu) {
  for (std::uint32_t unit = 0; unit < cfg_.poll_batch; ++unit) {
    if (waiting_) return;  // stalled on a remote fetch

    if (stack_.empty()) {
      if (next_root_ < work_.count) {
        ++stats_.roots_created;
        Ctx ctx(*this, cpu);
        work_.item(ctx, next_root_++);
        continue;
      }
      loop_done_ = true;
      return;
    }

    auto [ref, fn] = std::move(stack_.back());
    stack_.pop_back();
    stats_.outstanding_threads.add(-1);

    if (ref.home == node_) {
      run_now(cpu, fn, ref.addr);
      continue;
    }

    // Every remote access pays the hash probe — the per-access overhead
    // DPA's access hoisting eliminates.
    cpu.charge(cfg_.cost.hash_lookup, sim::Work::kRuntime);
    if (use_cache_ && cache_lookup(ref.addr)) {
      ++stats_.cache_hits;
      run_now(cpu, fn, ref.addr);
      continue;
    }
    ++stats_.cache_misses;
    cpu.charge(cfg_.cost.sync_issue, sim::Work::kComm);
    waiting_ = true;
    wait_ref_ = ref;
    wait_fn_ = std::move(fn);
    DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadSuspended, node_,
                                  cpu.logical_now()));
    send_request(cpu, ref);
    return;
  }
  kick();  // yield to the inbox
}

void SyncEngine::on_reply(sim::Cpu& cpu, const RefsPayload& reply) {
  ++stats_.replies_recv;
  DPA_CHECK(waiting_ && reply.refs.size() == 1 &&
            reply.refs[0].addr == wait_ref_.addr)
      << "sync engine got an unexpected reply on node " << node_;
  cpu.charge(cfg_.cost.reply_unmarshal_per_obj, sim::Work::kComm);
  stats_.outstanding_refs.add(-1);
  if (use_cache_) cache_insert(cpu, wait_ref_.addr);
  waiting_ = false;
  ThreadFn fn = std::move(wait_fn_);
  wait_fn_ = nullptr;
  DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadResumed, node_,
                                cpu.logical_now()));
  run_now(cpu, fn, wait_ref_.addr);
  kick();
}

bool SyncEngine::done() const {
  return loop_done_ && stack_.empty() && !waiting_;
}

std::string SyncEngine::state_dump() const {
  std::ostringstream os;
  os << (use_cache_ ? "caching" : "blocking") << " node " << node_
     << ": roots " << next_root_ << "/" << work_.count << " stack "
     << stack_.size() << (waiting_ ? " waiting" : "")
     << (loop_done_ ? " loop-done" : " loop-running") << " cache "
     << cache_.size();
  return os.str();
}

}  // namespace dpa::rt
