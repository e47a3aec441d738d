#include "runtime/prefetch_engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "support/assert.h"

namespace dpa::rt {

PrefetchEngine::PrefetchEngine(Cluster& cluster, NodeId node,
                               const RuntimeConfig& cfg, fm::HandlerId h_req,
                               fm::HandlerId h_reply, fm::HandlerId h_accum)
    : EngineBase(cluster, node, cfg, h_req, h_reply, h_accum) {}

void PrefetchEngine::require(sim::Cpu& cpu, GlobalRef ref, ThreadFn thread) {
  cpu.charge(cfg_.cost.sync_push, sim::Work::kRuntime);
  ++stats_.threads_created;
  stats_.outstanding_threads.add(1);
  DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadCreated, node_,
                                cpu.logical_now(), ref.bytes));
  if (creating_roots_)
    root_window_.emplace_back(ref, std::move(thread));
  else
    stack_.emplace_back(ref, std::move(thread));
}

void PrefetchEngine::run_now(sim::Cpu& cpu, const ThreadFn& fn,
                             const void* data) {
  cpu.charge(cfg_.cost.sync_run, sim::Work::kRuntime);
  ++stats_.threads_run;
  Ctx ctx(*this, cpu);
  fn(ctx, data);
  DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadRetired, node_,
                                cpu.logical_now()));
}

void PrefetchEngine::prefetch_one(sim::Cpu& cpu, const GlobalRef& ref,
                                  std::uint32_t* budget) {
  if (*budget == 0) return;
  --*budget;
  if (ref.home == node_) return;
  if (cache_.count(ref.addr) != 0 || inflight_.count(ref.addr) != 0) return;
  cpu.charge(cfg_.cost.sync_issue, sim::Work::kComm);
  inflight_.insert(ref.addr);
  send_request(cpu, ref);
}

void PrefetchEngine::issue_prefetches(sim::Cpu& cpu) {
  // Scan the next prefetch_depth items in pop order: depth-first children
  // first (back of stack_), then upcoming roots (front of root_window_).
  std::uint32_t budget = cfg_.prefetch_depth;
  for (auto it = stack_.rbegin(); it != stack_.rend() && budget > 0; ++it)
    prefetch_one(cpu, it->first, &budget);
  for (auto it = root_window_.begin();
       it != root_window_.end() && budget > 0; ++it)
    prefetch_one(cpu, it->first, &budget);
}

void PrefetchEngine::sched(sim::Cpu& cpu) {
  for (std::uint32_t unit = 0; unit < cfg_.poll_batch; ++unit) {
    if (waiting_) return;

    // Software pipelining over the conc loop: keep a window of future
    // iterations queued so there is something to prefetch.
    const std::size_t window = std::max<std::uint32_t>(1, cfg_.prefetch_depth);
    bool created = false;
    while (root_window_.size() < window && next_root_ < work_.count) {
      ++stats_.roots_created;
      creating_roots_ = true;
      Ctx ctx(*this, cpu);
      work_.item(ctx, next_root_++);
      creating_roots_ = false;
      created = true;
    }
    if (created) issue_prefetches(cpu);

    if (stack_.empty() && root_window_.empty()) {
      loop_done_ = true;
      return;
    }

    std::pair<GlobalRef, ThreadFn> next;
    if (!stack_.empty()) {
      next = std::move(stack_.back());
      stack_.pop_back();
    } else {
      next = std::move(root_window_.front());
      root_window_.pop_front();
    }
    auto& [ref, fn] = next;
    stats_.outstanding_threads.add(-1);

    if (ref.home == node_) {
      run_now(cpu, fn, ref.addr);
      issue_prefetches(cpu);
      continue;
    }

    cpu.charge(cfg_.cost.hash_lookup, sim::Work::kRuntime);
    if (cache_.count(ref.addr) != 0) {
      ++stats_.cache_hits;
      run_now(cpu, fn, ref.addr);
      issue_prefetches(cpu);
      continue;
    }
    ++stats_.cache_misses;
    waiting_ = true;
    waiting_addr_ = ref.addr;
    wait_ref_ = ref;
    wait_fn_ = std::move(fn);
    DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadSuspended, node_,
                                  cpu.logical_now()));
    if (inflight_.count(ref.addr) == 0) {
      // Not prefetched in time: demand fetch.
      cpu.charge(cfg_.cost.sync_issue, sim::Work::kComm);
      inflight_.insert(ref.addr);
      send_request(cpu, ref);
    }
    return;  // stall until this object lands
  }
  kick();
}

void PrefetchEngine::on_reply(sim::Cpu& cpu, const RefsPayload& reply) {
  ++stats_.replies_recv;
  DPA_CHECK(reply.refs.size() == 1);
  const GlobalRef ref = reply.refs[0];
  cpu.charge(cfg_.cost.reply_unmarshal_per_obj, sim::Work::kComm);
  cpu.charge(cfg_.cost.cache_insert, sim::Work::kRuntime);
  stats_.outstanding_refs.add(-1);
  inflight_.erase(ref.addr);
  cache_.insert(ref.addr);
  if (waiting_ && waiting_addr_ == ref.addr) {
    waiting_ = false;
    waiting_addr_ = nullptr;
    ThreadFn fn = std::move(wait_fn_);
    wait_fn_ = nullptr;
    DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadResumed, node_,
                                  cpu.logical_now()));
    run_now(cpu, fn, wait_ref_.addr);
    issue_prefetches(cpu);
  }
  kick();
}

bool PrefetchEngine::done() const {
  return loop_done_ && stack_.empty() && root_window_.empty() && !waiting_;
}

std::string PrefetchEngine::state_dump() const {
  std::ostringstream os;
  os << "prefetch node " << node_ << ": roots " << next_root_ << "/"
     << work_.count << " stack " << stack_.size() << " window "
     << root_window_.size() << " inflight "
     << inflight_.size() << (waiting_ ? " waiting" : "")
     << (loop_done_ ? " loop-done" : " loop-running");
  return os.str();
}

}  // namespace dpa::rt
