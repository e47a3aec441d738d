// Greedy software prefetching baseline (in the spirit of Luk & Mowry's
// compiler-based prefetching for recursive data structures, the paper's
// other related-work comparator).
//
// Execution order is the untransformed depth-first traversal, as in the
// caching baseline, but after each step the engine looks at the next
// `prefetch_depth` continuations on the stack and issues non-blocking
// fetches for their objects. Latency is (partially) hidden behind the work
// of earlier items; there is no reordering and no aggregation — each
// prefetch is its own message. DPA should beat it on both counts.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "runtime/engine.h"

namespace dpa::rt {

class PrefetchEngine final : public EngineBase {
 public:
  PrefetchEngine(Cluster& cluster, NodeId node, const RuntimeConfig& cfg,
                 fm::HandlerId h_req, fm::HandlerId h_reply,
                 fm::HandlerId h_accum);

  void require(sim::Cpu& cpu, GlobalRef ref, ThreadFn thread) override;
  bool done() const override;
  std::string state_dump() const override;

 private:
  void on_reply(sim::Cpu& cpu, const RefsPayload& reply) override;
  void sched(sim::Cpu& cpu) override;
  void run_now(sim::Cpu& cpu, const ThreadFn& fn, const void* data);
  void issue_prefetches(sim::Cpu& cpu);
  void prefetch_one(sim::Cpu& cpu, const GlobalRef& ref,
                    std::uint32_t* budget);

  using StackEntry = std::pair<GlobalRef, ThreadFn>;

  // Children of the running traversal: LIFO (depth-first), popped first.
  std::vector<StackEntry> stack_;
  // Upcoming conc-loop iterations: FIFO (software pipelining) — a root's
  // prefetch is issued a full window before the root executes. Roots are
  // created only while it holds fewer than prefetch_depth entries.
  std::deque<StackEntry> root_window_;
  bool creating_roots_ = false;
  FlatSet<const void*> cache_;     // arrived objects
  FlatSet<const void*> inflight_;  // prefetches not yet back
  bool waiting_ = false;
  const void* waiting_addr_ = nullptr;
  GlobalRef wait_ref_;
  ThreadFn wait_fn_;
  bool loop_done_ = false;
};

}  // namespace dpa::rt
