// Synchronous baselines: software caching (the paper's comparator, in the
// style of Olden's software caching / remote-reference schemes) and plain
// blocking reads.
//
// The traversal is depth-first over an explicit continuation stack — the
// natural execution order of the untransformed program. A remote access
// costs a hash probe (every access; this is the overhead DPA's access
// hoisting removes); a miss issues a single-object request and stalls the
// node until the reply. There is no reordering, no overlap, no batching.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "runtime/engine.h"

namespace dpa::rt {

class SyncEngine final : public EngineBase {
 public:
  // use_cache=true  -> EngineKind::kCaching
  // use_cache=false -> EngineKind::kBlocking
  SyncEngine(Cluster& cluster, NodeId node, const RuntimeConfig& cfg,
             fm::HandlerId h_req, fm::HandlerId h_reply,
             fm::HandlerId h_accum, bool use_cache);

  void require(sim::Cpu& cpu, GlobalRef ref, ThreadFn thread) override;
  bool done() const override;
  std::string state_dump() const override;

 private:
  void on_reply(sim::Cpu& cpu, const RefsPayload& reply) override;
  void sched(sim::Cpu& cpu) override;
  void run_now(sim::Cpu& cpu, const ThreadFn& fn, const void* data);
  void cache_insert(sim::Cpu& cpu, const void* addr);

  bool cache_lookup(const void* addr);  // probes + maintains LRU order

  // LIFO continuation stack: depth-first.
  std::vector<std::pair<GlobalRef, ThreadFn>> stack_;
  // Cached object set plus an eviction order list (FIFO or LRU per config).
  std::list<const void*> order_;
  FlatMap<const void*, std::list<const void*>::iterator> cache_;
  bool use_cache_;
  bool waiting_ = false;
  GlobalRef wait_ref_;
  ThreadFn wait_fn_;
  bool loop_done_ = false;
};

}  // namespace dpa::rt
