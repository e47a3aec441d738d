// Runtime configuration: which engine runs the phase and how DPA's
// scheduling is parameterized.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/cost_model.h"

namespace dpa::rt {

enum class EngineKind : std::uint8_t {
  kDpa,       // the paper's contribution
  kCaching,   // Olden-style software caching (the paper's comparator)
  kBlocking,  // synchronous remote reads, no reuse (sanity floor)
  kPrefetch,  // greedy DFS prefetching (Luk & Mowry-style comparator)
};

// Figure-14 analogue: in which order a strip's work is produced vs consumed.
enum class SchedTemplate : std::uint8_t {
  // Create every thread of the strip first, then execute ready tiles. This
  // maximizes aggregation opportunity (all requests known up front).
  kCreateAllThenRun,
  // Prefer executing ready work; create new threads only when idle. This
  // minimizes outstanding thread state.
  kInterleaved,
};

struct RuntimeConfig {
  EngineKind kind = EngineKind::kDpa;

  // --- DPA parameters ---
  // Strip size for top-level conc loops (the paper's k-bounded loops);
  // DPA(50) in the paper's tables means strip_size = 50.
  std::uint32_t strip_size = 50;
  // Message pipelining: issue requests asynchronously and keep executing.
  bool pipelining = true;
  // Request aggregation: batch requests per destination node. Requires
  // pipelining (a synchronous engine has nothing to batch).
  bool aggregation = true;
  // Flush an aggregation buffer once it holds this many refs.
  std::uint32_t agg_max_refs = 64;
  SchedTemplate sched_template = SchedTemplate::kCreateAllThenRun;
  // Consume tiles in thread-creation order instead of reply-arrival order.
  // Arrival order depends on message timing, so under faults (retries,
  // delays) the *order* of floating-point accumulation — and therefore the
  // bit pattern of the results — would differ from a fault-free run even
  // though every value is identical as a set. In-order dispatch trades some
  // overlap for a timing-invariant execution order; chaos_test relies on it
  // to assert bit-identical physics. Requires kCreateAllThenRun.
  bool deterministic = false;

  // --- caching parameters ---
  // Cache capacity in objects; 0 = unbounded.
  std::uint64_t cache_capacity = 0;
  enum class CachePolicy : std::uint8_t { kFifo, kLru };
  CachePolicy cache_policy = CachePolicy::kFifo;

  // --- prefetch parameters ---
  // How many upcoming continuations the prefetch engine scans after each
  // step.
  std::uint32_t prefetch_depth = 8;

  // Scheduling units processed per node task before re-polling the inbox
  // (models FM poll placement granularity).
  std::uint32_t poll_batch = 32;

  CostModel cost;

  void validate() const;
  std::string describe() const;

  // The paper's named configurations.
  static RuntimeConfig dpa(std::uint32_t strip = 50);        // full DPA
  // Full DPA with deterministic in-order tile dispatch (chaos testing).
  static RuntimeConfig dpa_deterministic(std::uint32_t strip = 50);
  static RuntimeConfig dpa_base(std::uint32_t strip = 50);   // tiling only
  static RuntimeConfig dpa_pipelined(std::uint32_t strip = 50);  // no agg
  static RuntimeConfig caching();
  static RuntimeConfig blocking();
  static RuntimeConfig prefetching(std::uint32_t depth = 8);
};

std::string to_string(EngineKind kind);
std::string to_string(SchedTemplate t);

}  // namespace dpa::rt
