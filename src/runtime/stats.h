// Per-node runtime counters. These feed the paper's tables directly:
// aggregation factor (requests per message), max outstanding threads, M
// high-water marks, cache hit rates.
//
// The counter and gauge sets are declared once via the X-macro field lists
// below; RtNodeStats, RtTotals, absorb() and the observability export all
// iterate the same list, so a new counter cannot be silently dropped from
// the totals or the metrics snapshot.
#pragma once

#include <cstdint>

#include "support/stats.h"

namespace dpa::obs {
class MetricsRegistry;
}  // namespace dpa::obs

namespace dpa::rt {

// One X(name) per per-node counter (all std::uint64_t, summed across nodes).
#define DPA_RT_COUNTERS(X)                                                 \
  /* Threads (DPA) / deferred work items (sync engines). */                \
  X(threads_created)                                                       \
  X(threads_run)                                                           \
  X(local_threads)  /* threads on node-local pointers */                   \
  X(tiles_run)      /* tile dispatches (>=1 thread each) */                \
  X(roots_created)  /* conc-loop iterations started */                     \
  X(strips)                                                                \
  /* Communication (requester side). */                                    \
  X(refs_requested)   /* remote object fetches issued */                   \
  X(request_msgs)     /* request messages sent */                          \
  X(dup_refs_avoided) /* threads that joined an in-flight tile */          \
  X(replies_recv)                                                          \
  /* Communication (home side). */                                         \
  X(refs_served)                                                           \
  X(requests_served)                                                       \
  /* Caching engine. */                                                    \
  X(cache_hits)                                                            \
  X(cache_misses)                                                          \
  X(cache_evictions)                                                       \
  /* Remote accumulation. */                                               \
  X(accums_issued)  /* updates sent to remote homes */                     \
  X(accum_msgs)     /* messages carrying them */                           \
  X(accums_applied) /* updates applied at this home */                     \
  X(accums_local)   /* updates applied directly (local home) */

// One X(name) per resource gauge (current level + high-water mark; totals
// keep the max high-water across nodes as max_<name>).
#define DPA_RT_GAUGES(X)                                                   \
  X(outstanding_threads) /* suspended thread states held */                \
  X(m_entries)           /* live entries in M */                           \
  X(outstanding_refs)    /* remote refs requested but not yet arrived */

struct RtNodeStats {
#define DPA_X(name) std::uint64_t name = 0;
  DPA_RT_COUNTERS(DPA_X)
#undef DPA_X
#define DPA_X(name) Gauge name;
  DPA_RT_GAUGES(DPA_X)
#undef DPA_X

  double aggregation_factor() const {
    return request_msgs ? double(refs_requested) / double(request_msgs) : 0.0;
  }
  double cache_hit_rate() const {
    const auto total = cache_hits + cache_misses;
    return total ? double(cache_hits) / double(total) : 0.0;
  }
};

// Sums of the counters plus maxima of the gauges across nodes.
struct RtTotals {
#define DPA_X(name) std::uint64_t name = 0;
  DPA_RT_COUNTERS(DPA_X)
#undef DPA_X
#define DPA_X(name) std::int64_t max_##name = 0;
  DPA_RT_GAUGES(DPA_X)
#undef DPA_X

  void absorb(const RtNodeStats& s) {
#define DPA_X(name) name += s.name;
    DPA_RT_COUNTERS(DPA_X)
#undef DPA_X
#define DPA_X(name) \
  if (s.name.high_water() > max_##name) max_##name = s.name.high_water();
    DPA_RT_GAUGES(DPA_X)
#undef DPA_X
  }

  // Adds every counter into the registry under "rt.<name>" and raises the
  // "rt.<name>" gauges to the high-water maxima (see src/obs/metrics.h).
  void publish(obs::MetricsRegistry& metrics) const;

  double aggregation_factor() const {
    return request_msgs ? double(refs_requested) / double(request_msgs) : 0.0;
  }
  double cache_hit_rate() const {
    const auto total = cache_hits + cache_misses;
    return total ? double(cache_hits) / double(total) : 0.0;
  }
};

}  // namespace dpa::rt
