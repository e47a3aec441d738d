// Sharded trace sink + wall-clock profiler for the native backend.
//
// The PR-1 Tracer is a single-writer ring: correct on the simulator (one
// thread does everything) and on the native backend's main thread, but the
// native workers run concurrently. This sink gives every worker thread its
// own preallocated ring (a TraceShard) plus its own set of wall-clock
// Pow2Histograms (a WorkerProfile), so the hot path is a relaxed-ordered
// store into worker-private memory — no locks, no shared cache lines.
//
// Publication protocol per shard: the owning worker writes the slot, then
// release-stores the event count; readers acquire-load the count and only
// look at slots below it. Within a phase only the watchdog reads (and then
// a stalled machine's rings are quiescent — parked spells coalesce, see
// trace.h UnparkCause); after run_phase() returns, the epoch-publish mutex
// chain makes every worker write visible to the main thread, which merges
// shards into a (time, worker, seq)-sorted stream for the Chrome exporter
// and drains the per-worker histograms into the shared MetricsRegistry.
//
// DPA_TRACE=OFF compiles TraceShard::record to a no-op (and the backend
// never attaches a sink at all), so measurement builds keep the native
// task loop untouched.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/stats.h"

namespace dpa::obs {

// One worker's wall-clock histograms. Written only by the owning worker
// during a phase; merged into the registry (and reset) post-phase by the
// main thread via ShardedTraceSink::publish_profiles().
struct WorkerProfile {
  Pow2Histogram task_service_ns;   // wall ns per executed task
  Pow2Histogram mailbox_wait_ns;   // wall ns to acquire a dest mailbox lock
  Pow2Histogram train_occupancy;   // messages per train at hand-off
  Pow2Histogram park_ns;           // wall ns per coalesced parked spell
  Pow2Histogram queue_depth;       // dest inbox depth right after a hand-off

  void reset();
};

// Registry names publish_profiles() merges the per-worker histograms under.
inline constexpr const char* kProfileNames[] = {
    "exec.task_service_ns", "exec.mailbox_wait_ns", "exec.train_occupancy",
    "exec.park_ns",         "exec.queue_depth",
};
inline constexpr int kNumProfileHistograms = 5;

// One worker's preallocated event ring. Single writer (the owning worker);
// overwrites its oldest events once full and counts the overflow as drops.
// Events keep the node they name; which shard holds them is the merge's
// `worker`. Cache-line aligned so neighbouring shards never false-share.
class alignas(64) TraceShard final : public EventSink {
 public:
  // The shard adds `base` (the backend's accumulated clock at phase start)
  // to phase-relative timestamps at record time, keeping multi-phase traces
  // monotone against the main-thread tracer's phase markers.
  void set_base(Time base) { base_ = base; }

  void record(const TraceEvent& ev) override;

  std::size_t capacity() const { return ring_.size(); }
  // Total events offered (recorded + overwritten). Acquire: pairs with the
  // writer's release so slots below the count are safe to read.
  std::uint64_t recorded() const {
    return count_.load(std::memory_order_acquire);
  }
  std::uint64_t dropped() const {
    const std::uint64_t c = recorded();
    return c > ring_.size() ? c - ring_.size() : 0;
  }

  // Retained events, oldest first, with the sequence number of the first
  // one. `torn` is set when the writer advanced during the copy (only
  // possible for a mid-phase flight-recorder snapshot of a still-running
  // worker; post-phase and stalled-machine reads are clean).
  struct Snapshot {
    std::vector<TraceEvent> events;
    std::uint64_t first_seq = 0;
    bool torn = false;
  };
  Snapshot snapshot() const;

  WorkerProfile profile;

 private:
  friend class ShardedTraceSink;
  void init(NodeId worker, std::size_t capacity);

  std::vector<TraceEvent> ring_;
  Time base_ = 0;
  NodeId worker_ = 0;
  std::atomic<std::uint64_t> count_{0};
};

// The per-backend collection of shards, owned by the obs::Session and
// attached to a NativeBackend by its attach_obs(). Grows (never shrinks)
// when a sweep attaches a larger backend, so events from earlier cells
// survive in their original shards.
class ShardedTraceSink {
 public:
  static constexpr std::size_t kDefaultShardCapacity = std::size_t(1) << 13;

  explicit ShardedTraceSink(std::uint32_t workers,
                            std::size_t shard_capacity = kDefaultShardCapacity);

  std::uint32_t num_shards() const { return std::uint32_t(shards_.size()); }
  TraceShard& shard(NodeId worker) { return *shards_[worker]; }
  const TraceShard& shard(NodeId worker) const { return *shards_[worker]; }

  // Adds shards up to `workers` (existing shards keep their events).
  void grow(std::uint32_t workers);

  // Phase bracketing: every shard timestamps against this base.
  void set_base(Time base);

  std::uint64_t recorded_total() const;
  std::uint64_t dropped_total() const;
  std::uint64_t dropped(NodeId worker) const {
    return shards_[worker]->dropped();
  }

  // All retained events across shards, sorted by (time, worker, seq).
  struct MergedEvent {
    TraceEvent ev;
    NodeId worker = 0;
    std::uint64_t seq = 0;
  };
  std::vector<MergedEvent> merged() const;

  // Merges every worker's profile histograms into the registry under the
  // kProfileNames entries and resets them — drain semantics, so registry
  // totals accumulate across phases the way the counters do.
  void publish_profiles(MetricsRegistry& m);

  // Optional back-pointer to the session registry, so the flight recorder
  // can embed a metrics snapshot without reaching back into the session.
  const MetricsRegistry* metrics = nullptr;

 private:
  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<TraceShard>> shards_;
};

}  // namespace dpa::obs
