// Deterministic fault injection for the network model.
//
// A FaultPlan describes how an unreliable interconnect misbehaves: messages
// are dropped or duplicated, fragments see latency spikes and reordering
// jitter, and destination nodes take transient pauses (a GC stall, an OS
// scheduling hiccup). Every decision is drawn from one seeded generator in
// simulation event order, so a (plan, seed, workload) triple replays
// bit-identically — chaos runs are as reproducible as fault-free ones.
//
// Layering: the FaultInjector is owned by sim::Network (constructed when the
// NetParams carry an active plan). Timing faults (delay spikes, reorder
// jitter, pauses) apply per wire fragment inside Network::send; whole-message
// faults (drop, duplicate) are decided once per logical message by the FM
// layer, which consults the network's injector — dropping one fragment of a
// segmented message would otherwise leave the receiver waiting on a train
// that can never complete, which is not how lossy fabrics lose packets.
//
// FM survives all of this with sequence numbers + ack/retry (see fm/fm.h),
// so the runtime above it sees exactly-once delivery; the invariant tested
// by chaos_test.cpp is that faults cost time, never correctness.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/time.h"
#include "support/rng.h"

namespace dpa::sim {

struct FaultPlan {
  // Whole-message faults (decided once per logical message, pre-MTU
  // segmentation; a duplicated message is re-sent as a complete train).
  double drop = 0.0;  // message silently lost after paying send cost
  double dup = 0.0;   // message delivered twice (distinct trains)

  // Per-fragment timing faults.
  double reorder = 0.0;        // extra uniform jitter in [0, reorder_window)
  Time reorder_window = 20'000;
  double delay = 0.0;          // fixed latency spike of delay_spike
  Time delay_spike = 100'000;

  // Transient destination-node pauses (charged as runtime time, serializing
  // behind / ahead of the node's task queue).
  double pause = 0.0;
  Time pause_time = 200'000;

  // Scale each probability by a per-link factor in [0.5, 1.5), derived from
  // the seed and the (src, dst) pair: some links are lossier than others.
  bool link_jitter = false;

  std::uint64_t seed = 0x0fa117ull;

  bool any() const {
    return drop > 0 || dup > 0 || reorder > 0 || delay > 0 || pause > 0;
  }

  // Parses a spec string; dies with a diagnostic on malformed input.
  //   drop=P,dup=P,reorder=P[:WINDOW_NS],delay=P[:SPIKE_NS],
  //   pause=P[:PAUSE_NS],jitter,seed=N
  // plus the preset "chaos" (moderate everything). Items are
  // comma-separated and later items override earlier ones.
  static FaultPlan parse(std::string_view spec);

  std::string describe() const;
};

struct FaultStats {
  std::uint64_t dropped_msgs = 0;
  std::uint64_t dup_msgs = 0;
  std::uint64_t delayed_frags = 0;  // spike and/or jitter applied
  std::uint64_t pauses = 0;

  void reset() { *this = FaultStats{}; }
};

// Draws fault decisions in simulation event order. One instance per Network;
// never consulted (and never allocated) on fault-free runs.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  // Whole-message decisions (FM layer, once per logical message).
  bool roll_msg_drop(std::uint32_t src, std::uint32_t dst);
  bool roll_msg_dup(std::uint32_t src, std::uint32_t dst);

  // Per-fragment extra wire delay (0 on the happy path).
  Time roll_frag_delay(std::uint32_t src, std::uint32_t dst);

  // Transient pause of the destination node (duration = plan().pause_time).
  bool roll_pause(std::uint32_t src, std::uint32_t dst);

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

 private:
  // Per-link probability scaling (1.0 unless plan_.link_jitter).
  double link_p(double base, std::uint32_t src, std::uint32_t dst) const;

  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
};

}  // namespace dpa::sim
