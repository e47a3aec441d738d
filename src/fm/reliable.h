// fm::Reliable — the seq/ack/timeout/retransmit + receiver-dedup protocol
// core.
//
// This is the substrate-agnostic state machine: per-sender sequence
// numbers, the in-flight (unacked) message table with exponential-backoff
// deadlines, and the per-source sets of delivered sequence numbers that
// make retransmitted or fabric-duplicated copies droppable. What it
// deliberately does NOT own is the clock and the wire: the caller charges
// costs, sends payloads, and arms timers, because those are substrate
// properties. Its one user is fm::FmLayer on the simulator, the only fabric
// that loses messages (an armed sim::FaultPlan): FM builds one per node
// when a plan is armed, and retransmission timing is part of the modeled
// phase. The native and proc fabrics are lossless and never build one.
//
// Protocol invariants:
//   * Sequence numbers are per sender and start at 1.
//   * Every sequenced copy is acked, duplicates included — the ack for an
//     earlier copy may itself have been lost, and acks are idempotent at
//     the sender. Acks are unsequenced and never retried.
//   * accept() is exactly-once per (src, seq): the first copy is
//     delivered, every later copy reports false and must be dropped.
//   * retry() applies capped exponential backoff (attempt n waits
//     timeout * backoff^n); after max_retries retransmissions it dies
//     loudly — on the modeled fabric an undeliverable message is a bug,
//     not a steady state.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/types.h"
#include "support/flat_map.h"

namespace dpa::fm {

using exec::NodeId;
using exec::Time;

// Retransmission policy.
struct RetryPolicy {
  Time timeout_ns = 2'000'000;        // first retransmit deadline
  double backoff = 2.0;               // deadline multiplier per attempt
  Time max_timeout_ns = 64'000'000;   // backoff cap
  std::uint32_t max_retries = 100;    // attempts before giving up (fatal)
};

class Reliable {
 public:
  // One unacked in-flight message. `data` keeps the payload alive for
  // retransmission; a retry re-sends it under the same seq.
  struct Pending {
    NodeId dst = 0;
    std::uint16_t handler = 0;
    std::shared_ptr<void> data;
    std::uint32_t bytes = 0;
    std::uint32_t attempts = 0;  // retransmissions so far
    Time timeout = 0;            // current (backed-off) timer interval
  };

  // The protocol state of node `self` talking to num_nodes peers.
  Reliable(std::uint32_t num_nodes, const RetryPolicy& policy, NodeId self)
      : self_(self), policy_(policy), seen_(num_nodes) {}

  Reliable(const Reliable&) = delete;
  Reliable& operator=(const Reliable&) = delete;
  Reliable(Reliable&&) = default;
  Reliable& operator=(Reliable&&) = default;

  // --- Sender side ---------------------------------------------------

  // Next per-sender sequence number (1-based).
  std::uint64_t next_seq() { return ++next_seq_; }

  // Registers an in-flight message under `seq`; returns the absolute
  // deadline (now + the policy's initial timeout) the caller must arm a
  // timer for.
  Time track(std::uint64_t seq, Pending pending, Time now) {
    pending.timeout = policy_.timeout_ns;
    const Time deadline = now + pending.timeout;
    pending_.emplace(seq, std::move(pending));
    return deadline;
  }

  // Whether `seq` is still unacked (a timer firing for an acked seq does
  // nothing and charges nothing — it cannot perturb timing).
  bool is_pending(std::uint64_t seq) const {
    return pending_.find(seq) != pending_.end();
  }

  // A retransmit deadline fired: bumps the attempt count, applies backoff,
  // and returns the record the caller must re-send — or null if the ack
  // raced the timer. Panics once a message has gone unacked through
  // max_retries retransmissions. The pointer is into the pending table:
  // invalidated by the next track/retry/on_ack.
  const Pending* retry(std::uint64_t seq);

  // An ack arrived for `seq`; true if it cleared an in-flight entry
  // (false: duplicate ack, already cleared).
  bool on_ack(std::uint64_t seq) { return pending_.erase(seq) > 0; }

  std::size_t in_flight() const { return pending_.size(); }

  // --- Receiver side -------------------------------------------------

  // First delivery of (src, seq)? The caller acks every copy *before*
  // asking (ack-always, see header comment) and drops the message when
  // this returns false.
  bool accept(NodeId src, std::uint64_t seq) {
    return seen_[src].insert(seq).second;
  }

 private:
  NodeId self_;
  RetryPolicy policy_;
  std::uint64_t next_seq_ = 0;
  FlatMap<std::uint64_t, Pending> pending_;
  // Per-source sets of delivered sequence numbers (receiver-side dedup).
  std::vector<FlatSet<std::uint64_t>> seen_;
};

}  // namespace dpa::fm
