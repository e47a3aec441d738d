// Active message layer modeled on Illinois Fast Messages (FM), the messaging
// substrate the paper used on the Cray T3D.
//
// Semantics: `send` injects a message addressed to a handler on the
// destination node; on arrival the destination processor is charged the
// receive overhead and the handler runs as a task on that node. Payloads
// larger than the network MTU are segmented into fragments (each paying
// per-message costs) and the handler fires when the last fragment lands —
// this is what makes "aggregation wins until the MTU" measurable.
//
// Delivery is exactly-once, as FM provided on the T3D: handlers never see a
// lost or duplicated message, and the layers above never see an ack. On a
// fault-free network that is free — no sequence numbers, no acks, no
// timers. When the network has a fault injector (an armed sim::FaultPlan)
// FM drives fm::Reliable, one per node: each message gets a
// per-sender sequence number, the receiver acks every copy and drops
// copies it already delivered, and the sender retransmits on timeout with
// capped exponential backoff. Acks and retransmissions are FM-internal
// messages on the same faulty fabric: they pay send/receive overheads, are
// dropped and duplicated like any message, and count in the stats.
//
// Payload representation: the simulation shares one host address space, so
// payloads travel as shared_ptr<void> plus a declared byte size used for
// costing. Marshalling cost is charged explicitly by the runtime layer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/types.h"
#include "fm/reliable.h"
#include "sim/machine.h"
#include "sim/network.h"
#include "support/flat_map.h"

namespace dpa::fm {

using sim::NodeId;
using sim::Time;

// Packets, handlers, and messaging stats are the backend-neutral active-
// message vocabulary (exec/types.h); the FM layer is the simulator-side
// implementation of it. Handler is an InlineFn, so registering and invoking
// a handler never touches std::function's type-erasure allocations.
using exec::HandlerId;
using exec::Packet;
using Handler = exec::Handler;
using FmNodeStats = exec::MsgStats;

class FmLayer {
 public:
  explicit FmLayer(sim::Machine& machine);

  FmLayer(const FmLayer&) = delete;
  FmLayer& operator=(const FmLayer&) = delete;

  // Registers a handler (same id on every node). Must happen before sends.
  HandlerId register_handler(Handler fn);

  // Sends from node `src`, called from inside a task running on `src`.
  // Charges send overhead (Work::kComm) per fragment to `cpu`; the message
  // departs at the sender's logical time.
  void send(sim::Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
            std::shared_ptr<void> data, std::uint32_t bytes);

  const FmNodeStats& node_stats(NodeId id) const { return stats_[id]; }
  FmNodeStats aggregate_stats() const;

  // Marks the start of a timed phase: zeroes the stats and, under a fault
  // plan, rebuilds the per-node protocol state (so sequence numbers restart
  // at 1). Nothing may still be in flight.
  void begin_phase();

  sim::Machine& machine() { return machine_; }

  // Targeted fault injection (deterministic, for tests): silently drop the
  // `nth` message sent from now on (1 = the very next; acks and
  // retransmissions count). Unlike the probabilistic FaultPlan, this drops
  // one specific message, and on a fault-free network nothing recovers it:
  // tests of unrecovered loss use it to check that the phase surfaces as
  // incomplete with diagnostics. Under an armed plan it is retransmitted
  // like any other loss.
  void drop_nth_message(std::uint64_t nth) { drop_at_ = sends_seen_ + nth; }
  std::uint64_t dropped_messages() const { return dropped_; }

 private:
  // Handler id of FM's internal acks; register_handler never hands it out.
  static constexpr HandlerId kAckHandler = 0xffff;

  // Puts one copy of `packet` on the wire under sequence number `seq`
  // (0 = unsequenced): per-fragment send overhead, stats, whole-message
  // faults. The original send, retransmissions and acks all come here.
  void transmit(sim::Cpu& cpu, const Packet& packet, std::uint64_t seq);
  // One fragment train = one logical message on the wire. Whole-message
  // faults (drop/dup) apply to trains: a duplicated message is re-sent as a
  // complete second train with its own id and the same seq, and the
  // receiver's dedup drops whichever copy lands second.
  void send_train(sim::Cpu* cpu, sim::Time depart, const Packet& packet,
                  std::uint32_t nfrags, bool lost, std::uint64_t seq);
  void deliver(const Packet& packet, std::uint64_t train,
               std::uint32_t nfrags, std::uint32_t frag_bytes,
               std::uint64_t seq);
  // A complete train's task on the destination: receive overhead, then the
  // protocol (ack, dedup) when sequenced, then the handler.
  void receive(sim::Cpu& cpu, const Packet& packet, std::uint64_t seq);
  // Schedules the retransmit check for `src`'s message `seq` at `at`.
  void arm_retransmit(NodeId src, std::uint64_t seq, Time at);
  void retransmit(sim::Cpu& cpu, NodeId src, std::uint64_t seq);

  sim::Machine& machine_;
  std::vector<Handler> handlers_;
  std::vector<FmNodeStats> stats_;
  std::uint64_t sends_seen_ = 0;
  std::uint64_t drop_at_ = 0;  // 0 = disabled
  std::uint64_t dropped_ = 0;
  std::uint64_t next_train_ = 0;
  // Fragments received per incomplete multi-fragment train. With timing
  // faults fragments may arrive out of order, so completion is by count,
  // not by which fragment was sent last.
  FlatMap<std::uint64_t, std::uint32_t> partial_;
  // Exactly-once protocol state, one per node; empty on a fault-free
  // network.
  std::vector<Reliable> rel_;
};

}  // namespace dpa::fm
