#include "fm/fm.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"

namespace dpa::fm {

namespace {
// An ack is a header-only message, and re-sending an unacked message costs
// the sender what closing out one message does (rt::CostModel's
// msg_header_bytes and flush_fixed defaults) before the send path's own
// per-fragment overhead.
constexpr std::uint32_t kAckBytes = 32;
constexpr Time kRetransmitCost = 300;
}  // namespace

FmLayer::FmLayer(sim::Machine& machine)
    : machine_(machine), stats_(machine.num_nodes()) {
  begin_phase();
}

HandlerId FmLayer::register_handler(Handler fn) {
  DPA_CHECK(handlers_.size() < kAckHandler) << "handler table full";
  handlers_.push_back(std::move(fn));
  return HandlerId(handlers_.size() - 1);
}

void FmLayer::begin_phase() {
  for (auto& s : stats_) s.reset();
  if (machine_.network().injector() == nullptr) return;
  for (const Reliable& r : rel_)
    DPA_CHECK(r.in_flight() == 0) << "phase began with unacked messages";
  rel_.clear();
  const std::uint32_t n = machine_.num_nodes();
  rel_.reserve(n);
  for (NodeId i = 0; i < n; ++i)
    rel_.emplace_back(n, RetryPolicy{}, i);
}

void FmLayer::send(sim::Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
                   std::shared_ptr<void> data, std::uint32_t bytes) {
  DPA_CHECK(handler < handlers_.size()) << "unregistered handler " << handler;
  DPA_CHECK(src < machine_.num_nodes() && dst < machine_.num_nodes());
  Packet packet{src, dst, handler, bytes, std::move(data)};
  std::uint64_t seq = 0;
  if (!rel_.empty()) {
    // The retransmit timer is armed before the first copy leaves.
    seq = rel_[src].next_seq();
    const Time deadline = rel_[src].track(
        seq, {dst, handler, packet.data, bytes}, cpu.logical_now());
    arm_retransmit(src, seq, deadline);
  }
  transmit(cpu, packet, seq);
}

void FmLayer::transmit(sim::Cpu& cpu, const Packet& packet,
                       std::uint64_t seq) {
  auto& net = machine_.network();
  const std::uint32_t mtu = net.params().mtu_bytes;
  const std::uint32_t nfrags =
      packet.bytes == 0 ? 1 : (packet.bytes + mtu - 1) / mtu;

  auto& st = stats_[packet.src];
  ++st.msgs_sent;
  st.frags_sent += nfrags;
  st.bytes_sent += packet.bytes;

  ++sends_seen_;
  bool lost = false;
  if (drop_at_ != 0 && sends_seen_ == drop_at_) {
    // Targeted fault injection: the message vanishes after paying the send
    // cost and occupying the wire.
    ++dropped_;
    lost = true;
  }

  auto* injector = net.injector();
  if (injector != nullptr && !lost &&
      injector->roll_msg_drop(packet.src, packet.dst)) {
    ++dropped_;
    lost = true;
  }
  send_train(&cpu, cpu.logical_now(), packet, nfrags, lost, seq);
  if (injector != nullptr && !lost &&
      injector->roll_msg_dup(packet.src, packet.dst)) {
    // The fabric duplicated the message: the copy occupies the NIC and wire
    // but costs the sending processor nothing (it never re-entered software).
    send_train(nullptr, cpu.logical_now(), packet, nfrags, /*lost=*/false,
               seq);
  }
}

void FmLayer::send_train(sim::Cpu* cpu, sim::Time depart, const Packet& packet,
                         std::uint32_t nfrags, bool lost, std::uint64_t seq) {
  auto& net = machine_.network();
  const std::uint32_t mtu = net.params().mtu_bytes;
  const std::uint64_t train = ++next_train_;
  std::uint32_t remaining = packet.bytes;
  for (std::uint32_t f = 0; f < nfrags; ++f) {
    const std::uint32_t frag_bytes = std::min(remaining, mtu);
    remaining -= frag_bytes;
    // Per-fragment software send overhead on the source processor.
    if (cpu != nullptr) {
      cpu->charge(net.params().send_overhead, sim::Work::kComm);
      depart = cpu->logical_now();
    }
    if (lost) {
      net.send_lost(packet.src, packet.dst, frag_bytes, depart);
      continue;
    }
    auto arrive = [this, copy = packet, train, nfrags, frag_bytes, seq] {
      deliver(copy, train, nfrags, frag_bytes, seq);
    };
    static_assert(sizeof(arrive) <= 64,
                  "fragment delivery must fit sim::Engine::EventFn inline");
    net.send(packet.src, packet.dst, frag_bytes, depart, std::move(arrive));
  }
}

void FmLayer::deliver(const Packet& packet, std::uint64_t train,
                      std::uint32_t nfrags, std::uint32_t frag_bytes,
                      std::uint64_t seq) {
  auto& node = machine_.node(packet.dst);
  auto& st = stats_[packet.dst];
  st.bytes_recv += frag_bytes;
  if (nfrags > 1) {
    if (++partial_[train] < nfrags) {
      // A non-final fragment costs the receiver its overhead, nothing more.
      node.post([recv = machine_.network().params().recv_overhead](
                    sim::Cpu& cpu) { cpu.charge(recv, sim::Work::kComm); });
      return;
    }
    partial_.erase(train);
  }
  ++st.msgs_recv;
  auto task = [this, seq, packet](sim::Cpu& cpu) {
    receive(cpu, packet, seq);
  };
  static_assert(sizeof(task) <= 64, "delivery must fit sim::Task inline");
  node.post(std::move(task));
}

void FmLayer::receive(sim::Cpu& cpu, const Packet& packet, std::uint64_t seq) {
  cpu.charge(machine_.network().params().recv_overhead, sim::Work::kComm);
  if (seq != 0) {
    auto& st = stats_[packet.dst];
    Reliable& rel = rel_[packet.dst];
    if (packet.handler == kAckHandler) {
      if (rel.on_ack(seq)) ++st.acks_recv;
      return;
    }
    // Ack every copy, duplicates included: the ack for an earlier copy may
    // itself have been lost, and acks are idempotent at the sender.
    ++st.acks_sent;
    transmit(cpu,
             Packet{packet.dst, packet.src, kAckHandler, kAckBytes, nullptr},
             seq);
    if (!rel.accept(packet.src, seq)) {
      ++st.dup_msgs_dropped;
      return;
    }
  }
  handlers_[packet.handler](cpu, packet);
}

void FmLayer::arm_retransmit(NodeId src, std::uint64_t seq, Time at) {
  machine_.engine().schedule_at(at, [this, src, seq] {
    // A timer for an acked message does nothing and charges nothing, so it
    // cannot perturb phase timing.
    if (!rel_[src].is_pending(seq)) return;
    machine_.node(src).post(
        [this, src, seq](sim::Cpu& cpu) { retransmit(cpu, src, seq); });
  });
}

void FmLayer::retransmit(sim::Cpu& cpu, NodeId src, std::uint64_t seq) {
  // retry() bumps the attempt count (fatal past max_retries) and applies
  // the capped exponential backoff.
  const Reliable::Pending* p = rel_[src].retry(seq);
  if (p == nullptr) return;  // the ack raced this task
  ++stats_[src].retries;
  cpu.charge(kRetransmitCost, sim::Work::kComm);
  const Time timeout = p->timeout;
  transmit(cpu, Packet{src, p->dst, p->handler, p->bytes, p->data}, seq);
  arm_retransmit(src, seq, cpu.logical_now() + timeout);
}

FmNodeStats FmLayer::aggregate_stats() const {
  FmNodeStats total;
  for (const auto& s : stats_) total += s;
  return total;
}

}  // namespace dpa::fm
