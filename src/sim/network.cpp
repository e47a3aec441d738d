#include "sim/network.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"

namespace dpa::sim {

Network::Network(Engine& engine, NetParams params, std::uint32_t num_nodes)
    : engine_(engine), params_(params), nic_free_(num_nodes, 0) {
  DPA_CHECK(num_nodes > 0);
  if (params_.faults.any())
    injector_ = std::make_unique<FaultInjector>(params_.faults);
  // Near-cubic grid: grow dimensions round-robin until they cover all
  // nodes (8 -> 2x2x2, 64 -> 4x4x4, 12 -> 3x2x2).
  while (dims_[0] * dims_[1] * dims_[2] < num_nodes) {
    if (dims_[0] <= dims_[1] && dims_[0] <= dims_[2])
      ++dims_[0];
    else if (dims_[1] <= dims_[2])
      ++dims_[1];
    else
      ++dims_[2];
  }
}

void Network::torus_dims(std::uint32_t* x, std::uint32_t* y,
                         std::uint32_t* z) const {
  *x = dims_[0];
  *y = dims_[1];
  *z = dims_[2];
}

std::uint32_t Network::hops(NodeId src, NodeId dst) const {
  if (params_.topology == Topology::kCrossbar || src == dst) return 0;
  std::uint32_t total = 0;
  std::uint32_t a = src, b = dst;
  for (int d = 0; d < 3; ++d) {
    const std::uint32_t size = dims_[d];
    const std::uint32_t ca = a % size, cb = b % size;
    a /= size;
    b /= size;
    const std::uint32_t direct = ca > cb ? ca - cb : cb - ca;
    total += std::min(direct, size - direct);  // wrap-around links
  }
  return total;
}

Time Network::send(NodeId src, NodeId dst, std::uint32_t bytes, Time depart,
                   Engine::EventFn on_deliver) {
  return inject(src, dst, bytes, depart, /*deliverable=*/true, &on_deliver);
}

Time Network::send_lost(NodeId src, NodeId dst, std::uint32_t bytes,
                        Time depart) {
  return inject(src, dst, bytes, depart, /*deliverable=*/false, nullptr);
}

Time Network::inject(NodeId src, NodeId dst, std::uint32_t bytes, Time depart,
                     bool deliverable, Engine::EventFn* on_deliver) {
  DPA_CHECK(src < nic_free_.size() && dst < nic_free_.size())
      << "bad node id " << src << "->" << dst;
  DPA_CHECK(bytes <= params_.mtu_bytes)
      << "message exceeds MTU (" << bytes << " > " << params_.mtu_bytes
      << "); segment in the FM layer";
  DPA_CHECK(depart >= engine_.now());

  ++stats_.messages;
  stats_.bytes += bytes;

  const Time wire = wire_time(bytes);
  Time at = depart;
  if (params_.nic_serialize) {
    at = std::max(at, nic_free_[src]);
    nic_free_[src] = at + wire;
  }
  Time arrive =
      at + params_.latency + Time(hops(src, dst)) * params_.per_hop + wire;
  if (injector_ != nullptr && deliverable) {
    // Timing faults: latency spikes and reorder jitter push the arrival
    // back; a pause fault stalls the destination node around arrival time
    // (the hook posts a busy task there).
    arrive += injector_->roll_frag_delay(src, dst);
    if (pause_hook_ && injector_->roll_pause(src, dst))
      pause_hook_(dst, injector_->plan().pause_time);
  }
  DPA_TRACE_EVT(trace_, span(obs::Ev::kWire, src, at, arrive, bytes, dst));
  if (deliverable) engine_.schedule_at(arrive, std::move(*on_deliver));
  return arrive;
}

}  // namespace dpa::sim
