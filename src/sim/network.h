// LogGP-style network model.
//
// This stands in for the Cray T3D's torus as seen through the Illinois Fast
// Messages layer. The parameters are the LogGP terms the DPA optimizations
// manipulate: per-message send/receive overhead (what aggregation amortizes),
// latency (what pipelining hides), and per-byte cost. Optionally each node's
// NIC serializes its outgoing traffic, which models injection bandwidth.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/time.h"

namespace dpa::sim {

using exec::NodeId;

// Interconnect shape. The crossbar charges `latency` uniformly; the 3D
// torus (the T3D's actual topology) adds `per_hop` per link crossed, with
// nodes arranged in a near-cubic grid and routed dimension-ordered.
enum class Topology : std::uint8_t { kCrossbar, kTorus3d };

struct NetParams {
  // Software send overhead per message, charged to the sending processor.
  Time send_overhead = 1500;
  // Software receive overhead per message, charged to the receiver.
  Time recv_overhead = 1500;
  // Wire latency, first bit out to first bit in (plus per-hop cost on the
  // torus).
  Time latency = 3000;
  Topology topology = Topology::kCrossbar;
  Time per_hop = 120;  // torus only
  // Inverse bandwidth. 33 ns/byte ~= 30 MB/s, the FM-on-T3D regime.
  double ns_per_byte = 33.0;
  // Fixed wire cost per message (header serialization).
  Time per_msg_wire = 200;
  // If true, a node's messages leave its NIC one at a time.
  bool nic_serialize = true;
  // Maximum message size; the FM layer segments larger payloads.
  std::uint32_t mtu_bytes = 4096;

  // Unreliable-fabric model (inactive by default: faults.any() == false, in
  // which case no injector is allocated and every fault hook reduces to a
  // null-pointer test). See sim/fault.h for the plan and layering.
  FaultPlan faults;

  // A zero-cost network: turns every configuration into a single-address-
  // space machine. Used to study DPA as a pure cache/tiling optimization
  // (the paper's section 6 "currently investigating" direction).
  static NetParams zero() {
    NetParams p;
    p.send_overhead = 0;
    p.recv_overhead = 0;
    p.latency = 0;
    p.ns_per_byte = 0.0;
    p.per_msg_wire = 0;
    p.nic_serialize = false;
    return p;
  }
};

struct NetStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  void reset() { *this = NetStats{}; }
};

class Network {
 public:
  Network(Engine& engine, NetParams params, std::uint32_t num_nodes);

  // Injects a message at logical time `depart` (>= engine.now(), typically
  // engine.now() + the sender's accumulated charge). `on_deliver` runs at the
  // destination's arrival time; the receiving layer is responsible for
  // charging recv_overhead to the destination processor.
  //
  // Returns the arrival time.
  Time send(NodeId src, NodeId dst, std::uint32_t bytes, Time depart,
            Engine::EventFn on_deliver);

  // As send(), but the message dies on the wire: it pays NIC serialization
  // and counts in the stats (it was injected), yet nothing is delivered.
  // Used by the FM layer for fragments of a fault-dropped message.
  Time send_lost(NodeId src, NodeId dst, std::uint32_t bytes, Time depart);

  // The fault injector, or nullptr on a reliable (fault-free) network.
  FaultInjector* injector() { return injector_.get(); }
  const FaultInjector* injector() const { return injector_.get(); }

  // Called when a pause fault fires: hook(node, duration). Installed by
  // sim::Machine, which turns it into a busy task on the paused node.
  void set_pause_hook(std::function<void(NodeId, Time)> hook) {
    pause_hook_ = std::move(hook);
  }

  const NetParams& params() const { return params_; }
  const NetStats& stats() const { return stats_; }
  NetStats& stats() { return stats_; }
  std::uint32_t num_nodes() const { return std::uint32_t(nic_free_.size()); }

  // Time the wire occupies for a message of `bytes` payload.
  Time wire_time(std::uint32_t bytes) const {
    return params_.per_msg_wire + Time(double(bytes) * params_.ns_per_byte);
  }

  // Torus hop count between two nodes (0 on the crossbar).
  std::uint32_t hops(NodeId src, NodeId dst) const;

  // The torus grid dimensions chosen for this node count.
  void torus_dims(std::uint32_t* x, std::uint32_t* y, std::uint32_t* z) const;

  void set_trace(obs::EventSink* sink) { trace_ = sink; }

 private:
  Time inject(NodeId src, NodeId dst, std::uint32_t bytes, Time depart,
              bool deliverable, Engine::EventFn* on_deliver);

  Engine& engine_;
  NetParams params_;
  NetStats stats_;
  std::vector<Time> nic_free_;  // per-source NIC availability
  std::uint32_t dims_[3] = {1, 1, 1};
  obs::EventSink* trace_ = nullptr;
  std::unique_ptr<FaultInjector> injector_;  // null when fault-free
  std::function<void(NodeId, Time)> pause_hook_;
};

}  // namespace dpa::sim
