// Simulated multiprocessor: per-node sequential processors over a shared
// LogGP network.
//
// Each node executes posted tasks one at a time (a T3D node is a single
// Alpha). A task charges its cost to the node's Cpu context as it runs; the
// node is busy for exactly the charged duration, and everything it sends
// departs at its logical time within the task. Idle time falls out as
// phase-elapsed minus busy time, which is exactly the "idle" component in the
// paper's breakdown figures.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/time.h"
#include "support/fifo.h"
#include "support/inline_fn.h"

namespace dpa::sim {

// Work attribution, the per-task execution context, node tasks, and node
// stats are backend-neutral vocabulary shared with the native backend; they
// live in exec/types.h and keep their historical sim:: names here.
using exec::kNumWorkKinds;
using exec::Work;
using Cpu = exec::Cpu;
using Task = exec::Task;
using NodeStats = exec::NodeStats;

class NodeProc {
 public:
  NodeProc(Engine& engine, NodeId id) : engine_(engine), id_(id) {}

  NodeProc(const NodeProc&) = delete;
  NodeProc& operator=(const NodeProc&) = delete;

  // Enqueues a task. Tasks run serially in post order at the node's next
  // free instant.
  void post(Task task);

  NodeId id() const { return id_; }
  void set_trace(obs::EventSink* sink) { trace_ = sink; }
  const NodeStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }
  Time busy_until() const { return busy_until_; }
  std::size_t backlog() const { return pending_.size(); }

 private:
  void drain();

  Engine& engine_;
  NodeId id_;
  Fifo<Task> pending_;
  bool drain_scheduled_ = false;
  Time busy_until_ = 0;
  NodeStats stats_;
  obs::EventSink* trace_ = nullptr;
};

// An N-node machine: engine + network + processors.
class Machine {
 public:
  Machine(std::uint32_t num_nodes, NetParams params);

  Engine& engine() { return engine_; }
  Network& network() { return network_; }
  const Network& network() const { return network_; }
  NodeProc& node(NodeId id);
  const NodeProc& node(NodeId id) const;
  std::uint32_t num_nodes() const { return std::uint32_t(nodes_.size()); }

  // Marks the start of a timed phase: zeroes node/network stats and records
  // the phase origin.
  void begin_phase();

  // Runs the engine dry and returns phase elapsed time (max over nodes of
  // their finish time, relative to phase start).
  Time run_phase();

  Time phase_start() const { return phase_start_; }

  // Attaches a trace sink that records every task that charged time as a
  // kTask span and every wire flight as a kWire span (nullptr detaches).
  void set_trace(obs::EventSink* sink);

 private:
  Engine engine_;
  Network network_;
  std::vector<std::unique_ptr<NodeProc>> nodes_;
  Time phase_start_ = 0;
};

}  // namespace dpa::sim
