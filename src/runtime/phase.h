// PhaseRunner: executes one timed phase (e.g. one step's force computation)
// across all nodes under a chosen engine, and collects the measurements the
// paper reports — total time, per-node idle / communication-overhead /
// local-computation breakdown, message counts, aggregation factors, and
// resource high-water marks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/engine.h"
#include "runtime/stats.h"

namespace dpa::rt {

struct NodeBreakdown {
  Time compute = 0;  // application work
  Time runtime = 0;  // scheduling overhead (thread create, M, hashing)
  Time comm = 0;     // send/recv software overhead, marshalling
  Time idle = 0;     // waiting for replies or out of work
  Time busy_total = 0;
};

struct PhaseResult {
  bool completed = false;
  // Modeled machine time on the sim backend; real monotonic wall-clock on
  // the native backend.
  Time elapsed = 0;
  std::vector<NodeBreakdown> nodes;
  RtTotals rt;
  sim::NetStats net;       // sim backend only (zero on native)
  sim::FaultStats faults;  // zero on a reliable (fault-free) network
  fm::FmNodeStats fm_total;
  exec::WireStats wire;  // proc backend's socket frames (zero elsewhere)
  // Substrate progress units: discrete events processed (sim) or node
  // tasks executed (native).
  std::uint64_t sim_events = 0;
  std::string diagnostics;  // per-node state dumps if !completed

  double seconds() const { return sim::to_seconds(elapsed); }

  // Mean per-node components in seconds — the stacked bars of the paper's
  // breakdown figures ("local computation" = compute + runtime overhead).
  double mean_compute_s() const;
  double mean_runtime_s() const;
  double mean_local_s() const { return mean_compute_s() + mean_runtime_s(); }
  double mean_comm_s() const;
  double mean_idle_s() const;
};

class PhaseRunner {
 public:
  PhaseRunner(Cluster& cluster, RuntimeConfig cfg);

  PhaseRunner(const PhaseRunner&) = delete;
  PhaseRunner& operator=(const PhaseRunner&) = delete;

  // Runs one phase: work[i] is node i's conc loop. Blocks (in simulation)
  // until every node quiesces; if the phase cannot complete (a scheduling
  // bug would deadlock it), returns completed=false with diagnostics.
  //
  // When the cluster has an obs::Session attached, the phase is bracketed
  // with phase_begin/phase_end trace events under `name` and the phase's
  // totals (rt.*, net.*, fm.*) are published into the metrics registry, so
  // the registry's counters equal the sum of every published PhaseResult.
  PhaseResult run(std::vector<NodeWork> work,
                  std::string_view name = "phase");

  const RuntimeConfig& config() const { return cfg_; }

 private:
  std::unique_ptr<EngineBase> make_engine(NodeId node);

  Cluster& cluster_;
  RuntimeConfig cfg_;
  std::vector<std::unique_ptr<EngineBase>> engines_;
  fm::HandlerId h_req_;
  fm::HandlerId h_reply_;
  fm::HandlerId h_accum_;
};

}  // namespace dpa::rt
