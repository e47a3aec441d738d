// SimBackend: the discrete-event simulator behind the Backend interface.
//
// Owns the sim::Machine (engine + LogGP network + node processors) and the
// fm::FmLayer (active messages with MTU segmentation) exactly as the
// runtime used them before the Backend split. Behavior-preserving by
// construction: every call forwards to the same machine/fm entry points in
// the same order, so simulations are byte-identical to the pre-Backend tree
// (golden-checked).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "exec/backend.h"
#include "fm/fm.h"
#include "obs/session.h"
#include "sim/machine.h"

namespace dpa::exec {

class SimBackend final : public Backend {
 public:
  SimBackend(std::uint32_t num_nodes, const sim::NetParams& params)
      : machine_(num_nodes, params), fm_(machine_) {}

  BackendKind kind() const override { return BackendKind::kSim; }
  std::uint32_t num_nodes() const override { return machine_.num_nodes(); }

  HandlerId register_handler(std::string /*name*/, Handler fn,
                             WireCodec /*codec*/ = {}) override {
    return fm_.register_handler(std::move(fn));
  }

  void send(Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
            std::shared_ptr<void> data, std::uint32_t bytes) override {
    fm_.send(cpu, src, dst, handler, std::move(data), bytes);
  }

  void post(NodeId node, Task task) override {
    machine_.node(node).post(std::move(task));
  }

  Time begin_phase() override {
    machine_.begin_phase();
    fm_.begin_phase();
    return machine_.phase_start();
  }

  PhaseExec run_phase() override {
    const std::uint64_t before = machine_.engine().events_processed();
    PhaseExec out;
    out.elapsed = machine_.run_phase();
    out.events = machine_.engine().events_processed() - before;
    out.msgs = fm_.aggregate_stats();
    out.epilogues = run_epilogues();
    return out;
  }

  const NodeStats& node_stats(NodeId node) const override {
    return machine_.node(node).stats();
  }

  // One thread runs the whole machine, so its spans go straight into the
  // session's tracer ring; there are no worker shards here.
  void attach_obs(obs::Session* session) override {
    machine_.set_trace(session != nullptr ? &session->tracer : nullptr);
  }

  sim::Machine* sim_machine() override { return &machine_; }
  fm::FmLayer& fm() { return fm_; }

 private:
  sim::Machine machine_;
  fm::FmLayer fm_;
};

}  // namespace dpa::exec
