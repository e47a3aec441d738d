#include "sim/machine.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"

namespace dpa::sim {

void NodeProc::post(Task task) {
  pending_.push(std::move(task));
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    const Time at = std::max(engine_.now(), busy_until_);
    engine_.schedule_at(at, [this] { drain(); });
  }
}

void NodeProc::drain() {
  drain_scheduled_ = false;
  if (pending_.empty()) return;

  // A task posted from within a running task lands here before busy_until_
  // caught up with that task's end; start no earlier than the node is free.
  const Time start = std::max(engine_.now(), busy_until_);
  Task task = pending_.pop();

  Cpu cpu(id_, start);
  task(cpu);

  busy_until_ = start + cpu.used_total();
  if (cpu.used_total() > 0)
    DPA_TRACE_EVT(trace_, span(obs::Ev::kTask, id_, start, busy_until_));
  for (int k = 0; k < kNumWorkKinds; ++k)
    stats_.busy[k] += cpu.used(Work(k));
  stats_.busy_total += cpu.used_total();
  stats_.finish_time = busy_until_;
  ++stats_.tasks_run;

  if (!pending_.empty()) {
    drain_scheduled_ = true;
    engine_.schedule_at(busy_until_, [this] { drain(); });
  }
}

Machine::Machine(std::uint32_t num_nodes, NetParams params)
    : network_(engine_, params, num_nodes) {
  nodes_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i)
    nodes_.push_back(std::make_unique<NodeProc>(engine_, i));
  if (network_.injector() != nullptr) {
    // A pause fault stalls the whole node: it runs as a busy task, so every
    // queued handler and scheduler step waits it out. Charged as runtime
    // time (it is neither application work nor messaging overhead).
    network_.set_pause_hook([this](NodeId id, Time duration) {
      node(id).post(
          [duration](Cpu& cpu) { cpu.charge(duration, Work::kRuntime); });
    });
  }
}

NodeProc& Machine::node(NodeId id) {
  DPA_CHECK(id < nodes_.size()) << "bad node id " << id;
  return *nodes_[id];
}

const NodeProc& Machine::node(NodeId id) const {
  DPA_CHECK(id < nodes_.size()) << "bad node id " << id;
  return *nodes_[id];
}

void Machine::begin_phase() {
  // The phase starts once every node has drained its previous work: charged
  // time can extend past the last event's timestamp.
  phase_start_ = engine_.now();
  for (auto& n : nodes_) {
    phase_start_ = std::max(phase_start_, n->busy_until());
    n->reset_stats();
  }
  network_.stats().reset();
  if (auto* injector = network_.injector()) injector->reset_stats();
}

Time Machine::run_phase() {
  engine_.run();
  Time finish = phase_start_;
  for (auto& n : nodes_)
    finish = std::max(finish, n->stats().finish_time);
  return finish - phase_start_;
}

void Machine::set_trace(obs::EventSink* sink) {
  for (auto& n : nodes_) n->set_trace(sink);
  network_.set_trace(sink);
}

}  // namespace dpa::sim
