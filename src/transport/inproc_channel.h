// InProcChannel: the native backend's message-train fabric.
//
// Owns the per-source, per-destination outbound train buffers and the
// flush policy (depth limit / explicit flush / pre-deactivation flush);
// the backend stays in charge of what a delivery *is* via the Sink —
// locking the destination mailbox, tracing the hand-off, activating the
// destination node. That split keeps the hot path identical to the
// pre-transport tree: one lock acquisition per train, batch append,
// single-writer train state on the sending node's host thread.
//
// Thread-safety contract (same as the trains it replaces): srcs_[s] is
// touched only by the worker currently hosting node s. Host switches are
// ordered by the backend's activation protocol, which carries the
// happens-before edge; the alignas keeps neighboring sources off each
// other's cache lines.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "exec/types.h"
#include "support/assert.h"

namespace dpa::transport {

using exec::NodeId;

class InProcChannel {
 public:
  // What the owning backend does with a departed train. `batch` is the
  // train's tasks in send order; the sink moves the elements out (the
  // channel clears the vector afterwards, preserving its capacity for the
  // next train — no per-train allocation).
  class Sink {
   public:
    virtual ~Sink() = default;
    virtual void deliver_train(NodeId src, NodeId dst,
                               std::vector<exec::Task>& batch) = 0;
  };

  InProcChannel(std::uint32_t num_nodes, std::uint32_t train_max, Sink& sink)
      : train_max_(train_max), sink_(sink), srcs_(num_nodes) {
    DPA_CHECK(train_max_ > 0);
    for (auto& s : srcs_) s.train.resize(num_nodes);
  }

  InProcChannel(const InProcChannel&) = delete;
  InProcChannel& operator=(const InProcChannel&) = delete;

  // Appends one message to src's train for dst; the train departs when it
  // reaches train_max messages or at flush_src().
  void buffer(NodeId src, NodeId dst, exec::Task task) {
    SrcState& s = srcs_[src];
    auto& tr = s.train[dst];
    tr.push_back(std::move(task));
    ++s.pending;
    if (tr.size() >= train_max_) flush_dest(src, dst);
  }

  // Hands src's train for dst to the sink (one delivery = one train).
  void flush_dest(NodeId src, NodeId dst) {
    SrcState& s = srcs_[src];
    auto& tr = s.train[dst];
    if (tr.empty()) return;
    DPA_DCHECK(s.pending >= tr.size());
    s.pending -= std::uint32_t(tr.size());
    ++s.trains;
    sink_.deliver_train(src, dst, tr);
    tr.clear();
  }

  // Flushes every non-empty train of src; true if anything departed.
  bool flush_src(NodeId src) {
    SrcState& s = srcs_[src];
    if (s.pending == 0) return false;
    for (NodeId d = 0; d < NodeId(s.train.size()); ++d) flush_dest(src, d);
    DPA_DCHECK(s.pending == 0);
    return true;
  }

  // Trains src has handed off since construction / the last reset_stats().
  std::uint64_t trains_sent(NodeId src) const { return srcs_[src].trains; }

  // Messages buffered but not yet departed for src (zero between phases).
  std::uint32_t pending(NodeId src) const { return srcs_[src].pending; }

  void reset_stats() {
    for (auto& s : srcs_) s.trains = 0;
  }

 private:
  // Padded: train state is written at message rate by the hosting worker.
  struct alignas(64) SrcState {
    std::vector<std::vector<exec::Task>> train;
    std::uint32_t pending = 0;
    std::uint64_t trains = 0;
  };

  std::uint32_t train_max_;
  Sink& sink_;
  std::vector<SrcState> srcs_;
};

}  // namespace dpa::transport
