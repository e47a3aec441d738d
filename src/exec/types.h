// Execution-substrate vocabulary: the types every backend-neutral layer
// (gas, runtime, apps) programs against.
//
// Historically these lived in sim/ — the simulator was the only execution
// substrate. With the native (threaded) backend they are the *contract*
// between the runtime and whichever substrate runs it, so they live here
// and sim/ re-exports them under its old names.
//
// Time is always nanoseconds. On the simulator it is modeled machine time;
// on the native backend task charges still accumulate modeled time (so the
// breakdown attribution survives), while phase elapsed time is real
// monotonic wall-clock.
#pragma once

#include <cstdint>
#include <memory>

#include "support/assert.h"
#include "support/inline_fn.h"

namespace dpa::exec {

using Time = std::int64_t;  // nanoseconds
using NodeId = std::uint32_t;

constexpr Time kNanosecond = 1;
constexpr Time kMicrosecond = 1000;
constexpr Time kMillisecond = 1000 * kMicrosecond;
constexpr Time kSecond = 1000 * kMillisecond;

constexpr double to_seconds(Time t) { return double(t) / double(kSecond); }
constexpr double to_micros(Time t) { return double(t) / double(kMicrosecond); }

// Which execution substrate a Cluster runs on.
enum class BackendKind : std::uint8_t {
  kSim,     // deterministic discrete-event simulator (modeled time)
  kNative,  // M:N worker pool over the nodes, real monotonic time
  kProc,    // worker processes over socketpairs, one NativeBackend each
};

// Where a charged nanosecond goes in the breakdown figures.
enum class Work : std::uint8_t {
  kCompute = 0,  // application work (force interactions, relaxation, ...)
  kRuntime = 1,  // scheduling: M/D updates, thread create/dispatch, hashing
  kComm = 2,     // send/receive software overhead, marshalling
};
constexpr int kNumWorkKinds = 3;

// Execution context handed to every task; accumulates charged time.
// Concrete (never virtual): charge() is the single hottest call in the
// tree, and both backends want the same plain counter bumps.
class Cpu {
 public:
  Cpu(NodeId node, Time start) : node_(node), start_(start) {}

  void charge(Time ns, Work kind = Work::kCompute) {
    DPA_CHECK(ns >= 0) << "negative charge: " << ns;
    used_total_ += ns;
    used_[int(kind)] += ns;
  }

  // The node-local logical time: task start plus everything charged so far.
  Time logical_now() const { return start_ + used_total_; }
  Time used_total() const { return used_total_; }
  Time used(Work kind) const { return used_[int(kind)]; }
  NodeId node_id() const { return node_; }

 private:
  NodeId node_;
  Time start_;
  Time used_total_ = 0;
  Time used_[kNumWorkKinds] = {0, 0, 0};
};

// Node tasks capture at most FM's delivery state (the layer, a sequence
// number and a Packet; fm.cpp static_asserts it fits); like the
// simulator's events they stay inline and never heap-allocate in-tree.
using Task = InlineFn<void(Cpu&), 64>;

using HandlerId = std::uint16_t;

// An active message as the destination handler sees it. The whole
// reproduction shares one host address space, so payloads travel as
// shared_ptr<void> plus a declared byte size used for costing. `bytes`
// sits before `data` so the struct has no padding (32 bytes): FM's
// fragment closure, a Packet plus its bookkeeping, must fit in 64.
struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  HandlerId handler = 0;
  std::uint32_t bytes = 0;     // modeled wire size (payload incl. headers)
  std::shared_ptr<void> data;  // handler-defined payload
};

// Runs on the destination node, in a destination-node task context.
using Handler = InlineFn<void(Cpu&, const Packet&), 48>;

// Per-node execution accounting for the last phase. On the simulator every
// field is modeled time; on the native backend busy[] keeps the modeled
// charge attribution while busy_total/finish_time are real wall-clock,
// measured per drain batch (a run of the node's queued tasks), so
// idle = elapsed - busy_total stays meaningful.
struct NodeStats {
  Time busy[kNumWorkKinds] = {0, 0, 0};
  Time busy_total = 0;
  Time finish_time = 0;  // time the node last stopped being busy
  std::uint64_t tasks_run = 0;

  void reset() { *this = NodeStats{}; }
};

// Scheduler-level counters for the last phase (native worker pool only;
// all-zero on the simulator, which has no workers). These are worker
// properties, not node properties: with M:N scheduling a node has no park
// state of its own — it is queued, running on some worker, or idle.
struct SchedStats {
  // Condvar parks taken by idle workers after the spin -> yield escalation
  // ran dry.
  std::uint64_t parks = 0;
  // Whole-node activations stolen from another worker's run queue.
  std::uint64_t steals = 0;
  // idle -> queued node transitions (each enqueues one node activation).
  std::uint64_t activations = 0;

  SchedStats& operator+=(const SchedStats& o) {
    parks += o.parks;
    steals += o.steals;
    activations += o.activations;
    return *this;
  }
};

// Per-node messaging statistics (the FM layer's units, shared by both
// backends so harnesses print one table).
struct MsgStats {
  std::uint64_t msgs_sent = 0;   // logical messages (pre-segmentation)
  std::uint64_t frags_sent = 0;  // wire fragments
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  // Native backend only: destination-mailbox handoffs (each train moves a
  // batch of messages under one lock). trains_sent <= msgs_sent; the gap is
  // the per-message locking the trains amortized away. Zero on the
  // simulator, whose FM layer delivers through the modeled network instead.
  std::uint64_t trains_sent = 0;
  // Simulator only, and zero unless a FaultPlan is armed: FM's exactly-once
  // recovery (timeout-driven retransmissions, acks, and duplicate copies
  // the receiver dropped by sequence number).
  std::uint64_t retries = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_recv = 0;
  std::uint64_t dup_msgs_dropped = 0;

  void reset() { *this = MsgStats{}; }

  MsgStats& operator+=(const MsgStats& o) {
    msgs_sent += o.msgs_sent;
    frags_sent += o.frags_sent;
    msgs_recv += o.msgs_recv;
    bytes_sent += o.bytes_sent;
    bytes_recv += o.bytes_recv;
    trains_sent += o.trains_sent;
    retries += o.retries;
    acks_sent += o.acks_sent;
    acks_recv += o.acks_recv;
    dup_msgs_dropped += o.dup_msgs_dropped;
    return *this;
  }
};

// Byte-stream fabric counters (transport::PipeChannel; the proc backend
// sums them over its worker processes). All-zero on backends without one.
struct WireStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_recv = 0;
  std::uint64_t payloads_recv = 0;
  std::uint64_t bytes_sent = 0;

  WireStats& operator+=(const WireStats& o) {
    frames_sent += o.frames_sent;
    frames_recv += o.frames_recv;
    payloads_recv += o.payloads_recv;
    bytes_sent += o.bytes_sent;
    return *this;
  }
};

}  // namespace dpa::exec
