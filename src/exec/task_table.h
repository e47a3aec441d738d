// TaskTable: the task counters every backend's phase end reads.
//
// Each node owns a (produced, consumed) pair: tasks created on the node
// and tasks finished on it, each counter on its own cache line. A task is
// counted once, where it is created:
//   * a task's self-post counts `produced` on its node, and every send()
//     counts `produced` on the sending node for the message's delivery
//     task, wherever the destination lives;
//   * a seed is counted by whoever stages it before the phase: the native
//     pool's post() from the main thread, the proc coordinator's post()
//     before it forks;
//   * a finished task counts `consumed` on the node it ran on.
// A task handed to a pool that someone else already counted — a proc
// worker's seeds and its inbound messages — is not counted again.
//
// The counters live in one MAP_SHARED | MAP_ANONYMOUS mapping, and the
// atomics are lock-free, hence address-free: processes forked after the
// table was made count into the same memory, so one table serves a
// single-process pool and every worker process of a proc phase alike.
//
// balanced() is the phase's end. Two-pass (Dijkstra-style confirm) scan:
// read every consumed counter, then every produced counter, all seq_cst.
// Why equality proves quiescence: all these operations share one total
// order S (they are seq_cst), and both counters only grow. Pick the
// instant t0 in S between the last consumed-load and the first
// produced-load. Every consumed value read was written before t0, so
// C <= sum(consumed at t0); every produced load reads the latest write
// before it in S, so P >= sum(produced at t0). A task's produce precedes
// its consume, hence sum(produced at t0) >= sum(consumed at t0) >= C. If
// P == C the chain collapses: at t0 every produced task was consumed —
// nothing queued, nothing in a train, nothing running (a running task is
// consumed only after it returns). Quiescence is stable within a phase:
// only running tasks produce, and every seed was counted before the phase
// started, so "quiescent at t0" means quiescent for good.
//
// The scan walks nodes, not workers or processes — which thread hosts a
// node is irrelevant, so stealing cannot perturb the proof. A corollary
// worth stating: quiescence implies every run queue is empty, because a
// queued activation exists only while its node has an unconsumed task
// (the producer that won the CAS had already counted it).
//
// The cross-process step is "a task's produce precedes its consume" for a
// message between processes. Its `produced` is counted in the sending
// task, by send(), before the train holding it can depart, so before its
// frame leaves. Its `consumed` is counted after its delivery task ran in
// the other process, which decoded the frame first. The socket carries a
// happens-before edge from the write to the read, so the produce comes
// first in S, and while the frame is in a train, in a socket buffer or in
// a mailbox, every scan sees it outstanding. A seed the coordinator
// counted before the fork is ordered before every worker's first scan by
// the fork itself, so no worker can see the table balance before a
// slower sibling has started.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "exec/types.h"

namespace dpa::exec {

class TaskTable {
 public:
  explicit TaskTable(std::uint32_t num_nodes);
  ~TaskTable();
  TaskTable(const TaskTable&) = delete;
  TaskTable& operator=(const TaskTable&) = delete;

  std::uint32_t num_nodes() const { return num_nodes_; }

  // A task was created on `node`. Must land strictly before the task can
  // run anywhere: a scan that misses its consume must also count it.
  void produce(NodeId node) {
    counters_[node].n.fetch_add(1, std::memory_order_seq_cst);
  }
  // A task finished on `node`, strictly after it returned: while it ran
  // (and possibly produced more), every scan saw it outstanding.
  void consume(NodeId node) {
    counters_[num_nodes_ + node].n.fetch_add(1, std::memory_order_seq_cst);
  }

  std::uint64_t produced(NodeId node) const {
    return counters_[node].n.load(std::memory_order_seq_cst);
  }
  std::uint64_t consumed(NodeId node) const {
    return counters_[num_nodes_ + node].n.load(std::memory_order_seq_cst);
  }

  // Every task counted so far has finished: the two-pass scan above.
  bool balanced() const;
  // Sum of produced - consumed in one pass: a progress figure for traces
  // and the watchdog, which proves nothing.
  std::uint64_t outstanding() const;
  // Zeroes every counter, for a table whose last phase was abandoned.
  // Only while nothing counts into it.
  void reset();

 private:
  struct alignas(64) Counter {
    std::atomic<std::uint64_t> n{0};
  };
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "the table's counters must be address-free");

  const std::uint32_t num_nodes_;
  const std::size_t bytes_;
  // produced at [0, nodes), consumed at [nodes, 2 * nodes).
  Counter* counters_;
};

}  // namespace dpa::exec
