// Discrete-event engine.
//
// A 4-ary implicit heap of (time, sequence) ordered events. The sequence
// number makes simultaneous events fire in schedule order, which makes every
// simulation in this repository bit-for-bit deterministic (property-tested).
//
// Host-performance notes (this queue is the hottest structure in the tree):
//   * 4-ary beats binary here: sift-down does half the levels, and the four
//     children share a cache line's worth of (time, seq) keys.
//   * EventFn is an InlineFn, so scheduling a closure does not heap-allocate
//     unless the capture exceeds the inline buffer. FM's fragment delivery,
//     the largest in-tree, static_asserts that it fits.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "support/inline_fn.h"

namespace dpa::sim {

class Engine {
 public:
  // Events capture at most a pointer plus a few words in-tree; 64 bytes
  // covers the largest (FM fragment delivery: Packet + train bookkeeping).
  using EventFn = InlineFn<void(), 64>;

  // Schedules `fn` at absolute time `at` (must be >= now()).
  void schedule_at(Time at, EventFn fn);

  // Schedules `fn` `delay` ns after now().
  void schedule_after(Time delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  // Runs events until the queue drains. Returns the number processed.
  std::uint64_t run();

  // Runs at most one event; returns false if the queue was empty.
  bool step();

  Time now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::uint64_t events_processed() const { return events_processed_; }

  // Aborts the simulation if it exceeds this many events (guards against
  // livelock bugs in schedulers; 0 disables).
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    EventFn fn;
  };

  // a fires strictly before b.
  static bool earlier(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Event> heap_;  // min-heap, 4 children per node
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t event_limit_ = 0;
};

}  // namespace dpa::sim
