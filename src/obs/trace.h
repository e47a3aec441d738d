// Structured event tracing: one interface, EventSink, that every layer
// records typed events through, and a low-overhead ring buffer (Tracer)
// behind it.
//
// The sim machine and network record task-execution and wire-flight spans
// (kTask / kWire); the runtime engines add the structured vocabulary the
// paper's mechanisms are explained in — thread lifecycle
// (created -> suspended-on-ref -> resumed -> retired), tile lifecycle
// (opened / dispatched / closed) and cause-tagged message depart/arrive
// instants (request / reply / accumulation). The phase runner brackets each
// timed phase with named begin/end markers.
//
// Cost model: recording is a bounds-checked store into a preallocated ring
// (the ring overwrites its oldest events once full; `dropped()` reports how
// many). Compiling with DPA_TRACE_ENABLED=0 (CMake -DDPA_TRACE=OFF) turns
// every record path into a no-op and the DPA_TRACE_EVT call-site macro
// skips argument evaluation entirely, so the instrumented hot paths cost
// nothing in measurement builds.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "exec/types.h"

#ifndef DPA_TRACE_ENABLED
#define DPA_TRACE_ENABLED 1
#endif

namespace dpa::obs {

using exec::NodeId;
using exec::Time;

constexpr bool kTraceEnabled = DPA_TRACE_ENABLED != 0;

enum class Ev : std::uint8_t {
  kTask = 0,    // span: node busy from `at` to `end` (sim machine)
  kWire,        // span: message on the wire, node=src peer=dst (sim network)
  kPhaseBegin,  // named phase markers (label = phase name)
  kPhaseEnd,
  kThreadCreated,    // require() accepted a thread (arg = ref bytes)
  kThreadSuspended,  // thread parked waiting on a remote ref
  kThreadResumed,    // parked thread handed its object
  kThreadRetired,    // thread body ran to completion
  kTileOpened,       // new M entry (arg = resulting M size)
  kTileDispatched,   // ready tile starts executing (arg = waiter count)
  kTileClosed,       // tile's waiters all ran
  kMsgDepart,        // cause-tagged message instants at the runtime layer
  kMsgArrive,        //   (arg = payload bytes, peer = other endpoint)
  // Native-backend worker vocabulary (wall-clock, recorded into per-worker
  // shards; see shard_sink.h). Timestamps are phase-relative at the record
  // site; the shard adds the backend clock base so phases stay monotone.
  // Node-scoped events (kWorkerRun/kWorkerDrain/kMailboxWait/kTrainFlush/
  // kSteal) carry the node id in `node`; worker-scoped events (kQuiesceScan/
  // kIdleYield/kPark) carry the worker index instead — with the M:N pool a
  // worker is not a node, and its idle behavior belongs to no node.
  kWorkerRun,    // span: one task ran (node = the node it ran for)
  kWorkerDrain,  // instant: inbox batch swapped in (arg = batch depth)
  kMailboxWait,  // span: acquiring a destination mailbox lock (peer = dst)
  kTrainFlush,   // instant: train handed off (peer = dst, arg = train depth)
  kQuiesceScan,  // instant: two-pass quiescence scan (arg = outstanding tasks)
  kIdleYield,    // instant: idle escalation left the spin window
  kPark,         // span: parked on the worker condvar (arg = UnparkCause)
  kSteal,        // instant: whole node stolen (node = stolen node,
                 //   arg = victim worker; recorded by the thief)
};
constexpr int kNumEventKinds = 21;

// Why a parked native worker left its parked spell (TraceEvent::arg of
// kPark). Consecutive timed-out re-parks coalesce into one span, so a
// stalled-but-parked machine records nothing — that keeps the rings
// quiescent for the watchdog's flight-recorder snapshot.
enum class UnparkCause : std::uint8_t {
  kWork = 0,   // a sender delivered work (or the wake race found some)
  kQuiesced,   // the phase ended: quiescence was confirmed
};

// Why a runtime-layer message moved (kMsgDepart / kMsgArrive).
enum class MsgCause : std::uint8_t {
  kData = 0,  // untagged (sim-level wire flight)
  kRequest,   // remote-ref fetch request
  kReply,     // object reply
  kAccum,     // remote accumulation
};

const char* to_string(Ev kind);
const char* to_string(MsgCause cause);
const char* to_string(UnparkCause cause);

struct TraceEvent {
  Ev kind = Ev::kTask;
  MsgCause cause = MsgCause::kData;
  NodeId node = 0;  // owning node (source for messages)
  NodeId peer = 0;  // message destination / arrival source
  Time at = 0;      // event time; span start for kTask / kWire
  Time end = 0;     // span end (kTask / kWire), 0 for instants
  std::uint64_t arg = 0;      // kind-specific payload (bytes, counts, sizes)
  const char* label = nullptr;  // static or interned string; may be null
};

// Anything structured events can be recorded into: the single-writer Tracer
// ring (sim backend, main thread) or one worker's TraceShard (native
// backend). The sim machine, its network and the engines hold an
// EventSink* so the same DPA_TRACE_EVT call sites serve both substrates;
// the non-virtual helpers build the TraceEvent and funnel through one
// virtual record().
class EventSink {
 public:
  virtual ~EventSink() = default;

  virtual void record(const TraceEvent& ev) = 0;

  void instant(Ev kind, NodeId node, Time at, std::uint64_t arg = 0,
               const char* label = nullptr);
  void span(Ev kind, NodeId node, Time at, Time end, std::uint64_t arg = 0,
            NodeId peer = 0);
  void msg_event(Ev kind, MsgCause cause, NodeId node, NodeId peer,
                 std::uint64_t bytes, Time at);
};

class Tracer final : public EventSink {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t(1) << 17;

  explicit Tracer(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  void record(const TraceEvent& ev) override;
  void phase_begin(std::string_view name, Time at);
  void phase_end(std::string_view name, Time at);

  // Copies `name` into tracer-owned storage and returns a pointer that stays
  // valid until clear()/destruction (for TraceEvent::label).
  const char* intern(std::string_view name);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  // Total events offered, including ones the ring has since overwritten.
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - ring_.size(); }

  // Events oldest to newest (recording order == non-decreasing time per
  // source; globally near-sorted, exporters sort by timestamp).
  std::vector<TraceEvent> snapshot() const;

  void clear();

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;  // allocated lazily on first record
  std::size_t next_ = 0;          // overwrite cursor once full
  std::uint64_t recorded_ = 0;
  std::deque<std::string> interned_;
};

}  // namespace dpa::obs

// Zero-cost call-site guard: evaluates nothing when tracing is compiled
// out, and nothing but the pointer test when no tracer is attached.
//   DPA_TRACE_EVT(tracer_ptr, instant(obs::Ev::kThreadCreated, node, now));
#if DPA_TRACE_ENABLED
#define DPA_TRACE_EVT(tracer, call)                  \
  do {                                               \
    if ((tracer) != nullptr) (tracer)->call;         \
  } while (0)
#else
#define DPA_TRACE_EVT(tracer, call) \
  do {                              \
  } while (0)
#endif
