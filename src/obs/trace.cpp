#include "obs/trace.h"

namespace dpa::obs {

const char* to_string(Ev kind) {
  switch (kind) {
    case Ev::kTask: return "task";
    case Ev::kWire: return "wire";
    case Ev::kPhaseBegin: return "phase_begin";
    case Ev::kPhaseEnd: return "phase_end";
    case Ev::kThreadCreated: return "thread_created";
    case Ev::kThreadSuspended: return "thread_suspended";
    case Ev::kThreadResumed: return "thread_resumed";
    case Ev::kThreadRetired: return "thread_retired";
    case Ev::kTileOpened: return "tile_opened";
    case Ev::kTileDispatched: return "tile_dispatched";
    case Ev::kTileClosed: return "tile_closed";
    case Ev::kMsgDepart: return "msg_depart";
    case Ev::kMsgArrive: return "msg_arrive";
    case Ev::kWorkerRun: return "run";
    case Ev::kWorkerDrain: return "drain";
    case Ev::kMailboxWait: return "mbox_wait";
    case Ev::kTrainFlush: return "train_flush";
    case Ev::kQuiesceScan: return "quiesce_scan";
    case Ev::kIdleYield: return "idle_yield";
    case Ev::kPark: return "park";
    case Ev::kSteal: return "steal";
  }
  return "unknown";
}

const char* to_string(UnparkCause cause) {
  switch (cause) {
    case UnparkCause::kWork: return "work";
    case UnparkCause::kQuiesced: return "quiesced";
  }
  return "unknown";
}

const char* to_string(MsgCause cause) {
  switch (cause) {
    case MsgCause::kData: return "data";
    case MsgCause::kRequest: return "request";
    case MsgCause::kReply: return "reply";
    case MsgCause::kAccum: return "accum";
  }
  return "unknown";
}

#if DPA_TRACE_ENABLED

void Tracer::record(const TraceEvent& ev) {
  if (capacity_ == 0) return;
  ++recorded_;
  if (ring_.size() < capacity_) {
    if (ring_.capacity() == 0) ring_.reserve(capacity_);
    ring_.push_back(ev);
    return;
  }
  // Full: overwrite oldest (the ring keeps the trailing window).
  ring_[next_] = ev;
  next_ = (next_ + 1) % capacity_;
}

#else

void Tracer::record(const TraceEvent&) {}

#endif  // DPA_TRACE_ENABLED

void EventSink::instant(Ev kind, NodeId node, Time at, std::uint64_t arg,
                        const char* label) {
  TraceEvent ev;
  ev.kind = kind;
  ev.node = node;
  ev.at = at;
  ev.arg = arg;
  ev.label = label;
  record(ev);
}

void EventSink::span(Ev kind, NodeId node, Time at, Time end,
                     std::uint64_t arg, NodeId peer) {
  TraceEvent ev;
  ev.kind = kind;
  ev.node = node;
  ev.peer = peer;
  ev.at = at;
  ev.end = end;
  ev.arg = arg;
  record(ev);
}

void EventSink::msg_event(Ev kind, MsgCause cause, NodeId node, NodeId peer,
                          std::uint64_t bytes, Time at) {
  TraceEvent ev;
  ev.kind = kind;
  ev.cause = cause;
  ev.node = node;
  ev.peer = peer;
  ev.at = at;
  ev.arg = bytes;
  record(ev);
}

void Tracer::phase_begin(std::string_view name, Time at) {
  if constexpr (!kTraceEnabled) return;
  TraceEvent ev;
  ev.kind = Ev::kPhaseBegin;
  ev.at = at;
  ev.label = intern(name);
  record(ev);
}

void Tracer::phase_end(std::string_view name, Time at) {
  if constexpr (!kTraceEnabled) return;
  TraceEvent ev;
  ev.kind = Ev::kPhaseEnd;
  ev.at = at;
  ev.label = intern(name);
  record(ev);
}

const char* Tracer::intern(std::string_view name) {
  for (const std::string& s : interned_)
    if (s == name) return s.c_str();
  interned_.emplace_back(name);
  return interned_.back().c_str();
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // `next_` is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  return out;
}

void Tracer::clear() {
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
  interned_.clear();
}

}  // namespace dpa::obs
