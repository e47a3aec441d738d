#include "obs/shard_sink.h"

#include <algorithm>

#include "support/assert.h"

namespace dpa::obs {

void WorkerProfile::reset() {
  task_service_ns.reset();
  mailbox_wait_ns.reset();
  train_occupancy.reset();
  park_ns.reset();
  queue_depth.reset();
}

void TraceShard::init(NodeId worker, std::size_t capacity) {
  DPA_CHECK(capacity > 0);
  worker_ = worker;
  ring_.resize(capacity);
}

#if DPA_TRACE_ENABLED

void TraceShard::record(const TraceEvent& ev) {
  const std::uint64_t c = count_.load(std::memory_order_relaxed);
  TraceEvent& slot = ring_[c % ring_.size()];
  slot = ev;
  slot.at += base_;
  if (slot.end != 0) slot.end += base_;
  // Release after the slot write: a reader that acquires a count >= c+1
  // sees this slot complete. The single writer never contends with itself.
  count_.store(c + 1, std::memory_order_release);
}

#else

void TraceShard::record(const TraceEvent&) {}

#endif  // DPA_TRACE_ENABLED

TraceShard::Snapshot TraceShard::snapshot() const {
  Snapshot out;
  const std::uint64_t c0 = recorded();
  const std::uint64_t n = std::min<std::uint64_t>(c0, ring_.size());
  out.first_seq = c0 - n;
  out.events.reserve(std::size_t(n));
  for (std::uint64_t s = c0 - n; s < c0; ++s)
    out.events.push_back(ring_[std::size_t(s % ring_.size())]);
  // If the writer advanced during the copy, the oldest copied slots may
  // have been overwritten mid-read. Only a mid-phase flight-recorder dump
  // of a still-running worker can see this; flag it rather than guess.
  out.torn = count_.load(std::memory_order_acquire) != c0;
  return out;
}

ShardedTraceSink::ShardedTraceSink(std::uint32_t workers,
                                   std::size_t shard_capacity)
    : shard_capacity_(shard_capacity) {
  DPA_CHECK(shard_capacity_ > 0);
  grow(workers);
}

void ShardedTraceSink::grow(std::uint32_t workers) {
  while (shards_.size() < workers) {
    auto shard = std::make_unique<TraceShard>();
    shard->init(NodeId(shards_.size()), shard_capacity_);
    shards_.push_back(std::move(shard));
  }
}

void ShardedTraceSink::set_base(Time base) {
  for (auto& s : shards_) s->set_base(base);
}

std::uint64_t ShardedTraceSink::recorded_total() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->recorded();
  return total;
}

std::uint64_t ShardedTraceSink::dropped_total() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->dropped();
  return total;
}

std::vector<ShardedTraceSink::MergedEvent> ShardedTraceSink::merged() const {
  std::vector<MergedEvent> out;
  out.reserve(std::size_t(
      std::min<std::uint64_t>(recorded_total(),
                              shards_.size() * shard_capacity_)));
  for (const auto& s : shards_) {
    const TraceShard::Snapshot snap = s->snapshot();
    for (std::size_t i = 0; i < snap.events.size(); ++i)
      out.push_back({snap.events[i], s->worker_, snap.first_seq + i});
  }
  std::sort(out.begin(), out.end(),
            [](const MergedEvent& a, const MergedEvent& b) {
              if (a.ev.at != b.ev.at) return a.ev.at < b.ev.at;
              if (a.worker != b.worker) return a.worker < b.worker;
              return a.seq < b.seq;
            });
  return out;
}

void ShardedTraceSink::publish_profiles(MetricsRegistry& m) {
  Pow2Histogram* sinks[kNumProfileHistograms];
  for (int k = 0; k < kNumProfileHistograms; ++k)
    sinks[k] = m.histogram(kProfileNames[k]);
  for (auto& s : shards_) {
    WorkerProfile& p = s->profile;
    const Pow2Histogram* sources[kNumProfileHistograms] = {
        &p.task_service_ns, &p.mailbox_wait_ns, &p.train_occupancy,
        &p.park_ns,         &p.queue_depth,
    };
    for (int k = 0; k < kNumProfileHistograms; ++k)
      sinks[k]->merge(*sources[k]);
    p.reset();
  }
}

}  // namespace dpa::obs
