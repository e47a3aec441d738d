#include "obs/flight_recorder.h"

#include <fstream>

#include "obs/metrics.h"
#include "obs/shard_sink.h"
#include "support/json.h"

namespace dpa::obs {

std::string flight_recorder_json(const FlightRecord& rec,
                                 const ShardedTraceSink* shards,
                                 const MetricsRegistry* metrics) {
  JsonWriter w;
  {
    auto root = w.obj();
    w.field("schema", "dpa.flightrec.v2");
    w.field("reason", rec.reason);
    w.field("elapsed_ns", std::int64_t(rec.elapsed));
    w.field("phase_epoch", rec.phase_epoch);
    w.field("stuck_scans", std::uint64_t(rec.stuck_scans));
    {
      auto nodes = w.arr("nodes");
      for (std::size_t i = 0; i < rec.nodes.size(); ++i) {
        const FlightRecord::NodeState& n = rec.nodes[i];
        auto e = w.obj();
        w.field("node", std::uint64_t(i));
        w.field("produced", n.produced);
        w.field("consumed", n.consumed);
        w.field("inbox_depth", n.inbox_depth);
        w.field("active", n.active);
        w.field("stuck", n.stuck);
      }
    }
    {
      auto workers = w.arr("workers");
      for (std::size_t i = 0; i < rec.workers.size(); ++i) {
        const FlightRecord::WorkerState& ws = rec.workers[i];
        auto e = w.obj();
        w.field("worker", std::uint64_t(i));
        w.field("runq_depth", ws.runq_depth);
        w.field("parked", ws.parked);
        w.field("parks", ws.parks);
        w.field("steals", ws.steals);
      }
    }
    if (shards != nullptr) {
      {
        auto drops = w.arr("dropped_by_worker");
        for (NodeId i = 0; i < shards->num_shards(); ++i)
          w.value(std::int64_t(shards->dropped(i)));
      }
      auto events = w.arr("events");
      for (const ShardedTraceSink::MergedEvent& me : shards->merged()) {
        auto e = w.obj();
        w.field("kind", to_string(me.ev.kind));
        w.field("worker", std::uint64_t(me.worker));
        w.field("node", std::uint64_t(me.ev.node));
        w.field("seq", me.seq);
        w.field("at", std::int64_t(me.ev.at));
        if (me.ev.end != 0) w.field("end", std::int64_t(me.ev.end));
        if (me.ev.peer != 0) w.field("peer", std::uint64_t(me.ev.peer));
        if (me.ev.arg != 0) w.field("arg", me.ev.arg);
        if (me.ev.label != nullptr) w.field("label", me.ev.label);
      }
    }
    if (metrics != nullptr) {
      auto m = w.obj("metrics");
      metrics->append_to(w);
    }
  }
  return w.str();
}

bool write_flight_record(const FlightRecord& rec,
                         const ShardedTraceSink* shards,
                         const MetricsRegistry* metrics,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << flight_recorder_json(rec, shards, metrics) << "\n";
  return bool(out);
}

}  // namespace dpa::obs
