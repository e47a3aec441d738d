#include "obs/chrome_trace.h"

#include <algorithm>
#include <fstream>
#include <set>

#include "obs/shard_sink.h"
#include "support/json.h"

namespace dpa::obs {

namespace {

constexpr std::int64_t kMachinePid = 0;
constexpr std::int64_t kNetworkPid = 1;
constexpr std::int64_t kPhaseTid = 0;  // node n gets tid n+1

double to_us(Time t) { return double(t) / 1000.0; }

void meta_event(JsonWriter& w, const char* what, std::int64_t pid,
                std::int64_t tid, std::string_view name) {
  auto e = w.obj();
  w.field("ph", "M").field("name", what).field("pid", pid).field("tid", tid);
  auto args = w.obj("args");
  w.field("name", name);
}

void common_fields(JsonWriter& w, std::string_view name, const char* ph,
                   std::int64_t pid, std::int64_t tid, Time at) {
  w.field("name", name).field("ph", ph).field("pid", pid).field("tid", tid);
  w.field("ts", to_us(at));
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer,
                              const ShardedTraceSink* shards) {
  // One combined stream: the main-thread tracer ring (phase markers, sim
  // events) plus any per-worker shards, globally (time, worker, seq)-sorted.
  struct Row {
    TraceEvent ev;
    NodeId worker = 0;
    std::uint64_t seq = 0;
  };
  std::vector<Row> events;
  {
    const std::vector<TraceEvent> main = tracer.snapshot();
    events.reserve(main.size());
    for (std::size_t i = 0; i < main.size(); ++i)
      events.push_back({main[i], main[i].node, i});
  }
  if (shards != nullptr) {
    for (const ShardedTraceSink::MergedEvent& me : shards->merged())
      events.push_back({me.ev, me.worker, me.seq});
  }
  std::stable_sort(events.begin(), events.end(), [](const Row& a,
                                                    const Row& b) {
    if (a.ev.at != b.ev.at) return a.ev.at < b.ev.at;
    if (a.worker != b.worker) return a.worker < b.worker;
    return a.seq < b.seq;
  });

  // Each row's track is the ring index it carries: the node for tracer
  // rows, the shard for worker rows (node shards, then one per worker).
  // Events that ran for a node on some worker's track name it in args.
  std::set<NodeId> machine_nodes, network_nodes;
  for (const Row& row : events)
    (row.ev.kind == Ev::kWire ? network_nodes : machine_nodes)
        .insert(row.worker);

  JsonWriter w;
  {
    auto root = w.obj();
    w.field("displayTimeUnit", "ms");
    const std::uint64_t shard_recorded =
        shards != nullptr ? shards->recorded_total() : 0;
    const std::uint64_t shard_dropped =
        shards != nullptr ? shards->dropped_total() : 0;
    w.field("recorded_events", tracer.recorded() + shard_recorded);
    w.field("dropped_events", tracer.dropped() + shard_dropped);
    if (shards != nullptr) {
      // Per-shard drop accounting: a single overflowing worker ring stays
      // visible instead of vanishing into the total.
      auto drops = w.arr("dropped_by_worker");
      for (NodeId n = 0; n < shards->num_shards(); ++n)
        w.value(std::int64_t(shards->dropped(n)));
    }
    auto arr = w.arr("traceEvents");

    meta_event(w, "process_name", kMachinePid, 0, "machine");
    meta_event(w, "process_name", kNetworkPid, 0, "network");
    meta_event(w, "thread_name", kMachinePid, kPhaseTid, "phases");
    for (const NodeId n : machine_nodes)
      meta_event(w, "thread_name", kMachinePid, std::int64_t(n) + 1,
                 "node " + std::to_string(n));
    for (const NodeId n : network_nodes)
      meta_event(w, "thread_name", kNetworkPid, std::int64_t(n) + 1,
                 "nic " + std::to_string(n));

    for (const Row& row : events) {
      const TraceEvent& ev = row.ev;
      auto e = w.obj();
      const std::int64_t node_tid = std::int64_t(row.worker) + 1;
      switch (ev.kind) {
        case Ev::kTask: {
          common_fields(w, "task", "X", kMachinePid, node_tid, ev.at);
          w.field("dur", to_us(ev.end - ev.at));
          break;
        }
        case Ev::kWorkerRun: {
          common_fields(w, "run", "X", kMachinePid, node_tid, ev.at);
          w.field("dur", to_us(ev.end - ev.at));
          auto args = w.obj("args");
          w.field("node", std::uint64_t(ev.node));
          break;
        }
        case Ev::kMailboxWait: {
          common_fields(w, "mbox_wait", "X", kMachinePid, node_tid, ev.at);
          w.field("dur", to_us(ev.end - ev.at));
          auto args = w.obj("args");
          w.field("node", std::uint64_t(ev.node))
              .field("dst", std::uint64_t(ev.peer));
          break;
        }
        case Ev::kPark: {
          common_fields(w, "park", "X", kMachinePid, node_tid, ev.at);
          w.field("dur", to_us(ev.end - ev.at));
          auto args = w.obj("args");
          w.field("unpark", to_string(UnparkCause(ev.arg)));
          break;
        }
        case Ev::kTrainFlush: {
          common_fields(w, "train_flush", "i", kMachinePid, node_tid, ev.at);
          w.field("s", "t");
          auto args = w.obj("args");
          w.field("node", std::uint64_t(ev.node))
              .field("dst", std::uint64_t(ev.peer))
              .field("depth", ev.arg);
          break;
        }
        case Ev::kWire: {
          common_fields(w, "wire", "X", kNetworkPid, node_tid, ev.at);
          w.field("dur", to_us(ev.end - ev.at));
          auto args = w.obj("args");
          w.field("dst", std::uint64_t(ev.peer)).field("bytes", ev.arg);
          break;
        }
        case Ev::kPhaseBegin:
        case Ev::kPhaseEnd: {
          common_fields(w, ev.label != nullptr ? ev.label : "phase",
                        ev.kind == Ev::kPhaseBegin ? "B" : "E", kMachinePid,
                        kPhaseTid, ev.at);
          break;
        }
        case Ev::kMsgDepart:
        case Ev::kMsgArrive: {
          std::string name = to_string(ev.cause);
          name += ev.kind == Ev::kMsgDepart ? ".depart" : ".arrive";
          common_fields(w, name, "i", kMachinePid, node_tid, ev.at);
          w.field("s", "t");
          auto args = w.obj("args");
          w.field("peer", std::uint64_t(ev.peer)).field("bytes", ev.arg);
          break;
        }
        default: {  // lifecycle instants
          common_fields(w, ev.label != nullptr ? ev.label : to_string(ev.kind),
                        "i", kMachinePid, node_tid, ev.at);
          w.field("s", "t");
          auto args = w.obj("args");
          if (ev.kind == Ev::kWorkerDrain || ev.kind == Ev::kSteal)
            w.field("node", std::uint64_t(ev.node));
          w.field("arg", ev.arg);
          break;
        }
      }
    }
  }
  return w.str();
}

bool write_chrome_trace(const Tracer& tracer, const std::string& path,
                        const ShardedTraceSink* shards) {
  std::ofstream out(path);
  if (!out) return false;
  out << chrome_trace_json(tracer, shards) << "\n";
  return bool(out);
}

}  // namespace dpa::obs
