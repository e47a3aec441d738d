// Tests for the observability layer: metrics registry, structured tracer,
// Chrome-trace / metrics JSON exporters, and the end-to-end wiring through
// the runtime (counters in the registry must equal the hand-collected
// RtTotals of the published phases).
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "apps/em3d/em3d.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "runtime/phase.h"
#include "support/json.h"

namespace dpa {
namespace {

// ---------- minimal JSON syntax validator ----------
//
// Recursive-descent checker: accepts iff the input is one well-formed JSON
// value. Values are not materialized; this guards the exporters against
// missing commas/quotes/braces without pulling in a parser dependency.
class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker c(text);
    return c.value() && (c.ws(), c.pos_ == text.size());
  }

 private:
  explicit JsonChecker(const std::string& t) : text_(t) {}

  void ws() {
    while (pos_ < text_.size() && std::isspace(unsigned(text_[pos_]))) ++pos_;
  }
  bool eat(char c) {
    ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (++pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    return eat('"');
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(unsigned(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      digits = digits || std::isdigit(unsigned(text_[pos_]));
      ++pos_;
    }
    return digits && pos_ > start;
  }
  bool value() {
    ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': {
        ++pos_;
        if (eat('}')) return true;
        do {
          ws();
          if (!string() || !eat(':') || !value()) return false;
        } while (eat(','));
        return eat('}');
      }
      case '[': {
        ++pos_;
        if (eat(']')) return true;
        do {
          if (!value()) return false;
        } while (eat(','));
        return eat(']');
      }
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(JsonChecker::valid(R"({"a":[1,2.5,-3e2],"b":{"c":"x\"y"}})"));
  EXPECT_TRUE(JsonChecker::valid("[]"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a":1,})"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a" 1})"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a":1} trailing)"));
}

// Every "ts":<number> in emission order (the exporter sorts by time).
std::vector<double> extract_timestamps(const std::string& json) {
  std::vector<double> out;
  std::size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    out.push_back(std::stod(json.substr(pos)));
  }
  return out;
}

// ---------- MetricsRegistry ----------

TEST(Metrics, CounterGetOrCreateIsStable) {
  obs::MetricsRegistry m;
  std::uint64_t* c = m.counter("rt.tiles_run");
  *c += 3;
  EXPECT_EQ(m.counter("rt.tiles_run"), c);  // same pointer on re-lookup
  *m.counter("rt.tiles_run") += 2;
  EXPECT_EQ(m.counter_value("rt.tiles_run"), 5u);
  EXPECT_EQ(m.counter_value("rt.never_touched"), 0u);
  EXPECT_EQ(m.num_counters(), 1u);
}

TEST(Metrics, GaugeTracksHighWaterAcrossSets) {
  obs::MetricsRegistry m;
  Gauge* g = m.gauge("rt.outstanding_threads");
  g->set(10);
  g->set(4);
  EXPECT_EQ(m.find_gauge("rt.outstanding_threads")->high_water(), 10);
  EXPECT_EQ(m.find_gauge("rt.outstanding_threads")->current(), 4);
  EXPECT_EQ(m.find_gauge("rt.absent"), nullptr);
}

TEST(Metrics, HistogramBucketsAndSnapshotJson) {
  obs::MetricsRegistry m;
  Pow2Histogram* h = m.histogram("rt.msg_bytes");
  h->add(1);
  h->add(100);
  h->add(100000);
  *m.counter("net.bytes") += 42;
  m.gauge("rt.m_entries")->set(9);

  const std::string json = m.to_json();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"dpa.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"net.bytes\":42"), std::string::npos);
  EXPECT_NE(json.find("\"rt.msg_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"high_water\":9"), std::string::npos);
  EXPECT_EQ(m.find_histogram("rt.msg_bytes")->count(), 3u);
}

TEST(Metrics, AppendToMergesIntoOpenObject) {
  obs::MetricsRegistry m;
  *m.counter("rt.strips") += 7;
  JsonWriter w;
  {
    auto root = w.obj();
    w.field("bench", "unit");
    auto metrics = w.obj("metrics");
    m.append_to(w);
  }
  const std::string json = w.str();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"rt.strips\":7"), std::string::npos);
}

TEST(Metrics, RtTotalsPublishCoversEveryField) {
  // Fill every counter and gauge with distinct values via the X-macro so a
  // field dropped from publish() would be caught.
  rt::RtTotals totals;
  std::uint64_t v = 1;
#define DPA_X(name) totals.name = v++;
  DPA_RT_COUNTERS(DPA_X)
#undef DPA_X
#define DPA_X(name) totals.max_##name = std::int64_t(v++);
  DPA_RT_GAUGES(DPA_X)
#undef DPA_X

  obs::MetricsRegistry m;
  totals.publish(m);
  totals.publish(m);  // counters add, gauges keep the max
#define DPA_X(name) \
  EXPECT_EQ(m.counter_value("rt." #name), 2 * totals.name) << #name;
  DPA_RT_COUNTERS(DPA_X)
#undef DPA_X
#define DPA_X(name)                                     \
  ASSERT_NE(m.find_gauge("rt." #name), nullptr);        \
  EXPECT_EQ(m.find_gauge("rt." #name)->high_water(),    \
            totals.max_##name)                          \
      << #name;
  DPA_RT_GAUGES(DPA_X)
#undef DPA_X
}

// ---------- Tracer ring buffer ----------

TEST(Tracer, RecordsAndSnapshotsInOrder) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "compiled with DPA_TRACE=OFF";
  obs::Tracer t(/*capacity=*/16);
  for (int i = 0; i < 10; ++i)
    t.instant(obs::Ev::kThreadCreated, 0, sim::Time(i * 100), unsigned(i));
  EXPECT_EQ(t.size(), 10u);
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 0u);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].arg, i);
}

TEST(Tracer, RingKeepsTrailingWindowWhenFull) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "compiled with DPA_TRACE=OFF";
  obs::Tracer t(/*capacity=*/8);
  for (int i = 0; i < 20; ++i)
    t.instant(obs::Ev::kThreadRetired, 0, sim::Time(i), unsigned(i));
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].arg, 12 + i);  // oldest 12 overwritten
}

TEST(Tracer, InternedPhaseNamesAreStable) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "compiled with DPA_TRACE=OFF";
  obs::Tracer t;
  const char* a = t.intern("bh.force");
  const char* b = t.intern(std::string("bh.") + "force");
  EXPECT_EQ(a, b);  // same storage for equal names
  t.phase_begin("bh.force", 0);
  t.phase_end("bh.force", 100);
  const auto events = t.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].label, "bh.force");
  EXPECT_EQ(events[0].kind, obs::Ev::kPhaseBegin);
  EXPECT_EQ(events[1].kind, obs::Ev::kPhaseEnd);
}

TEST(Tracer, ZeroCapacityDropsEverything) {
  obs::Tracer t(0);
  t.instant(obs::Ev::kThreadCreated, 0, 5);
  EXPECT_EQ(t.size(), 0u);
}

// ---------- Chrome trace export ----------

TEST(ChromeTrace, ExportIsValidJsonWithMonotonicTimestamps) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "compiled with DPA_TRACE=OFF";
  obs::Tracer t;
  t.phase_begin("unit.phase", 0);
  t.span(obs::Ev::kTask, 0, 1000, 3000);
  t.span(obs::Ev::kWire, 0, 1500, 2500, 64, /*peer=*/1);
  t.msg_event(obs::Ev::kMsgDepart, obs::MsgCause::kRequest, 0, 1, 64, 1400);
  t.msg_event(obs::Ev::kMsgArrive, obs::MsgCause::kRequest, 1, 0, 64, 2600);
  t.instant(obs::Ev::kTileDispatched, 1, 2700, 3);
  t.phase_end("unit.phase", 4000);

  const std::string json = obs::chrome_trace_json(t);
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  // Structure: both processes named, spans and instants present.
  EXPECT_NE(json.find("\"machine\""), std::string::npos);
  EXPECT_NE(json.find("\"network\""), std::string::npos);
  EXPECT_NE(json.find("\"unit.phase\""), std::string::npos);
  EXPECT_NE(json.find("\"request.depart\""), std::string::npos);
  EXPECT_NE(json.find("\"request.arrive\""), std::string::npos);
  EXPECT_NE(json.find("\"tile_dispatched\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  const auto ts = extract_timestamps(json);
  ASSERT_GE(ts.size(), 7u);
  for (std::size_t i = 1; i < ts.size(); ++i)
    EXPECT_LE(ts[i - 1], ts[i]) << "timestamp order broken at " << i;
}

TEST(ChromeTrace, LargeTimestampsSurviveFormatting) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "compiled with DPA_TRACE=OFF";
  // Seconds-scale sim times: microsecond values in the millions must not be
  // rounded by the JSON writer (6-sig-digit default would collapse them).
  obs::Tracer t;
  const sim::Time base = 12'345'678'901;  // ~12.3 s in ns
  t.span(obs::Ev::kTask, 0, base, base + 1);
  t.span(obs::Ev::kTask, 0, base + 2, base + 5);
  const std::string json = obs::chrome_trace_json(t);
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  const auto ts = extract_timestamps(json);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts[0], double(base) / 1000.0);
  EXPECT_DOUBLE_EQ(ts[1], double(base + 2) / 1000.0);
  EXPECT_LT(ts[0], ts[1]);
}

// ---------- sharded sink: drops, merge, export metadata ----------

TEST(ShardSink, RingKeepsTrailingWindowAndCountsDropsPerShard) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "compiled with DPA_TRACE=OFF";
  obs::ShardedTraceSink sink(2, /*shard_capacity=*/8);
  obs::TraceShard& sh = sink.shard(0);
  for (int i = 0; i < 20; ++i)
    sh.instant(obs::Ev::kWorkerDrain, 0, sim::Time(i * 10), unsigned(i));
  sink.shard(1).instant(obs::Ev::kWorkerDrain, 1, 5);

  // Drops are attributed to the shard that overflowed, not pooled.
  EXPECT_EQ(sh.recorded(), 20u);
  EXPECT_EQ(sh.dropped(), 12u);
  EXPECT_EQ(sink.dropped(0), 12u);
  EXPECT_EQ(sink.dropped(1), 0u);
  EXPECT_EQ(sink.dropped_total(), 12u);
  EXPECT_EQ(sink.recorded_total(), 21u);

  const auto snap = sh.snapshot();
  EXPECT_FALSE(snap.torn);
  EXPECT_EQ(snap.first_seq, 12u);  // oldest 12 overwritten
  ASSERT_EQ(snap.events.size(), 8u);
  for (std::size_t i = 0; i < snap.events.size(); ++i)
    EXPECT_EQ(snap.events[i].arg, 12 + i);

  // The merge carries the surviving window with its true sequence numbers.
  const auto merged = sink.merged();
  ASSERT_EQ(merged.size(), 9u);
  EXPECT_EQ(merged.front().ev.at, 5);  // shard 1's lone early event first
  EXPECT_EQ(merged.back().seq, 19u);
}

TEST(ChromeTrace, MergedShardExportCarriesPerWorkerDropCounts) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "compiled with DPA_TRACE=OFF";
  // A main-thread tracer (phase markers) plus two worker shards, one of
  // which overflowed: the export must interleave all three streams into
  // one valid document and preserve the per-worker drop attribution that
  // a pooled "dropped_events" total would lose.
  obs::Tracer t;
  t.phase_begin("native.phase", 0);
  t.phase_end("native.phase", 10'000);

  obs::ShardedTraceSink sink(2, /*shard_capacity=*/4);
  obs::TraceShard& w0 = sink.shard(0);
  for (int i = 0; i < 10; ++i)  // 6 drops
    w0.span(obs::Ev::kWorkerRun, 0, sim::Time(1000 + i * 100),
            sim::Time(1050 + i * 100));
  obs::TraceShard& w1 = sink.shard(1);
  w1.span(obs::Ev::kMailboxWait, 1, 2000, 2100, 0, /*peer=*/0);
  w1.instant(obs::Ev::kTrainFlush, 1, 2100, 7);
  w1.span(obs::Ev::kWorkerRun, /*node=*/0, 2200, 2300);  // ran node 0's task
  w1.span(obs::Ev::kPark, 1, 3000, 4000,
          std::uint64_t(obs::UnparkCause::kQuiesced));

  const std::string json = obs::chrome_trace_json(t, &sink);
  EXPECT_TRUE(JsonChecker::valid(json)) << json;

  const JsonParseResult doc = json_parse(json);
  ASSERT_TRUE(doc) << doc.error;
  const JsonValue& root = *doc.value;
  ASSERT_NE(root.find("dropped_by_worker"), nullptr);
  const auto& drops = root.find("dropped_by_worker")->as_array();
  ASSERT_EQ(drops.size(), 2u);
  EXPECT_EQ(drops[0].as_number(), 6.0);
  EXPECT_EQ(drops[1].as_number(), 0.0);
  EXPECT_EQ(root.find("dropped_events")->as_number(), 6.0);
  EXPECT_EQ(root.find("recorded_events")->as_number(), 16.0);

  // A worker's event sits on the track of the shard that recorded it and
  // names, in its args, the node it ran for.
  int w1_runs = 0;
  for (const JsonValue& ev : root.find("traceEvents")->as_array()) {
    if (ev.find("name")->as_string() != "run" ||
        ev.find("tid")->as_number() != 2.0)
      continue;
    ++w1_runs;
    const JsonValue* args = ev.find("args");
    ASSERT_TRUE(args != nullptr && args->find("node") != nullptr);
    EXPECT_EQ(args->find("node")->as_number(), 0.0);
  }
  EXPECT_EQ(w1_runs, 1);

  // Native event vocabulary present with its worker attribution.
  EXPECT_NE(json.find("\"run\""), std::string::npos);
  EXPECT_NE(json.find("\"mbox_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"train_flush\""), std::string::npos);
  EXPECT_NE(json.find("\"park\""), std::string::npos);
  EXPECT_NE(json.find("\"quiesced\""), std::string::npos);  // unpark cause
  // Phase markers from the main-thread tracer still bracket the stream.
  EXPECT_NE(json.find("\"native.phase\""), std::string::npos);

  // Timestamps are globally monotone after the merge (10 retained events:
  // 2 phase markers + w0's surviving window of 4 + w1's 4).
  const auto ts = extract_timestamps(json);
  ASSERT_GE(ts.size(), 10u);
  for (std::size_t i = 1; i < ts.size(); ++i)
    EXPECT_LE(ts[i - 1], ts[i]) << "timestamp order broken at " << i;
}

TEST(ShardSink, PublishProfilesDrainsIntoRegistryAcrossPhases) {
  // Works in OFF builds too: profiles are plain histograms, only the event
  // ring is compiled out.
  obs::ShardedTraceSink sink(2);
  obs::MetricsRegistry m;
  sink.shard(0).profile.task_service_ns.add(100);
  sink.shard(1).profile.task_service_ns.add(200);
  sink.shard(1).profile.park_ns.add(50);
  sink.publish_profiles(m);
  ASSERT_NE(m.histogram("exec.task_service_ns"), nullptr);
  EXPECT_EQ(m.histogram("exec.task_service_ns")->count(), 2u);
  EXPECT_EQ(m.histogram("exec.park_ns")->count(), 1u);

  // Drain semantics: a second phase's samples add, not double-count.
  sink.shard(0).profile.task_service_ns.add(300);
  sink.publish_profiles(m);
  EXPECT_EQ(m.histogram("exec.task_service_ns")->count(), 3u);
  EXPECT_EQ(m.histogram("exec.park_ns")->count(), 1u);
}

TEST(ShardSink, GrowPreservesEarlierCellsEvents) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "compiled with DPA_TRACE=OFF";
  // Sweeps attach progressively larger backends to one session; growing
  // must keep earlier shards' contents and never shrink.
  obs::ShardedTraceSink sink(2, /*shard_capacity=*/16);
  sink.shard(0).instant(obs::Ev::kWorkerDrain, 0, 1);
  sink.grow(4);
  EXPECT_EQ(sink.num_shards(), 4u);
  sink.grow(2);  // no-op
  EXPECT_EQ(sink.num_shards(), 4u);
  EXPECT_EQ(sink.recorded_total(), 1u);
  sink.shard(3).instant(obs::Ev::kWorkerDrain, 3, 2);
  EXPECT_EQ(sink.merged().size(), 2u);
}

// ---------- end-to-end: runtime -> session -> exporters ----------

TEST(ObsIntegration, PhaseCountersEqualRtTotals) {
  obs::Session session;
  struct Obj {
    double v;
  };
  rt::Cluster cluster(2, sim::NetParams{});
  cluster.attach_obs(&session);
  std::vector<gas::GPtr<Obj>> objs;
  for (int i = 0; i < 32; ++i)
    objs.push_back(cluster.heap.make<Obj>(1, Obj{1.0}));
  std::vector<rt::NodeWork> work(2);
  work[0].count = 32;
  work[0].item = [&objs](rt::Ctx& ctx, std::uint64_t i) {
    // Read one remote object, then add to the next one at its home: remote
    // requests, replies and accumulates all cross the wire.
    const gas::GPtr<Obj> next = objs[std::size_t(i + 1) % objs.size()];
    ctx.require(objs[std::size_t(i)], [next](rt::Ctx& c, const Obj&) {
      c.charge(500);
      c.accumulate(next, [](Obj& o) { o.v += 1.0; });
    });
  };
  rt::PhaseRunner runner(cluster, rt::RuntimeConfig::dpa(8));
  const auto r = runner.run(std::move(work), "unit.phase");
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.rt.accum_msgs, 0u);
  for (const auto& o : objs) EXPECT_EQ(o.addr->v, 2.0);

  const auto& m = session.metrics;
  // Every rt.* counter in the snapshot equals the phase's hand-summed total.
#define DPA_X(name) \
  EXPECT_EQ(m.counter_value("rt." #name), r.rt.name) << #name;
  DPA_RT_COUNTERS(DPA_X)
#undef DPA_X
  EXPECT_EQ(m.counter_value("rt.phases"), 1u);
  EXPECT_EQ(m.counter_value("net.messages"), r.net.messages);
  EXPECT_EQ(m.counter_value("net.bytes"), r.net.bytes);
  EXPECT_EQ(m.counter_value("fm.msgs_sent"), r.fm_total.msgs_sent);
  // The message-size histogram saw every request/reply the engines sent.
  ASSERT_NE(m.find_histogram("rt.msg_bytes"), nullptr);
  EXPECT_EQ(m.find_histogram("rt.msg_bytes")->count(),
            r.rt.request_msgs + r.rt.requests_served + r.rt.accum_msgs);

  if (obs::kTraceEnabled) {
    // The tracer saw the phase markers and the runtime vocabulary, and
    // attaching the session hooked the sim machine and network up too:
    // each node's kTask spans sum to its busy time, and every message on
    // the wire left one kWire span.
    bool phase_begin = false, thread_created = false, tile_dispatched = false;
    std::vector<sim::Time> busy(2, 0);
    std::uint64_t wires = 0;
    // Each runtime message as (cause, src, dst, bytes): an arrive names its
    // sender as peer and carries the size its depart did, so with nothing
    // dropped the two multisets are equal.
    using Msg = std::tuple<obs::MsgCause, sim::NodeId, sim::NodeId,
                           std::uint64_t>;
    std::multiset<Msg> departs, arrives;
    for (const auto& ev : session.tracer.snapshot()) {
      phase_begin |= ev.kind == obs::Ev::kPhaseBegin;
      thread_created |= ev.kind == obs::Ev::kThreadCreated;
      tile_dispatched |= ev.kind == obs::Ev::kTileDispatched;
      if (ev.kind == obs::Ev::kTask) busy[ev.node] += ev.end - ev.at;
      wires += ev.kind == obs::Ev::kWire;
      if (ev.kind == obs::Ev::kMsgDepart)
        departs.emplace(ev.cause, ev.node, ev.peer, ev.arg);
      if (ev.kind == obs::Ev::kMsgArrive)
        arrives.emplace(ev.cause, ev.peer, ev.node, ev.arg);
    }
    EXPECT_TRUE(phase_begin);
    EXPECT_TRUE(thread_created);
    EXPECT_TRUE(tile_dispatched);
    EXPECT_EQ(session.tracer.dropped(), 0u);
    for (sim::NodeId n = 0; n < 2; ++n)
      EXPECT_EQ(busy[n], r.nodes[n].busy_total) << "node " << n;
    EXPECT_GT(wires, 0u);
    EXPECT_EQ(wires, r.net.messages);
    EXPECT_EQ(departs.size(),
              r.rt.request_msgs + r.rt.requests_served + r.rt.accum_msgs);
    EXPECT_EQ(arrives, departs);
  } else {
    EXPECT_EQ(session.tracer.recorded(), 0u);
  }
}

TEST(ObsIntegration, Em3dMetricsAccumulateAcrossPhases) {
  obs::Session session;
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 64;
  cfg.h_per_node = 64;
  cfg.iters = 2;
  apps::em3d::Em3dApp app(cfg, 2);
  const auto run =
      app.run(sim::NetParams{}, rt::RuntimeConfig::dpa(32), &session);
  ASSERT_TRUE(run.all_completed());
  ASSERT_EQ(run.steps.size(), 4u);  // 2 iters x (E phase + H phase)

  rt::RtTotals sum;
  std::uint64_t net_messages = 0;
  for (const auto& s : run.steps) {
    net_messages += s.phase.net.messages;
#define DPA_X(name) sum.name += s.phase.rt.name;
    DPA_RT_COUNTERS(DPA_X)
#undef DPA_X
  }
  const auto& m = session.metrics;
  EXPECT_EQ(m.counter_value("rt.phases"), 4u);
  EXPECT_EQ(m.counter_value("rt.threads_created"), sum.threads_created);
  EXPECT_EQ(m.counter_value("rt.request_msgs"), sum.request_msgs);
  EXPECT_EQ(m.counter_value("net.messages"), net_messages);

  const std::string json = m.to_json();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;

  if (obs::kTraceEnabled) {
    int e_phases = 0, h_phases = 0;
    for (const auto& ev : session.tracer.snapshot()) {
      if (ev.kind != obs::Ev::kPhaseBegin) continue;
      ASSERT_NE(ev.label, nullptr);
      e_phases += std::string(ev.label) == "em3d.E";
      h_phases += std::string(ev.label) == "em3d.H";
    }
    EXPECT_EQ(e_phases, 2);
    EXPECT_EQ(h_phases, 2);

    const std::string trace = obs::chrome_trace_json(session.tracer);
    EXPECT_TRUE(JsonChecker::valid(trace));
    EXPECT_NE(trace.find("\"em3d.E\""), std::string::npos);
    const auto ts = extract_timestamps(trace);
    for (std::size_t i = 1; i < ts.size(); ++i) ASSERT_LE(ts[i - 1], ts[i]);
  }
}

TEST(ObsIntegration, DetachedClusterRecordsNothing) {
  obs::Session session;
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 16;
  cfg.h_per_node = 16;
  apps::em3d::Em3dApp app(cfg, 2);
  // No session passed: the run must leave the (unattached) session empty.
  const auto run = app.run(sim::NetParams{}, rt::RuntimeConfig::dpa(16));
  ASSERT_TRUE(run.all_completed());
  EXPECT_EQ(session.metrics.num_counters(), 0u);
  EXPECT_EQ(session.tracer.recorded(), 0u);
}

}  // namespace
}  // namespace dpa
