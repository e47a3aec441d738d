#include <gtest/gtest.h>

#include "gas/heap.h"
#include "obs/trace.h"
#include "runtime/phase.h"
#include "support/json.h"

namespace dpa {
namespace {

// ---------- JsonWriter ----------

TEST(Json, ObjectWithFields) {
  JsonWriter w;
  {
    auto o = w.obj();
    w.field("name", "dpa").field("nodes", std::int64_t(64));
    w.field("ratio", 0.5).field("ok", true);
  }
  EXPECT_EQ(w.str(),
            R"({"name":"dpa","nodes":64,"ratio":0.5,"ok":true})");
}

TEST(Json, NestedContainers) {
  JsonWriter w;
  {
    auto o = w.obj();
    {
      auto a = w.arr("times");
      w.value(1.5).value(2.5);
    }
    auto inner = w.obj("stats");
    w.field("msgs", std::uint64_t(7));
  }
  EXPECT_EQ(w.str(), R"({"times":[1.5,2.5],"stats":{"msgs":7}})");
}

TEST(Json, ArrayOfObjects) {
  JsonWriter w;
  {
    auto a = w.arr();
    for (int i = 0; i < 2; ++i) {
      auto o = w.obj();
      w.field("i", std::int64_t(i));
    }
  }
  EXPECT_EQ(w.str(), R"([{"i":0},{"i":1}])");
}

TEST(Json, EscapesStrings) {
  JsonWriter w;
  {
    auto o = w.obj();
    w.field("s", "a\"b\\c\nd");
  }
  EXPECT_EQ(w.str(), R"({"s":"a\"b\\c\nd"})");
}

TEST(Json, MisuseDies) {
  JsonWriter w;
  auto o = w.obj();
  EXPECT_DEATH(w.value(1.0), "bare value outside an array");
}

TEST(Json, UnclosedScopeDies) {
  EXPECT_DEATH(
      {
        JsonWriter w;
        auto o = w.obj();
        (void)w.str();
      },
      "unclosed");
}

// ---------- sim spans through obs::EventSink ----------

// A node's busy time as the trace tells it: the sum of its kTask spans.
sim::Time traced_busy(const obs::Tracer& tracer, sim::NodeId node) {
  sim::Time busy = 0;
  for (const obs::TraceEvent& ev : tracer.snapshot())
    if (ev.kind == obs::Ev::kTask && ev.node == node) busy += ev.end - ev.at;
  return busy;
}

TEST(Trace, RecordsTasksAndMessages) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "compiled with DPA_TRACE=OFF";
  sim::Machine m(2, sim::NetParams{});
  obs::Tracer tracer;
  m.set_trace(&tracer);
  m.node(0).post([&](sim::Cpu& cpu) {
    cpu.charge(100);
    m.network().send(0, 1, 32, cpu.logical_now(), [] {});
  });
  m.engine().run();
  // The wire span is recorded at the send, inside the task; the task span
  // once the task has returned.
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  const obs::TraceEvent& wire = events[0];
  const obs::TraceEvent& task = events[1];
  EXPECT_EQ(task.kind, obs::Ev::kTask);
  EXPECT_EQ(task.node, 0u);
  EXPECT_EQ(task.end - task.at, 100);
  EXPECT_EQ(wire.kind, obs::Ev::kWire);
  EXPECT_EQ(wire.node, 0u);
  EXPECT_EQ(wire.peer, 1u);
  EXPECT_EQ(wire.arg, 32u);
  EXPECT_GT(wire.end, wire.at);
}

TEST(Trace, NodeBusyMatchesStats) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "compiled with DPA_TRACE=OFF";
  sim::Machine m(1, sim::NetParams{});
  obs::Tracer tracer;
  m.set_trace(&tracer);
  m.node(0).post([](sim::Cpu& cpu) { cpu.charge(70); });
  m.node(0).post([](sim::Cpu& cpu) { cpu.charge(30); });
  m.engine().run();
  EXPECT_EQ(traced_busy(tracer, 0), 100);
  EXPECT_EQ(traced_busy(tracer, 0), m.node(0).stats().busy_total);
}

TEST(Trace, WholePhaseUnderDpaTracesConsistently) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "compiled with DPA_TRACE=OFF";
  struct Obj {
    double v;
  };
  rt::Cluster cluster(2, sim::NetParams{});
  obs::Tracer tracer;
  cluster.machine().set_trace(&tracer);
  std::vector<gas::GPtr<Obj>> objs;
  for (int i = 0; i < 16; ++i)
    objs.push_back(cluster.heap.make<Obj>(1, Obj{1.0}));
  std::vector<rt::NodeWork> work(2);
  work[0].count = 16;
  work[0].item = [&objs](rt::Ctx& ctx, std::uint64_t i) {
    ctx.require(objs[std::size_t(i)],
                [](rt::Ctx& c, const Obj&) { c.charge(500); });
  };
  rt::PhaseRunner runner(cluster, rt::RuntimeConfig::dpa(8));
  const auto r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed);
  // Every traced wire span matches the network's own count, and per-node
  // traced busy time matches the processor stats.
  std::uint64_t wires = 0;
  for (const obs::TraceEvent& ev : tracer.snapshot())
    wires += ev.kind == obs::Ev::kWire;
  EXPECT_EQ(wires, r.net.messages);
  EXPECT_EQ(traced_busy(tracer, 0),
            cluster.machine().node(0).stats().busy_total);
  EXPECT_EQ(traced_busy(tracer, 1),
            cluster.machine().node(1).stats().busy_total);
}

}  // namespace
}  // namespace dpa
