#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/network.h"

namespace dpa::sim {
namespace {

// ---------- Engine ----------

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SimultaneousEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  e.schedule_at(1, [&] {
    ++fired;
    e.schedule_after(5, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 6);
}

TEST(Engine, SchedulingInThePastDies) {
  Engine e;
  e.schedule_at(100, [&] {
    EXPECT_DEATH(e.schedule_at(50, [] {}), "scheduled in the past");
  });
  e.run();
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(0, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, EventLimitCatchesLivelock) {
  Engine e;
  e.set_event_limit(100);
  std::function<void()> loop = [&] { e.schedule_after(1, loop); };
  e.schedule_at(0, loop);
  EXPECT_DEATH(e.run(), "event limit");
}

TEST(Engine, RunReturnsEventCount) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_at(i, [] {});
  EXPECT_EQ(e.run(), 7u);
}

// ---------- Network ----------

TEST(Network, DeliveryTimeIsLogGP) {
  Engine e;
  NetParams p;
  p.send_overhead = 100;
  p.recv_overhead = 100;
  p.latency = 1000;
  p.ns_per_byte = 2.0;
  p.per_msg_wire = 50;
  p.nic_serialize = false;
  Network net(e, p, 2);
  Time arrived = -1;
  const Time at = net.send(0, 1, 100, 0, [&] { arrived = e.now(); });
  e.run();
  // latency + per_msg_wire + bytes * ns_per_byte = 1000 + 50 + 200.
  EXPECT_EQ(at, 1250);
  EXPECT_EQ(arrived, 1250);
}

TEST(Network, NicSerializesBackToBackSends) {
  Engine e;
  NetParams p;
  p.latency = 0;
  p.per_msg_wire = 0;
  p.ns_per_byte = 1.0;
  p.nic_serialize = true;
  Network net(e, p, 2);
  std::vector<Time> arrivals;
  // Two 100-byte messages injected at t=0: the second waits for the wire.
  net.send(0, 1, 100, 0, [&] { arrivals.push_back(e.now()); });
  net.send(0, 1, 100, 0, [&] { arrivals.push_back(e.now()); });
  e.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 100);
  EXPECT_EQ(arrivals[1], 200);
}

TEST(Network, WithoutSerializationSendsOverlap) {
  Engine e;
  NetParams p;
  p.latency = 0;
  p.per_msg_wire = 0;
  p.ns_per_byte = 1.0;
  p.nic_serialize = false;
  Network net(e, p, 2);
  std::vector<Time> arrivals;
  net.send(0, 1, 100, 0, [&] { arrivals.push_back(e.now()); });
  net.send(0, 1, 100, 0, [&] { arrivals.push_back(e.now()); });
  e.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 100);
  EXPECT_EQ(arrivals[1], 100);
}

TEST(Network, CountsMessagesAndBytes) {
  Engine e;
  Network net(e, NetParams{}, 4);
  net.send(0, 1, 10, 0, [] {});
  net.send(2, 3, 20, 0, [] {});
  e.run();
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().bytes, 30u);
}

TEST(Network, OversizeMessageDies) {
  Engine e;
  NetParams p;
  p.mtu_bytes = 64;
  Network net(e, p, 2);
  EXPECT_DEATH(net.send(0, 1, 65, 0, [] {}), "MTU");
}

TEST(Network, TorusDimsAreNearCubic) {
  Engine e;
  NetParams p;
  p.topology = Topology::kTorus3d;
  std::uint32_t x, y, z;
  Network(e, p, 64).torus_dims(&x, &y, &z);
  EXPECT_EQ(x * y * z, 64u);
  EXPECT_EQ(std::max({x, y, z}), 4u);
  Network(e, p, 12).torus_dims(&x, &y, &z);
  EXPECT_GE(x * y * z, 12u);
  EXPECT_LE(std::max({x, y, z}), 3u);
}

TEST(Network, TorusHopsUseWraparound) {
  Engine e;
  NetParams p;
  p.topology = Topology::kTorus3d;
  Network net(e, p, 64);  // 4x4x4
  EXPECT_EQ(net.hops(0, 0), 0u);
  EXPECT_EQ(net.hops(0, 1), 1u);   // +1 in x
  EXPECT_EQ(net.hops(0, 3), 1u);   // x=3 wraps to -1
  EXPECT_EQ(net.hops(0, 2), 2u);   // farthest in x
  // Opposite corner: 2 hops in each dimension.
  EXPECT_EQ(net.hops(0, 2 + 2 * 4 + 2 * 16), 6u);
  // Symmetry.
  for (NodeId a = 0; a < 64; a += 7)
    for (NodeId b = 0; b < 64; b += 5) EXPECT_EQ(net.hops(a, b), net.hops(b, a));
}

TEST(Network, CrossbarHasNoHopCost) {
  Engine e;
  Network net(e, NetParams{}, 64);
  EXPECT_EQ(net.hops(0, 63), 0u);
}

TEST(Network, TorusLatencyGrowsWithDistance) {
  Engine e;
  NetParams p;
  p.topology = Topology::kTorus3d;
  p.per_hop = 500;
  p.latency = 1000;
  p.ns_per_byte = 0;
  p.per_msg_wire = 0;
  p.nic_serialize = false;
  Network net(e, p, 64);
  Time near = -1, far = -1;
  net.send(0, 1, 0, 0, [&] { near = e.now(); });
  net.send(0, 42, 0, 0, [&] { far = e.now(); });  // 42 = (2,2,2): 6 hops
  e.run();
  EXPECT_EQ(near, 1000 + 500);
  EXPECT_EQ(far, 1000 + 6 * 500);
}

TEST(Network, ZeroParamsDeliverInstantly) {
  Engine e;
  Network net(e, NetParams::zero(), 2);
  Time arrived = -1;
  net.send(0, 1, 4096, 0, [&] { arrived = e.now(); });
  e.run();
  EXPECT_EQ(arrived, 0);
}

TEST(Network, ZeroParamsZeroEveryCostTerm) {
  const NetParams p = NetParams::zero();
  EXPECT_EQ(p.send_overhead, 0);
  EXPECT_EQ(p.recv_overhead, 0);
  EXPECT_EQ(p.latency, 0);
  EXPECT_EQ(p.ns_per_byte, 0.0);
  EXPECT_EQ(p.per_msg_wire, 0);
  EXPECT_FALSE(p.nic_serialize);
  EXPECT_FALSE(p.faults.any());  // zero-cost is also fault-free
  // The MTU still applies (the FM layer segments above it).
  EXPECT_EQ(p.mtu_bytes, NetParams{}.mtu_bytes);
}

TEST(Network, ZeroParamsBackToBackSendsAllLandAtOnce) {
  // nic_serialize=false in zero(): no injection bandwidth, so a burst from
  // one source is not staggered.
  Engine e;
  Network net(e, NetParams::zero(), 2);
  std::vector<Time> arrivals;
  for (int i = 0; i < 8; ++i)
    net.send(0, 1, 4096, 0, [&] { arrivals.push_back(e.now()); });
  e.run();
  ASSERT_EQ(arrivals.size(), 8u);
  for (const Time t : arrivals) EXPECT_EQ(t, 0);
}

// ---------- Fault injection ----------

TEST(FaultPlan, DefaultIsInactive) {
  EXPECT_FALSE(FaultPlan{}.any());
  EXPECT_FALSE(NetParams{}.faults.any());
}

TEST(FaultPlan, ParsesIndividualKnobs) {
  const auto p = FaultPlan::parse(
      "drop=0.25,dup=0.5,reorder=0.1:7000,delay=0.2:5000,pause=0.05:9000,"
      "jitter,seed=42");
  EXPECT_EQ(p.drop, 0.25);
  EXPECT_EQ(p.dup, 0.5);
  EXPECT_EQ(p.reorder, 0.1);
  EXPECT_EQ(p.reorder_window, 7000);
  EXPECT_EQ(p.delay, 0.2);
  EXPECT_EQ(p.delay_spike, 5000);
  EXPECT_EQ(p.pause, 0.05);
  EXPECT_EQ(p.pause_time, 9000);
  EXPECT_TRUE(p.link_jitter);
  EXPECT_EQ(p.seed, 42u);
  EXPECT_TRUE(p.any());
}

TEST(FaultPlan, ChaosPresetActivatesEverything) {
  const auto p = FaultPlan::parse("chaos");
  EXPECT_GT(p.drop, 0.0);
  EXPECT_GT(p.dup, 0.0);
  EXPECT_GT(p.reorder, 0.0);
  EXPECT_GT(p.delay, 0.0);
  EXPECT_GT(p.pause, 0.0);
  EXPECT_TRUE(p.any());
}

TEST(FaultPlan, LaterItemsOverrideEarlierOnes) {
  const auto p = FaultPlan::parse("chaos,drop=0.9,pause=0");
  EXPECT_EQ(p.drop, 0.9);
  EXPECT_EQ(p.pause, 0.0);
  EXPECT_GT(p.dup, 0.0);  // untouched preset value survives
}

TEST(FaultPlan, MalformedSpecsDie) {
  EXPECT_DEATH(FaultPlan::parse("bogus"), "unknown spec item");
  EXPECT_DEATH(FaultPlan::parse("drop"), "needs =<prob>");
  EXPECT_DEATH(FaultPlan::parse("drop=nope"), "bad number");
  EXPECT_DEATH(FaultPlan::parse("drop=1.5"), "out of \\[0,1\\]");
  EXPECT_DEATH(FaultPlan::parse("delay=0.1:xyz"), "bad duration");
  EXPECT_DEATH(FaultPlan::parse("delay=0.1:-5"), "negative duration");
}

TEST(FaultInjector, SameSeedSameDecisionStream) {
  auto draw = [](std::uint64_t seed) {
    FaultPlan plan = FaultPlan::parse("chaos,jitter");
    plan.seed = seed;
    FaultInjector inj(plan);
    std::vector<std::uint64_t> seq;
    for (std::uint32_t i = 0; i < 200; ++i) {
      seq.push_back(inj.roll_msg_drop(i % 4, (i + 1) % 4) ? 1u : 0u);
      seq.push_back(std::uint64_t(inj.roll_frag_delay(i % 4, (i + 1) % 4)));
    }
    return seq;
  };
  EXPECT_EQ(draw(7), draw(7));
  EXPECT_NE(draw(7), draw(8));
}

TEST(FaultInjector, CountsEachFaultKind) {
  FaultPlan plan;
  plan.drop = 1.0;
  plan.dup = 1.0;
  plan.delay = 1.0;
  plan.pause = 1.0;
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.roll_msg_drop(0, 1));
  EXPECT_TRUE(inj.roll_msg_dup(0, 1));
  EXPECT_GT(inj.roll_frag_delay(0, 1), 0);
  EXPECT_TRUE(inj.roll_pause(0, 1));
  EXPECT_EQ(inj.stats().dropped_msgs, 1u);
  EXPECT_EQ(inj.stats().dup_msgs, 1u);
  EXPECT_EQ(inj.stats().delayed_frags, 1u);
  EXPECT_EQ(inj.stats().pauses, 1u);
  inj.reset_stats();
  EXPECT_EQ(inj.stats().dropped_msgs, 0u);
}

TEST(Network, FaultFreeParamsAllocateNoInjector) {
  Engine e;
  Network net(e, NetParams{}, 2);
  EXPECT_EQ(net.injector(), nullptr);
}

TEST(Network, DelaySpikePushesArrivalBack) {
  Engine e;
  NetParams p;
  p.latency = 1000;
  p.ns_per_byte = 0;
  p.per_msg_wire = 0;
  p.nic_serialize = false;
  p.faults.delay = 1.0;  // every fragment spikes
  p.faults.delay_spike = 5000;
  Network net(e, p, 2);
  ASSERT_NE(net.injector(), nullptr);
  Time arrived = -1;
  net.send(0, 1, 16, 0, [&] { arrived = e.now(); });
  e.run();
  EXPECT_EQ(arrived, 1000 + 5000);
  EXPECT_EQ(net.injector()->stats().delayed_frags, 1u);
}

TEST(Network, ReorderJitterStaysInsideTheWindow) {
  Engine e;
  NetParams p;
  p.latency = 1000;
  p.ns_per_byte = 0;
  p.per_msg_wire = 0;
  p.nic_serialize = false;
  p.faults.reorder = 1.0;
  p.faults.reorder_window = 4000;
  Network net(e, p, 2);
  std::vector<Time> arrivals;
  for (int i = 0; i < 50; ++i)
    net.send(0, 1, 16, 0, [&] { arrivals.push_back(e.now()); });
  e.run();
  ASSERT_EQ(arrivals.size(), 50u);
  bool jittered = false;
  for (const Time t : arrivals) {
    EXPECT_GE(t, 1000);
    EXPECT_LT(t, 1000 + 4000);
    jittered |= t != 1000;
  }
  EXPECT_TRUE(jittered);  // with p=1 over 50 draws, some jitter lands
}

TEST(Network, PauseFaultInvokesTheHook) {
  Engine e;
  NetParams p;
  p.latency = 0;
  p.ns_per_byte = 0;
  p.per_msg_wire = 0;
  p.nic_serialize = false;
  p.faults.pause = 1.0;
  p.faults.pause_time = 12345;
  Network net(e, p, 2);
  NodeId paused = 99;
  Time duration = 0;
  net.set_pause_hook([&](NodeId node, Time t) {
    paused = node;
    duration = t;
  });
  net.send(0, 1, 16, 0, [] {});
  e.run();
  EXPECT_EQ(paused, 1u);
  EXPECT_EQ(duration, 12345);
  EXPECT_EQ(net.injector()->stats().pauses, 1u);
}

TEST(Network, LostSendOccupiesTheWireButNeverDelivers) {
  Engine e;
  NetParams p;
  p.latency = 0;
  p.per_msg_wire = 0;
  p.ns_per_byte = 1.0;
  p.nic_serialize = true;
  Network net(e, p, 2);
  // A lost 100-byte fragment holds the NIC; the next real message queues
  // behind it exactly as if it had been delivered.
  net.send_lost(0, 1, 100, 0);
  Time arrived = -1;
  net.send(0, 1, 100, 0, [&] { arrived = e.now(); });
  e.run();
  EXPECT_EQ(arrived, 200);
  EXPECT_EQ(net.stats().messages, 2u);  // injected traffic counts
  EXPECT_EQ(net.stats().bytes, 200u);
}

TEST(Machine, PauseFaultChargesTheDestinationNode) {
  NetParams p;
  p.latency = 0;
  p.ns_per_byte = 0;
  p.per_msg_wire = 0;
  p.nic_serialize = false;
  p.faults.pause = 1.0;
  p.faults.pause_time = 7000;
  Machine m(2, p);
  m.node(0).post([&m](Cpu& cpu) {
    m.network().send(0, 1, 8, cpu.logical_now(), [] {});
  });
  m.engine().run();
  // The machine's hook turns the pause into runtime-busy time on node 1.
  EXPECT_EQ(m.node(1).stats().busy[int(Work::kRuntime)], 7000);
}

// ---------- NodeProc / Machine ----------

TEST(NodeProc, TasksRunSeriallyAndChargeTime) {
  Machine m(1, NetParams{});
  std::vector<Time> starts;
  m.node(0).post([&](Cpu& cpu) {
    starts.push_back(cpu.logical_now());
    cpu.charge(100);
  });
  m.node(0).post([&](Cpu& cpu) {
    starts.push_back(cpu.logical_now());
    cpu.charge(50, Work::kComm);
  });
  m.engine().run();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 100);
  EXPECT_EQ(m.node(0).stats().busy_total, 150);
  EXPECT_EQ(m.node(0).stats().busy[int(Work::kCompute)], 100);
  EXPECT_EQ(m.node(0).stats().busy[int(Work::kComm)], 50);
  EXPECT_EQ(m.node(0).stats().tasks_run, 2u);
}

TEST(NodeProc, LogicalNowAdvancesWithinTask) {
  Machine m(1, NetParams{});
  std::vector<Time> marks;
  m.node(0).post([&](Cpu& cpu) {
    marks.push_back(cpu.logical_now());
    cpu.charge(10);
    marks.push_back(cpu.logical_now());
    cpu.charge(20);
    marks.push_back(cpu.logical_now());
  });
  m.engine().run();
  EXPECT_EQ(marks, (std::vector<Time>{0, 10, 30}));
}

TEST(NodeProc, PostFromWithinTaskRunsAfterCurrentTaskEnds) {
  Machine m(1, NetParams{});
  std::vector<Time> starts;
  m.node(0).post([&](Cpu& cpu) {
    cpu.charge(500);
    m.node(0).post([&](Cpu& inner) {
      starts.push_back(inner.logical_now());
    });
  });
  m.engine().run();
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], 500);
}

TEST(NodeProc, NodesRunIndependently) {
  Machine m(2, NetParams{});
  m.node(0).post([](Cpu& cpu) { cpu.charge(1000); });
  m.node(1).post([](Cpu& cpu) { cpu.charge(10); });
  m.engine().run();
  EXPECT_EQ(m.node(0).stats().finish_time, 1000);
  EXPECT_EQ(m.node(1).stats().finish_time, 10);
}

TEST(Machine, PhaseElapsedIsMaxFinish) {
  Machine m(2, NetParams{});
  m.begin_phase();
  m.node(0).post([](Cpu& cpu) { cpu.charge(300); });
  m.node(1).post([](Cpu& cpu) { cpu.charge(700); });
  const Time elapsed = m.run_phase();
  EXPECT_EQ(elapsed, 700);
  EXPECT_EQ(m.node(0).stats().busy_total, 300);
  EXPECT_EQ(m.node(1).stats().busy_total, 700);
}

TEST(Machine, BeginPhaseResetsStats) {
  Machine m(1, NetParams{});
  m.node(0).post([](Cpu& cpu) { cpu.charge(100); });
  m.engine().run();
  m.begin_phase();
  EXPECT_EQ(m.node(0).stats().busy_total, 0);
  m.node(0).post([](Cpu& cpu) { cpu.charge(5); });
  const Time elapsed = m.run_phase();
  EXPECT_EQ(elapsed, 5);
}

TEST(Machine, NegativeChargeDies) {
  Machine m(1, NetParams{});
  m.node(0).post([](Cpu& cpu) { cpu.charge(-1); });
  EXPECT_DEATH(m.engine().run(), "negative charge");
}

// Determinism: two identical simulations produce identical event counts and
// finish times.
TEST(Machine, DeterministicReplay) {
  auto run_once = [] {
    Machine m(4, NetParams{});
    for (NodeId i = 0; i < 4; ++i) {
      m.node(i).post([&m, i](Cpu& cpu) {
        cpu.charge(100 + i * 7);
        m.network().send(i, (i + 1) % 4, 64, cpu.logical_now(), [] {});
      });
    }
    m.engine().run();
    return std::pair(m.engine().now(), m.engine().events_processed());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dpa::sim
