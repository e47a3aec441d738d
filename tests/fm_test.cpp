#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "fm/fm.h"
#include "sim/machine.h"

namespace dpa::fm {
namespace {

using sim::Cpu;
using sim::Machine;
using sim::NetParams;
using sim::Time;
using sim::Work;

struct IntPayload {
  int value;
};

NetParams test_params() {
  NetParams p;
  p.send_overhead = 100;
  p.recv_overhead = 200;
  p.latency = 1000;
  p.ns_per_byte = 1.0;
  p.per_msg_wire = 0;
  p.nic_serialize = false;
  p.mtu_bytes = 256;
  return p;
}

TEST(Fm, DeliversToHandlerWithPayload) {
  Machine m(2, test_params());
  FmLayer fm(m);
  int got = -1;
  NodeId got_src = 99;
  const HandlerId h = fm.register_handler([&](Cpu&, const Packet& pkt) {
    got = static_cast<IntPayload*>(pkt.data.get())->value;
    got_src = pkt.src;
  });
  m.node(0).post([&](Cpu& cpu) {
    fm.send(cpu, 0, 1, h, std::make_shared<IntPayload>(IntPayload{42}), 16);
  });
  m.engine().run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(got_src, 0u);
}

TEST(Fm, ChargesSendAndRecvOverheads) {
  Machine m(2, test_params());
  FmLayer fm(m);
  const HandlerId h = fm.register_handler([](Cpu&, const Packet&) {});
  m.node(0).post([&](Cpu& cpu) { fm.send(cpu, 0, 1, h, nullptr, 16); });
  m.engine().run();
  EXPECT_EQ(m.node(0).stats().busy[int(Work::kComm)], 100);
  EXPECT_EQ(m.node(1).stats().busy[int(Work::kComm)], 200);
}

TEST(Fm, HandlerRunsAtArrivalTime) {
  Machine m(2, test_params());
  FmLayer fm(m);
  Time handler_time = -1;
  const HandlerId h = fm.register_handler(
      [&](Cpu& cpu, const Packet&) { handler_time = cpu.logical_now(); });
  m.node(0).post([&](Cpu& cpu) {
    cpu.charge(500);  // message departs at sender logical time
    fm.send(cpu, 0, 1, h, nullptr, 100);
  });
  m.engine().run();
  // depart 500 (+100 send overhead inside send) + latency 1000 + 100 bytes,
  // then 200ns recv overhead before the handler body observes logical_now.
  EXPECT_EQ(handler_time, 600 + 1000 + 100 + 200);
}

TEST(Fm, SegmentsPayloadsLargerThanMtu) {
  Machine m(2, test_params());  // MTU 256
  FmLayer fm(m);
  int deliveries = 0;
  const HandlerId h =
      fm.register_handler([&](Cpu&, const Packet&) { ++deliveries; });
  m.node(0).post([&](Cpu& cpu) { fm.send(cpu, 0, 1, h, nullptr, 1000); });
  m.engine().run();
  EXPECT_EQ(deliveries, 1);  // handler fires once, on the last fragment
  EXPECT_EQ(fm.node_stats(0).msgs_sent, 1u);
  EXPECT_EQ(fm.node_stats(0).frags_sent, 4u);  // ceil(1000/256)
  EXPECT_EQ(m.network().stats().messages, 4u);
  EXPECT_EQ(fm.node_stats(1).bytes_recv, 1000u);
  // Per-fragment send overhead on the source.
  EXPECT_EQ(m.node(0).stats().busy[int(Work::kComm)], 400);
}

TEST(Fm, SegmentedDeliveryWaitsForLastFragment) {
  auto p = test_params();
  p.nic_serialize = true;  // fragments serialize on the NIC
  Machine m(2, p);
  FmLayer fm(m);
  Time delivered_at = -1;
  const HandlerId h = fm.register_handler(
      [&](Cpu&, const Packet&) { delivered_at = m.engine().now(); });
  m.node(0).post([&](Cpu& cpu) { fm.send(cpu, 0, 1, h, nullptr, 512); });
  m.engine().run();
  // Two 256B fragments. Frag 1 injects at t=100 (after its send overhead)
  // and holds the NIC until 356; frag 2 injects at 356 and arrives at
  // 356 + latency 1000 + wire 256 = 1612.
  EXPECT_EQ(delivered_at, 1612);
}

TEST(Fm, ZeroByteMessageStillOneFragment) {
  Machine m(2, test_params());
  FmLayer fm(m);
  int deliveries = 0;
  const HandlerId h =
      fm.register_handler([&](Cpu&, const Packet&) { ++deliveries; });
  m.node(0).post([&](Cpu& cpu) { fm.send(cpu, 0, 1, h, nullptr, 0); });
  m.engine().run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(fm.node_stats(0).frags_sent, 1u);
}

TEST(Fm, StatsPerNodeAndAggregate) {
  Machine m(3, test_params());
  FmLayer fm(m);
  const HandlerId h = fm.register_handler([](Cpu&, const Packet&) {});
  m.node(0).post([&](Cpu& cpu) {
    fm.send(cpu, 0, 1, h, nullptr, 10);
    fm.send(cpu, 0, 2, h, nullptr, 20);
  });
  m.node(1).post([&](Cpu& cpu) { fm.send(cpu, 1, 2, h, nullptr, 30); });
  m.engine().run();
  EXPECT_EQ(fm.node_stats(0).msgs_sent, 2u);
  EXPECT_EQ(fm.node_stats(0).bytes_sent, 30u);
  EXPECT_EQ(fm.node_stats(2).msgs_recv, 2u);
  EXPECT_EQ(fm.node_stats(2).bytes_recv, 50u);
  const FmNodeStats total = fm.aggregate_stats();
  EXPECT_EQ(total.msgs_sent, 3u);
  EXPECT_EQ(total.msgs_recv, 3u);
  EXPECT_EQ(total.bytes_sent, 60u);
}

TEST(Fm, BeginPhaseClearsStats) {
  Machine m(2, test_params());
  FmLayer fm(m);
  const HandlerId h = fm.register_handler([](Cpu&, const Packet&) {});
  m.node(0).post([&](Cpu& cpu) { fm.send(cpu, 0, 1, h, nullptr, 10); });
  m.engine().run();
  fm.begin_phase();
  EXPECT_EQ(fm.node_stats(0).msgs_sent, 0u);
  EXPECT_EQ(fm.aggregate_stats().bytes_recv, 0u);
}

TEST(Fm, UnregisteredHandlerDies) {
  Machine m(2, test_params());
  FmLayer fm(m);
  m.node(0).post([&](Cpu& cpu) { fm.send(cpu, 0, 1, 7, nullptr, 1); });
  EXPECT_DEATH(m.engine().run(), "unregistered handler");
}

TEST(Fm, LoopbackSendDeliversToSelf) {
  Machine m(2, test_params());
  FmLayer fm(m);
  int got = 0;
  const HandlerId h =
      fm.register_handler([&](Cpu&, const Packet&) { ++got; });
  m.node(0).post([&](Cpu& cpu) { fm.send(cpu, 0, 0, h, nullptr, 8); });
  m.engine().run();
  EXPECT_EQ(got, 1);  // loopback still pays the wire (FM semantics)
  EXPECT_EQ(fm.node_stats(0).msgs_sent, 1u);
  EXPECT_EQ(fm.node_stats(0).msgs_recv, 1u);
}

// ---------- Loss and exactly-once delivery ----------

TEST(Fm, TargetedDropIsLostForGood) {
  // No fault plan, so no recovery protocol: a targeted drop is a loss
  // nothing repairs.
  Machine m(2, test_params());
  FmLayer fm(m);
  int deliveries = 0;
  const HandlerId h =
      fm.register_handler([&](Cpu&, const Packet&) { ++deliveries; });
  fm.drop_nth_message(1);
  m.node(0).post([&](Cpu& cpu) { fm.send(cpu, 0, 1, h, nullptr, 600); });
  m.engine().run();
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(fm.dropped_messages(), 1u);
  EXPECT_EQ(fm.node_stats(1).msgs_recv, 0u);
  EXPECT_EQ(fm.node_stats(0).retries, 0u);
  // The loss is physical, not accounting: the sender still paid its
  // per-fragment software overhead and the fragments occupied the wire.
  EXPECT_EQ(fm.node_stats(0).msgs_sent, 1u);
  EXPECT_EQ(fm.node_stats(0).frags_sent, 3u);  // ceil(600/256)
  EXPECT_EQ(m.network().stats().messages, 3u);
  EXPECT_EQ(m.node(0).stats().busy[int(Work::kComm)], 300);
}

TEST(Fm, LossyFabricDeliversEachMessageExactlyOnce) {
  auto p = test_params();
  p.faults.drop = 0.5;  // data and acks alike
  Machine m(2, p);
  FmLayer fm(m);
  std::vector<int> got(20, 0);
  const HandlerId h =
      fm.register_handler([&](Cpu&, const Packet& pkt) {
        ++got[static_cast<IntPayload*>(pkt.data.get())->value];
      });
  m.node(0).post([&](Cpu& cpu) {
    for (int i = 0; i < 20; ++i)
      fm.send(cpu, 0, 1, h, std::make_shared<IntPayload>(IntPayload{i}), 16);
  });
  m.engine().run();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i], 1) << "message " << i;
  EXPECT_GT(m.network().injector()->stats().dropped_msgs, 0u);
  const FmNodeStats total = fm.aggregate_stats();
  EXPECT_GE(total.retries, 1u);
  EXPECT_EQ(total.acks_recv, 20u);  // every message acked, each once
  EXPECT_GE(total.acks_sent, total.acks_recv);
}

TEST(Fm, DuplicatedMessageDeliversOnce) {
  auto p = test_params();
  p.faults.dup = 1.0;  // every message, acks included, is doubled
  Machine m(2, p);
  FmLayer fm(m);
  int deliveries = 0;
  const HandlerId h =
      fm.register_handler([&](Cpu&, const Packet&) { ++deliveries; });
  m.node(0).post([&](Cpu& cpu) { fm.send(cpu, 0, 1, h, nullptr, 16); });
  m.engine().run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(m.network().injector()->stats().dup_msgs, 3u);  // data + 2 acks
  EXPECT_EQ(fm.node_stats(1).dup_msgs_dropped, 1u);
  EXPECT_EQ(fm.node_stats(1).acks_sent, 2u);  // every copy is acked
  EXPECT_EQ(fm.node_stats(0).acks_recv, 1u);  // the first ack clears it
  EXPECT_EQ(fm.node_stats(0).retries, 0u);
  // The duplicate is the NIC's doing: the sender charged software overhead
  // for one send, plus receive overhead for the four ack copies.
  EXPECT_EQ(m.node(0).stats().busy[int(Work::kComm)], 100 + 4 * 200);
}

TEST(Fm, SegmentedDuplicateDeliversOnce) {
  // The original and the duplicate are full multi-fragment trains with
  // distinct train ids and one sequence number; whichever completes second
  // is dropped.
  auto p = test_params();
  p.faults.dup = 1.0;
  Machine m(2, p);
  FmLayer fm(m);
  int deliveries = 0;
  const HandlerId h =
      fm.register_handler([&](Cpu&, const Packet&) { ++deliveries; });
  m.node(0).post([&](Cpu& cpu) { fm.send(cpu, 0, 1, h, nullptr, 1000); });
  m.engine().run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(fm.node_stats(1).dup_msgs_dropped, 1u);
  // 2 data trains x 4 fragments, plus 2 one-fragment acks, each doubled.
  EXPECT_EQ(m.network().stats().messages, 12u);
}

TEST(FmDeathTest, GivesUpWhenEveryCopyIsLost) {
  auto p = test_params();
  p.faults.drop = 1.0;
  Machine m(2, p);
  FmLayer fm(m);
  const HandlerId h = fm.register_handler([](Cpu&, const Packet&) {});
  m.node(0).post([&](Cpu& cpu) { fm.send(cpu, 0, 1, h, nullptr, 16); });
  EXPECT_DEATH(m.engine().run(), "gave up on seq 1 to node 1");
}

TEST(Fm, FaultFreePlanKeepsDeliveryExact) {
  // A present-but-all-zero plan must behave exactly like no plan at all.
  auto p = test_params();
  p.faults = sim::FaultPlan{};
  Machine m(2, p);
  FmLayer fm(m);
  EXPECT_EQ(m.network().injector(), nullptr);
}

TEST(Fm, MessagesBetweenManyNodesAllArrive) {
  Machine m(8, test_params());
  FmLayer fm(m);
  int count = 0;
  const HandlerId h =
      fm.register_handler([&](Cpu&, const Packet&) { ++count; });
  for (NodeId i = 0; i < 8; ++i) {
    m.node(i).post([&, i](Cpu& cpu) {
      for (NodeId j = 0; j < 8; ++j)
        if (j != i) fm.send(cpu, i, j, h, nullptr, 8);
    });
  }
  m.engine().run();
  EXPECT_EQ(count, 56);
}

// ---------- the reliability core ----------

Reliable::Pending make_pending(NodeId dst) {
  Reliable::Pending p;
  p.dst = dst;
  p.handler = 1;
  p.bytes = 8;
  return p;
}

TEST(Reliable, SequencesTrackAckAndDrain) {
  Reliable rel(4, RetryPolicy{}, /*self=*/0);
  EXPECT_EQ(rel.in_flight(), 0u);
  EXPECT_EQ(rel.next_seq(), 1u);
  EXPECT_EQ(rel.next_seq(), 2u);

  const Time deadline = rel.track(1, make_pending(2), /*now=*/100);
  EXPECT_EQ(deadline, 100 + RetryPolicy{}.timeout_ns);
  rel.track(2, make_pending(3), 100);
  EXPECT_EQ(rel.in_flight(), 2u);
  EXPECT_TRUE(rel.is_pending(1));

  EXPECT_TRUE(rel.on_ack(1));
  EXPECT_FALSE(rel.on_ack(1));  // stale ack: already cleared
  EXPECT_FALSE(rel.is_pending(1));
  EXPECT_EQ(rel.in_flight(), 1u);
  EXPECT_TRUE(rel.on_ack(2));
  EXPECT_EQ(rel.in_flight(), 0u);
}

TEST(Reliable, RetryBacksOffExponentiallyAndCapsAtMaxTimeout) {
  RetryPolicy policy;
  policy.timeout_ns = 1000;
  policy.backoff = 2.0;
  policy.max_timeout_ns = 3500;
  Reliable rel(2, policy, 0);
  rel.track(rel.next_seq(), make_pending(1), 0);

  const Reliable::Pending* p = rel.retry(1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->attempts, 1u);
  EXPECT_EQ(p->timeout, 2000);
  p = rel.retry(1);
  EXPECT_EQ(p->timeout, 3500);  // capped, not 4000
  p = rel.retry(1);
  EXPECT_EQ(p->timeout, 3500);  // stays at the cap

  // Acked messages stop retrying: the timer that fires after the ack
  // finds nothing and must get null (not a resurrection).
  EXPECT_TRUE(rel.on_ack(1));
  EXPECT_EQ(rel.retry(1), nullptr);
}

TEST(ReliableDeathTest, GivesUpLoudlyAfterMaxRetries) {
  RetryPolicy policy;
  policy.timeout_ns = 1000;
  policy.max_retries = 3;
  Reliable rel(4, policy, 0);

  const std::uint64_t seq = rel.next_seq();
  rel.track(seq, make_pending(3), /*now=*/0);

  // max_retries retransmissions are granted...
  for (std::uint32_t i = 1; i <= policy.max_retries; ++i) {
    const Reliable::Pending* p = rel.retry(seq);
    ASSERT_NE(p, nullptr) << "retry " << i;
    EXPECT_EQ(p->attempts, i);
  }
  EXPECT_EQ(rel.in_flight(), 1u);

  // ...and the next deadline gives the message up by dying, naming every
  // transmission ever made — the original send plus max_retries
  // retransmissions.
  EXPECT_DEATH(rel.retry(seq),
               R"(after 4 sends \(1 original \+ 3 retransmissions\))");
}

TEST(Reliable, AcceptDedupsPerSourceSequences) {
  Reliable rel(3, RetryPolicy{}, /*self=*/2);
  EXPECT_TRUE(rel.accept(0, 1));
  EXPECT_FALSE(rel.accept(0, 1));  // duplicate from the same source
  EXPECT_TRUE(rel.accept(1, 1));   // same seq, different source: distinct
  EXPECT_TRUE(rel.accept(0, 2));
}

}  // namespace
}  // namespace dpa::fm
