// Chaos suite: end-to-end runs of barnes / fmm / em3d on a faulty fabric.
//
// The contract under test (see sim/fault.h and fm/fm.h): with the
// deterministic in-order schedule, a run under any fault plan produces
// *bit-identical* physics to the fault-free run — drops, duplicates,
// reordering and pauses cost simulated time, never correctness. Each app is
// run under several fault seeds and compared against its own fault-free
// baseline; we also check the recovery machinery actually engaged (drops
// observed, retries >= drops, acks flowing, duplicates deduplicated).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "apps/barnes/app.h"
#include "apps/em3d/em3d.h"
#include "apps/fmm/app.h"
#include "runtime/config.h"
#include "sim/fault.h"
#include "sim/network.h"

namespace dpa {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kFaultSeeds[] = {1, 2, 3};

// A modest LogGP fabric (t3d-ish shape, scaled down so the suite stays
// fast). Fault probabilities are cranked well above the "chaos" preset so
// every recovery path triggers even at test scale.
sim::NetParams base_net() {
  sim::NetParams p;
  p.send_overhead = 500;
  p.recv_overhead = 600;
  p.latency = 1500;
  p.ns_per_byte = 4.0;
  p.per_msg_wire = 100;
  p.nic_serialize = true;
  p.mtu_bytes = 4096;
  return p;
}

sim::NetParams faulty_net(std::uint64_t seed) {
  auto p = base_net();
  p.faults = sim::FaultPlan::parse(
      "drop=0.08,dup=0.04,reorder=0.1,delay=0.05:40000,pause=0.01:100000,"
      "jitter");
  p.faults.seed = seed;
  return p;
}

// Sums fault counters and FM's recovery counters across a run's phases.
struct ChaosTotals {
  sim::FaultStats faults;
  std::uint64_t retries = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_recv = 0;
  std::uint64_t dup_msgs_dropped = 0;

  template <class Run>
  static ChaosTotals of(const Run& run) {
    ChaosTotals t;
    for (const auto& step : run.steps) {
      t.faults.dropped_msgs += step.phase.faults.dropped_msgs;
      t.faults.dup_msgs += step.phase.faults.dup_msgs;
      t.faults.delayed_frags += step.phase.faults.delayed_frags;
      t.faults.pauses += step.phase.faults.pauses;
      t.retries += step.phase.fm_total.retries;
      t.acks_sent += step.phase.fm_total.acks_sent;
      t.acks_recv += step.phase.fm_total.acks_recv;
      t.dup_msgs_dropped += step.phase.fm_total.dup_msgs_dropped;
    }
    return t;
  }

  // Every dropped message — request, reply, or ack — forces at least one
  // distinct retransmission, unless a fabric-duplicated copy of the same
  // information still got through (a duplicated data message is acked per
  // copy, so one surviving ack can mask one dropped one). Each dup event
  // yields at most one such redundant copy, hence the bound
  //     retries + dup_msgs >= dropped_msgs,
  // which collapses to the strict retries >= drops when dup is off (see
  // RetriesCoverDropsExactlyWithoutDuplication below).
  void check_recovery() const {
    EXPECT_GT(faults.dropped_msgs, 0u) << "fault plan never fired";
    EXPECT_GE(retries + faults.dup_msgs, faults.dropped_msgs);
    EXPECT_GT(retries, 0u);
    EXPECT_GT(acks_sent, 0u);
    EXPECT_GT(acks_recv, 0u);
    EXPECT_GE(acks_sent, acks_recv);
  }
};

template <class T>
void expect_bits_equal(const std::vector<T>& a, const std::vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
      << "physics diverged under faults";
}

TEST(Chaos, BarnesPhysicsSurvivesFaults) {
  apps::barnes::BarnesConfig cfg;
  cfg.nbodies = 256;
  cfg.nsteps = 2;
  const apps::barnes::BarnesApp app(cfg);
  const auto rcfg = rt::RuntimeConfig::dpa_deterministic(50);

  const auto clean = app.run(kNodes, base_net(), rcfg);
  ASSERT_TRUE(clean.all_completed());
  EXPECT_EQ(ChaosTotals::of(clean).faults.dropped_msgs, 0u);
  EXPECT_EQ(ChaosTotals::of(clean).retries, 0u);

  for (const auto seed : kFaultSeeds) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const auto chaos = app.run(kNodes, faulty_net(seed), rcfg);
    ASSERT_TRUE(chaos.all_completed());
    expect_bits_equal(clean.final_bodies, chaos.final_bodies);
    ChaosTotals::of(chaos).check_recovery();
    // Faults only ever cost time.
    EXPECT_GE(chaos.total_parallel_seconds(),
              clean.total_parallel_seconds());
  }
}

TEST(Chaos, FmmPhysicsSurvivesFaults) {
  apps::fmm::FmmConfig cfg;
  cfg.nparticles = 256;
  cfg.terms = 8;
  const apps::fmm::FmmApp app(cfg);
  const auto rcfg = rt::RuntimeConfig::dpa_deterministic(50);

  const auto clean = app.run(kNodes, base_net(), rcfg);
  ASSERT_TRUE(clean.all_completed());

  for (const auto seed : kFaultSeeds) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const auto chaos = app.run(kNodes, faulty_net(seed), rcfg);
    ASSERT_TRUE(chaos.all_completed());
    expect_bits_equal(clean.final_particles, chaos.final_particles);
    ChaosTotals::of(chaos).check_recovery();
  }
}

TEST(Chaos, Em3dPhysicsSurvivesFaults) {
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 256;
  cfg.h_per_node = 256;
  cfg.remote_prob = 0.35;
  cfg.iters = 2;
  const apps::em3d::Em3dApp app(cfg, kNodes);
  const auto rcfg = rt::RuntimeConfig::dpa_deterministic(64);

  const auto clean = app.run(base_net(), rcfg);
  ASSERT_TRUE(clean.all_completed());

  for (const auto seed : kFaultSeeds) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const auto chaos = app.run(faulty_net(seed), rcfg);
    ASSERT_TRUE(chaos.all_completed());
    EXPECT_EQ(clean.e_values, chaos.e_values);
    EXPECT_EQ(clean.h_values, chaos.h_values);
    ChaosTotals::of(chaos).check_recovery();
  }
}

// With duplication off there are no redundant acks, so the invariant is
// exact: every drop (data or ack) times out into at least one distinct
// retransmission. Duplicate-free chaos also pins dedup at zero.
TEST(Chaos, RetriesCoverDropsExactlyWithoutDuplication) {
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 192;
  cfg.h_per_node = 192;
  cfg.remote_prob = 0.35;
  const apps::em3d::Em3dApp app(cfg, kNodes);
  const auto rcfg = rt::RuntimeConfig::dpa_deterministic(64);

  const auto clean = app.run(base_net(), rcfg);
  ASSERT_TRUE(clean.all_completed());
  for (const auto seed : kFaultSeeds) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    auto net = base_net();
    net.faults = sim::FaultPlan::parse("drop=0.1,delay=0.05,jitter");
    net.faults.seed = seed;
    const auto chaos = app.run(net, rcfg);
    ASSERT_TRUE(chaos.all_completed());
    EXPECT_EQ(clean.e_values, chaos.e_values);
    const auto t = ChaosTotals::of(chaos);
    EXPECT_GT(t.faults.dropped_msgs, 0u);
    EXPECT_GE(t.retries, t.faults.dropped_msgs);
    EXPECT_EQ(t.faults.dup_msgs, 0u);
  }
}

// When the fabric duplicates messages, the receiver-side sequence filter
// must be what keeps delivery exactly-once.
TEST(Chaos, DuplicatesAreDeduplicated) {
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 192;
  cfg.h_per_node = 192;
  cfg.remote_prob = 0.35;
  const apps::em3d::Em3dApp app(cfg, kNodes);
  const auto rcfg = rt::RuntimeConfig::dpa_deterministic(64);

  const auto clean = app.run(base_net(), rcfg);
  auto net = base_net();
  net.faults = sim::FaultPlan::parse("dup=0.2");
  const auto chaos = app.run(net, rcfg);
  ASSERT_TRUE(chaos.all_completed());
  EXPECT_EQ(clean.e_values, chaos.e_values);
  const auto t = ChaosTotals::of(chaos);
  EXPECT_GT(t.faults.dup_msgs, 0u);
  EXPECT_GT(t.dup_msgs_dropped, 0u);
  EXPECT_GE(t.acks_sent, t.acks_recv);
}

// The faulted schedule itself must replay bit-identically: same seed, same
// drops, same retries, same elapsed time.
TEST(Chaos, SameFaultSeedReplaysBitIdentically) {
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 128;
  cfg.h_per_node = 128;
  cfg.remote_prob = 0.35;
  const apps::em3d::Em3dApp app(cfg, kNodes);
  const auto rcfg = rt::RuntimeConfig::dpa_deterministic(64);

  const auto a = app.run(faulty_net(7), rcfg);
  const auto b = app.run(faulty_net(7), rcfg);
  ASSERT_TRUE(a.all_completed());
  ASSERT_TRUE(b.all_completed());
  EXPECT_EQ(a.e_values, b.e_values);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].phase.elapsed, b.steps[i].phase.elapsed);
    EXPECT_EQ(a.steps[i].phase.faults.dropped_msgs,
              b.steps[i].phase.faults.dropped_msgs);
    EXPECT_EQ(a.steps[i].phase.fm_total.retries,
              b.steps[i].phase.fm_total.retries);
  }
  // Different seed => (almost surely) a different fault schedule.
  const auto c = app.run(faulty_net(8), rcfg);
  ASSERT_TRUE(c.all_completed());
  EXPECT_EQ(a.e_values, c.e_values);  // physics still identical...
  std::uint64_t drops_a = 0, drops_c = 0;
  for (const auto& s : a.steps) drops_a += s.phase.faults.dropped_msgs;
  for (const auto& s : c.steps) drops_c += s.phase.faults.dropped_msgs;
  EXPECT_NE(drops_a, drops_c);  // ...but the schedule moved
}

// The baseline engines survive faults too: their schedules are inherently
// timing-independent (blocking / stack-order execution), so physics must
// match the fault-free run without any special mode.
TEST(Chaos, BaselineEnginesSurviveFaults) {
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 128;
  cfg.h_per_node = 128;
  cfg.remote_prob = 0.35;
  const apps::em3d::Em3dApp app(cfg, kNodes);

  for (const auto& rcfg :
       {rt::RuntimeConfig::caching(), rt::RuntimeConfig::prefetching(8)}) {
    SCOPED_TRACE(rcfg.describe());
    const auto clean = app.run(base_net(), rcfg);
    ASSERT_TRUE(clean.all_completed());
    const auto chaos = app.run(faulty_net(11), rcfg);
    ASSERT_TRUE(chaos.all_completed());
    EXPECT_EQ(clean.e_values, chaos.e_values);
    EXPECT_EQ(clean.h_values, chaos.h_values);
    ChaosTotals::of(chaos).check_recovery();
  }
}

}  // namespace
}  // namespace dpa
