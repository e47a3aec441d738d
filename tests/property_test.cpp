// Property tests: randomized workloads checked against invariants that must
// hold for every engine, every topology and every parameter setting.
//
// The central ones:
//   * result equivalence — every engine computes the same reduction values
//     on the same workload (scheduling must not change semantics);
//   * conservation — threads created are eventually run, every requested
//     ref is served exactly once, every sent message is received;
//   * accounting — per-node busy components sum to busy_total and
//     busy + idle == elapsed;
//   * resource bounds — strip-mining caps M and outstanding threads;
//   * determinism — identical runs are bit-identical.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "gas/heap.h"
#include "runtime/phase.h"
#include "support/rng.h"

namespace dpa::rt {
namespace {

using gas::GPtr;

struct Obj {
  double val = 0;
};

// A randomly generated phase plan: which objects each node's items touch.
struct Plan {
  std::uint32_t nodes = 0;
  std::vector<GPtr<Obj>> objs;          // with random homes
  std::vector<std::vector<std::vector<std::size_t>>> touches;  // [node][item]
  double expected_sum = 0;

  static Plan make(Cluster& cluster, std::uint64_t seed) {
    Rng rng(seed);
    Plan plan;
    plan.nodes = cluster.num_nodes();
    const std::size_t nobjs = 1 + rng.next_below(200);
    for (std::size_t i = 0; i < nobjs; ++i) {
      plan.objs.push_back(cluster.heap.make<Obj>(
          sim::NodeId(rng.next_below(plan.nodes)),
          Obj{rng.uniform(0.5, 2.0)}));
    }
    plan.touches.resize(plan.nodes);
    for (std::uint32_t n = 0; n < plan.nodes; ++n) {
      const std::size_t items = rng.next_below(60);
      plan.touches[n].resize(items);
      for (auto& item : plan.touches[n]) {
        const std::size_t k = 1 + rng.next_below(4);
        for (std::size_t t = 0; t < k; ++t) {
          const std::size_t o = rng.next_below(nobjs);
          item.push_back(o);
          plan.expected_sum += plan.objs[o].addr->val;
        }
      }
    }
    return plan;
  }

  std::vector<NodeWork> work(std::shared_ptr<double> sum) const {
    std::vector<NodeWork> w(nodes);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      const auto& mine = touches[n];
      w[n].count = mine.size();
      w[n].item = [this, &mine, sum](Ctx& ctx, std::uint64_t i) {
        for (const std::size_t o : mine[std::size_t(i)]) {
          ctx.require(objs[o], [sum](Ctx& c, const Obj& obj) {
            c.charge(75);
            *sum += obj.val;
          });
        }
      };
    }
    return w;
  }
};

sim::NetParams random_net(std::uint64_t seed) {
  Rng rng(seed * 31 + 7);
  sim::NetParams p;
  p.send_overhead = sim::Time(rng.next_below(4000));
  p.recv_overhead = sim::Time(rng.next_below(4000));
  p.latency = sim::Time(rng.next_below(10000));
  p.ns_per_byte = rng.uniform(0, 60);
  p.per_msg_wire = sim::Time(rng.next_below(500));
  p.nic_serialize = rng.chance(0.5);
  p.topology = rng.chance(0.5) ? sim::Topology::kTorus3d
                               : sim::Topology::kCrossbar;
  return p;
}

RuntimeConfig config_by_name(const std::string& name) {
  if (name == "dpa") return RuntimeConfig::dpa(17);
  if (name == "dpa-base") return RuntimeConfig::dpa_base(17);
  if (name == "dpa-pipe") return RuntimeConfig::dpa_pipelined(17);
  if (name == "dpa-interleaved") {
    auto cfg = RuntimeConfig::dpa(17);
    cfg.sched_template = SchedTemplate::kInterleaved;
    return cfg;
  }
  if (name == "caching") return RuntimeConfig::caching();
  if (name == "caching-lru-small") {
    auto cfg = RuntimeConfig::caching();
    cfg.cache_capacity = 8;
    cfg.cache_policy = RuntimeConfig::CachePolicy::kLru;
    return cfg;
  }
  if (name == "blocking") return RuntimeConfig::blocking();
  if (name == "prefetch") return RuntimeConfig::prefetching(8);
  ADD_FAILURE() << "unknown engine " << name;
  return RuntimeConfig{};
}

// ---------- engine x seed sweep ----------

class EngineProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(EngineProperty, ResultAndInvariantsHold) {
  const auto& [engine, seed_int] = GetParam();
  const auto seed = std::uint64_t(seed_int);
  const std::uint32_t nodes = 2 + std::uint32_t(seed % 7);

  Cluster cluster(nodes, random_net(seed));
  const Plan plan = Plan::make(cluster, seed);
  auto sum = std::make_shared<double>(0.0);

  PhaseRunner runner(cluster, config_by_name(engine));
  const PhaseResult r = runner.run(plan.work(sum));
  ASSERT_TRUE(r.completed) << r.diagnostics;

  // Result equivalence with the plan's oracle (reductions commute; exact
  // equality is too strict under reassociation, so allow ulp-scale slack).
  EXPECT_NEAR(*sum, plan.expected_sum, 1e-9 * (1.0 + plan.expected_sum));

  // Conservation.
  EXPECT_EQ(r.rt.threads_created, r.rt.threads_run);
  EXPECT_EQ(r.rt.refs_requested, r.rt.refs_served);
  EXPECT_EQ(r.rt.request_msgs, r.rt.requests_served);
  EXPECT_EQ(r.rt.request_msgs, r.rt.replies_recv);
  EXPECT_EQ(r.fm_total.msgs_sent, r.fm_total.msgs_recv);
  EXPECT_EQ(r.fm_total.bytes_sent, r.fm_total.bytes_recv);

  // Accounting.
  for (const auto& n : r.nodes) {
    EXPECT_EQ(n.compute + n.runtime + n.comm, n.busy_total);
    EXPECT_EQ(n.busy_total + n.idle, r.elapsed);
  }

  if (r.rt.request_msgs > 0) {
    EXPECT_GE(r.rt.aggregation_factor(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineProperty,
    ::testing::Combine(
        ::testing::Values("dpa", "dpa-base", "dpa-pipe", "dpa-interleaved",
                          "caching", "caching-lru-small", "blocking",
                          "prefetch"),
        ::testing::Range(1, 9)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_seed" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---------- determinism sweep ----------

class DeterminismProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismProperty, IdenticalRunsAreBitIdentical) {
  const auto seed = std::uint64_t(GetParam());
  auto run_once = [seed] {
    Cluster cluster(4, random_net(seed));
    const Plan plan = Plan::make(cluster, seed);
    auto sum = std::make_shared<double>(0.0);
    PhaseRunner runner(cluster, RuntimeConfig::dpa(13));
    const PhaseResult r = runner.run(plan.work(sum));
    EXPECT_TRUE(r.completed);
    return std::tuple(r.elapsed, r.net.messages, r.net.bytes,
                      r.rt.threads_run, r.rt.request_msgs, *sum);
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Range(100, 110));

// ---------- strip bound sweep ----------

class StripBoundProperty : public ::testing::TestWithParam<int> {};

TEST_P(StripBoundProperty, StripCapsLiveState) {
  const auto strip = std::uint32_t(GetParam());
  Cluster cluster(2, sim::NetParams{});
  std::vector<GPtr<Obj>> objs;
  for (int i = 0; i < 400; ++i)
    objs.push_back(cluster.heap.make<Obj>(1, Obj{1.0}));

  std::vector<NodeWork> work(2);
  work[0].count = 400;
  work[0].item = [&objs](Ctx& ctx, std::uint64_t i) {
    // Two distinct remote objects per iteration.
    ctx.require(objs[std::size_t(i)], [](Ctx&, const Obj&) {});
    ctx.require(objs[(std::size_t(i) + 200) % 400], [](Ctx&, const Obj&) {});
  };
  PhaseRunner runner(cluster, RuntimeConfig::dpa(strip));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  // At most 2 distinct refs per iteration, scoped to one strip.
  EXPECT_LE(r.rt.max_m_entries, std::int64_t(strip) * 2);
  EXPECT_EQ(r.rt.strips, std::uint64_t((400 + strip - 1) / strip));
}

INSTANTIATE_TEST_SUITE_P(Strips, StripBoundProperty,
                         ::testing::Values(1, 3, 10, 50, 128, 400, 1000));

// ---------- accumulation equivalence sweep ----------

class AccumProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(AccumProperty, UpdatesAllArriveUnderEveryEngine) {
  const auto& [engine, seed_int] = GetParam();
  const auto seed = std::uint64_t(seed_int);
  Rng rng(seed);
  const std::uint32_t nodes = 2 + std::uint32_t(rng.next_below(6));
  Cluster cluster(nodes, random_net(seed));

  const std::size_t nobjs = 1 + rng.next_below(50);
  std::vector<GPtr<Obj>> objs;
  for (std::size_t i = 0; i < nobjs; ++i)
    objs.push_back(
        cluster.heap.make<Obj>(sim::NodeId(rng.next_below(nodes)), Obj{0}));

  // Every node sends updates to random objects; record the oracle.
  std::vector<double> expected(nobjs, 0.0);
  std::vector<std::vector<std::pair<std::size_t, double>>> sends(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const std::size_t count = rng.next_below(80);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t o = rng.next_below(nobjs);
      const double v = rng.uniform(-1, 1);
      sends[n].push_back({o, v});
      expected[o] += v;
    }
  }

  std::vector<NodeWork> work(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const auto& mine = sends[n];
    work[n].count = mine.size();
    work[n].item = [&objs, &mine](Ctx& ctx, std::uint64_t i) {
      const auto& [o, v] = mine[std::size_t(i)];
      ctx.accumulate(objs[o], [v = v](Obj& obj) { obj.val += v; });
    };
  }
  PhaseRunner runner(cluster, config_by_name(engine));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  for (std::size_t o = 0; o < nobjs; ++o)
    EXPECT_NEAR(objs[o].addr->val, expected[o], 1e-12) << "obj " << o;
  EXPECT_EQ(r.rt.accums_issued, r.rt.accums_applied);
}

INSTANTIATE_TEST_SUITE_P(
    Accum, AccumProperty,
    ::testing::Combine(::testing::Values("dpa", "dpa-pipe", "caching",
                                         "blocking"),
                       ::testing::Range(20, 26)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_seed" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace dpa::rt
