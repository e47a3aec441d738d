// Parameterized application-level sweeps: the physics must be independent
// of every scheduling knob, and the accuracy/performance trends must hold
// across the parameter ranges the paper exercises.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "apps/barnes/app.h"
#include "apps/em3d/em3d.h"
#include "apps/fmm/app.h"

namespace dpa::apps {
namespace {

sim::NetParams t3d() { return sim::NetParams{}; }

// ---------- Barnes-Hut: theta x nodes sweep ----------

class BarnesSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(BarnesSweep, ParallelAgreesWithOracle) {
  const auto& [theta, nodes] = GetParam();
  barnes::BarnesConfig cfg;
  cfg.nbodies = 192;
  cfg.theta = theta;
  cfg.seed = 41;
  barnes::BarnesApp app(cfg);
  const auto seq = app.run_sequential();
  const auto par = app.run(std::uint32_t(nodes), t3d(),
                           rt::RuntimeConfig::dpa(16));
  ASSERT_TRUE(par.all_completed());
  EXPECT_EQ(par.steps[0].interactions, seq[0].counts.interactions);
  EXPECT_EQ(par.steps[0].opens, seq[0].counts.opens);
  for (std::size_t i = 0; i < 192; i += 13) {
    const double scale = std::max(1.0, seq[0].acc[i].norm());
    EXPECT_NEAR(seq[0].acc[i].x, par.final_bodies[i].acc.x, 1e-9 * scale);
    EXPECT_NEAR(seq[0].acc[i].y, par.final_bodies[i].acc.y, 1e-9 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThetaNodes, BarnesSweep,
    ::testing::Combine(::testing::Values(0.5, 0.8, 1.0, 1.3),
                       ::testing::Values(1, 3, 8)),
    [](const auto& info) {
      return "theta" +
             std::to_string(int(std::get<0>(info.param) * 10)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// Barnes-Hut accuracy: the tree code approaches the direct sum as theta
// shrinks.
TEST(BarnesAccuracy, TreeCodeConvergesToDirectSum) {
  barnes::BarnesConfig direct_cfg;
  direct_cfg.nbodies = 128;
  direct_cfg.theta = 1e-9;  // opens everything: effectively direct
  direct_cfg.seed = 43;
  const auto direct = barnes::BarnesApp(direct_cfg).run_sequential();

  double prev_err = 1e100;
  for (const double theta : {1.2, 0.8, 0.4}) {
    barnes::BarnesConfig cfg = direct_cfg;
    cfg.theta = theta;
    const auto approx = barnes::BarnesApp(cfg).run_sequential();
    double err = 0;
    for (std::size_t i = 0; i < 128; ++i) {
      err += (approx[0].acc[i] - direct[0].acc[i]).norm() /
             std::max(1e-12, direct[0].acc[i].norm());
    }
    EXPECT_LT(err, prev_err) << "theta " << theta;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 0.05 * 128);  // mean error under 5% at theta=0.4
}

// ---------- FMM: terms x ws_ratio sweep ----------

class FmmSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(FmmSweep, ErrorWithinTruncationBound) {
  const auto& [terms, ws_ratio] = GetParam();
  fmm::FmmConfig cfg;
  cfg.nparticles = 400;
  cfg.terms = std::uint32_t(terms);
  cfg.ws_ratio = ws_ratio;
  cfg.seed = 44;
  fmm::FmmApp app(cfg);
  const auto seq = app.run_sequential();
  const auto direct = fmm::direct_forces(app.initial_particles());

  // Convergence ratio for the dual-tree criterion: sqrt(2)*s / (ws*s - ...)
  // — conservatively, rho = sqrt(2) / (ws_ratio - sqrt(2)).
  const double rho = std::sqrt(2.0) / (ws_ratio - std::sqrt(2.0));
  const double bound = 50.0 * std::pow(rho, terms + 1);
  double worst = 0;
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const double scale = std::max(1e-12, std::abs(direct[i]));
    worst = std::max(worst, std::abs(seq.forces[i] - direct[i]) / scale);
  }
  EXPECT_LT(worst, std::max(bound, 1e-12)) << "p=" << terms
                                           << " ws=" << ws_ratio;
}

INSTANTIATE_TEST_SUITE_P(
    TermsWs, FmmSweep,
    ::testing::Combine(::testing::Values(8, 16, 24),
                       ::testing::Values(4.0, 5.0, 6.0)),
    [](const auto& info) {
      std::string name = "p";
      name += std::to_string(std::get<0>(info.param));
      name += "_ws";
      name += std::to_string(int(std::get<1>(info.param)));
      return name;
    });

// ---------- FMM: engine sweep keeps counts identical ----------

class FmmEngineSweep : public ::testing::TestWithParam<int> {};

TEST_P(FmmEngineSweep, StripSizeNeverChangesTheAnswer) {
  const auto strip = std::uint32_t(GetParam());
  fmm::FmmConfig cfg;
  cfg.nparticles = 300;
  cfg.terms = 8;
  cfg.seed = 45;
  fmm::FmmApp app(cfg);
  const auto seq = app.run_sequential();
  const auto par = app.run(4, t3d(), rt::RuntimeConfig::dpa(strip));
  ASSERT_TRUE(par.all_completed());
  EXPECT_EQ(par.steps[0].m2l, seq.m2l);
  EXPECT_EQ(par.steps[0].p2p_pairs, seq.p2p_pairs);
  for (std::size_t i = 0; i < seq.forces.size(); i += 41) {
    EXPECT_LT(std::abs(par.final_particles[i].force - seq.forces[i]),
              1e-9 * (1 + std::abs(seq.forces[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Strips, FmmEngineSweep,
                         ::testing::Values(1, 10, 50, 300, 5000));

// ---------- em3d: remote fraction x engine sweep ----------

class Em3dSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(Em3dSweep, ValuesMatchHostReference) {
  const auto& [remote, nodes] = GetParam();
  em3d::Em3dConfig cfg;
  cfg.e_per_node = 48;
  cfg.h_per_node = 48;
  cfg.degree = 5;
  cfg.remote_prob = remote;
  cfg.iters = 2;
  cfg.seed = 46;
  em3d::Em3dApp app(cfg, std::uint32_t(nodes));
  const auto seq = app.run_sequential();
  const auto par = app.run(t3d(), rt::RuntimeConfig::dpa(32));
  ASSERT_TRUE(par.all_completed());
  for (std::size_t i = 0; i < seq.e_values.size(); ++i)
    EXPECT_NEAR(par.e_values[i], seq.e_values[i], 1e-12);
  for (std::size_t i = 0; i < seq.h_values.size(); ++i)
    EXPECT_NEAR(par.h_values[i], seq.h_values[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    RemoteNodes, Em3dSweep,
    ::testing::Combine(::testing::Values(0.0, 0.25, 0.9),
                       ::testing::Values(2, 5, 8)),
    [](const auto& info) {
      return "remote" +
             std::to_string(int(std::get<0>(info.param) * 100)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// ---------- degenerate sizes ----------

TEST(Edge, SingleBodyBarnesHutHasZeroForce) {
  barnes::BarnesConfig cfg;
  cfg.nbodies = 1;
  barnes::BarnesApp app(cfg);
  const auto run = app.run(2, t3d(), rt::RuntimeConfig::dpa(8));
  ASSERT_TRUE(run.all_completed());
  EXPECT_DOUBLE_EQ(run.final_bodies[0].acc.norm(), 0.0);
  EXPECT_EQ(run.steps[0].interactions, 0u);
}

TEST(Edge, SingleParticleFmmHasZeroForce) {
  fmm::FmmConfig cfg;
  cfg.nparticles = 1;
  cfg.terms = 4;
  fmm::FmmApp app(cfg);
  const auto run = app.run(2, t3d(), rt::RuntimeConfig::dpa(8));
  ASSERT_TRUE(run.all_completed());
  EXPECT_DOUBLE_EQ(std::abs(run.final_particles[0].force), 0.0);
}

TEST(Edge, TwoBodyBarnesHutMatchesNewton) {
  barnes::BarnesConfig cfg;
  cfg.nbodies = 2;
  cfg.eps = 0.0;
  barnes::BarnesApp app(cfg);
  const auto seq = app.run_sequential();
  const auto& bodies = app.initial_bodies();
  const Vec3 d = bodies[1].pos - bodies[0].pos;
  const double r3 = std::pow(d.norm(), 3);
  EXPECT_NEAR(seq[0].acc[0].x, bodies[1].mass * d.x / r3, 1e-12);
  EXPECT_NEAR(seq[0].acc[1].x, -bodies[0].mass * d.x / r3, 1e-12);
}

// ---------- cross-app performance trends ----------

TEST(Trend, AggregationFactorGrowsWithStrip) {
  barnes::BarnesConfig cfg;
  cfg.nbodies = 1024;
  barnes::BarnesApp app(cfg);
  double prev = 0;
  for (const std::uint32_t strip : {5u, 50u, 500u}) {
    const auto run = app.run(8, t3d(), rt::RuntimeConfig::dpa(strip));
    ASSERT_TRUE(run.all_completed());
    const double agg = run.steps[0].phase.rt.aggregation_factor();
    EXPECT_GE(agg, prev * 0.95) << "strip " << strip;  // non-decreasing-ish
    prev = agg;
  }
  EXPECT_GT(prev, 2.0);
}

TEST(Trend, CostzonesLearnFromMeasuredWork) {
  // Step 1 partitions on uniform weights; step 2 on measured interaction
  // counts. The second step must be better balanced (less idle time).
  barnes::BarnesConfig cfg;
  cfg.nbodies = 2048;
  cfg.nsteps = 2;
  barnes::BarnesApp app(cfg);
  const auto run = app.run(8, t3d(), rt::RuntimeConfig::dpa(50));
  ASSERT_TRUE(run.all_completed());
  const double idle1 = run.steps[0].phase.mean_idle_s() /
                       run.steps[0].phase.seconds();
  const double idle2 = run.steps[1].phase.mean_idle_s() /
                       run.steps[1].phase.seconds();
  EXPECT_LT(idle2, idle1);
}

TEST(Trend, FmmWireBytesScaleWithTerms) {
  // require_bytes models the truncated expansion: more terms, more bytes
  // per fetched cell on the wire.
  auto bytes_with = [](std::uint32_t terms) {
    fmm::FmmConfig cfg;
    cfg.nparticles = 1500;
    cfg.terms = terms;
    cfg.seed = 48;
    fmm::FmmApp app(cfg);
    const auto run = app.run(8, t3d(), rt::RuntimeConfig::dpa(100));
    EXPECT_TRUE(run.all_completed());
    const auto& p = run.steps[0].phase;
    return double(p.fm_total.bytes_sent) /
           double(std::max<std::uint64_t>(1, p.rt.refs_requested));
  };
  const double small = bytes_with(6);
  const double large = bytes_with(24);
  EXPECT_GT(large, small + 17 * 16 * 0.8);  // ~18 extra coefficients
}

TEST(Trend, PollBatchNeverChangesPhysics) {
  barnes::BarnesConfig cfg;
  cfg.nbodies = 512;
  barnes::BarnesApp app(cfg);
  const auto seq = app.run_sequential();
  for (const std::uint32_t batch : {1u, 4u, 256u}) {
    auto rcfg = rt::RuntimeConfig::dpa(50);
    rcfg.poll_batch = batch;
    const auto run = app.run(4, t3d(), rcfg);
    ASSERT_TRUE(run.all_completed()) << "poll_batch " << batch;
    EXPECT_EQ(run.steps[0].interactions, seq[0].counts.interactions)
        << "poll_batch " << batch;
  }
}

TEST(Trend, PrefetchLandsBetweenCachingAndDpaOnBarnes) {
  barnes::BarnesConfig cfg;
  cfg.nbodies = 2048;
  barnes::BarnesApp app(cfg);
  const double dpa =
      app.run(16, t3d(), rt::RuntimeConfig::dpa(50)).total_parallel_seconds();
  const double prefetch =
      app.run(16, t3d(), rt::RuntimeConfig::prefetching(8))
          .total_parallel_seconds();
  const double blocking =
      app.run(16, t3d(), rt::RuntimeConfig::blocking())
          .total_parallel_seconds();
  EXPECT_LT(dpa, prefetch);
  EXPECT_LT(prefetch, blocking);
}

TEST(Trend, TorusSlowsThingsDownButPreservesPhysics) {
  barnes::BarnesConfig cfg;
  cfg.nbodies = 512;
  barnes::BarnesApp app(cfg);
  auto net = t3d();
  const auto flat = app.run(8, net, rt::RuntimeConfig::dpa(50));
  net.topology = sim::Topology::kTorus3d;
  net.per_hop = 2000;
  const auto torus = app.run(8, net, rt::RuntimeConfig::dpa(50));
  ASSERT_TRUE(flat.all_completed() && torus.all_completed());
  EXPECT_GT(torus.total_parallel_seconds(), flat.total_parallel_seconds());
  EXPECT_EQ(torus.steps[0].interactions, flat.steps[0].interactions);
}

}  // namespace
}  // namespace dpa::apps
