// ProcBackend unit + chaos coverage: the node->process partition, config
// clamping, a minimal cross-process phase driven straight through the
// PhaseRunner, and — the reason this binary exists — the peer-crash drill:
// a worker process dies mid-phase and the coordinator must turn that into
// a clean per-phase error (completed=false, diagnostics naming the dead
// worker, its pid and its nodes, flight-record JSON) instead of a hang, a
// SIGPIPE, or an abort.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/proc_backend.h"
#include "runtime/engine.h"
#include "runtime/phase.h"

namespace dpa {
namespace {

// Restores the process-wide default config on scope exit so chaos settings
// cannot leak into other tests in this binary.
class ScopedProcConfig {
 public:
  explicit ScopedProcConfig(const exec::ProcBackend::Config& cfg)
      : saved_(exec::ProcBackend::default_config()) {
    exec::ProcBackend::set_default_config(cfg);
  }
  ~ScopedProcConfig() { exec::ProcBackend::set_default_config(saved_); }

 private:
  exec::ProcBackend::Config saved_;
};

TEST(ProcBackend, PartitionsNodesByModularAffinity) {
  exec::ProcBackend::Config cfg;
  cfg.procs = 3;
  exec::ProcBackend backend(8, cfg);
  EXPECT_EQ(backend.num_procs(), 3u);
  for (std::uint32_t n = 0; n < 8; ++n)
    EXPECT_EQ(backend.owner_of(n), n % 3) << "node " << n;
}

TEST(ProcBackend, ClampsProcessCountToTheNodeCount) {
  exec::ProcBackend::Config cfg;
  cfg.procs = 64;
  exec::ProcBackend over(4, cfg);
  EXPECT_EQ(over.num_procs(), 4u);  // never more processes than nodes

  cfg.procs = 0;
  exec::ProcBackend under(4, cfg);
  EXPECT_EQ(under.num_procs(), 1u);  // and always at least one
}

// A four-node ring: node n owns one value and adds its successor's
// phase-start value to it. With procs=2 every dependency crosses a process
// boundary (owners alternate 0,1,0,1), so the phase exercises the full
// remote require/reply path plus the span-diff result merge.
struct RingVal {
  double v = 0;
};

rt::PhaseResult run_ring_phase(std::vector<double>* out,
                               exec::WireStatsTotal* wire = nullptr) {
  rt::Cluster cluster(4, exec::BackendKind::kProc);
  rt::PhaseRunner runner(cluster, rt::RuntimeConfig::dpa(32));

  std::vector<gas::GPtr<RingVal>> ptrs;
  for (std::uint32_t n = 0; n < 4; ++n)
    ptrs.push_back(cluster.heap.make<RingVal>(n, RingVal{double(n + 1)}));

  std::vector<rt::NodeWork> work(4);
  for (std::uint32_t n = 0; n < 4; ++n) {
    work[n].count = 1;
    work[n].item = [&ptrs, n](rt::Ctx& ctx, std::uint64_t) {
      RingVal* mine = gas::GlobalHeap::mutate(ptrs[n]);
      ctx.require(ptrs[(n + 1) % 4],
                  [mine](rt::Ctx&, const RingVal& dep) { mine->v += dep.v; });
    };
  }
  const rt::PhaseResult r = runner.run(std::move(work), "ring");
  if (wire != nullptr) *wire = cluster.exec().wire_stats_total();
  if (out != nullptr) {
    out->clear();
    for (const auto& p : ptrs) out->push_back(p.addr->v);
  }
  return r;
}

TEST(ProcBackend, CrossProcessRingPhaseComputesTheRightValues) {
  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  const ScopedProcConfig guard(cfg);
  std::vector<double> vals;
  const rt::PhaseResult r = run_ring_phase(&vals);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  // v[n] = (n+1) + successor's phase-start value (n+2, wrapping to 1).
  const std::vector<double> want = {1 + 2, 2 + 3, 3 + 4, 4 + 1};
  EXPECT_EQ(vals, want);
  EXPECT_GT(r.elapsed, 0);
  EXPECT_GT(r.sim_events, 0u);
}

TEST(ProcBackend, RingPhaseFramesCarryOnlyApplicationPayloads) {
  // Every ring dependency crosses the process boundary once each way: 4
  // requests and 4 replies. The socketpairs are lossless, so nothing else
  // rides the data links — no acks, no retransmissions — and every frame
  // sent is a frame received.
  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  const ScopedProcConfig guard(cfg);
  exec::WireStatsTotal wire;
  const rt::PhaseResult r = run_ring_phase(nullptr, &wire);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(wire.payloads_recv, 8u);
  EXPECT_EQ(wire.frames_recv, wire.frames_sent);
  EXPECT_GT(wire.frames_sent, 0u);
}

TEST(ProcBackend, WorkerDeathFailsThePhaseInsteadOfHanging) {
  const std::string dump = ::testing::TempDir() + "proc_crash_drill.json";
  std::remove(dump.c_str());

  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  cfg.kill_worker_for_test = 1;  // worker 1 self-terminates mid-phase...
  cfg.kill_after_pumps = 1;      // ...before it can report even once
  cfg.watchdog.phase_deadline = 30'000'000'000;  // backstop: fail, not hang
  cfg.watchdog.dump_path = dump;
  const ScopedProcConfig guard(cfg);

  const rt::PhaseResult r = run_ring_phase(nullptr);

  // The phase is a reported error, not a crash and not a hang: the test
  // reaching this line at all is the no-SIGPIPE/no-abort half of the claim.
  EXPECT_FALSE(r.completed);
  // Diagnostics name the dead process and the nodes it took down (worker 1
  // of 2 owns the odd nodes).
  EXPECT_NE(r.diagnostics.find("worker 1"), std::string::npos)
      << r.diagnostics;
  EXPECT_NE(r.diagnostics.find("pid"), std::string::npos) << r.diagnostics;
  EXPECT_NE(r.diagnostics.find("nodes 1 3"), std::string::npos)
      << r.diagnostics;
  EXPECT_NE(r.diagnostics.find("exited with status 42"), std::string::npos)
      << r.diagnostics;

  // And the flight record landed on disk, machine-readable.
  std::ifstream f(dump);
  ASSERT_TRUE(f.good()) << "no flight record at " << dump;
  std::stringstream body;
  body << f.rdbuf();
  const std::string record = body.str();
  EXPECT_NE(record.find("\"backend\": \"proc\""), std::string::npos);
  EXPECT_NE(record.find("\"dead_worker\": 1"), std::string::npos);
  EXPECT_NE(record.find("\"dead_nodes\": [1, 3]"), std::string::npos);
  std::remove(dump.c_str());
}

TEST(ProcBackend, RecoversCleanlyAfterAFailedPhase) {
  // A crash drill must not poison the process: the same test binary can
  // immediately run a fresh cluster (fork-per-phase means no long-lived
  // worker state survives the failure).
  {
    exec::ProcBackend::Config cfg;
    cfg.procs = 2;
    cfg.kill_worker_for_test = 0;
    cfg.watchdog.phase_deadline = 30'000'000'000;
    const ScopedProcConfig guard(cfg);
    EXPECT_FALSE(run_ring_phase(nullptr).completed);
  }
  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  const ScopedProcConfig guard(cfg);
  std::vector<double> vals;
  const rt::PhaseResult r = run_ring_phase(&vals);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(vals, (std::vector<double>{3, 5, 7, 5}));
}

}  // namespace
}  // namespace dpa
