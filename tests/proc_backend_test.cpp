// ProcBackend unit + chaos coverage: the node->process partition, config
// clamping, a minimal cross-process phase driven straight through the
// PhaseRunner, and — the reason this binary exists — the peer-crash drill:
// a worker process dies mid-phase and the coordinator must turn that into
// a clean per-phase error (completed=false, diagnostics naming the dead
// worker, its pid and its nodes, flight-record JSON) instead of a hang, a
// SIGPIPE, or an abort.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/native_backend.h"
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

// A four-node ring: node n owns one value and stores its sum with its
// successor's value. With procs=2 every dependency crosses a process
// boundary (owners alternate 0,1,0,1), so the phase exercises the full
// remote require/reply path plus the span-diff result merge. The sum has
// its own field: on the single-process backends a reply carries the live
// object, so a node that overwrote the value its predecessor reads would
// race with that read.
struct RingVal {
  double v = 0;
  double sum = 0;
};

// `doomed` >= 0 names a node whose seeded task ends its worker process
// with _exit(42), as a crash would (proc only: on the single-process
// backends it would end the test binary).
rt::PhaseResult run_ring_phase(
    std::vector<double>* out,
    exec::BackendKind kind = exec::BackendKind::kProc,
    std::int32_t doomed = -1) {
  rt::Cluster cluster(4, kind);
  rt::PhaseRunner runner(cluster, rt::RuntimeConfig::dpa(32));

  std::vector<gas::GPtr<RingVal>> ptrs;
  for (std::uint32_t n = 0; n < 4; ++n)
    ptrs.push_back(cluster.heap.make<RingVal>(n, RingVal{double(n + 1), 0}));

  std::vector<rt::NodeWork> work(4);
  for (std::uint32_t n = 0; n < 4; ++n) {
    work[n].count = 1;
    work[n].item = [&ptrs, n, doomed](rt::Ctx& ctx, std::uint64_t) {
      if (std::int32_t(n) == doomed) _exit(42);
      RingVal* mine = gas::GlobalHeap::mutate(ptrs[n]);
      ctx.require(ptrs[(n + 1) % 4], [mine](rt::Ctx&, const RingVal& dep) {
        mine->sum = mine->v + dep.v;
      });
    };
  }
  const rt::PhaseResult r = runner.run(std::move(work), "ring");
  if (out != nullptr) {
    out->clear();
    for (const auto& p : ptrs) out->push_back(p.addr->sum);
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
  // sum[n] = (n+1) + successor's value (n+2, wrapping to 1).
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
  const rt::PhaseResult r = run_ring_phase(nullptr);
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.wire.payloads_recv, 8u);
  EXPECT_EQ(r.wire.frames_recv, r.wire.frames_sent);
  EXPECT_GT(r.wire.frames_sent, 0u);
}

TEST(ProcBackend, RingPhaseCountsMessagesLikeTheOtherBackends) {
  // The same 8 ring messages (4 requests, 4 replies) on all three
  // backends: proc counts its cross-process messages in the simulator's
  // units (modeled bytes, one fragment each), so the records agree. The
  // socket's own frames are `wire`, which only proc has.
  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  const ScopedProcConfig guard(cfg);
  const rt::PhaseResult sim = run_ring_phase(nullptr, exec::BackendKind::kSim);
  const rt::PhaseResult native =
      run_ring_phase(nullptr, exec::BackendKind::kNative);
  const rt::PhaseResult proc = run_ring_phase(nullptr);
  for (const rt::PhaseResult* r : {&sim, &native, &proc})
    ASSERT_TRUE(r->completed) << r->diagnostics;

  const exec::MsgStats& want = sim.fm_total;
  EXPECT_EQ(want.msgs_sent, 8u);
  for (const rt::PhaseResult* r : {&native, &proc}) {
    const exec::MsgStats& got = r->fm_total;
    EXPECT_EQ(got.msgs_sent, want.msgs_sent);
    EXPECT_EQ(got.msgs_recv, want.msgs_recv);
    EXPECT_EQ(got.frags_sent, want.frags_sent);
    EXPECT_EQ(got.bytes_sent, want.bytes_sent);
    EXPECT_EQ(got.bytes_recv, want.bytes_recv);
  }
  const auto wire_total = [](const exec::WireStats& w) {
    return w.frames_sent + w.frames_recv + w.payloads_recv + w.bytes_sent;
  };
  EXPECT_EQ(wire_total(sim.wire), 0u);
  EXPECT_EQ(wire_total(native.wire), 0u);
  EXPECT_GT(proc.wire.frames_sent, 0u);
}

// Two value slots per node, read and written in alternate phases: phase k
// reads slot k%2 everywhere and writes only slot (k+1)%2, so every remote
// read sees phase-start state however the processes interleave.
struct PingPong {
  double slot[2] = {0, 0};
};

TEST(ProcBackend, BackToBackPhasesAllTerminate) {
  // Phase ends back to back: one cluster runs a 6-node ring phase after
  // phase, and every dependency crosses a process boundary at both process
  // counts, so each phase ends only once every process has counted its
  // deliveries into the shared task table. A count lost between processes
  // would leave some worker waiting for a balance that never comes, and
  // the phase deadline turns that into a failed phase with a diagnosis
  // instead of a hang. One inner thread per worker process keeps the 400
  // forks light next to concurrently running tests.
  constexpr std::uint32_t kNodes = 6;
  constexpr int kPhases = 200;
  exec::NativeBackend::Tuning one_thread;
  one_thread.workers = 1;
  const exec::ScopedDefaultTuning inner_pool(one_thread);
  for (const std::uint32_t procs : {2u, 3u}) {
    exec::ProcBackend::Config cfg;
    cfg.procs = procs;
    cfg.watchdog.phase_deadline = 30'000'000'000;
    const ScopedProcConfig guard(cfg);
    rt::Cluster cluster(kNodes, exec::BackendKind::kProc);
    rt::PhaseRunner runner(cluster, rt::RuntimeConfig::dpa(32));

    std::vector<gas::GPtr<PingPong>> ptrs;
    std::vector<double> want(kNodes);
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      want[n] = double(n + 1);
      ptrs.push_back(cluster.heap.make<PingPong>(n, PingPong{{want[n], 0}}));
    }
    for (int k = 0; k < kPhases; ++k) {
      const int cur = k % 2;
      const int next = 1 - cur;
      std::vector<rt::NodeWork> work(kNodes);
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        work[n].count = 1;
        work[n].item = [&ptrs, n, cur, next](rt::Ctx& ctx, std::uint64_t) {
          PingPong* mine = gas::GlobalHeap::mutate(ptrs[n]);
          ctx.require(ptrs[(n + 1) % kNodes],
                      [mine, cur, next](rt::Ctx&, const PingPong& dep) {
                        mine->slot[next] = dep.slot[cur] + 1;
                      });
        };
      }
      const rt::PhaseResult r = runner.run(std::move(work), "ring");
      ASSERT_TRUE(r.completed)
          << "procs=" << procs << " phase " << k << ": " << r.diagnostics;

      std::vector<double> ref(kNodes);
      for (std::uint32_t n = 0; n < kNodes; ++n)
        ref[n] = want[(n + 1) % kNodes] + 1;
      want = ref;
      for (std::uint32_t n = 0; n < kNodes; ++n)
        ASSERT_EQ(ptrs[n].addr->slot[next], want[n])
            << "procs=" << procs << " phase " << k << " node " << n;
    }
  }
}

TEST(ProcBackend, PeerMessageIsServedWhileTheBusyNodeComputes) {
  // Node 0 (worker 0) runs a self-posted chain of up to kChain tasks that
  // stops early once a message from node 1 (worker 1) has been served. A
  // worker that read its links only after its nodes ran dry would serve
  // the message after the whole chain. A live pool posts it into node 0's
  // mailbox as it arrives, and node 0 yields to its mailbox between
  // chain tasks, so the handler runs mid-chain. The chain is long enough
  // (seconds) that only a peer stalled that long could make it finish
  // first; the check counts tasks, not time.
  constexpr std::uint64_t kChain = 20'000'000;
  struct Result {
    std::uint64_t chain = 0;      // chain tasks run
    std::uint64_t served_at = 0;  // chain tasks run before the handler
    std::uint64_t served = 0;
  };
  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  exec::ProcBackend backend(2, cfg);
  Result res;
  const exec::ScopedPhaseSpan span(backend,
                                   exec::PhaseSpan{&res, sizeof(res)});
  exec::WireCodec empty;
  empty.marshal = [](const void*, std::uint32_t) {
    return std::vector<std::uint8_t>();
  };
  empty.unmarshal = [](const std::uint8_t*, std::size_t) {
    return std::shared_ptr<void>();
  };
  Result* r = &res;
  const exec::HandlerId ping = backend.register_handler(
      "ping",
      [r](exec::Cpu&, const exec::Packet&) {
        r->served_at = r->chain;
        r->served = 1;
      },
      empty);
  struct Chain {
    exec::Backend* b;
    Result* r;
    void operator()(exec::Cpu&) const {
      ++r->chain;
      if (r->served == 0 && r->chain < kChain) b->post(0, *this);
    }
  };
  exec::Backend* b = &backend;
  backend.begin_phase();
  backend.post(0, Chain{b, r});
  backend.post(1, [b, ping](exec::Cpu& cpu) {
    b->send(cpu, 1, 0, ping, nullptr, 16);
  });
  const exec::PhaseExec pe = backend.run_phase();
  ASSERT_TRUE(pe.diagnostics.empty()) << pe.diagnostics;
  EXPECT_EQ(res.served, 1u);
  EXPECT_LT(res.served_at, kChain)
      << "the message waited for node 0's whole chain";
  // The chain task already queued when the message arrived runs once
  // more, sees it served, and ends the chain.
  EXPECT_EQ(res.chain, res.served_at + 1);
  EXPECT_EQ(pe.msgs.msgs_sent, 1u);
  EXPECT_EQ(pe.msgs.msgs_recv, 1u);
}

TEST(ProcBackend, SpanMergeShipsExactlyTheChangedBytes) {
  // Byte spans written by both workers inside every 8-byte word: the
  // workers' diffs interleave byte by byte, so a record that carried one
  // unchanged neighbour byte would clobber the other worker's write. The
  // lengths (3, 67, 256) leave tails shorter than a word; one span moves
  // ownership in 3-byte chunks, so runs straddle word boundaries; every
  // third word is left alone, and some bytes are rewritten with their old
  // value (unchanged, so not shipped).
  constexpr std::uint32_t kNodes = 4;  // procs=2: nodes 0,2 vs 1,3
  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  const ScopedProcConfig guard(cfg);
  rt::Cluster cluster(kNodes, exec::BackendKind::kProc);
  rt::PhaseRunner runner(cluster, rt::RuntimeConfig::dpa(32));

  struct Case {
    std::vector<std::uint8_t> bytes;
    std::uint32_t chunk;  // consecutive bytes one node owns
  };
  std::vector<Case> cases = {{std::vector<std::uint8_t>(3), 1},
                             {std::vector<std::uint8_t>(67), 1},
                             {std::vector<std::uint8_t>(256), 3}};
  auto owner = [](const Case& c, std::size_t i) {
    return std::uint32_t(i / c.chunk % kNodes);
  };
  // Outside the untouched words the owner writes every byte it owns:
  // bytes i % 7 == 3 with their old value, the rest flipped.
  auto untouched = [](std::size_t i) { return i / 8 % 3 == 2; };
  auto written = [](std::size_t i, std::uint8_t old) {
    return i % 7 == 3 ? old : std::uint8_t(old ^ 0xA5);
  };

  std::vector<std::vector<std::uint8_t>> want;
  std::vector<std::unique_ptr<exec::ScopedPhaseSpan>> spans;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    auto& b = cases[c].bytes;
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = std::uint8_t(i * 37 + 11 * c + 1);
    std::vector<std::uint8_t> ref = b;
    for (std::size_t i = 0; i < b.size(); ++i)
      if (!untouched(i)) ref[i] = written(i, b[i]);
    want.push_back(std::move(ref));
    spans.push_back(std::make_unique<exec::ScopedPhaseSpan>(
        cluster.exec(),
        exec::PhaseSpan{b.data(), b.size(), exec::SpanMerge::kBytes}));
  }

  std::vector<rt::NodeWork> work(kNodes);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    work[n].count = 1;
    work[n].item = [&cases, owner, untouched, written, n](rt::Ctx&,
                                                          std::uint64_t) {
      for (Case& c : cases)
        for (std::size_t i = 0; i < c.bytes.size(); ++i)
          if (owner(c, i) == n && !untouched(i))
            c.bytes[i] = written(i, c.bytes[i]);
    };
  }
  const rt::PhaseResult r = runner.run(std::move(work), "span-merge");
  ASSERT_TRUE(r.completed) << r.diagnostics;
  for (std::size_t c = 0; c < cases.size(); ++c)
    EXPECT_EQ(cases[c].bytes, want[c]) << "span of " << want[c].size();
}

TEST(ProcBackend, WorkerDeathFailsThePhaseInsteadOfHanging) {
  // Named per process: copies of this binary running at once must not
  // remove each other's record.
  const std::string dump = ::testing::TempDir() + "proc_crash_drill." +
                           std::to_string(getpid()) + ".json";
  std::remove(dump.c_str());

  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  cfg.watchdog.phase_deadline = 30'000'000'000;  // backstop: fail, not hang
  cfg.watchdog.dump_path = dump;
  const ScopedProcConfig guard(cfg);

  // Node 1's seeded task kills worker 1 mid-phase. Its pool cannot go idle
  // while that task is outstanding, so the worker dies before it can
  // report even once.
  const rt::PhaseResult r =
      run_ring_phase(nullptr, exec::BackendKind::kProc, /*doomed=*/1);

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

TEST(ProcBackend, CrossProcessPostFailsThePhaseInsteadOfHanging) {
  // Between nodes, tasks send. Node 0's task (worker 0) posting to node 1
  // (worker 1) fails the post check in worker 0's pool, and the
  // coordinator reports that worker's death. A post that no train carries
  // across would instead leave the phase waiting on a task no process can
  // run: the coordinator's deadline ends that with a diagnosis that names
  // no worker, and the pools' own watchdog sweeps, an hour apart, never
  // fire first.
  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  cfg.watchdog.phase_deadline = 5'000'000'000;
  cfg.watchdog.scan_interval = 3'600'000'000'000;
  exec::ProcBackend backend(2, cfg);
  exec::Backend* b = &backend;
  backend.begin_phase();
  backend.post(0, [b](exec::Cpu&) { b->post(1, [](exec::Cpu&) {}); });
  const exec::PhaseExec pe = backend.run_phase();
  EXPECT_NE(pe.diagnostics.find("worker 0 (pid"), std::string::npos)
      << pe.diagnostics;
  EXPECT_NE(pe.diagnostics.find("killed by signal"), std::string::npos)
      << pe.diagnostics;
}

TEST(ProcBackend, WedgedWorkerIsTheOneItsPoolReports) {
  // Every worker's pool watches the one table all processes count into,
  // so while node 1's task never returns, the table stops moving for
  // worker 0's pool too. Only the pool whose node is wedged may report it:
  // worker 0 has no node busy and must read as healthy, or a race
  // between the two pools would name the wrong worker. The coordinator's
  // deadline is only the backstop; the pools' stuck sweeps fire first.
  const std::string dump = ::testing::TempDir() + "proc_wedge." +
                           std::to_string(getpid()) + ".json";
  const std::string w0 = dump + ".w0";
  const std::string w1 = dump + ".w1";
  for (const std::string& f : {dump, w0, w1}) std::remove(f.c_str());

  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  cfg.watchdog.phase_deadline = 30'000'000'000;
  cfg.watchdog.stuck_scans = 3;
  cfg.watchdog.scan_interval = 20'000'000;  // 20 ms
  cfg.watchdog.dump_path = dump;
  exec::ProcBackend backend(2, cfg);
  backend.begin_phase();
  backend.post(0, [](exec::Cpu&) {});
  backend.post(1, [](exec::Cpu&) {
    for (;;) pause();  // ends only with its process
  });
  const exec::PhaseExec pe = backend.run_phase();

  EXPECT_NE(pe.diagnostics.find("worker 1 (pid"), std::string::npos)
      << pe.diagnostics;
  EXPECT_TRUE(std::ifstream(w1).good()) << "no flight record at " << w1;
  EXPECT_FALSE(std::ifstream(w0).good()) << "worker 0's idle pool fired";
  for (const std::string& f : {dump, w0, w1}) std::remove(f.c_str());
}

TEST(ProcBackend, SameBackendRunsAPhaseAfterAFailedOne) {
  // A worker that dies mid-phase leaves its seed counted and never
  // finished in the task table the backend keeps across phases. The next
  // phase on the same backend must start from a clean table, or it would
  // wait for that task until the deadline.
  exec::ProcBackend::Config cfg;
  cfg.procs = 2;
  cfg.watchdog.phase_deadline = 5'000'000'000;
  exec::ProcBackend backend(2, cfg);
  backend.begin_phase();
  backend.post(0, [](exec::Cpu&) { _exit(42); });
  EXPECT_FALSE(backend.run_phase().diagnostics.empty());

  int ran[2] = {0, 0};
  const exec::ScopedPhaseSpan span(backend,
                                   exec::PhaseSpan{ran, sizeof(ran)});
  backend.begin_phase();
  for (exec::NodeId n = 0; n < 2; ++n)
    backend.post(n, [&ran, n](exec::Cpu&) { ran[n] = 1; });
  const exec::PhaseExec pe = backend.run_phase();
  EXPECT_TRUE(pe.diagnostics.empty()) << pe.diagnostics;
  EXPECT_EQ(ran[0], 1);
  EXPECT_EQ(ran[1], 1);
}

TEST(ProcBackend, RecoversCleanlyAfterAFailedPhase) {
  // A crash drill must not poison the process: the same test binary can
  // immediately run a fresh cluster (fork-per-phase means no long-lived
  // worker state survives the failure).
  {
    exec::ProcBackend::Config cfg;
    cfg.procs = 2;
    cfg.watchdog.phase_deadline = 30'000'000'000;
    const ScopedProcConfig guard(cfg);
    // Node 0's seeded task kills worker 0.
    EXPECT_FALSE(
        run_ring_phase(nullptr, exec::BackendKind::kProc, /*doomed=*/0)
            .completed);
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
