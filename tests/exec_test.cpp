// Native execution backend tests: the sense-reversing barrier, the raw
// Backend contract (mailboxes, quiescence, stats, charge attribution), and
// whole engine phases running on real threads. This binary is the target of
// the ThreadSanitizer CI job: everything here exercises genuine cross-thread
// message passing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/em3d/em3d.h"
#include "apps/olden/perimeter.h"
#include "apps/olden/power.h"
#include "apps/olden/treeadd.h"
#include "exec/backend.h"
#include "exec/native_backend.h"
#include "obs/session.h"
#include "obs/shard_sink.h"
#include "runtime/config.h"
#include "runtime/engine.h"
#include "runtime/phase.h"
#include "sim/network.h"
#include "support/json.h"

namespace dpa {
namespace {

// A watchdog scan interval no test outlives: its monitor thread never
// sweeps, so the test places every sweep (watchdog_sweep_for_test()).
constexpr exec::Time kTestDrivenSweeps = 3'600'000'000'000;  // 1 h

TEST(SenseBarrier, RoundsDoNotInterleave) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kRounds = 200;
  exec::SenseBarrier barrier(kThreads);
  std::atomic<int> arrived{0};

  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      bool sense = true;
      for (int r = 0; r < kRounds; ++r) {
        arrived.fetch_add(1, std::memory_order_relaxed);
        barrier.arrive_and_wait(&sense);
        // Every participant of round r has arrived before any leaves.
        if (arrived.load(std::memory_order_relaxed) < (r + 1) * int(kThreads))
          ok.store(false, std::memory_order_relaxed);
        barrier.arrive_and_wait(&sense);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(arrived.load(), kRounds * int(kThreads));
}

TEST(NativeBackend, FactoryAndKind) {
  auto native =
      exec::make_backend(exec::BackendKind::kNative, 3, sim::NetParams{});
  EXPECT_EQ(native->kind(), exec::BackendKind::kNative);
  EXPECT_FALSE(native->is_sim());
  EXPECT_EQ(native->num_nodes(), 3u);
  EXPECT_EQ(native->sim_machine(), nullptr);

  auto sim = exec::make_backend(exec::BackendKind::kSim, 3, sim::NetParams{});
  EXPECT_TRUE(sim->is_sim());
  EXPECT_NE(sim->sim_machine(), nullptr);
}

TEST(NativeBackend, MessagesCrossThreadsAndStatsAdd) {
  constexpr std::uint32_t kNodes = 4;
  auto backend =
      exec::make_backend(exec::BackendKind::kNative, kNodes, sim::NetParams{});

  struct Payload {
    std::uint32_t from;
  };
  std::vector<std::atomic<std::uint32_t>> got(kNodes);
  for (auto& g : got) g.store(0);
  auto* pgot = got.data();
  const exec::HandlerId h = backend->register_handler(
      "test.ring", [pgot](exec::Cpu& cpu, const exec::Packet& pkt) {
        auto* p = static_cast<Payload*>(pkt.data.get());
        pgot[pkt.dst].fetch_add(p->from + 1, std::memory_order_relaxed);
        cpu.charge(100, exec::Work::kComm);
      });

  backend->begin_phase();
  auto* b = backend.get();
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    backend->post(n, [b, n, h](exec::Cpu& cpu) {
      cpu.charge(1000, exec::Work::kCompute);
      const exec::NodeId dst = (n + 1) % kNodes;
      b->send(cpu, n, dst, h, std::make_shared<Payload>(Payload{n}), 64);
    });
  }
  const exec::PhaseExec pe = backend->run_phase();

  // Each node ran its seed task plus one delivery.
  EXPECT_EQ(pe.events, 2 * std::uint64_t(kNodes));
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    const std::uint32_t src = (n + kNodes - 1) % kNodes;
    EXPECT_EQ(got[n].load(), src + 1) << "node " << n;
    const exec::NodeStats& st = backend->node_stats(n);
    EXPECT_EQ(st.tasks_run, 2u);
    // Modeled charge attribution survives on the native backend.
    EXPECT_EQ(st.busy[int(exec::Work::kCompute)], 1000);
    EXPECT_EQ(st.busy[int(exec::Work::kComm)], 100);
    EXPECT_GT(st.busy_total, 0);  // real nanoseconds
  }
  EXPECT_EQ(pe.msgs.msgs_sent, std::uint64_t(kNodes));
  EXPECT_EQ(pe.msgs.msgs_recv, std::uint64_t(kNodes));
  EXPECT_EQ(pe.msgs.bytes_sent, 64u * kNodes);
  EXPECT_EQ(pe.elapsed, backend->begin_phase());  // clock advanced by phase
}

TEST(NativeBackend, QuiescenceWaitsForRecursiveFanout) {
  // A task tree: every task posts two children to other nodes until a depth
  // budget runs out. run_phase must only return once all 2^d - 1 ran.
  constexpr std::uint32_t kNodes = 4;
  constexpr int kDepth = 9;
  auto backend =
      exec::make_backend(exec::BackendKind::kNative, kNodes, sim::NetParams{});
  std::atomic<std::uint64_t> ran{0};

  struct Spawner {
    exec::Backend* b;
    std::atomic<std::uint64_t>* ran;
    void operator()(int depth, std::uint32_t node) const {
      ran->fetch_add(1, std::memory_order_relaxed);
      if (depth == 0) return;
      const Spawner self = *this;
      for (int c = 0; c < 2; ++c) {
        const std::uint32_t next = (node + 1 + std::uint32_t(c)) % kNodes;
        b->post(next, [self, depth, next](exec::Cpu&) {
          self(depth - 1, next);
        });
      }
    }
  };
  Spawner spawner{backend.get(), &ran};

  backend->begin_phase();
  backend->post(0, [spawner](exec::Cpu&) { spawner(kDepth, 0); });
  const exec::PhaseExec pe = backend->run_phase();
  EXPECT_EQ(ran.load(), (1u << (kDepth + 1)) - 1);
  EXPECT_EQ(pe.events, (1u << (kDepth + 1)) - 1);

  // The backend is immediately reusable for another phase.
  backend->begin_phase();
  backend->post(2, [spawner](exec::Cpu&) { spawner(3, 2); });
  backend->run_phase();
  EXPECT_EQ(ran.load(), ((1u << (kDepth + 1)) - 1) + 15);
}

TEST(NativeBackend, TrainsPreservePerDestinationFifo) {
  // One sender floods one destination. Deliveries must arrive in send
  // order (trains splice whole batches, preserving per-(src,dst) FIFO),
  // and the mailbox handoff count must show batching: far fewer trains
  // than messages.
  constexpr int kMsgs = 100;
  exec::NativeBackend::Tuning tuning;
  tuning.train_max = 16;
  auto backend = std::make_unique<exec::NativeBackend>(2, tuning);

  std::vector<std::uint32_t> order;  // node 1 only; read post-phase
  auto* porder = &order;
  const exec::HandlerId h = backend->register_handler(
      "test.seq", [porder](exec::Cpu&, const exec::Packet& pkt) {
        porder->push_back(*static_cast<std::uint32_t*>(pkt.data.get()));
      });

  backend->begin_phase();
  auto* b = backend.get();
  backend->post(0, [b, h](exec::Cpu& cpu) {
    for (std::uint32_t i = 0; i < kMsgs; ++i)
      b->send(cpu, 0, 1, h, std::make_shared<std::uint32_t>(i), 8);
  });
  const exec::MsgStats total = backend->run_phase().msgs;

  ASSERT_EQ(order.size(), std::size_t(kMsgs));
  for (std::uint32_t i = 0; i < kMsgs; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(total.msgs_sent, std::uint64_t(kMsgs));
  // 100 messages at train_max=16: six full trains mid-task plus the dry
  // flush of the remainder — never one lock per message.
  EXPECT_GE(total.trains_sent, std::uint64_t(kMsgs) / tuning.train_max);
  EXPECT_LE(total.trains_sent, std::uint64_t(kMsgs) / tuning.train_max + 1);
}

TEST(NativeBackend, FlushHookDrainsTrainsOnDemand) {
  // With train_max larger than the whole workload nothing departs until
  // either the flush hook or the sender running dry. Calling flush() after
  // every send turns each message into its own train — deterministic proof
  // the hook reaches the fabric.
  constexpr int kMsgs = 5;
  exec::NativeBackend::Tuning tuning;
  tuning.train_max = 1000;
  auto backend = std::make_unique<exec::NativeBackend>(2, tuning);

  std::atomic<int> got{0};
  auto* pgot = &got;
  const exec::HandlerId h = backend->register_handler(
      "test.flush", [pgot](exec::Cpu&, const exec::Packet&) {
        pgot->fetch_add(1, std::memory_order_relaxed);
      });

  backend->begin_phase();
  auto* b = backend.get();
  backend->post(0, [b, h](exec::Cpu& cpu) {
    for (int i = 0; i < kMsgs; ++i) {
      b->send(cpu, 0, 1, h, std::make_shared<int>(i), 8);
      b->flush(cpu, 0);
    }
  });
  const exec::PhaseExec flushed = backend->run_phase();

  EXPECT_EQ(got.load(), kMsgs);
  EXPECT_EQ(flushed.msgs.trains_sent, std::uint64_t(kMsgs));

  // A second phase without explicit flushes: the dry-flush backstop moves
  // everything in one train.
  backend->begin_phase();
  backend->post(0, [b, h](exec::Cpu& cpu) {
    for (int i = 0; i < kMsgs; ++i)
      b->send(cpu, 0, 1, h, std::make_shared<int>(i), 8);
  });
  const exec::PhaseExec dry = backend->run_phase();
  EXPECT_EQ(got.load(), 2 * kMsgs);
  EXPECT_EQ(dry.msgs.trains_sent, 1u);
}

TEST(NativeBackend, OversubscribedNodesParkAndStillQuiesce) {
  // 64 nodes multiplexed onto a 4-worker pool on however few cores the
  // runner has: the idle ladder must escalate to condvar parks instead of
  // burning the cores, and the sharded two-pass quiescence check must still
  // terminate a recursive cross-node fanout exactly.
  constexpr std::uint32_t kNodes = 64;
  constexpr int kDepth = 10;
  exec::NativeBackend::Tuning tuning;
  tuning.workers = 4;     // some workers idle while the fanout ramps up
  tuning.idle_spins = 4;  // reach the park stage almost immediately
  tuning.idle_yields = 2;
  tuning.park_timeout_us = 50;
  auto backend = std::make_unique<exec::NativeBackend>(kNodes, tuning);
  std::atomic<std::uint64_t> ran{0};

  struct Spawner {
    exec::Backend* b;
    std::atomic<std::uint64_t>* ran;
    void operator()(int depth, std::uint32_t node) const {
      ran->fetch_add(1, std::memory_order_relaxed);
      if (depth == 0) return;
      const Spawner self = *this;
      for (int c = 0; c < 2; ++c) {
        const std::uint32_t next =
            (node * 2 + 1 + std::uint32_t(c)) % kNodes;
        b->post(next,
                [self, depth, next](exec::Cpu&) { self(depth - 1, next); });
      }
    }
  };
  Spawner spawner{backend.get(), &ran};

  for (int phase = 0; phase < 3; ++phase) {
    ran.store(0);
    backend->begin_phase();
    backend->post(0, [spawner](exec::Cpu&) { spawner(kDepth, 0); });
    backend->run_phase();
    EXPECT_EQ(ran.load(), (1u << (kDepth + 1)) - 1) << "phase " << phase;
  }
  // Parking needs genuinely idle workers, which the fanout phases rarely
  // leave (with work stealing, a worker idles only when the whole pool's
  // queues are dry — that scarcity is the point of the M:N scheduler). One
  // more phase with a single slow task: the other three workers have
  // nothing to steal for its whole duration and must walk the 6-step
  // ladder into a park instead of burning their cores.
  backend->begin_phase();
  backend->post(0, [](exec::Cpu&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  EXPECT_GT(backend->run_phase().sched.parks, 0u);
}

TEST(NativeBackend, WorkerPoolSizeResolvesFromTuningAndDefaults) {
  {
    // Explicit pool size wins; more workers than nodes clamps to nodes (a
    // node is the scheduling unit — extra workers could only idle).
    exec::NativeBackend::Tuning tuning;
    tuning.workers = 3;
    exec::NativeBackend backend(8, tuning);
    EXPECT_EQ(backend.num_workers(), 3u);
    tuning.workers = 100;
    exec::NativeBackend clamped(4, tuning);
    EXPECT_EQ(clamped.num_workers(), 4u);
  }
  {
    // workers = 0 resolves to min(host cores, nodes), never zero.
    exec::NativeBackend backend(2);
    EXPECT_GE(backend.num_workers(), 1u);
    EXPECT_LE(backend.num_workers(), 2u);
  }
  {
    // The process-wide default (the --workers flag's plumbing) applies to
    // single-argument construction and restores on scope exit.
    exec::NativeBackend::Tuning tuning;
    tuning.workers = 2;
    exec::ScopedDefaultTuning scoped(tuning);
    exec::NativeBackend backend(8);
    EXPECT_EQ(backend.num_workers(), 2u);
  }
  EXPECT_EQ(exec::NativeBackend::default_tuning().workers, 0u);
}

TEST(NativeBackend, StealMovesWholeNodesAndPreservesMailboxFifo) {
  // Forces a steal deterministically: node 0 and node 2 both have affinity
  // worker 0 (round-robin over 2 workers), and node 0's task pins worker 0
  // until node 2's 100-message stream has fully run. Worker 1's own queue
  // is empty, so the only way the stream can run — and the phase can end —
  // is worker 1 stealing node 2 whole. The messages were seeded in order
  // by the main thread, and whole-node stealing must preserve that FIFO
  // exactly (the node runs on one worker at a time, draining its mailbox
  // in order).
  constexpr std::uint32_t kMsgs = 100;
  exec::NativeBackend::Tuning tuning;
  tuning.workers = 2;
  tuning.idle_spins = 4;
  tuning.idle_yields = 2;
  tuning.park_timeout_us = 50;
  exec::NativeBackend backend(3, tuning);

  std::vector<std::uint32_t> order;  // node 2 only; read post-phase
  std::atomic<std::uint32_t> done{0};
  backend.begin_phase();
  backend.post(0, [&done](exec::Cpu&) {
    while (done.load(std::memory_order_acquire) < kMsgs)
      std::this_thread::yield();
  });
  for (std::uint32_t i = 0; i < kMsgs; ++i) {
    backend.post(2, [&order, &done, i](exec::Cpu&) {
      order.push_back(i);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  const exec::PhaseExec pe = backend.run_phase();

  ASSERT_EQ(order.size(), std::size_t(kMsgs));
  for (std::uint32_t i = 0; i < kMsgs; ++i) EXPECT_EQ(order[i], i);
  EXPECT_GE(pe.sched.steals, 1u);
  // The thief ran the node, so the node's placement followed it.
  EXPECT_EQ(backend.last_worker(2), 1);
  EXPECT_EQ(backend.affinity_of(2), 1u);
}

TEST(NativeBackend, AffinityReactivationLandsOnOwningWorker) {
  // With stealing off, a node only ever runs on its affinity worker — and
  // re-activation mid-phase (ping-pong traffic) must keep landing there.
  constexpr int kRounds = 16;
  exec::NativeBackend::Tuning tuning;
  tuning.workers = 2;
  tuning.steal = false;
  tuning.idle_spins = 4;
  tuning.idle_yields = 2;
  tuning.park_timeout_us = 50;
  exec::NativeBackend backend(4, tuning);

  std::atomic<int> bounces{0};
  auto* b = &backend;
  const exec::HandlerId h = backend.register_handler(
      "test.pingpong", [b, &bounces](exec::Cpu& cpu, const exec::Packet& pkt) {
        if (bounces.fetch_add(1, std::memory_order_relaxed) >= kRounds)
          return;
        b->send(cpu, pkt.dst, pkt.src, pkt.handler, nullptr, 8);
      });

  for (int phase = 0; phase < 2; ++phase) {
    backend.begin_phase();
    backend.post(1, [b, h](exec::Cpu& cpu) { b->send(cpu, 1, 3, h, nullptr, 8); });
    const exec::PhaseExec pe = backend.run_phase();
    // Nodes 1 and 3 re-activated kRounds times between them; both have
    // affinity worker 1 (id % 2) and stealing is off, so every activation
    // must have landed there.
    EXPECT_EQ(backend.last_worker(1), 1) << "phase " << phase;
    EXPECT_EQ(backend.last_worker(3), 1) << "phase " << phase;
    EXPECT_EQ(backend.affinity_of(1), 1u);
    EXPECT_EQ(backend.affinity_of(3), 1u);
    EXPECT_EQ(pe.sched.steals, 0u);
    bounces.store(0);
  }
  // Nodes 0 and 2 never ran at all.
  EXPECT_EQ(backend.last_worker(0), -1);
  EXPECT_EQ(backend.last_worker(2), -1);
}

TEST(NativeBackend, QuiescenceStaysExactWhileStealsAreInFlight) {
  // The steal-stress variant of the quiescence test (this binary runs
  // under the TSan CI job): a recursive fanout across 16 nodes on a
  // 4-worker pool with an aggressive idle ladder, where the seed node's
  // lane is deliberately blocked so the fanout can only progress through
  // steals. The two-pass double-collect must still terminate every phase
  // exactly — no lost tasks, no early exit — while nodes migrate between
  // workers mid-phase.
  constexpr std::uint32_t kNodes = 16;
  constexpr int kDepth = 9;
  constexpr std::uint64_t kExpected = (1u << (kDepth + 1)) - 1;
  exec::NativeBackend::Tuning tuning;
  tuning.workers = 4;
  tuning.idle_spins = 2;
  tuning.idle_yields = 2;
  tuning.park_timeout_us = 50;
  tuning.train_max = 4;
  exec::NativeBackend backend(kNodes, tuning);
  std::atomic<std::uint64_t> ran{0};

  struct Spawner {
    exec::Backend* b;
    std::atomic<std::uint64_t>* ran;
    void operator()(int depth, std::uint32_t node) const {
      ran->fetch_add(1, std::memory_order_relaxed);
      if (depth == 0) return;
      const Spawner self = *this;
      for (int c = 0; c < 2; ++c) {
        // Fan out over nodes 1..15 only: node 0 hosts the blocker.
        const std::uint32_t next =
            1 + (node * 2 + std::uint32_t(c)) % (kNodes - 1);
        b->post(next,
                [self, depth, next](exec::Cpu&) { self(depth - 1, next); });
      }
    }
  };
  Spawner spawner{&backend, &ran};

  std::uint64_t steals = 0;
  for (int phase = 0; phase < 3; ++phase) {
    ran.store(0);
    backend.begin_phase();
    // Node 0 and node 4 share affinity worker 0. The blocker pins worker 0
    // until the whole fanout has run, so the seed on node 4 MUST be stolen
    // by another worker for the phase to terminate at all.
    backend.post(0, [&ran](exec::Cpu&) {
      while (ran.load(std::memory_order_acquire) < kExpected)
        std::this_thread::yield();
    });
    backend.post(4, [spawner](exec::Cpu&) { spawner(kDepth, 4); });
    steals += backend.run_phase().sched.steals;
    EXPECT_EQ(ran.load(), kExpected) << "phase " << phase;
  }
  EXPECT_GE(steals, 3u);  // at least the forced steal, every phase
}

TEST(NativeBackend, WatchdogStaysQuietWhileStolenNodeMakesProgress) {
  // Regression for the M:N port of the stall watchdog: progress is counted
  // per NODE (placement-oblivious counters), not per thread. Here node 2's
  // work is stolen by worker 1 and trickles along — one sweep per task —
  // while node 2's original lane (worker 0) sits blocked the whole time. A
  // thread-keyed sweep would see a wedged-looking original host and fire;
  // the node-keyed sweep must stay quiet. The sweeps are test-driven (the
  // monitor thread's interval outlasts the test): each runs at the start
  // of a trickle task, after the previous one was counted consumed, so the
  // outcome does not depend on how promptly the host wakes a sleeper.
  constexpr std::uint32_t kTasks = 30;
  exec::NativeBackend::Tuning tuning;
  tuning.workers = 2;
  tuning.idle_spins = 4;
  tuning.idle_yields = 2;
  tuning.park_timeout_us = 50;
  exec::NativeBackend backend(3, tuning);
  exec::WatchdogConfig cfg;
  cfg.stuck_scans = 2;
  cfg.scan_interval = kTestDrivenSweeps;
  cfg.fatal = false;
  ASSERT_TRUE(backend.arm_watchdog(cfg));

  std::atomic<std::uint32_t> done{0};
  std::atomic<std::uint32_t> fired_sweeps{0};
  struct Trickle {
    exec::NativeBackend* b;
    std::atomic<std::uint32_t>* done;
    std::atomic<std::uint32_t>* fired;
    void operator()(std::uint32_t i) const {
      if (b->watchdog_sweep_for_test()) fired->fetch_add(1);
      done->fetch_add(1, std::memory_order_release);
      if (i + 1 >= kTasks) return;
      const Trickle self = *this;
      b->post(2, [self, i](exec::Cpu&) { self(i + 1); });
    }
  };
  const Trickle trickle{&backend, &done, &fired_sweeps};
  backend.begin_phase();
  // Blocker on node 0 (affinity worker 0) gated on the trickle finishing:
  // node 2 (also affinity worker 0) can only run via a steal by worker 1.
  backend.post(0, [&done](exec::Cpu&) {
    while (done.load(std::memory_order_acquire) < kTasks)
      std::this_thread::yield();
  });
  backend.post(2, [trickle](exec::Cpu&) { trickle(0); });
  const exec::PhaseExec pe = backend.run_phase();

  EXPECT_EQ(done.load(), kTasks);
  EXPECT_GE(pe.sched.steals, 1u);
  EXPECT_EQ(backend.last_worker(2), 1);
  EXPECT_EQ(fired_sweeps.load(), 0u);
  EXPECT_FALSE(backend.watchdog_fired());
}

rt::RuntimeConfig engine_config(std::size_t which) {
  switch (which) {
    case 0: return rt::RuntimeConfig::dpa(32);
    case 1: return rt::RuntimeConfig::caching();
    case 2: return rt::RuntimeConfig::blocking();
    default: return rt::RuntimeConfig::prefetching(8);
  }
}

TEST(NativeEngines, Em3dRunsOnRealThreadsUnderEveryEngine) {
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 96;
  cfg.h_per_node = 96;
  cfg.remote_prob = 0.3;
  cfg.iters = 2;
  const apps::em3d::Em3dApp app(cfg, 4);
  const auto oracle = app.run_sequential();
  for (std::size_t e = 0; e < 4; ++e) {
    const auto run = app.run(sim::NetParams{}, engine_config(e), nullptr,
                             exec::BackendKind::kNative);
    ASSERT_TRUE(run.all_completed()) << "engine " << e;
    ASSERT_EQ(run.e_values.size(), oracle.e_values.size());
    // Tolerance, not ulp-equality: the parallel walk legitimately reorders
    // the floating-point sums vs the host loop. Bit-identity is asserted
    // sim-vs-native in determinism_test, where both sides reorder equally.
    for (std::size_t i = 0; i < run.e_values.size(); ++i)
      EXPECT_NEAR(run.e_values[i], oracle.e_values[i], 1e-9) << "engine " << e;
  }
}

TEST(NativeEngines, TreeAddSumMatchesOracle) {
  apps::olden::TreeAddConfig cfg;
  cfg.depth = 10;
  const apps::olden::TreeAddApp app(cfg, 4);
  const auto r =
      app.run(sim::NetParams{}, rt::RuntimeConfig::dpa_deterministic(32),
              exec::BackendKind::kNative);
  ASSERT_TRUE(r.phase.completed);
  EXPECT_NEAR(r.sum, r.expected, 1e-9);
}

TEST(NativeEngines, PerimeterIsExactOnRealThreads) {
  apps::olden::PerimeterConfig cfg;
  cfg.log_size = 5;
  const apps::olden::PerimeterApp app(cfg, 4);
  const auto r = app.run(sim::NetParams{}, rt::RuntimeConfig::dpa(32),
                         exec::BackendKind::kNative);
  ASSERT_TRUE(r.phase.completed);
  EXPECT_EQ(r.perimeter, r.expected);  // integer counters: exact
}

TEST(NativeEngines, PowerAccumulationsCommitDeterministically) {
  apps::olden::PowerConfig cfg;
  cfg.feeders = 4;
  cfg.laterals = 4;
  cfg.iters = 2;
  const apps::olden::PowerApp app(cfg, 4);
  const auto oracle = app.run_sequential();
  const auto a = app.run(sim::NetParams{}, rt::RuntimeConfig::dpa(32),
                         exec::BackendKind::kNative);
  const auto b = app.run(sim::NetParams{}, rt::RuntimeConfig::dpa(32),
                         exec::BackendKind::kNative);
  ASSERT_TRUE(a.all_completed());
  EXPECT_NEAR(a.final_root_demand, oracle.final_root_demand, 1e-9);
  // The (src, seq)-ordered commit makes repeated native runs bit-identical
  // even though message arrival order varies.
  ASSERT_EQ(a.branch_prices.size(), b.branch_prices.size());
  for (std::size_t i = 0; i < a.branch_prices.size(); ++i)
    EXPECT_EQ(a.branch_prices[i], b.branch_prices[i]);
}

TEST(NativeBackend, PhaseResultReportsRealElapsedAndTasks) {
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 64;
  cfg.h_per_node = 64;
  const apps::em3d::Em3dApp app(cfg, 2);
  const auto run = app.run(sim::NetParams{}, rt::RuntimeConfig::blocking(),
                           nullptr, exec::BackendKind::kNative);
  ASSERT_TRUE(run.all_completed());
  for (const auto& step : run.steps) {
    EXPECT_GT(step.phase.elapsed, 0);
    EXPECT_GT(step.phase.sim_events, 0u);  // tasks executed
    EXPECT_EQ(step.phase.net.messages, 0u);  // sim-only stats stay zero
  }
}

TEST(NativeBackend, BatchAccountingStaysWithinThePhase) {
  // busy_total and finish_time are measured once per drain batch, not per
  // task. Whatever the batching, a node's batches run one after another
  // inside the phase, so 0 < busy_total <= finish_time <= elapsed; and with
  // shards attached every task is still timed on its own.
  constexpr std::uint32_t kNodes = 32;
  constexpr std::uint32_t kObjs = 48;  // per node
  struct Cell {
    std::uint64_t v = 0;
  };
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    obs::Session session;  // outlives the cluster that reports into it
    rt::Cluster cluster(kNodes, exec::BackendKind::kNative);
    if (traced) cluster.attach_obs(&session);
    std::vector<gas::GPtr<Cell>> objs;
    for (std::uint32_t i = 0; i < kNodes * kObjs; ++i)
      objs.push_back(cluster.heap.make<Cell>(i % kNodes, Cell{i}));
    std::vector<rt::NodeWork> work(kNodes);
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      work[n].count = kObjs;
      work[n].item = [&objs, n](rt::Ctx& ctx, std::uint64_t i) {
        // Object i*kNodes + h is homed on h; spread the reads over every
        // other node.
        const std::uint64_t h = (n + 1 + i % (kNodes - 1)) % kNodes;
        ctx.require(objs[i * kNodes + h],
                    [](rt::Ctx& c, const Cell&) { c.charge(10); });
      };
    }
    rt::PhaseRunner runner(cluster, rt::RuntimeConfig::dpa(16));
    const rt::PhaseResult r = runner.run(std::move(work));
    ASSERT_TRUE(r.completed) << r.diagnostics;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      const exec::NodeStats& st = cluster.exec().node_stats(n);
      EXPECT_GT(st.busy_total, 0) << "node " << n;
      EXPECT_LE(st.busy_total, st.finish_time) << "node " << n;
      EXPECT_LE(st.finish_time, r.elapsed) << "node " << n;
    }
    if (traced && obs::kTraceEnabled) {
      auto* service = session.metrics.histogram("exec.task_service_ns");
      ASSERT_NE(service, nullptr);
      EXPECT_EQ(service->count(), r.sim_events);
      EXPECT_EQ(service->count(), *session.metrics.counter("exec.tasks"));
    }
  }
}

TEST(ShardedSink, ConcurrentWritersMergeTimeSorted) {
  // The sharded sink's whole claim: N threads record into their own shards
  // with no locks, and the post-join merge is exact — count-preserving when
  // nothing wrapped, sorted by (time, worker, seq). This test runs under
  // the TSan CI job, which is what makes the "no locks" part a theorem
  // rather than a hope.
  if (!obs::kTraceEnabled) GTEST_SKIP() << "built with DPA_TRACE=OFF";
  constexpr std::uint32_t kWorkers = 4;
  constexpr std::uint64_t kPerWorker = 1000;
  obs::ShardedTraceSink sink(kWorkers, /*shard_capacity=*/2048);

  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&sink, w] {
      obs::TraceShard& sh = sink.shard(w);
      for (std::uint64_t i = 0; i < kPerWorker; ++i) {
        // Deliberately non-monotone timestamps across workers so the merge
        // has real interleaving to sort.
        sh.span(obs::Ev::kWorkerRun, w, obs::Time(i * 7 + w),
                obs::Time(i * 7 + w + 3), i);
        sh.profile.task_service_ns.add(i);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(sink.recorded_total(), kPerWorker * kWorkers);
  EXPECT_EQ(sink.dropped_total(), 0u);
  const auto merged = sink.merged();
  ASSERT_EQ(merged.size(), std::size_t(kPerWorker * kWorkers));
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const auto& a = merged[i - 1];
    const auto& b = merged[i];
    const bool sorted = a.ev.at < b.ev.at ||
                        (a.ev.at == b.ev.at && a.worker < b.worker) ||
                        (a.ev.at == b.ev.at && a.worker == b.worker &&
                         a.seq < b.seq);
    ASSERT_TRUE(sorted) << "merge order violated at " << i;
  }
  // Per-worker sequence numbers are dense: worker w contributed exactly
  // kPerWorker events with seqs 0..kPerWorker-1.
  std::vector<std::uint64_t> seen(kWorkers, 0);
  for (const auto& me : merged) ++seen[me.worker];
  for (std::uint32_t w = 0; w < kWorkers; ++w) EXPECT_EQ(seen[w], kPerWorker);

  // The profiles were written concurrently too; draining them into one
  // registry must see every sample.
  obs::MetricsRegistry m;
  sink.publish_profiles(m);
  ASSERT_NE(m.histogram("exec.task_service_ns"), nullptr);
  EXPECT_EQ(m.histogram("exec.task_service_ns")->count(),
            kPerWorker * kWorkers);
}

TEST(NativeBackend, WatchdogFiresOnWedgedWorkerAndDumpsFlightRecord) {
  // Wedge node 1's worker via the test hook (it stops draining its inbox,
  // holding no locks), post it a task, and run the phase from a helper
  // thread: the quiescence counters stop moving with work outstanding, so
  // the stuck-scans trigger must fire, dump a well-formed flight record,
  // and — fatal=false — leave the phase able to finish once released.
  exec::NativeBackend::Tuning tuning;
  tuning.idle_spins = 4;
  tuning.idle_yields = 2;
  tuning.park_timeout_us = 50;
  exec::NativeBackend backend(2, tuning);
  obs::ShardedTraceSink sink(2, /*shard_capacity=*/256);
  backend.attach_shards(&sink);  // no-op under DPA_TRACE=OFF

  const std::string dump =
      ::testing::TempDir() + "watchdog_flight_record.json";
  std::remove(dump.c_str());
  exec::WatchdogConfig cfg;
  cfg.stuck_scans = 3;
  cfg.scan_interval = 2'000'000;  // 2 ms
  cfg.dump_path = dump;
  cfg.fatal = false;
  ASSERT_TRUE(backend.arm_watchdog(cfg));

  std::atomic<int> ran{0};
  backend.test_stall_node(1);
  backend.begin_phase();
  backend.post(1, [&ran](exec::Cpu&) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  std::thread phase([&backend] { backend.run_phase(); });

  // ~3 sweeps at 2 ms should fire within milliseconds; 10 s is the CI
  //-under-load allowance, not the expectation.
  for (int i = 0; i < 10'000 && !backend.watchdog_fired(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(backend.watchdog_fired());

  backend.release_test_stalls();
  phase.join();
  EXPECT_EQ(ran.load(), 1);  // the phase completed after release

  std::ifstream in(dump);
  ASSERT_TRUE(in.good()) << "flight record missing: " << dump;
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonParseResult doc = json_parse(buf.str());
  ASSERT_TRUE(doc) << doc.error;
  const JsonValue& root = *doc.value;
  ASSERT_NE(root.find("schema"), nullptr);
  EXPECT_EQ(root.find("schema")->as_string(), "dpa.flightrec.v2");
  ASSERT_NE(root.find("reason"), nullptr);
  EXPECT_NE(root.find("reason")->as_string().find("no progress"),
            std::string::npos);
  ASSERT_NE(root.find("nodes"), nullptr);
  const auto& nodes = root.find("nodes")->as_array();
  ASSERT_EQ(nodes.size(), 2u);
  // The wedged node: its seed task was produced (charged by the pre-phase
  // post) but never consumed, it is sitting unread in the inbox, and the
  // watchdog's per-node sweep named it as the stuck one. It is `active`:
  // a worker popped it and wedged inside it.
  const JsonValue& stalled = nodes[1];
  EXPECT_EQ(stalled.find("produced")->as_number(), 1.0);
  EXPECT_EQ(stalled.find("consumed")->as_number(), 0.0);
  EXPECT_EQ(stalled.find("inbox_depth")->as_number(), 1.0);
  ASSERT_NE(stalled.find("active"), nullptr);
  EXPECT_TRUE(stalled.find("active")->as_bool());
  ASSERT_NE(stalled.find("stuck"), nullptr);
  EXPECT_TRUE(stalled.find("stuck")->as_bool());
  EXPECT_FALSE(nodes[0].find("stuck")->as_bool());
  // Worker scheduler state is its own array now — park state is a worker
  // property, not a node property, under M:N scheduling.
  ASSERT_NE(root.find("workers"), nullptr);
  const auto& workers = root.find("workers")->as_array();
  ASSERT_EQ(workers.size(), std::size_t(backend.num_workers()));
  for (const JsonValue& ws : workers) {
    ASSERT_NE(ws.find("parked"), nullptr);
    ASSERT_NE(ws.find("runq_depth"), nullptr);
  }
  if (obs::kTraceEnabled) {
    // Shards attached: the dump embeds the merged rings and the per-shard
    // drop counts (node shards + worker shards).
    ASSERT_NE(root.find("dropped_by_worker"), nullptr);
    EXPECT_EQ(root.find("dropped_by_worker")->as_array().size(),
              2u + backend.num_workers());
    ASSERT_NE(root.find("events"), nullptr);
    // Each ring event names its shard (`worker`) and its own `node`.
    for (const JsonValue& ev : root.find("events")->as_array()) {
      EXPECT_NE(ev.find("worker"), nullptr);
      EXPECT_NE(ev.find("node"), nullptr);
    }
  }
  std::remove(dump.c_str());
}

TEST(NativeBackend, WatchdogStaysQuietOnHealthyPhases) {
  // An armed watchdog must never fire on phases that merely take many
  // sweeps to finish: progress on the counters resets the stuck count.
  // Test-driven sweeps (the monitor thread's interval outlasts the test)
  // run at the start of every task of a chain that hops across the four
  // nodes. Task i+1 reaches its node in a train that departs only after
  // task i was counted consumed, so every sweep follows a counter move,
  // whatever the host's timing. The control: sweeps with nothing moving
  // in between count as stuck, and the stuck_scans-th fires.
  constexpr std::uint32_t kTasks = 64;
  exec::NativeBackend::Tuning tuning;
  tuning.idle_spins = 4;
  tuning.idle_yields = 2;
  tuning.park_timeout_us = 50;
  exec::WatchdogConfig cfg;
  cfg.stuck_scans = 2;
  cfg.scan_interval = kTestDrivenSweeps;
  cfg.fatal = false;

  exec::NativeBackend backend(4, tuning);
  ASSERT_TRUE(backend.arm_watchdog(cfg));
  std::atomic<std::uint32_t> ran{0};
  std::atomic<std::uint32_t> fired_sweeps{0};
  struct Hop {
    exec::NativeBackend* b;
    std::atomic<std::uint32_t>* ran;
    std::atomic<std::uint32_t>* fired;
    void operator()(std::uint32_t i) const {
      if (b->watchdog_sweep_for_test()) fired->fetch_add(1);
      ran->fetch_add(1, std::memory_order_relaxed);
      if (i + 1 >= kTasks) return;
      const Hop self = *this;
      const std::uint32_t next = (i + 1) % 4;
      b->post(next, [self, i](exec::Cpu&) { self(i + 1); });
    }
  };
  const Hop hop{&backend, &ran, &fired_sweeps};
  for (int phase = 0; phase < 2; ++phase) {
    backend.begin_phase();
    backend.post(0, [hop](exec::Cpu&) { hop(0); });
    backend.run_phase();
  }
  EXPECT_EQ(ran.load(), 2 * kTasks);
  EXPECT_EQ(fired_sweeps.load(), 0u);
  EXPECT_FALSE(backend.watchdog_fired());

  exec::NativeBackend stalled(4, tuning);
  ASSERT_TRUE(stalled.arm_watchdog(cfg));
  std::vector<bool> fired;
  stalled.begin_phase();
  stalled.post(0, [&stalled, &fired](exec::Cpu&) {
    for (int k = 0; k < 3; ++k)
      fired.push_back(stalled.watchdog_sweep_for_test());
  });
  stalled.run_phase();
  // The first sweep sees the phase's counters move from zero; the next two
  // see nothing move while this task is outstanding.
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true}));
  EXPECT_TRUE(stalled.watchdog_fired());
}

TEST(NativeEngines, Em3dPublishesWorkerTraceAndProfiles) {
  // End-to-end: a real app on the native backend with an obs::Session
  // attached must come back with per-worker trace events (run spans, train
  // flushes) in the sharded sink and the wall-clock profile histograms in
  // the registry — the wiring the --trace-out/--metrics-out flags expose.
  apps::em3d::Em3dConfig cfg;
  cfg.e_per_node = 96;
  cfg.h_per_node = 96;
  cfg.remote_prob = 0.3;
  cfg.iters = 2;
  const apps::em3d::Em3dApp app(cfg, 4);
  obs::Session session;
  const auto run = app.run(sim::NetParams{}, rt::RuntimeConfig::dpa(32),
                           &session, exec::BackendKind::kNative);
  ASSERT_TRUE(run.all_completed());

  if (!obs::kTraceEnabled) {
    // OFF builds never attach shards; metrics counters still publish.
    EXPECT_EQ(session.shards, nullptr);
    EXPECT_GT(*session.metrics.counter("exec.tasks"), 0u);
    return;
  }
  ASSERT_NE(session.shards, nullptr);
  // Node shards [0, 4) for engine events plus one shard per worker (the
  // backend sizes its pool to min(host cores, nodes)).
  EXPECT_GE(session.shards->num_shards(), 5u);
  EXPECT_LE(session.shards->num_shards(), 8u);
  EXPECT_GT(session.shards->recorded_total(), 0u);
  const auto merged = session.shards->merged();
  bool saw_run = false, saw_flush = false;
  for (const auto& me : merged) {
    saw_run |= me.ev.kind == obs::Ev::kWorkerRun;
    saw_flush |= me.ev.kind == obs::Ev::kTrainFlush;
    // Worker shards sit at [4, 4 + workers); their node-scoped events
    // still name the node they ran for.
    if (me.ev.kind == obs::Ev::kWorkerRun ||
        me.ev.kind == obs::Ev::kWorkerDrain || me.ev.kind == obs::Ev::kSteal) {
      EXPECT_GE(me.worker, 4u);
      EXPECT_LT(me.ev.node, 4u)
          << obs::to_string(me.ev.kind) << " in shard " << me.worker;
    }
  }
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_flush);
  // publish_profiles ran post-phase: every executed task left a service
  // time sample.
  auto* service = session.metrics.histogram("exec.task_service_ns");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->count(), *session.metrics.counter("exec.tasks"));
  ASSERT_NE(session.metrics.histogram("exec.train_occupancy"), nullptr);
  EXPECT_GT(session.metrics.histogram("exec.train_occupancy")->count(), 0u);
}

}  // namespace
}  // namespace dpa
