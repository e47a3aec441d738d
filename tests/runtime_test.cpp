#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "gas/heap.h"
#include "runtime/dpa_engine.h"
#include "runtime/phase.h"
#include "runtime/sync_engine.h"

namespace dpa::rt {
namespace {

using gas::GPtr;

struct Obj {
  int id = 0;
  double val = 0.0;
};

sim::NetParams test_net() {
  sim::NetParams p;
  p.send_overhead = 1000;
  p.recv_overhead = 1000;
  p.latency = 5000;
  p.ns_per_byte = 1.0;
  p.per_msg_wire = 100;
  p.nic_serialize = true;
  p.mtu_bytes = 4096;
  return p;
}

// A small world: `nobjs` objects round-robined (or pinned) across nodes.
struct World {
  Cluster cluster;
  std::vector<GPtr<Obj>> objs;

  World(std::uint32_t nodes, int nobjs, int pin_home = -1)
      : cluster(nodes, test_net()) {
    for (int i = 0; i < nobjs; ++i) {
      const sim::NodeId home =
          pin_home >= 0 ? sim::NodeId(pin_home) : sim::NodeId(i % nodes);
      objs.push_back(cluster.heap.make<Obj>(home, Obj{i, double(i) + 0.5}));
    }
  }

  std::vector<NodeWork> idle_work() const {
    return std::vector<NodeWork>(cluster.num_nodes());
  }
};

// ---------- basic completion and correctness ----------

TEST(DpaEngine, LocalOnlyPhaseCompletesWithoutMessages) {
  World w(1, 10);
  auto sum = std::make_shared<double>(0.0);
  auto work = w.idle_work();
  work[0].count = 10;
  work[0].item = [&w, sum](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [sum](Ctx& ctx2, const Obj& o) {
      ctx2.charge(100);
      *sum += o.val;
    });
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(4));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_DOUBLE_EQ(*sum, 10 * 0.5 + 45.0);
  EXPECT_EQ(r.net.messages, 0u);
  EXPECT_EQ(r.rt.local_threads, 10u);
  EXPECT_EQ(r.rt.threads_run, 10u);
}

TEST(DpaEngine, RemoteObjectsFetchedAndSumCorrect) {
  World w(2, 20, /*pin_home=*/1);
  auto sum = std::make_shared<double>(0.0);
  auto work = w.idle_work();
  work[0].count = 20;
  work[0].item = [&w, sum](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [sum](Ctx&, const Obj& o) { *sum += o.val; });
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(50));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  double expect = 0;
  for (int i = 0; i < 20; ++i) expect += double(i) + 0.5;
  EXPECT_DOUBLE_EQ(*sum, expect);
  EXPECT_EQ(r.rt.refs_requested, 20u);
  EXPECT_EQ(r.rt.replies_recv, r.rt.request_msgs);
}

// ---------- tiling: threads naming the same pointer share one fetch ----------

TEST(DpaEngine, TilingSharesOneFetchAcrossThreads) {
  World w(2, 1, /*pin_home=*/1);
  auto hits = std::make_shared<int>(0);
  auto work = w.idle_work();
  work[0].count = 10;
  work[0].item = [&w, hits](Ctx& ctx, std::uint64_t) {
    ctx.require(w.objs[0], [hits](Ctx&, const Obj&) { ++*hits; });
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(50));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(*hits, 10);
  EXPECT_EQ(r.rt.refs_requested, 1u);      // one fetch
  EXPECT_EQ(r.rt.dup_refs_avoided, 9u);    // nine threads joined the tile
  EXPECT_EQ(r.rt.threads_run, 10u);
}

TEST(DpaEngine, TileReuseIsScopedToStrip) {
  // Same single remote object touched by every iteration; with strips of 5
  // over 20 iterations the object is fetched once per strip.
  World w(2, 1, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 20;
  work[0].item = [&w](Ctx& ctx, std::uint64_t) {
    ctx.require(w.objs[0], [](Ctx&, const Obj&) {});
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(5));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.strips, 4u);
  EXPECT_EQ(r.rt.refs_requested, 4u);  // one per strip
}

// ---------- aggregation ----------

TEST(DpaEngine, AggregationBatchesRequestsToOneMessage) {
  World w(2, 30, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 30;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [](Ctx&, const Obj&) {});
  };
  auto cfg = RuntimeConfig::dpa(50);
  cfg.agg_max_refs = 64;
  PhaseRunner runner(w.cluster, cfg);
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.refs_requested, 30u);
  EXPECT_EQ(r.rt.request_msgs, 1u);
  EXPECT_DOUBLE_EQ(r.rt.aggregation_factor(), 30.0);
}

TEST(DpaEngine, AggregationRespectsBufferCap) {
  World w(2, 30, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 30;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [](Ctx&, const Obj&) {});
  };
  auto cfg = RuntimeConfig::dpa(50);
  cfg.agg_max_refs = 10;
  PhaseRunner runner(w.cluster, cfg);
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.request_msgs, 3u);
}

TEST(DpaEngine, NoAggregationSendsOneMessagePerRef) {
  World w(2, 15, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 15;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [](Ctx&, const Obj&) {});
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa_pipelined(50));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.request_msgs, 15u);
}

// ---------- pipelining ----------

TEST(DpaEngine, ConfigurationsOrderAsThePaperPredicts) {
  // Distinct remote objects and real per-thread compute: synchronous Base
  // serializes round trips, +pipelining overlaps them, +aggregation also
  // removes per-message overhead. Time must strictly improve.
  auto run_with = [](RuntimeConfig cfg) {
    World w(2, 60, /*pin_home=*/1);
    auto work = w.idle_work();
    work[0].count = 60;
    work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
      ctx.require(w.objs[i], [](Ctx& c, const Obj&) { c.charge(2000); });
    };
    PhaseRunner runner(w.cluster, cfg);
    const PhaseResult r = runner.run(std::move(work));
    EXPECT_TRUE(r.completed) << r.diagnostics;
    return r.elapsed;
  };
  const Time base = run_with(RuntimeConfig::dpa_base(50));
  const Time pipe = run_with(RuntimeConfig::dpa_pipelined(50));
  const Time full = run_with(RuntimeConfig::dpa(50));
  EXPECT_GT(base, pipe);
  EXPECT_GT(pipe, full);
}

TEST(DpaEngine, BaseConfigurationMostlyIdles) {
  World w(2, 40, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 40;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [](Ctx&, const Obj&) {});
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa_base(50));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  // Node 0 waits a full round trip per object; idle dominates its time.
  EXPECT_GT(r.nodes[0].idle, r.nodes[0].busy_total);
}

// ---------- strip-mining ----------

TEST(DpaEngine, StripMiningBoundsOutstandingState) {
  World w(2, 100, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 100;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [](Ctx&, const Obj&) {});
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(10));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.strips, 10u);
  EXPECT_LE(r.rt.max_m_entries, 10);
  EXPECT_LE(r.rt.max_outstanding_threads, 10 + 1);
}

TEST(DpaEngine, LargerStripHoldsMoreState) {
  auto max_m_for_strip = [](std::uint32_t strip) {
    World w(2, 100, /*pin_home=*/1);
    auto work = w.idle_work();
    work[0].count = 100;
    work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
      ctx.require(w.objs[i], [](Ctx&, const Obj&) {});
    };
    PhaseRunner runner(w.cluster, RuntimeConfig::dpa(strip));
    const PhaseResult r = runner.run(std::move(work));
    EXPECT_TRUE(r.completed) << r.diagnostics;
    return r.rt.max_m_entries;
  };
  EXPECT_LT(max_m_for_strip(5), max_m_for_strip(50));
}

// ---------- scheduling templates ----------

TEST(DpaEngine, InterleavedTemplateCompletesWithSameAnswer) {
  for (const auto tmpl :
       {SchedTemplate::kCreateAllThenRun, SchedTemplate::kInterleaved}) {
    World w(2, 25, /*pin_home=*/1);
    auto sum = std::make_shared<double>(0.0);
    auto work = w.idle_work();
    work[0].count = 25;
    work[0].item = [&w, sum](Ctx& ctx, std::uint64_t i) {
      ctx.require(w.objs[i], [sum](Ctx&, const Obj& o) { *sum += o.val; });
    };
    auto cfg = RuntimeConfig::dpa(50);
    cfg.sched_template = tmpl;
    PhaseRunner runner(w.cluster, cfg);
    const PhaseResult r = runner.run(std::move(work));
    ASSERT_TRUE(r.completed) << r.diagnostics;
    double expect = 0;
    for (int i = 0; i < 25; ++i) expect += double(i) + 0.5;
    EXPECT_DOUBLE_EQ(*sum, expect);
  }
}

// ---------- nested thread creation (recursive PBDS walks) ----------

// A distributed linked list walked by chained non-blocking threads.
struct Link {
  double val = 0.0;
  GPtr<Link> next;
};

// Wires up values and next pointers for the list test.
void wire_link(std::vector<GPtr<Link>>& links, int i, int len) {
  auto* l = gas::GlobalHeap::mutate(links[std::size_t(i)]);
  l->val = double(i);
  l->next = (i + 1 < len) ? links[std::size_t(i + 1)] : GPtr<Link>{};
}

TEST(DpaEngine, ChainedThreadsWalkDistributedList) {
  Cluster cluster(4, test_net());
  const int len = 40;
  std::vector<GPtr<Link>> links;
  for (int i = 0; i < len; ++i)
    links.push_back(cluster.heap.make<Link>(sim::NodeId(i % 4)));
  for (int i = 0; i < len; ++i) wire_link(links, i, len);
  auto sum = std::make_shared<double>(0.0);
  std::vector<NodeWork> work(4);
  work[0].count = 1;
  std::function<void(Ctx&, const Link&)> walk =
      [sum, &walk](Ctx& ctx, const Link& link) {
        ctx.charge(50);
        *sum += link.val;
        if (link.next) ctx.require(link.next, walk);
      };
  work[0].item = [&links, &walk](Ctx& ctx, std::uint64_t) {
    ctx.require(links[0], walk);
  };
  PhaseRunner runner(cluster, RuntimeConfig::dpa(8));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  double expect = 0;
  for (int i = 0; i < len; ++i) expect += double(i);
  EXPECT_DOUBLE_EQ(*sum, expect);

  // 3/4 of the links are remote to node 0.
  EXPECT_EQ(r.rt.refs_requested, 30u);
}

// Threads of a dispatched tile that open fresh tiles grow M's tile array
// while that tile is still running (the array relocates under it), and
// re-joining their own tile appends to it mid-dispatch. Root iterations
// come in pairs naming one object, so each first dispatch runs two
// threads and the second starts after the first has grown the array.
// Every thread must still run exactly once, against its own object, on
// every backend.
struct GrowPlan {
  static constexpr std::uint32_t kNodes = 4;
  static constexpr std::uint32_t kRoots = 40;  // per node, one strip
  static constexpr std::uint32_t kFanout = 6;  // fresh refs per root thread

  // roots[n][i / 2] is root iteration i's object; kids[n][i] are its
  // kFanout children. All are homed off node n.
  std::vector<std::vector<GPtr<Obj>>> roots;
  std::vector<std::vector<std::vector<GPtr<Obj>>>> kids;
  std::vector<std::uint64_t> sum;  // sum[n]: written by node n's threads

  explicit GrowPlan(Cluster& cluster)
      : roots(kNodes), kids(kNodes), sum(kNodes, 0) {
    int id = 0;
    const auto make = [&](std::uint32_t n, std::uint32_t salt) {
      const sim::NodeId home = (n + 1 + salt % (kNodes - 1)) % kNodes;
      return cluster.heap.make<Obj>(home, Obj{++id, 0.0});
    };
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      for (std::uint32_t i = 0; i < kRoots / 2; ++i)
        roots[n].push_back(make(n, i));
      for (std::uint32_t i = 0; i < kRoots; ++i) {
        auto& row = kids[n].emplace_back();
        for (std::uint32_t k = 0; k < kFanout; ++k)
          row.push_back(make(n, i + k + 1));
      }
    }
  }

  // Host oracle: each iteration counts its root twice (its thread and the
  // re-join) and each of its children once.
  std::uint64_t expected(std::uint32_t n) const {
    std::uint64_t s = 0;
    for (std::uint32_t i = 0; i < kRoots; ++i) {
      s += 2 * std::uint64_t(roots[n][i / 2].addr->id);
      for (const GPtr<Obj>& kid : kids[n][i]) s += std::uint64_t(kid.addr->id);
    }
    return s;
  }

  std::vector<NodeWork> work() {
    std::vector<NodeWork> w(kNodes);
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      w[n].count = kRoots;
      w[n].item = [this, n](Ctx& ctx, std::uint64_t i) {
        const GPtr<Obj> root = roots[n][i / 2];
        ctx.require(root, [this, n, i, root](Ctx& ctx2, const Obj& o) {
          sum[n] += std::uint64_t(o.id);
          for (const GPtr<Obj>& kid : kids[n][i]) {
            ctx2.require(kid, [this, n](Ctx&, const Obj& c) {
              sum[n] += std::uint64_t(c.id);
            });
          }
          ctx2.require(root, [this, n](Ctx&, const Obj& again) {
            sum[n] += std::uint64_t(again.id);
          });
        });
      };
    }
    return w;
  }
};

TEST(DpaEngine, TileArrayGrowsDuringDispatch) {
  using exec::BackendKind;
  for (const BackendKind kind : {BackendKind::kSim, BackendKind::kNative}) {
    for (const RuntimeConfig& cfg :
         {RuntimeConfig::dpa(50), RuntimeConfig::dpa_deterministic(50)}) {
      SCOPED_TRACE(std::string(kind == BackendKind::kSim ? "sim " : "native ") +
                   cfg.describe());
      Cluster cluster(GrowPlan::kNodes, kind, test_net());
      GrowPlan plan(cluster);
      PhaseRunner runner(cluster, cfg);
      const PhaseResult r = runner.run(plan.work());
      ASSERT_TRUE(r.completed) << r.diagnostics;
      EXPECT_EQ(r.rt.threads_created, r.rt.threads_run);
      EXPECT_EQ(r.rt.threads_run, GrowPlan::kNodes * GrowPlan::kRoots *
                                      (GrowPlan::kFanout + 2));
      for (std::uint32_t n = 0; n < GrowPlan::kNodes; ++n)
        EXPECT_EQ(plan.sum[n], plan.expected(n)) << "node " << n;
    }
  }
}

// ---------- sync engines ----------

TEST(SyncEngine, CachingHitsAfterFirstMiss) {
  World w(2, 1, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 10;
  work[0].item = [&w](Ctx& ctx, std::uint64_t) {
    ctx.require(w.objs[0], [](Ctx&, const Obj&) {});
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::caching());
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.cache_misses, 1u);
  EXPECT_EQ(r.rt.cache_hits, 9u);
  EXPECT_EQ(r.rt.refs_requested, 1u);
}

TEST(SyncEngine, CachingCapacityEvicts) {
  World w(2, 3, /*pin_home=*/1);
  auto work = w.idle_work();
  // Touch objects 0,1,2,0,1,2 with a 2-object cache: all misses after
  // warmup evictions (FIFO).
  work[0].count = 6;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i % 3], [](Ctx&, const Obj&) {});
  };
  auto cfg = RuntimeConfig::caching();
  cfg.cache_capacity = 2;
  PhaseRunner runner(w.cluster, cfg);
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.cache_misses, 6u);
  EXPECT_GT(r.rt.cache_evictions, 0u);
}

TEST(SyncEngine, BlockingRefetchesEveryAccess) {
  World w(2, 1, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 10;
  work[0].item = [&w](Ctx& ctx, std::uint64_t) {
    ctx.require(w.objs[0], [](Ctx&, const Obj&) {});
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::blocking());
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.refs_requested, 10u);
  EXPECT_EQ(r.rt.cache_hits, 0u);
}

TEST(SyncEngine, DepthFirstTraversalOrder) {
  // require() inside a thread is LIFO: children visit before siblings.
  World w(1, 3);
  auto order = std::make_shared<std::vector<int>>();
  auto work = w.idle_work();
  work[0].count = 1;
  work[0].item = [&w, order](Ctx& ctx, std::uint64_t) {
    ctx.require(w.objs[0], [&w, order](Ctx& c, const Obj& o) {
      order->push_back(o.id);
      c.require(w.objs[1], [order](Ctx&, const Obj& o1) {
        order->push_back(o1.id);
      });
      c.require(w.objs[2], [order](Ctx&, const Obj& o2) {
        order->push_back(o2.id);
      });
    });
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::blocking());
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  // LIFO pops obj2 before obj1.
  EXPECT_EQ(*order, (std::vector<int>{0, 2, 1}));
}

// ---------- prefetch engine ----------

TEST(PrefetchEngine, HidesLatencyBehindEarlierWork) {
  // Distinct remote objects with real per-item compute: prefetching should
  // land between blocking (every miss pays full latency) and DPA.
  auto run_kind = [](RuntimeConfig cfg) {
    World w(2, 80, /*pin_home=*/1);
    auto work = w.idle_work();
    work[0].count = 80;
    work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
      ctx.require(w.objs[i], [](Ctx& c, const Obj&) { c.charge(4000); });
    };
    PhaseRunner runner(w.cluster, cfg);
    const PhaseResult r = runner.run(std::move(work));
    EXPECT_TRUE(r.completed) << r.diagnostics;
    return r.elapsed;
  };
  const Time blocking = run_kind(RuntimeConfig::blocking());
  const Time prefetch = run_kind(RuntimeConfig::prefetching(8));
  const Time dpa = run_kind(RuntimeConfig::dpa(80));
  EXPECT_LT(prefetch, blocking);
  EXPECT_LT(dpa, prefetch);
}

TEST(PrefetchEngine, PrefetchedObjectsHitTheCache) {
  World w(2, 40, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 40;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [](Ctx& c, const Obj&) { c.charge(50000); });
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::prefetching(8));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  // With heavy per-item compute the prefetches land before (or while) their
  // consumers poll: many accesses hit outright, and even the "misses" find
  // the reply already queued, so the phase runs at essentially compute
  // speed (40 x 50us plus small overheads).
  EXPECT_GT(r.rt.cache_hits, 20u);
  EXPECT_EQ(r.rt.cache_hits + r.rt.cache_misses, 40u);
  EXPECT_LT(r.elapsed, Time(1.15 * 40 * 50000));
}

TEST(PrefetchEngine, ZeroDepthDegeneratesToCaching) {
  World w(2, 1, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 10;
  work[0].item = [&w](Ctx& ctx, std::uint64_t) {
    ctx.require(w.objs[0], [](Ctx&, const Obj&) {});
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::prefetching(0));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.cache_misses, 1u);
  EXPECT_EQ(r.rt.cache_hits, 9u);
  EXPECT_EQ(r.rt.refs_requested, 1u);
}

TEST(PrefetchEngine, DeeperLookaheadHelpsUpToLatency) {
  auto time_with = [](std::uint32_t depth) {
    World w(2, 100, /*pin_home=*/1);
    auto work = w.idle_work();
    work[0].count = 100;
    work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
      ctx.require(w.objs[i], [](Ctx& c, const Obj&) { c.charge(1500); });
    };
    PhaseRunner runner(w.cluster, RuntimeConfig::prefetching(depth));
    const PhaseResult r = runner.run(std::move(work));
    EXPECT_TRUE(r.completed) << r.diagnostics;
    return r.elapsed;
  };
  EXPECT_LT(time_with(16), time_with(1));
}

// ---------- comparisons the paper reports ----------

TEST(Comparison, DpaBeatsCachingWhenObjectsAreShared) {
  // Many iterations touch a window of remote objects; caching pays a hash
  // per access and a serialized round trip per miss, DPA pays creation but
  // aggregates all fetches. DPA must win end to end.
  auto run_kind = [](RuntimeConfig cfg) {
    World w(2, 64, /*pin_home=*/1);
    auto work = w.idle_work();
    work[0].count = 256;
    work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
      for (int k = 0; k < 4; ++k) {
        ctx.require(w.objs[(i + std::uint64_t(k) * 16) % 64],
                    [](Ctx& c, const Obj&) { c.charge(500); });
      }
    };
    PhaseRunner runner(w.cluster, cfg);
    const PhaseResult r = runner.run(std::move(work));
    EXPECT_TRUE(r.completed) << r.diagnostics;
    return r.elapsed;
  };
  const Time dpa = run_kind(RuntimeConfig::dpa(64));
  const Time caching = run_kind(RuntimeConfig::caching());
  const Time blocking = run_kind(RuntimeConfig::blocking());
  EXPECT_LT(dpa, caching);
  EXPECT_LT(caching, blocking);
}

// ---------- remote accumulation (the "reductions" extension) ----------

TEST(Accumulate, LocalUpdatesApplyImmediately) {
  World w(1, 4);
  auto work = w.idle_work();
  work[0].count = 8;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.accumulate(w.objs[i % 4], [](Obj& o) { o.val += 1.0; });
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(8));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.accums_local, 8u);
  EXPECT_EQ(r.rt.accum_msgs, 0u);
  for (int i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(w.objs[std::size_t(i)].addr->val, double(i) + 0.5 + 2.0);
}

TEST(Accumulate, RemoteUpdatesReachTheHome) {
  World w(2, 4, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 20;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.accumulate(w.objs[i % 4], [](Obj& o) { o.val += 0.25; });
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(32));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.accums_issued, 20u);
  EXPECT_EQ(r.rt.accums_applied, 20u);
  for (int i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(w.objs[std::size_t(i)].addr->val,
                     double(i) + 0.5 + 5 * 0.25);
}

TEST(Accumulate, DpaAggregatesUpdatesIntoFewMessages) {
  World w(2, 64, /*pin_home=*/1);
  auto make_work = [&w]() {
    auto work = w.idle_work();
    work[0].count = 64;
    work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
      ctx.accumulate(w.objs[i], [](Obj& o) { o.val += 1.0; });
    };
    return work;
  };
  {
    PhaseRunner runner(w.cluster, RuntimeConfig::dpa(64));
    const PhaseResult r = runner.run(make_work());
    ASSERT_TRUE(r.completed) << r.diagnostics;
    EXPECT_LE(r.rt.accum_msgs, 2u);  // batched
  }
  {
    PhaseRunner runner(w.cluster, RuntimeConfig::dpa_pipelined(64));
    const PhaseResult r = runner.run(make_work());
    ASSERT_TRUE(r.completed) << r.diagnostics;
    EXPECT_EQ(r.rt.accum_msgs, 64u);  // one message per update
  }
}

TEST(Accumulate, WorksUnderSyncEngines) {
  for (const auto& cfg :
       {RuntimeConfig::caching(), RuntimeConfig::blocking()}) {
    World w(2, 1, /*pin_home=*/1);
    auto work = w.idle_work();
    work[0].count = 5;
    work[0].item = [&w](Ctx& ctx, std::uint64_t) {
      ctx.accumulate(w.objs[0], [](Obj& o) { o.val += 2.0; });
    };
    PhaseRunner runner(w.cluster, cfg);
    const PhaseResult r = runner.run(std::move(work));
    ASSERT_TRUE(r.completed) << r.diagnostics;
    EXPECT_DOUBLE_EQ(w.objs[0].addr->val, 0.5 + 10.0) << cfg.describe();
  }
}

// ---------- cache eviction policies ----------

TEST(CachePolicy, LruKeepsHotObjects) {
  // Access pattern: obj0 touched between every other access. With capacity
  // 2, LRU keeps obj0 resident; FIFO evicts it regularly.
  auto misses_with = [](RuntimeConfig::CachePolicy policy) {
    World w(2, 3, /*pin_home=*/1);
    auto work = w.idle_work();
    work[0].count = 20;
    work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
      ctx.require(w.objs[0], [](Ctx&, const Obj&) {});
      ctx.require(w.objs[1 + (i % 2)], [](Ctx&, const Obj&) {});
    };
    auto cfg = RuntimeConfig::caching();
    cfg.cache_capacity = 2;
    cfg.cache_policy = policy;
    PhaseRunner runner(w.cluster, cfg);
    const PhaseResult r = runner.run(std::move(work));
    EXPECT_TRUE(r.completed) << r.diagnostics;
    return r.rt.cache_misses;
  };
  EXPECT_LT(misses_with(RuntimeConfig::CachePolicy::kLru),
            misses_with(RuntimeConfig::CachePolicy::kFifo));
}

// ---------- torus topology end to end ----------

TEST(Torus, PhasesCompleteAndTakeLongerThanCrossbar) {
  auto elapsed_with = [](sim::Topology topo) {
    sim::NetParams p;
    p.topology = topo;
    p.per_hop = 2000;
    Cluster cluster(8, p);
    std::vector<GPtr<Obj>> objs;
    for (int i = 0; i < 32; ++i)
      objs.push_back(cluster.heap.make<Obj>(sim::NodeId(i % 8)));
    std::vector<NodeWork> work(8);
    work[0].count = 32;
    work[0].item = [&objs](Ctx& ctx, std::uint64_t i) {
      ctx.require(objs[i], [](Ctx& c, const Obj&) { c.charge(100); });
    };
    PhaseRunner runner(cluster, RuntimeConfig::dpa(8));
    const PhaseResult r = runner.run(std::move(work));
    EXPECT_TRUE(r.completed) << r.diagnostics;
    return r.elapsed;
  };
  EXPECT_GT(elapsed_with(sim::Topology::kTorus3d),
            elapsed_with(sim::Topology::kCrossbar));
}

// ---------- phase accounting ----------

TEST(Phase, BreakdownComponentsSumToElapsed) {
  World w(2, 16, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 16;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [](Ctx& c, const Obj&) { c.charge(300); });
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(8));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed) << r.diagnostics;
  for (const auto& n : r.nodes) {
    EXPECT_EQ(n.compute + n.runtime + n.comm, n.busy_total);
    EXPECT_EQ(n.busy_total + n.idle, r.elapsed);
  }
}

TEST(Phase, EmptyWorkCompletesImmediately) {
  World w(4, 0);
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(50));
  const PhaseResult r = runner.run(w.idle_work());
  EXPECT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.threads_created, 0u);
}

TEST(Phase, DeterministicAcrossRuns) {
  auto run_once = [] {
    World w(4, 64);
    auto work = w.idle_work();
    for (std::uint32_t n = 0; n < 4; ++n) {
      work[n].count = 32;
      work[n].item = [&w, n](Ctx& ctx, std::uint64_t i) {
        ctx.require(w.objs[(i * 7 + n * 13) % 64],
                    [](Ctx& c, const Obj&) { c.charge(111); });
      };
    }
    PhaseRunner runner(w.cluster, RuntimeConfig::dpa(8));
    const PhaseResult r = runner.run(std::move(work));
    EXPECT_TRUE(r.completed) << r.diagnostics;
    return std::tuple(r.elapsed, r.rt.refs_requested, r.rt.request_msgs,
                      r.rt.threads_run);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Phase, MultiNodePhaseDistributesWork) {
  // The same total work on 1 node vs 4 nodes: 4 nodes must be faster.
  auto run_nodes = [](std::uint32_t nodes) {
    Cluster cluster(nodes, test_net());
    std::vector<GPtr<Obj>> objs;
    for (int i = 0; i < 64; ++i)
      objs.push_back(cluster.heap.make<Obj>(sim::NodeId(i % nodes)));
    std::vector<NodeWork> work(nodes);
    const std::uint64_t per = 256 / nodes;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      work[n].count = per;
      work[n].item = [&objs, n](Ctx& ctx, std::uint64_t i) {
        ctx.require(objs[(n * 31 + i) % 64],
                    [](Ctx& c, const Obj&) { c.charge(20000); });
      };
    }
    PhaseRunner runner(cluster, RuntimeConfig::dpa(32));
    const PhaseResult r = runner.run(std::move(work));
    EXPECT_TRUE(r.completed) << r.diagnostics;
    return r.elapsed;
  };
  const Time t1 = run_nodes(1);
  const Time t4 = run_nodes(4);
  EXPECT_LT(t4, t1);
  EXPECT_GT(double(t1) / double(t4), 2.5);  // at least 2.5x on 4 nodes
}

TEST(Phase, WrongWorkSizeDies) {
  World w(2, 1);
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(50));
  std::vector<NodeWork> work(1);
  EXPECT_DEATH(runner.run(std::move(work)), "one NodeWork per node");
}

TEST(Config, AggregationWithoutPipeliningDies) {
  RuntimeConfig cfg;
  cfg.aggregation = true;
  cfg.pipelining = false;
  EXPECT_DEATH(cfg.validate(), "aggregation requires pipelining");
}

TEST(Config, DescribeNamesTheConfiguration) {
  EXPECT_NE(RuntimeConfig::dpa(50).describe().find("strip=50"),
            std::string::npos);
  EXPECT_NE(RuntimeConfig::caching().describe().find("caching"),
            std::string::npos);
  EXPECT_NE(RuntimeConfig::prefetching(4).describe().find("prefetch"),
            std::string::npos);
  EXPECT_NE(RuntimeConfig::blocking().describe().find("blocking"),
            std::string::npos);
}

TEST(Diagnostics, DroppedRequestSurfacesAsIncompletePhase) {
  // Fault injection: the first request message vanishes. The phase must
  // not complete, and the diagnostics must name the stuck node's state.
  World w(2, 8, /*pin_home=*/1);
  w.cluster.fm().drop_nth_message(1);
  auto work = w.idle_work();
  work[0].count = 8;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [](Ctx&, const Obj&) {});
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(8));
  const PhaseResult r = runner.run(std::move(work));
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.diagnostics.find("dpa node 0"), std::string::npos);
  EXPECT_NE(r.diagnostics.find("outstanding 8"), std::string::npos);
  EXPECT_EQ(w.cluster.fm().dropped_messages(), 1u);
}

TEST(Diagnostics, DroppedReplySurfacesAsIncompletePhase) {
  World w(2, 4, /*pin_home=*/1);
  w.cluster.fm().drop_nth_message(2);  // 1st = request, 2nd = its reply
  auto work = w.idle_work();
  work[0].count = 4;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [](Ctx&, const Obj&) {});
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(8));
  const PhaseResult r = runner.run(std::move(work));
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.diagnostics.empty());
}

TEST(Diagnostics, DroppedMessageStallsSyncEnginesToo) {
  for (const auto& cfg :
       {RuntimeConfig::caching(), RuntimeConfig::blocking(),
        RuntimeConfig::prefetching(4)}) {
    World w(2, 4, /*pin_home=*/1);
    w.cluster.fm().drop_nth_message(1);
    auto work = w.idle_work();
    work[0].count = 4;
    work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
      ctx.require(w.objs[i], [](Ctx&, const Obj&) {});
    };
    PhaseRunner runner(w.cluster, cfg);
    const PhaseResult r = runner.run(std::move(work));
    EXPECT_FALSE(r.completed) << cfg.describe();
    EXPECT_NE(r.diagnostics.find("waiting"), std::string::npos)
        << cfg.describe() << "\n" << r.diagnostics;
  }
}

TEST(Diagnostics, EngineStateDumpsNameTheNodeAndProgress) {
  // The per-node state dumps are what a deadlocked phase reports; pin
  // their shape.
  World w(2, 4, /*pin_home=*/1);
  auto work = w.idle_work();
  work[0].count = 4;
  work[0].item = [&w](Ctx& ctx, std::uint64_t i) {
    ctx.require(w.objs[i], [](Ctx&, const Obj&) {});
  };
  PhaseRunner runner(w.cluster, RuntimeConfig::dpa(2));
  const PhaseResult r = runner.run(std::move(work));
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.diagnostics.empty());  // nothing to report on success
}

}  // namespace
}  // namespace dpa::rt
