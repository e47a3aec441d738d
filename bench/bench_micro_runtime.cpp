// Microbenchmarks (google-benchmark, real host time): the per-primitive
// costs of the simulation substrate and the DPA runtime. These measure the
// *host* cost of simulating one unit — useful for knowing how big a
// simulated machine the harness can afford — not the modeled T3D costs.
#include <benchmark/benchmark.h>

#include <functional>
#include <unordered_map>

#include "apps/barnes/plummer.h"
#include "apps/barnes/tree.h"
#include "gas/heap.h"
#include "runtime/phase.h"
#include "support/flat_map.h"
#include "support/inline_fn.h"
#include "support/rng.h"

namespace {

using namespace dpa;

void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) engine.schedule_at(i, [] {});
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleRun);

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_MortonKey(benchmark::State& state) {
  const apps::Vec3 c{0, 0, 0};
  apps::Vec3 p{0.3, -0.2, 0.7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::barnes::morton_key(p, c, 1.0));
    p.x += 1e-9;
  }
}
BENCHMARK(BM_MortonKey);

void BM_TreeBuild(benchmark::State& state) {
  const auto bodies =
      apps::barnes::plummer_model(std::uint32_t(state.range(0)), 42);
  for (auto _ : state) {
    auto tree = apps::barnes::BhTree::build(bodies);
    benchmark::DoNotOptimize(tree.num_cells());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeBuild)->Arg(1024)->Arg(8192);

// One simulated remote fetch end to end: thread create, M insert, request,
// reply, tile dispatch, thread run.
void BM_DpaRemoteFetch(benchmark::State& state) {
  struct Obj {
    double v;
  };
  for (auto _ : state) {
    state.PauseTiming();
    rt::Cluster cluster(2, sim::NetParams{});
    std::vector<gas::GPtr<Obj>> objs;
    for (int i = 0; i < 512; ++i)
      objs.push_back(cluster.heap.make<Obj>(1, Obj{double(i)}));
    rt::PhaseRunner runner(cluster, rt::RuntimeConfig::dpa(64));
    std::vector<rt::NodeWork> work(2);
    work[0].count = 512;
    work[0].item = [&objs](rt::Ctx& ctx, std::uint64_t i) {
      ctx.require(objs[std::size_t(i)], [](rt::Ctx&, const Obj&) {});
    };
    state.ResumeTiming();
    const auto result = runner.run(std::move(work));
    benchmark::DoNotOptimize(result.elapsed);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_DpaRemoteFetch);

// --- Container head-to-head: the M-map access pattern ---
//
// One strip of the DPA engine: insert `n` pointer keys (dup joins probe the
// same keys), look them all up (reply processing), then clear (strip
// boundary). FlatMap is the production container; the unordered_map twin
// exists to keep the win measurable on this host.

constexpr int kMapKeys = 512;

template <class Map>
void map_churn(benchmark::State& state) {
  struct Obj {
    double v;
  };
  std::vector<Obj> objs(kMapKeys);
  for (auto _ : state) {
    Map m;
    for (int i = 0; i < kMapKeys; ++i) m.try_emplace(&objs[i], 0);
    std::uint64_t sum = 0;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < kMapKeys; ++i) {
        auto it = m.find(&objs[i]);
        sum += std::uint64_t(it->second += 1);
      }
    }
    benchmark::DoNotOptimize(sum);
    m.clear();
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(state.iterations() * kMapKeys * 5);
}

void BM_MapChurn_FlatMap(benchmark::State& state) {
  map_churn<FlatMap<const void*, int>>(state);
}
BENCHMARK(BM_MapChurn_FlatMap);

void BM_MapChurn_UnorderedMap(benchmark::State& state) {
  map_churn<std::unordered_map<const void*, int>>(state);
}
BENCHMARK(BM_MapChurn_UnorderedMap);

// --- Callable head-to-head: the thread-continuation pattern ---
//
// Create a capturing closure, store it in the runtime's callable type, and
// invoke it through type erasure — the per-thread cost require() pays.

template <class Fn>
void closure_roundtrip(benchmark::State& state) {
  struct Obj {
    double v = 1.0;
  };
  Obj obj;
  double acc = 0;
  for (auto _ : state) {
    Fn fn = [&obj, &acc, scale = 2.0](const void* p) {
      acc += static_cast<const Obj*>(p)->v * scale;
    };
    fn(&obj);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Closure_InlineFn(benchmark::State& state) {
  closure_roundtrip<InlineFn<void(const void*), 48>>(state);
}
BENCHMARK(BM_Closure_InlineFn);

void BM_Closure_StdFunction(benchmark::State& state) {
  closure_roundtrip<std::function<void(const void*)>>(state);
}
BENCHMARK(BM_Closure_StdFunction);

// Local thread creation + dispatch only.
void BM_DpaLocalThreads(benchmark::State& state) {
  struct Obj {
    double v;
  };
  for (auto _ : state) {
    state.PauseTiming();
    rt::Cluster cluster(1, sim::NetParams{});
    std::vector<gas::GPtr<Obj>> objs;
    for (int i = 0; i < 2048; ++i)
      objs.push_back(cluster.heap.make<Obj>(0, Obj{double(i)}));
    rt::PhaseRunner runner(cluster, rt::RuntimeConfig::dpa(256));
    std::vector<rt::NodeWork> work(1);
    work[0].count = 2048;
    work[0].item = [&objs](rt::Ctx& ctx, std::uint64_t i) {
      ctx.require(objs[std::size_t(i)], [](rt::Ctx&, const Obj&) {});
    };
    state.ResumeTiming();
    const auto result = runner.run(std::move(work));
    benchmark::DoNotOptimize(result.elapsed);
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_DpaLocalThreads);

}  // namespace

BENCHMARK_MAIN();
