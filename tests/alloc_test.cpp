// Heap allocations in a steady-state DPA phase. A phase churns through its
// threads and messages at full rate, but DPA's run queues and the sim and
// native node task queues keep their capacity, and returned replies become
// the next requests, so the allocator sees a fixed per-phase cost (engines
// and their strip containers, the first spares), not a per-thread or
// per-round-trip one.
//
// Its own binary: it replaces the global operator new with a counting one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "gas/heap.h"
#include "runtime/phase.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t bytes, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc wants a size that is a nonzero multiple of the alignment.
  bytes = (std::max<std::size_t>(bytes, 1) + align - 1) / align * align;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(bytes)
                : std::aligned_alloc(align, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t bytes) {
  return counted_alloc(bytes, alignof(std::max_align_t));
}
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_alloc(bytes, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dpa::rt {
namespace {

struct Obj {
  double val = 0.0;
};

constexpr std::uint64_t kObjects = 1024;  // per node
constexpr std::uint64_t kRequiresPerRoot = 8;
constexpr std::uint64_t kThreads = 80'000;  // per phase, all nodes
// Under 1 allocation per 400 threads. A std::deque frees and allocates a
// block every 512 bytes of churn: one per 128 std::uint32_t tile indices,
// which only half the threads here queue, so a per-100-threads bound would
// not see a deque behind ready_tiles_.
constexpr std::uint64_t kMaxAllocs = kThreads / 400;

// Allocations during the second of two identical phases of `cfg` on
// `nodes` nodes. Root i of node n makes kRequiresPerRoot requires; the
// k-th names an object homed on node (n + k) % nodes. On one node every
// require is local (local_ready_); on two, half are remote, so tiles wait
// for replies (ready_tiles_) and replies come back as spare requests.
// Deterministic mode queues both kinds in order_.
std::uint64_t steady_phase_allocs(exec::BackendKind kind,
                                  std::uint32_t nodes,
                                  const RuntimeConfig& cfg) {
  Cluster cluster(nodes, kind);
  std::vector<std::vector<gas::GPtr<Obj>>> objs(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n)
    for (std::uint64_t i = 0; i < kObjects; ++i)
      objs[n].push_back(cluster.heap.make<Obj>(n, Obj{double(i)}));
  PhaseRunner runner(cluster, cfg);
  const auto work = [&objs, nodes] {
    std::vector<NodeWork> w(nodes);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      w[n].count = kThreads / kRequiresPerRoot / nodes;
      w[n].item = [&objs, n, nodes](Ctx& ctx, std::uint64_t i) {
        for (std::uint64_t k = 0; k < kRequiresPerRoot; ++k)
          ctx.require(objs[(n + k) % nodes][(i * kRequiresPerRoot + k) %
                                            kObjects],
                      [](Ctx& c, const Obj& o) { c.charge(Time(o.val) % 7); });
      };
    }
    return w;
  };

  const PhaseResult warm = runner.run(work());
  EXPECT_TRUE(warm.completed) << warm.diagnostics;
  std::vector<NodeWork> w = work();
  const std::uint64_t before = g_allocs.load();
  const PhaseResult r = runner.run(std::move(w));
  const std::uint64_t allocs = g_allocs.load() - before;
  EXPECT_TRUE(r.completed) << r.diagnostics;
  EXPECT_EQ(r.rt.threads_run, kThreads);
  if (nodes > 1) {
    EXPECT_GT(r.rt.request_msgs, 0u);
  }
  return allocs;
}

TEST(AllocTest, CountsEveryOperatorNew) {
  struct alignas(64) Overaligned {
    char c = 0;
  };
  const std::uint64_t before = g_allocs.load();
  delete new int(1);
  delete new Overaligned;
  EXPECT_EQ(g_allocs.load() - before, 2u);
}

struct Shape {
  const char* name;
  std::uint32_t nodes;
  bool deterministic;
};

constexpr Shape kShapes[] = {
    {"LocalRequires", 1, false},
    {"RemoteRequires", 2, false},
    {"Deterministic", 2, true},
};

class QueueChurn : public ::testing::TestWithParam<
                       std::tuple<exec::BackendKind, Shape>> {};

TEST_P(QueueChurn, AllocatesUnderOnePerFourHundredThreads) {
  const auto& [kind, shape] = GetParam();
  const RuntimeConfig cfg = shape.deterministic
                                ? RuntimeConfig::dpa_deterministic(50)
                                : RuntimeConfig::dpa(50);
  const std::uint64_t allocs = steady_phase_allocs(kind, shape.nodes, cfg);
  RecordProperty("allocations", std::to_string(allocs));
  EXPECT_LT(allocs, kMaxAllocs) << allocs << " allocations";
}

INSTANTIATE_TEST_SUITE_P(
    AllocTest, QueueChurn,
    ::testing::Combine(::testing::Values(exec::BackendKind::kSim,
                                         exec::BackendKind::kNative),
                       ::testing::ValuesIn(kShapes)),
    [](const auto& info) {
      const bool sim = std::get<0>(info.param) == exec::BackendKind::kSim;
      return std::string(sim ? "Sim" : "Native") + std::get<1>(info.param).name;
    });

// Allocations per accumulation message in a steady 2-node DPA(50) phase:
// node 0's roots each make kRequiresPerRoot remote accumulates into node
// 1's objects, which leave in messages of up to agg_max_refs updates. The
// count is the difference between a phase of 2R roots and one of R roots
// (both after a warm-up), against the difference in messages, so the
// phase's fixed cost (engines, strip containers) cancels. A message costs
// its AccumPayload and its exactly-sized item vector; the per-destination
// buffer that fills it keeps its capacity. The bound's slack is for
// containers that grow with the phase, not with each message: the
// receiver's per-phase staging vector doubles once more in the larger
// phase, and on native the workers' run queues (std::deque) take a block
// per 128 node activations, a count that host timing decides.
struct AccumAllocs {
  std::uint64_t allocs = 0;  // 2R-root phase minus R-root phase
  std::uint64_t msgs = 0;    // accumulation messages, likewise
};

AccumAllocs remote_accum_allocs(exec::BackendKind kind) {
  constexpr std::uint64_t kRoots = 5'000;
  Cluster cluster(2, kind);
  std::vector<gas::GPtr<Obj>> objs;
  for (std::uint64_t i = 0; i < kObjects; ++i)
    objs.push_back(cluster.heap.make<Obj>(1, Obj{0.0}));
  PhaseRunner runner(cluster, RuntimeConfig::dpa(50));
  const auto measure = [&](std::uint64_t roots) {
    std::vector<NodeWork> w(2);
    w[0].count = roots;
    w[0].item = [&objs](Ctx& ctx, std::uint64_t i) {
      for (std::uint64_t k = 0; k < kRequiresPerRoot; ++k)
        ctx.accumulate(objs[(i * kRequiresPerRoot + k) % kObjects],
                       [](Obj& o) { o.val += 1.0; });
    };
    const std::uint64_t before = g_allocs.load();
    const PhaseResult r = runner.run(std::move(w));
    const std::uint64_t allocs = g_allocs.load() - before;
    EXPECT_TRUE(r.completed) << r.diagnostics;
    EXPECT_EQ(r.rt.accums_issued, roots * kRequiresPerRoot);
    return AccumAllocs{allocs, r.rt.accum_msgs};
  };
  measure(2 * kRoots);  // warm-up
  const AccumAllocs small = measure(kRoots);
  const AccumAllocs large = measure(2 * kRoots);
  EXPECT_GT(large.msgs, small.msgs);
  return AccumAllocs{large.allocs - small.allocs, large.msgs - small.msgs};
}

TEST(AllocTest, RemoteAccumulationsAllocateTwicePerMessage) {
  for (const exec::BackendKind kind :
       {exec::BackendKind::kSim, exec::BackendKind::kNative}) {
    const bool sim = kind == exec::BackendKind::kSim;
    const AccumAllocs a = remote_accum_allocs(kind);
    RecordProperty(sim ? "sim_allocs" : "native_allocs",
                   std::to_string(a.allocs));
    RecordProperty(sim ? "sim_msgs" : "native_msgs", std::to_string(a.msgs));
    EXPECT_LE(a.allocs, 2 * a.msgs + 8)
        << (sim ? "sim: " : "native: ") << a.allocs << " allocations for "
        << a.msgs << " accumulation messages";
  }
}

}  // namespace
}  // namespace dpa::rt
