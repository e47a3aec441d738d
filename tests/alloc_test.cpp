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

}  // namespace
}  // namespace dpa::rt
