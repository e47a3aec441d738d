// Quickstart: the DPA runtime API in one file.
//
// We build a binary tree whose nodes are scattered over a simulated 8-node
// machine, then sum it in parallel. Each tree node visit is a non-blocking
// thread labeled with the node's global pointer (`ctx.require`); the DPA
// runtime fetches remote nodes in aggregated batches, overlaps transfers
// with local work, and runs threads that share an object back to back.
//
//   ./quickstart            # DPA
//   ./quickstart --caching  # the software-caching baseline, for contrast
#include <cstdio>
#include <memory>
#include <vector>

#include "gas/heap.h"
#include "obs/session.h"
#include "runtime/phase.h"
#include "support/options.h"
#include "support/rng.h"

using namespace dpa;

// A globally addressable tree node.
struct TreeNode {
  double value = 0;
  gas::GPtr<TreeNode> left;
  gas::GPtr<TreeNode> right;
};

// Builds a random tree with nodes homed on random simulated nodes.
gas::GPtr<TreeNode> build_tree(rt::Cluster& cluster, Rng& rng, int depth,
                               double* expected_sum) {
  TreeNode node;
  node.value = rng.uniform(0, 1);
  *expected_sum += node.value;
  auto self = cluster.heap.make<TreeNode>(
      sim::NodeId(rng.next_below(cluster.num_nodes())), node);
  if (depth > 0) {
    auto* mut = gas::GlobalHeap::mutate(self);
    mut->left = build_tree(cluster, rng, depth - 1, expected_sum);
    if (rng.chance(0.9))
      mut->right = build_tree(cluster, rng, depth - 1, expected_sum);
  }
  return self;
}

// The traversal, written as the paper's compiler would emit it: a
// non-blocking thread per node, labeled with the node's pointer.
void sum_tree(rt::Ctx& ctx, gas::GPtr<TreeNode> node, double* sum) {
  ctx.require(node, [sum](rt::Ctx& ctx2, const TreeNode& n) {
    ctx2.charge(150);  // model ~150ns of work per visit
    *sum += n.value;
    if (n.left) sum_tree(ctx2, n.left, sum);
    if (n.right) sum_tree(ctx2, n.right, sum);
  });
}

int main(int argc, char** argv) {
  bool caching = false;
  bool trace = false;
  std::int64_t depth = 12;
  Options options;
  options.flag("caching", &caching, "use the software-caching baseline")
      .flag("trace", &trace, "print the first lines of the execution trace")
      .i64("depth", &depth, "tree depth");
  if (!options.parse(argc, argv)) return 0;

  // An 8-node machine with Cray-T3D-like network parameters.
  rt::Cluster cluster(8, sim::NetParams{});
  Rng rng(2024);
  double expected = 0;
  const auto root = build_tree(cluster, rng, int(depth), &expected);
  std::printf("tree with %llu nodes across %u simulated nodes\n",
              (unsigned long long)cluster.heap.total_objects(),
              cluster.num_nodes());

  obs::Session session;
  if (trace) cluster.attach_obs(&session);

  const auto cfg =
      caching ? rt::RuntimeConfig::caching() : rt::RuntimeConfig::dpa(64);
  rt::PhaseRunner runner(cluster, cfg);

  // Node 0's conc loop has a single iteration: walk the whole tree.
  auto sum = std::make_shared<double>(0.0);
  std::vector<rt::NodeWork> work(cluster.num_nodes());
  work[0].count = 1;
  work[0].item = [&root, sum](rt::Ctx& ctx, std::uint64_t) {
    sum_tree(ctx, root, sum.get());
  };

  const rt::PhaseResult result = runner.run(std::move(work));
  if (!result.completed) {
    std::fprintf(stderr, "phase deadlocked:\n%s", result.diagnostics.c_str());
    return 1;
  }

  std::printf("engine            %s\n", cfg.describe().c_str());
  std::printf("sum               %.6f (expected %.6f)\n", *sum, expected);
  std::printf("simulated time    %.3f ms\n", result.seconds() * 1e3);
  std::printf("threads run       %llu\n",
              (unsigned long long)result.rt.threads_run);
  std::printf("remote fetches    %llu in %llu messages (aggregation %.1fx)\n",
              (unsigned long long)result.rt.refs_requested,
              (unsigned long long)result.rt.request_msgs,
              result.rt.aggregation_factor());
  std::printf("cache hit rate    %.1f%%\n",
              100.0 * result.rt.cache_hit_rate());
  if (trace) {
    std::printf("\n--- execution trace (first 30 events) ---\n");
    if (!obs::kTraceEnabled) std::printf("(built with DPA_TRACE=OFF)\n");
    const std::vector<obs::TraceEvent> events = session.tracer.snapshot();
    for (std::size_t i = 0; i < events.size() && i < 30; ++i) {
      const obs::TraceEvent& ev = events[i];
      std::printf("%8lld ns  node %u  %-16s", (long long)ev.at, ev.node,
                  ev.label != nullptr ? ev.label : obs::to_string(ev.kind));
      if (ev.end != 0) std::printf("  until %lld", (long long)ev.end);
      if (ev.kind == obs::Ev::kWire || ev.kind == obs::Ev::kMsgDepart ||
          ev.kind == obs::Ev::kMsgArrive)
        std::printf("  peer %u", ev.peer);
      if (ev.arg != 0) std::printf("  arg %llu", (unsigned long long)ev.arg);
      std::printf("\n");
    }
    if (events.size() > 30)
      std::printf("... (%zu more)\n", events.size() - 30);
  }
  return 0;
}
