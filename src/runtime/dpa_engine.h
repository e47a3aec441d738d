// The DPA engine: the paper's runtime.
//
// State per node:
//   M     — pointer -> tile {request state, waiting threads}. Updated at
//           every thread-creation site; this is the explicit mapping the
//           paper uses to schedule both threads and communication. Stored
//           as a dense array of the strip's tiles in creation order plus a
//           flat hash from pointer to array index, so a probe walks small
//           slots and every queue below names a tile by its index.
//   ready — tiles whose data arrived: their threads execute back to back
//           (tiling / data reuse).
//   local — threads on node-local pointers (no communication needed).
//   agg   — per-destination buffers of not-yet-requested tiles
//           (aggregation).
//
// Strip-mining: the node's top-level conc loop is executed strip_size
// iterations at a time; M is cleared between strips, which bounds the memory
// held by suspended threads and renamed objects (the paper's k-bounded
// loops). Within a strip, every thread that names the same pointer shares
// one fetch and executes in the same tile.
//
// Messages: a flush fills a request payload and the home sends that same
// payload back as the reply. Returned replies become this engine's spare
// payloads for later requests (EngineBase::request_payload), so a round
// trip allocates nothing once spares exist.
//
// Configurations:
//   pipelining off  -> each new remote ref is requested synchronously; the
//                      node stalls until the reply (Base in the breakdown
//                      figures; tiling still works).
//   aggregation off -> each ref is requested in its own message as soon as
//                      it is created (+Pipelining).
//   both on         -> refs accumulate per destination and flush when a
//                      buffer fills or the scheduler runs out of ready work
//                      (+Aggregation; full DPA).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/engine.h"
#include "support/fifo.h"
#include "support/small_vector.h"

namespace dpa::rt {

class DpaEngine final : public EngineBase {
 public:
  DpaEngine(Cluster& cluster, NodeId node, const RuntimeConfig& cfg,
            fm::HandlerId h_req, fm::HandlerId h_reply,
            fm::HandlerId h_accum);

  void require(sim::Cpu& cpu, GlobalRef ref, ThreadFn thread) override;
  void accumulate(sim::Cpu& cpu, GlobalRef ref, AccumFn update) override;
  bool done() const override;
  std::string state_dump() const override;

 private:
  struct Tile {
    enum class St : std::uint8_t {
      kFresh,      // in an aggregation buffer, not yet requested
      kRequested,  // request in flight
      kReady,      // data available locally (renamed)
    };
    GlobalRef ref;
    St st = St::kFresh;
    bool queued = false;  // present in ready_tiles_ / order_
    sim::Time requested_at = 0;  // when the fetch left (ref-latency metric)
    SmallVector<ThreadFn, 2> waiters;
  };

  // Deterministic mode (cfg.deterministic): one entry per dispatchable unit
  // in thread-creation order — either a tile (by index) or a single
  // local-pointer thread. Consumed strictly head-first; a head tile whose
  // reply has not arrived stalls consumption (head-of-line wait), which is
  // what makes the execution order — and the floating-point accumulation
  // order — independent of message timing.
  static constexpr std::uint32_t kLocalThread = ~std::uint32_t(0);
  struct OrderUnit {
    std::uint32_t tile = kLocalThread;  // kLocalThread => ref + fn below
    GlobalRef ref;
    ThreadFn fn;
  };

  void on_reply(sim::Cpu& cpu, const RefsPayload& reply) override;
  void sched(sim::Cpu& cpu) override;

  // Scheduler actions; each returns true if it did a unit of work.
  bool run_ready_tile(sim::Cpu& cpu);
  bool run_in_order(sim::Cpu& cpu);  // deterministic-mode consumer
  bool run_local_threads(sim::Cpu& cpu);
  bool create_next_root(sim::Cpu& cpu);
  bool flush_all(sim::Cpu& cpu);       // requests + accumulations
  bool flush_requests(sim::Cpu& cpu);  // request buffers only

  // Dispatches tile `t`: runs its waiters back to back. Drops its Tile&
  // before running threads — a nested require() may grow tiles_, which
  // relocates them.
  void dispatch_tile(sim::Cpu& cpu, std::uint32_t t);
  void flush_dest(sim::Cpu& cpu, NodeId dest);
  // Sends dest's buffered accumulations as one message.
  void flush_accums(sim::Cpu& cpu, NodeId dest);
  bool strip_boundary(sim::Cpu& cpu);
  bool strip_has_uncreated() const;

  // M: the strip's tiles in creation order, and pointer -> index into them.
  // Both are cleared at the strip boundary, keeping their capacity, and
  // freed when the conc loop completes, as are the run queues. Every run
  // queue drains by the strip boundary, so its capacity settles at one
  // strip's threads.
  std::vector<Tile> tiles_;
  FlatMap<const void*, std::uint32_t> m_;
  Fifo<std::uint32_t> ready_tiles_;
  Fifo<std::pair<GlobalRef, ThreadFn>> local_ready_;
  Fifo<OrderUnit> order_;  // deterministic mode only
  // Per-destination Fresh tiles; flush_dest copies their refs into a
  // request and clears the buffer, keeping its capacity.
  std::vector<std::vector<std::uint32_t>> agg_;
  std::uint32_t agg_total_ = 0;
  // Per-destination buffered accumulations (flushed with the requests);
  // like agg_, each buffer keeps its capacity across flushes.
  std::vector<std::vector<std::pair<GlobalRef, AccumFn>>> acc_;
  std::uint32_t acc_total_ = 0;
  std::uint64_t strip_end_ = 0;    // roots [strip_begin, strip_end) created
  std::uint64_t outstanding_ = 0;  // refs requested, reply pending
  bool loop_done_ = false;

  // Observability histograms (null when no session is attached).
  Pow2Histogram* h_ref_latency_ = nullptr;     // request depart -> reply, ns
  Pow2Histogram* h_tile_occupancy_ = nullptr;  // threads per dispatched tile
  Pow2Histogram* h_m_residency_ = nullptr;     // |M| at each strip boundary
};

}  // namespace dpa::rt
