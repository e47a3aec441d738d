#include "runtime/dpa_engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "support/assert.h"

namespace dpa::rt {

namespace {
// Local-pointer threads are cheap; run a few per scheduling unit.
constexpr std::size_t kLocalBatch = 8;
}  // namespace

DpaEngine::DpaEngine(Cluster& cluster, NodeId node, const RuntimeConfig& cfg,
                     fm::HandlerId h_req, fm::HandlerId h_reply,
                     fm::HandlerId h_accum)
    : EngineBase(cluster, node, cfg, h_req, h_reply, h_accum),
      agg_(cluster.num_nodes()),
      acc_(cluster.num_nodes()) {
  // Histograms are single-writer; engines on the native backend run on
  // concurrent worker threads, so they record only on the simulator.
  if (cluster.obs != nullptr && cluster.exec().is_sim()) {
    auto& m = cluster.obs->metrics;
    h_ref_latency_ = m.histogram("rt.ref_latency_ns");
    h_tile_occupancy_ = m.histogram("rt.tile_occupancy");
    h_m_residency_ = m.histogram("rt.m_residency");
  }
}

void DpaEngine::accumulate(sim::Cpu& cpu, GlobalRef ref, AccumFn update) {
  if (!cfg_.aggregation || ref.home == node_) {
    EngineBase::accumulate(cpu, ref, std::move(update));
    return;
  }
  cpu.charge(cfg_.cost.accum_marshal, sim::Work::kComm);
  auto& buf = acc_[ref.home];
  buf.emplace_back(ref, std::move(update));
  ++acc_total_;
  if (buf.size() >= cfg_.agg_max_refs) {
    std::vector<std::pair<GlobalRef, AccumFn>> items = std::move(buf);
    buf.clear();
    acc_total_ -= std::uint32_t(items.size());
    send_accum(cpu, ref.home, std::move(items));
  }
}

void DpaEngine::require(sim::Cpu& cpu, GlobalRef ref, ThreadFn thread) {
  const auto& cost = cfg_.cost;
  cpu.charge(cost.thread_create, sim::Work::kRuntime);
  ++stats_.threads_created;
  stats_.outstanding_threads.add(1);
  DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadCreated, node_,
                                cpu.logical_now(), ref.bytes));

  if (ref.home == node_) {
    cpu.charge(cost.local_enqueue, sim::Work::kRuntime);
    ++stats_.local_threads;
    if (cfg_.deterministic) {
      order_.push(OrderUnit{kLocalThread, ref, std::move(thread)});
    } else {
      local_ready_.push(ref, std::move(thread));
    }
    return;
  }

  DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadSuspended, node_,
                                cpu.logical_now()));
  const auto [it, inserted] =
      m_.try_emplace(ref.addr, std::uint32_t(tiles_.size()));
  const std::uint32_t t = it->second;
  if (inserted) tiles_.emplace_back();
  Tile& tile = tiles_[t];
  if (inserted) {
    tile.ref = ref;
    tile.waiters.push_back(std::move(thread));
    stats_.m_entries.set(std::int64_t(m_.size()));
    DPA_TRACE_EVT(trace_, instant(obs::Ev::kTileOpened, node_,
                                  cpu.logical_now(), m_.size()));
    if (cfg_.deterministic) {
      tile.queued = true;
      order_.push(OrderUnit{t, {}, {}});
    }
    if (cfg_.aggregation) {
      cpu.charge(cost.req_marshal_per_ref, sim::Work::kComm);
      auto& buf = agg_[ref.home];
      buf.push_back(t);
      ++agg_total_;
      if (buf.size() >= cfg_.agg_max_refs) flush_dest(cpu, ref.home);
    } else {
      // Unaggregated: one message per ref, issued at creation. With
      // pipelining off the scheduler stalls until outstanding_ drains,
      // giving synchronous-get behaviour (the paper's Base).
      tile.st = Tile::St::kRequested;
      tile.requested_at = cpu.logical_now();
      ++outstanding_;
      cpu.charge(cost.req_marshal_per_ref, sim::Work::kComm);
      send_request(cpu, ref);
    }
  } else {
    ++stats_.dup_refs_avoided;
    tile.waiters.push_back(std::move(thread));
    if (cfg_.deterministic) {
      // Re-enqueue in creation order if the tile's previous order entry was
      // already consumed (joins before that point share the entry).
      if (!tile.queued) {
        tile.queued = true;
        order_.push(OrderUnit{t, {}, {}});
      }
    } else if (tile.st == Tile::St::kReady && !tile.queued) {
      tile.queued = true;
      ready_tiles_.push(t);
    }
  }
}

void DpaEngine::on_reply(sim::Cpu& cpu, const RefsPayload& reply) {
  const auto& cost = cfg_.cost;
  ++stats_.replies_recv;
  for (const GlobalRef& ref : reply.refs) {
    cpu.charge(cost.reply_unmarshal_per_obj, sim::Work::kComm);
    auto it = m_.find(ref.addr);
    DPA_CHECK(it != m_.end()) << "reply for unknown ref on node " << node_;
    Tile& tile = tiles_[it->second];
    DPA_CHECK(tile.st == Tile::St::kRequested);
    tile.st = Tile::St::kReady;
    if (h_ref_latency_ != nullptr)
      h_ref_latency_->add(
          std::uint64_t(cpu.logical_now() - tile.requested_at));
    DPA_CHECK(outstanding_ > 0);
    --outstanding_;
    stats_.outstanding_refs.add(-1);
    // Deterministic mode: the tile already sits in order_ at its creation
    // position; becoming ready only unblocks the head-of-line consumer.
    if (!cfg_.deterministic && !tile.waiters.empty() && !tile.queued) {
      tile.queued = true;
      ready_tiles_.push(it->second);
    }
  }
  kick();
}

void DpaEngine::dispatch_tile(sim::Cpu& cpu, std::uint32_t t) {
  DPA_DCHECK(t < tiles_.size());
  Tile& tile = tiles_[t];
  tile.queued = false;
  cpu.charge(cfg_.cost.tile_dispatch, sim::Work::kRuntime);
  ++stats_.tiles_run;
  if (h_tile_occupancy_ != nullptr)
    h_tile_occupancy_->add(tile.waiters.size());
  DPA_TRACE_EVT(trace_, instant(obs::Ev::kTileDispatched, node_,
                                cpu.logical_now(), tile.waiters.size()));

  // Take the waiters out: running them may append new waiters to this tile.
  // `tile` must not be touched past this point — a nested require() can grow
  // tiles_, which relocates them.
  const void* const addr = tile.ref.addr;
  auto waiters = std::move(tile.waiters);
  tile.waiters.clear();
  for (const ThreadFn& fn : waiters) {
    DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadResumed, node_,
                                  cpu.logical_now()));
    run_thread(cpu, fn, addr);
    stats_.outstanding_threads.add(-1);
  }
  DPA_TRACE_EVT(trace_, instant(obs::Ev::kTileClosed, node_,
                                cpu.logical_now()));
}

bool DpaEngine::run_ready_tile(sim::Cpu& cpu) {
  if (ready_tiles_.empty()) return false;
  dispatch_tile(cpu, ready_tiles_.pop());
  return true;
}

bool DpaEngine::run_in_order(sim::Cpu& cpu) {
  if (order_.empty()) return false;
  const OrderUnit& head = order_.front();
  if (head.tile == kLocalThread) {
    const OrderUnit unit = order_.pop();
    run_thread(cpu, unit.fn, unit.ref.addr);
    stats_.outstanding_threads.add(-1);
    return true;
  }
  const std::uint32_t t = head.tile;
  const Tile& tile = tiles_[t];
  // Shouldn't happen under the create-all template (buffers are flushed
  // before consumption), but make progress possible regardless. The head of
  // the order queue is blocking on this request, so push it all the way out
  // of the backend's outbound buffers as well.
  if (tile.st == Tile::St::kFresh) {
    flush_dest(cpu, tile.ref.home);
    cluster_.exec().flush(cpu, node_);
  }
  if (tile.st != Tile::St::kReady) return false;  // head-of-line wait
  order_.pop();
  dispatch_tile(cpu, t);
  return true;
}

bool DpaEngine::run_local_threads(sim::Cpu& cpu) {
  if (local_ready_.empty()) return false;
  for (std::size_t i = 0; i < kLocalBatch && !local_ready_.empty(); ++i) {
    const auto [ref, fn] = local_ready_.pop();
    run_thread(cpu, fn, ref.addr);
    stats_.outstanding_threads.add(-1);
  }
  return true;
}

bool DpaEngine::strip_has_uncreated() const {
  return next_root_ < strip_end_;
}

bool DpaEngine::create_next_root(sim::Cpu& cpu) {
  if (!strip_has_uncreated()) return false;
  ++stats_.roots_created;
  Ctx ctx(*this, cpu);
  work_.item(ctx, next_root_++);
  return true;
}

void DpaEngine::flush_dest(sim::Cpu& cpu, NodeId dest) {
  auto& buf = agg_[dest];
  if (buf.empty()) return;
  DPA_DCHECK(agg_total_ >= buf.size());
  agg_total_ -= std::uint32_t(buf.size());
  outstanding_ += buf.size();
  std::shared_ptr<RefsPayload> req = request_payload();
  req->refs.reserve(buf.size());
  for (const std::uint32_t t : buf) {
    Tile& tile = tiles_[t];
    DPA_DCHECK(tile.st == Tile::St::kFresh);
    tile.st = Tile::St::kRequested;
    tile.requested_at = cpu.logical_now();
    req->refs.push_back(tile.ref);
  }
  buf.clear();
  cpu.charge(cfg_.cost.flush_fixed, sim::Work::kComm);
  send_request(cpu, dest, std::move(req));
}

bool DpaEngine::flush_requests(sim::Cpu& cpu) {
  if (agg_total_ == 0) return false;
  for (NodeId d = 0; d < agg_.size(); ++d) flush_dest(cpu, d);
  // Tile boundary: the aggregation buffers just drained into the fabric, so
  // push the backend's own outbound buffering (native message trains) too —
  // request latency should track the engine's batching policy, not the
  // fabric's idle-flush backstop.
  cluster_.exec().flush(cpu, node_);
  return true;
}

bool DpaEngine::flush_all(sim::Cpu& cpu) {
  if (agg_total_ == 0 && acc_total_ == 0) return false;
  flush_requests(cpu);
  for (NodeId d = 0; d < acc_.size(); ++d) {
    auto& buf = acc_[d];
    if (buf.empty()) continue;
    std::vector<std::pair<GlobalRef, AccumFn>> items = std::move(buf);
    buf.clear();
    acc_total_ -= std::uint32_t(items.size());
    cpu.charge(cfg_.cost.flush_fixed, sim::Work::kComm);
    send_accum(cpu, d, std::move(items));
  }
  cluster_.exec().flush(cpu, node_);
  return true;
}

bool DpaEngine::strip_boundary(sim::Cpu& cpu) {
  if (loop_done_) return false;
  DPA_CHECK(ready_tiles_.empty() && local_ready_.empty() && order_.empty() &&
            outstanding_ == 0 && agg_total_ == 0 && acc_total_ == 0)
      << "strip boundary with live work on node " << node_;
  if (!tiles_.empty()) {
    // End of strip: renamed objects and thread slots are released.
    if (h_m_residency_ != nullptr) h_m_residency_->add(m_.size());
    m_.clear();
    tiles_.clear();
    stats_.m_entries.set(0);
  }
  if (next_root_ >= work_.count) {
    loop_done_ = true;
    // Nothing more is created or requested this phase. Free the strip
    // containers, run queues and spare payloads now, on the node's own
    // worker: the next phase's engine teardown runs serially on the main
    // thread.
    tiles_ = std::vector<Tile>();
    m_ = FlatMap<const void*, std::uint32_t>();
    ready_tiles_ = Fifo<std::uint32_t>();
    local_ready_ = Fifo<std::pair<GlobalRef, ThreadFn>>();
    order_ = Fifo<OrderUnit>();
    for (auto& buf : agg_) buf = std::vector<std::uint32_t>();
    release_spares();
    return false;
  }
  cpu.charge(cfg_.cost.strip_setup, sim::Work::kRuntime);
  ++stats_.strips;
  strip_end_ = std::min<std::uint64_t>(work_.count, next_root_ + cfg_.strip_size);
  return true;
}

void DpaEngine::sched(sim::Cpu& cpu) {
  for (std::uint32_t unit = 0; unit < cfg_.poll_batch; ++unit) {
    if (!cfg_.pipelining && outstanding_ > 0) return;  // synchronous gets

    bool did = false;
    if (cfg_.deterministic) {
      // As create-all, but consumption is strictly in creation order via
      // order_; a not-yet-ready head parks the scheduler until the reply's
      // kick (correctness over overlap — see RuntimeConfig::deterministic).
      did = create_next_root(cpu) ||
            (!strip_has_uncreated() && flush_requests(cpu)) ||
            run_in_order(cpu);
    } else if (cfg_.sched_template == SchedTemplate::kCreateAllThenRun) {
      // Once the strip's roots are all created, push the batched requests
      // out *before* chewing through local work: the transfers then overlap
      // with it (this ordering is the point of the create-all template).
      // Accumulation buffers are NOT flushed here — nothing waits on them,
      // so they keep batching until the scheduler idles.
      did = create_next_root(cpu) ||
            (!strip_has_uncreated() && flush_requests(cpu)) ||
            run_ready_tile(cpu) || run_local_threads(cpu);
    } else {
      did = run_ready_tile(cpu) || run_local_threads(cpu) ||
            create_next_root(cpu);
    }
    if (did) continue;

    // Out of ready work: push out any buffered requests, then either wait
    // for replies or cross the strip boundary.
    if (flush_all(cpu)) continue;
    if (outstanding_ > 0) return;  // idle until a reply kicks us
    if (strip_boundary(cpu)) continue;
    return;  // conc loop complete
  }
  kick();  // yield to the inbox, then keep going
}

bool DpaEngine::done() const {
  return loop_done_ && ready_tiles_.empty() && local_ready_.empty() &&
         order_.empty() && outstanding_ == 0 && agg_total_ == 0 &&
         acc_total_ == 0;
}

std::string DpaEngine::state_dump() const {
  std::ostringstream os;
  os << "dpa node " << node_ << ": roots " << next_root_ << "/" << work_.count
     << " strip_end " << strip_end_ << " ready " << ready_tiles_.size()
     << " local " << local_ready_.size() << " order " << order_.size()
     << " outstanding " << outstanding_
     << " agg " << agg_total_ << " m " << m_.size()
     << (loop_done_ ? " loop-done" : " loop-running");
  return os.str();
}

}  // namespace dpa::rt
