#include "runtime/engine.h"

#include <algorithm>
#include <utility>

#include "exec/sim_backend.h"
#include "support/assert.h"

namespace dpa::rt {

fm::FmLayer& Cluster::fm() {
  DPA_CHECK(backend->is_sim()) << "cluster is not on the sim backend";
  return static_cast<exec::SimBackend*>(backend.get())->fm();
}

EngineBase::EngineBase(Cluster& cluster, NodeId node,
                       const RuntimeConfig& cfg, fm::HandlerId h_req,
                       fm::HandlerId h_reply, fm::HandlerId h_accum)
    : cluster_(cluster),
      node_(node),
      cfg_(cfg),
      h_req_(h_req),
      h_reply_(h_reply),
      h_accum_(h_accum) {
  // Both trace sinks are single-writer structures. On the sim backend all
  // engines run on the one simulator thread and share the session tracer;
  // on the native backend each engine runs on its own worker thread and
  // records into that worker's shard. Registry histograms stay sim-only
  // (Pow2Histogram is not thread-safe; native workers accumulate into
  // per-shard profiles instead, merged post-phase).
  if (cluster.obs != nullptr) {
    if (cluster.exec().is_sim()) {
      trace_ = &cluster.obs->tracer;
      h_msg_bytes_ = cluster.obs->metrics.histogram("rt.msg_bytes");
    } else if (obs::kTraceEnabled && cluster.obs->shards != nullptr) {
      trace_ = &cluster.obs->shards->shard(node_);
    }
  }
}

void EngineBase::accumulate(sim::Cpu& cpu, GlobalRef ref, AccumFn update) {
  // Default (baseline engines): apply locally or send one message per
  // update. DpaEngine overrides this with per-destination batching.
  const auto& cost = cfg_.cost;
  if (ref.home == node_) {
    cpu.charge(cost.accum_apply, sim::Work::kCompute);
    ++stats_.accums_local;
    update(const_cast<void*>(ref.addr));
    return;
  }
  cpu.charge(cost.accum_marshal, sim::Work::kComm);
  std::vector<std::pair<GlobalRef, AccumFn>> items;
  items.emplace_back(ref, std::move(update));
  send_accum(cpu, ref.home, std::move(items));
}

void EngineBase::send_accum(
    sim::Cpu& cpu, NodeId home,
    std::vector<std::pair<GlobalRef, AccumFn>> items) {
  DPA_DCHECK(!items.empty());
  const auto& cost = cfg_.cost;
  stats_.accums_issued += items.size();
  ++stats_.accum_msgs;
  const std::uint32_t bytes =
      cost.msg_header_bytes +
      std::uint32_t(items.size()) *
          (cost.req_bytes_per_ref + cost.accum_payload_bytes);
  if (h_msg_bytes_ != nullptr) h_msg_bytes_->add(bytes);
  DPA_TRACE_EVT(trace_, msg_event(obs::Ev::kMsgDepart, obs::MsgCause::kAccum,
                                  node_, home, bytes, cpu.logical_now()));
  auto payload = std::make_shared<AccumPayload>();
  payload->accum_seq = ++accum_seq_next_;
  payload->items = std::move(items);
  cluster_.backend->send(cpu, node_, home, h_accum_, std::move(payload),
                         bytes);
}

// The arrival paths' [[maybe_unused]] parameters feed only their trace
// record, which DPA_TRACE=OFF compiles out.
void EngineBase::serve_accum(sim::Cpu& cpu, NodeId src,
                             [[maybe_unused]] std::uint32_t bytes,
                             std::shared_ptr<AccumPayload> payload) {
  const auto& cost = cfg_.cost;
  DPA_TRACE_EVT(trace_, msg_event(obs::Ev::kMsgArrive, obs::MsgCause::kAccum,
                                  node_, src, bytes, cpu.logical_now()));
  // Arrival-time costs stay on the arrival path (identical modeled timing);
  // the mutations themselves wait for commit_accums() so their order is a
  // sorted, timing-independent function of who sent what.
  for (const auto& [ref, fn] : payload->items) {
    DPA_DCHECK(ref.home == node_);
    (void)fn;
    cpu.charge(cost.accum_apply, sim::Work::kCompute);
    ++stats_.accums_applied;
  }
  staged_accums_.push_back(
      StagedAccum{src, payload->accum_seq, std::move(payload)});
}

void EngineBase::commit_accums() {
  std::sort(staged_accums_.begin(), staged_accums_.end(),
            [](const StagedAccum& a, const StagedAccum& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (const StagedAccum& s : staged_accums_) {
    for (const auto& [ref, fn] : s.payload->items)
      fn(const_cast<void*>(ref.addr));
  }
  staged_accums_.clear();
}

void EngineBase::start(NodeWork work) {
  work_ = std::move(work);
  next_root_ = 0;
  kick();
}

void EngineBase::kick() {
  if (sched_pending_) return;
  sched_pending_ = true;
  cluster_.backend->post(node_, [this](sim::Cpu& cpu) {
    sched_pending_ = false;
    sched(cpu);
  });
}

std::shared_ptr<RefsPayload> EngineBase::request_payload() {
  // The newest free spare is reused; fault-free that is nearly always the
  // top one. On a faulted simulator FM holds each reply until its ack
  // comes back, so the top spares may still be held while older ones are
  // free; looking past them keeps held replies from piling up.
  for (std::size_t i = spares_.size(); i-- > 0;) {
    if (spares_[i].use_count() != 1) continue;
    std::swap(spares_[i], spares_.back());
    std::shared_ptr<RefsPayload> req = std::move(spares_.back());
    spares_.pop_back();
    req->refs.clear();
    return req;
  }
  return std::make_shared<RefsPayload>();
}

void EngineBase::send_request(sim::Cpu& cpu, NodeId home,
                              std::shared_ptr<RefsPayload> req) {
  DPA_DCHECK(!req->refs.empty());
  DPA_DCHECK(home != node_) << "request to self";
  const auto& cost = cfg_.cost;
  const std::uint32_t n = std::uint32_t(req->refs.size());
  stats_.refs_requested += n;
  ++stats_.request_msgs;
  stats_.outstanding_refs.add(std::int64_t(n));

  const std::uint32_t bytes =
      cost.msg_header_bytes + cost.req_bytes_per_ref * n;
  if (h_msg_bytes_ != nullptr) h_msg_bytes_->add(bytes);
  DPA_TRACE_EVT(trace_, msg_event(obs::Ev::kMsgDepart, obs::MsgCause::kRequest,
                                  node_, home, bytes, cpu.logical_now()));
  cluster_.backend->send(cpu, node_, home, h_req_, std::move(req), bytes);
}

void EngineBase::send_request(sim::Cpu& cpu, const GlobalRef& ref) {
  std::shared_ptr<RefsPayload> req = request_payload();
  req->refs.push_back(ref);
  send_request(cpu, ref.home, std::move(req));
}

void EngineBase::serve_request(sim::Cpu& cpu, NodeId src,
                               [[maybe_unused]] std::uint32_t bytes,
                               std::shared_ptr<RefsPayload> req) {
  const auto& cost = cfg_.cost;
  ++stats_.requests_served;
  stats_.refs_served += req->refs.size();
  DPA_TRACE_EVT(trace_, msg_event(obs::Ev::kMsgArrive, obs::MsgCause::kRequest,
                                  node_, src, bytes, cpu.logical_now()));

  std::uint32_t reply_bytes = cost.msg_header_bytes;
  for (const GlobalRef& ref : req->refs) {
    DPA_DCHECK(ref.home == node_)
        << "request for object homed on " << ref.home << " arrived at node "
        << node_;
    cpu.charge(cost.serve_lookup_per_ref, sim::Work::kComm);
    reply_bytes += cost.obj_header_bytes + ref.bytes;
  }
  if (h_msg_bytes_ != nullptr) h_msg_bytes_->add(reply_bytes);
  DPA_TRACE_EVT(trace_,
                msg_event(obs::Ev::kMsgDepart, obs::MsgCause::kReply, node_,
                          src, reply_bytes, cpu.logical_now()));
  cluster_.backend->send(cpu, node_, src, h_reply_, std::move(req),
                         reply_bytes);
}

void EngineBase::receive_reply(sim::Cpu& cpu, [[maybe_unused]] NodeId src,
                               [[maybe_unused]] std::uint32_t bytes,
                               std::shared_ptr<RefsPayload> reply) {
  DPA_TRACE_EVT(trace_, msg_event(obs::Ev::kMsgArrive, obs::MsgCause::kReply,
                                  node_, src, bytes, cpu.logical_now()));
  on_reply(cpu, *reply);
  spares_.push_back(std::move(reply));
}

void EngineBase::run_thread(sim::Cpu& cpu, const ThreadFn& fn,
                            const void* data) {
  cpu.charge(cfg_.cost.thread_dispatch, sim::Work::kRuntime);
  ++stats_.threads_run;
  Ctx ctx(*this, cpu);
  fn(ctx, data);
  DPA_TRACE_EVT(trace_, instant(obs::Ev::kThreadRetired, node_,
                                cpu.logical_now()));
}

std::uint32_t Ctx::num_nodes() const {
  return engine_.cluster().num_nodes();
}

}  // namespace dpa::rt
