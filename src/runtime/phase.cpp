#include "runtime/phase.h"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "runtime/dpa_engine.h"
#include "runtime/prefetch_engine.h"
#include "runtime/sync_engine.h"
#include "support/assert.h"
#include "support/bytes.h"

namespace dpa::rt {

namespace {
double mean_component(const PhaseResult& r, Time NodeBreakdown::*field) {
  if (r.nodes.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& n : r.nodes) sum += sim::to_seconds(n.*field);
  return sum / double(r.nodes.size());
}

// The runtime's wire payloads, flattened for the multi-process backend.
// GlobalRef is trivially copyable (a host pointer + home + size; the
// pointer stays valid across fork — same address space layout), so ref
// vectors travel as raw arrays. AccumFn closures travel as their inline
// capture bytes plus the ops-table pointer as a type token — only
// trivially marshallable closures may cross (DPA_CHECKed at marshal).

exec::WireCodec refs_codec() {
  return exec::WireCodec{
      [](const void* data, std::uint32_t) {
        const auto* msg = static_cast<const RefsPayload*>(data);
        const auto count = std::uint32_t(msg->refs.size());
        std::vector<std::uint8_t> b;
        b.reserve(sizeof(count) + count * sizeof(GlobalRef));
        put(b, count);
        put_raw(b, msg->refs.data(), count * sizeof(GlobalRef));
        return b;
      },
      [](const std::uint8_t* p, std::size_t len) -> std::shared_ptr<void> {
        ByteReader r(p, len);
        auto msg = std::make_shared<RefsPayload>();
        const auto count = r.get<std::uint32_t>();
        DPA_CHECK(r.remaining() == count * sizeof(GlobalRef));
        msg->refs.resize(count);
        r.get_raw(msg->refs.data(), count * sizeof(GlobalRef));
        return msg;
      }};
}

exec::WireCodec accum_codec() {
  return exec::WireCodec{
      [](const void* data, std::uint32_t) {
        const auto* accum = static_cast<const AccumPayload*>(data);
        std::vector<std::uint8_t> b;
        put(b, accum->accum_seq);
        put(b, std::uint32_t(accum->items.size()));
        for (const auto& [ref, fn] : accum->items) {
          DPA_CHECK(fn.is_trivially_marshallable())
              << "accumulate closure captures non-trivial state and cannot "
              << "cross a process boundary";
          put(b, ref);
          put(b, std::uint64_t(std::uintptr_t(fn.marshal_ops())));
          put(b, std::uint32_t(fn.raw_size()));
          put_raw(b, fn.raw_bytes(), fn.raw_size());
        }
        return b;
      },
      [](const std::uint8_t* p, std::size_t len) -> std::shared_ptr<void> {
        ByteReader r(p, len);
        auto accum = std::make_shared<AccumPayload>();
        accum->accum_seq = r.get<std::uint64_t>();
        const auto count = r.get<std::uint32_t>();
        accum->items.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          auto ref = r.get<GlobalRef>();
          const auto ops = r.get<std::uint64_t>();
          const auto size = r.get<std::uint32_t>();
          DPA_CHECK(r.remaining() >= size);
          AccumFn fn = AccumFn::adopt_raw(
              reinterpret_cast<const void*>(std::uintptr_t(ops)), r.pos(),
              size);
          r.skip(size);
          DPA_CHECK(bool(fn)) << "accumulate closure failed to rehydrate";
          accum->items.emplace_back(ref, std::move(fn));
        }
        return accum;
      }};
}
}  // namespace

double PhaseResult::mean_compute_s() const {
  return mean_component(*this, &NodeBreakdown::compute);
}
double PhaseResult::mean_runtime_s() const {
  return mean_component(*this, &NodeBreakdown::runtime);
}
double PhaseResult::mean_comm_s() const {
  return mean_component(*this, &NodeBreakdown::comm);
}
double PhaseResult::mean_idle_s() const {
  return mean_component(*this, &NodeBreakdown::idle);
}

PhaseRunner::PhaseRunner(Cluster& cluster, RuntimeConfig cfg)
    : cluster_(cluster), cfg_(std::move(cfg)) {
  cfg_.validate();
  // Handlers run as tasks on the destination node — on the native backend
  // that is the destination's worker thread, so each touches only its own
  // engine. Every backend delivers each message exactly once. The codecs
  // say how each payload crosses a process boundary when src and dst live
  // in different proc workers (unused elsewhere).
  auto& backend = cluster_.exec();
  h_req_ = backend.register_handler(
      "rt.request",
      [this](sim::Cpu& cpu, const fm::Packet& pkt) {
        engines_[pkt.dst]->serve_request(
            cpu, pkt.src, pkt.bytes,
            std::static_pointer_cast<RefsPayload>(pkt.data));
      },
      refs_codec());
  h_reply_ = backend.register_handler(
      "rt.reply",
      [this](sim::Cpu& cpu, const fm::Packet& pkt) {
        engines_[pkt.dst]->receive_reply(
            cpu, pkt.src, pkt.bytes,
            std::static_pointer_cast<RefsPayload>(pkt.data));
      },
      refs_codec());
  h_accum_ = backend.register_handler(
      "rt.accum",
      [this](sim::Cpu& cpu, const fm::Packet& pkt) {
        engines_[pkt.dst]->serve_accum(
            cpu, pkt.src, pkt.bytes,
            std::static_pointer_cast<AccumPayload>(pkt.data));
      },
      accum_codec());
}

std::unique_ptr<EngineBase> PhaseRunner::make_engine(NodeId node) {
  switch (cfg_.kind) {
    case EngineKind::kDpa:
      return std::make_unique<DpaEngine>(cluster_, node, cfg_, h_req_,
                                         h_reply_, h_accum_);
    case EngineKind::kCaching:
      return std::make_unique<SyncEngine>(cluster_, node, cfg_, h_req_,
                                          h_reply_, h_accum_,
                                          /*use_cache=*/true);
    case EngineKind::kBlocking:
      return std::make_unique<SyncEngine>(cluster_, node, cfg_, h_req_,
                                          h_reply_, h_accum_,
                                          /*use_cache=*/false);
    case EngineKind::kPrefetch:
      return std::make_unique<PrefetchEngine>(cluster_, node, cfg_, h_req_,
                                              h_reply_, h_accum_);
  }
  DPA_PANIC("unknown engine kind");
}

PhaseResult PhaseRunner::run(std::vector<NodeWork> work,
                             std::string_view name) {
  const std::uint32_t n = cluster_.num_nodes();
  DPA_CHECK(work.size() == n)
      << "phase needs one NodeWork per node: " << work.size() << " != " << n;

  engines_.clear();
  engines_.reserve(n);
  for (NodeId i = 0; i < n; ++i) engines_.push_back(make_engine(i));

  auto& backend = cluster_.exec();

  // The phase epilogue runs once per node after quiescence, *in the
  // process that owns the node*: commit the staged accumulations in
  // (src, accum_seq) order — the deterministic half of the two-level
  // reduction, identical on every backend — then flatten the node's
  // result (done flag, runtime stats, diagnostics) into a blob the
  // multi-process backend can ship home. Installed before run_phase so
  // forked workers inherit it.
  backend.set_phase_epilogue([this](NodeId node) {
    EngineBase& engine = *engines_[node];
    engine.commit_accums();
    const std::uint8_t done = engine.done() ? 1 : 0;
    const std::string dump = done ? std::string() : engine.state_dump();
    std::vector<std::uint8_t> b;
    put(b, done);
    put(b, engine.stats());
    put(b, std::uint32_t(dump.size()));
    put_raw(b, dump.data(), dump.size());
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  });

  const Time phase_start = backend.begin_phase();
  if (cluster_.obs != nullptr)
    cluster_.obs->tracer.phase_begin(name, phase_start);
  for (NodeId i = 0; i < n; ++i) engines_[i]->start(std::move(work[i]));

  PhaseResult result;
  const exec::PhaseExec pe = backend.run_phase();
  result.elapsed = pe.elapsed;
  result.sim_events = pe.events;
  result.fm_total = pe.msgs;
  result.wire = pe.wire;
  if (cluster_.obs != nullptr)
    cluster_.obs->tracer.phase_end(name, phase_start + result.elapsed);

  // Decode the per-node epilogue blobs: computed at the end of run_phase()
  // on single-process backends, shipped from the owning workers on the
  // multi-process one. An empty blob means the owning process died before
  // the phase barrier.
  const std::vector<std::string>& blobs = pe.epilogues;
  DPA_CHECK(blobs.size() == n) << "phase record holds " << blobs.size()
                               << " epilogue blobs for " << n << " nodes";
  result.completed = true;
  std::ostringstream diag;
  std::vector<RtNodeStats> node_rt(n);
  for (NodeId i = 0; i < n; ++i) {
    if (blobs[i].empty()) {
      result.completed = false;
      continue;
    }
    ByteReader r(reinterpret_cast<const std::uint8_t*>(blobs[i].data()),
                 blobs[i].size());
    const bool done = r.get<std::uint8_t>() != 0;
    node_rt[i] = r.get<RtNodeStats>();
    const auto dump_len = r.get<std::uint32_t>();
    const auto* dump = reinterpret_cast<const char*>(r.pos());
    r.skip(dump_len);
    if (!done) {
      result.completed = false;
      diag << std::string_view(dump, dump_len) << "\n";
    }
  }
  if (!pe.diagnostics.empty()) {
    result.completed = false;
    diag << pe.diagnostics << "\n";
  }
  result.diagnostics = diag.str();

  result.nodes.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    const auto& proc = backend.node_stats(i);
    auto& nb = result.nodes[i];
    nb.compute = proc.busy[int(sim::Work::kCompute)];
    nb.runtime = proc.busy[int(sim::Work::kRuntime)];
    nb.comm = proc.busy[int(sim::Work::kComm)];
    nb.busy_total = proc.busy_total;
    nb.idle = std::max<Time>(0, result.elapsed - proc.busy_total);
    result.rt.absorb(node_rt[i]);
  }
  const sim::FaultInjector* injector = nullptr;
  if (sim::Machine* m = backend.sim_machine()) {
    result.net = m->network().stats();
    injector = m->network().injector();
    if (injector != nullptr) result.faults = injector->stats();
  }

  if (cluster_.obs != nullptr) {
    auto& m = cluster_.obs->metrics;
    result.rt.publish(m);
    *m.counter("rt.phases") += 1;
    if (backend.kind() == exec::BackendKind::kProc) {
      // Real bytes on the socketpair fabric, merged across all worker
      // processes.
      *m.counter("transport.wire_frames_sent") += result.wire.frames_sent;
      *m.counter("transport.wire_frames_recv") += result.wire.frames_recv;
      *m.counter("transport.wire_bytes_sent") += result.wire.bytes_sent;
      *m.counter("transport.wire_payloads_recv") +=
          result.wire.payloads_recv;
    }
    if (backend.is_sim()) {
      *m.counter("sim.events") += result.sim_events;
      *m.counter("net.messages") += result.net.messages;
      *m.counter("net.bytes") += result.net.bytes;
    } else {
      // Native progress unit: tasks executed across all workers.
      *m.counter("exec.tasks") += result.sim_events;
      *m.counter("exec.elapsed_ns") += std::uint64_t(result.elapsed);
      // Fabric batching + scheduler behavior: mailbox handoffs (message
      // trains), condvar parks taken by idle workers, and whole-node
      // steals/activations from the M:N worker pool.
      *m.counter("exec.trains") += result.fm_total.trains_sent;
      *m.counter("exec.parks") += pe.sched.parks;
      *m.counter("exec.steals") += pe.sched.steals;
      *m.counter("exec.activations") += pe.sched.activations;
      // Drain the per-worker wall-clock profiles (task service time,
      // mailbox-lock wait, train occupancy, park duration, queue depth)
      // into the registry. Safe here: run_phase() returned, workers are
      // parked between phases.
      if (cluster_.obs->shards != nullptr)
        cluster_.obs->shards->publish_profiles(m);
    }
    *m.counter("fm.msgs_sent") += result.fm_total.msgs_sent;
    *m.counter("fm.frags_sent") += result.fm_total.frags_sent;
    *m.counter("fm.msgs_recv") += result.fm_total.msgs_recv;
    *m.counter("fm.bytes_sent") += result.fm_total.bytes_sent;
    *m.counter("fm.bytes_recv") += result.fm_total.bytes_recv;
    if (injector != nullptr) {
      *m.counter("net.fault.dropped_msgs") += result.faults.dropped_msgs;
      *m.counter("net.fault.dup_msgs") += result.faults.dup_msgs;
      *m.counter("net.fault.delayed_frags") += result.faults.delayed_frags;
      *m.counter("net.fault.pauses") += result.faults.pauses;
      // FM's exactly-once recovery traffic.
      *m.counter("fm.retries") += result.fm_total.retries;
      *m.counter("fm.acks_sent") += result.fm_total.acks_sent;
      *m.counter("fm.acks_recv") += result.fm_total.acks_recv;
      *m.counter("fm.dup_msgs_dropped") += result.fm_total.dup_msgs_dropped;
    }
  }
  return result;
}

}  // namespace dpa::rt
