// Engine interface: what an application phase programs against, and what the
// three scheduling policies (DPA / caching / blocking) implement.
//
// The application expresses its computation as non-blocking threads — the
// form the paper's compiler produces. A thread is a continuation plus the
// global pointer it is labeled with:
//
//   ctx.require(cell_ptr, [=](Ctx& ctx, const Cell& cell) {
//     ctx.charge(interaction_cost);
//     ... read cell's fields, create more threads ...
//   });
//
// How `require` is satisfied is the engine's policy:
//   * DPA       — registers the thread in M[ptr]; tiles, pipelines,
//                 aggregates (the paper's contribution).
//   * caching   — hash-probe a software cache; blocking fetch on miss.
//   * blocking  — synchronous fetch on every remote access.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/backend.h"
#include "fm/fm.h"
#include "gas/global_ptr.h"
#include "gas/heap.h"
#include "obs/session.h"
#include "runtime/config.h"
#include "runtime/stats.h"
#include "sim/machine.h"
#include "support/flat_map.h"
#include "support/inline_fn.h"

namespace dpa::rt {

using gas::GlobalRef;
using gas::GPtr;
using sim::NodeId;
using sim::Time;

class Ctx;

// A non-blocking thread body: runs to completion with its object available.
// Move-only with a 48-byte inline capture buffer — every thread creation in
// the timed phases stays allocation-free (the apps capture a couple of
// pointers; oversized captures still work via a heap fallback).
using ThreadFn = InlineFn<void(Ctx&, const void*), 48>;

// A commutative update applied to an object at its home node (the paper's
// "reductions" extension: remote writes that need no reply).
using AccumFn = InlineFn<void(void*), 48>;

// One node's share of a phase: a top-level conc loop of `count` iterations.
// `item(ctx, i)` creates the root thread(s) of iteration i. InlineFn like
// every other phase-hot callable; app captures that exceed the buffer fall
// back to one heap block per *phase*, not per message.
struct NodeWork {
  std::uint64_t count = 0;
  InlineFn<void(Ctx&, std::uint64_t), 64> item;
};

// Execution substrate + messaging + heap: everything an application needs
// to build and run a distributed pointer-based computation. The substrate
// is either the deterministic simulator (default) or the native threaded
// backend — apps and engines program against this struct either way.
struct Cluster {
  std::unique_ptr<exec::Backend> backend;
  gas::GlobalHeap heap;
  obs::Session* obs = nullptr;  // optional, non-owning

  Cluster(std::uint32_t num_nodes, sim::NetParams params)
      : Cluster(num_nodes, exec::BackendKind::kSim, params) {}

  Cluster(std::uint32_t num_nodes, exec::BackendKind kind,
          sim::NetParams params = sim::NetParams{})
      : backend(exec::make_backend(kind, num_nodes, params)),
        heap(num_nodes) {
    // Multi-process backends snapshot/diff registered memory spans at the
    // phase barrier; every global-heap object is such a span. No-op on
    // single-process backends.
    backend->set_span_source([h = &heap](std::vector<exec::PhaseSpan>& out) {
      for (const gas::GlobalHeap::Span& s : h->object_spans())
        out.push_back(exec::PhaseSpan{s.addr, s.bytes, exec::SpanMerge::kBytes});
    });
  }

  std::uint32_t num_nodes() const { return backend->num_nodes(); }
  exec::Backend& exec() { return *backend; }
  const exec::Backend& exec() const { return *backend; }

  // Sim-only accessors for tests and harnesses that poke the simulator
  // directly (network stats, targeted fault injection, trace plumbing).
  sim::Machine& machine() {
    sim::Machine* m = backend->sim_machine();
    DPA_CHECK(m != nullptr) << "cluster is not on the sim backend";
    return *m;
  }
  fm::FmLayer& fm();

  // Attaches (or detaches, with nullptr) an observability session: the
  // backend hooks its own record sites up to it (Backend::attach_obs),
  // engines record structured events and histograms, and the phase runner
  // publishes per-phase totals into its metrics registry. In DPA_TRACE=OFF
  // builds no trace sink is ever hooked up; metrics publication still
  // works. On the native backend engines record into per-worker shards
  // (one lock-free ring + histogram set per worker, see obs/shard_sink.h)
  // instead of the single-threaded tracer ring.
  void attach_obs(obs::Session* session) {
    obs = session;
    backend->attach_obs(obs::kTraceEnabled ? session : nullptr);
  }
};

// Wire payloads. The simulation shares one address space; `bytes` on the FM
// packet models the marshalled size.
//
// A request and its reply are the same type and the same object: the home
// serves a request in place and sends it back to the packet's source, and
// the requester keeps the returned payload for its next request (see
// EngineBase::serve_request and request_payload).
struct RefsPayload {
  std::vector<GlobalRef> refs;
};
struct AccumPayload {
  // Per-sender accumulation sequence number: the receiver stages arriving
  // messages and commits them in (src, accum_seq) order at the phase
  // barrier, so floating-point reduction order is a function of the
  // program, not of message timing — the property that makes physics
  // byte-identical across the sim and native backends.
  std::uint64_t accum_seq = 0;
  std::vector<std::pair<GlobalRef, AccumFn>> items;
};

class EngineBase {
 public:
  EngineBase(Cluster& cluster, NodeId node, const RuntimeConfig& cfg,
             fm::HandlerId h_req, fm::HandlerId h_reply,
             fm::HandlerId h_accum);
  virtual ~EngineBase() = default;

  EngineBase(const EngineBase&) = delete;
  EngineBase& operator=(const EngineBase&) = delete;

  // Begins the node's conc loop; posts the first scheduler task.
  void start(NodeWork work);

  // Creates a thread dependent on `ref`; called from app code via Ctx.
  virtual void require(sim::Cpu& cpu, GlobalRef ref, ThreadFn thread) = 0;

  // Sends a commutative update to `ref`'s home (fire and forget). Local
  // homes apply immediately; the DPA engine batches remote ones per
  // destination alongside its request aggregation. No ordering guarantee
  // within a phase — updates must commute.
  virtual void accumulate(sim::Cpu& cpu, GlobalRef ref, AccumFn update);

  // Reply of `bytes` modeled bytes from `src` arrived for refs this node
  // requested: records the arrival, hands the reply to on_reply, then
  // keeps the payload as a spare for a later request.
  void receive_reply(sim::Cpu& cpu, NodeId src, std::uint32_t bytes,
                     std::shared_ptr<RefsPayload> reply);

  // True once the conc loop completed and all queues drained.
  virtual bool done() const = 0;

  // One-line state summary for deadlock diagnostics.
  virtual std::string state_dump() const = 0;

  // Home side: serve a request message of `bytes` modeled bytes from
  // `src` (shared by all engines). The reply is `req` itself, sent back to
  // `src`.
  void serve_request(sim::Cpu& cpu, NodeId src, std::uint32_t bytes,
                     std::shared_ptr<RefsPayload> req);

  // Home side: an accumulation message of `bytes` modeled bytes from `src`
  // arrived. Charges the per-item apply cost now (arrival-time costs are
  // part of the model) but stages the payload; the updates mutate their
  // objects in commit_accums().
  void serve_accum(sim::Cpu& cpu, NodeId src, std::uint32_t bytes,
                   std::shared_ptr<AccumPayload> payload);

  // Applies every staged accumulation in (src, accum_seq) order. Called by
  // the phase runner at the phase barrier, after global quiescence — the
  // deterministic half of the two-level reduction.
  void commit_accums();

  NodeId node_id() const { return node_; }
  Cluster& cluster() { return cluster_; }
  RtNodeStats& stats() { return stats_; }
  const RtNodeStats& stats() const { return stats_; }

 protected:
  // The engine's handling of a reply (see receive_reply).
  virtual void on_reply(sim::Cpu& cpu, const RefsPayload& reply) = 0;

  // Posts a scheduler task if one is not already pending.
  void kick();
  // One scheduler task: processes up to cfg.poll_batch units.
  virtual void sched(sim::Cpu& cpu) = 0;

  // An empty request payload to fill with refs for send_request: a returned
  // reply this engine solely owns when there is one, else a new payload.
  std::shared_ptr<RefsPayload> request_payload();
  // Sends `req` (refs with a common home) to `home`.
  void send_request(sim::Cpu& cpu, NodeId home,
                    std::shared_ptr<RefsPayload> req);
  // Sends a request for the one ref `ref`.
  void send_request(sim::Cpu& cpu, const GlobalRef& ref);
  // Frees the spare payloads, once the engine sends no more requests this
  // phase.
  void release_spares() { spares_.clear(); }

  // Runs one thread with its data; charges dispatch cost.
  void run_thread(sim::Cpu& cpu, const ThreadFn& fn, const void* data);

  // Sends one accumulation message with `items` to `home`.
  void send_accum(sim::Cpu& cpu, NodeId home,
                  std::vector<std::pair<GlobalRef, AccumFn>> items);

  Cluster& cluster_;
  NodeId node_;
  const RuntimeConfig& cfg_;
  fm::HandlerId h_req_;
  fm::HandlerId h_reply_;
  fm::HandlerId h_accum_;
  NodeWork work_;
  std::uint64_t next_root_ = 0;
  bool sched_pending_ = false;
  RtNodeStats stats_;

  // Observability handles, resolved once at construction (null when no
  // session is attached). trace_ is used through DPA_TRACE_EVT only; on the
  // sim backend it is the session tracer, on the native backend this
  // engine's worker shard (single-writer either way).
  obs::EventSink* trace_ = nullptr;
  Pow2Histogram* h_msg_bytes_ = nullptr;  // request/reply/accum wire sizes

 private:
  // Outgoing accumulation-message sequence (stamped into accum_seq) and
  // the home-side staging buffer for the two-level reduction.
  struct StagedAccum {
    NodeId src = 0;
    std::uint64_t seq = 0;
    std::shared_ptr<AccumPayload> payload;
  };
  std::uint64_t accum_seq_next_ = 0;
  std::vector<StagedAccum> staged_accums_;

  // Replies that came back to this node, reused by request_payload() once
  // no other thread still holds them (on a faulted simulator, FM holds each
  // sent payload until its ack arrives).
  std::vector<std::shared_ptr<RefsPayload>> spares_;
};

// The per-thread execution context: thin wrapper over the node Cpu plus the
// engine, giving app code `charge` and `require`.
class Ctx {
 public:
  Ctx(EngineBase& engine, sim::Cpu& cpu) : engine_(engine), cpu_(cpu) {}

  NodeId node() const { return engine_.node_id(); }
  std::uint32_t num_nodes() const;

  // Charges application compute time.
  void charge(Time ns) { cpu_.charge(ns, sim::Work::kCompute); }

  // Creates a thread labeled with `ref`.
  void require(GlobalRef ref, ThreadFn thread) {
    engine_.require(cpu_, ref, std::move(thread));
  }

  // Typed convenience wrapper.
  template <class T, class F>
  void require(GPtr<T> ptr, F&& fn) {
    require_bytes(ptr, sizeof(T), std::forward<F>(fn));
  }

  // As `require`, but models a marshalled size different from sizeof(T)
  // (e.g. an expansion truncated to the configured number of terms).
  template <class T, class F>
  void require_bytes(GPtr<T> ptr, std::uint32_t bytes, F&& fn) {
    GlobalRef ref = ptr.ref();
    ref.bytes = bytes;
    require(ref, [fn = std::forward<F>(fn)](Ctx& ctx, const void* data) {
      fn(ctx, *static_cast<const T*>(data));
    });
  }

  // Fire-and-forget commutative update applied at the object's home
  // (DPA aggregates these alongside its read requests). `fn(T&)` must
  // commute with every other update to the same object in the phase.
  template <class T, class F>
  void accumulate(GPtr<T> ptr, F&& fn) {
    engine_.accumulate(cpu_, ptr.ref(),
                       [fn = std::forward<F>(fn)](void* obj) {
                         fn(*static_cast<T*>(obj));
                       });
  }

  sim::Cpu& cpu() { return cpu_; }
  EngineBase& engine() { return engine_; }

 private:
  EngineBase& engine_;
  sim::Cpu& cpu_;
};

}  // namespace dpa::rt
