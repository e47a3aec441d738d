// Backend: the execution substrate a Cluster runs on.
//
// Everything the runtime layer used to hardwire against sim::Machine +
// fm::FmLayer goes through this interface instead: node count, task spawn,
// active-message send + handler registration, and the phase barrier. Three
// implementations:
//
//   * SimBackend    — the deterministic discrete-event simulator. Modeled
//                     LogGP network, modeled time, byte-identical to the
//                     pre-Backend tree.
//   * NativeBackend — an M:N pool of worker threads multiplexing the
//                     simulated nodes (whole-node work stealing, MPSC
//                     mailboxes, a counted phase end). Messages
//                     are real cross-thread handoffs; phase elapsed time is
//                     real monotonic wall-clock, so the DPA engine's tiling
//                     and aggregation produce *measured* wins, not modeled
//                     ones.
//   * ProcBackend   — worker processes forked per phase, each running a
//                     NativeBackend over the nodes it owns; cross-process
//                     messages travel as frames over socketpairs, and
//                     every process counts its tasks into one shared
//                     TaskTable, so a phase ends by the native rule.
//
// The contract the runtime relies on:
//   * Tasks posted to a node run serially, in post order, on that node. A
//     task posts only to its own node; between nodes it sends.
//   * A handler runs as a task on the destination node; a message sent
//     during a phase is delivered within the same phase, exactly once (on
//     a faulted simulator FM's own recovery protocol makes it so).
//   * begin_phase() zeroes per-node and messaging stats; run_phase()
//     returns only when the whole machine is quiescent (no queued tasks,
//     no in-flight messages), and returns the whole phase record:
//     elapsed time, progress, messaging/scheduler/wire counters, each
//     node's epilogue blob and, on failure, a diagnosis. Per-node stats
//     stay behind node_stats().
//   * After run_phase() returns, the caller (PhaseRunner) is the only
//     thread touching runtime state until the next run_phase().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/types.h"

namespace dpa::sim {
class Machine;
struct NetParams;
}  // namespace dpa::sim

namespace dpa::obs {
struct Session;
}  // namespace dpa::obs

namespace dpa::exec {

// What run_phase() measured. `events` is the substrate's own unit of
// progress: discrete events processed on the simulator, tasks executed on
// the native backend. The counters are summed over every node (and, on
// the proc backend, every worker process); `wire` is all-zero on backends
// without a byte-stream fabric. `epilogues` holds one blob per node from
// the installed phase epilogue (empty when none is installed; an empty
// blob means the owning process died), and `diagnostics` explains a phase
// the backend itself failed (empty when it completed).
struct PhaseExec {
  Time elapsed = 0;
  std::uint64_t events = 0;
  MsgStats msgs;
  SchedStats sched;
  WireStats wire;
  std::vector<std::string> epilogues;
  std::string diagnostics;
};

// Stall-watchdog policy (NativeBackend::Tuning::watchdog, and
// ProcBackend::Config::watchdog for each worker's pool and the proc
// coordinator's phase deadline). Default-constructed = disabled;
// --watchdog-ms on the backend-aware benches arms both triggers. The
// watchdog is a monitor thread that sweeps the quiescence counters every
// scan_interval while tasks are outstanding and a node of its pool is busy
// (on proc, only the worker whose node wedged sees that); it fires
// — dumps a flight-recorder JSON and (when fatal) aborts — when a phase
// outlives phase_deadline, or when the counters make no progress for
// stuck_scans consecutive sweeps. Both triggers must be sized well above
// the longest legitimate task: the watchdog cannot tell a wedged phase
// from one very slow task, only from the counters' point of view they
// look the same.
struct WatchdogConfig {
  Time phase_deadline = 0;        // wall ns per phase; 0 = no deadline
  std::uint32_t stuck_scans = 0;  // no-progress sweeps before firing; 0 = off
  Time scan_interval = 50'000'000;  // ns between watchdog sweeps
  std::string dump_path;  // flight-recorder JSON ("" = stderr summary only)
  bool fatal = true;      // abort after dumping (fail loudly instead of hang)

  bool enabled() const { return phase_deadline > 0 || stuck_scans > 0; }
  bool operator==(const WatchdogConfig&) const = default;
};

// How the multi-process backend merges a registered memory span back into
// the coordinator at the phase barrier.
enum class SpanMerge : std::uint8_t {
  kBytes,   // owner's bytes win: ship changed runs, copy them over
  kSumU64,  // commutative counters: ship per-lane u64 deltas, add them
};

// A host-memory region that phase tasks may write and the phase result
// depends on. Single-process backends share the address space and ignore
// these; the multi-process backend diffs each worker's spans against its
// fork-time snapshot and applies the changes in the coordinator. Spans
// must cover every phase-visible write (global-heap objects are registered
// automatically; apps register their host arrays and counters).
struct PhaseSpan {
  const void* addr = nullptr;
  std::uint64_t bytes = 0;
  SpanMerge merge = SpanMerge::kBytes;
};

// How a handler payload crosses a process boundary: marshal flattens the
// in-memory payload to bytes, unmarshal rebuilds it on the other side.
// Single-process backends never invoke these; a default-constructed codec
// means the handler's messages never cross one.
struct WireCodec {
  std::function<std::vector<std::uint8_t>(const void* data,
                                          std::uint32_t bytes)>
      marshal;
  std::function<std::shared_ptr<void>(const std::uint8_t* bytes,
                                      std::size_t len)>
      unmarshal;
};

class Backend {
 public:
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  virtual BackendKind kind() const = 0;
  virtual std::uint32_t num_nodes() const = 0;

  // --- Active messages -----------------------------------------------
  // Registers a handler (same id on every node) with the byte codec for
  // its payloads. Must happen before any send and before the first
  // run_phase(). The name only labels errors.
  virtual HandlerId register_handler(std::string name, Handler fn,
                                     WireCodec codec = {}) = 0;

  // Sends from node `src`, called from inside a task running on `src`.
  // Charges send overhead (Work::kComm) to `cpu` per the backend's cost
  // model; the handler runs as a task on `dst`.
  virtual void send(Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
                    std::shared_ptr<void> data, std::uint32_t bytes) = 0;

  // --- Task spawn ----------------------------------------------------
  // Enqueues a task on `node`. Tasks run serially in post order. The main
  // thread seeds any node between phases; a task posts only to its own
  // node. Between nodes, tasks send(): messages are the one path from
  // node to node, and the only one that crosses a process boundary. The
  // native and proc backends fail a task's post to another node loudly,
  // naming both nodes.
  virtual void post(NodeId node, Task task) = 0;

  // --- Outbound flush ------------------------------------------------
  // Pushes any messages the backend has buffered on `node`'s outbound path
  // to their destinations (the native backend's per-destination trains).
  // Must be called from a task running on `node`. The runtime calls it
  // where it flushes its own aggregation buffers (tile/strip boundaries),
  // so fabric latency tracks the engine's batching policy; every backend
  // also implies a flush whenever a node runs out of local work, so phase
  // termination never depends on this hook being called. No-op on the
  // simulator — its FM layer hands messages to the modeled network eagerly.
  virtual void flush(Cpu& cpu, NodeId node) {
    (void)cpu;
    (void)node;
  }

  // --- Phase barrier -------------------------------------------------
  // Marks the start of a timed phase (zeroes node + messaging stats);
  // returns the phase-start timestamp in this backend's clock.
  virtual Time begin_phase() = 0;

  // Runs the phase to global quiescence and returns its record.
  virtual PhaseExec run_phase() = 0;

  // Per-node accounting for the last phase (valid after run_phase).
  virtual const NodeStats& node_stats(NodeId node) const = 0;

  // The phase epilogue runs once per node after quiescence, *in the
  // process that owns the node*, and returns that node's result blob
  // (commit order, done flags, stats — PhaseRunner defines the encoding)
  // for PhaseExec::epilogues. Single-process backends run it at the end of
  // run_phase() on the caller's thread (run_epilogues); the multi-process
  // backend runs it in each worker and ships the blobs home.
  using PhaseEpilogue = std::function<std::string(NodeId)>;
  void set_phase_epilogue(PhaseEpilogue fn) { phase_epilogue_ = std::move(fn); }

  // --- Observability ---------------------------------------------------
  // Hooks the backend's own record sites up to a session's trace sinks
  // (null detaches): the simulator's machine and network record task and
  // wire spans into session->tracer; the native backend's workers record
  // into per-worker shards (obs/shard_sink.h). Must be called between
  // phases. No-op on backends that record nothing of their own (proc).
  virtual void attach_obs(obs::Session* session) { (void)session; }

  // --- Multi-process hooks ---------------------------------------------
  // All of these are meaningful only on BackendKind::kProc; the defaults
  // make single-process backends behave exactly as before, so callers may
  // use them unconditionally.

  // Installs the producer of the durable span list (global-heap objects,
  // registered once at cluster construction). Called with the vector to
  // append to; runs in the coordinator before each fork.
  virtual void set_span_source(
      std::function<void(std::vector<PhaseSpan>&)> fn) {
    (void)fn;
  }

  // Registers / unregisters a transient span (an app's per-step host array
  // or counter) for the next run_phase. remove is keyed by addr.
  virtual void add_phase_span(PhaseSpan span) { (void)span; }
  virtual void remove_phase_span(const void* addr) { (void)addr; }

  // Escape hatch for sim-specific callers (network stats, targeted fault
  // injection in tests). Null on the native backend.
  virtual sim::Machine* sim_machine() { return nullptr; }

  bool is_sim() const { return kind() == BackendKind::kSim; }

 protected:
  Backend() = default;

  // One blob per node from the installed epilogue, run on the calling
  // thread; empty when none is installed (a backend driven without a
  // PhaseRunner).
  std::vector<std::string> run_epilogues() const {
    std::vector<std::string> blobs;
    if (!phase_epilogue_) return blobs;
    blobs.resize(num_nodes());
    for (NodeId n = 0; n < blobs.size(); ++n) blobs[n] = phase_epilogue_(n);
    return blobs;
  }

  PhaseEpilogue phase_epilogue_;  // installed by PhaseRunner before run()
};

// RAII registration of a transient phase span (no-op on single-process
// backends, matching add/remove above).
class ScopedPhaseSpan {
 public:
  ScopedPhaseSpan(Backend& backend, PhaseSpan span)
      : backend_(backend), addr_(span.addr) {
    backend_.add_phase_span(span);
  }
  ~ScopedPhaseSpan() { backend_.remove_phase_span(addr_); }

  ScopedPhaseSpan(const ScopedPhaseSpan&) = delete;
  ScopedPhaseSpan& operator=(const ScopedPhaseSpan&) = delete;

 private:
  Backend& backend_;
  const void* addr_;
};

// Factory. `params` configures the simulated network; the native backend
// has no modeled network and ignores everything but the node count.
std::unique_ptr<Backend> make_backend(BackendKind kind, std::uint32_t nodes,
                                      const sim::NetParams& params);

}  // namespace dpa::exec
